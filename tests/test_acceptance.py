"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

All checks are exact; the only tolerances are the stated wall-clock
budgets, which are asserted where the criterion states one.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from incidencelab.analysis import (
    TABLE_I,
    bipartite_edges,
    determinant_monomials,
    joint_bound,
    match_structure,
    minimality_audit,
    monte_carlo,
)
from incidencelab.constructions import (
    AlgebraicParams,
    ProbParams,
    default_generic_slits,
    gen_algebraic,
    gen_dual_cycles,
    gen_two_slit,
    quadric_ruling,
    quadric_ruling_slits,
)
from incidencelab.exactgeom import meet
from incidencelab.gridmodel import is_k_consistent, max_colorful_order
from incidencelab.structure import (
    extract_alignments,
    extract_structure_grid,
    extract_structure_lines,
    structure_consistency,
)
from incidencelab.transforms import (
    dualize,
    extract_planarity,
    lift_to_concurrent,
    project_generic,
    undualize,
)
from oracles import (
    GridLine,
    affine,
    concurrency_center,
    embed_grid_line,
    family_config,
    grid_meet,
    line_classes,
    lines_of,
    point_enumeration_incidences,
)
from test_gridmodel import grid_point_incidences


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_smallest_algebraic_instance():
    t0 = time.time()
    cfg = gen_algebraic(AlgebraicParams(3, 2))
    sizes_ok = cfg.class_sizes() == (32, 32, 32, 32)
    consistent = is_k_consistent(cfg, 3).ok
    order, _ = max_colorful_order(cfg)
    minimal = minimality_audit(cfg.points, 3).minimal
    elapsed = time.time() - t0
    ok = sizes_ok and consistent and order == 3 and minimal and elapsed < 5.0
    report(
        1,
        ok,
        f"k=3 p=2: 32/class={sizes_ok}, 3-consistent={consistent}, "
        f"max_colorful={order}, minimal under 128 removals={minimal}, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_class_size_formula():
    t0 = time.time()
    results = []
    for k, p in [(3, 2), (3, 3), (4, 2)]:
        cfg = gen_algebraic(AlgebraicParams(k, p))
        expected = p ** (k * k - k - 1)
        results.append(cfg.class_sizes() == (expected,) * (k + 1))
    cfg42 = gen_algebraic(AlgebraicParams(4, 2))
    full = (
        cfg42.class_sizes() == (2048,) * 5
        and cfg42.n == 8
        and is_k_consistent(cfg42, 4).ok
        and max_colorful_order(cfg42)[0] == 4
    )
    elapsed = time.time() - t0
    ok = all(results) and full and elapsed < 60.0
    report(
        2,
        ok,
        f"|Li|=p^(k^2-k-1) exact for (3,2),(3,3),(4,2): {all(results)}; "
        f"k=4,p=2 full verification={full} in {elapsed:.1f}s < 60s",
    )


def test_criterion_3_no_k_plus_1_incidence_oracle_agreement():
    agreements = []
    no_colorful = []
    for k, p in [(3, 2), (3, 3), (4, 2)]:
        cfg = gen_algebraic(AlgebraicParams(k, p))
        oracle = point_enumeration_incidences(cfg)
        hashed = grid_point_incidences(cfg)
        agreements.append(oracle == hashed)
        no_colorful.append(
            all(len({c for c, _ in refs}) <= k for refs in oracle.values())
        )
    ok = all(agreements) and all(no_colorful)
    report(
        3,
        ok,
        f"point-enumeration oracle agrees with line hashing: {agreements}; "
        f"no grid point carries all k+1 colors: {no_colorful}",
    )


def test_criterion_4_probabilistic_trials_and_golden(golden_dir):
    grid = [ProbParams(3, n, 7) for n in (16, 32, 64)]
    rep = monte_carlo(grid, 200)
    within = {s.n: s.colorful_within_k_rate for s in rep.summaries}
    all_within = all(rate == 1.0 for rate in within.values())
    golden = (golden_dir / "monte_carlo_k3_n32_seed7_t100.csv").read_text()
    golden_ok = monte_carlo([ProbParams(3, 32, 7)], 100).to_csv() == golden
    for s in rep.summaries:
        print(
            f"\n  n={s.n}: consistency rate={s.consistency_rate:.3f}, "
            f"size quartiles={s.size_quartiles}, window rate={s.window_rate:.2f}, "
            f"mean bad lines={s.mean_bad_lines:.1f}"
        )
    ok = all_within and golden_ok
    report(
        4,
        ok,
        f"200 trials x n in (16,32,64): max colorful <= 3 rate {within} (all 1.0: "
        f"{all_within}); golden CSV bit-exact: {golden_ok}",
    )


def test_criterion_5_reye_desargues_classification(reye, desargues):
    t0 = time.time()
    verdicts = {}
    for name, cfg, table in (("desargues", desargues, "II"), ("reye", reye, "I")):
        s = extract_structure_lines(cfg)
        verdicts[name] = (
            cfg.class_sizes() == (3, 3, 3, 3)
            and not extract_planarity(cfg)[0]
            and structure_consistency(s, 3).ok
            and s.max_colorful()[0] == 3
            and match_structure(s, table) is not None
        )
    det_ok = determinant_monomials() == TABLE_I
    elapsed = time.time() - t0
    ok = all(verdicts.values()) and det_ok and elapsed < 10.0
    report(
        5,
        ok,
        f"desargues valid+isomorphic to II: {verdicts['desargues']}; "
        f"reye valid+isomorphic to I: {verdicts['reye']}; "
        f"determinant monomials == table I: {det_ok}; {elapsed:.1f}s < 10s",
    )


def test_criterion_6_transform_pipeline_20_seeds(algebraic_3_2):
    source = extract_structure_grid(algebraic_3_2)
    grid_consistent = is_k_consistent(algebraic_3_2, 3).ok
    grid_order, _ = max_colorful_order(algebraic_3_2)
    lifted, lifted_structure = lift_to_concurrent(algebraic_3_2)  # audited internally
    failures = []
    for seed in range(20):
        res = project_generic(lifted, lifted_structure, 3, seed=seed)
        after = extract_structure_lines(res.config)
        same_structure = after == source
        verdict = structure_consistency(after, 3)
        same_verdicts = (
            verdict.ok == grid_consistent and after.max_colorful()[0] == grid_order
        )
        if not (same_structure and same_verdicts):
            failures.append(seed)
    ok = not failures
    report(
        6,
        ok,
        f"lift + generic projection to R^3 preserves structure and verdicts "
        f"for 20 seeds (failing seeds: {failures})",
    )


def test_criterion_7_flatness_and_bound(algebraic_3_2):
    from incidencelab.analysis import flatness_audit

    lifted, s = lift_to_concurrent(algebraic_3_2, audit=False)
    projected = project_generic(lifted, s, 3, seed=0).config
    records = flatness_audit(projected, extract_structure_lines(projected), 3)
    flats = [r for r in records if r.flat]
    bound = joint_bound(projected, 3)
    ok = (
        not flats
        and bound.total_lines == 128
        and bound.bound == Fraction(10, 3)
        and bound.satisfied
    )
    report(
        7,
        ok,
        f"projected instance: {len(records)} incidences of >=3 lines audited, "
        f"{len(flats)} flat; total 128 >= 10/3 exact: {bound.satisfied}",
    )


def test_criterion_8_duality_round_trip(desargues):
    flat = project_generic(desargues, extract_structure_lines(desargues), 2, seed=13).config
    round_trip = undualize(dualize(flat))
    structure_ok = extract_structure_lines(flat) == extract_structure_lines(round_trip)

    dual_cfg, rep = gen_dual_cycles(2)
    lines = undualize(dual_cfg)
    sizes = lines.class_sizes()
    sizes_ok = sizes == (2, 4, 4, 4)
    even_sizes_ok = all(s % 2 == 0 and s >= 4 for s in sizes[1:])
    concurrent_ok = all(
        concurrency_center(cls) is not None for cls in line_classes(lines)[1:]
    )
    dual_consistency = rep.triples_with_direction_color
    no_colorful = extract_alignments(dual_cfg).max_colorful()[0] <= 3
    ok = structure_ok and sizes_ok and even_sizes_ok and concurrent_ok and dual_consistency and no_colorful
    report(
        8,
        ok,
        f"dualize-then-invert reproduces structure: {structure_ok}; witness sizes "
        f"{sizes} (|L1|=2, others even >=4: {even_sizes_ok}), concurrent classes: "
        f"{concurrent_ok}, direction triples consistent: {dual_consistency}, "
        f"no colorful alignment: {no_colorful}; {{2,3,4}} triple reported: "
        f"{rep.triple_other_colors}",
    )


def test_criterion_9_two_slit_dichotomy():
    t0 = time.time()
    slits = default_generic_slits()
    A = gen_two_slit(1, slits, 50, seed=20)
    B = gen_two_slit(2, slits, 50, seed=21)
    generic = bipartite_edges(family_config(A, B))

    qslits = quadric_ruling_slits()
    A2 = np.concatenate((gen_two_slit(1, qslits, 47, seed=20), [
        quadric_ruling(2, (1, t)) for t in (3, 4, 5)
    ]))
    B2 = np.concatenate((gen_two_slit(2, qslits, 47, seed=21), [
        quadric_ruling(1, (t, 1)) for t in (3, 4, 5)
    ]))
    slit_lines = lines_of(qslits)
    for extra in lines_of(A2[-3:]):
        assert meet(extra, slit_lines[0]) is not None and meet(extra, slit_lines[1]) is not None
    quadric = bipartite_edges(family_config(A2, B2))
    elapsed = time.time() - t0
    ok = generic.k33 is None and quadric.k33 is not None and elapsed < 30.0
    report(
        9,
        ok,
        f"generic 50x50: edges={generic.edges}, no K33: {generic.k33 is None}; "
        f"quadric rulings: K33 witness={quadric.k33}; {elapsed:.1f}s < 30s",
    )


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (3, 8), (4, 3)])
def test_criterion_10_cross_module_oracle(k, n):
    rng = random.Random(0xACCE97 + 1000 * k + n)
    checked = 0
    mismatches = 0
    while checked < 1000:
        def draw():
            axis = rng.randint(1, k + 1)
            base = [rng.randint(1, n) for _ in range(k + 1)]
            base[axis - 1] = 0
            return GridLine(axis, tuple(base))

        a, b = draw(), draw()
        if a == b:
            continue
        checked += 1
        got = grid_meet(a, b)
        exact = meet(embed_grid_line(a), embed_grid_line(b))
        if a.axis == b.axis:
            agree = got is None and exact is not None and exact.coords[-1] == 0
        elif got is None:
            agree = exact is None
        else:
            agree = exact == affine(got)
        mismatches += not agree
    ok = mismatches == 0
    report(
        10,
        ok,
        f"(k={k}, n={n}): 1000 random pairs, grid meet == rational meet "
        f"({mismatches} mismatches)",
    )
