import json
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from incidencelab import constructions
from incidencelab.cli import _dump_json
from incidencelab.constructions import (
    DESARGUES_COLORS,
    DESARGUES_ENDS,
    REYE_COLORS,
    AlgebraicParams,
    SELECTION_CHUNK,
    TRIAL_BATCH_LINES,
    ProbParams,
    _cube_lines,
    _deletion,
    _hits,
    _popcount,
    _selection_masks,
    _set_bits,
    _slab_width,
    _split,
    _trial_stats,
    _validate_4x3,
    default_generic_slits,
    gen_algebraic,
    gen_desargues,
    gen_dual_cycles,
    gen_probabilistic,
    gen_reye,
    gen_tricolor,
    gen_two_slit,
    probabilistic_batch_stats,
    probabilistic_trial_stats,
    quadric_ruling,
    quadric_ruling_slits,
)
from incidencelab.configs import ColoredLineConfig
from incidencelab.exactgeom import Line, ProjPoint, int_rank, is_prime, meet
from incidencelab.gridmodel import (
    ColoredGridConfig,
    breaks_consistency_without,
    grid_to_json,
    is_k_consistent,
    max_colorful_order,
)
from incidencelab.rng import selection_threshold, splitmix64_block, substream
from incidencelab.structure import (
    extract_alignments,
    extract_structure_lines,
    structure_consistency,
)
from oracles import (
    DESARGUES_PLANES,
    GridLine,
    closure_shift,
    colorful_point_exists,
    concurrency_center,
    cube_lines,
    decoded,
    dense_deletion,
    dense_trial_stats,
    dual_cycle_points,
    generic_slit_lines,
    grid_config,
    gridline_from_index,
    line_classes,
    line_config,
    lines_of,
    quadric_ruling_line,
    quadric_slit_lines,
    rank_of_directions,
    search_desargues_colors,
    search_reye_colors,
    six_fold_map,
    sparse_deletion,
    tricolor_lines,
    two_plane_lines,
    two_slit_lines,
    with_computed_centers,
)


def deletion_masks(k, n, masks, width):
    """``_deletion`` of one trial's masks, the group of one, with each
    axis's survivors, strictly increasing base indices, turned into a
    base-index mask."""
    survivors, covered = _deletion(k, n, masks, width)
    final = [np.zeros(n**k, dtype=bool) for _ in survivors]
    for mask, ids in zip(final, survivors):
        assert ids.dtype == np.int64 and (np.diff(ids) > 0).all()
        mask[ids] = True
    assert covered.shape == (1,)
    return final, int(covered[0])


def stage_masks(params: ProbParams):
    """(stage-1 masks, stage-2 masks, covered points) of one run, the
    deletion in slabs of ``_slab_width``."""
    k, n = params.k, params.n
    selected = _selection_masks(k, n, [params])[0]
    return (selected, *deletion_masks(k, n, selected, _slab_width(k, n)))


def check_group(k, n, trials, width, oracle=sparse_deletion):
    """One ``_deletion`` pass over a group of trials' masks, (T, k+1, n^k),
    against ``oracle`` of each trial on its own: trial t's survivors,
    offset by t * n^k, and its covered points."""
    survivors, covered = _deletion(k, n, np.array(trials), width)
    assert covered.dtype == np.int64 and covered.shape == (len(trials),)
    for ids in survivors:  # each in some trial's range, strictly increasing
        assert ids.dtype == np.int64 and (np.diff(ids) > 0).all()
        assert ids.size == 0 or 0 <= ids[0] and ids[-1] < len(trials) * n**k
    for t, masks in enumerate(trials):
        final, expected = oracle(k, n, masks)
        assert covered[t] == expected
        for ids, mask in zip(survivors, final):
            mine = ids[(t * n**k <= ids) & (ids < (t + 1) * n**k)]
            assert np.array_equal(mine - t * n**k, np.flatnonzero(mask))


def one_bit(size: int, byte: int, bit: int) -> bytes:
    """``size`` zero bytes but bit ``bit`` of byte ``byte % size``: at 0 or 7,
    on either side of a byte edge, and of a uint64 word edge at bytes 7/8."""
    octets = bytearray(size)
    octets[byte % size] = 1 << bit
    return bytes(octets)


@st.composite
def axis_masks(draw, k, n):
    """k+1 base-index masks of one density: none, all, or a random share."""
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rng.random(n**k) < p for _ in range(k + 1)]


@st.composite
def final_masks(draw, k, n):
    """Stage-2 masks: the deletion of stage-1 masks of per-axis densities."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)
    densities = draw(st.lists(density, min_size=k + 1, max_size=k + 1))
    return deletion_masks(k, n, [rng.random(n**k) < p for p in densities], 1)[0]


@st.composite
def trial_masks(draw, k, n):
    """One trial's k+1 masks: every axis empty, full, holding one line
    (anywhere, or through one shared grid point) or a random share, taken
    as stage-1 masks (a (k+1)-colored point is possible) or deleted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="rng"))
    point = draw(st.lists(st.integers(0, n - 1), min_size=k + 1, max_size=k + 1))
    masks = []
    for axis in range(k + 1):
        kind = draw(st.sampled_from(["empty", "full", "single", "through", "share"]))
        mask = np.full(n**k, kind == "full")
        if kind == "single":
            mask[draw(st.integers(0, n**k - 1), label="line")] = True
        elif kind == "through":
            mask[np.ravel_multi_index(point[:axis] + point[axis + 1 :], (n,) * k)] = True
        elif kind == "share":
            mask = rng.random(n**k) < draw(st.floats(0.05, 0.95), label="density")
        masks.append(mask)
    return deletion_masks(k, n, masks, 1)[0] if draw(st.booleans(), label="deleted") else masks


@st.composite
def planted_sparse_masks(draw, k, n):
    """k+1 sparse base-index masks with a few grid points planted on a line
    of every axis (so covered) or of every axis but one (so not)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="rng"))
    masks = [rng.random(n**k) < draw(st.floats(0, 0.002), label="density") for _ in range(k + 1)]
    for _ in range(draw(st.integers(0, 4), label="points")):
        point = rng.integers(0, n, k + 1).tolist()
        missing = draw(st.integers(0, k + 1), label="missing axis")  # k + 1: none
        for axis in set(range(k + 1)) - {missing}:
            masks[axis][np.ravel_multi_index(point[:axis] + point[axis + 1 :], (n,) * k)] = True
    return masks


def or_filled_hits(k, n, survivors, rows):
    """``_hits`` with each table filled by a 2-d ``np.bitwise_or.at``, which
    is right whether or not two survivors set the same bit."""
    words, hits = -(-n // 64), [[None] * (k + 1) for _ in range(k + 1)]
    for s, t in permutations(range(k + 1), 2):
        at, x = _split(k, n, survivors[t], t, s)
        table = np.zeros((rows, words), dtype=np.uint64)
        np.bitwise_or.at(table, (at, x >> 6), np.uint64(1) << (x & 63).astype(np.uint64))
        hits[s][t] = table[_split(k, n, survivors[s], s, t)[0]]
    return hits


def batch_stats(k, n, trials) -> list[tuple[int, int]]:
    """(bad lines, max colorful order) per trial from one ``_trial_stats``
    call on the batch: trial t's survivors are offset by t * n^k."""
    survivors = [
        np.concatenate([np.flatnonzero(masks[axis]) + t * n**k for t, masks in enumerate(trials)])
        for axis in range(k + 1)
    ]
    bad, orders = _trial_stats(k, n, survivors, len(trials))
    assert bad.shape == orders.shape == (len(trials),)
    return list(zip(bad.tolist(), orders.tolist()))


def mask_stats(k, n, masks) -> tuple[int, int]:
    """``_trial_stats`` of one trial's stage-2 masks, the batch of one."""
    return batch_stats(k, n, [masks])[0]


class TestVVectors:
    def test_k3_p2(self):
        assert AlgebraicParams(3, 2).v == ((1, 0), (0, 1), (1, 1))

    def test_k3_p5(self):
        assert AlgebraicParams(3, 5).v == ((1, 0), (0, 1), (4, 4))

    @pytest.mark.parametrize("k,p", [(3, 2), (4, 3), (5, 2), (6, 5)])
    def test_sum_zero(self, k, p):
        vecs = AlgebraicParams(k, p).v
        assert all(sum(v[t] for v in vecs) % p == 0 for t in range(k - 1))

    def test_invariants_enforced(self):
        # every k-1 of the vectors are independent: no nonzero combination
        # of them over F_p vanishes
        for k, p in [(3, 2), (3, 5), (4, 3), (5, 2)]:
            for subset in combinations(AlgebraicParams(k, p).v, k - 1):
                for coeffs in product(range(p), repeat=k - 1):
                    total = [sum(c * v[t] for c, v in zip(coeffs, subset)) for t in range(k - 1)]
                    assert any(x % p for x in total) or not any(coeffs)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicParams(3, 4)
        assert not is_prime(1) and is_prime(2) and not is_prime(9)


def brute_force_class(params: AlgebraicParams, i: int) -> set[GridLine]:
    """Oracle: filter all of V^k by the class equation, independently of the
    generator's affine-solution enumeration."""
    k, p, v = params.k, params.p, params.v
    dim = k - 1
    if i <= k:
        slots = [j for j in range(1, k + 2) if j != i]
        coeff = {j: v[i - 2] if j < i else v[i - 1] for j in slots}
        rhs = 0
    else:
        slots = list(range(1, k + 1))
        coeff = {j: v[k - 1] for j in slots}
        rhs = 1
    out = set()
    for assignment in product(range(p), repeat=dim * len(slots)):
        total = 0
        for s_idx, j in enumerate(slots):
            vec = assignment[s_idx * dim : (s_idx + 1) * dim]
            total += sum(a * b for a, b in zip(coeff[j], vec))
        if total % p != rhs:
            continue
        base = [0] * (k + 1)
        for s_idx, j in enumerate(slots):
            vec = assignment[s_idx * dim : (s_idx + 1) * dim]
            base[j - 1] = 1 + sum(e * p**t for t, e in enumerate(vec))
        out.add(GridLine(i, tuple(base)))
    return out


class TestAlgebraic:
    def test_sizes_k3_p2(self, algebraic_3_2):
        assert algebraic_3_2.class_sizes() == (32, 32, 32, 32)
        assert algebraic_3_2.n == 4

    def test_sizes_k3_p3(self, algebraic_3_3):
        assert algebraic_3_3.class_sizes() == (243,) * 4

    def test_sizes_k4_p2(self, algebraic_4_2):
        assert algebraic_4_2.class_sizes() == (2048,) * 5
        assert algebraic_4_2.n == 8

    def test_classes_match_brute_force_filter(self, algebraic_3_2):
        params = AlgebraicParams(3, 2)
        for i in range(1, 5):
            assert set(decoded(algebraic_3_2)[i - 1]) == brute_force_class(params, i)

    @pytest.mark.parametrize("k,p", [(3, 3), (4, 2)])
    def test_array_classes_match_brute_force_filter(self, k, p):
        params = AlgebraicParams(k, p)
        classes = decoded(gen_algebraic(params))
        for i in range(1, k + 2):
            assert set(classes[i - 1]) == brute_force_class(params, i)

    def test_algebraic_4_3_runs_in_class_size_memory(self):
        # the ids are built column by column: no solution matrix, no Python ints
        params = AlgebraicParams(4, 3)
        tracemalloc.start()
        try:
            cfg = gen_algebraic(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.class_sizes() == (params.class_size,) * 5
        assert peak <= 16 * 8 * params.class_size  # 16 classes of int64 ids: 21.6 MiB

    def test_equation_sum_contradiction(self):
        # summing the k+1 equations gives coefficient 0 on every slot but
        # right-hand side 1, independently of the grid
        for k, p in [(3, 2), (3, 3), (4, 2), (4, 3)]:
            params = AlgebraicParams(k, p)
            v = params.v
            for j in range(1, k + 2):
                total = [0] * (k - 1)
                for i in range(1, k + 1):  # equation of class i
                    if j == i:
                        continue
                    coeff = v[i - 2] if j < i else v[i - 1]
                    total = [
                        (a + b) % p for a, b in zip(total, coeff)
                    ]
                if j <= k:  # class k+1 equation covers slots 1..k
                    total = [(a + b) % p for a, b in zip(total, v[k - 1])]
                assert all(t == 0 for t in total)

    def test_no_colorful_point_by_full_sweep(self, algebraic_3_2):
        assert not colorful_point_exists(algebraic_3_2)

    @pytest.mark.parametrize("k,p", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_no_common_solution_tensor(self, k, p):
        # numeric counterpart of the summed-equation contradiction: evaluate
        # all k+1 class equations over the whole parameter grid with numpy
        # and confirm no point satisfies every one of them
        import numpy as np

        params = AlgebraicParams(k, p)
        n, dim, v = params.n, k - 1, params.v
        # value of vec . X for every coordinate x in [1, n]
        digit_tables = {}
        for vec in v:
            vals = np.empty(n, dtype=np.int64)
            for x in range(n):
                digits = [(x // p**t) % p for t in range(dim)]
                vals[x] = sum(a * b for a, b in zip(vec, digits)) % p
            digit_tables[vec] = vals

        shape = (n,) * (k + 1)
        satisfied = np.ones(shape, dtype=bool)
        for i in range(1, k + 2):
            total = np.zeros(shape, dtype=np.int64)
            rhs = 0 if i <= k else 1
            for j in range(1, k + 2):
                if j == i:
                    continue
                vec = (v[i - 2] if j < i else v[i - 1]) if i <= k else v[k - 1]
                table = digit_tables[vec]
                idx = [None] * (k + 1)
                idx[j - 1] = slice(None)
                total = total + table[tuple(idx)]
            this_eq = (total % p) == rhs
            # points on class-i lines: |class| * n = p^(k^2 - 2)
            assert int(this_eq.sum()) == p ** (k * k - 2)
            satisfied &= this_eq
        assert not satisfied.any()

    def test_consistent_and_minimal_smoke(self, algebraic_3_2):
        assert is_k_consistent(algebraic_3_2, 3).ok
        assert max_colorful_order(algebraic_3_2)[0] == 3
        assert breaks_consistency_without(algebraic_3_2, 3, (2, 17))


class TestProbabilistic:
    def test_golden_run(self, golden_dir):
        golden = json.loads((golden_dir / "prob_k3_n64_seed42.json").read_text())
        _, after, rep = gen_probabilistic(ProbParams(3, 64, 42))
        assert str(rep.p_sel) == golden["p_sel"]
        assert list(rep.selected_sizes) == golden["selected_sizes"]
        assert list(rep.final_sizes) == golden["final_sizes"]
        assert rep.covered_points == golden["covered_points"]
        assert after.class_sizes() == tuple(golden["final_sizes"])

    def test_full_selection_deletes_everything(self):
        before, after, rep = gen_probabilistic(ProbParams(3, 2, 0, Fraction(1)))
        assert before.class_sizes() == (8, 8, 8, 8)
        assert after.class_sizes() == (0, 0, 0, 0)
        assert rep.covered_points == 16

    @pytest.mark.parametrize("seed", [0, 1, 2, 99])
    def test_no_colorful_after_deletion(self, seed):
        _, after, _ = gen_probabilistic(ProbParams(3, 8, seed))
        order, _ = max_colorful_order(after)
        assert order <= 3
        assert not colorful_point_exists(after)

    @pytest.mark.parametrize("emit", [("after",), ("before",)])
    def test_emit_builds_only_the_requested_stage(self, emit):
        params = ProbParams(3, 16, 4)
        both = gen_probabilistic(params)
        one = gen_probabilistic(params, emit=emit)
        kept = 0 if emit == ("before",) else 1
        assert one[1 - kept] is None
        assert one[kept] == both[kept] and one[2] == both[2]

    def test_deterministic(self):
        a = gen_probabilistic(ProbParams(3, 8, 5))[1]
        b = gen_probabilistic(ProbParams(3, 8, 5))[1]
        assert a == b

    @pytest.mark.parametrize("n,seed", [(4, 1), (8, 2)])
    def test_sparse_matches_dense(self, n, seed):
        k = 3
        params = ProbParams(k, n, seed)
        masks = _selection_masks(k, n, [params])[0]
        dense_final, dense_cov = dense_deletion(k, n, masks)
        sparse_final, sparse_cov = sparse_deletion(k, n, masks)
        assert dense_cov == sparse_cov
        for md, ms in zip(dense_final, sparse_final):
            assert (md == ms).all()
        _, final, covered = stage_masks(params)
        assert covered == dense_cov
        for m, md in zip(final, dense_final):
            assert np.array_equal(m, md)

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([3, 4]), n=st.integers(2, 9), data=st.data())
    def test_slab_deletion_matches_oracles(self, k, n, data):
        width = data.draw(st.integers(1, n + 1), label="width")
        masks = data.draw(axis_masks(k, n))
        final, covered = deletion_masks(k, n, masks, width)
        for oracle in (dense_deletion, sparse_deletion):
            oracle_final, oracle_covered = oracle(k, n, masks)
            assert covered == oracle_covered
            for m, om in zip(final, oracle_final):
                assert np.array_equal(m, om)

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(65, 100), data=st.data())
    def test_wide_slab_deletion_matches_sparse_oracle(self, n, data):
        # x_(k+1) spans two uint64 words; slabs of one x1-slice up to all of them
        k = 3
        width = data.draw(st.integers(1, n + 1), label="width")
        masks = data.draw(planted_sparse_masks(k, n), label="masks")
        final, covered = deletion_masks(k, n, masks, width)
        sparse_final, sparse_covered = sparse_deletion(k, n, masks)
        assert covered == sparse_covered
        for m, ms in zip(final, sparse_final):
            assert np.array_equal(m, ms)

    def test_slabs_with_a_partial_last_slab_match_dense(self):
        # n=41 streams slabs of 38 x1-slices, the last one holding 3
        k, n = 3, 41
        assert n % _slab_width(k, n) != 0
        selected, final, covered = stage_masks(ProbParams(k, n, 11))
        dense_final, dense_cov = dense_deletion(k, n, selected)
        assert covered == dense_cov > 0
        for m, md in zip(final, dense_final):
            assert np.array_equal(m, md)

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_kernel_matches_oracles_at_word_boundaries(self, n):
        # x_(k+1) fills 63, 64 or 65 bits of its uint64 words
        k = 3
        rng = np.random.default_rng(n)
        masks = [rng.random(n**k) < 0.3 for _ in range(k + 1)]
        dense_final, dense_cov = dense_deletion(k, n, masks)
        expected = dense_trial_stats(k, n, dense_final)
        assert expected[1] == k
        for width in (1, 7, n + 1):
            final, covered = deletion_masks(k, n, masks, width)
            assert covered == dense_cov
            for m, md in zip(final, dense_final):
                assert np.array_equal(m, md)
        assert mask_stats(k, n, final) == expected
        sparse = [rng.random(n**k) < 0.01 for _ in range(k + 1)]
        sparse_final, sparse_cov = sparse_deletion(k, n, sparse)
        final, covered = deletion_masks(k, n, sparse, 7)
        assert covered == sparse_cov
        for m, ms in zip(final, sparse_final):
            assert np.array_equal(m, ms)

    def test_popcount_matches_bin_count(self):
        rng = np.random.default_rng(3)
        edges = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        words = np.concatenate([edges, rng.integers(0, 2**64, 1000, dtype=np.uint64)])
        kept = words.copy()
        counts = _popcount(words)
        assert [int(c) for c in counts] == [bin(int(w)).count("1") for w in words]
        assert [int(c) for c in counts[:4]] == [0, 1, 1, 64]
        assert np.array_equal(words, kept)

    @settings(max_examples=80, deadline=None)
    @given(
        octets=st.one_of(
            st.just(b""),
            st.integers(1, 40).map(lambda size: b"\xff" * size),
            st.builds(one_bit, st.integers(1, 40), st.sampled_from([0, 7, 8, 15, 16, 63, 64, 127]),
                      st.sampled_from([0, 7])),
            st.binary(max_size=200),
        )
    )
    def test_set_bits_match_unpacked_flatnonzero(self, octets):
        octets = np.frombuffer(octets, dtype=np.uint8)
        expected = np.flatnonzero(np.unpackbits(octets, bitorder="little"))
        got = _set_bits(octets)
        assert got.dtype == np.int64 and np.array_equal(got, expected)

    @pytest.mark.parametrize("swar", [False, True])
    def test_popcount_of_every_word_width_in_place(self, monkeypatch, swar):
        # coverage words of 1, 2, 4 and 8 bytes, counted into themselves
        if swar:
            monkeypatch.delattr(np, "bitwise_count", raising=False)
        rng = np.random.default_rng(5)
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
            top = np.iinfo(dtype).max
            words = np.concatenate([np.array([0, 1, top], dtype), rng.integers(0, top, 500, dtype, True)])
            expected = [bin(int(w)).count("1") for w in words]
            assert _popcount(words, out=words) is words
            assert words.tolist() == expected

    def test_swar_popcount_matches_bin_count(self, monkeypatch):
        # the path of numpy < 2, which has no bitwise_count
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        self.test_popcount_matches_bin_count()

    def test_full_selection_stages_match_oracle_decoding(self):
        k, n = 3, 5
        before, after, _ = gen_probabilistic(ProbParams(k, n, 3, Fraction(1)))
        full = [
            [gridline_from_index(k, n, axis, i) for i in range(n**k)]
            for axis in range(1, k + 2)
        ]
        assert before == grid_config(k, n, full)
        assert after == ColoredGridConfig(k, n, [[] for _ in full])

    def test_large_grid_runs_in_bounded_memory(self):
        # n^(k+1) = 10^8 grid points; the stage-2 cube is never whole
        params = ProbParams(3, 100, 1)
        tracemalloc.start()
        try:
            first = gen_probabilistic(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        second = gen_probabilistic(params)
        assert first[2] == second[2]
        assert first[1] == second[1]

    def test_chunked_selection_keeps_the_draws(self):
        # n^k = 68,921 draws per axis: whole chunks and a partial one
        k, n, seed = 3, 41, 5
        assert n**k % SELECTION_CHUNK != 0
        threshold = selection_threshold(ProbParams(k, n, seed).p_sel)
        for axis, mask in enumerate(_selection_masks(k, n, [ProbParams(k, n, seed)])[0], start=1):
            whole = splitmix64_block(substream(seed, axis), 0, n**k) < threshold
            assert np.array_equal(mask, whole)

    @settings(max_examples=80, deadline=None)
    @given(k=st.sampled_from([3, 4]), data=st.data())
    def test_trial_stats_match_dense_oracle(self, k, data):
        n = data.draw(st.integers(1, 8 if k == 3 else 5), label="n")
        final = data.draw(final_masks(k, n))
        assert mask_stats(k, n, final) == dense_trial_stats(k, n, final)

    @settings(max_examples=150, deadline=None)
    @given(k=st.sampled_from([3, 4]), data=st.data())
    def test_survivor_stats_match_dense_oracle(self, k, data):
        # every axis empty, full, holding one line (anywhere, or through one
        # shared grid point) or a random share, taken as stage-1 masks (a
        # (k+1)-colored point is possible) or deleted
        n = data.draw(st.integers(1, 7 if k == 3 else 4), label="n")
        masks = data.draw(trial_masks(k, n), label="masks")
        assert mask_stats(k, n, masks) == dense_trial_stats(k, n, masks)

    @settings(max_examples=150, deadline=None)
    @given(k=st.sampled_from([3, 4]), data=st.data())
    def test_batched_stats_match_dense_oracle_per_trial(self, k, data):
        # 1-9 trials of every kind above in one call, each trial against the
        # oracle on its own masks
        n = data.draw(st.integers(1, 6 if k == 3 else 4), label="n")
        trials = data.draw(st.lists(trial_masks(k, n), min_size=1, max_size=9), label="trials")
        assert batch_stats(k, n, trials) == [dense_trial_stats(k, n, m) for m in trials]

    @settings(max_examples=6, deadline=None)
    @given(n=st.sampled_from([64, 65]), data=st.data())
    def test_batched_stats_match_dense_oracle_in_one_and_two_words(self, n, data):
        # x_(k+1) fills one uint64 word at n = 64 and two at n = 65
        trials = data.draw(st.lists(trial_masks(3, n), min_size=2, max_size=3), label="trials")
        assert batch_stats(3, n, trials) == [dense_trial_stats(3, n, m) for m in trials]

    @pytest.mark.parametrize("n", [64, 65])
    def test_batch_mixes_fallback_and_full_orders(self, n):
        # orders k (deleted shares), k+1 (stage-1 shares), 2 (two lines through
        # one point: only the m < k fallback finds it) and 0 (empty), batched
        k = 3
        rng = np.random.default_rng(n)
        share = [rng.random(n**k) < 0.05 for _ in range(k + 1)]
        pair = [np.zeros(n**k, dtype=bool) for _ in range(k + 1)]
        pair[0][n**k - 1] = pair[1][n**k - 1] = True  # both through (n, ..., n)
        pair[3][0] = True  # through no point of them
        empty = [np.zeros(n**k, dtype=bool) for _ in range(k + 1)]
        trials = [deletion_masks(k, n, share, 7)[0], pair, share, empty, pair]
        expected = [dense_trial_stats(k, n, m) for m in trials]
        assert [order for _, order in expected] == [k, 2, k + 1, 0, 2]
        assert batch_stats(k, n, trials) == expected

    def test_batches_equal_batches_of_one(self):
        # n = 16 runs whole batches in the Monte Carlo harness
        runs = [ProbParams(3, 16, substream(5, t)) for t in range(7)]
        assert probabilistic_batch_stats(runs) == [probabilistic_trial_stats(p) for p in runs]
        with pytest.raises(ValueError):
            probabilistic_batch_stats([ProbParams(3, 16, 1), ProbParams(3, 17, 1)])

    @pytest.mark.parametrize("n,trials", [(16, 7), (64, 3), (64, 4), (64, 5)])
    def test_batches_without_counts_drop_only_the_counts(self, n, trials):
        # the Monte Carlo report reads neither count, so its trials skip both
        runs = [ProbParams(3, n, substream(9, t)) for t in range(trials)]
        counted = probabilistic_batch_stats(runs)
        for stats in counted:
            del stats["selected_sizes"], stats["covered_points"]
        assert probabilistic_batch_stats(runs, counts=False) == counted

    @pytest.mark.parametrize("trials", [3, 4, 5])
    def test_batches_straddle_the_batch_size(self, trials):
        # n = 64 runs 4 trials per batch: one partial batch, one whole, one and a tail
        assert TRIAL_BATCH_LINES // 64**3 == 4
        runs = [ProbParams(3, 64, substream(9, t)) for t in range(trials)]
        assert probabilistic_batch_stats(runs) == [probabilistic_trial_stats(p) for p in runs]

    @pytest.mark.parametrize("k,n", [(3, 63), (3, 64), (3, 65), (3, 128), (4, 63), (4, 64), (4, 65), (4, 128)])
    def test_add_filled_hit_tables_equal_or_filled(self, k, n):
        # one survivor's place in a table is a bijection of its base index,
        # so adding its bit equals ORing it; two trials, a sparse and a
        # dense axis among them, and both ends of the base-index range
        rng, trials = np.random.default_rng(k * n), 2
        lines = trials * n**k
        survivors = []
        for axis in range(k + 1):
            count = min(lines, 3000 if axis % 2 else 40_000)
            ids = np.unique(np.concatenate([[0, lines - 1], rng.integers(0, lines, count)]))
            survivors.append(ids.astype(np.int64))
        rows = trials * n ** (k - 1)
        hits, expected = _hits(k, n, survivors, rows), or_filled_hits(k, n, survivors, rows)
        for s, t in permutations(range(k + 1), 2):
            assert hits[s][t].dtype == np.uint64
            assert np.array_equal(hits[s][t], expected[s][t])
            assert hits[s][t].any()

    @pytest.mark.parametrize("k", [3, 4])
    def test_survivor_stats_reach_k_plus_one_on_stage_1_masks(self, k):
        # full axes cover every grid point k+1 times; deletion removes them all
        n = 2
        full = [np.ones(n**k, dtype=bool) for _ in range(k + 1)]
        assert mask_stats(k, n, full) == dense_trial_stats(k, n, full) == (0, k + 1)
        final = deletion_masks(k, n, full, 1)[0]
        assert mask_stats(k, n, final) == dense_trial_stats(k, n, final) == (0, 0)

    @pytest.mark.parametrize("k,m", [(3, m) for m in range(4)] + [(4, m) for m in range(5)])
    def test_trial_stats_reach_every_colorful_order(self, k, m):
        # m lines of axes 1..m through the grid point (1, ..., 1), and one
        # line of axis k+1 through no point of them
        n = 3
        final = [np.zeros(n**k, dtype=bool) for _ in range(k + 1)]
        for axis in range(m):
            final[axis][0] = True
        final[k][-1] = True
        expected = dense_trial_stats(k, n, final)
        assert expected[1] == (m if m >= 2 else 0)
        assert mask_stats(k, n, final) == expected

    def test_trial_stats_run_in_bounded_memory(self):
        # n^(k+1) = 2^28 grid points, over the old 2^26 cube limit
        params = ProbParams(3, 128, 1)
        tracemalloc.start()
        try:
            stats = probabilistic_trial_stats(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20
        assert stats["sizes"] == gen_probabilistic(params)[2].final_sizes
        assert stats["max_colorful"] <= 3

    def test_trial_stats_kernel_stays_below_one_cube(self):
        # seed 2 leaves every final class empty; the sparser deletion keeps
        # lines on every axis, so its cubes hold points
        k, n = 4, 20
        _, final, _ = stage_masks(ProbParams(k, n, 2))
        rng = np.random.default_rng(2)
        kept, _ = deletion_masks(k, n, [rng.random(n**k) < 0.2 for _ in range(k + 1)], 1)
        assert all(m.any() for m in kept)
        for masks in (final, kept):
            tracemalloc.start()
            try:
                mask_stats(k, n, masks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * n ** (k + 1)  # one float32 n^(k+1) array

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([3, 4]), data=st.data())
    def test_grouped_deletion_matches_sparse_oracle_per_trial(self, k, data):
        # a group of 1-9 trials of every density in one pass, in slabs of
        # one x1-slice up to all of them
        n = data.draw(st.integers(2, 9 if k == 3 else 5), label="n")
        trials = data.draw(st.lists(axis_masks(k, n), min_size=1, max_size=9), label="trials")
        check_group(k, n, trials, data.draw(st.integers(1, n + 1), label="width"))

    @settings(max_examples=6, deadline=None)
    @given(n=st.sampled_from([62, 63, 64, 65, 66]), data=st.data())
    def test_grouped_deletion_matches_sparse_oracle_around_one_word(self, n, data):
        # x_(k+1) fills one uint64 word or spills into a second
        trials = data.draw(st.lists(planted_sparse_masks(3, n), min_size=1, max_size=9), label="trials")
        check_group(3, n, trials, data.draw(st.integers(1, n + 1), label="width"))

    @pytest.mark.parametrize("n", [2, 5, 8, 9, 16, 17, 24, 32, 33])
    def test_grouped_deletion_in_every_word_width(self, n):
        # words of 1, 2, 4 and 8 bytes, full or padded, over three trials
        # that share no mask
        k, rng = 3, np.random.default_rng(n)
        trials = [[rng.random(n**k) < p for _ in range(k + 1)] for p in (0.2, 0.5, 0.9)]
        check_group(k, n, trials, _slab_width(k, n, 3), dense_deletion)

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([3, 4]), data=st.data())
    def test_groups_end_inside_stats_batches(self, k, data):
        # TRIAL_BATCH_LINES = (k+1) n^k g + n^k r runs groups of g trials
        # in batches of (k+1) g + r: a batch's last group is short unless g
        # divides r, and a run's last batch may end inside any group
        n = data.draw(st.integers(2, 6 if k == 3 else 4), label="n")
        g, r = data.draw(st.integers(1, 5), label="group"), data.draw(st.integers(0, k), label="r")
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=25), label="seeds")
        runs = [ProbParams(k, n, seed) for seed in seeds]
        expected = [probabilistic_trial_stats(p) for p in runs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "TRIAL_BATCH_LINES", (k + 1) * n**k * g + n**k * r)
            assert probabilistic_batch_stats(runs) == expected
            for stats in expected:
                del stats["selected_sizes"], stats["covered_points"]
            assert probabilistic_batch_stats(runs, counts=False) == expected

    @pytest.mark.parametrize("k,n", [(3, 16), (3, 32), (4, 12), (4, 16)])
    def test_group_peak_stays_within_one_n64_trial(self, k, n):
        # a group's masks hold at most TRIAL_BATCH_LINES lines, one n = 64
        # trial's, and its words, slabs and survivors no more than that trial's
        def peak(runs):
            tracemalloc.start()
            try:
                probabilistic_batch_stats(runs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        group = TRIAL_BATCH_LINES // ((k + 1) * n**k)
        assert group > 1 and TRIAL_BATCH_LINES // (4 * 64**3) == 1
        runs = [ProbParams(k, n, substream(3, t)) for t in range(group)]
        assert peak(runs) <= peak([ProbParams(3, 64, 3)])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ProbParams(2, 8, 0)
        with pytest.raises(ValueError):
            ProbParams(3, 1, 0)
        with pytest.raises(ValueError):
            ProbParams(3, 8, 0, Fraction(2))


class TestMaskConfig:
    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([3, 4]), n=st.integers(1, 6), data=st.data())
    def test_equals_validated_config(self, k, n, data):
        masks = data.draw(axis_masks(k, n))
        lines = [
            [gridline_from_index(k, n, axis, int(i)) for i in np.flatnonzero(m)]
            for axis, m in enumerate(masks, start=1)
        ]
        oracle = grid_config(k, n, lines)
        # the line ids gen_probabilistic builds from its masks
        cfg = ColoredGridConfig(
            k, n, [np.flatnonzero(m) + (axis - 1) * n**k for axis, m in enumerate(masks, start=1)]
        )
        assert cfg.class_sizes() == oracle.class_sizes()
        assert _dump_json(grid_to_json(cfg)) == _dump_json(grid_to_json(oracle))
        assert cfg == oracle
        # decoding matches the digit-by-digit oracle, in base-index order
        assert decoded(cfg) == tuple(map(tuple, lines))


class TestTricolor:
    def test_two_lines_per_class(self, tricolor):
        assert tricolor.class_sizes() == (2, 2, 2)
        s = extract_structure_lines(tricolor)
        assert structure_consistency(s, 2).ok
        assert s.max_colorful()[0] == 2

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            gen_tricolor(1, [1, 1, 1])

    def test_open_polygon_rejected(self):
        with pytest.raises(ValueError):
            gen_tricolor(2, [1, 1, 1, -1, -1, -2])

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            gen_tricolor(2, [1, 1, 1, 0, -1, -1])

    def test_rational_steps(self):
        cfg = gen_tricolor(
            2, [Fraction(1, 2), 1, 2, Fraction(-1, 2), -1, -2]
        )
        assert cfg.class_sizes() == (2, 2, 2)


class TestDesargues:
    def test_twelve_lines(self, desargues):
        assert desargues.class_sizes() == (3, 3, 3, 3)

    def test_stated_rows_are_the_two_plane_lines(self):
        # the derivation from six planes, as line keys and as endpoint rows, in order
        lines = two_plane_lines()
        stated = [Line(ProjPoint(p), ProjPoint(q)) for p, q in DESARGUES_ENDS]
        assert [line.key for line in lines] == [line.key for line in stated]
        assert [(line.p.coords, line.q.coords) for line in lines] == list(DESARGUES_ENDS)

    def test_planes_in_general_position(self):
        # every 3 or 4 of planes 1..5, or of planes 1, 2, 3, 6, are independent; 4, 5, 6 share a line
        for among in (range(5), (0, 1, 2, 5)):
            for chosen in (*combinations(among, 3), *combinations(among, 4)):
                assert int_rank([DESARGUES_PLANES[t] for t in chosen]) == len(chosen)
        assert int_rank(DESARGUES_PLANES[3:]) == 2

    def test_exactly_one_concurrent_class(self, desargues):
        centers = [concurrency_center(cls) for cls in line_classes(desargues)]
        assert sum(1 for c in centers if c is not None) == 1

    def test_twelve_colorful_triples_three_per_line(self, desargues):
        s = extract_structure_lines(desargues)
        triples = s.colorful_triples()
        assert len(triples) == 12
        for color, cls in enumerate(line_classes(desargues), start=1):
            for idx in range(len(cls)):
                assert sum(1 for m in triples if (color, idx) in m) == 3

    def test_verdicts(self, desargues):
        s = extract_structure_lines(desargues)
        assert structure_consistency(s, 3).ok
        assert s.max_colorful()[0] == 3

    def test_concurrent_class_spans_rank_3(self, desargues):
        for cls in line_classes(desargues):
            center = concurrency_center(cls)
            if center is not None:
                assert rank_of_directions(cls, center) == 3


class TestSearchDeterminism:
    def test_desargues_and_reye_repeatable(self, desargues, reye):
        from incidencelab.constructions import gen_desargues, gen_reye

        assert gen_desargues() == desargues
        assert gen_reye() == reye

    def test_stated_colorings_are_the_search_results(self):
        # the backtracking search that found them, rerun on the witness lines
        assert search_desargues_colors(two_plane_lines()) == DESARGUES_COLORS
        assert search_reye_colors(cube_lines()) == REYE_COLORS

    def test_swapped_colors_fail_the_certificate(self, monkeypatch):
        for name, gen in (("DESARGUES_COLORS", "gen_desargues"), ("REYE_COLORS", "gen_reye")):
            colors = list(getattr(constructions, name))
            colors[1], colors[2] = colors[2], colors[1]  # two lines swap classes
            monkeypatch.setattr(constructions, name, tuple(colors))
            with pytest.raises(RuntimeError, match="fails 3-consistency"):
                getattr(constructions, gen)()

    def test_centers_are_the_class_meets(self, desargues, reye):
        # read off the structure: one group holding a whole class gives its center
        assert desargues == with_computed_centers(desargues)
        assert reye == with_computed_centers(reye)
        assert sum(c is not None for c in desargues.centers) == 1
        assert reye.centers == (None,) * 4


class TestReye:
    def test_structure_counts(self, reye):
        s = extract_structure_lines(reye)
        assert reye.class_sizes() == (3, 3, 3, 3)
        assert len(s.monomials) == 12
        for m in s.monomials:
            assert len(m) == 3
        for color, cls in enumerate(line_classes(reye), start=1):
            for idx in range(len(cls)):
                assert sum(1 for m in s.monomials if (color, idx) in m) == 3

    def test_infinite_incidence_points(self, reye):
        s = extract_structure_lines(reye)
        assert any(s.witness(g)[-1] == 0 for g in range(len(s.firsts)))

    def test_incidence_points_span_3_flat(self, reye):
        s = extract_structure_lines(reye)
        assert int_rank([s.witness(g) for g in range(len(s.firsts))]) - 1 == 3

    def test_verdicts(self, reye):
        s = extract_structure_lines(reye)
        assert structure_consistency(s, 3).ok
        assert s.max_colorful()[0] == 3


small_nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(
    lambda q: q != 0
)


class TestDualCycles:
    def test_sizes(self):
        cfg, report = gen_dual_cycles(2)
        assert cfg.class_sizes() == (2, 4, 4, 4)
        assert report.triples_with_direction_color
        cfg3, _ = gen_dual_cycles(3)
        assert cfg3.class_sizes() == (2, 6, 6, 6)

    def test_r1_rejected(self):
        with pytest.raises(ValueError):
            gen_dual_cycles(1)

    def test_coincident_starts_rejected(self):
        with pytest.raises(ValueError):
            gen_dual_cycles(2, starts=[1, 1])

    def test_no_colorful_alignment(self):
        cfg, _ = gen_dual_cycles(2)
        s = extract_alignments(cfg)
        assert s.max_colorful()[0] <= 3

    @settings(max_examples=40, deadline=None)
    @given(small_nonzero, small_nonzero, small_nonzero, small_nonzero, small_nonzero)
    def test_six_fold_closure_formula(self, a2, a3, a4, b4, x0):
        # independent oracle: compose the six projections directly and
        # compare the x-shift with the closed-form constant
        if len({a2, a3, a4}) != 3:
            return
        start = (x0, a3 * x0)
        out = six_fold_map((a2, a3, a4), (0, 0, b4), start)
        assert out[1] == a3 * out[0]  # lands back on the middle line
        assert out[0] - x0 == closure_shift((a2, a3, a4), (0, 0, b4))

    def test_zero_shift_means_fixed_point(self):
        pt = (Fraction(7, 3), Fraction(2) * Fraction(7, 3))
        assert six_fold_map((5, 2, 9), (0, 0, 0), pt) == pt


class TestTwoSlit:
    def test_lines_meet_both_slits(self):
        slits = lines_of(default_generic_slits())
        lines = lines_of(gen_two_slit(1, default_generic_slits(), 15, seed=4))
        assert len(lines) == len({ln.key for ln in lines}) == 15
        for ln in lines:
            assert meet(ln, slits[0]) is not None
            assert meet(ln, slits[1]) is not None

    def test_family_two(self):
        slits = lines_of(default_generic_slits())
        lines = lines_of(gen_two_slit(2, default_generic_slits(), 5, seed=4))
        for ln in lines:
            assert meet(ln, slits[2]) is not None
            assert meet(ln, slits[3]) is not None

    def test_non_skew_rejected(self):
        a = quadric_ruling(1, (1, 1))
        b = quadric_ruling(2, (1, 1))  # opposite rulings meet
        with pytest.raises(ValueError):
            gen_two_slit(1, (a, b, a, b), 3, seed=0)

    def test_deterministic(self):
        slits = default_generic_slits()
        assert np.array_equal(gen_two_slit(1, slits, 8, seed=3), gen_two_slit(1, slits, 8, seed=3))

    def test_quadric_rulings_meet_opposite_slits(self):
        slits = lines_of(quadric_ruling_slits())
        for t in (3, 4, 5):
            r2, r1 = lines_of(np.stack((quadric_ruling(2, (1, t)), quadric_ruling(1, (t, 1)))))
            assert meet(r2, slits[0]) is not None
            assert meet(r2, slits[1]) is not None
            assert meet(r1, slits[2]) is not None
            assert meet(r1, slits[3]) is not None


small_steps = st.one_of(st.sampled_from([-2, -1, 1, 2]).map(Fraction), small_nonzero)


@st.composite
def closing_steps(draw):
    """(n, steps) of a closed tricolor polygon: per axis n - 1 nonzero steps
    and the one that closes it; small integer steps make coincident lines."""
    n = draw(st.integers(2, 4))
    per_axis = []
    for _ in range(3):
        steps = draw(st.lists(small_steps, min_size=n - 1, max_size=n - 1))
        assume(sum(steps) != 0)
        per_axis.append([*steps, -sum(steps)])
    return n, [per_axis[j % 3][j // 3] for j in range(3 * n)]


@st.composite
def cycle_parameters(draw):
    """(r, slopes, starts) of dual cycles; with a drawn flag, start 1 is
    a2 * start 0 / a4, which puts its first point on start 0's fourth."""
    r = draw(st.integers(2, 3))
    slopes = draw(st.lists(small_nonzero, min_size=3, max_size=3, unique=True))
    starts = draw(st.lists(small_nonzero, min_size=r, max_size=r, unique=True))
    if draw(st.booleans()):
        starts[1] = slopes[0] * starts[0] / slopes[2]
        assume(len(set(starts)) == r)
    return r, slopes, starts


class TestRowGeneratorsMatchObjectReferences:
    """Each generator's rows against the ``Line`` and ``ProjPoint`` objects
    its reference in the oracles builds: equal configurations (keys, classes
    and centers) with equal endpoint or point rows."""

    @settings(max_examples=80, deadline=None)
    @example((2, [1, 1, 1, -1, -1, -1]))
    @example((2, [Fraction(1, 2), 1, 2, Fraction(-1, 2), -1, -2]))
    @given(closing_steps())
    def test_tricolor(self, drawn):
        n, steps = drawn
        try:
            expected = tricolor_lines(steps)
        except ValueError:
            with pytest.raises(ValueError, match="^degenerate parameters: coincident lines$"):
                gen_tricolor(n, steps)
            return
        try:
            cfg = gen_tricolor(n, steps)
        except ValueError as exc:
            assert str(exc) == "degenerate parameters: polygon fails its own checks"
            return
        assert cfg == expected and np.array_equal(cfg.ends, expected.ends)

    def test_4x3_configurations(self):
        # the cube lines as rows, and both 4x3 generators from object-built lines, centers included
        assert np.array_equal(_cube_lines(), [(line.p.coords, line.q.coords) for line in cube_lines()])
        for lines, colors, concurrent, name, gen in (
            (two_plane_lines(), DESARGUES_COLORS, 1, "Desargues", gen_desargues),
            (cube_lines(), REYE_COLORS, 0, "Reye", gen_reye),
        ):
            classes = [[line for line, c in zip(lines, colors) if c == k] for k in (1, 2, 3, 4)]
            expected = _validate_4x3(line_config(3, classes), concurrent, name)
            cfg = gen()
            assert cfg == expected and cfg.centers == expected.centers
            assert np.array_equal(cfg.ends, expected.ends)

    @settings(max_examples=60, deadline=None)
    @example((2, [1, 2, 5], [1, 3]))  # the defaults
    @example((3, [1, 2, 5], [1, 3, 9]))
    @given(cycle_parameters())
    def test_dual_cycles(self, params):
        r, slopes, starts = params
        try:
            expected = dual_cycle_points(slopes, starts)
        except ValueError:
            with pytest.raises(ValueError, match="^starts cause coincident points: "):
                gen_dual_cycles(r, slopes, starts)
            return
        try:
            cfg, _ = gen_dual_cycles(r, slopes, starts)
        except ValueError as exc:
            assert "colorful alignment" in str(exc) or "direction-color triple" in str(exc)
            return
        assert cfg == expected and np.array_equal(cfg.coords, expected.coords)

    @settings(max_examples=40, deadline=None)
    @given(
        which=st.sampled_from([1, 2]),
        kind=st.sampled_from(["generic", "quadric", "wide"]),
        count=st.integers(0, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_two_slit(self, which, kind, count, seed):
        # "wide": rulings with entries near 2^61, whose secants leave int64
        if kind == "wide":
            params = [(1, (2**61 + 1, 1)), (1, (1, 3)), (2, (2**61 + 3, 1)), (2, (1, 5))]
            slits = np.stack([quadric_ruling(f, st) for f, st in params])
            lines = [quadric_ruling_line(f, st) for f, st in params]
        elif kind == "quadric":
            slits, lines = quadric_ruling_slits(), quadric_slit_lines()
        else:
            slits, lines = default_generic_slits(), generic_slit_lines()
        assert np.array_equal(slits, [(line.p.coords, line.q.coords) for line in lines])
        ends = gen_two_slit(which, slits, count, seed)
        expected = line_config(3, [two_slit_lines(which, lines, count, seed)])
        assert ColoredLineConfig.from_ends(3, ends, [count]) == expected
        assert np.array_equal(ends, expected.ends.reshape(count, 2, 4))
