"""incidencelab: exact construction, transformation, and verification of
colored line configurations with controlled incidence patterns."""

__version__ = "0.1.0"

from .analysis import (
    BipartiteReport,
    JointBoundReport,
    MinimalityVerdict,
    MonteCarloReport,
    StructureIsomorphism,
    TABLE_I,
    TABLE_II,
    bipartite_edges,
    determinant_monomials,
    flatness_audit,
    joint_bound,
    match_structure,
    minimality_audit,
    monomial_name,
    monte_carlo,
)
from .configs import (
    ColoredLineConfig,
    DualPointConfig,
    config_from_json,
    config_to_json,
    embed_grid_config,
)
from .constructions import (
    AlgebraicParams,
    DeletionReport,
    DualCyclesReport,
    ProbParams,
    gen_algebraic,
    gen_desargues,
    gen_dual_cycles,
    gen_probabilistic,
    gen_reye,
    gen_tricolor,
    gen_two_slit,
)
from .exactgeom import Line, ProjPoint, incident, meet
from .gridmodel import (
    ColoredGridConfig,
    ConsistencyVerdict,
    is_k_consistent,
    max_colorful_order,
)
from .structure import (
    IncidenceStructure,
    extract_structure,
    structure_consistency,
)
from .transforms import (
    ProjectionResult,
    dualize,
    extract_planarity,
    lift_to_concurrent,
    project_generic,
    undualize,
)
