"""Equilibria, homology bounds, and stability for graph dynamical systems
where every vertex state evolves by summing an odd analytic coupling of the
neighbor differences."""

__version__ = "0.1.0"

from .coupling import (
    CouplingFunction,
    OddPolynomial,
    SineCombination,
    SineSeries,
    coupling_from_dict,
    make_polynomial,
    make_sine_combination,
    make_sine_series,
    zeros_in,
)
from .graphs import (
    BlockDecomposition,
    Graph,
    block_decomposition,
    build_graph,
    incidence_rank,
)
from .homology import (
    CycleVector,
    DimensionBoundReport,
    cycle_basis,
    cycle_chain_number,
    dimension_bounds,
    enumerate_cycles,
)
from .equilibria import (
    EquilibriumAtlas,
    EquilibriumPoint,
    canonical_form,
    edge_space_distance,
    energy,
    equilibrium_point,
    membership_tests,
    multistart_atlas,
    newton_solve,
    predict_equilibria_class,
    vector_field,
    zero_pattern_equilibria,
)
from .stability import (
    BlockStabilityReport,
    StabilityReport,
    Verdict,
    block_stability,
    classify,
    hessian,
)
from .continuation import (
    LocalDimension,
    ManifoldSample,
    local_dimension,
    sample_manifold,
    trace_curve,
)
from .coverings import (
    AutomorphismSet,
    VertexMap,
    automorphisms,
    find_generalized_coverings,
    is_covering,
    is_generalized_covering,
    lift_equilibrium,
    orbit_of_equilibrium,
)
from .simulate import BasinReport, Trajectory, basin_sample, integrate

__all__ = [name for name in dir() if not name.startswith("_")]
