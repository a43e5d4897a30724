"""regopen: regular-open lattices of finite topological spaces, computed
exactly and verified exhaustively at desk scale.

The package computes interiors, closures and regular opens of finite
spaces; builds the regular-open Boolean algebra with explicit tables;
verifies that dense subspaces induce lattice isomorphisms and recovers
points from basis isomorphisms; checks the six R-lattice axioms against an
explicit extra relation; realizes finite Stone duality and the
ideal/ultrafilter correspondence on powersets; models the cofinite topology
symbolically; and searches the enumeration of all small spaces for
non-homeomorphic pairs with isomorphic lattices.
"""

from .cofinite import SymbolicSet
from .enumeration import (
    EnumerationSpec,
    canonical_classes,
    enumerate_dense_subsets,
    enumerate_topologies,
)
from .ideals import (
    IdealFamily,
    Ultrafilter,
    ideal_open_correspondence,
    ideals,
    maximal_ideals,
    ultrafilters,
)
from .lattice import (
    FiniteLattice,
    RegularOpenLattice,
    RLatticeReport,
    check_boolean_algebra,
    check_distributive,
    check_lattice_tables,
    check_r_lattice,
    find_order_isomorphisms,
    ge_relation,
    regular_open_lattice,
    transport_relation,
    wallman_disjunction,
    well_inside,
)
from .metric import FiniteMetric, combine_metric
from .stone import StoneSpace, stone_space
from .suites import (
    CounterexamplePair,
    SuiteReport,
    counterexample_search,
    run_suite,
    run_suites,
)
from .topology import (
    PointSet,
    Topology,
    canonical_open_masks,
    discrete,
    homeomorphic,
    indiscrete,
    sierpinski,
    x3,
)
from .transfer import (
    DenseEmbedding,
    LatticeIsoWitness,
    PartialHomeomorphism,
    closure_density_check,
    point_recovery,
    restriction_isomorphism,
    separating_witness,
    transfer_isomorphism,
)

__version__ = "0.1.0"

__all__ = [
    "CounterexamplePair",
    "DenseEmbedding",
    "EnumerationSpec",
    "FiniteLattice",
    "FiniteMetric",
    "IdealFamily",
    "LatticeIsoWitness",
    "PartialHomeomorphism",
    "PointSet",
    "RLatticeReport",
    "RegularOpenLattice",
    "StoneSpace",
    "SuiteReport",
    "SymbolicSet",
    "Topology",
    "Ultrafilter",
    "canonical_classes",
    "canonical_open_masks",
    "check_boolean_algebra",
    "check_distributive",
    "check_lattice_tables",
    "check_r_lattice",
    "closure_density_check",
    "combine_metric",
    "counterexample_search",
    "discrete",
    "enumerate_dense_subsets",
    "enumerate_topologies",
    "find_order_isomorphisms",
    "ge_relation",
    "homeomorphic",
    "ideal_open_correspondence",
    "ideals",
    "indiscrete",
    "maximal_ideals",
    "point_recovery",
    "regular_open_lattice",
    "restriction_isomorphism",
    "run_suite",
    "run_suites",
    "separating_witness",
    "sierpinski",
    "stone_space",
    "transfer_isomorphism",
    "transport_relation",
    "ultrafilters",
    "wallman_disjunction",
    "well_inside",
    "x3",
]
