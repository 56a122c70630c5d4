"""Random walks in Dirichlet environments on directed graphs, the arrangement
of edge-coordinate hyperplanes on the unit-mass flow space, and the flat
connection satisfied by the tree-chart integrals.
"""

from .graphs import (
    DirectedGraph,
    Edge,
    SplitGraph,
    divergence,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    split_graph,
    validate,
)
from .builtin_graphs import builtin_graph
from .combinatorics import (
    FlowPoint,
    SignedEdgeSet,
    SpanningTree,
    cotree,
    enumerate_cycles,
    enumerate_paths,
    enumerate_spanning_trees,
    fundamental_cycle,
    genus,
    tree_basis,
    tree_path,
)
from .environment import (
    DirichletWeights,
    Environment,
    IterationCapExceeded,
    McEstimate,
    edge_occupation,
    green_function,
    loop_erase,
    loop_erased_paths,
    mc_estimate_rhs,
    mc_laplace,
    mc_laplace_by_tree,
    sample_environment,
    simulate_chains,
    survival_determinant,
    tree_probability,
    wilson_sample_trees,
    wilson_tree_counts,
)
from .integrals import (
    IntegralEstimate,
    IntegrandSpec,
    QuadratureNonConvergence,
    cohomology_identity_check,
    constant_C_alpha,
    integral_vector,
    integrand,
    integrate_mc,
    integrate_quadrature,
    split_integrand_spec,
    thm21_certificate,
    verify_theorem_2_1,
)
from .connection import (
    ConnectionForm,
    ExcludedLocusError,
    build_connection,
    check_commutation,
    check_flatness,
    connection_coefficients,
    transport,
)

__version__ = "0.1.0"
