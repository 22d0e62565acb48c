"""Distributed approximation algorithms, exact solvers, and hardness
instance generators for vertex cover and dominating set on square graphs."""

from .errors import (
    BandwidthError, ConnectivityError, ContractError, EncodingError,
    GenerationError, InputError, ParseError, PowerGraphError, RoundCapError,
    SizeCapError,
)
from .exact import exact_mds, exact_mvc
from .graph import (
    DS1, DS2, VC1, VC2, Graph, Solution, is_feasible, make_solution,
    matching_2approx, square,
)
from .graphio import read_graph, write_graph, write_sidecar
from .lowerbound import (
    LowerBoundInstance, SetSystem, dangling_transform, gen_mds_base,
    gen_mds_square_approx_unweighted, gen_mds_square_exact, gen_mvc_base,
    gen_mvc_square, gen_mwds_square_approx, gen_mwvc_square, gen_set_system,
    merged_dangling_transform, verify_family,
)
from .mds_distributed import EstimateConfig, estimate_2hop_counts, g2mds_logd
from .mvc_centralized import g2mvc_53, g2mvc_hybrid, vc_53_on_square
from .mvc_distributed import g2mvc_cc_voting, g2mvc_eps, g2mvc_trivial, g2mwvc_eps
from .sim import CLIQUE, CONGEST, Model, RoundStats

# The public names, sorted and written out, so that no import inside the
# package adds or drops one; the submodules the imports above load are
# among them, and cli is not.
__all__ = [
    "BandwidthError", "CLIQUE", "CONGEST", "ConnectivityError",
    "ContractError", "DS1", "DS2", "EncodingError", "EstimateConfig",
    "GenerationError", "Graph", "InputError", "LowerBoundInstance", "Model",
    "ParseError", "PowerGraphError", "RoundCapError", "RoundStats",
    "SetSystem", "SizeCapError", "Solution", "VC1", "VC2",
    "dangling_transform", "errors", "estimate_2hop_counts", "exact",
    "exact_mds", "exact_mvc", "g2mds_logd", "g2mvc_53", "g2mvc_cc_voting",
    "g2mvc_eps", "g2mvc_hybrid", "g2mvc_trivial", "g2mwvc_eps",
    "gen_mds_base", "gen_mds_square_approx_unweighted",
    "gen_mds_square_exact", "gen_mvc_base", "gen_mvc_square",
    "gen_mwds_square_approx", "gen_mwvc_square", "gen_set_system", "graph",
    "graphio", "is_feasible", "lowerbound", "make_solution",
    "matching_2approx", "mds_distributed", "merged_dangling_transform",
    "mvc_centralized", "mvc_distributed", "protocols", "read_graph", "sim",
    "square", "vc_53_on_square", "verify_family", "write_graph",
    "write_sidecar",
]
