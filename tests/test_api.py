"""The package's public names, pinned so that one leaves or joins only on
purpose."""

import powergraph

PUBLIC_API = [
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


def test_public_names_are_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert powergraph.__all__ == PUBLIC_API
