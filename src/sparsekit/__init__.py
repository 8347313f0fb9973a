"""Algorithmic toolbox for sparse graph classes: generalized coloring
numbers, treedepth, shallow minors, radius-r splitter games, uniform quasi-
wideness, balanced neighborhood separators, sparse neighborhood covers, and a
locality-based evaluator for a small first-order language.

Everything runs at desk scale and emits certificates that independent
validators can re-check.  `import sparsekit` loads no submodule: each public
name is imported from its submodule on first use (PEP 562).
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("errors", "AlgorithmStallError CapabilityError EdgeListParseError FormulaParseError "
               "FormulaScopeError GraphInputError LocalityError PreconditionError "
               "SparsekitError StrategyBugError"),
    ("graph", "DistanceSet Graph ball bfs_distances components induced_subgraph "
              "set_radius validate_distance_set"),
    ("graphio", "apex_graph complete_graph cycle_graph emit_json generate gnd_graph "
                "graph_from_json grid_graph parse_edge_list path_graph random_tree "
                "read_dimacs star_graph subdivide to_jsonable write_edge_list"),
    ("orders", "ORDER_NAMES EliminationForest ForestCertificate OrderWitness VertexOrder "
               "build_order coloring_number degeneracy_order greedy_wreach_order "
               "identity_order treedepth_exact validate_elimination_forest "
               "validate_forest_certificate validate_order_witness wcol_exact "
               "wcol_of_order wreach_sets"),
    ("minors", "DensityCertificate DensityReport MinorCertificate MinorModel "
               "density_report find_depth_r_minor validate_density_certificate "
               "validate_minor_certificate verify_minor_model"),
    ("games", "ConnectorMove ExhaustiveConnector ExhaustiveSplitter GameConfig GameRound "
              "GameTranscript GreedyBallConnector RandomConnector UqwBatchSplitter "
              "WcolSplitter connector_move_violations game_value play "
              "splitter_move_violations validate_transcript wcol_splitter_strategy"),
    ("wideness", "Cover PartitionCover SeparatorCertificate UqwCertificate "
                 "balanced_separator neighborhood_cover partition_cover uqw_brute "
                 "uqw_extract validate_cover validate_partition validate_separator "
                 "validate_uqw"),
    ("logic", "BasicLocalSentence distance_dominating_set distance_independent_set "
              "eval_basic_local eval_naive expand_basic_local free_vars "
              "locality_violations parse_formula satisfying_set to_text"),
    ("rng", "Rng"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_EXPORTS[name]}")
    return globals().setdefault(name, getattr(module, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
