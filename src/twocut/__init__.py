"""Exact weighted min-cut through 2-respecting tree cuts.

The same search runs under three cost models: in-memory (2-d range
indexes), a counted cut-query oracle, and a multi-pass dynamic-stream
harness. `min_cut_pipeline` is the end-to-end entry point; `min_2respect`
solves one (graph, spanning tree) instance through any cost provider.
"""

from .cutquery import CutOracle, QueryProvider, query_provider
from .graph import (
    CutResult,
    DisconnectedError,
    GraphError,
    MalformedInputError,
    RootedSpanTree,
    SelfLoopError,
    TreeEdgePair,
    TreeStructureError,
    WeightedGraph,
    WeightOverflowError,
    build_rooted_tree,
    cut_of_partition,
    load_graph,
    oracle_2respect_min,
    oracle_min_cut,
    pair_cut_value,
    reconstruct_partition,
)
from .hld import decompose, top_edges_on_root_path
from .interesting import candidate_tops, pair_solver_inputs
from .interval import CostMatrixHandle, ProbeLedger, bipartite_interval, interval_self, monge_check
from .packing import (
    PipelineConfig,
    Skeleton,
    TreePacking,
    approx_min_cut,
    build_skeleton,
    greedy_pack,
    lambda_schedule,
    min_cut_pipeline,
)
from .provider import CostProvider, RunStats, run_lockstep
from .proxy import ResourceBudgetError, build_proxy_graph
from .rangeindex import EdgePointSet, SampleRangeIndex, WeightRangeIndex, subtree_sums
from .requests import CrossNested, CrossSub, DegSubtree, PairCut
from .reservoir import reservoir_sample
from .sequential import SequentialProvider
from .streaming import SketchBank, StreamHarness, StreamProvider, stream_provider
from .tworespect import min_2respect

__all__ = [name for name in dir() if not name.startswith("_")]
