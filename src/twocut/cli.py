"""Batch front-end: load a graph, run the pipeline, emit value and stats.

Exit codes: 0 ok, 2 unreadable or malformed input, 3 disconnected graph,
4 verification mismatch, 5 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .graph import (
    DisconnectedError,
    GraphError,
    MalformedInputError,
    SelfLoopError,
    WeightOverflowError,
    load_graph,
    oracle_min_cut,
)
from .packing import PipelineConfig, min_cut_pipeline
from .proxy import ResourceBudgetError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5


def build_parser():
    p = argparse.ArgumentParser(
        prog="mincut",
        description="Exact weighted min cut via 2-respecting tree cuts.",
    )
    p.add_argument("--mode", choices=("sequential", "cut-query", "streaming"), default="sequential")
    p.add_argument("--input", required=True, help="edge-list file: 'p n m' header then 'u v w' (or DIMACS 'a u v w') lines")
    p.add_argument("--epsilon", type=float, default=0.1, help="sparsifier accuracy, in (0, 1/10]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--churn", type=float, default=0.0, help="extra insert/delete pairs per edge (streaming)")
    p.add_argument("--trees", type=int, default=None, help="override the packed tree count")
    p.add_argument("--verify", choices=("none", "oracle"), default="none")
    p.add_argument("--stats", default=None, help="write the run's stats JSON here")
    p.add_argument("--report-partition", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        g = load_graph(text)
    except DisconnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (MalformedInputError, SelfLoopError, WeightOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    cfg = PipelineConfig(churn=args.churn, trees_override=args.trees)
    try:
        result, stats = min_cut_pipeline(g, args.mode, eps=args.epsilon, rng=args.seed, config=cfg)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    print(f"min cut value: {result.value}")
    if args.report_partition:
        side = sorted(result.partition)
        print("partition side:", " ".join(str(v) for v in side))
    if args.stats:
        with open(args.stats, "w") as fh:
            fh.write(stats.to_json(result.value, args.seed))
            fh.write("\n")
    if args.verify == "oracle":
        want = oracle_min_cut(g).value
        if want != result.value:
            print(f"verification mismatch: pipeline {result.value}, oracle {want}", file=sys.stderr)
            return EXIT_VERIFY
        print("verified against the reference oracle")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
