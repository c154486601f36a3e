"""Batch front-end: load a graph, run the pipeline, emit value and stats.

Exit codes: 0 ok, 2 unreadable or malformed input or unwritable --stats file,
3 disconnected graph, 4 verification mismatch, 5 resource budget (or memory)
exceeded. Every failure ends in one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .graph import DisconnectedError, GraphError, load_graph, oracle_min_cut
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


def _fail(message, code) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            g = load_graph(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read {args.input}: {exc}", EXIT_PARSE)
    except GraphError as exc:
        return _fail(exc, EXIT_DISCONNECTED if isinstance(exc, DisconnectedError) else EXIT_PARSE)

    cfg = PipelineConfig(churn=args.churn, trees_override=args.trees)
    try:
        result, stats = min_cut_pipeline(g, args.mode, eps=args.epsilon, rng=args.seed, config=cfg)
    except (ResourceBudgetError, MemoryError) as exc:
        return _fail(exc, EXIT_BUDGET)
    except (GraphError, ValueError) as exc:
        return _fail(exc, EXIT_PARSE)

    print(f"min cut value: {result.value}")
    if args.report_partition:
        side = sorted(result.partition)
        print("partition side:", " ".join(str(v) for v in side))
    if args.stats:
        try:
            with open(args.stats, "w") as fh:
                fh.write(stats.to_json(result.value, args.seed) + "\n")
        except OSError as exc:
            return _fail(f"cannot write {args.stats}: {exc}", EXIT_PARSE)
    if args.verify == "oracle":
        want = oracle_min_cut(g).value
        if want != result.value:
            print(f"verification mismatch: pipeline {result.value}, oracle {want}", file=sys.stderr)
            return EXIT_VERIFY
        print("verified against the reference oracle")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
