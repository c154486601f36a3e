"""Layer tracing from outside the program.

`Tracer.installed()` patches wrappers onto the names where twocut looks its
layer functions up (module globals of the caller, class attributes for
methods) and restores the originals on exit. Each wrapped call is a span;
a span's self time is its duration minus the durations of the wrapped calls
inside it. Every solve runs under a root span named `trace.unattributed`, so
the self times of one solve add up to its traced wall time exactly.

`two_respect_plan` generators are wrapped too: each resume is a span named
after the Step its next batch belongs to (DegSubtree: Step 1; PairCut before
the cross batch: Step 3; CrossSub/CrossNested: Step 4; PairCut after it:
Step 5). The resume that ends a generator keeps the tag of the batch whose
values it consumed.

Spans at layer boundaries are kept one by one; spans of calls made many
times per tree (rectangle sums, walks, samples, solver steps) are rolled up
per enclosing kept span. All of it stays in memory until `write_spans`.

Import this module only after `twocut` is importable from the checkout.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import twocut
from twocut import (cutquery, grid, hld, interesting, interval, packing, provider, rangeindex,
                    requests, sequential, streaming, tworespect)

ROOT = "trace.unattributed"
STEPS = ("tworespect.step1", "tworespect.step3", "tworespect.step4", "tworespect.step5")

# every span name; each gives the per-layer metric <name>_s (self time)
SPAN_NAMES = (
    ROOT, "graph.load_graph", "proxy.build", "packing.trees_to_run", "packing.build_skeleton",
    "packing.greedy_pack", "graph.build_rooted_tree", "graph.reconstruct_partition", *STEPS,
    "hld.decompose", "hld.walk",
    "interesting.weight_classes", "interesting.sample", "interesting.candidate_tops",
    "interesting.filter", "rangeindex.sample_rect", "rangeindex.rect_weight",
    "rangeindex.index_build", "provider.batch_eval", "grid.build", "streaming.harness",
    "streaming.run_pass", "streaming.fill_bank", "streaming.sketch_recover", "streaming.subtract",
    "interval.solver",
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start, child_total, span_id, kept_ancestor_id]
        self.reset()

    def reset(self):
        self.stack.clear()
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.rollups = defaultdict(lambda: [0, 0.0, 0.0])
        self.solve_total = 0.0
        self._origin = time.perf_counter()

    # -- span bookkeeping --

    def _open(self, name, kept):
        parent = self.stack[-1] if self.stack else None
        anc = None if parent is None else (parent[3] if parent[3] is not None else parent[4])
        sid = len(self.spans) if kept else None
        if kept:
            self.spans.append(None)  # filled on close
        self.stack.append([name, time.perf_counter(), 0.0, sid, anc])

    def _close(self, name=None):
        end = time.perf_counter()
        frame = self.stack.pop()
        name = name or frame[0]
        dur = end - frame[1]
        own = dur - frame[2]
        self.self_s[name] += own
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] is not None:
            self.spans[frame[3]] = {
                "id": frame[3], "parent": frame[4], "name": name,
                "start": frame[1] - self._origin, "end": end - self._origin, "self": own,
            }
        else:
            r = self.rollups[(frame[4], name)]
            r[0] += 1
            r[1] += dur
            r[2] += own
        return dur

    @contextlib.contextmanager
    def solve(self):
        """Root span of one min_cut_pipeline call."""
        self._open(ROOT, True)
        try:
            yield
        finally:
            self.solve_total += self._close()

    def timed(self, name, fn, kept, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name, kept)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out, args)
                return out
            finally:
                self._close()
        return wrapper

    def counted(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(out, args)
            return out
        return wrapper

    # -- count hooks (run inside the span they describe) --

    def _add(self, key, amount=1):
        self.counts[key] += amount

    def _after_proxy(self, out, args):
        self._add("proxy.edges", out.m)
        if isinstance(args[0], cutquery.CutOracle):
            self._add("cutquery.proxy_queries", args[0].query_count)

    def _after_trees(self, out, args):
        unique, schedule, packed = out
        self._add("packing.trees_unique", len(unique))
        self._add("packing.lambda_guesses", len(schedule))
        self._add("packing.trees_packed", packed)

    def _after_batch(self, out, args):
        self._add("provider.rounds")
        for _, req in args[1]:
            if isinstance(req, requests.PairCut):
                self._add("provider.requests.pair")
            elif isinstance(req, requests.DegSubtree):
                self._add("provider.requests.deg")
            else:
                self._add("provider.requests.cross")

    def _after_filter(self, out, args):
        self._add("interesting.filter_kept", int(out.sum()))
        self._add("interesting.filter_checked", len(out))

    def _patches(self):
        hook = self._add
        timed = [
            (twocut, "load_graph", "graph.load_graph", True, None),
            (packing, "build_proxy_graph", "proxy.build", True, self._after_proxy),
            (packing, "trees_to_run", "packing.trees_to_run", True, self._after_trees),
            (packing, "build_skeleton", "packing.build_skeleton", True, None),
            (packing, "greedy_pack", "packing.greedy_pack", True, None),
            (packing, "build_rooted_tree", "graph.build_rooted_tree", True, None),
            (packing, "reconstruct_partition", "graph.reconstruct_partition", True, None),
            (tworespect, "decompose", "hld.decompose", True, None),
            (tworespect, "build_weight_classes", "interesting.weight_classes", True, None),
            (tworespect, "sample_cross_candidates", "interesting.sample", False, None),
            (tworespect, "candidate_tops", "interesting.candidate_tops", False,
             lambda out, a: hook("interesting.candidates", len(out[0]) + len(out[1]))),
            (interesting.ProxyFilter, "__init__", "interesting.filter", True, None),
            (interesting.ProxyFilter, "cross_ok_many", "interesting.filter", False, self._after_filter),
            (interesting.ProxyFilter, "down_ok_many", "interesting.filter", False, self._after_filter),
            (hld.PathDecomposition, "suffix_tops_below_depth", "hld.walk", False, None),
            (hld.PathDecomposition, "cross_anchor_depth", "hld.walk", False, None),
            (rangeindex.SampleRangeIndex, "sample_rect", "rangeindex.sample_rect", False, None),
            (rangeindex.WeightRangeIndex, "rect_weight", "rangeindex.rect_weight", False, None),
            (rangeindex.WeightRangeIndex, "__init__", "rangeindex.index_build", True, None),
            (rangeindex.EdgePointSet, "__init__", "rangeindex.index_build", True, None),
            (provider.CostProvider, "batch_eval", "provider.batch_eval", True, self._after_batch),
            (grid.PoPrefixGrid, "__init__", "grid.build", False,
             lambda out, a: hook("grid.cells", a[1] * a[1])),
            (streaming.StreamHarness, "__init__", "streaming.harness", True, None),
            (streaming.StreamHarness, "run_pass", "streaming.run_pass", True, None),
            (streaming.StreamHarness, "fill_bank", "streaming.fill_bank", True, None),
            (streaming.SketchBank, "recover", "streaming.sketch_recover", False,
             lambda out, a: hook("streaming.sketch_recover_hits", out is not None)),
            (streaming.SketchBank, "subtract_edges", "streaming.subtract", False, None),
            (interval.BipartiteSolver, "requests", "interval.solver", False, None),
            (interval.BipartiteSolver, "advance", "interval.solver", False, None),
        ]
        def unique(out, a):
            hook("provider.unique", len(a[1]))

        counted = [
            (sequential.SequentialProvider, "_eval_unique", unique),
            (cutquery.QueryProvider, "_eval_unique", unique),
            (streaming.StreamProvider, "_eval_unique", unique),
            (streaming.SketchBank, "__init__",
             lambda out, a: hook("streaming.sketch_words", a[0].word_count)),
            (cutquery, "recover_crossing_edge", lambda out, a: hook("cutquery.recover_edge_calls")),
            (interval.BipartiteSolver, "__init__", lambda out, a: hook("interval.solvers")),
        ]
        out = [(obj, attr, self.timed(name, getattr(obj, attr), kept, after))
               for obj, attr, name, kept, after in timed]
        out += [(obj, attr, self.counted(getattr(obj, attr), after)) for obj, attr, after in counted]
        out.append((packing, "two_respect_plan", self._plan_factory(packing.two_respect_plan)))
        return out

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        try:
            for obj, attr, fn in patches:
                setattr(obj, attr, fn)
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    def _plan_factory(self, plan):
        @functools.wraps(plan)
        def factory(*args, **kwargs):
            self._add("tworespect.trees")
            return _TracedPlan(self, plan(*args, **kwargs))
        return factory

    # -- results --

    def layer_metrics(self, ledgers):
        """Per-layer metrics of everything traced since the last reset.

        ledgers: summed RunStats fields of the traced solves.
        """
        c, calls = self.counts, self.calls
        out = {f"{name}_s": self.self_s[name] for name in SPAN_NAMES}
        out.update({
            "trace.solve_s": self.solve_total,
            "rangeindex.rect_weight_calls": calls["rangeindex.rect_weight"],
            "grid.builds": calls["grid.build"],
            "grid.cells": c["grid.cells"],
            "hld.walk_calls": calls["hld.walk"],
            "interesting.candidates": c["interesting.candidates"],
            "interesting.filter_kept_ratio": _ratio(c["interesting.filter_kept"],
                                                    c["interesting.filter_checked"]),
            "interesting.verified_ratio": _ratio(c["interesting.verified"], c["interesting.verify_checks"]),
            "packing.lambda_guesses": c["packing.lambda_guesses"],
            "packing.trees_packed": c["packing.trees_packed"],
            "packing.trees_unique": c["packing.trees_unique"],
            "proxy.edges": c["proxy.edges"],
            "cutquery.proxy_queries": c["cutquery.proxy_queries"],
            "cutquery.search_queries": ledgers["queries"] - c["cutquery.proxy_queries"],
            "cutquery.recover_edge_calls": c["cutquery.recover_edge_calls"],
            "streaming.sketch_recover_calls": calls["streaming.sketch_recover"],
            "streaming.sketch_recover_hit_ratio": _ratio(c["streaming.sketch_recover_hits"],
                                                         calls["streaming.sketch_recover"]),
            "streaming.sketch_words": c["streaming.sketch_words"],
            "provider.rounds": c["provider.rounds"],
            "provider.requests.deg": c["provider.requests.deg"],
            "provider.requests.pair": c["provider.requests.pair"],
            "provider.requests.cross": c["provider.requests.cross"],
            "provider.unique_ratio": _ratio(c["provider.unique"], c["provider.requests.deg"]
                                            + c["provider.requests.pair"] + c["provider.requests.cross"]),
            "tworespect.trees": c["tworespect.trees"],
            "interval.solvers": c["interval.solvers"],
        })
        out.update({f"ledger.{k}": v for k, v in ledgers.items()})
        return out

    def identity_residual(self):
        """Self times of all solve spans minus the traced solve time; 0 up to rounding."""
        return sum(v for k, v in self.self_s.items() if k != "graph.load_graph") - self.solve_total


def write_spans(fh, header, spans, rollups):
    fh.write(json.dumps(header) + "\n")
    for span in spans:
        fh.write(json.dumps(span) + "\n")
    for (parent, name), (n, total, own) in rollups.items():
        fh.write(json.dumps({"parent": parent, "name": name, "calls": n, "total": total, "self": own}) + "\n")


class _TracedPlan:
    """One two_respect_plan generator seen from outside: a span per resume,
    tagged by the Step of the batch it yields next."""

    def __init__(self, tracer, gen):
        self.tracer = tracer
        self.gen = gen
        self.step = STEPS[0]
        self.crossed = False
        self.pending = ()
        self.deg = {}

    def send(self, values):
        tr = self.tracer
        self._consume(values)
        tr._open(self.step, True)
        try:
            batch = self.gen.send(values)
        except BaseException:
            tr._close(self.step)
            raise
        self.step = self._tag(batch)
        tr._close(self.step)
        self.pending = batch
        return batch

    def _tag(self, batch):
        if not batch or isinstance(batch[0][1], (requests.CrossSub, requests.CrossNested)):
            self.crossed = True
            return STEPS[2]
        if isinstance(batch[0][1], requests.DegSubtree):
            return STEPS[0]
        return STEPS[3] if self.crossed else STEPS[1]

    def _consume(self, values):
        """Remember Step 1 degrees; score the Step 4 checks against them."""
        if values is None or not self.pending:
            return
        head = self.pending[0][1]
        if isinstance(head, requests.DegSubtree):
            self.deg = {req.v: v for (_, req), v in zip(self.pending, values)}
        elif isinstance(head, (requests.CrossSub, requests.CrossNested)):
            # CrossSub(e, f) and CrossNested(f, e) both keep e in `.u`
            ok = sum(2 * v > self.deg[req.u] for (_, req), v in zip(self.pending, values))
            self.tracer._add("interesting.verified", ok)
            self.tracer._add("interesting.verify_checks", len(values))
