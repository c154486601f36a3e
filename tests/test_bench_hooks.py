"""The benchmark's layer tracer keeps finding the names it patches.

`perfbench/tracing.py` wraps twocut functions and methods by name from the
outside; a rename in the package would make `perfbench/run.py --trace 1`
crash. This test enters the tracer against this checkout and solves the
worked example in every mode: the traced run must give the same value and
ledgers as a plain one.
"""

import sys
from pathlib import Path

import pytest

from twocut.packing import MODES, min_cut_pipeline
from twocut.provider import CostProvider
from twocut.requests import CrossNested, CrossSub, DegSubtree

from conftest import make_gstar

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def ledgers(stats):
    return (stats.queries, stats.passes, stats.tracked_words, stats.probes)


def request_identity(t, req):
    """Dedup identity of a request: a CrossSub and its mirror are one."""
    if isinstance(req, CrossSub):
        return (t, "cross-sub", min(req.u, req.v), max(req.u, req.v))
    if isinstance(req, (DegSubtree, CrossNested)):
        return (t, req)
    return (t, req.pair)


def distinct_uncached(batches):
    """Requests each batch has to evaluate: distinct, and no DegSubtree charged before."""
    charged, total = set(), 0
    for items in batches:
        keys = {request_identity(t, req) for t, req in items} - charged
        total += len(keys)
        charged |= {k for k in keys if isinstance(k[1], DegSubtree)}
    return total


@pytest.mark.parametrize("mode", MODES)
def test_traced_solve_matches_plain(mode, monkeypatch):
    g, _ = make_gstar()
    plain, plain_stats = min_cut_pipeline(g, mode, rng=3)
    batches = []
    batch_eval = CostProvider.batch_eval

    def spy(self, items):
        batches.append(list(items))
        return batch_eval(self, items)

    monkeypatch.setattr(CostProvider, "batch_eval", spy)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.solve():
        traced, traced_stats = min_cut_pipeline(g, mode, rng=3)
    assert (traced.value, ledgers(traced_stats)) == (plain.value, ledgers(plain_stats))
    metrics = tracer.layer_metrics(dict(zip(("queries", "passes", "tracked_words", "probes"),
                                            ledgers(traced_stats))))
    assert metrics["tworespect.trees"] >= 1
    assert tracer.calls["grid.build"] == metrics["tworespect.trees"]  # one grid per tree, shared with the filter
    # the solver hooks still wrap the methods the pipeline calls
    assert tracer.calls["interval.solver"] > 0
    assert 1 <= metrics["interval.solvers"] <= 2 * metrics["tworespect.trees"]
    assert metrics["interesting.candidates"] > 0
    assert tracer.calls["interesting.sample"] == 0  # Step 4 no longer samples
    assert tracer.calls["interesting.weight_classes"] == 0  # nor builds the sampler's classes
    assert tracer.calls["interesting.candidate_tops"] >= 1
    assert tracer.calls["interesting.filter"] >= 1  # every mode filters Step 4's candidates
    assert abs(tracer.identity_residual()) < 1e-6
    assert tracer.counts["provider.unique"] == distinct_uncached(batches) > 0
    if mode == "streaming":
        assert tracer.calls["streaming.run_pass"] + tracer.calls["streaming.fill_bank"] == traced_stats.passes
