"""Child process of the benchmark; one fresh interpreter per task.

    python3 perfbench/worker.py <checkout root> setup|run  < task JSON

`setup` times importing twocut and loading every instance text. `run`
loads the instances, then solves rounds (each instance once per round, one
solve at a time) until the time budget is spent, overshooting it by at most
half a round. With tracing on, plain and
traced rounds alternate. The last line of stdout is the JSON report.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

from workloads import EPS

LEDGERS = ("queries", "passes", "tracked_words", "probes")
# speed_kernel() wall time on an idle 2-vCPU Intel Xeon VM (Python 3.11)
KERNEL_REF_S = 0.0338


def import_twocut(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import twocut
    if os.path.dirname(os.path.dirname(os.path.abspath(twocut.__file__))) != os.path.abspath(src):
        raise ImportError(f"twocut resolved to {twocut.__file__}, not to {src}")
    return twocut


def speed_kernel():
    """Fixed pure-Python work that shares no code with twocut."""
    s = 0
    d = {}
    for i in range(300_000):
        s += i * i % 7
        d[i & 1023] = s
    return s


def kernel_s():
    t0 = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - t0


def scale(k_before, k_after):
    """Factor from measured seconds to seconds at the reference machine speed,
    from the kernel times taken just before and after the measured work."""
    return KERNEL_REF_S / ((k_before + k_after) / 2)


def setup_task(root, task):
    texts = [inst["text"] for inst in task["instances"]]
    k0 = kernel_s()
    t0 = time.perf_counter()
    twocut = import_twocut(root)
    for text in texts:
        twocut.load_graph(text)
    raw = time.perf_counter() - t0
    return {"setup_s": raw, "scale": scale(k0, kernel_s())}


def solve(twocut, g, inst, tracer=None):
    cfg = twocut.PipelineConfig(churn=inst["churn"])
    k0 = kernel_s()
    t0 = time.perf_counter()
    try:
        with tracer.solve() if tracer else contextlib.nullcontext():
            result, stats = twocut.min_cut_pipeline(g, inst["mode"], eps=EPS, rng=inst["seed"], config=cfg)
    except Exception:  # a solve that raises is a failed solve; the run goes on
        out = {"error": traceback.format_exc(limit=3)}
    else:
        out = {"value": int(result.value), **{k: int(getattr(stats, k)) for k in LEDGERS}}
    out["solve_s"] = time.perf_counter() - t0
    out["scale"] = scale(k0, kernel_s())
    return out


def run_round(twocut, graphs, instances, tracer=None):
    solves = [solve(twocut, g, inst, tracer) for g, inst in zip(graphs, instances)]
    return {"solve_s": sum(s["solve_s"] for s in solves),
            "ref_solve_s": sum(s["solve_s"] * s["scale"] for s in solves), "solves": solves}


def traced_round(twocut, graphs, instances, tracer):
    tracer.reset()
    with tracer.installed():
        for inst in instances:
            twocut.load_graph(inst["text"])
        rnd = run_round(twocut, graphs, instances, tracer)
    ledgers = {k: sum(s.get(k, 0) for s in rnd["solves"]) for k in LEDGERS}
    rnd["solve_s"] = tracer.solve_total
    rnd["layers"] = tracer.layer_metrics(ledgers)
    rnd["identity_residual"] = tracer.identity_residual()
    return rnd


def median_index(values):
    """Index of the lower median of `values`."""
    return sorted(range(len(values)), key=values.__getitem__)[(len(values) - 1) // 2]


def run_task(root, task):
    twocut = import_twocut(root)
    instances = task["instances"]
    graphs = [twocut.load_graph(inst["text"]) for inst in instances]
    kinds = ["plain"]
    if task["trace"]:
        from tracing import Tracer, write_spans
        tracer = Tracer()
        kinds.append("traced")
    rounds = []
    spans = []
    last = {}
    spent = 0.0
    while True:
        kind = kinds[len(rounds) % len(kinds)]
        # stop when the next round would more likely end past the budget than before it
        if len(last) == len(kinds) and spent + last[kind] / 2 > task["seconds"]:
            break
        start = time.perf_counter()
        if kind == "plain":
            rnd = run_round(twocut, graphs, instances)
        else:
            rnd = traced_round(twocut, graphs, instances, tracer)
            spans.append((tracer.spans, tracer.rollups))
        rnd["kind"] = kind
        last[kind] = time.perf_counter() - start
        spent += last[kind]
        rounds.append(rnd)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spans:
        traced = [r["solve_s"] for r in rounds if r["kind"] == "traced"]
        with open(task["spans_path"], "w") as fh:
            header = {"workload": task["workload"], "seed": task["seed"],
                      "solves": [inst["label"] for inst in instances]}
            write_spans(fh, header, *spans[median_index(traced)])
    return {"rounds": rounds, "peak_rss_kb": peak_kb}


def main(argv):
    root, task_name = argv[1], argv[2]
    task = json.loads(sys.stdin.read())
    report = setup_task(root, task) if task_name == "setup" else run_task(root, task)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
