"""Benchmark of the twocut min-cut pipeline, end to end and per layer.

    python3 perfbench/run.py --workload seq-light --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; twocut is imported from its `src/`.
It builds the workload's instances from the seed, computes each
reference value with `oracle_min_cut` (cached under `.perfbench/`), then
runs fresh child processes with one BLAS/OpenMP thread each: a warm-up and
SETUP_REPEATS timed set-ups, then one closed-loop run that solves rounds of
the instances through `load_graph` and `min_cut_pipeline` for `--seconds`.
`--trace 1` alternates plain and traced rounds and reports the per-layer
metrics instead; the spans of the median traced round go to
`.perfbench/spans-<workload>-seed<seed>.jsonl`. Facts about the run go to
stdout first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import LEDGERS, median_index

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench"
SETUP_REPEATS = 7
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "exact_frac": "ratio",
                    "probes": "count", "ledger_sum": "count"}
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def child(task_name, task, timeout):
    """Run worker.py in a fresh interpreter; its last stdout line is the report."""
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), task_name],
        input=json.dumps(task), capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {task_name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_values(instances):
    """Oracle min-cut value per instance, cached by the hash of its text."""
    sys.path.insert(0, str(ROOT / "src"))
    from twocut import load_graph, oracle_min_cut

    (CACHE / "oracle").mkdir(parents=True, exist_ok=True)
    out = []
    for inst in instances:
        path = CACHE / "oracle" / hashlib.sha256(inst["text"].encode()).hexdigest()
        if path.is_file():
            out.append(int(path.read_text()))
            continue
        value = oracle_min_cut(load_graph(inst["text"])).value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(str(value))
        os.replace(tmp, path)
        out.append(value)
    return out


def run_facts():
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def check_rounds(rounds, refs):
    """Score every solve against the oracle, and every round against the first.

    Returns (attempted, failed, exact, problems). A round that differs from
    the first in any value or ledger breaks repeatability, or, for a traced
    round, the check that tracing changes nothing.
    """
    attempted = failed = exact = 0
    problems = []
    first = rounds[0]["solves"]
    for rnd in rounds:
        for i, (s, want) in enumerate(zip(rnd["solves"], refs)):
            attempted += 1
            if "error" in s:
                failed += 1
                problems.append(f"solve {i} raised: {s['error'].strip().splitlines()[-1]}")
            elif s["value"] != want:
                failed += 1
                problems.append(f"solve {i} returned {s['value']}, oracle {want}")
            else:
                exact += 1
            keys = ("value",) + LEDGERS
            if any(s.get(k) != first[i].get(k) for k in keys):
                problems.append(f"{rnd['kind']} round differs from the first on solve {i}")
        residual = rnd.get("identity_residual", 0.0)
        if abs(residual) > 1e-6 * max(1.0, rnd["solve_s"]):
            problems.append(f"layer self times miss the traced solve time by {residual}")
    return attempted, failed, exact, problems


def round_ledgers(rnd):
    return {k: sum(s.get(k, 0) for s in rnd["solves"]) for k in LEDGERS}


def bench(workload, seed, seconds, trace, tiny=False):
    started = time.monotonic()
    instances = workloads.instances(workload, seed, tiny)
    refs = reference_values(instances)
    setup = {"instances": instances}
    child("setup", setup, 60)  # warm-up: bytecode caches, page cache
    setups = [child("setup", setup, 60) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(r["setup_s"] * r["scale"] for r in setups)
    task = {"instances": instances, "seconds": seconds, "trace": bool(trace), "workload": workload,
            "seed": seed, "spans_path": str(CACHE / f"spans-{workload}-seed{seed}.jsonl")}
    report = child("run", task, max(10.0, DEADLINE_S - (time.monotonic() - started)))
    rounds = report["rounds"]
    attempted, failed, exact, problems = check_rounds(rounds, refs)
    plain = [r for r in rounds if r["kind"] == "plain"]
    ledgers = round_ledgers(rounds[0])
    print("instances:", json.dumps([inst["label"] for inst in instances]))
    print("rounds (kind, wall s, s at reference speed):",
          json.dumps([[r["kind"], round(r["solve_s"], 4), round(r["ref_solve_s"], 4)] for r in rounds]))
    print("ledgers per round:", json.dumps(ledgers))
    for p in problems:
        print("problem:", p)
    if trace:
        traced_rounds = [r for r in rounds if r["kind"] == "traced"]
        pick = traced_rounds[median_index([r["solve_s"] for r in traced_rounds])]
        layers = dict(pick["layers"])
        layers["trace.overhead_s"] = pick["solve_s"] - statistics.median(r["solve_s"] for r in plain)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(layers.items())}
    else:
        values = {
            "setup_s": setup_s,
            "solve_s": sum(statistics.median(s["solve_s"] * s["scale"] for s in runs)
                           for runs in zip(*(r["solves"] for r in plain))),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
            "exact_frac": exact / attempted,
            "probes": ledgers["probes"],
            "ledger_sum": sum(ledgers.values()),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description="Benchmark the twocut min-cut pipeline.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time budget of the measured rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "twocut" / "__init__.py").is_file():
        print(f"error: no twocut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("facts:", json.dumps(run_facts()))
    result = bench(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
