"""The klogic benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload modal --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(worker.py): a few that only set up, then one that sets up and measures.
This process then checks every output against references that do not come
from klogic's engines (reference.py), prints a readable summary, and prints
as its last line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced pass.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from calibrate import loop_s, scale
from workloads import WORKLOADS, atoms_of, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 5          # set-up-only workers per run; setup_s is their median
WORKER_TIMEOUT_S = 150


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _spawn(args: argparse.Namespace, workdir: Path, setup_only: bool) -> dict:
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    before = loop_s()
    t0 = time.monotonic()
    # A session of its own, so that a timeout also stops the klogic processes
    # a cli-session worker may have running.
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err}")
    result = json.loads((workdir / "result.json").read_text())
    if setup_only:  # the worker exits right after setting up
        result["setup_s"] *= scale(before, loop_s())
    return result


def _tuples(x):
    """JSON lists back into the tuple formulas of workloads.py."""
    return tuple(_tuples(y) for y in x) if isinstance(x, list) else x


def _verify(plan, result: dict, outdir: Path, checker) -> tuple[int, dict]:
    """(failed executions, problem per failing operation).  An execution
    fails if the first output of its operation differs from the reference,
    or if its output differs from that first output."""
    ops = {op.id: op for op in plan.ops}
    problems: dict[str, str] = {}
    for op_id, first in result["first"].items():
        out = (outdir / f"{op_id}.out").read_text(encoding="utf-8")
        err = (outdir / f"{op_id}.err").read_text(encoding="utf-8")
        problem = checker.check(ops[op_id], first["exit"], out, err)
        if problem:
            problems[op_id] = problem
    failed = 0
    for op_id, digest in result["executions"]:
        if op_id in problems:
            failed += 1
        elif digest != result["first"][op_id]["digest"]:
            failed += 1
            problems.setdefault(op_id, "output differs between executions")
    return failed, problems


def _descriptor(args, plan, result: dict) -> dict:
    first, wall = result["first"], result["wall_s"]
    per_class = Counter(op.cls for op in plan.ops)
    cls_of = {op.id: op.cls for op in plan.ops}
    by_class = defaultdict(list)
    for (op_id, _), seconds in zip(result["executions"], result["latencies_s"]):
        by_class[cls_of[op_id]].append(seconds * 1000)
    distinct = {op.id: op for op in plan.ops}.values()  # modal repeats its short queries
    queries = [{"id": op.id, "class": op.cls, **op.info} for op in distinct]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_round": len(plan.ops),
        "distinct_ops_per_round": len(queries),
        "ops_per_class_per_round": dict(sorted(per_class.items())),
        "latency_ms_by_class": {c: {"n": len(v), "min": round(min(v), 3),
                                    "median": round(statistics.median(v), 3), "max": round(max(v), 3)}
                                for c, v in sorted(by_class.items())},
        "wall_time": {  # unscaled; the metrics are at the reference speed (calibrate.py)
            "ops_per_s": len(wall) / sum(wall),
            "latency_p50_ms": _nearest_rank(wall, 0.50) * 1000,
            "latency_p90_ms": _nearest_rank(wall, 0.90) * 1000,
            "scaled_over_wall": sum(result["latencies_s"]) / sum(wall),
        },
        "input_bytes": sum(len(c.encode()) for c in plan.files.values()),
        "output_bytes_per_round": sum(first[op.id]["output_bytes"] for op in plan.ops if op.id in first),
        "ops": [q | {"output_bytes": first.get(q["id"], {}).get("output_bytes")} for q in queries],
    }


def _git_commit() -> str | None:
    """The commit checked out, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def _end_to_end(setups: list[float], result: dict) -> tuple[dict, dict]:
    lat = result["latencies_s"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (_nearest_rank(lat, 0.50) * 1000, "ms"),
        "latency_p90_ms": (_nearest_rank(lat, 0.90) * 1000, "ms"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    samples = {"setup_s": len(setups), "ops_per_s": len(lat), "latency_p50_ms": len(lat),
               "latency_p90_ms": len(lat), "peak_rss_mib": 1}
    return metrics, samples


def _per_layer(result: dict, cache) -> tuple[dict, dict]:
    from reference import query_class

    trace = result["trace"]
    spans = trace["spans"]
    child_s = defaultdict(float)
    for layer, parent, start, end, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    calls, self_s, counts = Counter(), defaultdict(float), Counter()
    atoms_max = 0
    for i, (layer, parent, start, end, attrs) in enumerate(spans):
        key = layer
        if layer == "epistemic" and attrs.get("raised"):
            key = "epistemic.rejected"  # refused before searching, e.g. over the atom limit
        elif layer == "epistemic":
            formula, axioms = _tuples(attrs["formula"]), [_tuples(a) for a in attrs["axioms"]]
            key = "epistemic." + query_class(cache, attrs["fn"], formula, axioms)
            atoms_max = max(atoms_max, len(atoms_of(formula, *axioms)))
        calls[key] += 1
        self_s[key] += end - start - child_s[i]
        for name in ("chars", "pairs", "axioms", "valuations"):
            if isinstance(attrs.get(name), int):
                counts[f"{layer}.{name}"] += attrs[name]
        if "path" in attrs:  # a declarations.load that returned
            counts["declarations.lines"] += len(Path(attrs["path"]).read_text(encoding="utf-8").splitlines())

    def ms(key):
        return self_s[key] * 1000

    lat = result["latencies_s"]
    valuations = counts["classical.valuations"]
    m = {}
    for cls in ("exhaustive", "witness", "kfree"):
        m[f"epistemic.{cls}.calls"] = (calls[f"epistemic.{cls}"], "count")
        m[f"epistemic.{cls}.self_ms"] = (ms(f"epistemic.{cls}"), "ms")
    m["epistemic.atoms_max"] = (atoms_max, "count")
    m["classical.calls"] = (calls["classical"], "count")
    m["classical.self_ms"] = (ms("classical"), "ms")
    m["classical.valuations"] = (valuations, "count")
    m["classical.us_per_valuation"] = (self_s["classical"] * 1e6 / valuations if valuations else 0.0, "us")
    m["quantum.generate.calls"] = (calls["quantum.generate"], "count")
    m["quantum.generate.self_ms"] = (ms("quantum.generate"), "ms")
    m["quantum.pairs"] = (counts["quantum.generate.pairs"], "count")
    m["quantum.axioms"] = (counts["quantum.generate.axioms"], "count")
    m["declarations.load.calls"] = (calls["declarations.load"], "count")
    m["declarations.load.self_ms"] = (ms("declarations.load"), "ms")
    m["declarations.lines"] = (counts["declarations.lines"], "count")
    for layer in ("syntax.parse", "syntax.render"):
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_ms"] = (ms(layer), "ms")
    m["syntax.parse.chars"] = (counts["syntax.parse.chars"], "count")
    m["cli.main.calls"] = (calls["cli.main"], "count")
    m["cli.self_ms"] = (ms("cli.main"), "ms")
    m["cli.output_bytes"] = (trace["output_bytes"], "bytes")
    m["process.interpreter_ms"] = (trace["interpreter_s"] * 1000, "ms")
    m["process.import_ms"] = ((trace["import_s"] - trace["interpreter_s"]) * 1000, "ms")
    m["process.work_ms"] = (statistics.median(lat) * 1000, "ms")
    m["trace.overhead_ratio"] = (trace["traced_s"] / trace["untraced_s"], "ratio")
    m["trace.traced_s"] = (trace["traced_s"], "s")
    m["trace.untraced_s"] = (trace["untraced_s"], "s")
    samples = {name: len(lat) for name in m}
    return m, samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one klogic benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, one round (smoke test)")
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "klogic" / "cli.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: run from a klogic checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from reference import Checker, OracleCache  # needs klogic and tests/ on the path

    # One CPU for this process and every process it starts: the benchmark is
    # one caller in a closed loop, and a process that moves between CPUs of
    # a shared machine changes speed as it moves.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        setups = [] if args.trace else [
            _spawn(args, workdir / f"setup-{i}", True)["setup_s"] for i in range(SETUP_RUNS)]
        rundir = workdir / "run"
        result = _spawn(args, rundir, False)
        plan = make_plan(args.workload, args.seed, rundir, args.tiny)
        cache = OracleCache(WORK / "oracle-cache.json")
        failed, problems = _verify(plan, result, rundir / "out", Checker(ROOT, cache))
        if args.trace:
            metrics, samples = _per_layer(result, cache)
        else:
            metrics, samples = _end_to_end(setups, result)
        cache.save()
        attempted = len(result["executions"])
        descriptor = _descriptor(args, plan, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# klogic benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("descriptor " + json.dumps(descriptor, separators=(",", ":")))
    for op_id, problem in sorted(problems.items()):
        print(f"FAILED {op_id}: {problem[:500]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit:6s} n={samples[name]}")
    wall = descriptor["wall_time"]
    print(f"{'(wall time, unscaled)':28s} ops_per_s {wall['ops_per_s']:.6g}, p50 {wall['latency_p50_ms']:.6g} ms,"
          f" p90 {wall['latency_p90_ms']:.6g} ms")
    print(f"{'failed_ratio':28s} {failed / attempted:14.6g} {'ratio':6s} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
