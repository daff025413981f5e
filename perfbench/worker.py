"""One fresh benchmark process: set up one workload, then time it.

Started by run.py, never by hand.  `--t0` is the parent's CLOCK_MONOTONIC
reading taken just before it started this process, so set-up time covers
the interpreter start, `import klogic.cli`, generating the seeded inputs,
writing the input files and the warm-up.

The worker writes result.json into its work directory: per-operation
latencies, the digest of every output, the output of the first execution of
each operation (for run.py to check against the references), peak memory
and, in a traced run, the spans.  It checks nothing itself.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 5


def klogic_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_in_process(argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code or None if it raised, stdout, stderr)."""
    import klogic.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = klogic.cli.main(argv)
        except Exception as e:  # a raise is a failed operation, not a crash of the run
            code = None
            print(f"raised {type(e).__name__}: {e}", file=err)
    return code, out.getvalue(), err.getvalue()


def run_process(argv: list[str], env: dict) -> tuple[int | None, str, str]:
    done = subprocess.run([sys.executable, "-m", "klogic", *argv], env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=60)
    return done.returncode, done.stdout, done.stderr


class Recorder:
    """Digests of every execution; the first output of each operation on disk."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.executions: list[list] = []
        self.first: dict[str, dict] = {}

    def record(self, op_id: str, code: int | None, out: str, err: str) -> None:
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
        self.executions.append([op_id, digest])
        if op_id not in self.first:
            (self.outdir / f"{op_id}.out").write_text(out, encoding="utf-8")
            (self.outdir / f"{op_id}.err").write_text(err, encoding="utf-8")
            self.first[op_id] = {"exit": code, "digest": digest,
                                 "output_bytes": len(out.encode()) + len(err.encode())}


def _median_wall(cmd: list[str], env: dict) -> float:
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import klogic.cli  # noqa: F401  (part of set-up by definition)
    from workloads import make_plan

    plan = make_plan(args.workload, args.seed, args.workdir, args.tiny)
    for name, content in plan.files.items():
        (args.workdir / name).write_text(content, encoding="utf-8")
    outdir = args.workdir / "out"
    outdir.mkdir()
    fresh = args.workload == "cli-session" and not args.trace
    env = klogic_env()
    for op in plan.warmup:
        run_process(op.argv, env) if fresh else run_in_process(op.argv)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        (args.workdir / "result.json").write_text(json.dumps(result))
        return 0

    from calibrate import Sampler

    rec = Recorder(outdir)
    sampler = Sampler()
    latencies: list[float] = []   # at the reference speed, see calibrate.py
    wall: list[float] = []

    def timed_pass(runner, sample: bool) -> None:
        for op in plan.ops:
            elapsed, scaled, (code, out, err) = sampler.timed(sample, runner, op.argv)
            wall.append(elapsed)
            latencies.append(scaled)
            rec.record(op.id, code, out, err)

    if not args.trace:
        # Whole rounds until both the time and the operation count are reached.
        runner = (lambda argv: run_process(argv, env)) if fresh else run_in_process
        while sum(wall) < args.seconds or len(wall) < plan.min_ops:
            timed_pass(runner, not fresh)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if fresh else resource.RUSAGE_SELF)
        result["peak_rss_mib"] = usage.ru_maxrss / 1024
    else:
        from tracing import Tracer

        # One round with tracing off, then the same round traced.  No samples
        # during the operations: they would land inside the spans.
        timed_pass(run_in_process, False)
        untraced = len(latencies)
        tracer = Tracer()
        tracer.install()
        try:
            timed_pass(run_in_process, False)
        finally:
            tracer.remove()
        output_bytes = sum(rec.first[op.id]["output_bytes"] for op in plan.ops)
        result["trace"] = {
            "untraced_s": sum(latencies[:untraced]),
            "traced_s": sum(latencies[untraced:]),
            "output_bytes": output_bytes,
            "spans": tracer.export(),
            "interpreter_s": _median_wall([sys.executable, "-c", "pass"], env),
            "import_s": _median_wall([sys.executable, "-c", "import klogic.cli"], env),
        }
        del latencies[untraced:], wall[untraced:]
    result["latencies_s"] = latencies
    result["wall_s"] = wall
    result["executions"] = rec.executions
    result["first"] = rec.first
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
