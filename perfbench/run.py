"""sklift benchmark: drives the CLI the way a user does and checks every answer.

    python3 perfbench/run.py --workload lift --seed 1 --seconds 45 --trace 0

One client in one process calls ``sklift.cli.main(argv)`` in a closed loop:
the next operation starts when the previous one has returned.  Interpreter
start-up and the import of ``sklift`` are not timed.  A run sets up its
inputs (at least three times with ``--trace 0``, reporting the median as
``setup_s``), then repeats passes over the workload's operation list until
``--seconds`` have gone by, and reports each operation at its median over
the passes.  Times are reported in reference seconds (see ``speed.py``):
wall times scaled by the speed of a fixed calibration kernel run after each
step.  With ``--trace 1`` it sets up once, makes the same untraced passes,
then one more pass with span recording on (see ``tracing.py``) and reports
the per-layer metrics of the set-up warm-up plus that pass, in wall
seconds.  The last line of standard output is the JSON result; the line
before it records the inputs and the wall times.

The program is imported from ``src/`` next to this directory; nothing is
read or written outside the checkout (scratch files go to
``.perfbench-work/``, removed at exit).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up runs at least SETUPS times, and again while the set-ups so far
# took under SETUP_BUDGET_S, up to SETUP_MAX: cheap set-ups get more samples
SETUPS, SETUP_BUDGET_S, SETUP_MAX = 3, 5.0, 20
OP_LIMIT_S = 60  # an operation still running after this counts as failed


class OperationTimeout(Exception):
    pass


class ProgramMissing(Exception):
    pass


def import_program(root: Path = ROOT):
    """The sklift modules from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "sklift" / "cli.py").is_file():
        raise ProgramMissing(f"no sklift sources under {src}")
    sys.path.insert(0, str(src))
    import sklift.cache
    import sklift.characterize
    import sklift.cli
    import sklift.qseries
    import sklift.siegel

    if Path(sklift.__file__).resolve().parent != (src / "sklift").resolve():
        raise ProgramMissing(f"sklift was imported from {sklift.__file__}, not {src}")
    return types.SimpleNamespace(
        cli=sklift.cli, cache=sklift.cache, characterize=sklift.characterize,
        qseries=sklift.qseries, siegel=sklift.siegel,
    )


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def source_digest(root: Path = ROOT) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "sklift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path = ROOT) -> str | None:
    """HEAD of the checkout if it is a git work tree; benchmark checkouts may not be."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OperationTimeout(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Runner:
    """Executes operations, checks them and keeps the tally."""

    def __init__(self, mods):
        self.mods = mods
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, op: workloads.Op, tracer: tracing.Tracer | None = None) -> workloads.Outcome:
        if op.before is not None:
            op.before()
        out, err = io.StringIO(), io.StringIO()
        rc = error = None
        main = self.mods.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), time_limit(OP_LIMIT_S):
            start = time.perf_counter()
            try:
                rc = tracer.call_op(main, op.command, op.argv) if tracer else main(op.argv)
            except Exception as exc:  # any crash of the program is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        digest = None
        if op.out_file is not None and op.out_file.is_file():
            digest = workloads.sha256_file(op.out_file)
        outcome = workloads.Outcome(rc, out.getvalue(), err.getvalue(), seconds, error, digest)
        problem = error
        if problem is None:
            try:
                problem = op.check(outcome)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        self.note(op.label, problem)
        return outcome

    def note(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")

    def run_pass(self, workload: workloads.Workload, tracer=None, speedometer=None) -> list:
        outcomes = []
        for op in workload.ops:
            outcomes.append(self.execute(op, tracer))
            if speedometer is not None:
                speedometer.after(outcomes[-1].seconds)
        return outcomes


def more_setups(times: list, trace: bool) -> bool:
    if not times or trace:
        return not times
    return len(times) < SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX)


def run(mods, workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", expected: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, record of inputs)."""
    expected = expected if expected is not None else load_expected()
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    # the default cache locations point into the run directory, and the gate
    # fails any lift after which they exist: every lift must use its own
    # --cache-dir, so a user's real cache can never make a cold run warm
    forbidden = [run_dir / "home", run_dir / "default-cache"]
    saved_env = {name: os.environ.get(name) for name in ("HOME", "SKLIFT_CACHE_DIR")}
    os.environ["HOME"], os.environ["SKLIFT_CACHE_DIR"] = map(str, forbidden)
    runner = Runner(mods)
    tracer = tracing.Tracer() if trace else None
    try:
        ctx = workloads.Context(mods, expected, run_dir / "work", forbidden)
        speedometer = speed.Speedometer()
        setup_times: list[float] = []
        while more_setups(setup_times, trace):
            start = time.perf_counter()
            workloads.fresh_dir(ctx.work)
            if tracer is not None:
                with tracer.installed(mods):
                    workloads.warm_up(ctx, lambda op: runner.execute(op, tracer))
            else:
                workloads.warm_up(ctx, runner.execute)
            wl = workloads.prepare(ctx, workload, workloads.SCALES[scale], seed, runner.execute)
            setup_times.append(time.perf_counter() - start)
            speedometer.after(setup_times[-1])

        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(runner.run_pass(wl, speedometer=speedometer))
        walls = [sum(o.seconds for o in p) for p in passes]
        typical = [statistics.median(p[i].seconds for p in passes) for i in range(len(wl.ops))]

        if tracer is not None:
            with tracer.installed(mods):
                traced = runner.run_pass(wl, tracer)
            for op, a, b in zip(wl.ops, passes[-1], traced):
                if a.output() != b.output():
                    runner.note(op.label, "traced output differs from the untraced one")
            metrics = tracer.metrics()
            # one traced pass against the typical untraced one
            metrics["trace.overhead_ratio"] = sum(o.seconds for o in traced) / statistics.median(walls)
        else:
            scale = speedometer.scale()
            metrics = {
                "setup_s": statistics.median(setup_times) * scale,
                "wall_s": sum(typical) * scale,
                "slowest_op_s": max(typical) * scale,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "success_rate": (runner.attempted - runner.failed) / runner.attempted,
            }
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only when no other run is using it

    units = {m["name"]: m["unit"] for m in benchmark_metrics("per_layer" if trace else "end_to_end")}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_wall_s": [round(t, 4) for t in setup_times],
        "passes": len(passes),
        "op_median_wall_s": [round(t, 4) for t in typical],
        "kernel_mean_s": speedometer.mean(),
        "kernel_samples": len(speedometer.samples),
        "ops_per_pass": [op.label for op in wl.ops],
        "inputs": wl.meta,
        "problems": runner.problems[:20],
    }
    return result, record


def benchmark_metrics(section: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mods = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    result, record = run(mods, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"inputs": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
