"""The onepoint benchmark: closed-loop CLI workloads with checked answers.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One client calls ``onepoint.cli.main(argv)`` in-process, starting each op
only after the previous one returned, on inputs the benchmark writes from
its frozen fixtures (see ``workloads.py``).  Every answer is checked, and
timings are scaled to a reference machine speed (see ``CAL_REF_S``).  The
run repeats the workload's op list until ``--seconds`` have passed, and at
least ``MIN_REPETITIONS`` times.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

from tracer import PER_LAYER, Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, Op, build_repetition, load_fixtures  # noqa: E402

# an atlas repetition is three ops of one to three seconds; four of them give
# its median four samples of the radius-12 op
MIN_REPETITIONS = 4
# peak RSS is read after this many ops (ten census repetitions), or at the end
# of a run with fewer: fixed work, so a faster program is not charged for the
# extra censuses its caches hold by the end of a run
RSS_OPS = 190
# the program's census cache has no bound, so a run ends early above this
# resident size rather than exhaust a shared machine's memory
STOP_RSS_MIB = 2048
SETUP_REPEATS = 9
# Timings are scaled to a reference machine speed.  The host drifts by a
# quarter over tens of seconds; a fixed pure-Python kernel timed right after
# every op drifts with it, so each repetition's latencies are divided by its
# median kernel time over CAL_REF_S.  At least CAL_SAMPLES kernel runs are
# taken per repetition.
CAL_REF_S = 0.002
CAL_SAMPLES = 6
P90_MIN_SAMPLES = 100  # below this, fewer than 10 samples lie beyond the 90th percentile

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


def calibration_kernel() -> int:
    """Fixed work of the kind the program does: tuples and integer division."""
    total = 0
    for x in range(-40, 41):
        for y in range(-40, 41):
            point = (x, y, x * y)
            total += (3 * x + 5 * y) // 7 if (x * x + y * y) % 3 else len(point)
    return total


def calibrate(times: int) -> list[float]:
    """Seconds the calibration kernel takes, ``times`` times over."""
    out = []
    for _ in range(times):
        start = perf_counter()
        calibration_kernel()
        out.append(perf_counter() - start)
    return out


def call(argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """Run one op: (exit code, stdout, seconds, error)."""
    import onepoint.cli  # bound at call time, so a traced run reaches the wrapper

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = onepoint.cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return None, out.getvalue(), perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), perf_counter() - start, None


class Run:
    """One workload's ops, answers and timings for one seed."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work
        self.fixtures = None
        self.attempted = 0
        self.failures: list[str] = []
        self.repetitions = 0

    def setup(self) -> float:
        """Median of several full set-ups: a fresh interpreter importing the
        package, fixture loading, and writing one repetition's inputs."""
        times = []
        for i in range(SETUP_REPEATS):
            start = perf_counter()
            subprocess.run(
                [sys.executable, "-I", "-c",
                 "import sys; sys.path.insert(0, sys.argv[1]); import onepoint.cli", str(SRC)],
                check=True,
            )
            self.fixtures = load_fixtures()
            build_repetition(self.workload, self.fixtures, self.rng, self.work / f"setup{i}")
            elapsed = perf_counter() - start
            shutil.rmtree(self.work / f"setup{i}", ignore_errors=True)
            times.append(elapsed / _speed(calibrate(CAL_SAMPLES)))
        return statistics.median(times)

    def inputs(self) -> list[Op]:
        """The op list once more, on fresh inputs."""
        directory = self.work / f"r{self.repetitions}"
        self.repetitions += 1
        return build_repetition(self.workload, self.fixtures, self.rng, directory)

    def execute(self, op: Op, tracer: Tracer | None = None) -> float:
        """Run and check one op; returns its seconds inside the CLI."""
        if tracer is not None:
            tracer.begin_op(self.attempted)
        code, out, elapsed, error = call(op.argv)
        self.attempted += 1
        reason = error or op.check(code, out)
        if reason is not None:
            self.failures.append(f"{' '.join(op.argv)}: {reason}")
        if tracer is not None:
            tracer.counters["cli.output_bytes"] += len(out.encode("utf-8"))
        # the op's cyclic garbage is collected, and what it left alive (the
        # program's caches among it) is moved out of the collector's reach:
        # each op then meets the collector as a fresh CLI process would,
        # whatever ran before it
        gc.collect()
        gc.freeze()
        return elapsed

    def settle(self) -> None:
        """Drop the inputs written so far, between repetitions."""
        for directory in self.work.glob("r*"):
            shutil.rmtree(directory, ignore_errors=True)


def _speed(kernel_seconds: list[float]) -> float:
    """How many times slower than the reference speed the machine ran."""
    return statistics.median(kernel_seconds) / CAL_REF_S


def _max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed(run: Run, seconds: float) -> tuple[dict[str, float], list[str]]:
    latencies: list[float] = []
    busy: list[float] = []  # op seconds per repetition
    raw_busy: list[float] = []
    speeds: list[float] = []
    rss_kib = 0
    notes = []
    start = perf_counter()
    while len(busy) < MIN_REPETITIONS or perf_counter() - start < seconds:
        ops = run.inputs()
        raw: list[float] = []
        kernel: list[float] = []
        for op in ops:
            raw.append(run.execute(op))
            kernel += calibrate(-(-CAL_SAMPLES // len(ops)))
            if len(latencies) + len(raw) == RSS_OPS:
                rss_kib = _max_rss_kib()
        run.settle()
        speeds.append(_speed(kernel))
        latencies += [t / speeds[-1] for t in raw]
        busy.append(sum(raw) / speeds[-1])
        raw_busy.append(sum(raw))
        if _max_rss_kib() > STOP_RSS_MIB * 1024:
            notes.append(f"stopped after {perf_counter() - start:.1f} s: "
                         f"resident size above {STOP_RSS_MIB} MiB")
            break
    rss_kib = rss_kib or _max_rss_kib()
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics = {
        # ops of one repetition over its median time spent inside the CLI
        "ops_per_s": len(latencies) / len(busy) / statistics.median(busy),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": p90 * 1000,
        "peak_rss_mib": rss_kib / 1024,
    }
    notes.append(f"{len(latencies)} op latencies over {len(busy)} repetitions")
    notes.append(f"times scaled to the reference speed: the calibration kernel took "
                 f"{statistics.median(speeds):.3f} times its reference time; unscaled, "
                 f"{len(ops) / statistics.median(raw_busy):.4g} ops/s")
    if len(latencies) < P90_MIN_SAMPLES:
        notes.append(f"op_p90_ms rests on {len(latencies)} samples, "
                     f"fewer than {P90_MIN_SAMPLES}: under 10 lie beyond it")
    notes.append(f"peak_rss_mib is ru_maxrss after {min(RSS_OPS, len(latencies))} ops")
    return metrics, notes


def traced(run: Run, seconds: float, path: Path) -> tuple[dict[str, float], list[str]]:
    """Each op twice, on its own inputs: untraced, then traced right after,
    so both copies meet the same machine state and their time difference
    is the tracing overhead."""
    tracer = Tracer()
    plain = with_spans = 0.0
    traced_ops = 0
    start = perf_counter()
    while traced_ops == 0 or perf_counter() - start < seconds:
        for untraced_op, traced_op in zip(run.inputs(), run.inputs()):
            plain += run.execute(untraced_op)
            tracer.install()
            try:
                with_spans += run.execute(traced_op, tracer)
            finally:
                tracer.uninstall()
            traced_ops += 1
        run.settle()
    left = leftover_wrappers()
    if left:
        raise RuntimeError(f"wrappers still bound after the traced run: {left}")
    tracer.write(path)
    notes = [f"{traced_ops} traced ops; spans written to {path}"]
    return tracer.summarize(traced_ops, with_spans, plain), notes


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import onepoint

    if Path(onepoint.__file__).resolve().parent != (SRC / "onepoint").resolve():
        print(f"error: imported onepoint from {onepoint.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    try:
        run = Run(workload, seed, work)
        setup_s = run.setup()
        if trace:
            metrics, notes = traced(run, seconds, OUT / "traces" / f"{workload}-seed{seed}.tsv.gz")
            units = dict(PER_LAYER)
        else:
            metrics, notes = timed(run, seconds)
            metrics["setup_s"] = setup_s
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(run.failures)
    for line in run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}: {run.attempted} ops, {failed} failed "
          f"(fail_frac {failed / run.attempted:.4g})")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:34} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        results[workload] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "onepoint" / "cli.py").is_file():
        print(f"error: no onepoint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
