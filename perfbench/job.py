"""One job of the parakat benchmark in a fresh interpreter.

A job is a whole sweep, or one block of the query stream.  It runs in its own
process so that nothing a job leaves behind in the program, such as a memo,
speeds up the next one: users run each ``parakat`` command as a new process.

    python3 perfbench/job.py --workload queries --seed 1 --block 0 \
        --scale full --trace 0 --spawned-at <time.monotonic() of the parent>

prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

SPAWN_CLOCK = time.monotonic  # the parent stamps --spawned-at with this clock
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# Host-speed reference.  On a shared 2-vCPU x86 host the time of a fixed loop
# was seen to change by up to 2x over tens of seconds, with CPU time equal to
# wall time, so that a job's raw times measured the host more than the program.
# Each job therefore times a fixed stdlib-only loop every PROBE_EVERY_S while
# its operations run, and run.py scales the job's times to a host on which one
# loop takes REF_NOMINAL_S.
REF_LOOP = 20_000  # iterations of one reference loop
REF_NOMINAL_S = 0.004  # about one loop on an unloaded 2-vCPU x86 host, Python 3.11
PROBE_EVERY_S = 0.05  # so the loops take about 8% of the timed section
WARM_PROBE_S = 0.05  # probed right after set-up, before the first operation


def ref_loop() -> float:
    """Seconds taken by one fixed stdlib-only loop."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(REF_LOOP):
        table[i & 1023] = table.get(i & 1023, 0) + i
    sorted(table.values())
    return time.perf_counter() - t0


class HostProbe:
    """Reference loops timed in and around the timed section; their mean tracks host speed."""

    def __init__(self):
        self.loops: list[float] = []
        self.stolen = 0.0  # seconds spent in loops run by the timer

    def run(self, seconds: float) -> float:
        """Time loops for about ``seconds``; return their mean time."""
        first = len(self.loops)
        spent = 0.0
        while not spent or spent < seconds:
            self.loops.append(ref_loop())
            spent += self.loops[-1]
        return statistics.fmean(self.loops[first:])

    def mean(self) -> float:
        return statistics.fmean(self.loops)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.loops.append(ref_loop())
        self.stolen += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Run one loop every PROBE_EVERY_S, in the middle of whatever runs.

        The loops thus sample the host evenly over the very seconds the
        operations take, also inside a sweep suite that runs for seconds;
        callers subtract ``stolen`` from their times.
        """
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def import_program():
    """Import parakat from this checkout's src/, whatever else is installed."""
    src = ROOT / "src"
    if not (src / "parakat" / "__init__.py").is_file():
        raise SystemExit(f"no parakat sources under {src}")
    sys.path.insert(0, str(src))
    os.environ.pop("PARAKAT_CAP", None)
    import parakat
    import parakat.cli

    if Path(parakat.__file__).resolve().parent != src / "parakat":
        raise SystemExit(f"imported parakat from {parakat.__file__}, not from {src}")
    return parakat.cli


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def call(cli, argv, probe) -> tuple[object, str, float]:
    """Run one CLI call; return (exit code, stdout, seconds without the probe's loops)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        stolen, t0 = probe.stolen, time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            code = f"raised {type(exc).__name__}"
        seconds = time.perf_counter() - t0 - (probe.stolen - stolen)
    return code, out.getvalue(), seconds


def run_ops(cli, ops, probe, tracer=None) -> tuple[list[tuple[object, str, float]], float]:
    """The timed section: every operation of the job, in order.

    A traced job takes no samples of the host while it runs, because its
    spans would hold the loops; it is probed after instead.
    """
    if tracer is not None:
        tracer.enable(True)
    with probe.sampling() if tracer is None else contextlib.nullcontext():
        stolen, t0 = probe.stolen, time.perf_counter()
        results = [call(cli, op.argv, probe) for op in ops]
        wall = time.perf_counter() - t0 - (probe.stolen - stolen)
    if tracer is not None:
        tracer.enable(False)
    if not probe.loops:  # traced, or shorter than PROBE_EVERY_S
        probe.run(WARM_PROBE_S)
    return results, wall


def run_job(cli, ops, scale, trace, pins, spans_path=None) -> dict:
    """Run, check and summarize one job in this process."""
    setup_done = SPAWN_CLOCK()
    setup_ref = HostProbe().run(WARM_PROBE_S)
    probe = HostProbe()
    tracer = None
    if trace:
        from tracing import Tracer  # imported only here, so that it is no part of set-up time

        tracer = Tracer()
        tracer.install()
    results, wall = run_ops(cli, ops, probe, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = workloads.Checker(pins, scale)
    records = []
    for op, (code, out, seconds) in zip(ops, results):
        try:
            ok = checker.check(op, code, out)
        except Exception as exc:  # a malformed output fails its operation
            ok = False
            code = f"{code}; check raised {type(exc).__name__}: {exc}"
        record = {"kind": op.kind, "seconds": seconds, "code": code, "ok": bool(ok)}
        if op.kind == "verify" and ok:
            (report,) = json.loads(out)
            record.update(suite=report["suite"], instances=report["instances"], suite_wall_s=report["wall_time"])
        records.append(record)

    result = {
        "setup_done": setup_done,
        "setup_ref_s": setup_ref,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "host_ref_s": probe.mean(),
        "ops": records,
        "exit_histogram": workloads.exit_histogram(ops),
    }
    if tracer is not None:
        op_seconds = sum(seconds for _, _, seconds in results)
        result["trace"] = tracer.summary(wall)
        result["trace"]["bench.self_s"] = wall - op_seconds
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--block", type=int, default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here (gzip TSV)")
    args = parser.parse_args(argv)

    cli = import_program()
    ops = workloads.build_ops(args.workload, args.seed, args.block, args.scale)
    if args.setup_only:
        result = {"setup_done": SPAWN_CLOCK(), "setup_ref_s": HostProbe().run(WARM_PROBE_S)}
    else:
        result = run_job(cli, ops, args.scale, args.trace, load_pins(), spans_path=args.spans)
    result["setup_s"] = result.pop("setup_done") - args.spawned_at
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
