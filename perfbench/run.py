"""The parakat benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload tuple_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BASE_DIR CHANGE_DIR

Each job (a whole sweep, or one 200-query block of the seeded query stream)
runs in a fresh interpreter through ``parakat.cli.main(argv)`` with
``--json`` and ``PARAKAT_CAP`` unset; see job.py and workloads.py.  Jobs
repeat until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced runs of the same job and prints the per-layer
metrics.  Every run also prints a readable report, writes it to
``perfbench/out/results/`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--compare`` reads two
directories of such result files, for example the runs of a parent commit and
of a change, and gives a verdict per workload and end-to-end metric.

Every time in the end-to-end metrics is scaled to a host of fixed speed.
Each job times a fixed stdlib-only loop every 50 ms while its operations run
(see job.HostProbe), and its times are multiplied by ``REF_NOMINAL_S`` over
that loop's mean time in the job; ``setup_s`` likewise by the loop timed just
before and just after set-up.  A change to the program moves the scaled times
as it moves the raw ones, while the host's drift in speed cancels.  The raw
``wall_raw_s`` and the loop's time ``host.ref_s`` are in the readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from job import REF_NOMINAL_S, WARM_PROBE_S, HostProbe, load_pins  # noqa: E402
from tracing import LAYERS, percentile  # noqa: E402
from workloads import SWEEPS, WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # set-up-only interpreters per untraced run, beside the jobs
JOB_TIMEOUT_S = 150
SUITES = ("bijections", "counts", "lifts", "convexity", "coincidence", "polynomials", "accidental")
# Printed in the readable report only: BENCHMARK.json lists metrics that are never 0.
EXTRA_UNITS = {"failed_frac": "ratio", "query_samples": "count", "host.ref_s": "s", "wall_raw_s": "s"}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["units"] = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    spec["units"].update(EXTRA_UNITS)
    return spec


def spawn(workload, seed, block, scale, trace=0, setup_only=False, spans=None) -> dict:
    """Run job.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
           "--block", str(block), "--scale", scale, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    before = HostProbe().run(WARM_PROBE_S)
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job {workload}/{block} took over {JOB_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"job {workload}/{block} exited with code {proc.returncode}")
    job = json.loads(proc.stdout.strip().splitlines()[-1])
    job["setup_ref_s"] = (before + job["setup_ref_s"]) / 2
    return job


def host_scale(job, ref="host_ref_s") -> float:
    """The factor that takes the job's times to a host of fixed speed."""
    return REF_NOMINAL_S / job[ref]


def block_quantiles(job) -> tuple[float, float]:
    ms = sorted(op["seconds"] * 1e3 * host_scale(job) for op in job["ops"])
    return percentile(ms, 0.5), percentile(ms, 0.9)


def tally(jobs) -> tuple[int, int]:
    ops = [op for job in jobs for op in job["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def histogram_problems(workload, scale, jobs, pins) -> list[str]:
    if workload != "queries":
        return []
    pinned = pins["query_exit_histogram_per_block"][scale]
    return [f"block exit-code histogram {job['exit_histogram']} != pinned {pinned}"
            for job in jobs if job["exit_histogram"] != pinned]


def end_to_end(workload, jobs, setups) -> dict:
    """Medians over the run's jobs of their times scaled to a host of fixed speed."""
    if workload in SWEEPS["full"]:
        # every job repeats the same suites: add up each suite's median time
        wall = sum(statistics.median(job["ops"][i]["seconds"] * host_scale(job) for job in jobs)
                   for i in range(len(jobs[0]["ops"])))
    else:
        wall = statistics.median(job["wall_s"] * host_scale(job) for job in jobs)
    quantiles = [block_quantiles(job) for job in jobs]
    attempted, failed = tally(jobs)
    return {
        "setup_s": statistics.median(s["setup_s"] * host_scale(s, "setup_ref_s") for s in setups + jobs),
        "wall_s": wall,
        "wall_raw_s": statistics.median(job["wall_s"] for job in jobs),
        "query_p50_ms": statistics.median(q[0] for q in quantiles),
        "query_p90_ms": statistics.median(q[1] for q in quantiles),
        "peak_rss_mb": statistics.median(job["rss_mb"] for job in jobs),
        "failed_frac": failed / attempted,
        "query_samples": attempted,
        "host.ref_s": statistics.median(job["host_ref_s"] for job in jobs),
    }


def per_layer(plain, traced, tolerance) -> tuple[dict, list[str]]:
    """Medians over the traced jobs, plus the trace-accounting check."""
    problems = []
    for job in traced:
        t = job["trace"]
        accounted = sum(t[f"{layer}.self_s"] for layer in LAYERS) + t["bench.self_s"]
        if abs(accounted - job["wall_s"]) > tolerance * job["wall_s"]:
            problems.append(f"layer self times plus benchmark self time {accounted:.4f} s "
                            f"!= traced wall {job['wall_s']:.4f} s")
    m = {name: statistics.median(job["trace"][name] for job in traced) for name in traced[0]["trace"]}
    plain_wall = statistics.median(job["wall_s"] for job in plain)
    m["trace.overhead_frac"] = (statistics.median(job["wall_s"] for job in traced) - plain_wall) / plain_wall
    for suite in SUITES:
        walls = [op["suite_wall_s"] for job in plain for op in job["ops"] if op.get("suite") == suite]
        m[f"verify.{suite}.wall_s"] = statistics.median(walls) if walls else 0.0
    m["verify.instances"] = sum(op.get("instances", 0) for op in plain[0]["ops"])
    m["host.ref_s"] = statistics.median(job["host_ref_s"] for job in plain + traced)
    attempted, failed = tally(plain + traced)
    m["failed_frac"] = failed / attempted
    return m, problems


def measure(workload, seed, seconds, trace, scale, spec, pins) -> tuple[dict, dict, list]:
    """Run one workload; return (the closing result line, every metric, per-job timings)."""
    if not trace:
        setups = [spawn(workload, seed, 0, scale, setup_only=True) for _ in range(SETUP_PROBES)]
    started = time.monotonic()
    if not trace:
        jobs = []
        while not jobs or time.monotonic() - started < seconds:
            jobs.append(spawn(workload, seed, len(jobs), scale))
        metrics = end_to_end(workload, jobs, setups)
        names = [m["name"] for m in spec["end_to_end"]]
        problems = []
    else:
        # the same block each time, in fresh processes, so counts repeat exactly
        plain, traced = [], []
        spans = OUT / "spans" / f"{workload}-seed{seed}.tsv.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        while not traced or time.monotonic() - started < seconds:
            plain.append(spawn(workload, seed, 0, scale))
            traced.append(spawn(workload, seed, 0, scale, trace=1, spans=spans if not traced else None))
        jobs = plain + traced
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
        metrics, problems = per_layer(plain, traced, bound)
        names = [m["name"] for m in spec["per_layer"]]
    problems += histogram_problems(workload, scale, jobs, pins)
    attempted, failed = tally(jobs)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": spec["units"][n]} for n in names},
    }
    for problem in problems:
        print(f"{workload}: {problem}")
    for op in (op for job in jobs for op in job["ops"] if not op["ok"]):
        print(f"{workload}: failed {op['kind']} exit={op['code']}")
    raw = [{"wall_s": job["wall_s"], "setup_s": job["setup_s"], "host_ref_s": job["host_ref_s"],
            "setup_ref_s": job["setup_ref_s"],
            "op_s": [op["seconds"] for op in job["ops"]], "traced": "trace" in job} for job in jobs]
    return line, metrics, raw


def provenance(workload, seed, seconds, trace, scale) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "git_sha": sha, "git_dirty": dirty, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def report(workload, metrics, spec) -> None:
    for name, value in metrics.items():
        print(f"{workload}  {name:<36} {value:>14.6g} {spec['units'][name]}")


def run(args) -> int:
    spec, pins = load_spec(), load_pins()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in workloads:
        line, metrics, raw = measure(workload, args.seed, args.seconds, args.trace, args.scale, spec, pins)
        report(workload, metrics, spec)
        record = {**provenance(workload, args.seed, args.seconds, args.trace, args.scale),
                  "result": line, "all_metrics": metrics, "jobs": raw}
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        lines[workload] = line
    if len(lines) == 1:
        (line,) = lines.values()
    else:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{n}": v for w, l in lines.items() for n, v in l["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# compare mode


def load_runs(directory) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"] == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["seed"], r["time"]))
    return runs


def verdict(base, change, better, bound) -> str:
    """improved / no worse / worse / unresolved, by the rules of choosing-metrics section 8."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (med_b, med_b, med_b)
    if wins >= 0.9 * min(len(base), len(change)) and sign * (med_b - med_c) > q3 - q1:
        return "improved"
    if (q3 - q1) > bound * abs(med_b):
        return "no worse" if all(sign * (b - c) > 0 for b in base for c in change) else "unresolved"
    return "no worse" if sign * (med_c - med_b) <= bound * abs(med_b) else "worse"


def compare(dir_a, dir_b) -> int:
    """Per workload and end-to-end metric: both sides' quartiles, the ratio and a verdict.

    host.ref_s gets no verdict: its ratio says how much of a change is the
    host's speed drifting between the two sets of runs.
    """
    spec = load_spec()
    base, change = load_runs(dir_a), load_runs(dir_b)
    host = {"name": "host.ref_s", "unit": "s", "better": "lower"}
    rows = []
    for workload in sorted(set(base) & set(change)):
        for metric in [*spec["end_to_end"], host]:
            name = metric["name"]
            a, b = ([r["all_metrics"][name] for r in runs[workload]] for runs in (base, change))
            row = {"workload": workload, "metric": name, "unit": metric["unit"], "runs": [len(a), len(b)]}
            for side, values in (("base", a), ("change", b)):
                q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
                row[side] = {"q1": q[0], "median": statistics.median(values), "q3": q[2]}
            row["ratio"] = row["change"]["median"] / row["base"]["median"]
            row["verdict"] = verdict(a, b, metric["better"], metric["bound"]) if metric is not host else "host speed"
            rows.append(row)
            print(f"{workload:<14} {name:<14} base {row['base']['median']:.6g} [{row['base']['q1']:.6g}, "
                  f"{row['base']['q3']:.6g}]  change {row['change']['median']:.6g} [{row['change']['q1']:.6g}, "
                  f"{row['change']['q3']:.6g}] {metric['unit']}  ratio {row['ratio']:.4f} of base  "
                  f"{row['verdict']}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: for the self-test")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)
    os.environ.pop("PARAKAT_CAP", None)
    try:
        if args.compare:
            return compare(*args.compare)
        if not args.workload:
            parser.error("--workload or --compare is required")
        if not (ROOT / "src" / "parakat" / "__init__.py").is_file():
            raise BenchError(f"no parakat sources under {ROOT / 'src'}")
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
