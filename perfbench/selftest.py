"""Tiny-scale self-test of the benchmark (about ten seconds).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import job  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("rtuples", "rperms", "tableaux", "polys", "verify", "cli")
END_TO_END = ("setup_s", "wall_s", "query_p50_ms", "query_p90_ms", "peak_rss_mb")
PER_LAYER = (
    *(f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s", "share")),
    "rtuples.yielded", "rtuples.enumerate_tuples.self_s", "rtuples.core.self_s",
    "rperms.yielded", "rperms.enumerate_rperms.self_s", "rperms.count_cnr.self_s",
    "tableaux.sets_built", "tableaux.set_build.self_s", "tableaux.set_build.p50_ms",
    "tableaux.set_build.p90_ms", "tableaux.tableaux_out", "tableaux.peak_set_size",
    "tableaux.is_convex.self_s", "tableaux.kept_per_ssyt", "tableaux.repeat_build_frac",
    "polys.gen_fn.self_s", "polys.demazure_poly_dd.self_s", "polys.terms_out",
    "verify.instances", *(f"verify.{suite}.wall_s" for suite in run.SUITES),
    "cli.self.p50_ms", "trace.overhead_frac", "trace.spans", "host.ref_s",
)


def bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return proc.stdout.strip().splitlines()


class EmittedMetrics(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        spec = run.load_spec()
        declared = {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}
        self.assertEqual({m["name"] for m in declared["end_to_end"]}, set(END_TO_END))
        self.assertLessEqual(set(PER_LAYER), {m["name"] for m in declared["per_layer"]})
        for workload in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = bench(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {n: v["unit"] for n, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared[kind]},
                    )
                    self.assertTrue(any(line.split()[1:] == ["failed_frac", "0", "ratio"] for line in lines))


class WrongExpectations(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = job.import_program()

    def failed_frac(self, workload, result) -> float:
        result["setup_s"] = 0.0
        return run.end_to_end(workload, [result], [])["failed_frac"]

    def test_changed_pinned_instance_count_is_a_failed_operation(self):
        pins = job.load_pins()
        pins["suite_instances"]["tiny"]["lifts"] += 1
        ops = workloads.build_ops("tuple_sweep", 1, 0, "tiny")
        result = job.run_job(self.cli, ops, "tiny", 0, pins)
        self.assertEqual([op["ok"] for op in result["ops"]], [True, True, False])
        self.assertAlmostEqual(self.failed_frac("tuple_sweep", result), 1 / 3)

    def test_wrong_expected_exit_code_is_a_failed_operation(self):
        ops = workloads.build_ops("queries", 1, 0, "tiny")
        wrong = next(op for op in ops if op.expect == 65)
        wrong.expect = 64
        result = job.run_job(self.cli, ops, "tiny", 0, job.load_pins())
        failed = [op for op in result["ops"] if not op["ok"]]
        self.assertEqual([op["code"] for op in failed], [65])
        self.assertAlmostEqual(self.failed_frac("queries", result), 1 / len(ops))


if __name__ == "__main__":
    unittest.main()
