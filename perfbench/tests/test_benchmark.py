"""Self-tests of the benchmark at tiny scale (two benchmarks, a few
thousand accesses each):

    python3 -m unittest discover -s perfbench/tests -v

They build `ltsim` and `perfbench` as any run does, record tiny-scale
reference digests under the build directory, and check that every
workload's timed and traced runs complete and verify their outputs, that
worker deaths are retried without failing an output, and that one
flipped byte in an artifact counts as an output mismatch.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SELFTEST = run.target_dir() / "perfbench-selftest"


def bench(*argv):
    """Runs run.py and returns its last line, parsed."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *argv], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference(workload):
    return SELFTEST / f"{workload}.json"


class TinyScale(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SELFTEST, ignore_errors=True)
        for workload in run.WORKLOADS:
            subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                            "--scale", "tiny", "--record", "--reference", str(reference(workload))],
                           cwd=run.ROOT, check=True, capture_output=True, timeout=900)

    def tiny(self, workload, *extra):
        return bench("--workload", workload, "--seed", "1", "--seconds", "1", "--scale", "tiny",
                     "--reference", str(reference(workload)), *extra)

    def test_timed_runs_verify_their_outputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                doc = self.tiny(workload, "--trace", "0")
                self.assertTrue(doc["correct"])
                self.assertEqual(doc["failed"], 0)
                self.assertGreater(doc["attempted"], 0)
                self.assertEqual(set(doc["metrics"]), {name for name, _ in run.E2E})
                for name, metric in doc["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_report_every_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                doc = self.tiny(workload, "--trace", "1")
                self.assertTrue(doc["correct"])
                self.assertEqual(set(doc["metrics"]), {row[0] for row in run.LAYERS})
                self.assertGreater(doc["metrics"]["traced.sum_s"]["value"], 0)

    def test_worker_deaths_are_retried_without_failures(self):
        doc = self.tiny("stream-seg", "--trace", "1", "--fault-inject", "exit-after:2")
        self.assertTrue(doc["correct"])
        self.assertEqual(doc["failed"], 0)
        self.assertGreater(doc["metrics"]["engine.retries"]["value"], 0)

    def test_a_flipped_byte_is_an_output_mismatch(self):
        tools = run.build(run.target_dir())
        work = SELFTEST / "flip"
        cold = run.cold_run(tools, work, "coverage", 1, "tiny", 2)
        digests = run.load_reference(reference("coverage"), "tiny", 1)
        run.judge(cold, digests)
        self.assertEqual((cold["failed"], cold["mismatches"]), (0, 0))
        artifact = cold["out"] / f"{cold['doc']['outputs'][0]}.json"
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 1
        artifact.write_bytes(bytes(data))
        run.judge(cold, digests)
        self.assertEqual(cold["mismatches"], 1)
        shutil.rmtree(work)


if __name__ == "__main__":
    unittest.main()
