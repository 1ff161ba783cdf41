"""Checks that BENCHMARK.json, the benchmark's metric catalog, its README and
its output agree, and that the benchmark refuses to run without the caya
sources. Run through `python3 perfbench/run.py --self-test`, which builds the
binaries first.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"
WORKLOADS = ["rates_table2", "sweep_impaired", "evolve_china_http", "serve_drift"]


def catalog():
    out = subprocess.run([str(BINARY), "--list-metrics"], check=True,
                         capture_output=True, text=True).stdout
    rows = [line.split("\t") for line in out.splitlines()]
    return [(name, unit, kind) for name, unit, kind, _ in rows]


def run(workload, trace):
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class CatalogTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_benchmark_json_matches_catalog(self):
        rows = catalog()
        e2e = [(n, u) for n, u, kind in rows if kind == "end_to_end"]
        layer = [(n, u) for n, u, kind in rows if kind == "per_layer"]
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]], e2e)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]], layer)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], WORKLOADS)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_readme_documents_every_metric_and_workload(self):
        readme = (BENCH_DIR / "README.md").read_text()
        for name, _, _ in catalog():
            self.assertIn(f"`{name}`", readme)
        for workload in WORKLOADS:
            self.assertIn(f"`{workload}`", readme)


class OutputTest(unittest.TestCase):
    def check_output(self, workload, trace):
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        kind = "per_layer" if trace else "end_to_end"
        want = {n: u for n, u, k in catalog() if k == kind}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)
        return result["metrics"]

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_output(workload, 0)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        metrics = self.check_output("serve_drift", 1)
        for name in ("eval.reset_us", "censor.china.http.ns_per_pkt",
                     "serve.chunk_ms_p50", "tcpstack.bare_exchange_us"):
            self.assertGreater(metrics[name]["value"], 0, name)


class IsolationTest(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, pathlib.Path(tmp) / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rates_table2",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
