"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 perfbench/selftest.py
(The file name keeps pytest's default collection from picking it up.)
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads(run.SPEC.read_text())


def quick_census(lib, seed, workdir):
    """The census workload without its dim-2 GF(5) scans (seconds each)."""
    wl = workloads.Census(lib, seed, workdir)
    wl.order = [call for call in wl.order if call[:2] != (2, 5)]
    wl.batch = wl.trace_ops = len(wl.order)
    return wl


def build(name, seed=7):
    lib = run.load_library()
    workdir = run.WORK / f"selftest-{name}"
    if name == "census":
        wl = quick_census(lib, seed, workdir)
    else:
        wl = workloads.WORKLOADS[name](lib, seed, workdir)
    wl.warm_up()
    return lib, wl


def library_bindings():
    """Every function and method bound in a mocklie namespace, by location."""
    out = {}
    for mod in tracing._mocklie_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[mod.__name__, attr] = value
                if isinstance(value, type):
                    for name, member in vars(value).items():
                        out[mod.__name__, attr, name] = member
    return out


class HarnessTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(run.WORK, ignore_errors=True)

    def test_short_runs_fail_only_on_malformed_inputs(self):
        for name, ops in (("census", None), ("checkers", 240), ("cli", 128)):
            with self.subTest(workload=name):
                _, wl = build(name)
                tally = run.measure(wl, max_ops=ops or wl.batch)
                self.assertEqual(tally.wrong, 0, tally.problems)
                failing = {kind for kind, (_, failed) in tally.ops.items() if failed}
                self.assertLessEqual(failing, {"malformed"}, tally.problems)

    def test_inverted_bimodule_verdict_counts_as_failure(self):
        lib, wl = build("checkers")
        original = lib.api.check_prejj_bimodule

        def inverted(bm, *args, **kwargs):
            report = original(bm, *args, **kwargs)
            return dataclasses.replace(report, passed=not report.passed)

        lib.api.check_prejj_bimodule = inverted
        try:
            tally = run.measure(wl, max_ops=wl.batch)
        finally:
            lib.api.check_prejj_bimodule = original
        bimodule_ops = sum(n for kind, (n, _) in tally.ops.items() if "bimodule" in kind)
        self.assertEqual(tally.failed, bimodule_ops)
        self.assertEqual(tally.wrong, bimodule_ops)

    def test_traced_and_untraced_passes_agree(self):
        for name, ops in (("census", None), ("checkers", 240), ("cli", 128)):
            with self.subTest(workload=name):
                _, wl = build(name)
                ops = ops or wl.batch
                before = library_bindings()
                plain = run.measure(wl, max_ops=ops)
                self.assertEqual(library_bindings(), before, "untraced run patched mocklie")
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = run.measure(wl, max_ops=ops, tracer=tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(library_bindings(), before, "tracer left a patch behind")
                self.assertEqual(plain.digest.hexdigest(), traced.digest.hexdigest())
                layers = tracer.layer_metrics(1.0)
                self.assertEqual(list(layers), [m["name"] for m in SPEC["per_layer"]])
                if name == "checkers":
                    self.assertEqual(layers["classify.enumerate_solutions.calls"], 0)
                    self.assertGreater(layers["reps.check_prejj_bimodule.calls"], 0)
                    self.assertGreater(layers["fields.ops"], 0)
                if name == "census":
                    self.assertGreater(layers["classify.enumerate_solutions.calls"], 0)
                    for layer, value in layers.items():
                        if layer.startswith(("reps.", "matched.")):
                            self.assertEqual(value, 0, layer)
                if name == "cli":
                    self.assertEqual(layers["cli.main.calls"], ops)

    def test_result_line_follows_the_spec(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                child = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", "checkers",
                     "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                    cwd=run.ROOT, capture_output=True, text=True, timeout=180,
                )
                self.assertEqual(child.returncode, 0, child.stderr)
                result = json.loads(child.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[key]])
                for metric in SPEC[key]:
                    self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_refuses_to_run_without_sources(self):
        bare = run.WORK / "selftest-bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        child = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "checkers",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(child.returncode, 0)
        self.assertNotIn("{", child.stdout)


if __name__ == "__main__":
    unittest.main()
