"""Benchmark of the mocklie toolkit: census, checker and CLI workloads.

Run from the root of a mocklie checkout (stdlib only, one process, no
threads, no worker pool):

    python3 perfbench/run.py --workload checkers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures whole batches for up to ``--seconds``
seconds (at least one batch) and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it runs the workload's fixed traced op count twice, first
untraced and then with spans and counters installed around mocklie's public
functions, and reports the per-layer metrics; the spans are written to
``.perfbench_out/``.  ``--workload all`` runs every workload in its own
child process, one after the other.

Every op's output is checked outside the timed region.  An op *fails* when
it raises or its output is not what its input was built to give; ``correct``
is false when some op returned a wrong answer (a raise is a failure, not a
wrong answer) or when the traced and untraced passes disagree.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_tmp"
TRACE_OUT = ROOT / ".perfbench_out"

# Set-up (import, input generation, warm-up) is repeated and its median
# reported, so that work moved into set-up shows despite the noise of a
# single import.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 180
MAX_PROBLEMS_SHOWN = 5


def load_library():
    """Import mocklie afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "mocklie" or n.startswith("mocklie.")]:
        del sys.modules[name]
    api = importlib.import_module("mocklie")
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mocklie was imported from {api.__file__}, not from {SRC}")
    return SimpleNamespace(
        api=api,
        cli=importlib.import_module("mocklie.cli"),
        formats=importlib.import_module("mocklie.formats"),
        catalog=importlib.import_module("mocklie.catalog"),
    )


class Tally:
    """Latencies, failures and the output digest of one measured pass."""

    def __init__(self):
        self.latencies = []
        self.batch_walls = []
        self.failed = 0
        self.wrong = 0
        self.ops = {}        # op kind -> [attempted, failed]
        self.problems = []
        self.digest = hashlib.sha256()

    @property
    def attempted(self):
        return len(self.latencies)

    def record(self, op, elapsed, problem, fingerprint, wrong):
        self.latencies.append(elapsed)
        counts = self.ops.setdefault(op.kind, [0, 0])
        counts[0] += 1
        if problem is not None:
            counts[1] += 1
            self.failed += 1
            self.wrong += wrong
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.append(f"op {self.attempted - 1} ({op.kind}): {problem}")
        self.digest.update(f"{op.kind}\n{fingerprint}\n".encode())


def measure(workload, seconds=None, max_ops=None, tracer=None):
    """Run whole batches of the workload's stream until ``max_ops`` ops ran,
    or while another batch like the last one fits in ``seconds`` (at least
    one batch); only ``op.run`` is timed."""
    tally = Tally()
    stream = workload.stream()
    deadline = None if seconds is None else perf_counter() + seconds
    while True:
        batch_start = perf_counter()
        ops = list(itertools.islice(stream, workload.batch))
        workload.before_batch()
        busy = 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin_op(tally.attempted)
            start = perf_counter()
            try:
                result = op.run()
            except Exception as exc:
                elapsed = perf_counter() - start
                raised = exc
            else:
                elapsed = perf_counter() - start
                raised = None
            if tracer is not None:
                tracer.end_op()
            busy += elapsed
            if raised is not None:
                name = type(raised).__name__
                tally.record(op, elapsed, f"raised {name}: {raised}", f"raised {name}", False)
                continue
            try:
                problem, fingerprint = op.verify(result)
            except Exception as exc:
                problem, fingerprint = f"output check raised {exc!r}", repr(result)
            tally.record(op, elapsed, problem, fingerprint, True)
        tally.batch_walls.append(busy)
        if max_ops is not None and tally.attempted >= max_ops:
            return tally
        now = perf_counter()
        if deadline is not None and now + (now - batch_start) > deadline:
            return tally


def set_up(workload_cls, seed, workdir):
    """Import, generate inputs and warm up, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload = workload_cls(load_library(), seed, workdir)
        workload.warm_up()
        times.append(perf_counter() - start)
    return workload, times


def git_commit():
    git = ROOT / ".git"
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


def percentile_rank(n, q):
    """1-based nearest rank of the q-quantile of n samples."""
    return max(1, math.ceil(q * n))


def end_to_end(tally, setup_times):
    lat = sorted(tally.latencies)
    n = len(lat)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(tally.batch_walls),
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": lat[percentile_rank(n, 0.99) - 1] * 1e3,
        "ok_ratio": (n - tally.failed) / n,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(name, seed, seconds, trace, spec):
    workload_cls = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    meta = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }
    try:
        if trace:
            workload = workload_cls(load_library(), seed, workdir)
            workload.warm_up()
            gc.collect()
            gc.freeze()
            plain = measure(workload, max_ops=workload.trace_ops)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tally = measure(workload, max_ops=workload.trace_ops, tracer=tracer)
            finally:
                tracer.uninstall()
            overhead = sum(tally.latencies) / sum(plain.latencies)
            metrics = tracer.layer_metrics(overhead)
            spans_file = TRACE_OUT / f"spans-{name}-seed{seed}.json"
            tracer.write_spans(spans_file)
            meta["digest_untraced"] = plain.digest.hexdigest()
            meta["spans"] = len(tracer.spans)
            meta["spans_file"] = str(spans_file.relative_to(ROOT))
            agree = meta["digest_untraced"] == tally.digest.hexdigest()
            correct = agree and plain.wrong == 0 and tally.wrong == 0
            wanted = spec["per_layer"]
        else:
            workload, setup_times = set_up(workload_cls, seed, workdir)
            gc.collect()
            gc.freeze()
            tally = measure(workload, seconds=seconds)
            metrics = end_to_end(tally, setup_times)
            meta["setup_runs_s"] = setup_times
            n = tally.attempted
            meta["samples"] = {
                "op_p50_ms": n,
                "op_p99_ms": n,
                "beyond_p99": n - percentile_rank(n, 0.99),
                "wall_s_batches": len(tally.batch_walls),
                "ops_per_batch": workload.batch,
            }
            correct = tally.wrong == 0
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    meta["digest"] = tally.digest.hexdigest()
    meta["ops"] = tally.ops
    meta["fail_ratio"] = tally.failed / tally.attempted
    meta["problems"] = tally.problems

    units = {m["name"]: m["unit"] for m in wanted}
    print(f"perfbench {name} seed={seed} trace={trace}: {tally.attempted} ops, "
          f"{tally.failed} failed (fail_ratio {meta['fail_ratio']:.4f})")
    for metric, unit in units.items():
        print(f"  {metric:<42} {metrics[metric]:>16.6f} {unit}")
    for problem in tally.problems:
        print(f"  failure: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec):
    """Each workload in a child process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mocklie" / "__init__.py").is_file():
        print(f"perfbench: no mocklie sources at {SRC}; run from a mocklie checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
