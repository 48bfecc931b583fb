"""Layered benchmark for cycleint.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload theorem14-proven --seed 1 --seconds 25 --trace 0

With ``--workload all``, the default, every workload runs in a fresh process,
one after another. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference  # this directory is first on sys.path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1
# both theorem14-open operations get this budget; it is longer than the n = 7
# graph build, so (7,2) spends part of it searching
OPEN_BUDGET_S = 5.0
SETUP_SAMPLES = 4   # per pass
RUN_SECONDS = 25
CHILD_TIMEOUT_S = 170
PIPELINE_TRIALS = {(6, 1): 20, (7, 2): 10}


def import_cycleint():
    """Import cycleint from this checkout's ``src``, never from elsewhere."""
    package = SRC_DIR / "cycleint"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: cycleint sources not found at {package}")
    sys.path.insert(0, str(SRC_DIR))
    import cycleint
    import cycleint.cli
    if Path(cycleint.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cycleint from {cycleint.__file__}, "
                         f"not from {package}")
    return cycleint


# ---------------------------------------------------------------------------
# Workloads. Each makes its inputs from the seed, runs one pass over its
# operations, and checks the pass's outputs against the reference.
# ---------------------------------------------------------------------------

class Theorem14:
    """``verify_max_bound`` on fixed instances, in enumerate-all mode.

    An operation fails while its search is incomplete or any record of its
    report is ``fail``. Every incumbent family is checked with the reference;
    an operation that did not fail must also have exactly the C(n,t) point
    stabilizers as its maximum families.
    """

    def __init__(self, instances):
        self.instances = instances   # (n, t, cap, time_budget)

    def make_inputs(self, seed: int):
        # the theorem's instances are fixed; the seed changes nothing here
        return list(self.instances)

    def run_pass(self, cycleint, ops, workdir):
        search = cycleint.search
        # verify_max_bound reports no families, so keep the search result it
        # gets from max_family_search for the checks
        inner = search.max_family_search
        found = []

        def keep_result(*args, **kwargs):
            result = inner(*args, **kwargs)
            found.append(result)
            return result

        search.max_family_search = keep_result
        try:
            out = []
            for n, t, cap, budget in ops:
                try:
                    report = search.verify_max_bound(n, t, time_budget=budget, cap=cap)
                except Exception as exc:  # a crash fails the operation, not the run
                    report = exc
                out.append((n, t, report, found.pop() if found else None))
                found.clear()
            return out
        finally:
            search.max_family_search = inner

    def check(self, outputs, ref, workdir):
        failed, problems = 0, []
        for n, t, report, result in outputs:
            where = f"theorem14 ({n},{t})"
            if isinstance(report, Exception) or result is None:
                print(f"operation failed: {where}: {report!r}", file=sys.stderr)
                failed += 1
                continue
            op_failed = (not result.complete
                         or any(r.status == "fail" for r in report.records))
            failed += op_failed
            for family in result.witnesses:
                images = [p.image for p in family]
                if len(images) != result.max_size:
                    problems.append(f"{where}: witness of size {len(images)}, "
                                    f"max_size {result.max_size}")
                problems += [f"{where}: {p}" for p in
                             reference.check_intersecting_family(images, n, t)]
            if op_failed:
                continue
            if result.max_size != math.factorial(n - t):
                problems.append(f"{where}: max_size {result.max_size}, "
                                f"expected {math.factorial(n - t)}")
            problems += [f"{where}: {p}" for p in reference.check_stabilizer_witnesses(
                [[p.image for p in w] for w in result.witnesses], n, t)]
        return failed, problems


class SuitesCli:
    """In-process ``cli.main`` over the verification suites, the extremal
    comparison and the search command, with JSON written to a temporary
    directory. An operation fails when it exits non-zero or its report has
    ``passed: false``."""

    def make_inputs(self, seed: int):
        s = str(seed)
        p61, p72 = str(PIPELINE_TRIALS[6, 1]), str(PIPELINE_TRIALS[7, 2])
        return [
            ("all", ["verify", "--suite", "all", "--n-max", "5", "--seed", s]),
            ("pipeline-6-1", ["verify", "--suite", "pipeline", "--n", "6", "--t", "1",
                              "--trials", p61, "--seed", s]),
            ("pipeline-7-2", ["verify", "--suite", "pipeline", "--n", "7", "--t", "2",
                              "--trials", p72, "--seed", s]),
            ("counterexample", ["verify", "--suite", "counterexample",
                                "--n", "7", "--t", "4"]),
            ("surgery", ["verify", "--suite", "surgery"]),
            ("extremal", ["extremal", "--n", "7", "--t", "3", "--families", "F0,F1,F2"]),
            ("search-6-1", ["search", "--n", "6", "--t", "1"]),
            ("search-6-2", ["search", "--n", "6", "--t", "2", "--enumerate-all",
                            "--canonical-witnesses",
                            "--export-graph", "{dir}/search-6-2.edges"]),
        ]

    def run_pass(self, cycleint, commands, workdir):
        main = cycleint.cli.main
        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for name, argv in commands:
                argv = [a.replace("{dir}", str(workdir)) for a in argv]
                try:
                    codes[name] = main(argv + ["--out", str(workdir / f"{name}.json")])
                except Exception as exc:  # a crash fails the operation, not the run
                    codes[name] = repr(exc)
        return codes

    def check(self, codes, ref, workdir):
        out = {}
        for name, code in codes.items():
            path = workdir / f"{name}.json"
            report = json.loads(path.read_text()) if path.is_file() else None
            if code == 0 and report is not None and report.get("passed", True):
                out[name] = report
            else:
                print(f"operation failed: {name} exited {code}", file=sys.stderr)
        problems = []
        for name, check in (("extremal", self._extremal), ("counterexample", self._counterexample),
                            ("search-6-1", self._search), ("search-6-2", self._search)):
            if name in out:
                problems += [f"{name}: {p}" for p in check(name, out[name], ref, workdir)]
        return len(codes) - len(out), problems

    @staticmethod
    def _extremal(name, got, ref, workdir):
        want = {f"F{i}": ref.window_count(7, 3, i) for i in (0, 1, 2)}
        if got["sizes"] != want:
            return [f"sizes {got['sizes']} at (7,3), reference {want}"]
        return []

    @staticmethod
    def _counterexample(name, got, ref, workdir):
        sizes = got["stats"]["sizes"]
        want = {"F0": math.factorial(7 - 4), "F1": ref.window_count(7, 4, 1)}
        if sizes != want or not sizes["F1"] > sizes["F0"]:
            return [f"sizes {sizes} at (7,4), reference {want}; expected F1 > F0"]
        return []

    @staticmethod
    def _search(name, got, ref, workdir):
        n, t = got["n"], got["t"]
        problems = []
        if not got["complete"] or got["max_size"] != math.factorial(n - t):
            problems.append(f"complete={got['complete']}, max_size {got['max_size']}")
        if "conjugacy_representatives" in got:
            problems += reference.check_stabilizer_witnesses(got["witnesses"], n, t)
            if len(got["conjugacy_representatives"]) != 1:
                problems.append(f"{len(got['conjugacy_representatives'])} conjugacy "
                                "representatives, expected 1")
            lines = (workdir / f"{name}.edges").read_text().splitlines()
            problems += reference.check_edge_list(lines, n, t, ref.edges(n, t))
        return problems


WORKLOADS = {
    "theorem14-proven": Theorem14([(7, 3, 7, None), (6, 1, None, None),
                                   (6, 2, None, None)]),
    "theorem14-open": Theorem14([(7, 2, None, OPEN_BUDGET_S),
                                 (7, 1, None, OPEN_BUDGET_S)]),
    "suites-cli": SuitesCli(),
}


class Reference:
    """Reference answers that are costly to compute, made once per run."""

    def __init__(self):
        self._counts: dict = {}
        self._edges: dict = {}

    def window_count(self, n, t, i):
        if (n, t, i) not in self._counts:
            self._counts[n, t, i] = reference.window_family_count(n, t, i)
        return self._counts[n, t, i]

    def edges(self, n, t):
        if (n, t) not in self._edges:
            self._edges[n, t] = reference.intersection_edges(n, t)
        return self._edges[n, t]


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """Import cycleint and make the workload's inputs; returns both and the
    seconds taken."""
    start = time.perf_counter()
    cycleint = import_cycleint()
    inputs = WORKLOADS[workload].make_inputs(seed)
    return cycleint, inputs, time.perf_counter() - start


def setup_in_child(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, which imports cycleint anew."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


class Run:
    """Passes over one workload, with their times and check outcomes."""

    def __init__(self, workload: str, cycleint, inputs):
        self.workload = WORKLOADS[workload]
        self.cycleint = cycleint
        self.inputs = inputs
        self.ref = Reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self) -> tuple[float, float]:
        """Run and check one pass; returns its wall and CPU seconds."""
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            workdir = Path(tmp)
            wall, cpu = time.perf_counter(), time.process_time()
            outputs = self.workload.run_pass(self.cycleint, self.inputs, workdir)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            failed, problems = self.workload.check(outputs, self.ref, workdir)
        self.attempted += len(self.inputs)
        self.failed += failed
        self.problems += problems
        return wall, cpu

    def result(self, metrics: dict) -> dict:
        for problem in self.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float) -> dict:
    cycleint, inputs, _ = set_up(workload, seed)
    run = Run(workload, cycleint, inputs)
    walls, cpus, setups = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        # set-up samples are spread over the run, so a slow spell of the
        # machine does not take them all
        setups += [setup_in_child(workload, seed) for _ in range(SETUP_SAMPLES)]
        wall, cpu = run.one_pass()
        walls.append(wall)
        cpus.append(cpu)
    print(f"{workload}: {len(walls)} passes, wall {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run.result({
        "setup_s": metric(statistics.median(setups), "s"),
        "verify_s": metric(statistics.median(walls), "s"),
        "verify_cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(peak, "MB"),
    })


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced and traced passes in turn, then the layer probes."""
    import layers
    import tracer

    cycleint, inputs, _ = set_up(workload, seed)
    run = Run(workload, cycleint, inputs)
    modules = [cycleint] + [getattr(cycleint, m) for m in (
        "perm", "intersect", "transform", "gensets", "extremal", "search",
        "report", "cli")]
    spans = tracer.Tracer(modules)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run.one_pass()[0])
        with spans:
            traced.append(run.one_pass()[0])
    per_layer, problems = layers.probe(cycleint, seed, OUT_DIR)
    run.problems += problems
    overhead = statistics.median(traced) - statistics.median(plain)
    path = OUT_DIR / f"trace-{workload}.json"
    spans.dump(path, {"workload": workload, "seed": seed, "traced_passes": len(traced),
                      "verify_s_untraced": plain, "verify_s_traced": traced})
    print(f"{workload}: spans written to {path}; layer self time per traced pass "
          + json.dumps({k: round(v / len(traced), 4)
                        for k, v in spans.self_times().items()}), file=sys.stderr)
    per_layer["trace.overhead_s"] = metric(overhead, "s")
    per_layer["trace.spans"] = metric(len(spans) // len(traced), "count")
    return run.result(per_layer)


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S * 3)
        if child.returncode != 0:
            raise SystemExit(f"error: workload {workload} exited {child.returncode}")
        result = json.loads(child.stdout.splitlines()[-1])
        print(f"{workload}: " + json.dumps(result))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        result = {"setup_s": set_up(args.workload, args.seed)[2]}
    elif args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
