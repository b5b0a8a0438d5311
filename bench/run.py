"""resbvp benchmark: one closed-loop client driving the real CLI in-process.

    python3 bench/run.py --workload iterate-long --seed 0 --seconds 25 --trace 0

Each operation calls `resbvp.cli.main(argv)` and the next one starts only
after it returns; BLAS is pinned to one thread before numpy loads.  Every
operation's outputs are checked (see checks.py) outside the timed interval.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced operations and reports the
per-layer metrics, recorded by spans around the library's stage functions.
The last line of standard output is the JSON result.  README.md in this
directory describes the workloads and the metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references"
DEFAULT_SEED = 0
ALLOWED_EXITS = {0, 2, 3, 4, 5, 64}
SETUP_REPEATS = 5
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import resbvp.cli
from resbvp.problem_io import load_problem
for path in sys.argv[2:]:
    load_problem(path)
"""

if not (SRC / "resbvp" / "__init__.py").is_file():
    sys.exit(f"bench: no resbvp sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from resbvp import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from hostprobe import PROBE_REFERENCE_S, HostProbe  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def machine_facts() -> dict:
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Run:
    """Operations, their timings and every check outcome of one run."""

    def __init__(self, workload, inputs, references):
        self.workload = workload
        self.inputs = inputs
        self.references = references        # None: no reference comparison
        self.collected = None               # key -> trajectory, when writing references
        self.docs = {}                      # problem path -> parsed input JSON
        self.first = {}                     # output dir -> (bytes, check error) of its first run
        self.labels = []                    # input of each untraced operation, in order
        self.traced_s = []                  # seconds of each traced operation
        self.ops = 0
        self.failed = 0
        self.converged = 0
        self.errors = []                    # failed operations, first few kept
        self.character = []                 # character violations
        self.bytes_traced = 0
        self.tracer = tracing.Tracer()
        self.host = HostProbe()             # seconds of each untraced operation, in order

    # -- one operation -----------------------------------------------------

    def _invoke(self, argv, traced: bool):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                if traced:
                    with self.tracer.span("cli." + argv[0]):
                        return cli.main(argv), err.getvalue()
                return cli.main(argv), err.getvalue()
            except Exception:
                return None, traceback.format_exc()

    def operation(self, inp, traced: bool):
        """Run one operation, then check it outside the timed interval."""
        outcomes = []
        start = perf_counter()
        for step in inp.steps:
            code, err = self._invoke(step.argv(), traced)
            verifies = []
            report = step.output / "report.json"
            if step.verify and code is not None and report.is_file():
                for name in json.loads(report.read_text()).get("trajectories", {}):
                    verifies.append((name, *self._invoke(
                        ["verify", str(report), str(step.output / name)], traced)))
            outcomes.append((step, code, err, verifies))
        elapsed = perf_counter() - start
        if traced:
            self.traced_s.append(elapsed)
        else:
            self.labels.append(inp.label)
            self.host.timed.append(elapsed)
        self.ops += 1
        problems = []
        for step, code, err, verifies in outcomes:
            try:
                self._check_step(step, code, err, verifies, traced)
            except checks.CheckError as exc:
                problems.append(f"{step.problem.name}: {exc}")
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{inp.label}: " + "; ".join(problems))
        if all(code == 0 for _, code, _, _ in outcomes):
            self.converged += 1

    # -- checks --------------------------------------------------------------

    def _check_step(self, step, code, err, verifies, traced):
        if code is None:
            raise checks.CheckError("traceback:\n" + err)
        if code not in ALLOWED_EXITS:
            raise checks.CheckError(f"exit {code} outside {sorted(ALLOWED_EXITS)}: {err.strip()}")
        for name, vcode, verr in verifies:
            if vcode != 0:
                raise checks.CheckError(f"verify {name} exit {vcode}: {verr.strip()}")
        if code != self.workload.expect_exit:
            self.character.append(f"{step.problem.name} exit {code}, "
                                  f"expected {self.workload.expect_exit}")
        if not (step.output / "report.json").is_file():
            raise checks.CheckError(f"exit {code} without a report.json")
        snapshot = {p.name: p.read_bytes() for p in sorted(step.output.iterdir())}
        if traced:
            self.bytes_traced += sum(len(b) for b in snapshot.values())
        if step.output in self.first:
            first, error = self.first[step.output]
            if snapshot != first:
                raise checks.CheckError("outputs differ from the first run of this input")
            if error:
                raise checks.CheckError(error)
            return  # byte-identical to outputs already checked
        try:
            self._check_outputs(step, code, snapshot)
        except checks.CheckError as exc:
            self.first[step.output] = (snapshot, str(exc))
            raise
        self.first[step.output] = (snapshot, None)

    def _check_outputs(self, step, code, snapshot):
        report = json.loads(snapshot["report.json"])
        self._check_character(step, report)
        if code != 0:
            return
        doc = self.docs.setdefault(step.problem, json.loads(step.problem.read_text()))
        classification = report.get("solvability", {}).get("classification")
        for name, entry in report.get("trajectories", {}).items():
            z = checks.read_trajectory(step.output / name)
            checks.check_trajectory(doc, entry, z, classification)
            key = f"{step.problem.stem}/{name}"
            if self.collected is not None:
                self.collected[key] = z
            if self.references is not None:
                if key not in self.references:
                    raise checks.CheckError(f"no reference trajectory {key}")
                checks.check_reference(z, self.references[key])

    def _check_character(self, step, report):
        w = self.workload
        its = report.get("iteration", {}).get("iterations")
        if its is not None and not w.min_iterations <= its <= w.max_iterations:
            self.character.append(f"{step.problem.name}: {its} iterations, "
                                  f"outside [{w.min_iterations}, {w.max_iterations}]")
        if w.N and report["solvability"]["kernel_dim"] != w.N:
            self.character.append(f"{step.problem.name}: kernel dimension "
                                  f"{report['solvability']['kernel_dim']}, expected {w.N}")

    # -- timing ----------------------------------------------------------------

    def solve_s(self) -> float:
        """Mean over inputs of each input's mean host-scaled operation time."""
        per_input = defaultdict(list)
        for label, t in zip(self.labels, self.host.scaled()):
            per_input[label].append(t)
        return statistics.fmean(statistics.fmean(ts) for ts in per_input.values())


def measure(run: Run, seconds: float, trace: bool) -> float:
    """Closed loop over the inputs in turn; returns the loop's wall time.

    Untraced, every input runs once and then operations go on until `seconds`
    have passed, each preceded by a probe window.  Traced, the loop runs whole
    passes of an untraced and a traced operation per input, and starts another
    pass only if one more like the last still fits, so per-operation counts
    cover every input equally.
    """
    t0 = perf_counter()
    first_pass = True
    while True:
        pass_start = perf_counter()
        for inp in run.inputs:
            if trace:
                run.operation(inp, traced=False)
                with tracing.instrument(run.tracer):
                    run.operation(inp, traced=True)
                continue
            if not first_pass and perf_counter() - t0 >= seconds:
                run.host.window()
                return perf_counter() - t0
            run.host.window()
            run.operation(inp, traced=False)
        first_pass = False
        now = perf_counter()
        if trace and now - t0 + (now - pass_start) > seconds:
            return now - t0


def setup_seconds(inputs) -> float:
    """Median wall time, scaled by the host probe, of a fresh interpreter
    importing resbvp and loading the workload's problem files."""
    paths = [str(step.problem) for inp in inputs for step in inp.steps]
    host = HostProbe()
    for _ in range(SETUP_REPEATS):
        host.window()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *paths],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        host.timed.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    host.window()
    return statistics.median(host.scaled())


def tail(times: list):
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for q in (99, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(times, n=100)[q - 1]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="run one pass at the default seed and store its "
                             "trajectories as the reference copies")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    ref_path = REFERENCES / f"{workload.name}.npz"

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        inputs = write_inputs(workload, args.seed, ROOT, work)
        compare = args.seed == DEFAULT_SEED or not workload.seeded
        if args.write_references:
            return write_references(workload, args.seed, inputs, ref_path)
        references = None
        if compare:
            with np.load(ref_path) as npz:
                references = {k: npz[k] for k in npz.files}
        run = Run(workload, inputs, references)
        setup = None if args.trace else setup_seconds(inputs)
        loop_s = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = run.host.timed
    if args.trace:
        metrics = tracing.layer_metrics(run.tracer, len(run.traced_s),
                                        statistics.fmean(run.traced_s),
                                        statistics.fmean(times), run.bytes_traced)
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    else:
        metrics = {
            "solve_s": run.solve_s(),
            "solves_per_s": len(times) / sum(times),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    correct = run.failed == 0 and not run.character
    report(args, run, loop_s, metrics, units, compare)
    result = {
        "correct": correct,
        "attempted": run.ops,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def report(args, run, loop_s, metrics, units, compared):
    w = run.workload
    times = run.host.timed
    counts = {inp.label: run.labels.count(inp.label) for inp in run.inputs}
    why = next(x["why"] for x in BENCHMARK["workloads"] if x["name"] == w.name)
    print(f"workload {w.name}: {why}")
    print(f"seed {args.seed}, trace {args.trace}, {run.ops} operations in {loop_s:.1f} s "
          f"(closed loop, one client)")
    print("machine " + json.dumps(machine_facts()))
    print(f"{len(times)} untraced operations, per input "
          + ", ".join(f"{k} {v}" for k, v in counts.items()) + "; "
          f"wall seconds per operation: mean {statistics.fmean(times):.6f}, "
          f"median {statistics.median(times):.6f}"
          + (", p{} {:.6f}".format(*tail(times)) if tail(times) else ""))
    if run.host.windows:
        print(f"host probe: {run.host.unit_ms():.3f} ms per unit; solve_s = mean over inputs "
              f"of the mean of wall seconds x {PROBE_REFERENCE_S * 1e3:g} ms / probe unit "
              f"time either side")
    for name in sorted(metrics):
        unit = units.get(name, "1/s" if name == "solves_per_s" else "s")
        tag = "" if name in units else "   (printed only)"
        print(f"  {name:34s} {metrics[name]:.6g} {unit}{tag}")
    for name, value in (("converged_frac", run.converged / run.ops),
                        ("error_frac", run.failed / run.ops)):
        print(f"  {name:34s} {value:.4f} frac   (printed only)")
    rules = [f"every solver step exits {w.expect_exit}"]
    if w.N:
        rules.append(f"kernel dimension {w.N}")
    if w.min_iterations:
        rules.append(f"at least {w.min_iterations} iterations")
    if w.max_iterations < 10**9:
        rules.append(f"at most {w.max_iterations} iterations")
    print(f"character ({', '.join(rules)}): "
          + ("ok" if not run.character else "LOST: " + "; ".join(run.character[:5])))
    print("correctness: " + ("ok" if not run.failed else "FAILED: " + " | ".join(run.errors))
          + ("" if compared else " (no reference comparison away from the default seed)"))


def write_references(workload, seed, inputs, ref_path) -> int:
    if seed != DEFAULT_SEED:
        sys.exit("references are written at the default seed only")
    run = Run(workload, inputs, references=None)
    run.collected = {}
    for inp in inputs:
        run.operation(inp, traced=False)
    if run.failed or run.character:
        sys.exit(f"not writing references: {run.errors} {run.character}")
    ref_path.parent.mkdir(exist_ok=True)
    np.savez_compressed(ref_path, **run.collected)
    print(f"wrote {len(run.collected)} reference trajectories to {ref_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
