"""Batch command-line front end.

Subcommands:
    solve-linear <file> -o <dir>          linear solvability + solution family
    solve-nonlinear <file> -o <dir>       generating root, gate, iteration
    sweep <file> --eps-min --eps-max --count -o <dir>
    fib-check --m-max <k>                 exact closed-form cross-checks
    verify <report> <trajectory>          recompute residuals from files

Exit codes: 0 success, 2 quasisolution without --allow-quasi, 3 no
generating root, 4 sufficient-condition failure, 5 iteration
non-convergence (stderr names the stop: no contraction, blowup, non-finite
iterate or max_iter), 64 usage or parse error, an overflow of the input
(the forced response, Phi(n, 0), h or B0), an SVD that does not
converge, or an input too large for memory (a MemoryError).

Every tolerance and iteration cap comes from the problem file's
``tolerances`` and ``solver`` objects (defaults in problem_io); the
command line sets none of them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import nonlinear as nl, problem_io
from .fibonacci import (
    fib_delta,
    fib_delta_exponent_offset,
    fib_green_coeffs,
    fib_green_matrix_oracle,
)
from .linalg import DecompositionError
from .linear import QUASISOLUTION, LinearBVP, SolutionFamily, residuals
from .problem_io import (MAX_DOUBLES, Problem, ProblemFormatError, canonical_json, json_text,
                         load_problem)

EXIT_OK = 0
EXIT_QUASI = 2
EXIT_NO_ROOT = 3
EXIT_SUFFICIENCY = 4
EXIT_NO_CONVERGENCE = 5
EXIT_USAGE = 64
_REFUSALS = {  # solve-nonlinear's stderr line per refusal; exit 5's is trace.why
    EXIT_QUASI: "linear part is a quasisolution; no generating family",
    EXIT_NO_ROOT: "no generating root found",
    EXIT_SUFFICIENCY: "sufficient condition fails; rerun with --force to iterate anyway",
}

def _write_new(path: Path, text: str) -> None:
    """Write every output as a new file: an old file, hard link or symlink
    of that name is unlinked, not written through (truncating a file that
    holds data stalls its close on ext4). An OSError names the path."""
    try:
        path.unlink(missing_ok=True)
        with open(path, "x", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # e.g. a directory in the way
        raise ProblemFormatError(f"{path}: cannot write the output: {exc}") from exc


def _write_table(path: Path, header, rows) -> None:
    """CSV of numeric rows in one write, every cell as %.17g (an integer
    or a bool, exact as a float, prints as an integer, NaN as nan), byte
    for byte what csv.writer writes for those strings: one %-format over
    the cells of the rows taken as one float table."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    fmt = ",".join(["%.17g"] * len(header)) + "\r\n"
    body = (fmt * len(table)) % tuple(table.ravel().tolist())
    _write_new(path, ",".join(header) + "\r\n" + body)


def _trajectory_table(z: np.ndarray) -> tuple:
    """The (header, rows) of a trajectory CSV: n, z1, ..., zN per time n."""
    header = ["n"] + [f"z{i + 1}" for i in range(z.shape[1])]
    return header, np.column_stack([np.arange(len(z)), z])


def _read_trajectory(path: Path) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # raised while csv.reader reads
        raise ProblemFormatError(f"{path}: {exc}") from exc
    if not rows or rows[0][:1] != ["n"]:
        raise ProblemFormatError(f"{path}: not a trajectory CSV (missing header)")
    try:
        return np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except ValueError as exc:  # a non-numeric cell or a ragged row
        raise ProblemFormatError(f"{path}: {exc}") from exc


# what a run may write besides report.json and canonical.json
_OUTPUT_NAME = re.compile(r"(particular|solution|trace|branch|kernel_\d{2,})\.csv")
_RESIDUALS = ("recurrence_residual", "boundary_residual")


def _finish(out: Path, doc: dict, tables: dict) -> None:
    """Write each of ``tables`` {name: (header, rows)} as out/name. Then
    remove the outputs that an earlier run left in ``out`` and this one did
    not write, so that the directory holds what its report lists (other
    names and directories are left alone). Last write report.json as strict
    JSON (a non-finite float, which has no JSON token, as null), with the
    report's trajectories, or a sweep's tables, listed under outputs."""
    for name, (header, rows) in tables.items():
        _write_table(out / name, header, rows)
    for path in out.iterdir():
        if _OUTPUT_NAME.fullmatch(path.name) and path.name not in tables and not path.is_dir():
            try:
                path.unlink()
            except OSError as exc:
                raise ProblemFormatError(f"{path}: cannot remove the stale output: {exc}") from exc
    doc["outputs"] = sorted(doc.get("trajectories", tables))
    _write_new(out / "report.json", json_text(doc) + "\n")


def _out_dir(args, problem: Problem) -> Path:
    """The -o directory, made if need be, holding canonical.json under
    --dump-canonical."""
    out = Path(args.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. -o names an existing file
        raise ProblemFormatError(f"{out}: cannot make the output directory: {exc}") from exc
    if args.dump_canonical:
        _write_new(out / "canonical.json", canonical_json(problem))
    return out


def _entries(problem: Problem, z_stack: np.ndarray, kind: str) -> list:
    """The measured residuals of each trajectory in a stack, shape
    (s, m+1, N), of one kind: what `verify` recomputes. A kernel member
    solves the homogeneous problem, a particular the forced one, and a
    solution the forced one perturbed by eps Z(z)."""
    z, eps = np.asarray(z_stack, dtype=float), problem.epsilon
    perturbation = (eps * nl._along(_nonlinearity(problem)[0], z, eps)
                    if kind == "solution" else None)
    rec, bc = residuals(problem.system, problem.boundary,
                        None if kind == "kernel" else problem.forcing, z, perturbation)
    return [{"kind": kind, "recurrence_residual": r, "boundary_residual": b}
            for r, b in zip(rec.tolist(), bc.tolist())]


def _linear_family(problem: Problem) -> SolutionFamily:
    """The solution family of a problem file's linear part, from its one
    LinearBVP, at the file's rank and classification tolerances."""
    try:
        bvp = LinearBVP(problem.system, problem.boundary, rank_tol=problem.tolerances["rank"])
    except ValueError as exc:  # the transition matrices Phi(n, 0) overflowed
        raise ProblemFormatError(f"system: {exc}") from exc
    try:
        return bvp.solve(problem.forcing, tol=problem.tolerances["classification"])
    except ValueError as exc:  # the forced response or h overflowed
        raise ProblemFormatError(f"forcing: {exc}") from exc


def _gated_members(problem: Problem, family: SolutionFamily, label: str) -> dict:
    """The residual entries of the family's members, keyed particular,
    kernel_01, kernel_02, ..., held to the residual gate: a residual that
    is non-finite or off its target by more than tolerances.residual
    (1 + max |z|), as single shooting leaves those of an expanding system,
    exits 64 naming the first such member label.format(key). The target is
    0, or the defect norm for a quasisolution particular's boundary residual."""
    K = family.kernel_basis
    keys = ["particular"] + [f"kernel_{j + 1:02d}" for j in range(len(K))]
    entries = dict(zip(keys, _entries(problem, family.particular[None], "particular")
                       + _entries(problem, K, "kernel")))
    values = np.array([[e[key] for key in _RESIDUALS] for e in entries.values()])
    targets = np.zeros_like(values)
    if family.report.classification == QUASISOLUTION:
        targets[0, 1] = family.report.defect_norm
    bound = problem.tolerances["residual"] * (
        1.0 + np.append(np.abs(family.particular).max(), np.abs(K).max(axis=(1, 2))))
    refused = ~(np.isfinite(values) & (np.abs(values - targets) <= bound[:, None]))
    if refused.any():
        j, i = np.argwhere(refused)[0]  # the first member, its recurrence residual first
        raise ProblemFormatError(
            f"{label.format(keys[j])}: {_RESIDUALS[i].replace('_', ' ')} {values[j, i]:.3e}, "
            f"expected {targets[j, i]:.3e} within tolerances.residual (1 + max |z|) = "
            f"{bound[j]:.3e}")
    return entries


# ---------------------------------------------------------------------------
# solve-linear
# ---------------------------------------------------------------------------

def cmd_solve_linear(args) -> int:
    started = time.perf_counter()
    problem = load_problem(args.problem)
    out = _out_dir(args, problem)

    family = _linear_family(problem)
    report = family.report

    entries = _gated_members(problem, family, "{}.csv")
    tables = {f"{key}.csv": _trajectory_table(z)
              for key, z in zip(entries, [family.particular, *family.kernel_basis])}
    _finish(out, {
        "command": "solve-linear",
        "problem": problem.canonical,
        "solvability": dict(vars(report)),
        "trajectories": {f"{key}.csv": entry for key, entry in entries.items()},
    }, tables)

    print(f"classification: {report.classification}  "
          f"r={report.kernel_dim} d={report.cokernel_dim} index={report.fredholm_index}")
    print(f"defect norm: {report.defect_norm:.3e}")
    print(f"outputs in {out} ({time.perf_counter() - started:.3f}s)")
    if report.classification == QUASISOLUTION and not args.allow_quasi:
        print("quasisolution: boundary condition not exactly solvable "
              "(rerun with --allow-quasi to accept)", file=sys.stderr)
        return EXIT_QUASI
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve-nonlinear
# ---------------------------------------------------------------------------

def _nonlinearity(problem: Problem):
    """The problem file's (Z, Z_du) pair."""
    if problem.nonlinearity is None:
        raise ProblemFormatError("problem has no nonlinearity; use solve-linear")
    return problem.nonlinearity


def _linear_stage(problem: Problem) -> SolutionFamily:
    """The family of the linear part, its members held to solve-linear's
    residual gate. None of it depends on eps, so a sweep runs this once for
    its whole grid. Z_du is not audited against Z: the problem file can only
    name a built-in pair, whose derivatives the tests check."""
    _nonlinearity(problem)
    family = _linear_family(problem)
    _gated_members(problem, family, "linear-stage member {}")
    return family


def _solve(problem: Problem, family: SolutionFamily, force: bool, solver: dict, eps: float,
           at_eps: float = 0.0):
    """(solution, report objects, exit code) of nl.solve at eps; all None for a quasisolution."""
    stages = {"solvability": dict(vars(family.report))}
    if family.report.classification == QUASISOLUTION:
        return nl.NonlinearSolution(None, None, None, None), stages, EXIT_QUASI
    try:
        sol = nl.solve(nl.NonlinearProblem(family, *problem.nonlinearity, eps),
                       problem.tolerances, solver, force, at_eps)
    except (OverflowError, ValueError) as exc:  # a non-finite B0, or c_init of a wrong shape
        where = "nonlinearity: " if isinstance(exc, OverflowError) else "solver."
        raise ProblemFormatError(where + str(exc)) from exc
    root, gate, trace = sol.root, sol.gate, sol.trace
    stages["generating"] = {"c0": root.c0.tolist(), "residual_norm": root.residual_norm,
                            "jacobian_rank": root.jacobian_rank, "converged": root.converged}
    if gate is None:
        return sol, stages, EXIT_NO_ROOT
    stages["sufficiency"] = {
        "holds": gate.holds, "row_rank": gate.row_rank, "required_rank": gate.required_rank,
        "product_norm": gate.product_norm,
        "null_direction": None if gate.null_direction is None else gate.null_direction.tolist(),
    }
    if trace is None:
        return sol, stages, EXIT_SUFFICIENCY
    stages["iteration"] = {"converged": trace.converged, "iterations": trace.iterations,
                           "final_record": dict(zip(trace.FIELDS, trace.records[-1]))}
    return sol, stages, EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def cmd_solve_nonlinear(args) -> int:
    started = time.perf_counter()
    problem = load_problem(args.problem)
    out = _out_dir(args, problem)

    sol, stages, code = _solve(problem, _linear_stage(problem), args.force, problem.solver,
                               problem.epsilon)

    doc = {"command": "solve-nonlinear", "problem": problem.canonical, **stages,
           "trajectories": {}}
    tables = {}
    if sol.trace is not None:  # the final record measured sol.z as _entries does
        final = stages["iteration"]["final_record"]
        doc["trajectories"]["solution.csv"] = {"kind": "solution",
                                               **{key: final[key] for key in _RESIDUALS}}
        tables = {"solution.csv": _trajectory_table(sol.z),
                  "trace.csv": (nl.IterationTrace.FIELDS, sol.trace.records)}
    _finish(out, doc, tables)

    if sol.root is not None:
        print(f"generating root |F| = {sol.root.residual_norm:.3e} "
              f"(converged={sol.root.converged})")
    if sol.gate is not None:
        print(f"sufficiency gate: rank {sol.gate.row_rank}/{sol.gate.required_rank} "
              f"({'holds' if sol.gate.holds else 'FAILS'})")
    if sol.trace is not None:
        print(f"iteration: converged={sol.trace.converged} after {sol.trace.iterations} steps")
    print(f"outputs in {out} ({time.perf_counter() - started:.3f}s)")
    if code != EXIT_OK:
        print(_REFUSALS.get(code) or f"iteration stopped: {sol.trace.why}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    started = time.perf_counter()
    problem = load_problem(args.problem)
    if args.count < 1 or not np.isfinite([args.eps_min, args.eps_max]).all():
        print("sweep: --count must be >= 1 and --eps-min, --eps-max finite", file=sys.stderr)
        return EXIT_USAGE
    if args.count > MAX_DOUBLES:  # np.linspace would refuse the grid
        print(f"sweep: --count {args.count} is more than the {MAX_DOUBLES} doubles "
              "one array holds", file=sys.stderr)
        return EXIT_USAGE
    out = _out_dir(args, problem)

    grid = np.linspace(args.eps_min, args.eps_max, args.count)
    family = _linear_stage(problem)
    rows = []
    solver = problem.solver
    for eps in grid:
        sol, _, code = _solve(problem, family, args.force, solver, float(eps), float(eps))
        c0 = [] if sol.root is None else sol.root.c0.tolist()
        if code == EXIT_OK:  # continuation: warm-start the next grid point
            solver = {**problem.solver, "c_init": c0}
        rows.append({
            "eps": float(eps),
            "exit": code,
            "root_converged": sol.root is not None and sol.root.converged,
            "F_norm": math.nan if sol.root is None else sol.root.residual_norm,
            "iter_converged": sol.trace is not None and sol.trace.converged,
            "iterations": -1 if sol.trace is None else sol.trace.iterations,
            "c0": c0,
        })

    columns = ["eps", "exit", "root_converged", "F_norm", "iter_converged", "iterations"]
    _finish(out, {
        "command": "sweep",
        "problem": problem.canonical,
        "grid": {"min": args.eps_min, "max": args.eps_max, "count": args.count},
        "points": rows,
    }, {"branch.csv": (columns + [f"c{j + 1}" for j in range(len(rows[0]["c0"]))],
                       [[row[k] for k in columns] + row["c0"] for row in rows])})
    ok = sum(1 for row in rows if row["exit"] == EXIT_OK)
    print(f"sweep: {ok}/{len(rows)} grid points converged; outputs in {out} "
          f"({time.perf_counter() - started:.3f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fib-check
# ---------------------------------------------------------------------------

def cmd_fib_check(args) -> int:
    m_max = args.m_max
    if m_max < 1:
        print("fib-check: --m-max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    offset = fib_delta_exponent_offset(m_max)
    print("determinant cross-check Delta(m) == det(A^(m+s) - I):")
    for m in range(1, m_max + 1):
        print(f"  m={m:2d}  Delta={fib_delta(m)}")
    if offset is None:
        print("no single consistent exponent offset in 0..6")
        return 1
    print(f"consistent exponent convention: Phi(m, 0) ~ A^(m+{offset})")

    names = ("a11", "a12", "a21", "a22")
    agree = [0, 0, 0, 0]
    total = 0
    for m in range(1, m_max + 1):
        for n in range(0, m + 1):
            for k in range(0, m + 1):
                printed = fib_green_coeffs(n, m, k)
                oracle = fib_green_matrix_oracle(n, m, k, offset=offset)
                total += 1
                for i in range(4):
                    agree[i] += printed[i] == oracle[i]
    print("closed-form coefficient agreement vs exact matrix oracle "
          f"({total} (n, m, k) triples):")
    for i, name in enumerate(names):
        status = "agrees" if agree[i] == total else "DISAGREES"
        print(f"  {name}: {agree[i]}/{total} {status}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_KINDS = ("particular", "kernel", "solution")


def _report_fault(doc, name: str) -> str | None:
    """Why a report cannot verify the trajectory file ``name``, or None."""
    if not isinstance(doc, dict) or "problem" not in doc:
        return "not a resbvp report (no 'problem' field)"
    trajectories = doc.get("trajectories", {})
    if not isinstance(trajectories, dict):
        return "'trajectories' is not an object"
    entry = trajectories.get(name)
    if not isinstance(entry, dict):
        return f"no entry object for '{name}'"
    if entry.get("kind") not in _KINDS:
        return f"entry for '{name}' has no kind of {', '.join(_KINDS)}"
    for key in _RESIDUALS:
        # a bool is no residual, nor an integer past the doubles; null is a non-finite one
        value = entry.get(key, "")
        if type(value) not in (int, float, type(None)) or (
                type(value) is int and abs(value) > sys.float_info.max):
            return f"entry for '{name}' has no numeric {key}"
    return None


def cmd_verify(args) -> int:
    report_path = Path(args.report)
    traj_path = Path(args.trajectory)
    try:
        doc = json.loads(report_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"verify: cannot read report {report_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    fault = _report_fault(doc, traj_path.name)
    if fault:
        print(f"verify: {report_path}: {fault}", file=sys.stderr)
        return EXIT_USAGE
    entry = doc["trajectories"][traj_path.name]

    problem = problem_io.parse_problem(doc["problem"], source=str(report_path))
    z = _read_trajectory(traj_path)
    shape = (problem.system.horizon + 1, problem.system.dim)
    if z.shape != shape:
        raise ProblemFormatError(f"{traj_path}: trajectory has shape {z.shape}, expected "
                                 f"{shape} for the report's problem")
    recomputed = _entries(problem, z[None], entry["kind"])[0]

    agree = []
    for key in _RESIDUALS:
        reported = math.nan if entry[key] is None else entry[key]
        diff = abs(recomputed[key] - reported)
        agree.append(diff <= 1e-12)  # False for a NaN too
        print(f"{key}: reported={reported:.6e} recomputed={recomputed[key]:.6e} "
              f"|diff|={diff:.3e} {'ok' if agree[-1] else 'MISMATCH'}")
    return EXIT_OK if all(agree) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dump-canonical", action="store_true",
                        help="also write the canonicalized problem file")
    iteration = argparse.ArgumentParser(add_help=False)
    iteration.add_argument("--force", action="store_true",
                           help="iterate even when the sufficient condition fails")

    parser = argparse.ArgumentParser(
        prog="resbvp",
        description="Linear and weakly nonlinear difference-system BVP solver "
                    "for the resonance case.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-linear", parents=[common],
                       help="solve the linear problem and emit the solution family")
    p.add_argument("problem")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--allow-quasi", action="store_true",
                   help="accept quasisolution classifications (exit 0)")
    p.set_defaults(func=cmd_solve_linear)

    p = sub.add_parser("solve-nonlinear", parents=[common, iteration],
                       help="generating root, sufficiency gate, and iteration")
    p.add_argument("problem")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_solve_nonlinear)

    p = sub.add_parser("sweep", parents=[common, iteration],
                       help="continuation sweep over an epsilon grid")
    p.add_argument("problem")
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fib-check",
                       help="exact integer cross-checks of the closed-form tables")
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=cmd_fib_check)

    p = sub.add_parser("verify",
                       help="recompute a report's residuals from the emitted files")
    p.add_argument("report")
    p.add_argument("trajectory")
    p.set_defaults(func=cmd_verify)
    return parser


def _join_negative_bounds(argv) -> list:
    """argv with a negative number after --eps-min or --eps-max joined to
    it, as --eps-min=-1e-3: argparse reads a token that starts with '-' as
    an option unless it is a plain decimal, so it refuses -1e-3 as a value."""
    joined = []
    for token in argv:
        if joined and joined[-1] in ("--eps-min", "--eps-max") and re.match(r"-\.?\d", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_bounds(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # overflow is expected on hostile inputs and turns into exit 3 or 5
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ProblemFormatError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an input too large for this host: a --count, a dim
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
