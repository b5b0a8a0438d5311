import csv
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from resbvp import cli, linalg, linear, problem_io
from resbvp import nonlinear as nl
from resbvp.linear import LinearBVP

from conftest import (GOLDEN_DIR, PROBLEMS_DIR, SHIPPED, bench_workloads, block_rotation_doc,
                      load_problem_doc)


def run(argv):
    return cli.main([str(a) for a in argv])


def problem(name) -> str:
    return str(PROBLEMS_DIR / name)


class TestSolveLinear:
    def test_resonant_family_exit_zero(self, tmp_path, capsys):
        code = run(["solve-linear", problem("identity_resonant.json"), "-o", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "classification: family" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["solvability"]["classification"] == "family"
        assert doc["solvability"]["kernel_dim"] == 2
        assert (tmp_path / "particular.csv").exists()
        assert (tmp_path / "kernel_01.csv").exists()
        assert (tmp_path / "kernel_02.csv").exists()

    def test_classical_fibonacci(self, tmp_path, capsys):
        code = run(["solve-linear", problem("fibonacci_periodic.json"), "-o", tmp_path])
        assert code == 0
        assert "unique_classical" in capsys.readouterr().out

    def test_quasisolution_exit_two(self, tmp_path, capsys):
        code = run(["solve-linear", problem("quasisolution_multipoint.json"),
                    "-o", tmp_path])
        assert code == 2
        assert "quasisolution" in capsys.readouterr().err

    def test_allow_quasi_downgrades_to_zero(self, tmp_path):
        code = run(["solve-linear", problem("quasisolution_multipoint.json"),
                    "-o", tmp_path, "--allow-quasi"])
        assert code == 0

    def test_fibonacci_long_horizon_exits_with_a_documented_code(self, tmp_path, capsys):
        # Phi(n, 0) overflows from n = 1476 on; single shooting cannot solve it
        path = tmp_path / "fibonacci_1500.json"
        path.write_text(json.dumps({"dim": 2, "horizon": 1500,
                                    "system": {"type": "fibonacci"},
                                    "forcing": "zero", "boundary": {"type": "periodic"}}))
        code = run(["solve-linear", path, "-o", tmp_path / "out"])
        assert code == 64
        assert "transition matrices Phi(n, 0) overflow from n = 1476" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["solve-nonlinear"],
                                     ["sweep", "--eps-min", "0", "--eps-max", "1e-3",
                                      "--count", "2"]])
    def test_fibonacci_long_horizon_in_the_nonlinear_pipeline(self, tmp_path, capsys, cmd):
        path = tmp_path / "fibonacci_lv_1500.json"
        path.write_text(json.dumps({
            "dim": 2, "horizon": 1500, "system": {"type": "fibonacci"},
            "forcing": "zero", "boundary": {"type": "periodic"},
            "nonlinearity": {"type": "lotka_volterra", "g1": 1.0, "g2": 1.0,
                             "a": 1.0, "b": 1.0},
            "epsilon": 1e-3}))
        code = run(cmd[:1] + [path] + cmd[1:] + ["-o", tmp_path / "out"])
        assert code == 64
        assert "system: the transition matrices Phi(n, 0) overflow" in capsys.readouterr().err

    def test_emitted_residuals_are_small(self, tmp_path):
        run(["solve-linear", problem("rotation_lv.json"), "-o", tmp_path])
        doc = json.loads((tmp_path / "report.json").read_text())
        for entry in doc["trajectories"].values():
            assert entry["recurrence_residual"] <= 1e-10
            assert entry["boundary_residual"] <= 1e-10

    @pytest.mark.parametrize("case", ["identity_resonant.json", "rotation_lv.json",
                                      "newton-wide-f0", "iterate-long-f0", "near-identity"])
    def test_kernel_entries_equal_trajectory_entry(self, tmp_path, case):
        # the stacked pass over the kernel members, bit for bit what verify
        # recomputes from a stack of one; on near-identity a stacked boundary
        # norm rounds differently
        if case.endswith(".json"):
            path = Path(problem(case))
        else:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(GENERATED[case]()))
        assert run(["solve-linear", path, "-o", tmp_path / "out"]) == 0
        entries = json.loads((tmp_path / "out" / "report.json").read_text())["trajectories"]
        prob = cli.load_problem(path)
        family = cli._linear_family(prob)
        assert family.kernel_dim > 0
        for j, z in enumerate(family.kernel_basis):
            assert entries[f"kernel_{j + 1:02d}.csv"] == cli._entries(prob, z[None], "kernel")[0]


def near_identity_doc() -> dict:
    """A periodic problem with four kernel members, one of whose boundary
    norms a stacked np.linalg.norm(..., axis=-1) rounds otherwise than a 1-D one."""
    A = np.eye(4) + 1e-9 * np.random.default_rng(1).standard_normal((5, 4, 4))
    return {"dim": 4, "horizon": 5, "system": {"type": "explicit", "matrices": A.tolist()},
            "forcing": "zero", "boundary": {"type": "periodic"}, "tolerances": {"rank": 1e-6}}


GENERATED = {"newton-wide-f0": lambda: block_rotation_doc(24, 32, 1e-4, 0),
             "iterate-long-f0": lambda: block_rotation_doc(600, 2, 1e-4, 0),
             "near-identity": near_identity_doc}


def fibonacci_periodic_file(tmp_path, m, eighths=False, nonlinear=False) -> Path:
    """The Fibonacci companion with a periodic boundary at horizon m, forced
    by zero or, with ``eighths``, by acceptance criterion 4's multiples of
    1/8 in [-1, 1] drawn from seed 400 + m; with ``nonlinear``, perturbed
    by the Lotka-Volterra nonlinearity at eps = 1e-3."""
    forcing = "zero"
    if eighths:
        forcing = (np.random.default_rng(400 + m).integers(-8, 9, (m, 2)) / 8).tolist()
    doc = {"dim": 2, "horizon": m, "system": {"type": "fibonacci"},
           "forcing": forcing, "boundary": {"type": "periodic"}}
    if nonlinear:
        doc.update(nonlinearity={"type": "lotka_volterra", "g1": 1.0, "g2": 1.0,
                                 "a": 1.0, "b": 1.0}, epsilon=1e-3)
    path = tmp_path / f"fibonacci_{m}.json"
    path.write_text(json.dumps(doc))
    return path


# the benchmark's generated inputs, by name: ((m, N, eps, base forcing), exit code)
WORKLOAD_INPUTS = {f"{w.name}-f{base}": ((w.m, w.N, w.eps, base), w.expect_exit)
                   for w in bench_workloads.WORKLOADS.values() if w.seeded
                   for base in w.base_seeds}

NONLINEAR_COMMANDS = [["solve-nonlinear"],
                      ["sweep", "--eps-min", "0", "--eps-max", "1e-3", "--count", "2"]]


class TestResidualGate:
    """solve-linear refuses a trajectory that single shooting got wrong."""

    @pytest.mark.parametrize("m,eighths,name,residual", [
        (40, True, "particular.csv", r"boundary residual \d"),
        (60, False, "kernel_01.csv", r"recurrence residual \d"),
        (300, False, "kernel_01.csv", r"recurrence residual \d\.\d+e\+4\d"),
        (1000, False, "kernel_01.csv", r"recurrence residual (inf|nan)"),  # non-finite
    ], ids=["m40", "m60", "m300", "m1000"])
    def test_inaccurate_trajectory_is_refused(self, tmp_path, capsys, m, eighths, name,
                                              residual):
        out = tmp_path / "out"
        assert run(["solve-linear", fibonacci_periodic_file(tmp_path, m, eighths),
                    "-o", out]) == 64
        err = capsys.readouterr().err
        assert re.search(f"^error: {name}: {residual}", err), err
        assert "tolerances.residual (1 + max |z|)" in err
        assert list(out.iterdir()) == []  # nothing is written

    @pytest.mark.parametrize("eighths", [False, True])
    def test_horizon_20_is_within_tolerance(self, tmp_path, eighths):
        # its particular is off by about 1e-10, inside 1e-8 (1 + max |z|)
        assert run(["solve-linear", fibonacci_periodic_file(tmp_path, 20, eighths),
                    "-o", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("name", [name for name, _ in SHIPPED])
    def test_shipped_problems_pass(self, tmp_path, name):
        code = run(["solve-linear", problem(name), "-o", tmp_path])
        assert code == (2 if name == "quasisolution_multipoint.json" else 0)
        for entry in json.loads((tmp_path / "report.json").read_text())["trajectories"].values():
            assert entry["recurrence_residual"] <= 1e-12

    @pytest.mark.parametrize("cmd", NONLINEAR_COMMANDS, ids=["solve-nonlinear", "sweep"])
    def test_nonlinear_commands_gate_their_linear_stage(self, tmp_path, capsys, cmd):
        # horizon-60 Fibonacci gets a spurious kernel member (r = d = 1) whose
        # recurrence residual is 6.1e-05; Newton and the gate would build on it
        out = tmp_path / "out"
        path = fibonacci_periodic_file(tmp_path, 60, nonlinear=True)
        assert run(cmd[:1] + [path] + cmd[1:] + ["-o", out]) == 64
        err = capsys.readouterr().err
        assert re.search(r"^error: linear-stage member kernel_01: recurrence residual "
                         r"6\.\d+e-05, expected 0\.000e\+00 within", err), err
        assert list(out.iterdir()) == []

    def test_linear_stage_holds_kernel_members_to_the_boundary(self, tmp_path, monkeypatch):
        # z(n) = 2^n solves z(n+1) = 2 z(n) exactly but misses the periodic
        # boundary by z(3) - z(0) = 7
        path = tmp_path / "doubling.json"
        path.write_text(json.dumps({
            "dim": 1, "horizon": 3, "system": {"type": "constant", "matrix": [[2.0]]},
            "forcing": "zero", "boundary": {"type": "periodic"},
            "nonlinearity": {"type": "polynomial", "coeffs": [0.0, 0.0, 1.0]}}))
        prob = cli.load_problem(path)
        family = cli._linear_family(prob)
        bad = dataclasses.replace(family, kernel_basis=np.array([[[1.0], [2.0], [4.0], [8.0]]]))
        monkeypatch.setattr(cli, "_linear_family", lambda problem: bad)
        with pytest.raises(cli.ProblemFormatError,
                           match="^linear-stage member kernel_01: boundary residual 7.000e"):
            cli._linear_stage(prob)

    @pytest.mark.parametrize("cmd", NONLINEAR_COMMANDS, ids=["solve-nonlinear", "sweep"])
    def test_overflowing_defect_exits_64(self, tmp_path, capsys, cmd):
        # h is finite at m = 1000 but D^T h overflows; this was a `family`
        # whose Newton stage exited 3 with |F| = nan
        path = fibonacci_periodic_file(tmp_path, 1000, eighths=True, nonlinear=True)
        assert run(cmd[:1] + [path] + cmd[1:] + ["-o", tmp_path / "out"]) == 64
        assert "defect ||D^T h|| of the right-hand side is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name,cmd", SHIPPED, ids=[name for name, _ in SHIPPED])
    def test_shipped_commands_keep_their_exit_codes(self, tmp_path, name, cmd):
        assert run(cmd[:1] + [problem(name)] + cmd[1:] + ["-o", tmp_path]) == 0

    @pytest.mark.parametrize("case,code", WORKLOAD_INPUTS.values(), ids=WORKLOAD_INPUTS)
    def test_workload_inputs_keep_their_exit_codes(self, tmp_path, case, code):
        assert solve_block_rotation(tmp_path, case)[0] == code

    def test_quasisolution_particular_is_held_to_the_defect_norm(self, monkeypatch):
        prob = cli.load_problem(problem("quasisolution_multipoint.json"))
        family = cli._linear_family(prob)
        entry = cli._gated_members(prob, family, "{}.csv")["particular"]
        defect = family.report.defect_norm
        assert abs(entry["boundary_residual"] - defect) <= 1e-15 and defect > 0.7
        entries = cli._entries

        def shifted(problem, z_stack, kind):
            found = entries(problem, z_stack, kind)
            if kind == "particular":
                found[0]["boundary_residual"] = defect + 1e-6
            return found

        monkeypatch.setattr(cli, "_entries", shifted)
        with pytest.raises(cli.ProblemFormatError,
                           match="^particular.csv: boundary residual .* expected 7.071e-01 within"):
            cli._gated_members(prob, family, "{}.csv")


def count_gate_calls(monkeypatch) -> dict:
    """Count the calls of the four stages nl.solve chains, each patched as an
    attribute of resbvp.nonlinear, as bench/tracing.py patches them to
    measure each layer: nl.solve must call them by their module names."""
    calls = {}
    for name in ("solve_generating", "assemble_B0", "check_sufficient", "iterate"):
        def counting(*args, _fn=getattr(nl, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nl, name, counting)
    return calls


def record_rank_decisions(monkeypatch) -> list:
    """Shapes of the matrices numerical_rank decides, in call order, from
    every module that names it."""
    shapes = []
    original = linalg.numerical_rank

    def recording(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return original(M, *args, **kwargs)

    for module in (linalg, linear, nl):
        monkeypatch.setattr(module, "numerical_rank", recording)
    return shapes


def capture_results(monkeypatch, name) -> list:
    """(args, result) of every call of nl.<name>."""
    seen = []

    def capturing(*args, _fn=getattr(nl, name), **kwargs):
        result = _fn(*args, **kwargs)
        seen.append((args, result))
        return result

    monkeypatch.setattr(nl, name, capturing)
    return seen


def overflowing_scalar_problem(tmp_path) -> Path:
    """sweep_scalar.json (Z = z^2) at eps = 1e-3 seeded where Z overflows."""
    doc = load_problem_doc("sweep_scalar.json")
    doc["epsilon"] = 1e-3
    doc["solver"] = {"c_init": [1e160]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return path


class TestSolveNonlinear:
    def test_benchmark_exit_zero(self, tmp_path, capsys):
        code = run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["sufficiency"]["holds"]
        assert doc["iteration"]["converged"]
        assert (tmp_path / "solution.csv").exists()
        assert (tmp_path / "trace.csv").exists()
        sol = doc["trajectories"]["solution.csv"]
        assert sol["recurrence_residual"] <= 1e-8
        assert sol["boundary_residual"] <= 1e-8

    def test_sufficiency_failure_exit_four(self, tmp_path, capsys):
        code = run(["solve-nonlinear", problem("gate_refusal.json"), "-o", tmp_path])
        assert code == 4
        assert "FAILS" in capsys.readouterr().out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert not doc["sufficiency"]["holds"]
        assert "iteration" not in doc

    def test_force_overrides_gate(self, tmp_path):
        code = run(["solve-nonlinear", problem("gate_refusal.json"), "-o", tmp_path,
                    "--force"])
        assert code in (0, 5)  # gate bypassed; iteration runs either way
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "iteration" in doc

    def test_one_B0_and_one_gate_per_solve(self, tmp_path, monkeypatch):
        calls = count_gate_calls(monkeypatch)
        assert run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path]) == 0
        assert calls == {"solve_generating": 1, "assemble_B0": 1, "check_sufficient": 1,
                         "iterate": 1}

    def test_one_rank_decision_per_matrix(self, tmp_path, monkeypatch):
        # Q once, each Newton Jacobian once, B0 once: the gate's decision
        # also gives the B0^+ that iterate uses
        shapes = record_rank_decisions(monkeypatch)
        roots = capture_results(monkeypatch, "solve_generating")
        assert run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path]) == 0
        [(_, root)] = roots
        assert root.converged and root.iterations >= 1
        assert shapes == [(2, 2)] * (root.iterations + 2)

    @pytest.mark.parametrize("name, flags", [("rotation_lv.json", []),
                                             ("gate_refusal.json", ["--force"])])
    def test_iterate_takes_the_gates_pseudoinverse(self, tmp_path, monkeypatch, name, flags):
        gates = capture_results(monkeypatch, "check_sufficient")
        iterations = capture_results(monkeypatch, "iterate")
        run(["solve-nonlinear", problem(name), "-o", tmp_path, *flags])
        [(_, gate)] = gates
        [(args, _)] = iterations
        assert args[2] is gate.B0_pinv

    def test_overflowing_newton_has_no_root(self, tmp_path, capsys):
        path = overflowing_scalar_problem(tmp_path)
        assert run(["solve-nonlinear", path, "-o", tmp_path / "out"]) == 3
        assert "no generating root" in capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not doc["generating"]["converged"]
        assert "sufficiency" not in doc

    def test_c_init_of_wrong_length_is_usage_error(self, tmp_path, capsys):
        # the kernel dimension is 2: one value is too few, and a nested pair
        # of the right size has the wrong shape
        for i, c_init in enumerate([[0.5], [[0.5, 0.5]]]):
            doc = load_problem_doc("rotation_lv.json")
            doc.setdefault("solver", {})["c_init"] = c_init
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(doc))
            assert run(["solve-nonlinear", path, "-o", tmp_path / f"out{i}"]) == 64
            err = capsys.readouterr().err
            assert "solver.c_init" in err and f"got shape {np.shape(c_init)}" in err

    def test_linear_only_problem_is_usage_error(self, tmp_path, capsys):
        code = run(["solve-nonlinear", problem("identity_resonant.json"),
                    "-o", tmp_path])
        assert code == 64
        assert "no nonlinearity" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["solve-nonlinear"],
                                     ["sweep", "--eps-min", "0", "--eps-max", "1e-3",
                                      "--count", "3"]], ids=["solve-nonlinear", "sweep"])
    def test_quasisolution_has_no_generating_family(self, tmp_path, capsys, cmd):
        # a quasisolution's linear part has no family to perturb: solve-nonlinear
        # exits 2 and writes its report alone; a sweep records exit 2 at each point
        doc = load_problem_doc("quasisolution_multipoint.json")
        doc.update(nonlinearity={"type": "polynomial", "coeffs": [0, 0, 1]}, epsilon=1e-3)
        path = tmp_path / "quasi.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = run(cmd[:1] + [path] + cmd[1:] + ["-o", out])
        report = json.loads((out / "report.json").read_text())
        if cmd[0] == "solve-nonlinear":
            assert code == 2
            assert ("linear part is a quasisolution; no generating family"
                    in capsys.readouterr().err)
            assert "solvability" in report and "generating" not in report
            assert report["outputs"] == [] and [p.name for p in out.iterdir()] == ["report.json"]
        else:
            assert code == 0
            assert [point["exit"] for point in report["points"]] == [2, 2, 2]
            header, *rows = (out / "branch.csv").read_text().splitlines()
            assert header == "eps,exit,root_converged,F_norm,iter_converged,iterations"
            assert [row.split(",")[1] for row in rows] == ["2", "2", "2"]

    def test_residual_tolerance_is_read(self, tmp_path, capsys):
        # The file's residual tolerance gates convergence. The linear members'
        # residuals (at most 8.1e-16) meet 2e-15 (1 + max |z|); the iteration's
        # boundary residual stalls near 2e-14 and cannot.
        doc = load_problem_doc("rotation_lv.json")
        doc.setdefault("tolerances", {})["residual"] = 2e-15
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(doc))
        assert run(["solve-nonlinear", path, "-o", tmp_path / "out"]) == 5
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not report["iteration"]["converged"]
        assert report["iteration"]["iterations"] < 200  # stopped before max_iter
        # none meets 1e-300: the linear stage refuses first
        doc["tolerances"]["residual"] = 1e-300
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["solve-nonlinear", path, "-o", tmp_path / "out"]) == 64
        assert "error: linear-stage member particular: " in capsys.readouterr().err


def _no_kernel_problem(tmp_path, coeffs) -> Path:
    """N = 1 identity system with a generic boundary sampling z(0) and
    z(m): Q = [[1], [1]] is unique_classical with r = 0 < d = 1."""
    doc = {"dim": 1, "horizon": 3, "system": {"type": "identity"},
           "boundary": {"type": "generic", "target": [1.0, 1.0],
                        "samples": [{"point": 0, "weights": [[1.0], [0.0]]},
                                    {"point": 3, "weights": [[0.0], [1.0]]}]},
           "nonlinearity": {"type": "polynomial", "coeffs": coeffs},
           "epsilon": 1e-3}
    path = tmp_path / "no_kernel.json"
    path.write_text(json.dumps(doc))
    return path


def solve_block_rotation(tmp_path, case, **solver):
    """(exit code, report) of solve-nonlinear on the block rotation
    (m, N, eps, base forcing) with extra solver settings."""
    doc = block_rotation_doc(*case)
    doc["solver"].update(solver)
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(doc))
    code = run(["solve-nonlinear", path, "-o", tmp_path / "out"])
    return code, json.loads((tmp_path / "out" / "report.json").read_text())


class TestStopTestMatchesAudit:
    """The iteration's stop test and a report's audit measure a solution
    by one function: the last trace record's residuals are those that
    cli._entries recomputes from solution.csv, bit for bit, whether the
    iteration converged or not, and the report's solution.csv entry is
    that record's."""

    @staticmethod
    def assert_agree(out):
        report = json.loads((out / "report.json").read_text())
        final = report["iteration"]["final_record"]
        z = cli._read_trajectory(out / "solution.csv")  # %.17g gives back every bit
        audit = cli._entries(problem_io.parse_problem(report["problem"]), z[None], "solution")[0]
        assert [final[key] for key in cli._RESIDUALS] == [audit[key] for key in cli._RESIDUALS]
        assert report["trajectories"]["solution.csv"] == audit

    @pytest.mark.parametrize("name,flags", [("rotation_lv.json", []),
                                            ("gate_refusal.json", ["--force"])])
    def test_shipped_solutions(self, tmp_path, name, flags):
        assert run(["solve-nonlinear", problem(name), *flags, "-o", tmp_path]) == 0
        self.assert_agree(tmp_path)
        self.assert_agree(GOLDEN_DIR / name[:-5])

    def test_unconverged_solution(self, tmp_path):
        code, report = solve_block_rotation(tmp_path, (600, 2, 1e-3, 0))
        assert code == 5 and not report["iteration"]["converged"]
        self.assert_agree(tmp_path / "out")


class TestNoContraction:
    @staticmethod
    def assert_library_words_the_stop(tmp_path, err):
        """What stderr says after "iteration stopped: " is the trace.why that
        nonlinear.solve gives a library caller on the same file."""
        doc = problem_io.load_problem(tmp_path / "rotation.json")
        family = LinearBVP(doc.system, doc.boundary, rank_tol=doc.tolerances["rank"]).solve(
            doc.forcing, tol=doc.tolerances["classification"])
        sol = nl.solve(nl.NonlinearProblem(family, *doc.nonlinearity, doc.epsilon),
                       doc.tolerances, doc.solver)
        assert err.partition("iteration stopped: ")[2] == sol.trace.why + "\n"

    @pytest.mark.parametrize("base", [0, 3])
    def test_stalled_inputs_stop_early(self, tmp_path, capsys, base):
        # the two inputs that stall (f0, 200 rounds) or blow up (f3, 52 rounds)
        # at m = 600, eps = 1e-3 without the rule
        code, report = solve_block_rotation(tmp_path, (600, 2, 1e-3, base))
        assert code == 5
        assert report["iteration"]["iterations"] < 25
        err = capsys.readouterr().err
        assert "iteration stopped: no contraction over 20 rounds" in err
        self.assert_library_words_the_stop(tmp_path, err)

    @pytest.mark.parametrize("case,rounds", [
        ((120, 8, 1e-3, 4), 193),
        ((60, 8, 1e-2, 0), 161),
        ((300, 8, 1e-4, 0), 159),
    ])
    def test_slow_converging_runs_are_not_stopped(self, tmp_path, case, rounds):
        code, report = solve_block_rotation(tmp_path, case)
        assert code == 0
        assert report["iteration"]["converged"]
        assert report["iteration"]["iterations"] == rounds

    @pytest.mark.parametrize("cap", [1, 20])
    def test_rule_never_fires_within_the_window(self, tmp_path, capsys, cap):
        code, report = solve_block_rotation(tmp_path, (600, 2, 1e-3, 0), max_iter=cap)
        assert code == 5
        assert report["iteration"]["iterations"] == cap
        err = capsys.readouterr().err
        assert f"max_iter {cap} rounds reached" in err
        self.assert_library_words_the_stop(tmp_path, err)

    def test_blowup_is_named(self, tmp_path, capsys):
        code, report = solve_block_rotation(tmp_path, (600, 2, 1e-3, 3), blowup=1.0)
        assert code == 5
        err = capsys.readouterr().err
        assert "exceeds blowup 1" in err
        self.assert_library_words_the_stop(tmp_path, err)


def strict_json(text: str):
    """json.loads refusing the non-standard tokens NaN, Infinity, -Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestOverflowingInputs:
    """Overflow ends in an exit code and strict JSON, not in numpy warnings
    or the Infinity / NaN tokens."""

    def run_quietly(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        assert "Warning" not in capsys.readouterr().err
        return code

    def test_solve_nonlinear(self, tmp_path, capsys):
        path = overflowing_scalar_problem(tmp_path)
        assert self.run_quietly(["solve-nonlinear", path, "-o", tmp_path / "out"],
                                capsys) == 3
        doc = strict_json((tmp_path / "out" / "report.json").read_text())
        assert doc["generating"]["residual_norm"] is None

    @pytest.mark.parametrize("cmd", NONLINEAR_COMMANDS, ids=["solve-nonlinear", "sweep"])
    def test_overflowing_B0_is_usage_error(self, tmp_path, capsys, cmd):
        # the root is c0 = 0, but Z_du = 1e307 I at z = 0 overflows the
        # forced responses that B0 is built from
        path = tmp_path / "huge_gain.json"
        path.write_text(json.dumps({
            "dim": 2, "horizon": 100, "system": {"type": "rotation", "theta": 2 * np.pi / 100},
            "forcing": "zero", "boundary": {"type": "periodic"},
            "nonlinearity": {"type": "lotka_volterra", "g1": 1e307, "g2": 1e307,
                             "a": 1.0, "b": 1.0}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(cmd[:1] + [path] + cmd[1:] + ["-o", tmp_path / "out"])
        err = capsys.readouterr().err
        assert code == 64
        assert re.search(r"^error: .*B0 .*overflow", err, re.M) and "Warning" not in err, err

    def test_sweep(self, tmp_path, capsys):
        assert self.run_quietly(["sweep", problem("sweep_scalar.json"), "--eps-min", "1e308",
                                 "--eps-max", "1e308", "--count", "1", "-o", tmp_path],
                                capsys) == 0
        [point] = strict_json((tmp_path / "report.json").read_text())["points"]
        assert point["F_norm"] is None

    def test_huge_coefficient_finds_no_root(self, tmp_path, capsys):
        # Z = 1e200 z^2 once failed the derivative audit (exit 64, "relative
        # error nan"); like 1e150, it finds no generating root
        doc = load_problem_doc("sweep_scalar.json")
        doc["nonlinearity"]["coeffs"] = [0.0, 0.0, 1e200]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert self.run_quietly(["solve-nonlinear", path, "-o", tmp_path / "out"],
                                capsys) == 3

    @pytest.mark.parametrize("cmd", NONLINEAR_COMMANDS, ids=["solve-nonlinear", "sweep"])
    @pytest.mark.parametrize("name, nonlinearity, exits", [
        ("rotation_lv.json", {"g1": 1e308, "g2": 1e308}, (3, 3)),
        ("rotation_lv.json", {"a": 1e308, "b": 1e308}, (0, 5)),
        ("sweep_scalar.json", {"coeffs": [1e308, 1e308]}, (3, 3)),
    ], ids=["lv_gains", "lv_tables", "polynomial"])
    def test_overflowing_nonlinearity_finds_no_root(self, tmp_path, capsys, cmd, name,
                                                    nonlinearity, exits):
        # exits: the sweep's at eps = 0 and 1e-3. Z overflows at every probe,
        # as g1 = 1e307 does on rotation_lv.json: no generating root, not a
        # derivative mismatch (the run-time audit once refused these with exit
        # 64, "Z_du disagrees ... nan"). Tables of 1e308 leave F finite, with
        # terms near 4e304 whose 2-norm overflows: Newton finds the root c0 =
        # (-0.00198, 0.226) (a 50-digit solve agrees to 1.2e-14), and at eps =
        # 1e-3 the iteration blows up in round 1
        doc = load_problem_doc(name)
        doc["nonlinearity"].update(nonlinearity)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code = run(cmd[:1] + [path] + cmd[1:] + ["-o", tmp_path / "out"])
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Z_du" not in err, err
        report = strict_json((tmp_path / "out" / "report.json").read_text())
        if cmd[0] == "sweep":  # the sweep exits 0 and records each point's exit
            assert code == 0
            assert [(pt["exit"], pt["root_converged"]) for pt in report["points"]] \
                == [(e, e != 3) for e in exits]
        else:  # at the file's epsilon: no root, or rotation_lv's 1e-3
            assert code == exits[-1], err
            assert report["generating"]["converged"] == (code != 3)
            assert ("no generating root found" if code == 3 else "exceeds blowup") in err, err

    @pytest.mark.parametrize("cmd", [
        ["solve-linear"],
        ["solve-nonlinear"],
        ["sweep", "--eps-min", "0", "--eps-max", "1e-3", "--count", "2"],
    ])
    def test_overflowing_forcing_is_usage_error(self, tmp_path, capsys, cmd):
        # 1e308 summed over identity steps overflows the forced response;
        # its NaN defect once passed as a family with a particular.csv of nan
        doc = load_problem_doc("sweep_scalar.json")
        doc["forcing"] = [[1e308]] * doc["horizon"]
        path = tmp_path / "huge_forcing.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(cmd[:1] + [path] + cmd[1:] + ["-o", tmp_path / "out"])
        err = capsys.readouterr().err
        assert code == 64
        assert "overflow" in err and "Warning" not in err

    def test_non_finite_floats_become_null(self, tmp_path):
        cli._finish(tmp_path, {"a": [float("inf"), (float("nan"), 1.0)], "b": -float("inf")}, {})
        assert strict_json((tmp_path / "report.json").read_text()) == {
            "a": [None, [None, 1.0]], "b": None, "outputs": []}


# where an oversized number goes in a problem document, by the field it names
HUGE_INT_FIELDS = {
    "epsilon": ("epsilon",),
    "dim": ("dim",),
    "tolerances.rank": ("tolerances", "rank"),
    "solver.max_iter": ("solver", "max_iter"),
    "system.theta": ("system", "theta"),
    "solver.c_init": ("solver", "c_init", 0),
    "forcing": ("forcing", 0, 0),
}
COMMANDS = [["solve-linear"], ["solve-nonlinear"],
            ["sweep", "--eps-min", "0", "--eps-max", "1e-3", "--count", "2"]]


def put(doc: dict, keys: tuple, value) -> None:
    for key in keys[:-1]:
        doc = doc.setdefault(key, {}) if isinstance(doc, dict) else doc[key]
    doc[keys[-1]] = value


class TestOversizedNumbers:
    """A JSON integer past the largest double, or a size numpy cannot shape,
    exits 64 naming its field; each once ended in a traceback."""

    @staticmethod
    def solve(tmp_path, cmd, doc) -> int:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        return run(cmd[:1] + [path] + cmd[1:] + ["-o", tmp_path / "out"])

    @staticmethod
    def verify_with(tmp_path, field, value) -> int:
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        report = tmp_path / "report.json"
        doc = json.loads(report.read_text())
        put(doc["problem"], HUGE_INT_FIELDS.get(field, (field,)), value)
        report.write_text(json.dumps(doc))
        return run(["verify", report, tmp_path / "solution.csv"])

    @pytest.mark.parametrize("cmd", COMMANDS, ids=lambda cmd: cmd[0])
    @pytest.mark.parametrize("field", HUGE_INT_FIELDS)
    def test_integer_past_the_doubles(self, tmp_path, capsys, field, cmd):
        doc = load_problem_doc("rotation_lv.json")
        put(doc, HUGE_INT_FIELDS[field], 10**400)
        assert self.solve(tmp_path, cmd, doc) == 64
        assert f"error: {field}: int too large" in capsys.readouterr().err

    @pytest.mark.parametrize("field", HUGE_INT_FIELDS)
    def test_integer_past_the_doubles_in_a_report(self, tmp_path, capsys, field):
        assert self.verify_with(tmp_path, field, 10**400) == 64
        assert f"error: {field}: int too large" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", COMMANDS + [["verify"]], ids=lambda cmd: cmd[0])
    @pytest.mark.parametrize("field", ["dim", "horizon"])
    def test_size_numpy_cannot_shape(self, tmp_path, capsys, field, cmd):
        # 10**20 is past any shape numpy makes: nothing is allocated, even unchecked
        if cmd == ["verify"]:
            code = self.verify_with(tmp_path, field, 10**20)
        else:
            doc = load_problem_doc("rotation_lv.json")
            doc[field] = 10**20
            code = self.solve(tmp_path, cmd, doc)
        assert code == 64
        assert f"{field} 100000000000000000000" in capsys.readouterr().err

    @pytest.mark.parametrize("name,cmd,stage", [
        ("identity_resonant.json", ["solve-linear"], (cli, "_linear_family")),
        ("sweep_scalar.json",
         ["sweep", "--eps-min", "0", "--eps-max", "1e-3", "--count", str(10**11)],
         (np, "linspace")),
    ], ids=["dim", "count"])
    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch, name, cmd, stage):
        # a size under the doubles limit can still be past the host's memory;
        # the allocation is faked, since a real one may succeed and exhaust the host
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(*stage, allocate)
        assert run(cmd[:1] + [problem(name)] + cmd[1:] + ["-o", tmp_path]) == 64
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"

    def test_count_numpy_cannot_shape(self, tmp_path, capsys):
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "0", "--eps-max", "1",
                    "--count", str(10**20), "-o", tmp_path])
        assert code == 64
        assert "--count 100000000000000000000" in capsys.readouterr().err


class TestNoKernelDirections:
    def test_nonzero_F_has_no_root(self, tmp_path):
        path = _no_kernel_problem(tmp_path, [1.0, 0.0, 1.0])  # Z = 1 + z^2
        assert run(["solve-nonlinear", path, "-o", tmp_path / "out"]) == 3
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["solvability"]["kernel_dim"] == 0
        assert doc["solvability"]["cokernel_dim"] == 1
        gen = doc["generating"]
        assert gen["c0"] == [] and gen["residual_norm"] > 1.0 and not gen["converged"]

    def test_zero_F_fails_the_gate(self, tmp_path):
        path = _no_kernel_problem(tmp_path, [0.0])
        assert run(["solve-nonlinear", path, "-o", tmp_path / "out"]) == 4
        suff = json.loads((tmp_path / "out" / "report.json").read_text())["sufficiency"]
        assert suff["row_rank"] == 0 and suff["required_rank"] == 1
        assert suff["null_direction"] == [1.0]

    def test_forced_past_the_gate(self, tmp_path):
        path = _no_kernel_problem(tmp_path, [0.0])
        code = run(["solve-nonlinear", path, "-o", tmp_path / "out", "--force"])
        assert code == 0
        assert run(["verify", tmp_path / "out" / "report.json",
                    tmp_path / "out" / "solution.csv"]) == 0


class TestSweep:
    def test_scalar_branch(self, tmp_path):
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min=-4e-4",
                    "--eps-max", "1e-3", "--count", "8", "-o", tmp_path])
        assert code == 0
        rows = (tmp_path / "branch.csv").read_text().strip().splitlines()
        assert rows[0].startswith("eps,exit,root_converged,F_norm")
        doc = json.loads((tmp_path / "report.json").read_text())
        for pt in doc["points"]:
            if pt["eps"] < 0:
                assert pt["exit"] == 3  # no real root of c^2 = eps
            elif pt["eps"] > 1e-6:
                assert pt["exit"] == 0
                assert abs(abs(pt["c0"][0]) - np.sqrt(pt["eps"])) <= 1e-6

    def test_one_linear_bvp_per_run(self, tmp_path, monkeypatch):
        built = []
        init = LinearBVP.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinearBVP, "__init__", counting_init)
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "0",
                    "--eps-max", "1e-3", "--count", "6", "-o", tmp_path])
        assert code == 0
        assert len(json.loads((tmp_path / "report.json").read_text())["points"]) == 6
        assert len(built) == 1

    def test_one_linear_solve_and_no_audit_per_run(self, tmp_path, monkeypatch):
        # the file names a built-in pair, whose derivative the tests audit,
        # so the CLI does not audit it at run time
        solves, audits = [], []
        solve, audit = LinearBVP.solve, nl.verify_derivative

        def counting_solve(self, *args, **kwargs):
            solves.append(1)
            return solve(self, *args, **kwargs)

        def counting_audit(*args, **kwargs):
            audits.append(1)
            return audit(*args, **kwargs)

        monkeypatch.setattr(LinearBVP, "solve", counting_solve)
        monkeypatch.setattr(nl, "verify_derivative", counting_audit)
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "0",
                    "--eps-max", "1e-3", "--count", "6", "-o", tmp_path])
        assert code == 0
        assert len(json.loads((tmp_path / "report.json").read_text())["points"]) == 6
        assert len(solves) == 1 and len(audits) == 0

    def test_one_B0_and_one_gate_per_grid_point(self, tmp_path, monkeypatch):
        calls = count_gate_calls(monkeypatch)
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "0",
                    "--eps-max", "1e-3", "--count", "6", "-o", tmp_path])
        assert code == 0
        points = json.loads((tmp_path / "report.json").read_text())["points"]
        assert [pt["root_converged"] for pt in points] == [True] * 6
        assert calls == {"solve_generating": 6, "assemble_B0": 6, "check_sufficient": 6,
                         "iterate": 6}

    def test_one_forcing_to_boundary_map_per_run(self, tmp_path, monkeypatch):
        built = []
        build = LinearBVP.psi.func

        def counting_build(self):
            built.append(1)
            return build(self)

        psi = functools.cached_property(counting_build)
        psi.__set_name__(LinearBVP, "psi")
        monkeypatch.setattr(LinearBVP, "psi", psi)
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "0",
                    "--eps-max", "1e-3", "--count", "6", "-o", tmp_path])
        assert code == 0
        assert len(json.loads((tmp_path / "report.json").read_text())["points"]) == 6
        assert len(built) == 1

    def test_overflowing_point_has_no_root(self, tmp_path):
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "1e308",
                    "--eps-max", "1e308", "--count", "1", "-o", tmp_path])
        assert code == 0
        [point] = json.loads((tmp_path / "report.json").read_text())["points"]
        assert point["exit"] == 3 and not point["root_converged"]
        assert (tmp_path / "branch.csv").read_text().splitlines()[1].startswith("1e+308,3,0,")

    def test_bad_count_is_usage_error(self, tmp_path, capsys):
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "0",
                    "--eps-max", "1", "--count", "0", "-o", tmp_path])
        assert code == 64

    @pytest.mark.parametrize("bound", [["--eps-min", "nan", "--eps-max", "1e-3"],
                                       ["--eps-min", "0", "--eps-max", "inf"]])
    def test_non_finite_eps_is_usage_error(self, tmp_path, capsys, bound):
        code = run(["sweep", problem("sweep_scalar.json"), *bound, "--count", "3",
                    "-o", tmp_path])
        assert code == 64
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [["--eps-min", "-1e-3", "--eps-max", "-2E-4"],
                                        ["--eps-max", "-2e-4", "--eps-min", "-.1e-2"]])
    def test_negative_bound_with_an_exponent(self, tmp_path, capsys, bounds):
        # argparse alone reads -1e-3 as an option, not as the value of --eps-min
        joined = ["--eps-min=-1e-3", "--eps-max=-2e-4"]
        outputs = []
        for argv in (bounds, joined):
            out = tmp_path / str(len(outputs))
            assert run(["sweep", problem("sweep_scalar.json"), *argv, "--count", "3",
                        "-o", out]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert [pt["eps"] for pt in json.loads(outputs[0]["report.json"])["points"]] \
            == np.linspace(-1e-3, -2e-4, 3).tolist()
        assert "Traceback" not in capsys.readouterr().err

    def test_bound_without_a_value_is_usage_error(self, tmp_path, capsys):
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "--eps-max", "1e-3",
                    "--count", "3", "-o", tmp_path])
        assert code == 64
        assert "--eps-min: expected one argument" in capsys.readouterr().err


def csv_writer_reference(path, header, rows):
    """Reference: the csv.writer form the CSV outputs were first written in."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[0]] + ["%.17g" % float(v) for v in row[1:]])


SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300, 5e-324,
           1.7976931348623157e308, 0.1, -2.5, 1 / 3, 123456789.0]


class TestCsvWriters:
    def test_trajectory_bytes_match_csv_writer(self, tmp_path):
        z = np.array(SPECIAL).reshape(4, 3)
        cli._finish(tmp_path, {}, {"particular.csv": cli._trajectory_table(z)})
        csv_writer_reference(tmp_path / "ref.csv", ["n", "z1", "z2", "z3"],
                             [[n, *z[n]] for n in range(4)])
        assert (tmp_path / "particular.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("N", [1, 32])
    @pytest.mark.parametrize("rows", [2, 601])
    def test_one_format_table_matches_csv_writer(self, tmp_path, N, rows):
        # SPECIAL's values spread among normal draws; a table of fewer cells takes them in turns
        rng = np.random.default_rng([N, rows])
        for start in range(0, len(SPECIAL), rows * N):
            z = rng.standard_normal((rows, N))
            values = SPECIAL[start:start + z.size]
            z.ravel()[::max(1, z.size // len(SPECIAL))][:len(values)] = values
            cli._write_table(tmp_path / "new.csv", *cli._trajectory_table(z))
            csv_writer_reference(tmp_path / "ref.csv", ["n"] + [f"z{i + 1}" for i in range(N)],
                                 [[n, *z[n]] for n in range(rows)])
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_trace_bytes_match_csv_writer(self, tmp_path):
        records = [(k, *SPECIAL[k:k + 5]) for k in range(7)]
        cli._write_table(tmp_path / "new.csv", nl.IterationTrace.FIELDS, records)
        csv_writer_reference(tmp_path / "ref.csv", nl.IterationTrace.FIELDS, records)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_branch_bytes_match_csv_writer(self, tmp_path):
        # branch.csv rows: eps, exit, root_converged, F_norm, iter_converged,
        # iterations, c...; the integers and flags were written as str(int)
        header = ["eps", "exit", "root_converged", "F_norm", "iter_converged", "iterations",
                  "c1", "c2"]
        rows = [[SPECIAL[k], code, flag, SPECIAL[k + 1], not flag, its, SPECIAL[k + 2],
                 float("nan")]
                for k, (code, flag, its) in enumerate([(0, True, 9), (3, False, -1),
                                                       (5, True, 200), (64, False, 0)])]
        cli._write_table(tmp_path / "new.csv", header, rows)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for eps, code, flag, F, it_flag, its, *c in rows:
                writer.writerow(["%.17g" % eps, code, int(flag), "%.17g" % F, int(it_flag), its]
                                + ["%.17g" % v for v in c])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_importing_the_cli_leaves_fractions_unloaded():
    # fractions serves only the exact Fibonacci oracle, imported where it is used
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, resbvp.cli; sys.exit('fractions' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_solving_leaves_numpy_random_unloaded(tmp_path):
    # a run draws no random numbers, so it does not load numpy.random
    # (about 5.5 MB of peak RSS; the run-time derivative audit loaded it)
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, resbvp.cli; resbvp.cli.main(sys.argv[1:]); "
            "sys.exit('numpy.random' in sys.modules)")
    argv = ["solve-nonlinear", problem("rotation_lv.json"), "-o", str(tmp_path)]
    assert subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          stdout=subprocess.DEVNULL).returncode == 0


class TestFibCheck:
    def test_reports_convention_and_census(self, capsys):
        code = run(["fib-check", "--m-max", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "A^(m+2)" in out
        assert "a11: 284/284 agrees" in out
        assert "a12: 284/284 agrees" in out
        assert "a21: 44/284 DISAGREES" in out
        assert "a22: 4/284 DISAGREES" in out


class TestVerify:
    @pytest.mark.parametrize("name,cmd", SHIPPED, ids=[name for name, _ in SHIPPED])
    def test_every_shipped_trajectory_verifies_exactly(self, tmp_path, capsys, name, cmd):
        # the particular, kernel and solution kinds, a quasisolution's
        # particular among them: verify recomputes what the run reported
        run(cmd[:1] + [problem(name)] + cmd[1:] + ["-o", tmp_path])
        report = json.loads((tmp_path / "report.json").read_text())
        names = sorted(p.name for p in tmp_path.glob("*.csv")
                       if p.name not in ("trace.csv", "branch.csv"))
        assert names == sorted(report.get("trajectories", {}))
        for csv_name in names:
            capsys.readouterr()
            assert run(["verify", tmp_path / "report.json", tmp_path / csv_name]) == 0
            out = capsys.readouterr().out.splitlines()
            assert [line.split()[0] for line in out] == ["recurrence_residual:",
                                                        "boundary_residual:"], out
            assert all("|diff|=0.000e+00 ok" in line for line in out), out

    def test_recomputation_matches(self, tmp_path, capsys):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        code = run(["verify", tmp_path / "report.json", tmp_path / "solution.csv"])
        assert code == 0
        assert "MISMATCH" not in capsys.readouterr().out

    def test_solution_builds_no_linear_bvp(self, tmp_path, monkeypatch):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        built = []
        init = LinearBVP.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinearBVP, "__init__", counting_init)
        assert run(["verify", tmp_path / "report.json", tmp_path / "solution.csv"]) == 0
        assert built == []

    def test_tampered_trajectory_is_flagged(self, tmp_path, capsys):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        path = tmp_path / "solution.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 0.5)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = run(["verify", tmp_path / "report.json", path])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_unknown_trajectory_name(self, tmp_path, capsys):
        run(["solve-linear", problem("identity_resonant.json"), "-o", tmp_path])
        code = run(["verify", tmp_path / "report.json", tmp_path / "nonexistent.csv"])
        assert code == 64

    def test_report_without_problem_is_usage_error(self, tmp_path, capsys):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        report = tmp_path / "report.json"
        doc = json.loads(report.read_text())
        del doc["problem"]
        report.write_text(json.dumps(doc))
        code = run(["verify", report, tmp_path / "solution.csv"])
        assert code == 64
        assert "problem" in capsys.readouterr().err

    def test_non_numeric_cell_is_usage_error(self, tmp_path, capsys):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        path = tmp_path / "solution.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = "abc"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = run(["verify", tmp_path / "report.json", path])
        assert code == 64
        assert "solution.csv" in capsys.readouterr().err

    def test_non_utf8_report_is_usage_error(self, tmp_path, capsys):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        report = tmp_path / "report.json"
        report.write_bytes(b"\xff\xfe")
        assert run(["verify", report, tmp_path / "solution.csv"]) == 64
        assert "report.json" in capsys.readouterr().err

    def test_deeply_nested_report_is_usage_error(self, tmp_path, capsys):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        report = tmp_path / "report.json"
        report.write_text('{"problem": ' + "[" * 100000 + "]" * 100000 + "}")
        assert run(["verify", report, tmp_path / "solution.csv"]) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"verify: cannot read report {report}: maximum recursion depth")

    @pytest.mark.parametrize("data", [
        b"\xff\xfe",
        b'n,z1,z2\r\n0,"' + b"1" * 200000 + b'",2\r\n',  # over csv's field size limit
    ], ids=["non-utf8", "huge-field"])
    def test_unreadable_trajectory_is_usage_error(self, tmp_path, capsys, data):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        path = tmp_path / "solution.csv"
        path.write_bytes(data)
        assert run(["verify", tmp_path / "report.json", path]) == 64
        assert "solution.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc, e: e.pop("kind"),
        lambda doc, e: e.update(kind="bogus"),
        lambda doc, e: e.pop("recurrence_residual"),
        lambda doc, e: e.update(boundary_residual="0"),
        lambda doc, e: doc.update(trajectories=[e]),
        lambda doc, e: e.update(recurrence_residual=-(10**400)),
    ], ids=["no-kind", "unknown-kind", "no-residual", "string-residual", "list",
            "integer-past-the-doubles"])
    def test_malformed_entry_is_usage_error(self, tmp_path, capsys, edit):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        report = tmp_path / "report.json"
        doc = json.loads(report.read_text())
        edit(doc, doc["trajectories"]["solution.csv"])
        report.write_text(json.dumps(doc))
        code = run(["verify", report, tmp_path / "solution.csv"])
        assert code == 64
        assert "verify:" in capsys.readouterr().err

    def test_nan_residual_is_a_mismatch(self, tmp_path, capsys):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        report = tmp_path / "report.json"
        doc = json.loads(report.read_text())
        doc["trajectories"]["solution.csv"]["boundary_residual"] = float("nan")
        report.write_text(json.dumps(doc))
        assert run(["verify", report, tmp_path / "solution.csv"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_null_residual_is_a_mismatch(self, tmp_path, capsys):
        # a non-finite residual is written as null
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        report = tmp_path / "report.json"
        doc = json.loads(report.read_text())
        doc["trajectories"]["solution.csv"]["recurrence_residual"] = None
        report.write_text(json.dumps(doc))
        assert run(["verify", report, tmp_path / "solution.csv"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("cut", ["rows", "columns"])
    def test_trajectory_of_wrong_shape_is_usage_error(self, tmp_path, capsys, cut):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        path = tmp_path / "solution.csv"
        lines = path.read_text().splitlines()
        if cut == "rows":
            lines = lines[:-2]  # truncated
        else:
            lines = [line.rsplit(",", 1)[0] for line in lines]  # narrow: one column less
        path.write_text("\n".join(lines) + "\n")
        code = run(["verify", tmp_path / "report.json", path])
        assert code == 64
        assert "shape" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, module", [
    (["solve-linear", "identity_resonant.json"], linear),
    (["solve-nonlinear", "rotation_lv.json"], linear),
    (["solve-nonlinear", "rotation_lv.json"], nl),
])
def test_svd_that_does_not_converge_is_usage_error(tmp_path, capsys, monkeypatch, cmd, module):
    # Q's decision in linear; Newton's Jacobian and the B0 gate in nonlinear
    def no_convergence(M, tol=None):
        raise linalg.DecompositionError(f"SVD did not converge for shape {np.shape(M)}")

    monkeypatch.setattr(module, "numerical_rank", no_convergence)
    assert run([cmd[0], problem(cmd[1]), "-o", tmp_path]) == 64
    assert capsys.readouterr().err == "error: SVD did not converge for shape (2, 2)\n"


class TestUsage:
    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["solve-linear", bad, "-o", tmp_path / "out"])
        assert code == 64
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_problem_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert run(["solve-linear", bad, "-o", tmp_path / "out"]) == 64
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [
        ["solve-linear"], ["solve-nonlinear"],
        ["sweep", "--eps-min", "0", "--eps-max", "1e-3", "--count", "2"],
    ], ids=["solve-linear", "solve-nonlinear", "sweep"])
    def test_deeply_nested_problem_file_is_usage_error(self, tmp_path, capsys, cmd):
        doc = load_problem_doc("rotation_lv.json")
        doc["forcing"] = "NESTED"
        bad = tmp_path / "nested.json"
        bad.write_text(json.dumps(doc).replace('"NESTED"', "[" * 100000 + "]" * 100000))
        assert run(cmd[:1] + [bad] + cmd[1:] + ["-o", tmp_path / "out"]) == 64
        assert re.match(r"error: \S*nested\.json: maximum recursion depth exceeded",
                        capsys.readouterr().err)

    @pytest.mark.parametrize("cmd", [
        ["solve-linear", "identity_resonant.json"],
        ["solve-nonlinear", "rotation_lv.json"],
        ["sweep", "sweep_scalar.json", "--eps-min", "0", "--eps-max", "1e-3", "--count", "2"],
    ])
    def test_output_naming_a_file_is_usage_error(self, tmp_path, capsys, cmd):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(cmd[:1] + [problem(cmd[1])] + cmd[2:] + ["-o", taken]) == 64
        assert "taken" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,name", [
        (["solve-linear", "identity_resonant.json"], "report.json"),
        (["solve-nonlinear", "rotation_lv.json"], "report.json"),
        (["sweep", "sweep_scalar.json", "--eps-min", "0", "--eps-max", "1e-3", "--count", "2"],
         "report.json"),
        (["solve-linear", "identity_resonant.json", "--dump-canonical"], "canonical.json"),
    ])
    def test_directory_in_the_way_of_an_output_is_usage_error(self, tmp_path, capsys,
                                                               cmd, name):
        (tmp_path / name).mkdir()
        assert run(cmd[:1] + [problem(cmd[1])] + cmd[2:] + ["-o", tmp_path]) == 64
        assert name in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert run([]) == 64

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize("cmd", [
        ["solve-linear", "identity_resonant.json", "--force"],
        ["solve-nonlinear", "rotation_lv.json", "--allow-quasi"],
        ["sweep", "sweep_scalar.json", "--eps-min", "0", "--eps-max", "1e-3",
         "--count", "2", "--allow-quasi"],
    ])
    def test_flag_of_another_subcommand_is_usage_error(self, tmp_path, capsys, cmd):
        assert run(cmd[:1] + [problem(cmd[1])] + cmd[2:] + ["-o", tmp_path]) == 64

    @pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--max-iter", "3"]])
    @pytest.mark.parametrize("cmd", [
        ["solve-linear", "identity_resonant.json"],
        ["solve-nonlinear", "rotation_lv.json"],
        ["sweep", "sweep_scalar.json", "--eps-min", "0", "--eps-max", "1e-3", "--count", "2"],
    ])
    def test_tolerance_overrides_are_usage_errors(self, tmp_path, capsys, cmd, flag):
        # tolerances and caps come from the problem file only
        argv = cmd[:1] + [problem(cmd[1])] + cmd[2:] + flag + ["-o", tmp_path / "out"]
        assert run(argv) == 64
        assert not (tmp_path / "out").exists()

    def test_parser_is_built_once(self, tmp_path, capsys):
        cli._build_parser()
        built = cli._build_parser.cache_info().misses
        assert run(["fib-check", "--m-max", "3"]) == 0
        assert run(["solve-linear", problem("identity_resonant.json"), "-o", tmp_path / "a"]) == 0
        assert run(["solve-nonlinear", problem("identity_resonant.json"), "--tol", "1",
                    "-o", tmp_path / "b"]) == 64
        assert run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path / "c"]) == 0
        assert run(["verify", tmp_path / "c" / "report.json",
                    tmp_path / "c" / "solution.csv"]) == 0
        capsys.readouterr()
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert "solve-nonlinear" in out and "fib-check" in out
        assert cli._build_parser.cache_info().misses == built


class TestDeterminism:
    @pytest.mark.parametrize("name,cmd", [
        ("identity_resonant.json", ["solve-linear"]),
        ("rotation_lv.json", ["solve-nonlinear"]),
        ("sweep_scalar.json", ["sweep", "--eps-min", "0", "--eps-max", "1e-3",
                               "--count", "5"]),
    ])
    def test_reruns_are_byte_identical(self, tmp_path, name, cmd):
        outs = []
        for run_dir in ("a", "b"):
            d = tmp_path / run_dir
            run(cmd[:1] + [problem(name)] + cmd[1:] + ["-o", d, "--dump-canonical"])
            outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outs[0].keys() == outs[1].keys()
        for k in outs[0]:
            assert outs[0][k] == outs[1][k], f"{name}: {k} differs between runs"


class TestOutputsAreNewFiles:
    """Each output replaces whatever has its name; nothing is written through."""

    @pytest.mark.parametrize("name,cmd", SHIPPED)
    def test_rerun_into_the_same_directory_is_byte_identical(self, tmp_path, name, cmd):
        outs = []
        for _ in range(2):
            run(cmd[:1] + [problem(name)] + cmd[1:] + ["-o", tmp_path, "--dump-canonical"])
            outs.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
        assert outs[0] == outs[1]

    def test_hard_links_keep_their_bytes(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for fname in ("report.json", "solution.csv"):
            (tmp_path / f"{fname}.sentinel").write_text("sentinel")
            os.link(tmp_path / f"{fname}.sentinel", out / fname)
        assert run(["solve-nonlinear", problem("rotation_lv.json"), "-o", out]) == 0
        for fname in ("report.json", "solution.csv"):
            assert (tmp_path / f"{fname}.sentinel").read_text() == "sentinel"
            assert (out / fname).stat().st_nlink == 1
        assert run(["verify", out / "report.json", out / "solution.csv"]) == 0

    def test_symlink_is_replaced_not_followed(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "elsewhere.json"
        target.write_text("sentinel")
        (out / "report.json").symlink_to(target)
        assert run(["solve-linear", problem("identity_resonant.json"), "-o", out]) == 0
        assert not (out / "report.json").is_symlink() and (out / "report.json").is_file()
        assert target.read_text() == "sentinel"


class TestStaleOutputs:
    """A run removes the outputs of an earlier run that it does not rewrite."""

    def test_kernels_of_an_earlier_family_are_removed(self, tmp_path):
        assert run(["solve-linear", problem("identity_resonant.json"), "-o", tmp_path]) == 0
        assert (tmp_path / "kernel_02.csv").exists()
        assert run(["solve-linear", problem("fibonacci_periodic.json"), "-o", tmp_path]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["outputs"] == ["particular.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["particular.csv", "report.json"]

    def test_a_failed_solve_leaves_no_solution(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve-nonlinear", problem("rotation_lv.json"), "-o", out]) == 0
        assert (out / "trace.csv").exists()
        assert run(["solve-nonlinear", overflowing_scalar_problem(tmp_path), "-o", out]) == 3
        assert json.loads((out / "report.json").read_text())["outputs"] == []
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_other_names_are_left_alone(self, tmp_path):
        assert run(["sweep", problem("sweep_scalar.json"), "--eps-min", "0", "--eps-max",
                    "1e-3", "--count", "2", "-o", tmp_path, "--dump-canonical"]) == 0
        for name in ("notes.txt", "kernel_1.csv", "solution.csv.bak"):
            (tmp_path / name).write_text("kept")
        (tmp_path / "trace.csv").mkdir()
        assert run(["solve-linear", problem("identity_resonant.json"), "-o", tmp_path]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "canonical.json", "kernel_01.csv", "kernel_02.csv", "kernel_1.csv",
            "notes.txt", "particular.csv", "report.json", "solution.csv.bak", "trace.csv"]


@pytest.mark.parametrize("name,cmd", SHIPPED)
def test_json_outputs_equal_their_stdlib_encoding(tmp_path, name, cmd):
    run(cmd[:1] + [problem(name)] + cmd[1:] + ["-o", tmp_path, "--dump-canonical"])
    for fname in ("report.json", "canonical.json"):
        text = (tmp_path / fname).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", fname
