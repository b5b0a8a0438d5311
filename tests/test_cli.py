import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from resbvp import cli, linalg, linear
from resbvp import nonlinear as nl
from resbvp.linear import LinearBVP

from conftest import PROBLEMS_DIR, block_rotation_doc


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

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="Phi(m, 0) overflows at horizon 1500 and the rank "
                              "decision refuses it with a traceback (ROADMAP item 1)")
    def test_fibonacci_long_horizon_exits_with_a_documented_code(self, tmp_path):
        path = tmp_path / "fibonacci_1500.json"
        path.write_text(json.dumps({"dim": 2, "horizon": 1500,
                                    "system": {"type": "fibonacci"},
                                    "forcing": "zero", "boundary": {"type": "periodic"}}))
        code = run(["solve-linear", path, "-o", tmp_path / "out"])
        assert code in (0, 2, 3, 4, 5, 64)

    def test_emitted_residuals_are_small(self, tmp_path):
        run(["solve-linear", problem("rotation_lv.json"), "-o", tmp_path])
        doc = json.loads((tmp_path / "report.json").read_text())
        for entry in doc["trajectories"].values():
            assert entry["recurrence_residual"] <= 1e-10
            assert entry["boundary_residual"] <= 1e-10


def count_gate_calls(monkeypatch) -> dict:
    """Count the calls of nl.assemble_B0 and nl.check_sufficient."""
    calls = {}
    for name in ("assemble_B0", "check_sufficient"):
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
    doc = json.loads(Path(problem("sweep_scalar.json")).read_text())
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
        assert calls == {"assemble_B0": 1, "check_sufficient": 1}

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
        assert args[3] is gate.B0_pinv

    def test_overflowing_newton_has_no_root(self, tmp_path, capsys):
        path = overflowing_scalar_problem(tmp_path)
        assert run(["solve-nonlinear", path, "-o", tmp_path / "out"]) == 3
        assert "no generating root" in capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not doc["generating"]["converged"]
        assert "sufficiency" not in doc

    def test_c_init_of_wrong_length_is_usage_error(self, tmp_path, capsys):
        doc = json.loads(Path(problem("rotation_lv.json")).read_text())
        doc.setdefault("solver", {})["c_init"] = [0.5]  # the kernel dimension is 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["solve-nonlinear", path, "-o", tmp_path / "out"]) == 64
        assert "solver.c_init" in capsys.readouterr().err

    def test_linear_only_problem_is_usage_error(self, tmp_path, capsys):
        code = run(["solve-nonlinear", problem("identity_resonant.json"),
                    "-o", tmp_path])
        assert code == 64
        assert "no nonlinearity" in capsys.readouterr().err

    def test_residual_tolerance_is_read(self, tmp_path):
        # the file's residual tolerance gates convergence: none can meet 1e-300
        doc = json.loads(Path(problem("rotation_lv.json")).read_text())
        doc.setdefault("tolerances", {})["residual"] = 1e-300
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(doc))
        assert run(["solve-nonlinear", path, "-o", tmp_path / "out"]) == 5
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not report["iteration"]["converged"]
        assert report["iteration"]["iterations"] < 200  # stopped before max_iter


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


class TestNoContraction:
    @pytest.mark.parametrize("base", [0, 3])
    def test_stalled_inputs_stop_early(self, tmp_path, capsys, base):
        # the two inputs that stall (f0, 200 rounds) or blow up (f3, 52 rounds)
        # at m = 600, eps = 1e-3 without the rule
        code, report = solve_block_rotation(tmp_path, (600, 2, 1e-3, base))
        assert code == 5
        assert report["iteration"]["iterations"] < 25
        err = capsys.readouterr().err
        assert "iteration stopped: no contraction over 20 rounds" in err

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
        assert f"max_iter {cap} rounds reached" in capsys.readouterr().err

    def test_blowup_is_named(self, tmp_path, capsys):
        code, report = solve_block_rotation(tmp_path, (600, 2, 1e-3, 3), blowup=1.0)
        assert code == 5
        assert "exceeds blowup 1" in capsys.readouterr().err


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

    def test_sweep(self, tmp_path, capsys):
        assert self.run_quietly(["sweep", problem("sweep_scalar.json"), "--eps-min", "1e308",
                                 "--eps-max", "1e308", "--count", "1", "-o", tmp_path],
                                capsys) == 0
        [point] = strict_json((tmp_path / "report.json").read_text())["points"]
        assert point["F_norm"] is None

    def test_huge_coefficient_passes_the_derivative_audit(self, tmp_path, capsys):
        # Z = 1e200 z^2 once failed the audit (exit 64, "relative error nan");
        # now, like 1e150, it finds no generating root
        doc = json.loads(Path(problem("sweep_scalar.json")).read_text())
        doc["nonlinearity"]["coeffs"] = [0.0, 0.0, 1e200]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert self.run_quietly(["solve-nonlinear", path, "-o", tmp_path / "out"],
                                capsys) == 3

    def test_non_finite_floats_become_null(self, tmp_path):
        cli._write_report(tmp_path / "r.json",
                          {"a": [float("inf"), (float("nan"), 1.0)], "b": -float("inf")})
        assert strict_json((tmp_path / "r.json").read_text()) == {
            "a": [None, [None, 1.0]], "b": None}


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

    def test_one_linear_solve_and_audit_per_run(self, tmp_path, monkeypatch):
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
        assert len(solves) == 1 and len(audits) == 1

    def test_one_B0_and_one_gate_per_grid_point(self, tmp_path, monkeypatch):
        calls = count_gate_calls(monkeypatch)
        code = run(["sweep", problem("sweep_scalar.json"), "--eps-min", "0",
                    "--eps-max", "1e-3", "--count", "6", "-o", tmp_path])
        assert code == 0
        points = json.loads((tmp_path / "report.json").read_text())["points"]
        assert [pt["root_converged"] for pt in points] == [True] * 6
        assert calls == {"assemble_B0": 6, "check_sufficient": 6}

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
        cli._write_trajectory(tmp_path / "new.csv", z)
        csv_writer_reference(tmp_path / "ref.csv", ["n", "z1", "z2", "z3"],
                             [[n, *z[n]] for n in range(4)])
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
    def test_recomputation_matches(self, tmp_path, capsys):
        run(["solve-nonlinear", problem("rotation_lv.json"), "-o", tmp_path])
        code = run(["verify", tmp_path / "report.json", tmp_path / "solution.csv"])
        assert code == 0
        assert "MISMATCH" not in capsys.readouterr().out

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

    @pytest.mark.parametrize("edit", [
        lambda doc, e: e.pop("kind"),
        lambda doc, e: e.update(kind="bogus"),
        lambda doc, e: e.pop("recurrence_residual"),
        lambda doc, e: e.update(boundary_residual="0"),
        lambda doc, e: doc.update(trajectories=[e]),
    ], ids=["no-kind", "unknown-kind", "no-residual", "string-residual", "list"])
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


class TestUsage:
    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["solve-linear", bad, "-o", tmp_path / "out"])
        assert code == 64
        assert "error:" in capsys.readouterr().err

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
