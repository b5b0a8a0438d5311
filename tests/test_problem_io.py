import inspect
import json
import math

import numpy as np
import pytest

from resbvp import cli
from resbvp.boundary import initial_mass
from resbvp.linear import LinearBVP, classify
from resbvp.nonlinear import iterate, solve_generating
from resbvp.problem_io import (
    DEFAULT_SOLVER,
    DEFAULT_TOLERANCES,
    ProblemFormatError,
    _as_float_array,
    _scalar,
    canonical_json,
    json_text,
    load_problem,
    parse_problem,
    rotation_matrix,
)

from conftest import GOLDEN_DIR, PROBLEMS_DIR, load_problem_doc


def minimal_doc(**overrides):
    doc = {
        "dim": 2,
        "horizon": 4,
        "system": {"type": "identity"},
        "boundary": {"type": "periodic"},
    }
    doc.update(overrides)
    return doc


class TestGenerators:
    def test_identity(self):
        p = parse_problem(minimal_doc())
        assert np.allclose(p.system.matrices, np.eye(2))
        assert p.system.horizon == 4 and p.system.dim == 2

    def test_fibonacci(self):
        p = parse_problem(minimal_doc(system={"type": "fibonacci"}))
        assert np.allclose(p.system.matrices[0], [[1, 1], [1, 0]])

    def test_fibonacci_requires_dim_two(self):
        with pytest.raises(ProblemFormatError, match="dim"):
            parse_problem(minimal_doc(dim=3, system={"type": "fibonacci"}))

    def test_rotation(self):
        theta = 2 * math.pi / 5
        p = parse_problem(minimal_doc(system={"type": "rotation", "theta": theta}))
        assert np.allclose(p.system.matrices[2], rotation_matrix(theta))

    def test_constant_matrix(self):
        A = [[2.0, 0.0], [1.0, 3.0]]
        p = parse_problem(minimal_doc(system={"type": "constant", "matrix": A}))
        assert np.allclose(p.system.matrices, A)

    def test_explicit_matrices(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 2, 2))
        p = parse_problem(minimal_doc(system={"type": "explicit", "matrices": A.tolist()}))
        assert np.allclose(p.system.matrices, A)

    def test_explicit_shape_mismatch(self):
        with pytest.raises(ProblemFormatError, match="system.matrices"):
            parse_problem(minimal_doc(system={"type": "explicit",
                                              "matrices": [[[1.0]]]}))

    def test_block_generator(self):
        doc = minimal_doc(system={"type": "block", "a": [1.0], "b": [2.0],
                                  "c": [3.0], "d": [4.0]})
        p = parse_problem(doc)
        assert np.allclose(p.system.matrices[1], [[1.0, 2.0], [3.0, 4.0]])

    def test_time_varying_block_equals_diag_loop(self):
        rng = np.random.default_rng(1)
        m, p = 5, 3
        tables = {name: rng.standard_normal((m, p)) for name in "abcd"}
        doc = minimal_doc(dim=2 * p, horizon=m,
                          system={"type": "block",
                                  **{k: v.tolist() for k, v in tables.items()}})
        expected = np.zeros((m, 2 * p, 2 * p))
        for n in range(m):
            expected[n, :p, :p] = np.diag(tables["a"][n])
            expected[n, :p, p:] = np.diag(tables["b"][n])
            expected[n, p:, :p] = np.diag(tables["c"][n])
            expected[n, p:, p:] = np.diag(tables["d"][n])
        assert np.array_equal(parse_problem(doc).system.matrices, expected)

    def test_initial_mass_boundary(self):
        p = parse_problem(minimal_doc(dim=4, boundary={"type": "initial_mass"}))
        expected = initial_mass(2)
        assert [(n, L.tolist()) for n, L in p.boundary.samples] == \
            [(n, L.tolist()) for n, L in expected.samples]
        assert p.boundary.target.tolist() == expected.target.tolist() == [1.0, 1.0]

    def test_unknown_generator(self):
        with pytest.raises(ProblemFormatError, match="unknown generator"):
            parse_problem(minimal_doc(system={"type": "mystery"}))


class TestForcingAndBoundary:
    def test_default_forcing_is_zero(self):
        p = parse_problem(minimal_doc())
        assert p.forcing.shape == (4, 2)
        assert np.all(p.forcing == 0)

    def test_explicit_forcing(self):
        f = np.arange(8.0).reshape(4, 2)
        p = parse_problem(minimal_doc(forcing=f.tolist()))
        assert np.allclose(p.forcing, f)

    def test_forcing_shape_error(self):
        with pytest.raises(ProblemFormatError, match="forcing"):
            parse_problem(minimal_doc(forcing=[[1.0, 2.0]]))

    def test_periodic_boundary(self):
        p = parse_problem(minimal_doc())
        traj = np.tile([1.0, -1.0], (5, 1))
        assert np.allclose(p.boundary.apply(traj), 0.0)

    def test_multipoint_point_out_of_window(self):
        doc = minimal_doc(boundary={
            "type": "multipoint",
            "groups": [{"components": [0], "points": [9]}],
            "targets": [0.0],
        })
        with pytest.raises(ProblemFormatError, match="outside the window|outside"):
            parse_problem(doc)

    def test_generic_boundary(self):
        doc = minimal_doc(boundary={
            "type": "generic",
            "samples": [{"point": 0, "weights": [[1.0, 0.0]]}],
            "target": [2.0],
        })
        p = parse_problem(doc)
        traj = np.zeros((5, 2))
        traj[0, 0] = 7.0
        assert np.allclose(p.boundary.apply(traj), [7.0])


class TestNonlinearity:
    def test_none_by_default(self):
        p = parse_problem(minimal_doc())
        assert p.nonlinearity is None and p.canonical["nonlinearity"]["type"] == "none"

    def test_lotka_volterra_scalars(self):
        p = parse_problem(minimal_doc(nonlinearity={"type": "lotka_volterra"}))
        Z, Z_du = p.nonlinearity
        assert np.allclose(Z(np.array([2.0, 3.0]), 0, 0.0), [-4.0, -3.0])

    def test_polynomial(self):
        doc = minimal_doc(nonlinearity={"type": "polynomial", "coeffs": [0.0, 0.0, 1.0],
                                        "eps_gradient": [1.0, -1.0]})
        p = parse_problem(doc)
        Z, Z_du = p.nonlinearity
        z = np.array([2.0, -3.0])
        assert np.allclose(Z(z, 0, 0.5), [4.5, 8.5])
        assert np.allclose(Z_du(z, 0, 0.5), np.diag([4.0, -6.0]))

    def test_polynomial_stack_equals_per_state(self):
        doc = minimal_doc(nonlinearity={"type": "polynomial", "coeffs": [1.0, -2.0, 0.5, 3.0],
                                        "eps_gradient": [1.0, -1.0]})
        Z, Z_du = parse_problem(doc).nonlinearity
        z = np.random.default_rng(4).standard_normal((4, 2))
        n = np.arange(4)
        assert np.array_equal(Z(z, n, 0.5), np.array([Z(z[k], k, 0.5) for k in range(4)]))
        assert np.array_equal(Z_du(z, n, 0.5), np.array([Z_du(z[k], k, 0.5) for k in range(4)]))

    @pytest.mark.parametrize("coeffs", [[], [7.0], [0.0, 0.0, 1.0], [1.0, -2.0, 0.5, 3.0],
                                        [1e-3, 5.0, -4.0, 0.25, -1.0, 2.0]])
    def test_polynomial_matches_the_power_sum(self, coeffs):
        # Horner's rule against sum_k c_k z^k, to its roundoff bound
        Z, Z_du = parse_problem(minimal_doc(nonlinearity={
            "type": "polynomial", "coeffs": coeffs})).nonlinearity
        z = 3 * np.random.default_rng(5).standard_normal((50, 2))
        k = np.arange(len(coeffs))
        terms = np.array(coeffs) * z[..., None] ** k
        slopes = (k * np.array(coeffs))[1:] * z[..., None] ** k[:-1]
        bound = 4 * (len(coeffs) + 1) * np.finfo(float).eps
        assert np.all(np.abs(Z(z, 0, 0.0) - terms.sum(-1)) <= bound * np.abs(terms).sum(-1))
        diag = np.diagonal(Z_du(z, 0, 0.0), axis1=-2, axis2=-1)
        assert np.all(np.abs(diag - slopes.sum(-1)) <= bound * np.abs(slopes).sum(-1))


class TestDefaultsAndCanonical:
    def test_tolerance_and_solver_defaults(self):
        p = parse_problem(minimal_doc())
        assert p.tolerances == DEFAULT_TOLERANCES
        assert p.solver == DEFAULT_SOLVER

    def test_defaults_equal_library_keyword_defaults(self):
        # the problem-file defaults and the library keywords are two copies
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert DEFAULT_TOLERANCES == {
            "classification": default(LinearBVP.solve, "tol"),
            "rank": default(LinearBVP, "rank_tol"),
            "newton": default(solve_generating, "tol"),
            "iteration": default(iterate, "tol"),
            "residual": default(iterate, "residual_tol"),
        }
        assert DEFAULT_SOLVER == {
            "c_init": default(solve_generating, "c_init"),
            "max_iter": default(iterate, "max_iter"),
            "newton_max_iter": default(solve_generating, "max_iter"),
            "blowup": default(iterate, "blowup"),
        }
        assert default(classify, "tol") == DEFAULT_TOLERANCES["classification"]

    def test_overrides_merge(self):
        p = parse_problem(minimal_doc(tolerances={"rank": 1e-8},
                                      solver={"max_iter": 7}))
        assert p.tolerances["rank"] == 1e-8
        assert p.tolerances["residual"] == DEFAULT_TOLERANCES["residual"]
        assert p.solver["max_iter"] == 7

    def test_canonical_round_trip(self):
        doc = minimal_doc(epsilon=1e-3,
                          nonlinearity={"type": "lotka_volterra"},
                          solver={"c_init": [0.1, 0.2]})
        p1 = parse_problem(doc)
        p2 = parse_problem(json.loads(canonical_json(p1)))
        assert p1.canonical == p2.canonical
        assert np.allclose(p1.forcing, p2.forcing)
        assert p1.epsilon == p2.epsilon

    def test_non_utf8_file_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        with pytest.raises(ProblemFormatError, match="bad.json"):
            load_problem(str(bad))

    def test_invalid_json_reports_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2,\n  "horizon: 4}\n')
        with pytest.raises(ProblemFormatError, match="line"):
            load_problem(str(bad))

    @pytest.mark.parametrize("overrides,field", [
        ({"horizon": "six"}, "horizon"),
        ({"nonlinearity": {"type": "lotka_volterra", "a": [[1, 2, 3]]}}, "nonlinearity"),
        ({"tolerances": {"rank": "x"}}, "tolerances.rank"),
        ({"epsilon": float("nan")}, "epsilon"),
        ({"solver": {"max_iter": -1}}, "solver.max_iter"),
        ({"solver": {"newton_max_iter": -1}}, "solver.newton_max_iter"),
        ({"horizon": 6, "nonlinearity": {"type": "lotka_volterra",
                                         "a": np.ones((3, 1, 1)).tolist()}},
         "nonlinearity.a"),
        ({"horizon": 6, "nonlinearity": {"type": "lotka_volterra",
                                         "g1": np.ones((7, 1)).tolist()}},
         "nonlinearity.g1"),
        pytest.param({"system": "identity"}, "^system: expected an object", id="system-text"),
        pytest.param({"dim": 3, "system": {"type": "rotation", "theta": 0.5}},
                     "^system: rotation generator requires dim = 2", id="rotation-dim3"),
        pytest.param({"dim": 3, "system": {"type": "block", **dict.fromkeys("abcd", [1.0])}},
                     "^system: block generator requires even dim", id="block-dim3"),
        pytest.param({"system": {"type": "block", **dict.fromkeys("abcd", [1.0]), "a": [1.0] * 2}},
                     r"^system\.a: expected shape \(1,\) or \(4, 1\), got \(2,\)",
                     id="block-table-shape"),
        pytest.param({"dim": 3, "boundary": {"type": "initial_mass"}},
                     "^boundary: initial_mass requires even dim", id="initial-mass-dim3"),
        pytest.param({"boundary": {"type": "multipoint", "targets": [0.0],
                                   "groups": [{"components": [2], "points": [0]}]}},
                     "^boundary: component index 2 outside state dimension 2",
                     id="multipoint-component"),
        pytest.param({"boundary": {"type": "generic", "target": [0.0],
                                   "samples": [{"point": 5, "weights": [[1.0, 0.0]]}]}},
                     r"^boundary\.samples\[0\]: point 5 outside window \[0, 4\]",
                     id="generic-point"),
        pytest.param({"boundary": {"type": "mystery"}}, "^boundary: unknown type 'mystery'",
                     id="boundary-type"),
        pytest.param({"nonlinearity": {"type": "mystery"}},
                     "^nonlinearity: unknown type 'mystery'", id="nonlinearity-type"),
        pytest.param({"dim": 3, "nonlinearity": {"type": "lotka_volterra"}},
                     "^nonlinearity: lotka_volterra requires even dim", id="lotka-volterra-dim3"),
        pytest.param({"horizon": 0}, "dim and horizon must be >= 1", id="horizon0"),
        pytest.param({"forcing": "ones"}, "^forcing: unknown named forcing 'ones'",
                     id="named-forcing"),
    ])
    def test_bad_scalar_or_table_is_format_error(self, tmp_path, overrides, field):
        doc = minimal_doc(**overrides)
        with pytest.raises(ProblemFormatError, match=field):
            parse_problem(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # a NaN is written as the bare token NaN
        assert cli.main(["solve-linear", str(path), "-o", str(tmp_path / "out")]) == 64

    @pytest.mark.parametrize("overrides,field", [
        ({"epsilon": True}, "epsilon"),
        ({"dim": True}, "dim"),
        ({"solver": {"max_iter": True}}, "solver.max_iter"),
        ({"tolerances": {"rank": True}}, "tolerances.rank"),
        ({"solver": {"c_init": [True, False]}}, "solver.c_init"),
        ({"forcing": [[0.5, 0.25]] * 3 + [[0.5, False]]}, "forcing"),
        ({"dim": 2, "system": {"type": "rotation", "theta": False}}, "system.theta"),
        ({"system": {"type": "constant", "matrix": [[1.0, 0.0], [True, 1.0]]}}, "system.matrix"),
    ])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, overrides, field):
        # a JSON true or false is refused where a number is expected, not read as 1 or 0
        doc = minimal_doc(**overrides)
        with pytest.raises(ProblemFormatError,
                           match=f"^{field}: expected a number, got a boolean"):
            parse_problem(doc)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve-linear", str(path), "-o", str(tmp_path / "out")]) == 64
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides,field", [
        ({"epsilon": "0.001"}, "epsilon"),
        ({"dim": 2, "system": {"type": "rotation", "theta": "1.0471975511965976"}},
         "system.theta"),
        ({"forcing": [[0.5, 0.25]] * 3 + [[0.5, "0.25"]]}, "forcing"),
        ({"forcing": [[2 ** 70, "0.25"]] + [[0.5, 0.25]] * 3}, "forcing"),  # kind O
        ({"solver": {"c_init": ["0.5", 0.5]}}, "solver.c_init"),
        ({"tolerances": {"rank": "1e-10"}}, "tolerances.rank"),
    ])
    def test_string_is_not_a_number(self, tmp_path, capsys, overrides, field):
        # a JSON string of digits is refused where a number is expected, not parsed
        doc = minimal_doc(**overrides)
        with pytest.raises(ProblemFormatError,
                           match=f"^{field}: expected a number, got a string"):
            parse_problem(doc)
        path = tmp_path / "str.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve-linear", str(path), "-o", str(tmp_path / "out")]) == 64
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_numbers_equal_to_a_boolean_are_kept(self):
        doc = parse_problem(minimal_doc(forcing=[[0, 1]] * 4, epsilon=1,
                                        solver={"c_init": [1, 0.0]}))
        assert np.array_equal(doc.forcing, [[0.0, 1.0]] * 4) and doc.epsilon == 1.0
        assert doc.solver["c_init"] == [1.0, 0.0]

    @pytest.mark.parametrize("boundary,field", [
        ({"type": "multipoint", "groups": 5, "targets": [0.0]}, "boundary.groups"),
        ({"type": "multipoint", "groups": [{"components": 0, "points": [0]}],
          "targets": [0.0]}, "components"),
        ({"type": "generic", "samples": 5, "target": [0.0]}, "boundary.samples"),
    ])
    def test_non_list_boundary_field_is_format_error(self, tmp_path, boundary, field):
        doc = minimal_doc(boundary=boundary)
        with pytest.raises(ProblemFormatError, match=field):
            parse_problem(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve-linear", str(path), "-o", str(tmp_path / "out")]) == 64

    @pytest.mark.parametrize("command", ["solve-linear", "solve-nonlinear"])
    def test_empty_generic_boundary_is_format_error(self, tmp_path, command):
        # q = 0 conditions would reach the rank decision with an empty Q
        doc = minimal_doc(boundary={"type": "generic", "samples": [], "target": []},
                          nonlinearity={"type": "polynomial", "coeffs": [0.0, 0.0, 1.0]})
        with pytest.raises(ProblemFormatError, match="boundary"):
            parse_problem(doc)
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, str(path), "-o", str(tmp_path / "out")]) == 64

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.update(eps=d.pop("epsilon")), "eps"),
        (lambda d: d.update(tolerance={"rank": "x"}), "tolerance"),
        (lambda d: d["nonlinearity"].update(g_1=5), "g_1"),
        (lambda d: d["system"].update(thetaa=1.0), "thetaa"),
    ], ids=["eps", "tolerance", "g_1", "thetaa"])
    def test_unknown_key_is_format_error(self, tmp_path, capsys, edit, key):
        # each typo was once dropped, and the run went on with the default
        doc = load_problem_doc("rotation_lv.json")
        edit(doc)
        with pytest.raises(ProblemFormatError, match=f"unknown field '{key}'"):
            parse_problem(doc)
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve-nonlinear", str(path), "-o", str(tmp_path / "out")]) == 64
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, where", [
        ({"boundary": {"type": "periodic", "targets": [0.0, 0.0]}}, "boundary"),
        ({"boundary": {"type": "multipoint", "targets": [0.0],
                       "groups": [{"components": [0], "points": [0], "weights": [1.0]}]}}, r"boundary.groups\[0\]"),
        ({"boundary": {"type": "generic", "target": [0.0],
                       "samples": [{"point": 0, "weights": [[1.0, 0.0]], "points": [0]}]}},
         r"boundary.samples\[0\]"),
        ({"system": {"type": "block", "a": [1.0], "b": [0.0], "c": [0.0], "d": [1.0],
                     "e": [0.0]}}, "system"),
        ({"nonlinearity": {"type": "polynomial", "coeffs": [0.0], "eps_grad": [0.0, 0.0]}},
         "nonlinearity"),
        ({"nonlinearity": {"coeffs": [0.0]}}, "nonlinearity"),
    ], ids=["periodic", "group", "sample", "block", "polynomial", "none"])
    def test_unknown_key_of_each_object_is_format_error(self, overrides, where):
        with pytest.raises(ProblemFormatError, match=f"{where}: unknown field"):
            parse_problem(minimal_doc(**overrides))

    @pytest.mark.parametrize("section, key", [
        ("tolerances", "classification"), ("tolerances", "rank"), ("tolerances", "newton"),
        ("tolerances", "iteration"), ("tolerances", "residual"), ("solver", "blowup"),
    ])
    def test_negative_setting_is_format_error(self, tmp_path, capsys, section, key):
        # a rank tolerance of -1 once classified the resonant Q = 0 as unique
        doc = load_problem_doc("identity_resonant.json")
        doc[section] = {key: -1}
        with pytest.raises(ProblemFormatError, match=f"{section}.{key}: must be >= 0"):
            parse_problem(doc)
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve-linear", str(path), "-o", str(tmp_path / "out")]) == 64
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_too_many_interactions_names_the_count(self, tmp_path, capsys):
        # t = 2 interaction columns for p = 1 pair, with b at its default:
        # the message once blamed the shape of b
        doc = minimal_doc(nonlinearity={"type": "lotka_volterra", "a": [[1.0, 2.0]]})
        with pytest.raises(ProblemFormatError, match="interaction count"):
            parse_problem(doc)
        path = tmp_path / "lv.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve-nonlinear", str(path), "-o", str(tmp_path / "out")]) == 64
        assert "interaction count" in capsys.readouterr().err

    def test_missing_required_field(self):
        with pytest.raises(ProblemFormatError, match="dim"):
            parse_problem({"horizon": 3, "system": {"type": "identity"},
                           "boundary": {"type": "periodic"}})


class TestShippedProblems:
    @pytest.mark.parametrize("name", [
        "rotation_lv.json",
        "identity_resonant.json",
        "fibonacci_periodic.json",
        "gate_refusal.json",
        "sweep_scalar.json",
        "quasisolution_multipoint.json",
    ])
    def test_all_parse_and_round_trip(self, name):
        p1 = load_problem(str(PROBLEMS_DIR / name))
        p2 = parse_problem(json.loads(canonical_json(p1)))
        assert p1.canonical == p2.canonical


def _old_nulled(obj):
    """The report encoder's former pre-pass: every non-finite float to None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _old_nulled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_nulled(v) for v in obj]
    return obj


NAN, INF = float("nan"), float("inf")


class Text(str):
    """A str subclass, which the stdlib encodes as the str it holds."""


class Count(int):
    """An int subclass, which the stdlib encodes as the int it holds."""


class TestJsonText:
    @pytest.mark.parametrize("obj", [
        NAN, INF, -INF, -0.0, 5e-324, 1e300, 10**30, np.float64(0.1), np.float64(NAN),
        (1.0, 2.0), [[], {}, [[]], {"a": {}}, ()],
        [1.0], [[1.0]], [[1.0, 2.0, 3.0]] * 3, [[[1.0, 2.0]], [[3.0, 4.0]]],
        [[1.0, 2.0], [3.0]], [[1.0, 2.0], []], [[1, 2.0], [3.0, 4.0]], [1, 2.0],
        [[1.0, NAN], [2.0, 3.0]], [1.0, -INF], [1e308, 1e308], [[1e308], [1e308]],
        [(1.0, 2.0), (3.0, 4.0)], [[1.0, 2.0], (3.0, 4.0)], [True, 1.0], [[True], [1.0]],
        [[np.float64(1.5)], [2.0]], [None, "x"],
        ["", "é", "a\u2603\n\"", {"\u00fc": "\x00"}],
        {"b": [1.0, 2.0], "a": [[0.1, 0.2]] * 50, "c": {"z": None, "y": True, "x": False}},
        Text("a\u2603"), {Text("k\n"): Text("v"), "a": [Text("x")]}, Count(7), [Count(-7)],
        pytest.param(10**400, id="10**400"), pytest.param([-(10**400)], id="[-10**400]"),
        *[pytest.param(json.loads(path.read_text()), id=f"{path.parent.name}/{path.name}")
          for path in sorted(GOLDEN_DIR.glob("*/*.json"))],
    ])
    def test_equals_the_stdlib_encoding_of_the_nulled_object(self, obj):
        assert json_text(obj) == json.dumps(_old_nulled(obj), indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [
        np.int64(3), np.zeros(2), [1.0, np.int64(3)], {"a": np.bool_(True)}, {1: 2.0},
        {"a": 1, 2: 3},
    ])
    def test_refuses_what_json_refuses_and_non_str_keys(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)


def _numpy_scalar(value, where: str, kind=float):
    """Reference: the former _scalar, every value through a 0-d array."""
    arr = _as_float_array(value, (), where)
    if kind is int and arr != int(arr):
        raise ProblemFormatError(f"{where}: expected an integer, got {value!r}")
    return kind(arr)


class TestScalar:
    @pytest.mark.parametrize("kind", [float, int])
    @pytest.mark.parametrize("value", [
        0, 7, -3, 2**53 + 1, 2**63 + 1, 0.0, -0.0, 0.1, 2.0, 2.5, -7.5, 1e308, 5e-324,
        *json.loads("[NaN, Infinity, -Infinity]"), True, False, "3", "2.5", "x", [3], [],
        None, {"a": 1}, pytest.param(10**308, id="10**308"), pytest.param(10**400, id="10**400"),
        pytest.param(-(10**400), id="-10**400"),
    ], ids=repr)
    def test_same_value_or_message_as_the_numpy_path(self, value, kind):
        try:
            expected = _numpy_scalar(value, "field", kind)
        except ProblemFormatError as exc:
            with pytest.raises(ProblemFormatError) as got:
                _scalar(value, "field", kind)
            assert str(got.value) == str(exc)
        else:
            got = _scalar(value, "field", kind)
            assert type(got) is kind and got == expected
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)
