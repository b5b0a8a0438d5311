"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS line when
it succeeds (visible with `pytest -s` or in captured output).  Tolerances
and runtime budgets are fixed here and must not be loosened.
"""

import csv
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from resbvp import cli
from resbvp.boundary import generic, multipoint, periodic
from resbvp.fibonacci import (
    FIB_MATRIX,
    fib_delta,
    fib_delta_exponent_offset,
    fib_green_coeffs,
    fib_green_matrix_oracle,
    fib_periodic_particular,
)
from resbvp.linalg import numerical_rank
from resbvp.linear import (
    CLASSICAL,
    FAMILY,
    QUASISOLUTION,
    LinearBVP,
    OperatorSequence,
    particular_forced,
    residuals,
)
from resbvp.lotka_volterra import LotkaVolterraSpec, lv_callables
from resbvp.nonlinear import (
    assemble_B0,
    check_sufficient,
    generating_F,
    iterate,
    solve_generating,
)

from conftest import GOLDEN_DIR, PROBLEMS_DIR, phi_product, rotation_benchmark
from test_nonlinear import brute_force_F


def _report(number, message):
    print(f"ACCEPTANCE {number}: PASS — {message}")


def _random_matrix_with_rank(rng, rows, cols, rank):
    L = rng.standard_normal((rows, rank))
    R = rng.standard_normal((rank, cols))
    return L @ R


def test_criterion_1_penrose_suite():
    """200 random matrices: four Penrose identities + projector laws, 1e-10."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        kind = trial % 3
        if kind == 0:
            rank = min(rows, cols)
        elif kind == 1:
            rank = 1
        else:
            rank = max(1, min(rows, cols) // 2)
        M = _random_matrix_with_rank(rng, rows, cols, rank)
        P = numerical_rank(M).pinv
        scale = max(1.0, np.linalg.norm(M))
        checks = [
            np.linalg.norm(M @ P @ M - M) / scale,
            np.linalg.norm(P @ M @ P - P) / max(1.0, np.linalg.norm(P)),
            np.linalg.norm((M @ P).T - M @ P),
            np.linalg.norm((P @ M).T - P @ M),
        ]
        PN = np.eye(cols) - P @ M
        PNs = np.eye(rows) - M @ P
        checks.append(np.linalg.norm(M @ PN) / scale)
        checks.append(np.linalg.norm(PNs @ M) / scale)
        worst = max(worst, max(checks))
        assert max(checks) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"200 matrices, worst defect {worst:.2e}, {elapsed:.2f}s")


def _random_boundary(rng, kind, N, m):
    if kind == 0:
        return periodic(N, m)
    if kind == 1:
        comps = sorted(rng.choice(N, size=min(2, N), replace=False).tolist())
        points = sorted(rng.choice(m + 1, size=2, replace=False).tolist())
        targets = rng.standard_normal(1)
        return multipoint(N, [(comps, points)], targets)
    # over-determined targets (q > N) produce genuine quasisolution cases
    q = int(rng.integers(1, N + 3))
    samples = [(int(n), rng.standard_normal((q, N)))
               for n in sorted(rng.choice(m + 1, size=2, replace=False).tolist())]
    return generic(samples, rng.standard_normal(q))


def test_criterion_2_linear_bvp_oracle_equivalence():
    """100 random problems, all trajectories checked against residual oracles."""
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    counts = {CLASSICAL: 0, FAMILY: 0, QUASISOLUTION: 0}
    for trial in range(100):
        N = int(rng.integers(1, 7))
        m = int(rng.integers(2, 11))
        A = rng.standard_normal((m, N, N)) * 0.6 + np.eye(N)
        system = OperatorSequence(A)
        f = rng.standard_normal((m, N))
        l = _random_boundary(rng, trial % 3, N, m)
        family = LinearBVP(system, l).solve(f)
        report = family.report
        counts[report.classification] += 1

        members = [family.particular]
        for _ in range(3):
            members.append(family.member(rng.standard_normal(family.kernel_dim)))
        for z in members:
            scale = 1 + np.abs(z).max()
            rec, bc = residuals(system, l, f, z)
            assert rec <= 1e-10 * scale
            if report.classification != QUASISOLUTION:
                assert bc <= 1e-8 * scale

        if report.classification == QUASISOLUTION:
            # least-squares optimality: beat or tie exact random trajectories
            ours = residuals(system, l, f, family.particular)[1]
            g = particular_forced(system, f)
            U = np.array([phi_product(system, n, 0) for n in range(m + 1)])
            Z = np.einsum("nij,kj->kni", U, rng.standard_normal((100, N))) + g
            assert ours <= residuals(system, l, f, Z)[1].min() + 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, f"100 problems ({counts}), {elapsed:.2f}s")


def test_criterion_3_resonance_detection():
    """Identity system + periodic BC: kernel dim N, Fredholm index 0 exactly."""
    for N in (1, 2, 3, 5):
        m = 4
        system = OperatorSequence.identity(N, m)
        family = LinearBVP(system, periodic(N, m)).solve(np.zeros((m, N)))
        report = family.report
        assert report.kernel_dim == N
        assert report.cokernel_dim == N
        assert report.fredholm_index == 0
    _report(3, "identity/periodic gives r = N, d = N, index 0 for N in {1,2,3,5}")


def test_criterion_4_fibonacci_oracle():
    started = time.perf_counter()
    # single consistent exponent convention over m <= 20, exact integers
    offset = fib_delta_exponent_offset(20)
    assert offset == 2
    for m in range(1, 21):
        Q = np.linalg.matrix_power(FIB_MATRIX, m + offset)
        det = (Q[0][0] - 1) * (Q[1][1] - 1) - Q[0][1] * Q[1][0]
        assert fib_delta(m) == det

    # tabulate printed-coefficient agreement against the exact matrix oracle
    agree = [0, 0, 0, 0]
    total = 0
    for m in range(1, 21):
        for n in range(m + 1):
            for k in range(m + 1):
                total += 1
                c = fib_green_coeffs(n, m, k)
                o = fib_green_matrix_oracle(n, m, k, offset=offset)
                for i in range(4):
                    agree[i] += c[i] == o[i]
    assert agree[0] == total and agree[1] == total  # top row exact everywhere
    assert agree[2] < total and agree[3] < total    # bottom row does not match

    # the general solver reproduces the exact periodic particular solution
    for m in (3, 5, 8):
        rng = np.random.default_rng(400 + m)
        f_exact = [tuple(Fraction(int(v), 8) for v in row)
                   for row in rng.integers(-8, 9, (m, 2))]
        oracle = fib_periodic_particular(
            f_exact + [(Fraction(0), Fraction(0))], m)
        system = OperatorSequence.constant(np.array([[1.0, 1.0], [1.0, 0.0]]), m)
        f = np.array([[float(a), float(b)] for a, b in f_exact])
        family = LinearBVP(system, periodic(2, m)).solve(f)
        report = family.report
        assert report.classification == CLASSICAL
        want = np.array([[float(a), float(b)] for a, b in oracle])
        got = family.member(np.zeros(0))
        assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    tab = ", ".join(f"a{i // 2 + 1}{i % 2 + 1}={agree[i]}/{total}" for i in range(4))
    _report(4, f"offset +{offset}; {tab}; solver matches exact oracle; {elapsed:.2f}s")


def test_criterion_5_generating_equation():
    problem = rotation_benchmark()
    family = problem.family
    assert family.kernel_dim == 2 and family.cokernel_dim == 2

    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        c = rng.standard_normal(2) * 2.0
        got = generating_F(problem, c)
        want = brute_force_F(problem, c)
        err = np.linalg.norm(got - want) / (1 + np.linalg.norm(want))
        worst = max(worst, err)
        assert err <= 1e-10

    root = solve_generating(problem, [0.5, 0.5])
    assert root.converged
    B0 = assemble_B0(problem, root.c0)
    h = 1e-6
    J = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        J[:, j] = (generating_F(problem, root.c0 + e)
                   - generating_F(problem, root.c0 - e)) / (2 * h)
    fd_err = np.linalg.norm(B0 + J) / (1 + np.linalg.norm(B0))
    assert fd_err <= 1e-5
    _report(5, f"50 random c, worst F defect {worst:.2e}; B0 vs FD {fd_err:.2e}")


def test_criterion_6_iteration_and_eps_scaling():
    sizes = []
    eps_grid = [1e-2, 1e-3, 1e-4]
    for eps in eps_grid:
        problem = rotation_benchmark(eps)
        family = problem.family
        root = solve_generating(problem, [0.5, 0.5])
        z, trace = iterate(problem, root.c0,
                           check_sufficient(assemble_B0(problem, root.c0)).B0_pinv)
        assert trace.converged and trace.iterations <= 200
        m = family.bvp.system.horizon
        Zz = problem.Z(z[:m], np.arange(m), problem.epsilon)
        rec, bc = residuals(family.bvp.system, family.bvp.boundary, family.forcing, z,
                            problem.epsilon * Zz)
        assert rec <= 1e-8 and bc <= 1e-8
        sizes.append(np.abs(z - family.member(root.c0)).max())
    slope = np.polyfit(np.log(eps_grid), np.log(sizes), 1)[0]
    assert abs(slope - 1.0) <= 0.15

    problem = rotation_benchmark(0.0)
    family = problem.family
    root = solve_generating(problem, [0.5, 0.5])
    z, trace = iterate(problem, root.c0,
                       check_sufficient(assemble_B0(problem, root.c0)).B0_pinv)
    exact_gap = np.abs(z - family.member(root.c0)).max()
    assert exact_gap <= np.finfo(float).eps * 8
    _report(6, f"converged at all eps, residuals <= 1e-8, slope {slope:.3f}, "
               f"eps=0 gap {exact_gap:.1e}")


def test_criterion_7_sufficiency_gate(tmp_path):
    code = cli.main(["solve-nonlinear", str(PROBLEMS_DIR / "gate_refusal.json"),
                     "-o", str(tmp_path / "refused")])
    assert code == 4

    problem = rotation_benchmark(1e-3)
    root = solve_generating(problem, [0.5, 0.5])
    B0 = assemble_B0(problem, root.c0)
    chk = check_sufficient(B0)
    assert chk.holds and chk.row_rank == chk.required_rank == 2
    _report(7, "degenerate problem refused with exit 4; benchmark B0 full row rank")


def test_criterion_8_lotka_volterra_derivative():
    rng = np.random.default_rng(808)
    worst = 0.0
    for trial in range(100):
        pairs = int(rng.integers(1, 4))
        spec = LotkaVolterraSpec(
            pairs,
            rng.uniform(0.5, 2.0, pairs),
            rng.uniform(0.5, 2.0, pairs),
            rng.uniform(0.1, 1.0, (pairs, pairs)),
            rng.uniform(0.1, 1.0, (pairs, pairs)),
        )
        Z, Z_du = lv_callables(spec)
        z = rng.standard_normal(2 * pairs)
        J = Z_du(z, 0, 0.0)
        h = 1e-6
        for j in range(2 * pairs):
            e = np.zeros(2 * pairs)
            e[j] = h
            col = (Z(z + e, 0, 0.0)
                   - Z(z - e, 0, 0.0)) / (2 * h)
            err = np.linalg.norm(J[:, j] - col) / (1 + np.linalg.norm(col))
            worst = max(worst, err)
            assert err <= 1e-6
    _report(8, f"100 random points, worst column defect {worst:.2e}")


SHIPPED = [
    ("identity_resonant.json", ["solve-linear"]),
    ("fibonacci_periodic.json", ["solve-linear"]),
    ("quasisolution_multipoint.json", ["solve-linear", "--allow-quasi"]),
    ("rotation_lv.json", ["solve-nonlinear"]),
    ("gate_refusal.json", ["solve-nonlinear", "--force"]),
    ("sweep_scalar.json", ["sweep", "--eps-min", "0", "--eps-max", "1e-3",
                           "--count", "6"]),
]


# Outputs of the SHIPPED commands, committed before the single-LinearBVP
# refactor; floats are held to the bench/references rule, not to bytes,
# because the kernel basis of a near-zero Q depends on BLAS roundoff.
GOLDEN_TOL = 1e-12


def _golden_values(fname, data: bytes):
    """JSON as parsed; CSV as a header row of strings and rows of numbers."""
    text = data.decode()
    if fname.endswith(".json"):
        return json.loads(text)
    header, *rows = list(csv.reader(text.splitlines()))
    cell = lambda s: int(s) if s.lstrip("-").isdigit() else float(s)
    return [header] + [[cell(s) for s in row] for row in rows]


def _assert_golden(new, old, where):
    """Same keys, strings, integers and structure; floats within GOLDEN_TOL."""
    numbers = (int, float)
    if isinstance(old, numbers) and isinstance(new, numbers) \
            and not isinstance(old, bool) and not isinstance(new, bool) \
            and float in (type(old), type(new)):
        assert abs(new - old) <= GOLDEN_TOL or (math.isnan(new) and math.isnan(old)), \
            f"{where}: {new!r} differs from golden {old!r}"
        return
    assert type(new) is type(old), f"{where}: {new!r} differs from golden {old!r}"
    if isinstance(old, dict):
        assert new.keys() == old.keys(), f"{where}: keys differ from golden"
        for key in old:
            _assert_golden(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), f"{where}: length differs from golden"
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_golden(a, b, f"{where}[{i}]")
    else:
        assert new == old, f"{where}: {new!r} differs from golden {old!r}"


def test_criterion_9_determinism(tmp_path):
    total_files = 0
    for name, cmd in SHIPPED:
        snapshots = []
        for tag in ("first", "second"):
            out = tmp_path / f"{name}.{tag}"
            argv = (cmd[:1] + [str(PROBLEMS_DIR / name)] + cmd[1:]
                    + ["-o", str(out), "--dump-canonical"])
            cli.main(argv)
            snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert snapshots[0].keys() == snapshots[1].keys()
        for fname in snapshots[0]:
            assert snapshots[0][fname] == snapshots[1][fname], \
                f"{name}: {fname} differs between consecutive runs"
        golden = {p.name: p.read_bytes()
                  for p in sorted((GOLDEN_DIR / Path(name).stem).iterdir())}
        assert snapshots[0].keys() == golden.keys(), f"{name}: output files differ from golden"
        for fname in golden:
            _assert_golden(_golden_values(fname, snapshots[0][fname]),
                           _golden_values(fname, golden[fname]), f"{name}/{fname}")
        total_files += len(snapshots[0])
    _report(9, f"{len(SHIPPED)} shipped examples, {total_files} files byte-identical "
               f"and equal to the golden outputs")
