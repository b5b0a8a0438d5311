import json
from pathlib import Path

import numpy as np
import pytest

from resbvp import linear
from resbvp.boundary import periodic
from resbvp.linear import LinearBVP, OperatorSequence, particular_forced
from resbvp.lotka_volterra import LotkaVolterraSpec, lv_callables
from resbvp.nonlinear import NonlinearProblem
from resbvp.problem_io import rotation_matrix

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
# outputs of the shipped commands, committed; test_acceptance holds them
# to the bench/references rule
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def scan(system: OperatorSequence, f):
    """The blocked scan of a stack of forcings, shape (k, m, N), over a
    time-invariant system: one run of a fresh plan."""
    return linear._scan_plan(system, len(f))(f)


def phi_product(A: OperatorSequence, n, i):
    """Independent oracle: explicit ordered product A_{n-1} ... A_i."""
    P = np.eye(A.dim)
    for k in range(i, n):
        P = A.matrices[k] @ P
    return P


def rotation_benchmark(epsilon=0.0, m=6, pairs=1):
    """Fully resonant rotation system over one full turn, periodic BC,
    Lotka-Volterra nonlinearity; the forcing is corrected so the periodic
    solvability condition holds exactly (Q = 0, r = d = N).

    The state is (x_1..x_p, y_1..y_p) for p = ``pairs``, each (x_i, y_i)
    rotating by 2 pi / m, so N = 2p (the benchmark's block rotation)."""
    N = 2 * pairs
    system = OperatorSequence.constant(np.kron(rotation_matrix(2 * np.pi / m),
                                               np.eye(pairs)), m)
    l = periodic(N, m)
    rng = np.random.default_rng(42)
    f = 0.3 * rng.standard_normal((m, N))
    f[m - 1] -= particular_forced(system, f)[m]
    Z, Z_du = lv_callables(LotkaVolterraSpec.uniform(pairs))
    return NonlinearProblem(LinearBVP(system, l).solve(f), Z, Z_du, epsilon)


def varying_rotation_system(m):
    """Rotations by angles 2 pi / m (1 + sin(2 pi n / m) / 2), which turn
    one full circle over the window, so Phi(m, 0) = I and Q = 0 as for the
    block rotation, but every A_n differs: a time-varying system."""
    n = np.arange(m)
    theta = 2 * np.pi / m * (1 + 0.5 * np.sin(2 * np.pi * n / m))
    cos, sin = np.cos(theta), np.sin(theta)
    return OperatorSequence(np.stack([np.stack([cos, -sin], -1),
                                      np.stack([sin, cos], -1)], -2))


def varying_block_doc(m, eps):
    """Problem-file dict of varying_rotation_system(m) as a block system
    with per-time tables, periodic boundary, uniform Lotka-Volterra
    nonlinearity and c_init 0.5; the forcing is 0.3 times a standard normal
    draw from seed 0, corrected in its last step so that g(m) = 0 (r = d =
    2)."""
    A = varying_rotation_system(m)
    f = 0.3 * np.random.default_rng(0).standard_normal((m, 2))
    f[m - 1] -= particular_forced(A, f)[m]
    table = {name: A.matrices[:, i, j, None].tolist()
             for name, (i, j) in zip("abcd", [(0, 0), (0, 1), (1, 0), (1, 1)])}
    return {"dim": 2, "horizon": m, "system": {"type": "block", **table},
            "forcing": f.tolist(), "boundary": {"type": "periodic"},
            "nonlinearity": {"type": "lotka_volterra", "g1": 1.0, "g2": 1.0,
                             "a": 1.0, "b": 1.0},
            "epsilon": eps, "solver": {"c_init": [0.5, 0.5]}}


def block_rotation_doc(m, N, eps, base_seed, seed=0):
    """Problem-file dict of the benchmark's block rotation: N/2 copies of the
    2x2 rotation by 2 pi / m, periodic boundary, uniform Lotka-Volterra
    nonlinearity, c_init 0.5. The forcing is 0.3 times a standard normal
    draw from ``base_seed`` plus a relative 1e-3 draw from (seed,
    base_seed), corrected in its last step so that g(m) = 0 (Q = 0, r = d
    = N). The same arithmetic as bench/workloads.py, so the same inputs bit
    for bit."""
    p = N // 2
    c, s = np.cos(2 * np.pi / m), np.sin(2 * np.pi / m)
    f = 0.3 * np.random.default_rng(base_seed).standard_normal((m, N))
    f += 1e-3 * 0.3 * np.random.default_rng([seed, base_seed]).standard_normal((m, N))
    A = np.zeros((N, N))
    idx = np.arange(p)
    A[idx, idx] = A[p + idx, p + idx] = c
    A[idx, p + idx] = -s
    A[p + idx, idx] = s
    g = np.zeros(N)
    for n in range(m):
        g = A @ g + f[n]
    f[m - 1] -= g
    return {"dim": N, "horizon": m,
            "system": {"type": "block", "a": [c] * p, "b": [-s] * p, "c": [s] * p,
                       "d": [c] * p},
            "forcing": f.tolist(), "boundary": {"type": "periodic"},
            "nonlinearity": {"type": "lotka_volterra", "g1": 1.0, "g2": 1.0,
                             "a": 1.0, "b": 1.0},
            "epsilon": eps, "solver": {"c_init": [0.5] * N}}


@pytest.fixture
def benchmark_problem():
    return rotation_benchmark()


@pytest.fixture
def benchmark_family(benchmark_problem):
    family = benchmark_problem.family
    report = family.report
    assert report.kernel_dim == 2 and report.cokernel_dim == 2
    return family


def load_problem_doc(name):
    return json.loads((PROBLEMS_DIR / name).read_text())
