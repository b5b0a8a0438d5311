import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from resbvp import linear
from resbvp.linear import LinearBVP, OperatorSequence, particular_forced
from resbvp.nonlinear import NonlinearProblem
from resbvp.problem_io import parse_problem

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
# outputs of the shipped commands, committed; test_acceptance holds them
# to the bench/references rule
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_workloads():
    """bench/workloads.py, imported from its file (bench is not a package)
    and registered, as its dataclasses need, as bench_workloads."""
    path = PROBLEMS_DIR.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's workloads, its block-rotation inputs and the shipped
# problems' criterion-9 commands: the tests run the same ones, not copies
bench_workloads = _load_workloads()
SHIPPED = bench_workloads.SHIPPED


def block_rotation_doc(m, N, eps, base_seed, seed=0):
    """Problem-file dict of the benchmark's block rotation (see
    bench/workloads.py), at the benchmark's default seed 0."""
    return bench_workloads.block_rotation_problem(m, N, eps, base_seed, seed)


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


def from_file(doc):
    """The NonlinearProblem of a parsed problem file, over the family of its
    linear part."""
    family = LinearBVP(doc.system, doc.boundary).solve(doc.forcing)
    return NonlinearProblem(family, *doc.nonlinearity, doc.epsilon)


def block_rotation(m, N, eps, base_seed):
    """The NonlinearProblem of block_rotation_doc(m, N, eps, base_seed)."""
    return from_file(parse_problem(block_rotation_doc(m, N, eps, base_seed)))


def rotation_benchmark(epsilon=0.0, m=6, pairs=1):
    """The block rotation at base forcing 42: fully resonant over one full
    turn (Q = 0, r = d = N = 2 ``pairs``), periodic boundary, uniform
    Lotka-Volterra nonlinearity."""
    return block_rotation(m, 2 * pairs, epsilon, 42)


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


def brute_force_F(problem, c):
    """Independent oracle: unroll z0(., c), push the nonlinearity through
    explicit transition products into the boundary form, and project."""
    family, system = problem.family, problem.family.bvp.system
    A = system.matrices
    m, N = system.horizon, system.dim
    z0 = family.member(c)
    g = np.zeros((m + 1, N))
    for n in range(m + 1):
        acc = np.zeros(N)
        for i in range(n):
            P = np.eye(N)
            for k in range(i + 1, n):
                P = A[k] @ P
            acc += P @ problem.Z(z0[i], i, 0.0)
        g[n] = acc
    v = sum(L @ g[n] for n, L in family.bvp.boundary.samples)
    return family.cokernel_basis.T @ v


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
