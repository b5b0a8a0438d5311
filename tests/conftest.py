import json
from pathlib import Path

import numpy as np
import pytest

from resbvp.boundary import periodic
from resbvp.linear import LinearBVP, OperatorSequence, particular_forced
from resbvp.lotka_volterra import LotkaVolterraSpec, lv_callables
from resbvp.nonlinear import NonlinearProblem
from resbvp.problem_io import rotation_matrix

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


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
    problem = NonlinearProblem(system, f, l, Z, Z_du, epsilon)
    return problem


@pytest.fixture
def benchmark_problem():
    return rotation_benchmark()


@pytest.fixture
def benchmark_bvp(benchmark_problem):
    return LinearBVP(benchmark_problem.system, benchmark_problem.boundary)


@pytest.fixture
def benchmark_family(benchmark_problem, benchmark_bvp):
    report, family = benchmark_bvp.solve(benchmark_problem.forcing)
    assert report.kernel_dim == 2 and report.cokernel_dim == 2
    return family


def load_problem_doc(name):
    return json.loads((PROBLEMS_DIR / name).read_text())
