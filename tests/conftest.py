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


def rotation_benchmark(epsilon=0.0):
    """Fully resonant 2x2 rotation system over one full turn, periodic BC,
    Lotka-Volterra nonlinearity; the forcing is corrected so the periodic
    solvability condition holds exactly (Q = 0, r = d = 2)."""
    m = 6
    system = OperatorSequence.constant(rotation_matrix(2 * np.pi / m), m)
    l = periodic(2, m)
    rng = np.random.default_rng(42)
    f = 0.3 * rng.standard_normal((m, 2))
    f[m - 1] -= particular_forced(system, f)[m]
    Z, Z_du = lv_callables(LotkaVolterraSpec.uniform(1))
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
