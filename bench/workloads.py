"""The benchmark's workloads: which problem files each one writes, which CLI
commands one operation runs, and the character each one must keep.

Three workloads use the ROADMAP's block-rotation problem: p = N/2 copies of
the 2x2 rotation by 2 pi / m, a periodic boundary, uniform Lotka-Volterra
nonlinearity and c_init = 0.5.  A^m = I, so Q = 0 and r = d = N.  The forcing
is 0.3 times a standard normal draw from a fixed base seed, corrected in its
last step so that g(m) = 0 and the periodic problem is solvable.

The benchmark's --seed perturbs each base forcing by a relative 1e-3 normal
draw.  Every seed therefore gives distinct inputs, while each input keeps the
convergence status and round count of its base forcing (to within a round),
so medians from different seeds measure the same work.  A fresh base draw per
seed would not: at m=600 the round count ranges from 4 to 72 between draws and
whether the iteration converges changes, which makes one run's median depend
on which draws it got rather than on the program.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORCING_SCALE = 0.3
SEED_JITTER = 1e-3

SHIPPED = (
    # criterion-9 commands of the shipped problems, as the acceptance test runs them
    ("identity_resonant.json", ["solve-linear"]),
    ("fibonacci_periodic.json", ["solve-linear"]),
    ("quasisolution_multipoint.json", ["solve-linear", "--allow-quasi"]),
    ("rotation_lv.json", ["solve-nonlinear"]),
    ("gate_refusal.json", ["solve-nonlinear", "--force"]),
    ("sweep_scalar.json", ["sweep", "--eps-min", "0", "--eps-max", "1e-3", "--count", "6"]),
)


@dataclass(frozen=True)
class Step:
    """One solver invocation; `verify` then runs on each trajectory it emits."""

    command: list           # subcommand and its flags, without the file and -o
    problem: Path
    output: Path
    verify: bool

    def argv(self) -> list:
        return ([self.command[0], str(self.problem)] + self.command[1:]
                + ["-o", str(self.output)])


@dataclass(frozen=True)
class Input:
    """What one operation solves; operations cycle over a workload's inputs."""

    label: str
    steps: tuple


@dataclass(frozen=True)
class Workload:
    """A workload and the character every run checks it keeps."""

    name: str
    expect_exit: int        # exit code of every solver step
    seeded: bool            # whether --seed changes the inputs
    m: int = 0
    N: int = 0              # also the expected kernel dimension: Q = 0
    eps: float = 0.0
    base_seeds: tuple = ()
    min_iterations: int = 0             # iterations report.json records per solve
    max_iterations: int = 10**9


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("iterate-long", expect_exit=0, seeded=True, m=600, N=2, eps=1e-4,
             base_seeds=(0, 1, 2, 3, 4), min_iterations=15),
    Workload("newton-wide", expect_exit=0, seeded=True, m=24, N=32, eps=1e-4,
             base_seeds=(0, 1, 2, 3, 4), max_iterations=20),
    Workload("shipped-cli", expect_exit=0, seeded=False),
    Workload("iterate-stall", expect_exit=5, seeded=True, m=600, N=2, eps=1e-3,
             base_seeds=(0, 3)),
)}


def block_rotation_problem(m: int, N: int, eps: float, base_seed: int,
                           seed: int) -> dict:
    p = N // 2
    theta = 2 * math.pi / m
    c, s = math.cos(theta), math.sin(theta)
    f = FORCING_SCALE * np.random.default_rng(base_seed).standard_normal((m, N))
    f += (SEED_JITTER * FORCING_SCALE
          * np.random.default_rng([seed, base_seed]).standard_normal((m, N)))
    A = np.zeros((N, N))
    idx = np.arange(p)
    A[idx, idx] = A[p + idx, p + idx] = c
    A[idx, p + idx] = -s
    A[p + idx, idx] = s
    g = np.zeros(N)
    for n in range(m):
        g = A @ g + f[n]
    f[m - 1] -= g  # g(m) = 0: the periodic solvability condition holds
    return {
        "dim": N,
        "horizon": m,
        "system": {"type": "block", "a": [c] * p, "b": [-s] * p, "c": [s] * p, "d": [c] * p},
        "forcing": f.tolist(),
        "boundary": {"type": "periodic"},
        "nonlinearity": {"type": "lotka_volterra", "g1": 1.0, "g2": 1.0, "a": 1.0, "b": 1.0},
        "epsilon": eps,
        "solver": {"c_init": [0.5] * N},
    }


def write_inputs(workload: Workload, seed: int, root: Path, work: Path) -> list:
    """Write the workload's problem files under `work`; return its Inputs."""
    inputs_dir = work / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload.name == "shipped-cli":
        steps = []
        for name, command in SHIPPED:
            dest = inputs_dir / name
            shutil.copyfile(root / "problems" / name, dest)
            steps.append(Step(command, dest, work / "out" / name, verify=True))
        return [Input("pass", tuple(steps))]
    inputs = []
    for base in workload.base_seeds:
        label = f"f{base}"
        path = inputs_dir / f"{workload.name}-{label}.json"
        doc = block_rotation_problem(workload.m, workload.N, workload.eps, base, seed)
        path.write_text(json.dumps(doc))
        inputs.append(Input(label, (Step(["solve-nonlinear"], path, work / "out" / label,
                                         verify=False),)))
    return inputs
