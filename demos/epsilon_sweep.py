"""Bifurcation branch of a scalar toy problem under an epsilon sweep.

The problem (problems/sweep_scalar.json) is the scalar identity system with
periodic boundary conditions and nonlinearity Z(z) = z^2 - eps.  Its
generating equation reduces to c^2 = eps: no real root for eps < 0, a double
root at eps = 0, and a pair +-sqrt(eps) for eps > 0.  The sweep command
walks an epsilon grid with warm-started Newton continuation and records the
branch it follows.

Run:  python3 demos/epsilon_sweep.py
"""

import csv
import math
import tempfile
from pathlib import Path

from resbvp import cli


def main():
    problem = Path(__file__).resolve().parent.parent / "problems" / "sweep_scalar.json"
    with tempfile.TemporaryDirectory(prefix="sweep_demo_") as out:
        code = cli.main(["sweep", str(problem), "--eps-min=-5e-4",
                         "--eps-max", "2e-3", "--count", "11", "-o", out])
        print(f"\nsweep exit code: {code}")

        with open(Path(out) / "branch.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    print("\n eps          exit  root   c1            sqrt(eps)")
    for row in rows:
        eps = float(row["eps"])
        ref = math.sqrt(eps) if eps > 0 else float("nan")
        print(f" {eps:12.4e}  {row['exit']:>4}  {row['root_converged']:>4}  "
              f"{float(row['c1']):12.5e}  {ref:12.5e}")
    print("\nPoints with eps < 0 exit with code 3 (no real generating root);")
    print("for eps > 0 the continued branch tracks c1 = sqrt(eps).")


if __name__ == "__main__":
    main()
