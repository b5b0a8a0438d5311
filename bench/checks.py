"""Output checks that do not use the solver's own code.

The residuals of an emitted trajectory are recomputed here from the problem
JSON and the trajectory CSV with plain numpy, so a defect in the library's
residual functions cannot hide a wrong trajectory.  Only the problem-file
features that the benchmark's inputs use are supported; anything else is
reported as a check failure rather than skipped.
"""

from __future__ import annotations

import csv
import math

import numpy as np

RESIDUAL_TOL = 1e-8        # the solver's default residual tolerance, scaled by 1 + max|z|
REPORT_AGREEMENT = 1e-9    # recomputed residual vs the value report.json records
REFERENCE_TOL = 1e-12      # max |z - z_ref| at the default seed (ROADMAP rule)


class CheckError(Exception):
    """An output failed a correctness check."""


def read_trajectory(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "n":
        raise CheckError(f"{path}: not a trajectory CSV")
    z = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    if [int(row[0]) for row in rows[1:]] != list(range(len(rows) - 1)):
        raise CheckError(f"{path}: time index column is not 0..m")
    return z


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def system_matrices(doc: dict) -> np.ndarray:
    """A_0..A_{m-1} as an (m, N, N) array."""
    N, m, sysdoc = doc["dim"], doc["horizon"], doc["system"]
    kind = sysdoc["type"]
    if kind == "identity":
        A = np.eye(N)
    elif kind == "fibonacci":
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
    elif kind == "rotation":
        A = _rotation(float(sysdoc["theta"]))
    elif kind == "block":
        p = N // 2
        A = np.zeros((N, N))
        idx = np.arange(p)
        for name, (r0, c0) in zip("abcd", ((0, 0), (0, p), (p, 0), (p, p))):
            A[r0 + idx, c0 + idx] = np.broadcast_to(np.asarray(sysdoc[name], float), (p,))
    else:
        raise CheckError(f"independent check does not support system type '{kind}'")
    return np.broadcast_to(A, (m, N, N))


def forcing(doc: dict) -> np.ndarray:
    N, m, f = doc["dim"], doc["horizon"], doc.get("forcing", "zero")
    if isinstance(f, str):
        return np.zeros((m, N))
    return np.asarray(f, dtype=float)[:m]


def boundary(doc: dict):
    """(weights, target): l z = sum_n W[n] z(n) as an (m+1, q, N) array."""
    N, m, bdoc = doc["dim"], doc["horizon"], doc["boundary"]
    kind = bdoc["type"]
    if kind == "periodic":
        W = np.zeros((m + 1, N, N))
        W[m] += np.eye(N)
        W[0] -= np.eye(N)
        return W, np.zeros(N)
    if kind == "multipoint":
        groups = bdoc["groups"]
        W = np.zeros((m + 1, len(groups), N))
        for row, g in enumerate(groups):
            for n in g["points"]:
                for comp in g["components"]:
                    W[n, row, comp] += 1.0
        return W, np.asarray(bdoc["targets"], dtype=float)
    raise CheckError(f"independent check does not support boundary type '{kind}'")


def nonlinearity(doc: dict):
    """Z as a function of the stacked states z[0..m-1] (shape (m, N)) and eps."""
    N, ndoc = doc["dim"], doc.get("nonlinearity") or {"type": "none"}
    kind = ndoc["type"]
    if kind == "none":
        return lambda z, eps: np.zeros_like(z)
    if kind == "lotka_volterra":
        p = N // 2
        g1 = np.broadcast_to(np.asarray(ndoc.get("g1", 1.0), float), (p,))
        g2 = np.broadcast_to(np.asarray(ndoc.get("g2", 1.0), float), (p,))
        a = np.asarray(ndoc.get("a", 1.0), float)
        b = np.asarray(ndoc.get("b", 1.0), float)
        a = np.full((p, p), float(a)) if a.ndim == 0 else a
        b = np.full((p, p), float(b)) if b.ndim == 0 else b
        t = a.shape[1]

        def lv(z, eps):
            x, y = z[:, :p], z[:, p:]
            return np.hstack([g1 * x * (1.0 - y[:, :t] @ a.T),
                              g2 * y * (1.0 - x[:, :t] @ b.T)])
        return lv
    if kind == "polynomial":
        coeffs = [float(c) for c in ndoc["coeffs"]]
        grad = np.asarray(ndoc.get("eps_gradient") or np.zeros(N), float)
        return lambda z, eps: sum(c * z ** k for k, c in enumerate(coeffs)) + eps * grad
    raise CheckError(f"independent check does not support nonlinearity '{kind}'")


def residuals(doc: dict, z: np.ndarray, kind: str) -> tuple[float, float]:
    """(recurrence, boundary) residual of trajectory z of the given report kind.

    kind 'solution': z(n+1) = A z(n) + f(n) + eps Z(z(n)), l z = alpha;
    'particular':    z(n+1) = A z(n) + f(n),               l z = alpha;
    'kernel':        z(n+1) = A z(n),                      l z = 0.
    """
    m, N = doc["horizon"], doc["dim"]
    if z.shape != (m + 1, N):
        raise CheckError(f"trajectory shape {z.shape}, expected {(m + 1, N)}")
    A = system_matrices(doc)
    rhs = np.einsum("nij,nj->ni", A, z[:-1])
    if kind != "kernel":
        rhs += forcing(doc)
    if kind == "solution":
        eps = float(doc.get("epsilon", 0.0))
        rhs += eps * nonlinearity(doc)(z[:-1], eps)
    W, alpha = boundary(doc)
    lz = np.einsum("nqj,nj->q", W, z)
    if kind != "kernel":
        lz -= alpha
    rec = float(np.linalg.norm(z[1:] - rhs, axis=1).max())
    return rec, float(np.linalg.norm(lz))


def check_trajectory(doc: dict, entry: dict, z: np.ndarray, classification: str) -> None:
    """Recompute both residuals; they must be small and agree with the report."""
    rec, bc = residuals(doc, z, entry["kind"])
    scale = 1.0 + float(np.abs(z).max())
    for name, ours in (("recurrence_residual", rec), ("boundary_residual", bc)):
        reported = float(entry[name])
        if abs(ours - reported) > REPORT_AGREEMENT * (1.0 + abs(reported)):
            raise CheckError(f"{name}: report says {reported:.3e}, recomputed {ours:.3e}")
    if rec > RESIDUAL_TOL * scale:
        raise CheckError(f"recurrence residual {rec:.3e} above {RESIDUAL_TOL:g} x {scale:.3g}")
    # A quasisolution is a least-squares answer: its boundary defect is the point.
    if bc > RESIDUAL_TOL * scale and not (entry["kind"] == "particular"
                                           and classification == "quasisolution"):
        raise CheckError(f"boundary residual {bc:.3e} above {RESIDUAL_TOL:g} x {scale:.3g}")


def check_reference(z: np.ndarray, ref: np.ndarray) -> None:
    if z.shape != ref.shape:
        raise CheckError(f"shape {z.shape} differs from reference {ref.shape}")
    dev = float(np.abs(z - ref).max())
    if dev > REFERENCE_TOL:
        raise CheckError(f"deviates from the reference trajectory by {dev:.3e}")
