"""Problem-file schema: JSON documents describing a full boundary-value
problem (system generator, forcing, boundary condition, optional
nonlinearity, tolerances, solver options).

Parsing is strict: unknown generator/boundary/nonlinearity types, unknown
keys at any level, shape mismatches, non-numeric or non-finite values and
negative tolerances or caps raise ProblemFormatError with the offending
field named. The canonical dict round-trips: parse(dump(p)) equals p field
for field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import boundary as bd
from .fibonacci import FIB_MATRIX
from .linear import OperatorSequence
from .lotka_volterra import LotkaVolterraSpec, lv_callables

__all__ = ["ProblemFormatError", "Problem", "parse_problem", "load_problem",
           "canonical_json", "json_text", "rotation_matrix"]

# the most doubles one numpy array holds: numpy refuses a larger shape
# (a ValueError) before it allocates anything
MAX_DOUBLES = np.iinfo(np.intp).max // 8

DEFAULT_TOLERANCES = {
    "classification": 1e-9,
    "rank": 1e-10,
    "newton": 1e-10,
    "iteration": 1e-10,
    "residual": 1e-8,
}

DEFAULT_SOLVER = {
    "c_init": None,
    "max_iter": 200,
    "newton_max_iter": 50,
    "blowup": 1e6,
}


class ProblemFormatError(ValueError):
    """Schema violation in a problem document."""


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass
class Problem:
    """Parsed problem: assembled objects plus the canonical source document."""

    system: OperatorSequence
    forcing: np.ndarray
    boundary: bd.BoundaryOperator
    nonlinearity: tuple | None        # (Z, Z_du) callables
    epsilon: float
    tolerances: dict
    solver: dict
    canonical: dict = field(repr=False)


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ProblemFormatError(f"{where}: missing required field '{key}'")
    return doc[key]


def _as_float_array(value, shape, where: str) -> np.ndarray:
    """Finite float array; of the given shape unless ``shape`` is None. A
    JSON boolean or string is refused, not read as 0 or 1 or parsed."""
    try:
        arr = np.asarray(value)  # no dtype: a string cell gives kind U (O past int64)
        text = arr.dtype.kind in "US" or arr.dtype.kind == "O" and str in set(map(type, arr.flat))
        arr = arr if text else arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: not a numeric array") from exc
    except OverflowError as exc:  # a JSON integer past the largest double
        raise ProblemFormatError(f"{where}: {exc}") from exc
    if text:
        raise ProblemFormatError(f"{where}: expected a number, got a string")
    if shape is not None and arr.shape != shape:
        raise ProblemFormatError(f"{where}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"{where}: entries must be finite")
    # a boolean reads as 0.0 or 1.0, so only an array holding one is scanned
    if ((arr == 0.0) | (arr == 1.0)).any():
        cells = [value]
        for _ in range(arr.ndim):
            cells = chain.from_iterable(cells)
        if bool in set(map(type, cells)):
            raise ProblemFormatError(f"{where}: expected a number, got a boolean")
    return arr


def _scalar(value, where: str, kind=float):
    """A finite float, or with kind=int an integral number, as ``kind``.
    A finite JSON number takes float(), the value a 0-d array would hold,
    at a tenth of the cost or less; anything else (a boolean among them),
    and every refusal, takes _as_float_array."""
    try:
        x = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer past the largest double
        x = math.nan
    if not math.isfinite(x):
        x = float(_as_float_array(value, (), where))
    if kind is int and x != int(x):
        raise ProblemFormatError(f"{where}: expected an integer, got {value!r}")
    return kind(x)


def _known(doc: dict, where: str, *fields: str) -> None:
    """Reject the first key of ``doc`` that is not one of ``fields``."""
    for key in doc:
        if key not in fields:
            raise ProblemFormatError(f"{where}: unknown field '{key}'")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    return dict(value)


def _array(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ProblemFormatError(f"{where}: expected an array")
    return list(value)


def _parse_system(doc: dict, dim: int, m: int) -> OperatorSequence:
    kind = _need(doc, "type", "system")
    if kind == "identity":
        _known(doc, "system", "type")
        return OperatorSequence.identity(dim, m)
    if kind == "fibonacci":
        _known(doc, "system", "type")
        if dim != 2:
            raise ProblemFormatError("system: fibonacci generator requires dim = 2")
        return OperatorSequence.constant(FIB_MATRIX, m)
    if kind == "rotation":
        _known(doc, "system", "type", "theta")
        if dim != 2:
            raise ProblemFormatError("system: rotation generator requires dim = 2")
        theta = _scalar(_need(doc, "theta", "system"), "system.theta")
        return OperatorSequence.constant(rotation_matrix(theta), m)
    if kind == "constant":
        _known(doc, "system", "type", "matrix")
        A = _as_float_array(_need(doc, "matrix", "system"), (dim, dim), "system.matrix")
        return OperatorSequence.constant(A, m)
    if kind == "explicit":
        _known(doc, "system", "type", "matrices")
        A = _as_float_array(_need(doc, "matrices", "system"), (m, dim, dim), "system.matrices")
        return OperatorSequence(A)
    if kind == "block":
        _known(doc, "system", "type", "a", "b", "c", "d")
        if dim % 2:
            raise ProblemFormatError("system: block generator requires even dim")
        p = dim // 2
        seqs = {}
        for name in ("a", "b", "c", "d"):
            raw = _as_float_array(_need(doc, name, "system"), None, f"system.{name}")
            if raw.shape == (p,):
                raw = np.broadcast_to(raw, (m, p)).copy()
            if raw.shape != (m, p):
                raise ProblemFormatError(
                    f"system.{name}: expected shape ({p},) or ({m}, {p}), got {raw.shape}")
            seqs[name] = raw
        A = np.zeros((m, dim, dim))
        idx = np.arange(p)
        A[:, idx, idx] = seqs["a"]
        A[:, idx, idx + p] = seqs["b"]
        A[:, idx + p, idx] = seqs["c"]
        A[:, idx + p, idx + p] = seqs["d"]
        return OperatorSequence(A)
    raise ProblemFormatError(f"system: unknown generator type '{kind}'")


def _parse_boundary(doc: dict, dim: int, m: int) -> bd.BoundaryOperator:
    kind = _need(doc, "type", "boundary")
    if kind == "periodic":
        _known(doc, "boundary", "type")
        return bd.periodic(dim, m)
    if kind == "initial_mass":
        _known(doc, "boundary", "type")
        if dim % 2:
            raise ProblemFormatError("boundary: initial_mass requires even dim")
        return bd.initial_mass(dim // 2)
    if kind == "multipoint":
        _known(doc, "boundary", "type", "groups", "targets")
        groups_doc = _array(_need(doc, "groups", "boundary"), "boundary.groups")
        targets = _as_float_array(_need(doc, "targets", "boundary"), None, "boundary.targets")
        groups = []
        for i, g in enumerate(groups_doc):
            where = f"boundary.groups[{i}]"
            g = _object(g, where)
            _known(g, where, "components", "points")
            comps = [_scalar(x, where, int)
                     for x in _array(_need(g, "components", where), f"{where}.components")]
            points = [_scalar(x, where, int)
                      for x in _array(_need(g, "points", where), f"{where}.points")]
            for n in points:
                if not 0 <= n <= m:
                    raise ProblemFormatError(f"{where}: point {n} outside window [0, {m}]")
            groups.append((comps, points))
        try:
            return bd.multipoint(dim, groups, targets)
        except ValueError as exc:
            raise ProblemFormatError(f"boundary: {exc}") from exc
    if kind == "generic":
        _known(doc, "boundary", "type", "samples", "target")
        samples_doc = _array(_need(doc, "samples", "boundary"), "boundary.samples")
        target = _as_float_array(_need(doc, "target", "boundary"), None,
                                 "boundary.target").reshape(-1)
        q = target.shape[0]
        samples = []
        for i, s in enumerate(samples_doc):
            s = _object(s, f"boundary.samples[{i}]")
            _known(s, f"boundary.samples[{i}]", "point", "weights")
            n = _scalar(_need(s, "point", f"boundary.samples[{i}]"),
                        f"boundary.samples[{i}].point", int)
            if not 0 <= n <= m:
                raise ProblemFormatError(
                    f"boundary.samples[{i}]: point {n} outside window [0, {m}]")
            L = _as_float_array(_need(s, "weights", f"boundary.samples[{i}]"),
                                (q, dim), f"boundary.samples[{i}].weights")
            samples.append((n, L))
        try:
            return bd.generic(samples, target)
        except ValueError as exc:
            raise ProblemFormatError(f"boundary: {exc}") from exc
    raise ProblemFormatError(f"boundary: unknown type '{kind}'")


def _parse_nonlinearity(doc: dict, dim: int, m: int):
    kind = doc.get("type", "none")
    if kind == "none":
        _known(doc, "nonlinearity", "type")
        return None
    if kind == "lotka_volterra":
        _known(doc, "nonlinearity", "type", "g1", "g2", "a", "b")
        if dim % 2:
            raise ProblemFormatError("nonlinearity: lotka_volterra requires even dim")
        p = dim // 2
        def table(name, shape):
            arr = _as_float_array(doc.get(name, 1.0), None, f"nonlinearity.{name}")
            if arr.ndim == len(shape) + 1 and arr.shape[0] != m:
                raise ProblemFormatError(f"nonlinearity.{name}: time-varying table has "
                                         f"{arr.shape[0]} times, expected the horizon {m}")
            return np.full(shape, float(arr)) if arr.ndim == 0 else arr
        g1, g2 = table("g1", (p,)), table("g2", (p,))
        a, b = table("a", (p, p)), table("b", (p, p))
        try:
            spec = LotkaVolterraSpec(pairs=p, g1=g1, g2=g2, a=a, b=b)
        except ValueError as exc:
            raise ProblemFormatError(f"nonlinearity: {exc}") from exc
        return lv_callables(spec)
    if kind == "polynomial":
        _known(doc, "nonlinearity", "type", "coeffs", "eps_gradient")
        coeffs = _as_float_array(_need(doc, "coeffs", "nonlinearity"), None,
                                 "nonlinearity.coeffs").reshape(-1).tolist()
        eps_grad = doc.get("eps_gradient")
        eps_grad = np.zeros(dim) if eps_grad is None else _as_float_array(
            eps_grad, (dim,), "nonlinearity.eps_gradient")

        slopes = [k * ck for k, ck in enumerate(coeffs)][1:]

        def Z(z, n, eps):
            return _horner(coeffs, np.asarray(z, dtype=float)) + eps * eps_grad

        def Z_du(z, n, eps):
            z = np.asarray(z, dtype=float)
            J = np.zeros(z.shape + z.shape[-1:])
            i = np.arange(z.shape[-1])
            J[..., i, i] = _horner(slopes, z)
            return J

        return Z, Z_du
    raise ProblemFormatError(f"nonlinearity: unknown type '{kind}'")


def _horner(coeffs: list, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k by Horner's rule, elementwise over z."""
    out = np.full_like(z, coeffs[-1] if coeffs else 0.0)
    for ck in reversed(coeffs[:-1]):
        out *= z
        out += ck
    return out


def _merge(defaults: dict, doc, where: str) -> dict:
    """Defaults overridden by ``doc``, each value checked against the type
    of its default and for being >= 0; c_init (default None) is None or a
    numeric array."""
    doc = _object(doc, where)
    _known(doc, where, *defaults)
    merged = {**defaults, **doc}
    for key, value in merged.items():
        if key == "c_init":
            if value is not None:
                merged[key] = _as_float_array(value, None, f"{where}.{key}").tolist()
        else:
            merged[key] = _scalar(value, f"{where}.{key}", type(defaults[key]))
            if merged[key] < 0:
                raise ProblemFormatError(f"{where}.{key}: must be >= 0, got {value!r}")
    return merged


def _canonicalize(doc: dict, source: str) -> dict:
    """Normalized copy of the document with defaults filled in and every
    scalar checked; the one place where defaults are merged."""
    _known(doc, source, "dim", "horizon", "system", "forcing", "boundary", "nonlinearity",
           "epsilon", "tolerances", "solver")
    return {
        "dim": _scalar(_need(doc, "dim", source), "dim", int),
        "horizon": _scalar(_need(doc, "horizon", source), "horizon", int),
        "system": _object(_need(doc, "system", source), "system"),
        "forcing": doc.get("forcing", "zero"),
        "boundary": _object(_need(doc, "boundary", source), "boundary"),
        "nonlinearity": _object(doc.get("nonlinearity") or {"type": "none"}, "nonlinearity"),
        "epsilon": _scalar(doc.get("epsilon", 0.0), "epsilon"),
        "tolerances": _merge(DEFAULT_TOLERANCES, doc.get("tolerances", {}), "tolerances"),
        "solver": _merge(DEFAULT_SOLVER, doc.get("solver", {}), "solver"),
    }


def parse_problem(doc: dict, source: str = "<dict>") -> Problem:
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{source}: top level must be an object")
    canonical = _canonicalize(doc, source)
    dim, m = canonical["dim"], canonical["horizon"]
    if dim < 1 or m < 1:
        raise ProblemFormatError(f"{source}: dim and horizon must be >= 1")
    if (m + 1) * dim * dim > MAX_DOUBLES:  # the transition matrices Phi(n, 0), n = 0..m
        raise ProblemFormatError(
            f"{source}: dim {dim} and horizon {m} need (horizon + 1) dim^2 doubles, "
            f"more than the {MAX_DOUBLES} one array holds")
    system = _parse_system(canonical["system"], dim, m)
    forcing_doc = canonical["forcing"]
    if isinstance(forcing_doc, str):
        if forcing_doc != "zero":
            raise ProblemFormatError(f"forcing: unknown named forcing '{forcing_doc}'")
        forcing = np.zeros((m, dim))
    else:
        arr = _as_float_array(forcing_doc, None, "forcing")
        if arr.shape not in ((m, dim), (m + 1, dim)):
            raise ProblemFormatError(
                f"forcing: expected shape ({m}, {dim}) or ({m + 1}, {dim}), got {arr.shape}")
        forcing = arr[:m]
    boundary = _parse_boundary(canonical["boundary"], dim, m)
    return Problem(
        system=system,
        forcing=forcing,
        boundary=boundary,
        nonlinearity=_parse_nonlinearity(canonical["nonlinearity"], dim, m),
        epsilon=canonical["epsilon"],
        tolerances=canonical["tolerances"],
        solver=canonical["solver"],
        canonical=canonical,
    )


def load_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # nested past the stack
        raise ProblemFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_problem(doc, source=path)


def canonical_json(problem: Problem) -> str:
    return json_text(problem.canonical) + "\n"


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) byte for byte, but with null
    for a non-finite float. Keys must be str; a type json.dumps refuses
    raises TypeError. A list of finite floats, or of equal-length rows of
    them, takes one %-format, not the stdlib's per-value Python calls."""
    return _encode(obj, "\n")


def _encode(obj, nl: str) -> str:
    """json_text(obj) at the level whose newline plus indent is ``nl``."""
    # a scalar takes the function the stdlib encoder itself uses for it (a
    # subclass such as np.float64 too), not one json.dumps call each
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if obj is None:
        return "null"
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _floats(obj, inner) or (
            "[" + inner + ("," + inner).join(_encode(v, inner) for v in obj) + nl + "]")
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _encode(v, inner)
            for k, v in sorted(obj.items())) + nl + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable "
                    "(or has a key that is not str)")


def _floats(obj, inner: str) -> str | None:
    """_encode of a list of finite floats or of equal-length rows of them."""
    rows = set(map(type, obj)) == {list} and len(set(map(len, obj))) == 1
    cells = list(chain.from_iterable(obj)) if rows else obj
    # a finite sum has finite terms; an overflowing one takes the slow path
    if set(map(type, cells)) != {float} or not math.isfinite(sum(cells)):
        return None
    item = "%r"  # float.__repr__, for exact floats only
    if rows:
        item = f"[{inner}  " + f",{inner}  ".join([item] * len(obj[0])) + f"{inner}]"
    text = "[" + inner + ("," + inner).join([item] * len(obj)) + inner[:-2] + "]"
    return text % tuple(cells)
