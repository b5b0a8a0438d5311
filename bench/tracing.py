"""Spans around the library's public stage functions, recorded from outside.

`instrument(tracer)` swaps each stage function (and the LinearBVP methods)
for a wrapper that records a span, and wraps the (Z, Z_du) callables that
problem parsing returns so that every call is counted, timed and attributed
to the spans open at the time.  Nothing inside the library changes; the
originals are restored on exit.  Spans live in memory only.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from resbvp import cli, linear, nonlinear, problem_io


class _Span:
    __slots__ = ("name", "child_s", "z", "zdu")

    def __init__(self, name):
        self.name, self.child_s, self.z, self.zdu = name, 0.0, 0, 0


class Tracer:
    """Accumulates span time and Z / Z_du counts per span name.

    A span nested in one of the same name (parse inside load) is not counted
    again.  `self_s[name]` is a span's time minus that of its direct children.
    """

    def __init__(self):
        self.seconds = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        outermost = all(s.name != name for s in self._stack)
        s = _Span(name)
        self._stack.append(s)
        start = perf_counter()
        try:
            yield s
        finally:
            dt = perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_s += dt
            if outermost:
                self.seconds[name] += dt
                self.self_s[name] += dt - s.child_s
                self.counts[name + ":Z"] += s.z
                self.counts[name + ":Zdu"] += s.zdu

    def _timed_call(self, key, fn):
        @functools.wraps(fn)
        def wrapper(z, n, eps):
            start = perf_counter()
            try:
                return fn(z, n, eps)
            finally:
                self.seconds[key] += perf_counter() - start
                self.counts[key] += 1
                for s in self._stack:
                    if key == "Z":
                        s.z += 1
                    else:
                        s.zdu += 1
        return wrapper

    def wrap_nonlinearity(self, problem):
        if problem.nonlinearity is not None:
            Z, Z_du = problem.nonlinearity
            problem.nonlinearity = (self._timed_call("Z", Z), self._timed_call("Zdu", Z_du))


def _stage(tracer, name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result, span)
        return result
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    def newton_done(root, span):
        # GeneratingRoot.iterations reads max_iter when Newton stalls early, so
        # steps, and the Z calls they are compared with, come from converged
        # roots only.
        if root.converged:
            tracer.counts["newton_steps"] += root.iterations
            tracer.counts["newton_converged_Z"] += span.z

    def iterate_done(result, span):
        tracer.counts["rounds"] += len(result[1].records)

    def parsed(problem, span):
        tracer.wrap_nonlinearity(problem)

    load = _stage(tracer, "problem_io.load", problem_io.load_problem)
    patches = [
        (problem_io, "parse_problem",
         _stage(tracer, "problem_io.load", problem_io.parse_problem, parsed)),
        (problem_io, "load_problem", load),
        (cli, "load_problem", load),
        (linear.LinearBVP, "__init__", _stage(tracer, "linear.build", linear.LinearBVP.__init__)),
        (linear.LinearBVP, "solve", _stage(tracer, "linear.family", linear.LinearBVP.solve)),
        (nonlinear, "verify_derivative",
         _stage(tracer, "nonlinear.verify_derivative", nonlinear.verify_derivative)),
        (nonlinear, "solve_generating",
         _stage(tracer, "nonlinear.newton", nonlinear.solve_generating, newton_done)),
        (nonlinear, "assemble_B0", _stage(tracer, "nonlinear.B0", nonlinear.assemble_B0)),
        (nonlinear, "check_sufficient",
         _stage(tracer, "nonlinear.gate", nonlinear.check_sufficient)),
        (nonlinear, "iterate", _stage(tracer, "nonlinear.iterate", nonlinear.iterate,
                                      iterate_done)),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, untraced_s: float,
                  bytes_written: int) -> dict:
    """Per-operation per-layer numbers, named as BENCHMARK.json names them."""
    sec, cnt = tracer.seconds, tracer.counts
    rounds, steps = cnt["rounds"], cnt["newton_steps"]
    per_op = {
        "nonlinear.iterate_s": sec["nonlinear.iterate"],
        "nonlinear.rounds": rounds,
        "nonlinear.iterate_Z_calls": cnt["nonlinear.iterate:Z"],
        "lotka_volterra.Z_s": sec["Z"],
        "lotka_volterra.Z_calls": cnt["Z"],
        "lotka_volterra.Zdu_s": sec["Zdu"],
        "lotka_volterra.Zdu_calls": cnt["Zdu"],
        "nonlinear.newton_s": sec["nonlinear.newton"],
        "nonlinear.newton_steps": steps,
        "nonlinear.newton_Z_calls": cnt["nonlinear.newton:Z"],
        "nonlinear.verify_derivative_s": sec["nonlinear.verify_derivative"],
        "nonlinear.B0_s": sec["nonlinear.B0"],
        "nonlinear.B0_Zdu_calls": cnt["nonlinear.B0:Zdu"],
        "nonlinear.gate_s": sec["nonlinear.gate"],
        "linear.build_s": sec["linear.build"],
        "linear.family_s": sec["linear.family"],
        "problem_io.load_s": sec["problem_io.load"],
        "cli.self_s": sum(v for k, v in tracer.self_s.items() if k.startswith("cli.")),
        "cli.bytes_written": bytes_written,
        "cli.solve_linear_s": sec["cli.solve-linear"],
        "cli.solve_nonlinear_s": sec["cli.solve-nonlinear"],
        "cli.sweep_s": sec["cli.sweep"],
        "cli.verify_s": sec["cli.verify"],
    }
    out = {k: v / ops for k, v in per_op.items()}
    out["nonlinear.round_s"] = sec["nonlinear.iterate"] / rounds if rounds else 0.0
    out["nonlinear.Z_calls_per_round"] = cnt["nonlinear.iterate:Z"] / rounds if rounds else 0.0
    out["nonlinear.newton_Z_calls_per_step"] = (cnt["newton_converged_Z"] / steps
                                                if steps else 0.0)
    out["trace.traced_solve_s"] = traced_s
    out["trace.untraced_solve_s"] = untraced_s
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out
