"""In-memory span tracer, attached to the solver from outside.

A span records a name, a start, an end and the index of the span that was
open when it started.  Spans are kept in memory and written out once, when
the traced iteration ends.  A span's self time is its duration minus the
durations of its children; the run is single-threaded, so children never
overlap.

``trace_solver`` rebinds the names ``viscodg.stepper`` looks up in its module
globals at call time (``factor``, ``LoadAssembler``,
``assemble_elliptic_rhs``, ``initialize`` and the two step routines), so
every call the time stepper makes into assembly and linalg is timed without
editing the solver.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        # one (rows, nnz, L.nnz + U.nnz) entry per factorization
        self.factorizations: list[tuple[int, int, int]] = []
        self.max_residual = 0.0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), float("nan"), parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total duration, total self time)."""
        out: dict[str, tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, total, self_total = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, total + span.end - span.start, self_total + own)
        return out

    def write(self, path, **header) -> None:
        doc = dict(header, factorizations=self.factorizations, spans=[asdict(s) for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


_STEPPER_NAMES = (
    "factor",
    "LoadAssembler",
    "assemble_elliptic_rhs",
    "initialize",
    "step_displacement",
    "step_velocity",
)


@contextmanager
def trace_solver(tracer: Tracer):
    """Time the stepper's calls into assembly and linalg while the block runs."""
    import viscodg.stepper as stepper

    original = {name: getattr(stepper, name) for name in _STEPPER_NAMES}

    class TracedLoadAssembler(original["LoadAssembler"]):
        def assemble(self, f=None, g_N=None):
            with tracer.span("assembly.load"):
                return super().assemble(f, g_N)

    def factor(K):
        with tracer.span("linalg.factor"):
            F = original["factor"](K)
        lu = F._lu
        tracer.factorizations.append((K.shape[0], K.nnz, lu.L.nnz + lu.U.nnz))
        solve = F.solve

        def traced_solve(b):
            with tracer.span("linalg.solve"):
                x = solve(b)
            # the solver checks this residual and then drops it; recompute it
            # in a span of its own so it counts as tracing cost
            with tracer.span("trace.residual"):
                nb = np.linalg.norm(b)
                if nb > 0:
                    res = float(np.linalg.norm(F.matrix @ x - b) / nb)
                    tracer.max_residual = max(tracer.max_residual, res)
            return x

        F.solve = traced_solve
        return F

    replacements = {
        "factor": factor,
        "LoadAssembler": TracedLoadAssembler,
        "assemble_elliptic_rhs": tracer.wrap("assembly.elliptic_rhs", original["assemble_elliptic_rhs"]),
        "initialize": tracer.wrap("stepper.initialize", original["initialize"]),
        "step_displacement": tracer.wrap("stepper.step", original["step_displacement"]),
        "step_velocity": tracer.wrap("stepper.step", original["step_velocity"]),
    }
    for name, value in replacements.items():
        setattr(stepper, name, value)
    try:
        yield tracer
    finally:
        for name, value in original.items():
            setattr(stepper, name, value)
