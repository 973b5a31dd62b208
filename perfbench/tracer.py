"""Outside-in span tracer for the holomimo CLI.

The tracer replaces public functions with timing wrappers at the names where
callers look them up (``holomimo.harness.eigendecompose``, not only
``holomimo.spectral.eigendecompose``), so the package sources stay untouched.
Each call records a span (name, start, end, parent span) plus optional
counts; spans stay in memory and are written once, at the end.

Run as a script to trace one CLI invocation driven through
``holomimo.cli.main``:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- nmse-sweep fig2_desk --out DIR

SPANS.json receives a list of spans with their self times; the process exits
with the CLI's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

Counter = Callable[[inspect.BoundArguments, Any], dict]


@dataclass
class Span:
    """One call of a wrapped function; `parent` indexes the enclosing span."""

    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every call of the functions handed to `wrap`.

    Single-threaded use only: the open-span stack assumes calls nest.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, module: ModuleType, attribute: str, counter: Counter | None = None) -> None:
        """Replace `module.attribute` with a wrapper recording one span per call.

        The span is named after the defining module and function, e.g.
        "correlation.build_isotropic", whichever module it is looked up in.
        `counter` maps the bound call arguments and the result to counts
        stored on the span.
        """
        original = getattr(module, attribute)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts.update(counter(signature.bind(*args, **kwargs), result))
            return result

        setattr(module, attribute, traced)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def to_json(self) -> list[dict]:
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "self_s": own,
                "counts": span.counts,
            }
            for span, own in zip(self.spans, self.self_times())
        ]


def _matrix_bytes(bound: inspect.BoundArguments, result: Any) -> dict:
    # Computed, not measured: one dense complex128 matrix per build.
    return {"matrix_bytes": 16 * result.num_antennas**2}


def _trials(bound: inspect.BoundArguments, result: Any) -> dict:
    return {"trials": bound.arguments["trials"]}


def instrument_cli(tracer: Tracer) -> None:
    """Wrap the layer boundaries a CLI run crosses, at their lookup sites."""
    from holomimo import cli, correlation, harness

    for builder in ("build_isotropic", "build_exact_clustered", "build_approx_clustered"):
        tracer.wrap(harness, builder, _matrix_bytes)
    tracer.wrap(harness, "monte_carlo_nmse", _trials)
    for name in (
        "eigendecompose",
        "subspace_containment_residual",
        "analytic_nmse",
        "save_matrix",
        "correlation_matrix_distance",
    ):
        tracer.wrap(harness, name)
    for name in (
        "load_config",
        "run_eigen_report",
        "run_nmse_sweep",
        "run_approx_validation",
        "run_export_matrix",
    ):
        tracer.wrap(cli, name)
    tracer.wrap(correlation, "cluster_reference_masses")
    tracer.wrap(cli, "main")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 1
    from holomimo import cli

    tracer = Tracer()
    instrument_cli(tracer)
    code = cli.main(argv[2:])
    Path(argv[0]).write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
