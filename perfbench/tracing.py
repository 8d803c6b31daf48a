"""Span tracing of one ``satsearch`` command, installed from outside the package.

The tracer wraps the public functions of each layer module (generate, cnf,
spectral, statevector, experiment) and the functions of ``satsearch.cli``.  A
wrapper is installed on every name that binds the function, in every module:
``cli`` imports ``run_sweep`` and ``build_unsat_table`` by name, and
``experiment`` and ``spectral`` import ``search_step`` by name, so patching
only the defining module would miss those calls.  The ``cli`` command handlers
are reached through its dispatch table, not through a module name, so their
inline work counts as the self time of ``cli.main``.

Spans are kept in memory and written as JSON lines when the command ends.
Only the thread that installed the tracer records spans, so worker threads of
an enumeration cannot corrupt the parent chain.

Run as a script, this module is the traced child process:

    python3 perfbench/tracing.py --spans spans.jsonl -- run -f inst.cnf -o out.json
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

LAYERS = ("generate", "cnf", "spectral", "statevector", "experiment", "cli")

# search_step reads the state and the phase vector and writes their product,
# then reads the product for the sum and reads and writes it again for the
# subtraction: six passes over arrays of 16-byte complex amplitudes.
SEARCH_STEP_BYTES_PER_AMPLITUDE = 6 * 16


class Tracer:
    """Records (id, parent, layer, name, start, end) spans on one thread."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.origin = time.perf_counter_ns()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        annotate = _ANNOTATORS.get((layer, name))
        measure_memory = (layer, name) == ("cnf", "build_unsat_table")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self.thread:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "layer": layer,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            if annotate is not None:
                span.update(annotate(args, kwargs))
            if measure_memory:
                tracemalloc.start()
            span["start_ns"] = time.perf_counter_ns() - self.origin
            try:
                return fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns() - self.origin
                if measure_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _formula_size(args, kwargs) -> dict:
    formula = args[0] if args else kwargs["formula"]
    return {"n": formula.n, "m": formula.m}


def _state_size(args, kwargs) -> dict:
    state = args[0] if args else kwargs["state"]
    return {"amplitudes": int(state.shape[0])}


_ANNOTATORS = {
    ("cnf", "build_unsat_table"): _formula_size,
    ("statevector", "search_step"): _state_size,
}


def _is_traced(layer: str, name: str) -> bool:
    if layer == "cli":
        return name != "entrypoint"
    return not name.startswith("_")


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function with its wrapper."""
    modules = {layer: importlib.import_module(f"satsearch.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and _is_traced(layer, name)
            ):
                wrapped[id(obj)] = tracer.wrap(layer, name, obj)
    for module in [importlib.import_module("satsearch"), *modules.values()]:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])


def read_spans(path: Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover, in seconds.

    Spans come from one thread, so siblings never overlap and the covered time
    is the sum of the children's durations.
    """
    covered = {span["id"]: 0 for span in spans}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end_ns"] - span["start_ns"]
    return {
        span["id"]: (span["end_ns"] - span["start_ns"] - covered[span["id"]]) / 1e9
        for span in spans
    }


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 3 or args[0] != "--spans" or args[2] != "--":
        print("usage: tracing.py --spans <file> -- <satsearch arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = Path(args[1]), args[3:]
    tracer = Tracer()
    install(tracer)
    from satsearch import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
