"""Run one wassersurf CLI command in this process with timing hooks.

The benchmark times the real CLI (``python -m wassersurf.cli``).  This
script runs the same ``cli.main`` with one of two sets of hooks, installed
by replacing module attributes where callers look them up, so nothing
under ``src/`` is edited:

``setup <stop> <cli args...>``
    Set-up probe.  Prints ``time.monotonic()`` at the moment the command
    reaches its main work and exits at once.  ``minimize`` stops a solve
    when the solver is entered (config parsed, boundary and initial field
    built); ``load`` stops a verify when it starts reading the surface
    (config parsed).  The caller subtracts its own spawn time.

``trace <spans.json> <cli args...>``
    Traced run.  Wraps the public functions of the traced modules and
    writes every span ``[name, start, end, parent, bytes]`` (seconds from
    ``time.perf_counter``; parent is a span index or -1; bytes is the file
    size for the grid save/load functions) plus the import time of
    ``wassersurf.cli`` to ``spans.json`` when the command ends.
"""

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

TRACED_MODULES = ("analytic", "area", "cli", "densities", "gaussian", "grid", "solver")

# Per-level scalar helpers called hundreds of times inside one quantile
# assembly.  A span around each call would cost more than the call; their
# time stays in the self time of the function that calls them.
UNTRACED = {"densities": {"cdf", "pdf", "quantile", "standard_normal_quantile"}}

# Functions whose span records the size of the file they write or read,
# and which positional argument holds the path.
FILE_ARG = {"save_csv": 1, "save_json": 1, "load_csv": 0, "load_json": 0}


def _wassersurf_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "wassersurf" or n.startswith("wassersurf."))]


def _replace_everywhere(replacements: dict) -> None:
    """Rebind every wassersurf module attribute whose value is a key of ``replacements``."""
    by_id = {id(fn): new for fn, new in replacements.items()}
    for module in _wassersurf_modules():
        for attr, value in list(vars(module).items()):
            new = by_id.get(id(value))
            if new is not None:
                setattr(module, attr, new)


def _stop_here(*_args, **_kwargs):
    sys.stdout.write(f"{time.monotonic()!r}\n")
    sys.stdout.flush()
    os._exit(0)


def run_setup_probe(stop: str, argv: list) -> int:
    import wassersurf.cli as cli
    from wassersurf import grid, solver

    stops = {"minimize": [solver.minimize], "load": [grid.load_csv, grid.load_json]}
    if stop not in stops:
        raise SystemExit(f"unknown stop point {stop!r}")
    _replace_everywhere({fn: _stop_here for fn in stops[stop]})
    return cli.main(argv)


class Tracer:
    """Spans kept in memory; a span's parent is the innermost open span."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn, file_arg=None, by_type=False):
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if by_type:
                # quantiles(d, zs): one span name per density type
                span_name = f"{name}.{type(args[0]).__name__.removesuffix('Density').lower()}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                nbytes = 0
                if file_arg is not None and len(args) > file_arg:
                    try:
                        nbytes = Path(args[file_arg]).stat().st_size
                    except OSError:
                        pass  # the command failed before writing; its gate reports it
                spans[index] = [span_name, start, end, parent, nbytes]

        return traced

    def install(self) -> None:
        """Wrap public functions of the traced modules in every wassersurf namespace."""
        wrappers = {}
        for layer in TRACED_MODULES:
            module = sys.modules[f"wassersurf.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or attr in UNTRACED.get(layer, ())
                ):
                    continue
                wrappers[fn] = self.wrap(
                    f"{layer}.{attr}",
                    fn,
                    file_arg=FILE_ARG.get(attr) if layer == "grid" else None,
                    by_type=(layer, attr) == ("densities", "quantiles"),
                )
        _replace_everywhere(wrappers)


def run_traced(spans_path: str, argv: list) -> int:
    start = time.perf_counter()
    import wassersurf.cli as cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        doc = {"import_ms": import_ms, "spans": [s for s in tracer.spans if s is not None]}
        Path(spans_path).write_text(json.dumps(doc))


def main(args: list) -> int:
    if len(args) < 3 or args[0] not in ("setup", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    if args[0] == "setup":
        return run_setup_probe(args[1], args[2:])
    return run_traced(args[1], args[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
