"""Traced in-process `specfrag` run: spans around each layer's public calls.

Run as a script in a fresh interpreter:

    python3 perfbench/tracer.py --src src --spans out.json -- run --system ...

It times `import specfrag`, wraps the layer functions at the module
attributes through which `specfrag.cli` and the system modules call them,
runs `cli.main` with the given arguments and writes the spans (name, start,
end, parent, thread, attributes) to the --spans file at exit. Spans live in
memory until then. Afterwards it solves every matrix the run decomposed
once more with a bare `numpy.linalg.eigh`, the reference for the cost of
the validated solver. The program itself is not modified.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder. Each span knows its parent: the innermost
    open span of its thread, or an explicit parent for work handed to a
    pool thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args=(), kwargs=None, parent: int | None = None, attrs=None):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": threading.get_ident(),
                    "attrs": attrs or {},
                }
            )

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace owner.attr by a traced version; attrs(*args) may add
        span attributes computed from the call's arguments."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else None
            return self.call(name, fn, args, kwargs, attrs=extra)

        setattr(owner, attr, traced)


def install(tracer: Tracer, captured: list) -> None:
    """Wrap the layer functions of an imported specfrag. Names are
    `<module>.<function>`; `captured` collects the matrices eigh sees."""
    from concurrent.futures import ThreadPoolExecutor

    import specfrag.cli as cli
    import specfrag.henon_heiles as hh
    import specfrag.kepler as kep
    import specfrag.metrics as met

    for fn in ("enumerate_basis", "build_v", "build_h"):
        tracer.wrap(hh, fn, f"henon_heiles.{fn}")
    for fn in ("enumerate_parabolic_basis", "build_rho2", "build_h"):
        tracer.wrap(kep, fn, f"kepler.{fn}")

    def eigh_attrs(m):
        captured.append(m.entries)
        return {"dim": m.dim}

    tracer.wrap(cli, "eigh", "linalg.eigh", eigh_attrs)
    tracer.wrap(cli, "projection_onto_subset", "linalg.projection_onto_subset")
    tracer.wrap(met, "projection_onto_subset", "linalg.projection_onto_subset")
    for fn in ("w_perturbative", "select_eigenstates"):
        tracer.wrap(met, fn, f"metrics.{fn}")
    for fn in ("strength_function", "spreading_width", "critical_parameter"):
        tracer.wrap(cli, fn, f"metrics.{fn}")
    for fn in ("run", "_run_henon_heiles", "_run_kepler", "_write_csv"):
        tracer.wrap(cli, fn, f"cli.{fn.lstrip('_')}")

    class TracedPool(ThreadPoolExecutor):
        """The scan's pool: one `cli.scan` span over the whole map and one
        `cli.point` span per scan point, parented to it across threads."""

        def map(self, fn, *iterables, **kwargs):
            def scan():
                scan_id = tracer.current()

                def point(*a):
                    return tracer.call("cli.point", fn, a, parent=scan_id)

                return list(ThreadPoolExecutor.map(self, point, *iterables, **kwargs))

            return iter(tracer.call("cli.scan", scan))

    cli.ThreadPoolExecutor = TracedPool


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, required=True, help="directory holding the specfrag package")
    p.add_argument("--spans", type=Path, required=True, help="JSON file the spans are written to")
    p.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments for specfrag, after --")
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    src = args.src.resolve()

    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import specfrag.cli as cli

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"specfrag imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    captured: list = []
    install(tracer, captured)
    code = tracer.call("cli.main", cli.main, (cli_args,))
    main_span = tracer.spans[-1]

    import numpy as np

    ref_s = 0.0
    for h in captured:
        t = time.perf_counter()
        np.linalg.eigh(h)
        ref_s += time.perf_counter() - t

    record = {
        "exit_code": code,
        "import_s": import_s,
        "traced_wall_s": main_span["end"] - main_span["start"],
        "solver_ref_s": ref_s,
        "spans": tracer.spans,
    }
    args.spans.write_text(json.dumps(record), encoding="utf-8")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
