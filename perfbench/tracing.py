"""Span tracing of bohmstat's public functions, applied from outside the package.

`install(tracer)` replaces every binding of each function in TARGETS with a
timing wrapper: the attribute on the defining module and every by-name import
of it in another bohmstat module (``experiments`` imports ``evolve``,
``velocity`` and others by name, so patching the defining module alone would
miss those calls).  Spans hold a name, start, end, parent index and a few
measured quantities; they stay in memory and are written once at the end.

Leaf functions called hundreds of thousands of times (``macrostate_of``,
``partition_function``) are not stored one span per call: their call count and
time are added to the innermost open span, so tracing memory stays bounded.

Run as a script it is a traced stand-in for ``python -m bohmstat.cli``:

    python perfbench/tracing.py --spans spans.json run cfg.json --output out/

It times the fresh-interpreter ``import bohmstat.cli``, installs the wrappers,
runs the CLI in-process and writes the spans and the import time as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)
    # aggregated leaf calls: name -> [calls, seconds]
    agg: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with an explicit stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.root_agg: dict = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add_leaf(self, name: str, seconds: float) -> None:
        agg = self.spans[self._stack[-1]].agg if self._stack else self.root_agg
        entry = agg.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def to_json(self) -> dict:
        return {
            "spans": [{"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "attrs": s.attrs, "agg": s.agg}
                      for s in self.spans],
            "root_agg": self.root_agg,
        }


def spans_from_json(data: dict) -> list[Span]:
    return [Span(d["name"], d["start"], d["end"], d["parent"], d["attrs"],
                 d["agg"]) for d in data["spans"]]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans and aggregated leaf calls."""
    out = [s.duration - sum(sec for _, sec in s.agg.values()) for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


# ---------------------------------------------------------------------------
# what is wrapped, and what each call measures

def _arr_bytes(*arrays) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


def _evolve_attrs(a, result):
    psi, h = a["psi"], a["h"]
    steps = int(round((a["t_final"] - psi.time) / h.time_step))
    return {"steps": steps, "point_steps": steps * int(psi.amplitudes.size)}


def _rk4_attrs(a, result):
    paths, escaped = result
    x0 = a["x0"]
    return {"sample_substeps": int(x0.shape[0] * (len(a["frame_times"]) - 1)
                                   * a["substeps"]),
            "bytes_computed": _arr_bytes(x0, a["frame_times"], a["vflat"],
                                         paths, escaped)}


def _verlet_attrs(a, result):
    xs, ps = result
    return {"sample_steps": int(len(a["x0"]) * a["steps"]),
            "bytes_computed": _arr_bytes(a["x0"], a["p0"], xs, ps)}


def _n_attrs(a, result):
    return {"n": int(a["n"])}


def _written_attrs(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# (module, attribute, measure); an attribute "Class.method" names a classmethod
TARGETS = [
    ("bohmstat.configio", "validate_config", None),
    ("bohmstat.configio", "build_grid", None),
    ("bohmstat.configio", "build_hamiltonian", None),
    ("bohmstat.configio", "build_initial_state", None),
    ("bohmstat.schrodinger", "evolve", _evolve_attrs),
    ("bohmstat.currents", "FieldFrame.from_wavefield", None),
    ("bohmstat.currents", "velocity", None),
    ("bohmstat.subsystem", "subsystem_frame", None),
    ("bohmstat.subsystem", "reduced_density_matrix", None),
    ("bohmstat.bohmian", "sample_initial", None),
    ("bohmstat.bohmian", "integrate_trajectories", None),
    ("bohmstat.bohmian", "equivariance_distance", None),
    ("bohmstat.kernels", "rk4_paths", _rk4_attrs),
    ("bohmstat.kernels", "verlet", _verlet_attrs),
    ("bohmstat.classical_phase", "truncated_phase_velocity", None),
    ("bohmstat.classical_phase", "ensemble_average_scaling", None),
    ("bohmstat.statmech", "thermo_table", None),
    ("bohmstat.spinchain", "tfim_hamiltonian", _n_attrs),
    ("bohmstat.spinchain", "diagonalize_chain", _n_attrs),
    ("bohmstat.spinchain", "fit_beta", None),
    ("bohmstat.lattice", "write_field", _written_attrs),
    ("bohmstat.bohmian", "write_trajectories", _written_attrs),
    ("bohmstat.subsystem", "write_rdm", _written_attrs),
    ("bohmstat.classical_phase", "write_ensemble", _written_attrs),
    ("bohmstat.experiments", "_write_csv", _written_attrs),
]

# called too often to keep one span per call
LEAF_TARGETS = [
    ("bohmstat.statmech", "macrostate_of"),
    ("bohmstat.statmech", "partition_function"),
]


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('bohmstat.')}.{attr}"


def _span_wrapper(tracer, name, fn, measure):
    sig = inspect.signature(fn) if measure else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[idx].attrs.update(measure(bound.arguments, result))
        return result

    return wrapper


def _leaf_wrapper(tracer, name, fn):
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_leaf(name, clock() - t0)

    return wrapper


def _rebind(orig, wrapped) -> None:
    """Point every bohmstat module attribute bound to `orig` at `wrapped`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "bohmstat"
                               or modname.startswith("bohmstat.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding."""
    importlib.import_module("bohmstat.cli")  # pulls in every runner module
    for module, attr, measure in TARGETS:
        mod = importlib.import_module(module)
        name = span_name(module, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            func = vars(cls)[meth].__func__
            setattr(cls, meth,
                    classmethod(_span_wrapper(tracer, name, func, measure)))
        else:
            orig = getattr(mod, attr)
            _rebind(orig, _span_wrapper(tracer, name, orig, measure))
    for module, attr in LEAF_TARGETS:
        orig = getattr(importlib.import_module(module), attr)
        _rebind(orig, _leaf_wrapper(tracer, span_name(module, attr), orig))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: tracing.py --spans OUT.json <bohmstat cli args>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("bohmstat.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    root = tracer.open("cli.run")
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.close(root)
        with open(spans_path, "w") as f:
            json.dump({"import_s": import_s, **tracer.to_json()}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
