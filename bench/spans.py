"""Span tracing of meanbounds layers, installed from outside the program.

A :class:`Tracer` replaces the functions of each layer module with timing
wrappers at every binding site: the defining module, every module that
imported the function by name (``from .quadrature import integrate``) and
the package namespace.  Calls made through module attributes (``sc.``,
``cvx.``, ``ops.``, ``bnd.`` in ``harness``) and internal calls inside a
module both resolve through those bindings, so both are traced.  Functions
held in other containers (the CLI's ``SCALAR_MEANS`` table, the integrand
lambdas of ``convex.BUILTINS``) are not wrapped; their time counts as the
self time of the span that calls them.

A span is (name, start, end, parent, run id, error flag).  Spans live in
flat arrays until the run ends.  ``numpy.linalg.eigh``/``eigvalsh`` are
recorded as *extern* spans: they are counted, also per operator chain,
but their time stays in the self time of the layer that called them.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("scalar", "quadrature", "convex", "bounds", "operators", "reports", "harness", "cli")
EXTERN = "numpy"

# private functions that another layer calls directly
_PRIVATE_ENTRY_POINTS = {
    "operators": ("_representing_terms",),
    "harness": ("_representing_grid",),
}
# hand-written constructors worth a span of their own
_CONSTRUCTORS = {"operators": ("SpdMatrix",)}
_EXTERN_FUNCTIONS = ("eigh", "eigvalsh")


class Tracer:
    """Owns the span arrays, the installed wrappers and their originals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.error = array("b")
        self._stack: list[int] = []
        self._open_chains = 0
        self.run_id = -1
        self.counters: dict[int, Counter] = {}
        self.ranges: dict[int, tuple[int, int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount=1):
        self.counters[self.run_id][key] += amount

    def _call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.error.append(0)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.error[sid] = 1
            raise
        finally:
            self.end[sid] = perf_counter()
            stack.pop()

    def _wrapper(self, name: str, fn):
        nid = self._intern(name)
        tracer = self

        if name == "quadrature.integrate":
            def traced(integrand, *args, **kwargs):
                def counted(x):
                    tracer.count("quadrature.evals", np.size(x))
                    tracer.count("quadrature.levels")
                    return integrand(x)
                return tracer._call(nid, fn, (counted,) + args, kwargs)
        elif name == "scalar.log_mean_unit":
            def traced(t, *args, **kwargs):
                tracer.count("scalar.log_mean_unit.points", np.size(t))
                return tracer._call(nid, fn, (t,) + args, kwargs)
        elif name == "operators.operator_chain":
            def traced(a, *args, **kwargs):
                dim_nid = tracer._intern(f"{name}.d{a.dim}")
                tracer._open_chains += 1
                try:
                    return tracer._call(dim_nid, fn, (a,) + args, kwargs)
                finally:
                    tracer._open_chains -= 1
        elif name.startswith(f"{EXTERN}."):
            def traced(*args, **kwargs):
                if tracer._open_chains:
                    tracer.count("operators.operator_chain.eig_calls")
                return tracer._call(nid, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer._call(nid, fn, args, kwargs)

        return traced

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr, value):
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self, run_id: int):
        """Wrap every layer function at every binding site; spans get ``run_id``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        if run_id in self.ranges:
            raise ValueError(f"run id {run_id} already recorded")
        self.run_id = run_id
        self.counters[run_id] = Counter()
        self.ranges[run_id] = (len(self.name), len(self.name))
        try:
            self._install_wrappers()
        except BaseException:
            self.uninstall()
            raise

    def _install_wrappers(self):
        package, modules = _modules()
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr in _PRIVATE_ENTRY_POINTS.get(layer, ())
                ):
                    wrappers[obj] = self._wrapper(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    self._wrap_methods(layer, obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for attr in _EXTERN_FUNCTIONS:
            self._set(np.linalg, attr, self._wrapper(f"{EXTERN}.linalg.{attr}",
                                                     getattr(np.linalg, attr)))

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__" and cls.__name__ in _CONSTRUCTORS.get(layer, ()):
                self._set(cls, attr, self._wrapper(f"{layer}.{cls.__name__}", raw))
            elif attr.startswith("_"):
                continue
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrapper(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrapper(name, raw))

    def uninstall(self):
        """Restore every binding replaced by :meth:`install`, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.ranges[self.run_id] = (self.ranges[self.run_id][0], len(self.name))
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")

    @contextmanager
    def installed(self, run_id: int):
        self.install(run_id)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------

    def save(self, path):
        """Write every span as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{field: np.frombuffer(getattr(self, field), dtype=getattr(self, field).typecode)
               for field in ("name", "start", "end", "parent", "run", "error")},
        )


class Spans:
    """Spans of one run id with durations, self times and layer tags."""

    layers = LAYERS

    def __init__(self, tracer: Tracer, run_id: int):
        lo, hi = tracer.ranges[run_id]
        self._names = tracer.names
        self._layer_names = list(LAYERS) + [EXTERN]
        self.name = np.array(tracer.name[lo:hi], dtype=np.int32)
        start = np.array(tracer.start[lo:hi], dtype=float)
        self.dur = np.array(tracer.end[lo:hi], dtype=float) - start
        self.error = np.array(tracer.error[lo:hi], dtype=np.int8)
        parent = np.array(tracer.parent[lo:hi], dtype=np.int32)
        self.parent = np.where(parent >= 0, parent - lo, -1)
        layer_of_name = [self._layer_names.index(n.split(".", 1)[0]) for n in self._names]
        self.layer = np.array(layer_of_name, dtype=np.int32)[self.name]
        # a child's time leaves its parent's self time unless the child is extern
        inner = (self.parent >= 0) & (self.layer != self._layer_names.index(EXTERN))
        covered = np.bincount(self.parent[inner], weights=self.dur[inner],
                              minlength=len(self.name))
        self.self_time = self.dur - covered
        self.counters = tracer.counters[run_id]

    def _mask(self, names) -> np.ndarray:
        return np.isin(self.name, [i for i, n in enumerate(self._names) if n in names])

    def self_seconds(self, layer: str) -> float:
        return float(self.self_time[self.layer == self._layer_names.index(layer)].sum())

    def calls(self, *names) -> int:
        return int(self._mask(names).sum())

    def errors(self, *names) -> int:
        return int(self.error[self._mask(names)].sum())

    def total_seconds(self, *names) -> float:
        return float(self.dur[self._mask(names)].sum())

    def mean_us(self, *names) -> float:
        mask = self._mask(names)
        return float(self.dur[mask].mean() * 1e6) if mask.any() else 0.0

    def entries(self, layer: str) -> int:
        """Spans of ``layer`` entered from another layer or from no span."""
        code = self._layer_names.index(layer)
        parents = self.parent[self.layer == code]
        return int(((parents < 0) | (self.layer[parents] != code)).sum())


def _modules():
    package = importlib.import_module("meanbounds")
    return package, {layer: importlib.import_module(f"meanbounds.{layer}") for layer in LAYERS}


def bindings() -> dict:
    """Identity of every attribute the tracer may replace, to prove restoration."""
    package, modules = _modules()
    out = {}
    for mod in (package, *modules.values()):
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = id(obj)
            if inspect.isclass(obj):
                for cattr, raw in vars(obj).items():
                    out[(mod.__name__, attr, cattr)] = id(raw)
    for attr in _EXTERN_FUNCTIONS:
        out[("numpy.linalg", attr)] = id(getattr(np.linalg, attr))
    return out
