"""Per-layer tracing of ``pdwg`` from outside the package.

:class:`Tracer` replaces every public function of each ``pdwg`` module
(the names in the module's ``__all__``, plus the public methods of the
classes listed there) with a wrapper that counts calls and accumulates
total and self time.  Self time is total time minus the time spent in
wrapped callees.  The wrapper is bound everywhere the original is bound
(the defining module, every ``from .x import y`` site and the package
namespace), so calls inside one module are traced as well.

``scipy.sparse.linalg.splu`` is wrapped only as ``pdwg.solver`` sees it:
the module's ``spla`` reference is swapped for a proxy whose ``splu``
is traced as ``solver.splu`` and returns a factor whose ``solve`` is
traced as ``solver.lu_solve``.  The proxy also counts the factor fill.

Nothing is changed until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores every binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

#: The layers, one per module of the package.
MODULES = ("mesh", "polyquad", "wgspace", "assembly", "problems", "solver", "analysis", "cli")


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``pdwg.solver``."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


class _FactorProxy:
    """Stands in for a ``SuperLU`` factor; only ``solve`` is traced."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    """Call counts, total and self time per wrapped ``pdwg`` function."""

    def __init__(self):
        self.stats = {}
        self.fill = {"lu_nnz": 0, "K_nnz": 0, "n_free": 0}
        self._open = []  # wrapped-callee seconds of each active call
        self._undo = []  # (owner, attribute, original) in install order

    def reset(self):
        """Zero every counter (the wrappers stay installed)."""
        for stat in self.stats.values():
            stat.calls, stat.total_s, stat.self_s = 0, 0.0, 0.0
        for key in self.fill:
            self.fill[key] = 0

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        open_calls = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_calls.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                callees = open_calls.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - callees
                if open_calls:
                    open_calls[-1] += elapsed

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("pdwg")
        modules = {name: importlib.import_module(f"pdwg.{name}") for name in MODULES}

        wrapped = {}  # id(original) -> wrapper, for rebinding at import sites
        for layer, module in modules.items():
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._set(obj, attr, self.wrap(f"{layer}.{public}.{attr}", member))
                elif callable(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{public}", obj)

        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    self._set(namespace, attr, wrapped[id(value)])

        solver = modules["solver"]
        self._set(solver, "spla", _LinalgProxy(solver.spla, self._traced_splu(solver.spla.splu)))

    def _traced_splu(self, splu):
        fill = self.fill

        def splu_counted(A, *args, **kwargs):
            factor = splu(A, *args, **kwargs)
            fill["lu_nnz"] += int(factor.nnz)
            fill["K_nnz"] += int(A.nnz)
            fill["n_free"] += int(A.shape[0])
            return _FactorProxy(factor, self.wrap("solver.lu_solve", factor.solve))

        return self.wrap("solver.splu", splu_counted)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
