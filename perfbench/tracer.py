"""Spans around the library's public functions, installed from outside.

`Tracer.install` wraps every public function of every `atkernel` module,
and replaces each binding of it: `from .chaincore import compose` copies
the name into the importing module, so `semireg.compose`,
`selftest.compose` and the package's re-export are patched along with
`chaincore.compose`.  It also wraps `Poly.__mul__` and `Poly.__add__`,
`Form.__add__`, and counts `Poly`/`Form` constructions.

A span's self time is its duration minus the full duration of the spans
it caused, so the tracer's own bookkeeping (matrix statistics, counters)
is charged to no layer.  Spans and counts stay in memory; `snapshot`
returns them when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

# modules whose functions only build the corpus or run selftest groups;
# the workloads reach them during set-up, never inside a case
SKIP_MODULES = {"atkernel.corpus", "atkernel.selftest"}

WRAPPED_METHODS = [("Poly", "__mul__", "Poly.mul"), ("Poly", "__add__", "Poly.add"),
                   ("Form", "__add__", "Form.add")]
COUNTED_CONSTRUCTORS = [("Poly", "Poly.new"), ("Form", "Form.new")]


def _nnz(mat) -> int:
    return sum(1 for row in mat for v in row if v)


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import atkernel
        from atkernel import polyforms

        modules = [atkernel] + [
            importlib.import_module(f"atkernel.{info.name}")
            for info in pkgutil.iter_modules(atkernel.__path__)
        ]
        wrappers = {}
        for module in modules:
            if module.__name__ in SKIP_MODULES or module is atkernel:
                continue
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._span(f"{short}.{name}", fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, name, wrappers[id(value)][1])
        for cls_name, method, label in WRAPPED_METHODS:
            cls = getattr(polyforms, cls_name)
            self._patch(cls, method, self._span(f"polyforms.{label}", getattr(cls, method)))
        for cls_name, label in COUNTED_CONSTRUCTORS:
            cls = getattr(polyforms, cls_name)
            self._patch(cls, "__init__", self._counter(f"polyforms.{label}", cls.__init__))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- spans -------------------------------------------------------------

    def _counter(self, label, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, label, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        hook = HOOKS.get(label)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            entered = clock()
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                calls[label] += 1
                self_s[label] += (end - start) - frame[1]
            if hook is not None:
                hook(self, args, result)
            if stack:
                stack[-1][1] += clock() - entered
            return result

        return wrapper

    def inside(self, label: str) -> bool:
        return any(frame[0] == label for frame in self._stack)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()


# -- hooks: counts taken where the work happens --------------------------------


def _matrix_stats(tracer, mat, extra_cols=0):
    rows = len(mat)
    cols = (len(mat[0]) if rows else 0) + extra_cols
    c = tracer.counts
    c["linalg.rows_max"] = max(c["linalg.rows_max"], rows)
    c["linalg.entries_sum"] += rows * cols
    c["linalg.nnz_sum"] += _nnz(mat)


def _solve_hook(tracer, args, result):
    _matrix_stats(tracer, args[0])
    if result is None:
        tracer.counts["linalg.solve.inconsistent"] += 1


def _rank_hook(tracer, args, result):
    _matrix_stats(tracer, args[0])


def _fraction_system_hook(tracer, args, result):
    if tracer.inside("cousin.cousin_coboundary_solve"):
        tracer.counts["cousin.search.solves"] += 1


def _coboundary_hook(tracer, args, result):
    if not result.solvable:
        tracer.counts["chaincore.solve_coboundary.unsolvable"] += 1


def _layers_hook(tracer, args, result):
    tracer.counts["chaincore.solve_coboundary.layers"] += len(result)


def _cousin_hook(tracer, args, result):
    if result is not None:
        tracer.counts["cousin.search.hits"] += 1
    if tracer.inside("semireg.compare_semireg"):
        tracer.counts["semireg.fallbacks"] += 1


HOOKS = {
    "linalg.solve": _solve_hook,
    "linalg.rank": _rank_hook,
    "linalg.solve_fraction_system": _fraction_system_hook,
    "chaincore.solve_coboundary": _coboundary_hook,
    "chaincore.internal_degree_layers": _layers_hook,
    "cousin.cousin_coboundary_solve": _cousin_hook,
}
