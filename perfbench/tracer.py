"""Outside tracer: wraps gfrob's public functions without touching the package.

Every public module-level function of every loaded ``gfrob.*`` module, plus
the MultiPoly operators and ``Potential.third``, is replaced by a timing
wrapper in every namespace that holds it: modules re-export functions with
``from .x import f``, and classes alias one method under two names
(``__mul__``/``__rmul__``).  ``install`` asserts that no alias still points at
an unwrapped original, and ``uninstall`` restores every binding and asserts
that no wrapper is left behind.

Self time comes from a timer stack: each wrapped call subtracts the time of
the wrapped calls it made.  Busy time is inclusive and counted once for
recursive calls.  Spans (name, start, end, parent, job) are kept only for the
coarse entry points in ``SPAN_NAMES``; hot leaves only feed per-name
counters, so the spans held in memory stay bounded by the job list.
"""

from __future__ import annotations

import sys
import time
import types
import weakref

# Class methods traced besides module-level functions, with the metric group
# each one reports under.
METHOD_GROUPS = {
    ("gfrob.poly", "MultiPoly", "__init__"): "poly.init",
    ("gfrob.poly", "MultiPoly", "with_vars"): "poly.with_vars",
    ("gfrob.poly", "MultiPoly", "__mul__"): "poly.mul",
    ("gfrob.poly", "MultiPoly", "__add__"): "poly.add",
    ("gfrob.poly", "MultiPoly", "__sub__"): "poly.add",
    ("gfrob.poly", "MultiPoly", "__rsub__"): "poly.add",
    ("gfrob.poly", "MultiPoly", "__neg__"): "poly.add",
    ("gfrob.poly", "MultiPoly", "diff"): "poly.diff",
    ("gfrob.poly", "MultiPoly", "subst"): "poly.subst",
    ("gfrob.frobenius", "Potential", "third"): "frobenius.Potential.third",
}

# Module-level functions that report under a shared group name.
FUNCTION_GROUPS = {
    ("gfrob.serialize", "dumps"): "serialize.dumps",
    ("gfrob.serialize", "dumps_line"): "serialize.dumps",
}

SPAN_NAMES = frozenset({
    "cli.main",
    "braided.braidize",
    "braided.br_basis",
    "braided.circ_product",
    "frobenius.wdvv_check",
    "frobenius.check_pre_gfm",
    "frobenius.assemble_z2",
    "singularity.flat_coordinates",
    "singularity.potential_A",
    "singularity.potential_D",
    "singularity.z2_frobenius_manifold",
    "refchecks.run_all",
})


def _group_name(modname: str, attr: str) -> str:
    key = (modname, attr)
    if key in FUNCTION_GROUPS:
        return FUNCTION_GROUPS[key]
    layer = modname.rsplit(".", 1)[-1]
    if layer == "serialize" and attr.endswith("_from_json"):
        return "serialize.parse"
    return f"{layer}.{attr}"


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _rref_shape(stat: Stat, args, kwargs, result) -> None:
    rows = args[0] if args else kwargs["rows"]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    stat.add("cells", nrows * ncols)
    stat.add("nonzero", sum(1 for row in rows for x in row if x != 0))
    stat.extra["max_rows"] = max(stat.extra.get("max_rows", 0), nrows)
    stat.extra["max_cols"] = max(stat.extra.get("max_cols", 0), ncols)


def _dumps_bytes(stat, args, kwargs, result) -> None:
    stat.add("bytes", len(result.encode()))


def _mul_terms(stat, args, kwargs, result) -> None:
    stat.add("terms_out", len(result.terms))


def _apply_terms(stat, args, kwargs, result) -> None:
    terms = args[2] if len(args) > 2 else kwargs["terms"]
    stat.add("terms_in", len(terms))


def _wdvv_witnesses(stat, args, kwargs, result) -> None:
    stat.add("witnesses", len(result.witnesses))


class _ComponentMisses:
    """A miss is a call that returns a Component object not returned before."""

    def __init__(self):
        self.seen: weakref.WeakSet = weakref.WeakSet()

    def __call__(self, stat, args, kwargs, result) -> None:
        if result not in self.seen:
            self.seen.add(result)
            stat.add("misses", 1)
            stat.add("members_built", len(result.members))


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.job = ""
        self._stack: list[list[float]] = []  # [start, time of wrapped callees]
        self._span_stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._wrapper_ids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._modules: list[tuple[str, object]] = []
        self._hooks = {
            "linalg.rref": _rref_shape,
            "serialize.dumps": _dumps_bytes,
            "poly.mul": _mul_terms,
            "modules.arrow_apply_into": _apply_terms,
            "frobenius.wdvv_check": _wdvv_witnesses,
            "groupoid.enumerate_component": _ComponentMisses(),
        }

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        hook = self._hooks.get(name)
        stack, span_stack, depth, spans = self._stack, self._span_stack, self._depth, self.spans
        clock = time.perf_counter
        keep_span = name in SPAN_NAMES
        tracer = self

        def traced(*args, **kwargs):
            level = depth.get(name, 0)
            depth[name] = level + 1
            if keep_span:
                span_stack.append(len(spans))
                spans.append(None)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if level == 0:
                    stat.busy_s += dur
                depth[name] = level
                if stack:
                    stack[-1][1] += dur
                if keep_span:
                    idx = span_stack.pop()
                    parent = span_stack[-1] if span_stack else -1
                    spans[idx] = (name, frame[0], end, parent, tracer.job)
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _targets(self, modules):
        """(group name, original) for every function and method to trace."""
        out = []
        for modname, mod in modules:
            for attr, value in vars(mod).items():
                if attr.startswith("_") or isinstance(value, type):
                    continue
                if callable(value) and getattr(value, "__module__", None) == modname:
                    out.append((_group_name(modname, attr), value))
        for (modname, clsname, attr), group in METHOD_GROUPS.items():
            cls = getattr(sys.modules[modname], clsname)
            out.append((group, cls.__dict__[attr]))
        return out

    @staticmethod
    def _namespaces(modules):
        """Every module dict and class dict that can hold a traced function."""
        for modname, mod in modules:
            yield mod
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__ == modname:
                    yield value

    def _bindings(self, modules):
        """(owner, attr, value) for every binding that holds a function."""
        for owner in self._namespaces(modules):
            for attr, value in list(vars(owner).items()):
                yield owner, attr, value
                if isinstance(value, (list, tuple)):
                    for item in value:
                        yield owner, f"{attr}[]", item
                elif isinstance(value, dict):
                    for item in value.values():
                        yield owner, f"{attr}{{}}", item
                elif isinstance(value, types.FunctionType):
                    for item in (value.__defaults__ or ()):
                        yield owner, f"{attr}.__defaults__", item
                    for item in (value.__kwdefaults__ or {}).values():
                        yield owner, f"{attr}.__kwdefaults__", item

    def install(self) -> None:
        modules = sorted(
            (name, mod) for name, mod in sys.modules.items()
            if mod is not None and (name == "gfrob" or name.startswith("gfrob."))
        )
        for group, fn in self._targets(modules):
            if id(fn) not in self._wrappers:
                self._originals[id(fn)] = fn
                wrapper = self._wrap(group, fn)
                self._wrappers[id(fn)] = wrapper
                self._wrapper_ids.add(id(wrapper))
        for owner in self._namespaces(modules):
            for attr, value in list(vars(owner).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
        missed = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, value in self._bindings(modules)
            if id(value) in self._originals and self._originals[id(value)] is value
        ]
        if missed:
            self.uninstall()
            raise AssertionError(f"tracer left unwrapped aliases: {missed}")
        self._modules = modules

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, value in self._bindings(self._modules)
            if id(value) in self._wrapper_ids
        ]
        if left:
            raise AssertionError(f"tracer left wrappers behind: {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def wrapped_count(self) -> int:
        return len(self._wrappers)

    # -- results -------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Every traced name with its calls, busy and self time and counters."""
        out = {}
        for name, st in sorted(self.stats.items()):
            row = {"calls": st.calls, "busy_s": st.busy_s, "self_s": st.self_s}
            row.update(st.extra)
            out[name] = row
        return out
