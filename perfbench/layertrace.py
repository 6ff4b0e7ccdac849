"""Per-layer tracing of gkmc from outside the program.

`Tracer.install` replaces every public function of each layer module
(`syntax`, `model`, `semantics`, `distinguish`, `bisim`, `generate`) by
a wrapper that records calls and self time, in every namespace that
holds it: the defining module, each layer module that imports the name
(`semantics.check_sentence`, `distinguish.holds_at`, ...) and the
package itself.  Calls are attributed to the defining module, so
`syntax.check_sentence` counts the checks made from `semantics` and
`distinguish` too.  Self time is a call's span minus the spans of the
traced calls made inside it.

Modules are looked up through `importlib`, never as package attributes:
`gkmc.distinguish` is the re-exported function, not the module.

Stats are kept per phase (`setup`, `input`, `query`); while the phase is
None the wrappers call straight through and record nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from types import SimpleNamespace

LAYERS = ("syntax", "model", "semantics", "distinguish", "bisim", "generate")

# Public methods that are entry points of a layer, traced like functions.
METHODS = (("semantics", "Evaluator", "sentence_worlds"), ("semantics", "Evaluator", "formula_worlds"))

_clock = time.perf_counter


def layer_namespace() -> SimpleNamespace:
    """The program's layer modules as currently imported, by short name."""
    return SimpleNamespace(**{name: importlib.import_module(f"gkmc.{name}") for name in LAYERS})


class Stat:
    """Calls, self time, time including traced callees, and items yielded."""

    __slots__ = ("calls", "self_s", "total_s", "yields")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.yields = 0


class Tracer:
    def __init__(self):
        self.modules = vars(layer_namespace())
        self.package = importlib.import_module("gkmc")
        self.tables: dict[str, dict[str, Stat]] = {}
        self.table: dict[str, Stat] | None = None
        self.checked_sentences: set = set()  # distinct arguments of check_sentence
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- phases -------------------------------------------------------

    def phase(self, name: str | None):
        """Attribute the following calls to phase `name`; None stops recording."""
        self.table = None if name is None else self.tables.setdefault(name, {})

    def stats(self, *phases: str) -> dict[str, Stat]:
        """Stats summed over the given phases."""
        out: dict[str, Stat] = {}
        for phase in phases:
            for name, stat in self.tables.get(phase, {}).items():
                total = out.setdefault(name, Stat())
                total.calls += stat.calls
                total.self_s += stat.self_s
                total.total_s += stat.total_s
                total.yields += stat.yields
        return out

    # -- patching -----------------------------------------------------

    def install(self):
        if self._patches:
            return
        wrapped: dict[object, object] = {}
        owners = [*self.modules.values(), self.package]
        layer_modules = {m.__name__ for m in self.modules.values()}
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ not in layer_modules:
                    continue
                if value not in wrapped:
                    wrapped[value] = self._wrap(value)
                self._patch(owner, attr, value, wrapped[value])
        for layer, cls_name, attr in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            method = cls.__dict__[attr]
            self._patch(cls, attr, method, self._wrap(method, f"{layer}.{attr}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _wrap(self, fn, name: str | None = None):
        if name is None:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        tracer = self
        stack = self._stack
        seen = self.checked_sentences if name == "syntax.check_sentence" else None

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                table = tracer.table
                if table is None:
                    return fn(*args, **kwargs)
                stat = table.get(name) or table.setdefault(name, Stat())
                stat.calls += 1
                return tracer._iterate(stat, fn(*args, **kwargs))

            return functools.wraps(fn)(traced_gen)

        def traced(*args, **kwargs):
            table = tracer.table
            if table is None:
                return fn(*args, **kwargs)
            if seen is not None:
                # Hashing the argument is tracing cost: keep it out of
                # the caller's self time.
                h0 = _clock()
                seen.add(args[0])
                stack[-1] += _clock() - h0
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = _clock() - t0
                child = stack.pop()
                stack[-1] += span
                stat = table.get(name) or table.setdefault(name, Stat())
                stat.calls += 1
                stat.self_s += span - child
                stat.total_s += span

        return functools.wraps(fn)(traced)

    def _iterate(self, stat: Stat, gen):
        """Re-yield from `gen`, timing each resumption as a span of its own."""
        stack = self._stack
        while True:
            stack.append(0.0)
            t0 = _clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                span = _clock() - t0
                child = stack.pop()
                stack[-1] += span
                stat.self_s += span - child
                stat.total_s += span
            stat.yields += 1
            yield item
