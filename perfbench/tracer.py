"""Per-layer tracing by wrapping the engine's functions and methods in place.

Nothing under ``src/`` is edited: `Tracer.install` replaces every
module-level function of the layer modules, and every public method (plus
the dunders in `_DUNDERS`) of their public classes, by a wrapper that
records a span.  Names bound elsewhere by ``from ... import`` are rebound
to the wrapper too, otherwise those calls would escape their spans.

A private function (its name starts with ``_``) opens a span only when it
is called from another layer's span, as ladder's per-word actions are
when `rep.map_basis` calls them back.  Called from its own layer it passes
straight through, so its time stays where it already belongs and the hot
helpers inside a layer cost the tracer little.  Private functions have no
metric of their own.

Spans are recorded only inside an op started with `Tracer.call`, so the
benchmark's own input generation and output checks stay out of the
counts.  A verify pass crosses layer boundaries millions of times, so a
span is not kept as a record: when it closes, its duration minus the time
its child spans cover is added to its layer's self time, and its call
count and inclusive time are added to its own entry.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from fractions import Fraction

# Dunders that do engine work and are called from other layers.  __hash__
# is left out on purpose: every dict operation on a TailWord calls it, and
# wrapping it would cost more than the work it measures.
_DUNDERS = frozenset({
    "__init__", "__eq__", "__call__", "__neg__",
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
})


class Tracer:
    """Call counts and per-layer self time for code run through `call`."""

    def __init__(self):
        # one frame per open span: [seconds its child spans cover, layer]
        self._stack: list[list] = []
        self.layers: dict[str, list[float]] = {}
        # qualified name -> [calls, inclusive seconds]
        self.spans: dict[str, list] = {}
        # counters filled by the hooks below
        self.built = [0]
        self.behead_miss = [0]
        self.unit_muls = [0]
        self.map_terms_in = [0]
        self.map_annihilated = [0]
        self.ladder_mode_sum = [0]
        # id(original) -> (original, wrapper)
        self._originals: dict[int, tuple] = {}

    # -- ops ---------------------------------------------------------------

    def call(self, fn, layer: str | None = None):
        """Run one op as the root span; return (result, seconds).

        With a layer name the op's own time outside child spans is that
        layer's self time; without one it is left unattributed.
        """
        frame = [0.0, layer]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if layer is not None:
                self.layers.setdefault(layer, [0.0])[0] += dt - frame[0]
        return out, dt

    def calls(self, *names: str) -> int:
        return sum(self.spans[n][0] for n in names if n in self.spans)

    def inclusive_s(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    # -- installation ------------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap the functions and public classes of each layer module, in place."""
        hooks = self._hooks(modules)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                private = name.startswith("_")
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    setattr(mod, name, self._wrap(obj, layer, key, hooks.get(key), private))
                elif inspect.isclass(obj) and not private:
                    self._wrap_class(obj, layer, hooks)
        self._count_constructions(modules)
        self._rebind()

    def _wrap_class(self, cls: type, layer: str, hooks: dict) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, (staticmethod, classmethod)):
                wrapped = self._wrap(val.__func__, layer, key, hooks.get(key))
                setattr(cls, attr, type(val)(wrapped))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, layer, key, hooks.get(key)))

    def _wrap(self, orig, layer: str, key: str, hook=None, cross_layer_only: bool = False):
        inner = orig if hook is None else hook(orig)
        stat = self.spans.setdefault(key, [0, 0.0])
        lay = self.layers.setdefault(layer, [0.0])
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(orig)
        def span(*args, **kwargs):
            if not stack or (cross_layer_only and stack[-1][1] == layer):
                return orig(*args, **kwargs)
            stat[0] += 1
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                lay[0] += dt - frame[0]
                stat[1] += dt
                stack[-1][0] += dt

        self._originals[id(orig)] = (orig, span)
        return span

    def _count_constructions(self, modules) -> None:
        """Count TailWord.__new__, which constructors that skip __init__ also hit."""
        words = modules.get("words")
        tailword = getattr(words, "TailWord", None)
        if tailword is None:
            return
        own = tailword.__dict__.get("__new__")
        orig = own.__func__ if isinstance(own, staticmethod) else own
        stack, built = self._stack, self.built

        def counted_new(cls, *args, **kwargs):
            if stack:
                built[0] += 1
            if orig is None:
                return object.__new__(cls)
            return orig(cls, *args, **kwargs)

        tailword.__new__ = staticmethod(counted_new)

    def _rebind(self) -> None:
        """Point every module-level alias of a wrapped function at its wrapper."""
        for mod in _engine_modules():
            for name, obj in list(vars(mod).items()):
                pair = self._originals.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, name, pair[1])

    def unwrapped_aliases(self) -> list[str]:
        """Module attributes that still hold an unwrapped original (should be none)."""
        out = []
        for mod in _engine_modules():
            for name, obj in vars(mod).items():
                pair = self._originals.get(id(obj))
                if pair is not None and pair[0] is obj:
                    out.append(f"{mod.__name__}.{name}")
        return out

    # -- hooks: counters that need arguments or results ---------------------

    def _hooks(self, modules) -> dict:
        def behead(f):
            def inner(*args, **kwargs):
                out = f(*args, **kwargs)
                if out is None:
                    self.behead_miss[0] += 1
                return out
            return inner

        # Compared by terms, so the test builds no scalar and opens no span.
        scalar = modules["radical"].RadicalScalar
        one = modules["radical"].ONE
        one_terms = dict(one._terms)

        def unit_operand(f):
            def is_one(x):
                if isinstance(x, scalar):
                    return x is one or x._terms == one_terms
                return isinstance(x, (int, Fraction)) and x == 1

            def inner(a, b):
                if is_one(a) or is_one(b):
                    self.unit_muls[0] += 1
                return f(a, b)
            return inner

        def map_basis(f):
            terms_in, annihilated = self.map_terms_in, self.map_annihilated

            def inner(*args, **kwargs):
                if len(args) != 2 or not callable(args[1]):
                    return f(*args, **kwargs)
                state, fn = args
                terms_in[0] += len(state)

                def counted(w):
                    out = fn(w)
                    if out is None:
                        annihilated[0] += 1
                    return out
                return f(state, counted, **kwargs)
            return inner

        def ladder_mode(f):
            def inner(create, n, *args, **kwargs):
                self.ladder_mode_sum[0] += n
                return f(create, n, *args, **kwargs)
            return inner

        return {
            "words.TailWord.behead": behead,
            "radical.RadicalScalar.__mul__": unit_operand,
            "radical.RadicalScalar.__rmul__": unit_operand,
            "rep.map_basis": map_basis,
            "ladder.apply_boson": ladder_mode,
            "ladder.apply_fermion": ladder_mode,
        }


def _engine_modules() -> list[types.ModuleType]:
    """The engine's modules, where from-imported aliases can live."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cuntzfock" or name.startswith("cuntzfock."))
    ]
