"""Outside-in span tracer for the qident layers.

The tracer wraps every public function of the layer modules from outside the
package: no line of ``qident`` knows it is being traced.  ``identities.py``
binds most engine functions with ``from .linalg import det_fraction_free`` and
the like, so a wrapper is installed on every ``qident`` module that bound the
original object, not just on its home module.  Spans are appended to flat
arrays while the traced code runs and are reduced to per-function figures once,
after the run; nothing is written out while the clock is running.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction

LAYERS = ("scalar", "series", "askey_wilson", "linalg", "identities", "cli")


def bits_of(value) -> int:
    """Largest numerator-plus-denominator bit size inside a returned value."""
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, int):
        return value.bit_length() + 1
    if isinstance(value, (tuple, list)):
        return max((bits_of(v) for v in value), default=0)
    for attr in ("entries", "coeffs"):  # linalg.Matrix, series.TruncatedSeries
        if hasattr(value, attr):
            return bits_of(getattr(value, attr))
    return 0


def public_functions(module) -> dict[str, object]:
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Patches:
    """Attribute replacements across modules, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def replace(self, original, replacement) -> None:
        """Bind `replacement` wherever a qident module binds `original`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qident" or mod_name.startswith("qident.")):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    max_bits: int = 0


class Tracer:
    """Records one span per call of each wrapped public layer function.

    A span is (function, parent span, start, end, result bits); spans of one
    trace share the arrays below.  `bits_for` names the functions ("layer.fn")
    whose results are measured for operand size; measuring happens after the
    span's clock stops.
    """

    def __init__(self, bits_for: frozenset[str] = frozenset()):
        self.bits_for = bits_for
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bits = array("q")
        self._stack = [-1]
        self._patches = Patches()

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            module = sys.modules[f"qident.{layer}"]
            for name, fn in public_functions(module).items():
                label = f"{layer}.{name}"
                self._patches.replace(fn, self._wrap(fn, label))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap(self, fn, label: str):
        fid = len(self.names)
        self.names.append(label)
        fns, parents, starts, ends, bits = self.fn, self.parent, self.start, self.end, self.bits
        stack = self._stack
        clock = time.perf_counter
        measure = label in self.bits_for

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            bits.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if measure:
                bits[i] = bits_of(out)
            return out

        return traced

    def stats(self) -> dict[str, FunctionStats]:
        """Reduce the spans to calls, self time and max bits per function."""
        n = len(self.fn)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, FunctionStats] = {}
        for i in range(n):
            s = out.setdefault(self.names[self.fn[i]], FunctionStats())
            dur = self.end[i] - self.start[i]
            s.calls += 1
            s.self_s += dur - child[i]
            if self.bits[i] > s.max_bits:
                s.max_bits = self.bits[i]
        return out
