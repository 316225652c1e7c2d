"""In-memory span tracer that wraps radlab's layer entry points from outside.

Each layer is a set of entry points named by module and qualified name. On
install, a module-level function is replaced in every radlab module that
binds it (``criteria`` imports ``pair_group`` and ``derived_subgroup`` by
name), and a method is replaced on its class. An entry point that no longer
exists is reported as absent and its layer reads zero; the run goes on.

A span records its layer, the item being processed, its parent span, its
start and end, and its busy time. A function span is busy from call to
return. A generator layer (element enumeration, class representatives) is
timed per ``next()``, so the time it spends producing an element is charged
to it, not to the loop that consumes it. A span's self time is its busy time
minus the busy time of spans run inside it. A re-entrant call into the layer
that is already running counts its time but not a second call.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter_ns


class Layer:
    """A named layer: its entry points and an optional per-call count.

    count: name of an extra counter; for a generator layer it counts
    yielded values, otherwise ``observe(result)`` is added per call.
    """

    def __init__(self, name, entries, generator=False, count=None, observe=None):
        self.name = name
        self.entries = entries
        self.generator = generator
        self.count = count
        self.observe = observe


_GROUP = "radlab.group"
_CRITERIA = "radlab.criteria"

LAYERS = (
    Layer("group.chain", [(_GROUP, "PermutationGroup.__init__"), (_GROUP, "pair_group")]),
    Layer("group.tables", [(_GROUP, "PermutationGroup.tables")],
          generator=True, count="elements"),
    Layer("group.class_reps", [(_GROUP, "PermutationGroup.class_representatives_tables")],
          generator=True, count="classes"),
    Layer("group.class_bfs", [(_GROUP, "PermutationGroup.conjugacy_class_tables")],
          count="members", observe=lambda r: r[1]),
    Layer("group.p_elements", [(_GROUP, "PermutationGroup.p_element_tables")]),
    Layer("group.normal_closure", [(_GROUP, "PermutationGroup._normal_closure_tables")]),
    Layer("structure.derived", [("radlab.structure", "derived_subgroup")]),
    Layer("structure.radical", [("radlab.structure", "solvable_radical")]),
    Layer("criteria.pair_test", [(_CRITERIA, "_pair_solvable")],
          count="witness", observe=lambda r: not r[0]),
    Layer("criteria.probe", [(_CRITERIA, "_probe_tables")]),
    Layer("criteria.coverage", [(_CRITERIA, "_coverage")]),
    Layer("criteria.scan", [(_CRITERIA, n) for n in (
        "member_b1", "member_oddp", "member_two_element", "member_combined", "find_witness")]),
    Layer("arith.factorize", [("radlab.arith", "factorize")]),
    Layer("verify.harness", [("radlab.verify", n) for n in (
        "verify_corpus", "verify_equivalence", "verify_cvl", "_equivalence_task", "_cvl_task")]),
    Layer("catalog.build", [("radlab.catalog", n) for n in (
        "build_named", "cvl_realization", "direct_product")]),
)

# Time inside the traced phase that no wrapped layer claims.
ROOT = "unattributed"


class Span:
    __slots__ = ("layer", "item", "parent", "start", "end", "busy", "child", "counted")

    def __init__(self, layer, item, parent, start, counted):
        self.layer = layer
        self.item = item
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0
        self.child = 0
        self.counted = counted


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {layer.name: 0 for layer in LAYERS}
        self.absent: list[str] = []
        self.enabled = False
        self.item = None
        self._running: list[tuple[Span, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _new(self, layer: str) -> Span:
        parent = self._running[-1][0] if self._running else None
        counted = parent is None or parent.layer != layer
        span = Span(layer, self.item, parent, _clock(), counted)
        self.spans.append(span)
        return span

    def _resume(self, span: Span) -> None:
        self._running.append((span, _clock()))

    def _pause(self) -> None:
        span, since = self._running.pop()
        now = _clock()
        span.busy += now - since
        span.end = now
        if self._running:
            self._running[-1][0].child += now - since

    def open(self, layer: str) -> None:
        self._resume(self._new(layer))

    def close(self) -> None:
        self._pause()

    # -- wrappers ----------------------------------------------------------------

    def _wrap_call(self, layer: Layer, fn):
        name, observe, counts = layer.name, layer.observe, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if observe is not None:
                counts[name] += observe(result)
            return result

        return traced

    def _wrap_generator(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            return self._iterate(layer.name, it) if self.enabled else it

        return traced

    def _iterate(self, name: str, it):
        span = self._new(name)
        counts = self.counts
        try:
            while True:
                self._resume(span)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._pause()
                counts[name] += 1
                yield value
        finally:
            it.close()

    # -- install -----------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "radlab" or n.startswith("radlab.")]
        for layer in LAYERS:
            make = self._wrap_generator if layer.generator else self._wrap_call
            for module_name, qualname in layer.entries:
                owner = sys.modules.get(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(f"{module_name}.{qualname}")
                    continue
                wrapper = make(layer, original)
                if path:
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.enabled = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: calls, self seconds and the layer's extra count."""
        out = {layer.name: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        out[ROOT] = {"calls": 0, "self_s": 0.0}
        for span in self.spans:
            entry = out[span.layer]
            entry["calls"] += span.counted
            entry["self_s"] += (span.busy - span.child) / 1e9
        for layer in LAYERS:
            if layer.count:
                out[layer.name][layer.count] = self.counts[layer.name]
        return out
