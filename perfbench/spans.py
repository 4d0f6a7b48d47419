"""Span tracing from outside the program, by replacing module attributes.

A ``Tracer`` replaces functions and methods of greenbound with wrappers
that record one span per call: name, start, end, parent span and op id.
Spans are kept in compact arrays in memory and written out when the run
ends.  Names imported by value (``from .quad import pair_f_phi``) are
wrapped in the namespace that looks them up, so the wrapper sees every
call the pipeline makes.

Every span belongs to a layer.  A wrapper installed with ``outer_only``
records only calls made while its layer is not already on the stack
(``_directed`` calls its own helpers; ``GreenEvaluator.u`` calls ``A`` and
``B``), so the layer's call count is the number of times other layers
used it.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(slots=True)
class Layer:
    name: str
    active: int = 0  # calls of this layer now on the stack
    inclusive_s: float = 0.0  # wall time inside the outermost calls
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.span_names: list = []  # span name per name id
        self.name_layer = array("i")  # layer index per name id
        self.layers: list = []
        self._layer_index: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = [-1]  # op id of new spans; -1: work shared by a batch's ops
        self._next_op = [0]
        self._restore: list = []
        self._calls: dict = {}

    def layer(self, name: str) -> Layer:
        if name not in self._layer_index:
            self._layer_index[name] = len(self.layers)
            self.layers.append(Layer(name))
        return self.layers[self._layer_index[name]]

    def _span_name(self, span: str, layer: str) -> int:
        self.span_names.append(span)
        self.name_layer.append(self._layer_index[layer])
        return len(self.span_names) - 1

    def _recording(self, fn, span: str, layer: str, new_op: bool = False,
                   on_call: Optional[Callable] = None,
                   on_result: Optional[Callable] = None, outer_only: bool = False):
        """``fn`` wrapped to run inside a new span.

        The wrapper runs about 10^6 times per traced round and its cost is
        the tracing overhead, so it works on local names only."""
        lay = self.layer(layer)
        nid = self._span_name(span, layer)
        name_append, parent_append = self.name_id.append, self.parent.append
        op_append, start_append, end_append = self.op.append, self.start.append, self.end.append
        end = self.end
        stack = self._stack
        stack_append, stack_pop = stack.append, stack.pop
        op, next_op = self._op, self._next_op
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if outer_only and lay.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            idx = len(end)
            saved_op = op[0]
            if new_op:
                op[0] = next_op[0]
                next_op[0] += 1
            name_append(nid)
            parent_append(stack[-1])
            op_append(op[0])
            end_append(0.0)
            stack_append(idx)
            outermost = lay.active == 0
            lay.active += 1
            t0 = clock()
            start_append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack_pop()
                op[0] = saved_op
                lay.active -= 1
                if outermost:
                    lay.inclusive_s += t1 - t0
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def call(self, name: str, fn, *args, new_op: bool = False):
        """``fn(*args)`` inside a span of the benchmark's own code."""
        key = (name, fn, new_op)
        if key not in self._calls:
            self._calls[key] = self._recording(fn, name, name, new_op)
        return self._calls[key](*args)

    def wrap(self, owner, attr: str, layer: str, span: Optional[str] = None,
             outer_only: bool = False, **hooks) -> None:
        """Replace ``owner.attr`` (a module function or a class's method)
        with a recording wrapper until ``uninstall``.

        Hooks: ``on_call`` gets the positional arguments, ``on_result`` the
        return value; ``new_op`` starts a new op id.  With ``outer_only``,
        calls made while the layer is already on the stack run unrecorded."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._recording(original, span or layer, layer,
                                  outer_only=outer_only, **hooks)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span arrays, one entry per span."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per layer: calls, inclusive seconds, self seconds and counters;
        plus the seconds covered by top-level spans.

        Self time of a span is its duration minus the durations of its
        child spans (single thread, so children never overlap)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        layer_of_span = np.array(self.name_layer, dtype=np.int32)[a["name_id"]]
        n = len(self.layers)
        calls = np.bincount(layer_of_span, minlength=n)
        self_s = np.bincount(layer_of_span, weights=dur - child, minlength=n)
        layers = {
            lay.name: {"calls": int(calls[i]), "s": lay.inclusive_s,
                       "self_s": float(self_s[i]), **lay.counters}
            for i, lay in enumerate(self.layers)
        }
        return {"layers": layers, "spans": len(dur),
                "top_level_s": float(dur[~has_parent].sum())}

    def write(self, path) -> None:
        """Write every span to ``path`` (numpy .npz): the arrays above plus
        ``names`` (span name per name id) and ``layers`` (layer per name id)."""
        layer_names = [self.layers[i].name for i in self.name_layer]
        np.savez_compressed(path, names=np.array(self.span_names),
                            layers=np.array(layer_names), **self.arrays())
