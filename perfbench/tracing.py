"""Spans and counts around rimtwist's layer boundaries, from outside the program.

``Tracer.install`` replaces each function in ``WRAPPED`` by a wrapper
at the module attribute through which other modules call it (for
example ``rimtwist.surgery.alexander_polynomial``, which is what
``classify`` looks up at call time).  Every call records a span (name,
start, end, parent span, operation id) and a few counts read from its
arguments and return value.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict


def _generators(args, result):
    return {"generators": result.generator_count}


def _poly(args, result):
    return {"knot": hash(args[0].relators)}


def _blocks(args, result):
    return {"matrix_dim": sum(len(b) for b in result[0])}


def _det(args, result):
    return {"det_dim": len(args[0])}


def _resultant(args, result):
    return {"sylvester_dim": args[1] + len(args[0].coeffs) - 1}


def _smith(args, result):
    return {"cells": len(args[0]) * args[1]}


def _structure_smith(args, result):
    return {"cells": len(args[0]) * args[1], "structure_dim": args[1]}


def _enum(args, result):
    if result.completed:
        return {"complete": 1, "order": result.order}
    return {"exhausted": 1, "wasted": result.budget}


def _pi1(args, result):
    return {"decided": int(result[0].kind != "undetermined")}


# (module, attribute, span name, counts from (args, result))
WRAPPED = (
    ("rimtwist.cli", "parse_knot", "knots.parse", None),
    ("rimtwist.cli", "presentation_of_knot", "wirtinger.presentation", _generators),
    ("rimtwist.surgery", "presentation_of_knot", "wirtinger.presentation", _generators),
    ("rimtwist.cli", "alexander_polynomial", "alexander.poly", _poly),
    ("rimtwist.surgery", "alexander_polynomial", "alexander.poly", _poly),
    ("rimtwist.alexander", "reduced_alexander_blocks", "alexander.blocks", _blocks),
    ("rimtwist.covers", "reduced_alexander_blocks", "alexander.blocks", _blocks),
    ("rimtwist.alexander", "laurent_det", "laurent.det", _det),
    ("rimtwist.covers", "resultant_with_cyclotomic", "laurent.resultant", _resultant),
    ("rimtwist.cli", "branched_cover_order", "covers.order", None),
    ("rimtwist.surgery", "branched_cover_order", "covers.order", None),
    ("rimtwist.cli", "branched_cover_structure", "covers.structure", None),
    ("rimtwist.alexander", "abelianization", "groups.abelianization", None),
    ("rimtwist.surgery", "abelianization", "groups.abelianization", None),
    ("rimtwist.groups", "smith_invariants", "groups.smith", _smith),
    ("rimtwist.covers", "smith_invariants", "groups.smith", _structure_smith),
    ("rimtwist.surgery", "todd_coxeter", "groups.enum", _enum),
    ("rimtwist.cli", "enumerate_examples", "surgery.enumerate", None),
    ("rimtwist.cli", "classify", "surgery.classify", None),
    ("rimtwist.surgery", "classify", "surgery.classify", None),
    ("rimtwist.cli", "determine_pi1", "surgery.pi1", _pi1),
    ("rimtwist.surgery", "determine_pi1", "surgery.pi1", _pi1),
)

ROOT = "cli.run"


class Tracer:
    def __init__(self):
        # each span: [name, start, mark, parent, op, counts, child_s, busy_s]; mark is
        # the last time the span resumed, and its end once closed
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._restore: list[tuple] = []

    def install(self):
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # the name moved; its layer then reads 0
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        now = time.perf_counter()
        self.spans.append([name, now, now, parent, self.op, None, 0.0, 0.0])
        self.stack.append(index)
        return index

    def _pause(self, index: int):
        span = self.spans[index]
        now = time.perf_counter()
        span[7] += now - span[2]
        span[2] = now
        self.stack.pop()

    def _resume(self, index: int):
        self.stack.append(index)
        self.spans[index][2] = time.perf_counter()

    def close(self, index: int, counts=None):
        span = self.spans[index]
        self._pause(index)
        span[5] = counts
        if span[3] is not None:
            self.spans[span[3]][6] += span[7]

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            if inspect.isgenerator(result):
                tracer._pause(index)
                return tracer._follow(result, index)
            tracer.close(index, counter(args, result) if counter else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _follow(self, gen, index):
        """Keep a generator's span open until it is exhausted, counting only time inside it.

        The CLI documents ``search`` as streaming; once ``enumerate_examples``
        yields its rows, its span must still cover the classify calls it makes.
        """
        while True:
            self._resume(index)
            try:
                item = next(gen)
            except StopIteration:
                self.close(index)
                return
            except BaseException:
                self.close(index)
                raise
            self._pause(index)
            yield item

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts, _, busy in self.spans:
                record = {"name": name, "start": start, "end": end, "busy": busy, "parent": parent, "op": op}
                if counts:
                    record["counts"] = {k: v for k, v in counts.items() if k != "knot"}
                fh.write(json.dumps(record) + "\n")


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer figures over a traced run of ``ops`` operations.

    ``*_ms`` and call counts are means per operation; sizes are means per
    call; ratios are taken over the whole run.  Self time is a span's
    duration less the time its child spans cover.
    """
    ms = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    knots_by_op = defaultdict(set)
    self_ms = defaultdict(float)
    for span in spans:
        name, _, _, _, op, counts, child, busy = span
        ms[name] += busy * 1000
        calls[name] += 1
        layer = name.split(".")[0]
        if layer in ("cli", "surgery"):
            self_ms[layer] += (busy - child) * 1000
        for key, value in (counts or {}).items():
            if key == "knot":
                knots_by_op[op].add(value)
            else:
                sums[f"{name}.{key}"] += value
    n = max(ops, 1)

    def per_call(name, key):
        return sums[f"{name}.{key}"] / calls[name] if calls[name] else 0.0

    distinct = sum(len(v) for v in knots_by_op.values())
    return {
        "cli.self_ms": self_ms["cli"] / n,
        "knots.parse_ms": ms["knots.parse"] / n,
        "wirtinger.presentation_ms": ms["wirtinger.presentation"] / n,
        "wirtinger.generators": per_call("wirtinger.presentation", "generators"),
        "groups.abelianization_ms": ms["groups.abelianization"] / n,
        "groups.abelianization_calls": calls["groups.abelianization"] / n,
        "surgery.enumerate_ms": ms["surgery.enumerate"] / n,
        "surgery.classify_ms": ms["surgery.classify"] / n,
        "surgery.self_ms": self_ms["surgery"] / n,
        "alexander.poly_ms": ms["alexander.poly"] / n,
        "alexander.poly_calls": calls["alexander.poly"] / n,
        "alexander.distinct_knots": distinct / n,
        "alexander.useful_ratio": distinct / calls["alexander.poly"] if calls["alexander.poly"] else 0.0,
        "alexander.blocks_ms": ms["alexander.blocks"] / n,
        "alexander.matrix_dim": per_call("alexander.blocks", "matrix_dim"),
        "laurent.det_ms": ms["laurent.det"] / n,
        "laurent.det_calls": calls["laurent.det"] / n,
        "laurent.det_dim": per_call("laurent.det", "det_dim"),
        "laurent.resultant_ms": ms["laurent.resultant"] / n,
        "laurent.sylvester_dim": per_call("laurent.resultant", "sylvester_dim"),
        "covers.order_ms": ms["covers.order"] / n,
        "covers.structure_ms": ms["covers.structure"] / n,
        "covers.structure_dim": (
            sums["groups.smith.structure_dim"] / calls["covers.structure"] if calls["covers.structure"] else 0.0
        ),
        "groups.smith_ms": ms["groups.smith"] / n,
        "groups.smith_cells": sums["groups.smith.cells"] / n,
        "groups.enum_ms": ms["groups.enum"] / n,
        "groups.enum_calls": calls["groups.enum"] / n,
        "groups.enum_complete": sums["groups.enum.complete"] / n,
        "groups.enum_exhausted": sums["groups.enum.exhausted"] / n,
        "groups.enum_cosets_wasted": sums["groups.enum.wasted"] / n,
        "groups.enum_order": (
            sums["groups.enum.order"] / sums["groups.enum.complete"] if sums["groups.enum.complete"] else 0.0
        ),
        "surgery.pi1_ms": ms["surgery.pi1"] / n,
        "surgery.pi1_decided_ratio": sums["surgery.pi1.decided"] / calls["surgery.pi1"] if calls["surgery.pi1"] else 0.0,
    }
