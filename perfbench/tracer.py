"""Timing wrappers swapped in at permupoly's public seams for a traced run.

Every wrapped call pushes a frame; when it returns, its duration is charged
to the enclosing frame, so each seam gets calls, total time and self time
(time not covered by another wrapped call).  Seams above the field layer
also record one span each: name, start, end, parent span and operation id.
Field kernels run millions of times per scan, so they are counted and timed
but not spanned.  Spans stay in memory until `save_spans`.

`install` replaces the attributes and `uninstall` puts the exact original
objects back; use `Tracer.installed(...)` as a context manager.
"""

import contextlib
import time
from array import array

import numpy as np

SCALAR_OPS = ("add", "mul", "pow", "frobenius", "relative_trace")
VECTOR_OPS = ("add_vec", "neg_vec", "scale_vec", "pow_vec", "mul_vec")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.total_s = []      # time of calls not nested in a call of the same group
        self.self_s = []       # time not covered by nested wrapped calls
        self.counters = {"field.vec_elems": 0, "field.vec_bytes_computed": 0,
                         "perm.pp_s": 0.0, "perm.witness_s": 0.0,
                         "scan.tuples_evaluated": 0}
        self.op_id = -1
        self._stack = []
        self._span = -1
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._saved = []

    # -- bookkeeping ----------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def timed(self, name, fn, span=True, after=None, group=None):
        """fn wrapped in a frame (and a span); after(result, args, seconds)
        runs once the call has returned.  Calls nested in a call of the same
        group (by default, the same name) add nothing to total_s."""
        nid = self._id(name)
        group = group or name
        stack = self._stack
        clock = time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        spans = (self.span_name, self.span_start, self.span_end,
                 self.span_parent, self.span_op)

        def wrapper(*args, **kwargs):
            frame = [group, 0.0]
            if span:
                sid = len(spans[0])
                parent_span = self._span
                self._span = sid
            stack.append(frame)
            t0 = clock()
            if span:
                spans[0].append(nid)
                spans[1].append(t0)
                spans[2].append(t0)
                spans[3].append(parent_span)
                spans[4].append(self.op_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if parent[0] != group:
                        total_s[nid] += dur
                else:
                    total_s[nid] += dur
                if span:
                    spans[2][sid] = t1
                    self._span = parent_span
            if after is not None:
                after(result, args, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, name, fn):
        """fn returns an iterator; each step is timed as one call of name."""
        def step(it):
            return next(it, _END)

        timed_step = self.timed(name, step)

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                item = timed_step(it)
                if item is _END:
                    return
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for counters ---------------------------------------------------

    def _count_vec(self, result, args, _dur):
        c = self.counters
        c["field.vec_elems"] += result.size
        c["field.vec_bytes_computed"] += result.nbytes + sum(
            a.nbytes for a in args if isinstance(a, np.ndarray))

    def _count_perm(self, report, _args, dur):
        self.counters["perm.pp_s" if report.permutation else "perm.witness_s"] += dur

    def _count_scan_perm(self, report, args, dur):
        self.counters["scan.tuples_evaluated"] += 1
        self._count_perm(report, args, dur)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self, api, field_cls, families_mod, scan_mod, perm_mod):
        """Swap wrappers in at every seam; api is the benchmark's own
        namespace of entry points (the calls its operations make)."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for op in SCALAR_OPS:
            self._patch(field_cls, op, self.timed(
                f"field.{op}", vars(field_cls)[op], span=False,
                group="field.scalar"))
        for op in VECTOR_OPS:
            self._patch(field_cls, op, self.timed(
                f"field.{op}", vars(field_cls)[op], span=False,
                after=self._count_vec))
        self._patch(families_mod, "build_field",
                    self.timed("field.build_field", families_mod.build_field))
        self._patch(families_mod, "make_family",
                    self.timed("families.make_family", families_mod.make_family))
        self._patch(scan_mod, "iter_family",
                    self.timed_iter("families.iter_family", scan_mod.iter_family))
        self._patch(perm_mod, "evaluate_all",
                    self.timed("poly.evaluate_all", perm_mod.evaluate_all))
        self._patch(scan_mod, "is_permutation",
                    self.timed("perm.is_permutation", scan_mod.is_permutation,
                               after=self._count_scan_perm))
        self._patch(api, "build_field",
                    self.timed("field.build_field", api.build_field))
        self._patch(api, "evaluate_all",
                    self.timed("poly.evaluate_all", api.evaluate_all))
        self._patch(api, "parse_poly",
                    self.timed("poly.parse_poly", api.parse_poly))
        self._patch(api, "is_permutation",
                    self.timed("perm.is_permutation", api.is_permutation,
                               after=self._count_perm))
        self._patch(api, "scan_sufficiency",
                    self.timed("scan.scan_sufficiency", api.scan_sufficiency))
        self._patch(api, "scan_necessity",
                    self.timed("scan.scan_necessity", api.scan_necessity))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, *targets):
        self.install(*targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------------

    def _sum(self, values, *names):
        return sum(values[self._ids[n]] for n in names if n in self._ids)

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        scalar = [f"field.{op}" for op in SCALAR_OPS]
        vector = [f"field.{op}" for op in VECTOR_OPS]
        calls, total, own = self.calls, self.total_s, self.self_s
        c = self.counters
        constructed = self._sum(calls, "families.make_family")
        return {
            "field.build_s": (self._sum(total, "field.build_field"), "s"),
            "field.vec_calls": (self._sum(calls, *vector), "count"),
            "field.vec_s": (self._sum(total, *vector), "s"),
            "field.add_vec_s": (self._sum(total, "field.add_vec"), "s"),
            "field.pow_vec_s": (self._sum(total, "field.pow_vec"), "s"),
            "field.scale_vec_s": (self._sum(total, "field.scale_vec"), "s"),
            "field.vec_elems": (c["field.vec_elems"], "count"),
            "field.vec_bytes_computed": (c["field.vec_bytes_computed"], "B"),
            "field.scalar_calls": (self._sum(calls, *scalar), "count"),
            "field.scalar_s": (self._sum(total, *scalar), "s"),
            "poly.parse_s": (self._sum(total, "poly.parse_poly"), "s"),
            "poly.evaluate_all_calls": (self._sum(calls, "poly.evaluate_all"), "count"),
            "poly.evaluate_all_self_s": (self._sum(own, "poly.evaluate_all"), "s"),
            "perm.checks": (self._sum(calls, "perm.is_permutation"), "count"),
            "perm.pp_s": (c["perm.pp_s"], "s"),
            "perm.witness_s": (c["perm.witness_s"], "s"),
            "perm.self_s": (self._sum(own, "perm.is_permutation"), "s"),
            "families.constructed": (constructed, "count"),
            "families.construct_s": (self._sum(total, "families.make_family"), "s"),
            "families.iter_self_s": (self._sum(own, "families.iter_family"), "s"),
            "families.useful_ratio": (c["scan.tuples_evaluated"] / constructed
                                      if constructed else 0.0, "ratio"),
            "scan.tuples_evaluated": (c["scan.tuples_evaluated"], "count"),
            "scan.self_s": (self._sum(own, "scan.scan_sufficiency",
                                      "scan.scan_necessity"), "s"),
        }

    def save_spans(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64))


_END = object()
