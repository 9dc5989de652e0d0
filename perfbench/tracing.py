"""Span tracing around the calls into each hermipir layer.

Only the traced benchmark session installs these wrappers; the package
itself carries no instrumentation.  A ``Tracer`` replaces a layer's public
functions and methods with wrappers that record one span per call:
(name, start, end, parent span, operation id).  Spans stay in memory until
the session ends and writes them out.

A function is replaced in its defining module and in every ``hermipir``
module that bound it by name (``from hermipir.linalg import rank``), so the
layers that a workload reaches only through ``scheme`` or ``atlas`` are
covered too.  Calls from ``fields`` into ``fields`` (``sub_arr`` calling
``add_arr``, ``matmul_arr``'s inner loop) get no span of their own: they are
part of the enclosing field operation's work.

A span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import json
import socket
import sys
import time
from collections import defaultdict

_INHERITED = object()

ELEMENTWISE = ("add_arr", "sub_arr", "neg_arr", "mul_arr", "inv_arr", "pow_arr", "sum_arr")
SCHEME_STAGES = ("build", "encode", "query", "answer", "decode", "certify")
CATALOG_PAIRS = tuple((order, genus) for order in (17, 19, 23, 27) for genus in (1, 2))


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # vars(): an attribute a class only inherits is deleted on undo
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder that patches hermipir layers while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []   # (name, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        # operation id stamped on new spans: the trial or regeneration index,
        # -1 during set-up, -2 during the secondary operation
        self.op = -1
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._patches = Patches()

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """A wrapper of `fn` recording span `name`; `count(counts, args,
        kwargs, result)` updates counters after a successful call."""
        layer = name.partition(".")[0]
        fold = layer == "fields"
        spans, stack, layers, clock = self.spans, self._stack, self._layers, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fold and layers and layers[-1] == "fields":
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(idx)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[idx] = (name, start, end, parent, op)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, count=None, fn=None) -> None:
        """Replace module.attr, and every hermipir module's binding of the
        same object, by a traced wrapper of `fn` (default: the original)."""
        orig = getattr(module, attr)
        wrapped = self.wrap(name, fn if fn is not None else orig, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "hermipir" and getattr(mod, attr, None) is orig:
                self._patches.set(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        self._patches.set(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- install -------------------------------------------------------------

    def install(self, atlas_search_fn) -> None:
        """Wrap every layer.  `atlas_search_fn` stands in for
        ``atlas.achievable_profiles`` (it must keep that function's cache and
        record search counters)."""
        from hermipir import atlas, codes, curve, fields, linalg, scheme, tables, transport

        f = fields.GFField
        for attr in ELEMENTWISE:
            self.patch_method(f, attr, "fields.elementwise")
        self.patch_method(f, "matmul_arr", "fields.matmul", _count_mac)
        self.patch_method(f, "sample_arr", "fields.sample")

        self.patch_function(linalg, "rref", "linalg.rref", _count_cells)
        self.patch_function(linalg, "rank", "linalg.rank")
        self.patch_function(linalg, "solve_prefix", "linalg.solve_prefix")
        self.patch_function(linalg, "right_kernel_basis", "linalg.kernel")
        self.patch_function(linalg, "select_full_rank_rows", "linalg.select_rows")
        self.patch_method(linalg.ColumnSpace, "__init__", "linalg.column_space")
        self.patch_method(linalg.ColumnSpace, "contains", "linalg.column_space", _counter("linalg.column_space.contains_calls"))

        for attr in ("info_basis", "one_point_basis", "two_point_monomial_set", "interpolation_basis"):
            self.patch_function(curve, attr, "curve.basis")
        self.patch_method(curve.CurveFunction, "evaluate_many", "curve.eval", _count_points)
        self.patch_method(curve.CurveFunction, "evaluate", "curve.eval", _counter("curve.eval.points"))

        self.patch_function(codes, "dual_distance_bound", "codes.dual_bound")
        self.patch_function(codes, "check_w_wise_independence", "codes.independence")

        s = scheme.SchemeInstance
        self.patch_function(scheme, "build_instance", "scheme.build")
        self.patch_method(s, "encode_storage", "scheme.encode")
        self.patch_method(s, "make_queries", "scheme.query")
        self.patch_method(s, "all_answers", "scheme.answer")
        self.patch_method(s, "server_answer", "scheme.answer")
        self.patch_method(s, "reconstruct", "scheme.decode")
        self.patch_function(scheme, "certify_instance", "scheme.certify")
        self.patch_function(scheme, "run_pir_demo", "scheme.demo")

        self.patch_function(transport, "run_demo_over_sockets", "transport.demo")
        self.patch_function(transport, "encode_elements", "transport.encode")
        self.patch_function(transport, "send_frame", "transport.send")
        self.patch_function(transport, "recv_frame", "transport.recv", _count_frames_received)
        counts = self.counts
        sendall, recv = socket.socket.sendall, socket.socket.recv

        def counted_sendall(sock, data, *args):
            counts["transport.frames_sent"] += 1
            counts["transport.bytes_sent"] += len(data)
            return sendall(sock, data, *args)

        def counted_recv(sock, *args):
            chunk = recv(sock, *args)
            counts["transport.bytes_received"] += len(chunk)
            return chunk

        self._patches.set(socket.socket, "sendall", counted_sendall)
        self._patches.set(socket.socket, "recv", counted_recv)

        self.patch_function(atlas, "achievable_profiles", "atlas.search", fn=atlas_search_fn)
        self.patch_function(atlas, "curve_search_best_rate", "atlas.best_rate")
        self.patch_function(atlas, "hyperelliptic_best", "atlas.closed_form")
        for attr in ("build_table1", "build_table2", "build_table3"):
            self.patch_function(tables, attr, "tables.build")
        self.patch_function(tables, "render_json", "tables.render")

    # -- analysis ------------------------------------------------------------

    def finished_spans(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus the
        inclusive scheme-stage seconds per operation id."""
        spans = self.finished_spans()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        stage_by_op: dict[int, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, op = span
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[idx]
            if name in ("scheme.encode", "scheme.query", "scheme.answer", "scheme.decode") and op >= 0:
                stage_by_op[op] += end - start
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(own),
                "stage_s_by_op": dict(stage_by_op)}

    def write(self, path) -> None:
        """Write every span as compact JSON (times relative to the first)."""
        spans = self.finished_spans()
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[1] for s in spans), default=0.0)
        rows = [[index[name], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), parent, op]
                for name, a, b, parent, op in spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "op"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def _counter(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _count_mac(counts, args, kwargs, result):
    _, a, b = args
    counts["fields.matmul.mac"] += len(a) * len(b) * len(b[0])


def _count_cells(counts, args, kwargs, result):
    rows, cols = result[0].shape
    counts["linalg.rref.cells"] += rows * cols


def _count_points(counts, args, kwargs, result):
    counts["curve.eval.points"] += len(args[1])


def _count_frames_received(counts, args, kwargs, result):
    if result is not None:
        counts["transport.frames_received"] += 1


def layer_metrics(summary: dict, counts: dict, extra: dict) -> dict:
    """The per-layer metric values named in BENCHMARK.json."""
    calls, own, total = summary["calls"], summary["self_s"], summary["total_s"]
    out = {
        "fields.matmul.calls": calls.get("fields.matmul", 0),
        "fields.matmul.self_s": own.get("fields.matmul", 0.0),
        "fields.matmul.mac": counts.get("fields.matmul.mac", 0),
        "fields.elementwise.calls": calls.get("fields.elementwise", 0),
        "fields.elementwise.self_s": own.get("fields.elementwise", 0.0),
        "fields.sample.self_s": own.get("fields.sample", 0.0),
        "linalg.rref.calls": calls.get("linalg.rref", 0),
        "linalg.rref.self_s": own.get("linalg.rref", 0.0),
        "linalg.rref.total_s": total.get("linalg.rref", 0.0),
        "linalg.rref.cells": counts.get("linalg.rref.cells", 0),
        "linalg.select_rows.self_s": own.get("linalg.select_rows", 0.0),
        "linalg.column_space.self_s": own.get("linalg.column_space", 0.0),
        "linalg.column_space.contains_calls": counts.get("linalg.column_space.contains_calls", 0),
        "curve.basis.self_s": own.get("curve.basis", 0.0),
        "curve.eval.self_s": own.get("curve.eval", 0.0),
        "curve.eval.points": counts.get("curve.eval.points", 0),
        "codes.dual_bound.self_s": own.get("codes.dual_bound", 0.0),
        "codes.independence.self_s": own.get("codes.independence", 0.0),
        "codes.independence.calls": calls.get("codes.independence", 0),
    }
    for stage in SCHEME_STAGES:
        out[f"scheme.{stage}.calls"] = calls.get(f"scheme.{stage}", 0)
        out[f"scheme.{stage}.self_s"] = own.get(f"scheme.{stage}", 0.0)
        out[f"scheme.{stage}.total_s"] = total.get(f"scheme.{stage}", 0.0)
    for key in ("frames_sent", "bytes_sent", "frames_received", "bytes_received"):
        out[f"transport.{key}"] = counts.get(f"transport.{key}", 0)
    out["transport.encode.self_s"] = own.get("transport.encode", 0.0)
    out["transport.send.self_s"] = own.get("transport.send", 0.0)
    out["transport.answer_wait_s"] = total.get("transport.recv", 0.0)
    out["transport.pool_start_s"] = extra.get("pool_start_s", 0.0)
    out["atlas.search.models"] = counts.get("atlas.search.models", 0)
    out["atlas.search.self_s"] = own.get("atlas.search", 0.0)
    out["atlas.search.distinct_profiles"] = counts.get("atlas.search.distinct_profiles", 0)
    for order, genus in CATALOG_PAIRS:
        models = counts.get(f"atlas.search.models.{order}g{genus}", 0)
        seconds = counts.get(f"atlas.search.seconds.{order}g{genus}", 0.0)
        out[f"atlas.search.models_per_s.{order}g{genus}"] = models / seconds if seconds else 0.0
    lookups = counts.get("atlas.search.lookups", 0)
    out["atlas.search.cache_hit_ratio"] = counts.get("atlas.search.hits", 0) / lookups if lookups else 0.0
    out["atlas.closed_form.self_s"] = own.get("atlas.closed_form", 0.0)
    out["tables.build.self_s"] = own.get("tables.build", 0.0)
    out["tables.render.self_s"] = own.get("tables.render", 0.0)
    return out
