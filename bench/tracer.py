"""Per-layer tracing of ``mdyck`` from outside the library.

Each layer is a module of ``mdyck``.  ``Tracer.install`` wraps the public
functions listed in ``TRACED`` and rebinds every module attribute of
``mdyck`` that refers to one of them, so calls through ``from .x import f``
names are traced too.  The library's source is never edited.

Every call through a wrapper records one span: the function, its start and
end (``perf_counter_ns``) and the span that was open when it began.  Spans
stay in memory until ``write_spans`` stores them at the end of the run.  A
function's self time is the duration of its spans minus the time covered by
their direct child spans.  Counts that a cache or a faster kernel would move
(product result terms, repeated arguments, matrix shapes, closure sizes) are
taken from the arguments and results the wrapper sees; no private memo
table is read.  Book-keeping after a call lands in the caller's self time
and in the run's tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# (layer, attribute path in the module, metric name below the layer)
TRACED = (
    ("exactlin", "LinComb.__add__", "LinComb.add"),
    ("exactlin", "LinComb.scale", "LinComb.scale"),
    ("exactlin", "LinComb.__init__", "LinComb.init"),
    ("exactlin", "bilinear", "bilinear"),
    ("exactlin", "lincombs_to_matrix", "lincombs_to_matrix"),
    ("exactlin", "has_full_rank", "has_full_rank"),
    ("exactlin", "matrix_rank", "matrix_rank"),
    ("trees", "TreeOracle.product", "TreeOracle.product"),
    ("trees", "tree_normal_form", "tree_normal_form"),
    ("trees", "enumerate_Bm", "enumerate_Bm"),
    ("trees", "verify_dyck_axioms", "verify_dyck_axioms"),
    ("trees", "verify_circ_relations", "verify_circ_relations"),
    ("paths", "path_product", "path_product"),
    ("paths", "phi", "phi"),
    ("paths", "enumerate_paths", "enumerate_paths"),
    ("tamari", "build_lattice", "build_lattice"),
    ("tamari", "covers", "covers"),
    ("tamari", "TamariLattice.interval", "TamariLattice.interval"),
    ("tamari", "verify_interval_product", "verify_interval_product"),
    ("orders", "closure_masks", "closure_masks"),
    ("posets", "ordm_product", "ordm_product"),
    ("posets", "verify_dendriform_poset", "verify_dendriform_poset"),
    ("simplicial", "verify_Sk_freeness", "verify_Sk_freeness"),
    ("simplicial", "verify_simplicial_identities", "verify_simplicial_identities"),
    ("series", "check_series_identities", "check_series_identities"),
    ("cli", "main", "main"),
)

# basis products: result terms and the share of calls with repeated arguments
PRODUCTS = ("trees.TreeOracle.product", "paths.path_product", "posets.ordm_product")


def _rank_counts(args, result, counts):
    matrix = args[0]
    counts["exactlin.rank.rows"] += matrix.rows
    counts["exactlin.rank.cols"] += matrix.cols
    counts["exactlin.rank.nnz"] += sum(1 for row in matrix.entries for x in row if x)


def _closure_counts(args, result, counts):
    counts["orders.closure_masks.elements"] += args[0]
    counts["orders.closure_masks.pairs"] += sum(mask.bit_count() for mask in result[0])


# extra counts taken from a call's arguments and result, by traced name
HOOKS = {
    "exactlin.has_full_rank": _rank_counts,
    "exactlin.matrix_rank": _rank_counts,
    "orders.closure_masks": _closure_counts,
}

COUNTS = (
    "exactlin.rank.rows",
    "exactlin.rank.cols",
    "exactlin.rank.nnz",
    "orders.closure_masks.elements",
    "orders.closure_masks.pairs",
)


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, _, name in TRACED]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in traced_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in COUNTS]
    for name in PRODUCTS:
        out += [(f"{name}.terms", "count"), (f"{name}.repeat_ratio", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.names = traced_names()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.terms = dict.fromkeys(PRODUCTS, 0)
        self.seen = {name: set() for name in PRODUCTS}
        self.repeats = dict.fromkeys(PRODUCTS, 0)
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for layer in {layer for layer, _, _ in TRACED}:
            importlib.import_module(f"mdyck.{layer}")
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "mdyck" or name.startswith("mdyck.")
        ]
        for index, (layer, path, _) in enumerate(TRACED):
            owner_name, _, attr = path.rpartition(".")
            module = sys.modules[f"mdyck.{layer}"]
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(index, original)
            if owner_name:
                self._rebind(owner, attr, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, index: int, fn):
        name = self.names[index]
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        open_spans = self._open
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)
        product = name in PRODUCTS
        seen = self.seen.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(span_name)
            span_name.append(index)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_end.append(0)
            open_spans.append(span)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                open_spans.pop()
            if product:
                self.terms[name] += len(result)
                key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            if hook is not None:
                hook(args, result, self.counts)
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        child_ns = [0] * len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        # a child span is opened after its parent, so it has the larger index
        # and a reverse pass adds its time to the parent before the parent
        for span in range(len(self.span_name) - 1, -1, -1):
            duration = ends[span] - starts[span]
            parent = parents[span]
            if parent >= 0:
                child_ns[parent] += duration
            index = self.span_name[span]
            calls[index] += 1
            self_ns[index] += duration - child_ns[span]
        out: dict[str, float] = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = self_ns[index] / 1e9
        out.update(self.counts)
        for name in PRODUCTS:
            product_calls = calls[self.names.index(name)]
            out[f"{name}.terms"] = self.terms[name]
            out[f"{name}.repeat_ratio"] = (
                self.repeats[name] / product_calls if product_calls else 0.0
            )
        return out

    def write_spans(self, stem: Path, header: dict) -> None:
        """Store spans as ``<stem>.json`` (names, fields) and ``<stem>.bin``.

        The binary file holds four arrays of ``count`` items each, in the
        order of ``fields`` and in the byte order the header names: name
        index (int32), parent span (int32, -1 at top level), start and end
        (int64 nanoseconds).
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for a in (self.span_name, self.span_parent, self.span_start, self.span_end):
                a.tofile(handle)
        meta = dict(
            header,
            names=self.names,
            count=len(self.span_name),
            byteorder=sys.byteorder,
            fields=["name:int32", "parent:int32", "start_ns:int64", "end_ns:int64"],
        )
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
