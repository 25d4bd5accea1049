"""Spans around calls into the bruhat_satake modules, recorded from outside.

``Tracer.install`` replaces each public function or method named in
``SPANNED`` by a wrapper that records one span per call: name, start,
end, parent span and a work count.  The replacement is made in every
loaded ``bruhat_satake`` module namespace that holds the original
object, because modules import each other's functions by name
(``from .weyl import length``); calls through any of those names are
caught.  Nothing under ``src/`` is changed.

Spans stay in memory and ``Tracer.dump`` writes them to one ``.npz``
file when the traced process ends.  ``report_metrics`` turns one dumped
file into per-process metrics and ``pass_metrics`` sums those over a
pass into the per-layer metrics of ``METRICS``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# Span name -> how the wrapper counts the work of one call.  Names are
# "<module>.<attribute>" or "<module>.<Class>.<attribute>".
SPANNED = {
    "kernels.rref_mod": "mats",
    "kernels.matmul_mod": "mats",
    "kernels.mat_keys": "mats",
    "flagfq.enumerate_flag": "points",
    "flagfq.tau_of_point": None,
    "flagfq.cell_census": None,
    "flagfq.closure_order_check": None,
    "flagfq.cover_lemma_check": "group_order",
    "flagfq.finding_j_check": None,
    "flagfq.meets_trivially": None,
    "weyl.length": None,
    "weyl.longest_element": None,
    "weyl.all_elements": None,
    "weyl.double_coset_partition": None,
    "roots.cell_dim_by_roots": None,
    "roots.unipotent_intersection_dim": None,
    "roots.standard_unipotent_intersection_dim": None,
    "roots.schubert_cell_dim": None,
    "padic.h_invariant": None,
    "padic.factor_P_Gamma1": None,
    "padic.random_congruence_element": None,
    "padic.random_parabolic_element": None,
    "padic.in_level": None,
    "padic.BlockMatrix.__mul__": None,
    "satake.verify_determinant_factorization": None,
    "satake.LaurentPoly.__mul__": None,
    "ordcoh.ordinary_part_of_hecke_gamma": None,
    "ordcoh.ordinary_limit": None,
}

# Calls that are only counted: a span per WeylElement would cost more
# than the construction it measures.
COUNTED = {"weyl.WeylElement.__post_init__": "weyl.WeylElement.built"}

# Every per-layer metric with its unit, in report order.
METRICS = {
    "kernels.rref_mod.calls": "count",
    "kernels.rref_mod.mats": "count",
    "kernels.rref_mod.self_s": "s",
    "kernels.rref_mod.bytes_computed": "B",
    "kernels.matmul_mod.calls": "count",
    "kernels.matmul_mod.mats": "count",
    "kernels.matmul_mod.self_s": "s",
    "kernels.matmul_mod.madds_computed": "count",
    "kernels.matmul_mod.bytes_computed": "B",
    "kernels.mat_keys.calls": "count",
    "kernels.mat_keys.mats": "count",
    "kernels.mat_keys.self_s": "s",
    "kernels.mats_per_call": "mats/call",
    "flagfq.enumerate_flag.self_s": "s",
    "flagfq.enumerate_flag.points": "count",
    "flagfq.tau_of_point.calls": "count",
    "flagfq.tau_of_point.self_s": "s",
    "flagfq.cell_census.self_s": "s",
    "flagfq.closure_order_check.self_s": "s",
    "flagfq.cover_lemma_check.self_s": "s",
    "flagfq.finding_j_check.self_s": "s",
    "flagfq.meets_trivially.calls": "count",
    "flagfq.meets_trivially.self_s": "s",
    "flagfq.cover.keys": "count",
    "flagfq.cover.group_elements": "count",
    "flagfq.cover.keys_per_group_element": "keys/element",
    "weyl.length.calls": "count",
    "weyl.length.self_s": "s",
    "weyl.longest_element.self_s": "s",
    "weyl.all_elements.self_s": "s",
    "weyl.double_coset_partition.self_s": "s",
    "weyl.WeylElement.built": "count",
    "roots.cell_dim_by_roots.calls": "count",
    "roots.cell_dim_by_roots.self_s": "s",
    "roots.unipotent_intersection_dim.self_s": "s",
    "roots.standard_unipotent_intersection_dim.self_s": "s",
    "roots.schubert_cell_dim.self_s": "s",
    "padic.h_invariant.calls": "count",
    "padic.h_invariant.self_s": "s",
    "padic.factor_P_Gamma1.calls": "count",
    "padic.factor_P_Gamma1.self_s": "s",
    "padic.random_congruence_element.self_s": "s",
    "padic.random_parabolic_element.self_s": "s",
    "padic.in_level.self_s": "s",
    "padic.BlockMatrix.mul.calls": "count",
    "padic.BlockMatrix.mul.self_s": "s",
    "satake.verify_determinant_factorization.self_s": "s",
    "satake.LaurentPoly.mul.calls": "count",
    "satake.LaurentPoly.mul.self_s": "s",
    "ordcoh.ordinary_part_of_hecke_gamma.self_s": "s",
    "ordcoh.ordinary_limit.calls": "count",
    "ordcoh.ordinary_limit.self_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.errors": "count",
}

# Metrics that must repeat exactly between two traced runs of one item.
COUNT_SUFFIXES = (".calls", ".mats", ".points", ".built")

_INT64 = 8  # bytes per matrix entry: the kernels take and return int64


def _metric_name(span: str) -> str:
    return span.replace(".__mul__", ".mul")


def _n_mats(shape: tuple) -> int:
    return 1 if len(shape) == 2 else int(shape[0])


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self, item: str, cli: bool):
        self.item = item
        self.cli = cli
        self.names = list(SPANNED)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {
            "kernels.rref_mod.bytes_computed": 0,
            "kernels.matmul_mod.madds_computed": 0,
            "kernels.matmul_mod.bytes_computed": 0,
            "trace.errors": 0,
            **{metric: 0 for metric in COUNTED.values()},
        }
        self.marks: dict[str, float] = {}

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter()

    def _work(self, name: str, args: tuple, result) -> int:
        kind = SPANNED[name]
        if kind == "mats":
            shape = np.shape(args[0])
            mats = _n_mats(shape)
            if name == "kernels.rref_mod":
                entries = mats * shape[-2] * shape[-1]
                # stack read once, RREF stack written once, one rank per matrix
                self.counters["kernels.rref_mod.bytes_computed"] += _INT64 * (2 * entries + mats)
            elif name == "kernels.matmul_mod":
                r, s = shape[-2:]
                b_shape = np.shape(args[1])
                t = b_shape[-1]
                b_entries = int(np.prod(b_shape))
                self.counters["kernels.matmul_mod.madds_computed"] += mats * r * s * t
                self.counters["kernels.matmul_mod.bytes_computed"] += _INT64 * (
                    mats * r * s + b_entries + mats * r * t
                )
            return mats
        if kind == "points":
            return len(result)
        return int(result["group_order"])

    def _span(self, name: str, fn):
        nid = self.names.index(name)
        spans, stack = self.spans, self.stack
        counts_work = SPANNED[name] is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.counters["trace.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                work = self._work(name, args, result) if counts_work and result is not None else 0
                spans[idx] = (nid, start, end, parent, work)

        return wrapper

    def _count(self, metric: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every name in SPANNED and COUNTED in the loaded package."""
        import bruhat_satake  # noqa: F401  (loads every module)

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "bruhat_satake"]
        targets = [(name, self._span) for name in SPANNED]
        targets += [(name, lambda name, fn: self._count(COUNTED[name], fn)) for name in COUNTED]
        for name, make in targets:
            module_name, *path = name.split(".")
            owner = sys.modules[f"bruhat_satake.{module_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapped = make(name, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        spans = np.array([s for s in self.spans if s is not None], dtype=np.float64).reshape(-1, 5)
        meta = {"item": self.item, "cli": self.cli, "names": self.names, "counters": self.counters, "marks": self.marks}
        np.savez(path, spans=spans, meta=np.array(json.dumps(meta)))


def load(path: str) -> tuple[np.ndarray, dict]:
    with np.load(path) as data:
        return data["spans"], json.loads(str(data["meta"]))


def report_metrics(spans: np.ndarray, meta: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    Self time is a span's duration minus the durations of its child spans;
    spans nest strictly because each process runs one thread.
    """
    names = meta["names"]
    out = {name: 0.0 for name in METRICS}
    out.update(meta["counters"])
    if len(spans):
        nid = spans[:, 0].astype(np.int64)
        parent = spans[:, 3].astype(np.int64)
        dur = spans[:, 2] - spans[:, 1]
        child = np.zeros(len(spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        work = spans[:, 4]
        for i, name in enumerate(names):
            pick = nid == i
            quantities = {"calls": int(pick.sum()), "self_s": float(self_s[pick].sum())}
            if SPANNED[name]:
                quantities[SPANNED[name]] = int(work[pick].sum())
            for quantity, value in quantities.items():
                key = f"{_metric_name(name)}.{quantity}"
                if key in out:
                    out[key] = value
        # matrices keyed inside cover_lemma_check spans (their parent chains
        # lead to a cover span); parents always precede their children
        cover_id = names.index("flagfq.cover_lemma_check")
        keys_id = names.index("kernels.mat_keys")
        inside = np.zeros(len(spans), dtype=bool)
        for i in range(len(spans)):
            inside[i] = nid[i] == cover_id or (parent[i] >= 0 and inside[parent[i]])
        out["flagfq.cover.keys"] = int(work[inside & (nid == keys_id)].sum())
        out["flagfq.cover.group_elements"] = int(work[nid == cover_id].sum())
        roots_total = float(dur[~has_parent].sum())
    else:
        roots_total = 0.0
    marks = meta["marks"]
    if meta["cli"]:
        out["cli.import_s"] = marks["imported"] - marks["start"]
        out["cli.self_s"] = (marks["main_end"] - marks["main_start"]) - roots_total
    # the process's own wall time: its imports and its work, without the
    # tracer installing its wrappers in between
    out["process_s"] = (marks["imported"] - marks["start"]) + (marks["main_end"] - marks["main_start"])
    return out


def pass_metrics(reports: list[dict[str, float]]) -> dict[str, float]:
    """Sum the per-process metrics of one pass and derive its ratios."""
    total = {name: 0.0 for name in METRICS}
    for report in reports:
        for key in METRICS:
            total[key] += report.get(key, 0.0)
    calls = sum(total[f"kernels.{f}.calls"] for f in ("rref_mod", "matmul_mod", "mat_keys"))
    mats = sum(total[f"kernels.{f}.mats"] for f in ("rref_mod", "matmul_mod", "mat_keys"))
    total["kernels.mats_per_call"] = mats / calls if calls else 0.0
    group = total["flagfq.cover.group_elements"]
    total["flagfq.cover.keys_per_group_element"] = total["flagfq.cover.keys"] / group if group else 0.0
    return total


def counts_of(report: dict[str, float]) -> dict[str, int]:
    """The count metrics of one process, which must repeat exactly."""
    return {k: int(v) for k, v in report.items() if k.endswith(COUNT_SUFFIXES)}
