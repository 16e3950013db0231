"""Spans and counters recorded around calls into vprkit's public functions.

The benchmark never edits the package. ``Tracer.install`` replaces module
attributes (and a few methods) with timing wrappers, and ``uninstall`` puts
the originals back. A span is (id, name, parent, start, end) in
``time.perf_counter`` seconds; spans and counters stay in memory until
``dump`` writes them out once the traced work has finished.

``summarize`` turns dumped spans into per-name call counts, inclusive time,
self time (the span minus the part of its interval that child spans cover)
and call-duration percentiles.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _count_haversine(tracer, args, result):
    tracer.count("dataset.haversine_pairs", int(np.size(result)))


def _count_distance_evals(tracer, args, result):
    vectors, queries = args[0], args[1]
    tracer.count("retrieval.distance_evals", vectors.shape[0] * queries.shape[0])
    # computed, not measured: the per-query kernel reads the whole float64
    # index once per query
    tracer.count("retrieval.bytes_scanned", queries.shape[0] * vectors.nbytes)


def _count_table_rows(tracer, args, result):
    tracer.count("matching.table_rows", len(result))


def count_pair(tracer, args, result):
    tracer.add_pair((args[1], args[2]))  # args[0] is the provider


def _keep_shortlists(tracer, args, result):
    tracer.shortlists = result


def _count_gate(tracer, args, result):
    tracer.count("rerank.gate_fired", int(result.gate_fired))


def _count_newton(tracer, args, result):
    tracer.count("uncertainty.newton_iters", len(result.fit_losses) - 1)


# (module, attribute path, span name, result hook). A function is replaced
# in every vprkit module that imported it by name, so calls through
# ``from .x import f`` are traced too. Only the provider the pipeline is
# handed is wrapped, so delegating providers are not counted twice.
TARGETS = [
    ("vprkit.dataset", "load_split", "dataset.load_split", None),
    ("vprkit.dataset", "haversine_many", "dataset.haversine", _count_haversine),
    ("vprkit.retrieval", "build_index", "retrieval.build_index", None),
    ("vprkit.retrieval", "search_all", "retrieval.search_all", _keep_shortlists),
    ("vprkit._kernels", "sq_dists_batch", "retrieval.kernel", _count_distance_evals),
    ("vprkit.retrieval", "write_shortlists_csv", "retrieval.csv_write", None),
    ("vprkit.retrieval", "read_shortlists_csv", "retrieval.csv_read", None),
    ("vprkit.matching", "load_inlier_table", "matching.load_table", _count_table_rows),
    ("vprkit.matching", "TableProvider.get_inliers", "matching.get_inliers", count_pair),
    ("vprkit.rerank", "rerank", "rerank.rerank", None),
    ("vprkit.rerank", "adaptive_rerank", "rerank.adaptive", _count_gate),
    ("vprkit.rerank", "write_reranked_csv", "rerank.csv_write", None),
    ("vprkit.uncertainty", "u_l2", "uncertainty.l2", None),
    ("vprkit.uncertainty", "u_pa", "uncertainty.pa", None),
    ("vprkit.uncertainty", "u_sue", "uncertainty.sue", None),
    ("vprkit.uncertainty", "u_random", "uncertainty.random", None),
    ("vprkit.uncertainty", "u_inlier", "uncertainty.inlier", None),
    ("vprkit.uncertainty", "fit_logistic", "uncertainty.fit", _count_newton),
    ("vprkit.evaluation", "evaluate_pipeline", "evaluation.pipeline", None),
    ("vprkit.evaluation", "recall_at_k", "evaluation.recall", None),
    ("vprkit.evaluation", "pr_curve", "evaluation.pr_curve", None),
    ("vprkit.evaluation", "auprc", "evaluation.auprc", None),
    ("vprkit.evaluation", "EvalReport.to_json", "evaluation.report_json", None),
    ("vprkit.evaluation", "EvalReport.to_text", "evaluation.report_text", None),
    ("vprkit.evaluation", "write_pr_curves_csv", "evaluation.pr_csv", None),
    ("vprkit.synth", "generate", "synth.generate", None),
    ("vprkit.synth", "write_instance", "synth.write", None),
    ("vprkit.cli", "cmd_retrieve", "cli.retrieve", None),
    ("vprkit.cli", "cmd_rerank", "cli.rerank", None),
    ("vprkit.cli", "cmd_uncertainty", "cli.uncertainty", None),
    ("vprkit.cli", "cmd_calibrate", "cli.calibrate", None),
    ("vprkit.cli", "cmd_gate", "cli.gate", None),
    ("vprkit.cli", "cmd_evaluate", "cli.evaluate", None),
]


class Tracer:
    """Records spans and counters; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.pairs: set[tuple[str, str]] = set()
        self.shortlists: list = []  # the last search_all result, for output checks
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack  # created on the main thread
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def add_pair(self, pair: tuple[str, str]) -> None:
        with self._lock:
            self.pairs.add(pair)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a pool thread's first span belongs to whatever the main thread has
        # open, e.g. evaluate_pipeline while it waits on its thread pool
        if self._main_stack:
            return self._main_stack[-1]
        return 0

    def wrap(self, original, name: str, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.count(name + ".errors")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name_id, parent, start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self, extra=()) -> None:
        """Wrap every target; ``extra`` adds (owner, attribute, name, hook)."""
        missing = []
        for module_name, path, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(original, name, hook)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "vprkit" or mod_name.startswith("vprkit.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for owner, attr, name, hook in extra:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, hook))
        if missing:
            print("perfbench: not traced (absent): " + ", ".join(missing), file=sys.stderr)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def span_arrays(self) -> dict[str, np.ndarray]:
        """This process's spans as the arrays ``summarize`` reads."""
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return {"ids": spans[:, 0].astype(np.int64), "name_ids": spans[:, 1].astype(np.int64),
                "parents": spans[:, 2].astype(np.int64), "starts": spans[:, 3],
                "ends": spans[:, 4], "names": np.array(self.names, dtype=str)}

    def dump(self, out_dir, extra: dict) -> None:
        """Write spans.npz and counts.json (counters plus ``extra``) into ``out_dir``."""
        np.savez(f"{out_dir}/spans.npz", **self.span_arrays())
        counts = dict(self.counts)
        counts["matching.unique_pairs"] = len(self.pairs)
        with open(f"{out_dir}/counts.json", "w", encoding="utf-8") as fh:
            json.dump({"counts": counts, **extra}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on two threads may overlap)."""
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + cur_end - cur_start


def summarize(processes) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s, p50_ms, p99_ms.

    ``processes`` holds one mapping per traced process, with the arrays that
    ``Tracer.dump`` writes; span ids are only unique within a process.
    """
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    durations: dict[str, list[np.ndarray]] = defaultdict(list)
    for spans in processes:
        names = [str(n) for n in spans["names"]]
        ids = spans["ids"].tolist()
        name_ids = spans["name_ids"].tolist()
        parents = spans["parents"].tolist()
        starts = spans["starts"].tolist()
        ends = spans["ends"].tolist()
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for parent, start, end in zip(parents, starts, ends):
            if parent:
                children[parent].append((start, end))
        covered = {sid: _covered(ivs) for sid, ivs in children.items()}
        for sid, name_id, start, end in zip(ids, name_ids, starts, ends):
            st = stats[names[name_id]]
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - covered.get(sid, 0.0)
        dur = spans["ends"] - spans["starts"]
        for name_id, name in enumerate(names):
            durations[name].append(dur[spans["name_ids"] == name_id])
    for name, parts in durations.items():
        d = np.concatenate(parts)
        if d.size:
            stats[name]["p50_ms"] = float(np.percentile(d, 50)) * 1e3
            stats[name]["p99_ms"] = float(np.percentile(d, 99)) * 1e3
    return dict(stats)
