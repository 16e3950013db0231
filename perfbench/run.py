#!/usr/bin/env python3
"""Pipeline benchmark for vprkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates a synthetic instance from --seed with ``vprkit.synth.generate``,
then runs passes of one workload for --seconds seconds. A pass is one whole
job as a user runs it, from the files on disk to the report or CSVs on disk,
in child processes started one at a time (closed loop, one client), all on
one CPU. Every pass is checked:

* shortlists (each traced pass's ``search_all`` result, and the first good
  ``staged_cli`` pass's shortlist CSV) equal a full-sort oracle owned by this
  file: float64 distances accumulated one dimension at a time, ordered by
  distance, then by database insertion index;
* the first good pass's retrieval Recall@K equals a recomputation from
  ``SynthInstance.truth``;
* every later pass writes outputs byte-identical to that first good pass.

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1
alternates untraced and traced passes (see tracer.py) and reports per-layer
metrics from the traced ones, plus the tracing overhead. ``--workload all``
runs every workload in turn.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Exit status: 0 when
every check passed, 1 when a pass failed, 2 when the benchmark cannot run
(for instance when the vprkit sources are not next to this directory).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"
SPAWN = HERE / "spawn.py"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_MIN_REPEATS = 3  # and at least SETUP_MIN_S in all, so small set-ups
SETUP_MIN_S = 3.0      # still give a steady median
PASS_TIMEOUT_S = 60.0
TAU_KEY = "25.0"  # the CLI's default tau, as EvalReport keys it


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "evaluate", "staged" or "verify"
    n_db: int
    n_queries: int
    dim: int
    k: int
    target_r1: float
    matcher_quality: float


# Sizes keep one pass near 1.3-3 s on a 2-core box, so a 20 s run holds
# 7-16 passes and its medians are steady. Why each workload exists:
WORKLOADS = {w.name: w for w in (
    # exact search dominates: 128-d descriptors, k = 10 keeps every
    # shortlist layer tiny (ROADMAP item 2 exercised, item 3 bypassed)
    Workload("search_bound", "evaluate", 4000, 150, 128, 10, 0.9, 0.95),
    # the hard regime: 16-d, k = 100, the gate fires on about a third of
    # the queries; shortlist layers (recall, rerank, adaptive, table load)
    # dominate and the kernel is a minority (item 3 exercised, item 2 not)
    Workload("shortlist_bound", "evaluate", 1000, 1000, 16, 100, 0.7, 0.9),
    # the same layers through the staged CLI chain: one process per command,
    # each re-reading the CSV the previous one wrote
    Workload("staged_cli", "staged", 300, 300, 16, 100, 0.7, 0.9),
    # in-process evaluate_pipeline(workers=2) against a real out-of-process
    # matcher; the only workload where a matcher call costs a process start,
    # and the only one that runs the semaphore and the thread pool
    Workload("verify_subprocess", "verify", 1000, 100, 32, 10, 0.8, 0.9),
)}

STAGED_STEPS = ("retrieve", "rerank", "uncertainty", "calibrate", "gate")
OUTPUTS = {
    "evaluate": ("report.json", "pr.csv"),
    "staged": ("shortlists.csv", "reranked.csv", "scores.csv", "model.json", "gated.csv"),
    "verify": ("report.json",),
}


class CheckFailed(Exception):
    """A pass produced output the benchmark cannot accept."""


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    steal_s: float = 0.0  # part of wall_s the hypervisor held the CPU away
    peak_rss_mb: float = 0.0
    traced_wall_s: float = 0.0  # spawn to end of work, without writing the trace
    outputs: dict[str, bytes] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)  # one per process
    layers: dict[str, float] = field(default_factory=dict)  # from the traces
    error: str | None = None


class Oracle:
    """Full-sort answers for every query, computed without vprkit's kernels."""

    def __init__(self, instance, k: int):
        db = np.asarray(instance.db.blob.rows, dtype=np.float64)
        queries = np.asarray(instance.queries.blob.rows, dtype=np.float64)
        db_t = np.ascontiguousarray(db.T)
        db_ids = [r.id for r in instance.db.records]
        row_of = {db_id: i for i, db_id in enumerate(db_ids)}
        insertion = np.arange(len(db_ids))
        self.k = k
        self.shortlists: dict[str, tuple[list[str], list[float]]] = {}
        truth_rank = []
        block = 64
        for lo in range(0, len(queries), block):
            qb = queries[lo:lo + block]
            d2 = np.zeros((len(qb), len(db_ids)))
            for j in range(db.shape[1]):
                diff = db_t[j][None, :] - qb[:, j][:, None]
                d2 += diff * diff
            for row, dists in enumerate(d2):
                order = np.lexsort((insertion, dists))
                qid = instance.queries.records[lo + row].id
                top = order[:k]
                self.shortlists[qid] = ([db_ids[i] for i in top], np.sqrt(dists[top]).tolist())
                truth = row_of[instance.truth[qid]]
                truth_rank.append(int(np.flatnonzero(order == truth)[0]))
        self.truth_rank = np.array(truth_rank)

    def recall(self, kk: int) -> float:
        """Percent of queries whose true match is in the top kk of a k-list."""
        hits = int(np.count_nonzero(self.truth_rank < min(kk, self.k)))
        return 100.0 * hits / len(self.truth_rank)

    def check_shortlists(self, shortlists, source: str) -> None:
        if len(shortlists) != len(self.shortlists):
            raise CheckFailed(f"{source}: {len(shortlists)} shortlists, "
                              f"expected {len(self.shortlists)}")
        for qid, ids, dists in shortlists:
            if (ids, dists) != self.shortlists.get(qid):
                raise CheckFailed(f"{source}: shortlist of {qid} differs from the full-sort oracle")

    def check_report(self, raw: bytes, source: str) -> None:
        report = json.loads(raw)
        got = report["recalls"][TAU_KEY]["retrieval"]
        for kk in report["ks"]:
            if got[str(kk)] != self.recall(kk):
                raise CheckFailed(f"{source}: retrieval R@{kk} is {got[str(kk)]}, "
                                  f"recomputed from the truth: {self.recall(kk)}")


def parse_shortlists_csv(raw: bytes) -> list:
    """[query_id, ids, distances] per query, from the shortlist CSV format."""
    grouped: dict[str, tuple[list[str], list[float]]] = {}
    rows = csv.reader(raw.decode("utf-8").splitlines())
    next(rows)
    for qid, rank, db_id, dist in rows:
        ids, dists = grouped.setdefault(qid, ([], []))
        if int(rank) != len(ids) + 1:
            raise CheckFailed(f"shortlists.csv: rank {rank} of {qid} out of order")
        ids.append(db_id)
        dists.append(float(dist))
    return [[qid, ids, dists] for qid, (ids, dists) in grouped.items()]


def write_pair_files(instance, pair_dir: Path) -> None:
    """One file per (query, db) pair holding its inlier count, for ``cat``."""
    for (qid, db_id), count in instance.inliers.counts.items():
        qdir = pair_dir / qid
        qdir.mkdir(parents=True, exist_ok=True)
        (qdir / db_id).write_text(f"{count}\n")


class Runner:
    """Set-up, passes and checks for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.data = work / "data"
        self.pairs = work / "pairs"
        self.out = work / "out"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.oracle: Oracle | None = None
        self.reference: dict[str, bytes] | None = None

    def set_up(self) -> list[float]:
        """Generate and write the instance several times; returns each time.

        The matcher's pair files are the benchmark's fixture, not vprkit's
        work, so they are written once and not timed.
        """
        config = synth.SynthConfig(
            n_db=self.w.n_db, n_queries=self.w.n_queries, dim=self.w.dim,
            target_retrieval_r1=self.w.target_r1,
            matcher_quality=self.w.matcher_quality, seed=self.seed)
        times = []
        while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
            steal = stolen_s()
            start = time.perf_counter()
            instance = synth.generate(config, k=self.w.k)
            synth.write_instance(instance, self.data)
            times.append(time.perf_counter() - start - (stolen_s() - steal))
        if self.w.kind == "verify":
            write_pair_files(instance, self.pairs)
        self.oracle = Oracle(instance, self.w.k)
        return times

    def _commands(self) -> list[list[str]]:
        """Argument lists after the program name, one per process of a pass."""
        d, o, k, seed = self.data, self.out, str(self.w.k), str(self.seed)
        splits = ["--db-manifest", f"{d}/db.jsonl", "--db-blob", f"{d}/db.vprd",
                  "--query-manifest", f"{d}/queries.jsonl", "--query-blob", f"{d}/queries.vprd"]
        common = ["--k", k, "--seed", seed]
        if self.w.kind == "verify":
            return [["verify", str(d), str(self.pairs), k, seed, f"{o}/report.json"]]
        if self.w.kind == "evaluate":
            return [["evaluate", *splits, *common, "--inliers", f"{d}/inliers.csv",
                     "--out", f"{o}/report.json", "--pr-csv", f"{o}/pr.csv"]]
        sl, inl = f"{o}/shortlists.csv", f"{d}/inliers.csv"
        return [
            ["retrieve", *splits, *common, "--out", sl],
            ["rerank", *common, "--shortlists", sl, "--inliers", inl, "--out", f"{o}/reranked.csv"],
            ["uncertainty", *common, "--shortlists", sl, "--inliers", inl,
             "--out", f"{o}/scores.csv"],
            ["calibrate", *common, "--scores", f"{o}/scores.csv", "--shortlists", sl,
             "--query-manifest", f"{d}/queries.jsonl", "--db-manifest", f"{d}/db.jsonl",
             "--out", f"{o}/model.json"],
            ["gate", *common, "--shortlists", sl, "--inliers", inl, "--model", f"{o}/model.json",
             "--out", f"{o}/gated.csv"],
        ]

    def _spawn(self, argv: list[str], log: Path) -> dict:
        """Run one child through spawn.py: wall_s, steal_s, maxrss_kib, status, spawned."""
        result = log.with_suffix(".json")
        with open(log, "wb") as sink:
            subprocess.run([sys.executable, "-I", str(SPAWN), str(result), str(PASS_TIMEOUT_S),
                            "--", *argv], env=self.env, stdout=sink, stderr=subprocess.STDOUT,
                           stdin=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S + 30, check=True)
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def run_pass(self, traced: bool) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        p = Pass(traced=traced)
        peak_kib = 0
        for i, args in enumerate(self._commands()):
            trace_dir = self.out / f"trace{i}"
            if traced:
                trace_dir.mkdir()
                prefix = [sys.executable, str(JOB), "--trace", str(trace_dir),
                          "--spawned", "{spawned}"]
                if self.w.kind != "verify":
                    prefix.append("cli")
            elif self.w.kind == "verify":
                prefix = [sys.executable, str(JOB)]
            else:
                prefix = [sys.executable, "-m", "vprkit.cli"]
            log = self.out / f"log{i}.txt"
            child = self._spawn(prefix + args, log)
            p.wall_s += child["wall_s"]
            p.steal_s += child["steal_s"]
            peak_kib = max(peak_kib, child["maxrss_kib"])
            if child["status"] != 0:
                tail = log.read_text(errors="replace")[-2000:]
                p.error = f"{args[0]} exited with status {child['status']}: {tail}"
                return p
            if traced:
                with open(trace_dir / "counts.json", encoding="utf-8") as fh:
                    trace = json.load(fh)
                with np.load(trace_dir / "spans.npz") as spans:
                    trace["spans"] = {key: spans[key] for key in spans.files}
                p.traces.append(trace)
                p.traced_wall_s += trace["work_end"] - child["spawned"]
        p.peak_rss_mb = peak_kib / 1024.0
        try:
            p.outputs = {name: (self.out / name).read_bytes() for name in OUTPUTS[self.w.kind]}
        except FileNotFoundError as exc:
            p.error = f"missing output: {exc.filename}"
        return p

    def check(self, p: Pass) -> None:
        """Raise CheckFailed unless the pass ran and its outputs are right."""
        if p.error:
            raise CheckFailed(p.error)
        for trace in p.traces:
            if trace["shortlists"]:
                self.oracle.check_shortlists(trace["shortlists"], "search_all result")
        if self.reference is None:
            try:
                if self.w.kind == "staged":
                    self.oracle.check_shortlists(
                        parse_shortlists_csv(p.outputs["shortlists.csv"]), "shortlists.csv")
                else:
                    self.oracle.check_report(p.outputs["report.json"], "report.json")
            except (ValueError, KeyError) as exc:  # includes malformed JSON
                raise CheckFailed(f"unreadable output: {exc!r}") from None
            self.reference = p.outputs
            return
        changed = [name for name, raw in p.outputs.items() if raw != self.reference[name]]
        if changed:
            raise CheckFailed(f"outputs differ from the first pass: {', '.join(changed)}")


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass (all processes of the pass)."""
    stats = summarize([t["spans"] for t in p.traces])
    counts: dict[str, float] = {}
    for trace in p.traces:
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def own(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    matcher_calls = calls("matching.get_inliers")
    adaptive_calls = calls("rerank.adaptive")
    out = {
        "dataset.load_split_s": total("dataset.load_split"),
        "dataset.haversine_s": total("dataset.haversine"),
        "dataset.haversine_calls": calls("dataset.haversine"),
        "dataset.haversine_pairs": counts.get("dataset.haversine_pairs", 0),
        "retrieval.build_index_s": total("retrieval.build_index"),
        "retrieval.kernel_s": total("retrieval.kernel"),
        "retrieval.select_s": own("retrieval.search_all"),
        "retrieval.distance_evals": counts.get("retrieval.distance_evals", 0),
        "retrieval.bytes_scanned": counts.get("retrieval.bytes_scanned", 0),
        "retrieval.csv_write_s": total("retrieval.csv_write"),
        "retrieval.csv_read_s": total("retrieval.csv_read"),
        "matching.load_table_s": total("matching.load_table"),
        "matching.table_rows": counts.get("matching.table_rows", 0),
        "matching.calls": matcher_calls,
        "matching.unique_pairs": counts.get("matching.unique_pairs", 0),
        "matching.useful_ratio": (counts.get("matching.unique_pairs", 0) / matcher_calls
                                  if matcher_calls else 0.0),
        "matching.busy_s": total("matching.get_inliers"),
        "matching.missing_pairs": counts.get("matching.get_inliers.errors", 0),
        "matching.call_ms_p50": stats.get("matching.get_inliers", {}).get("p50_ms", 0.0),
        "matching.call_ms_p99": stats.get("matching.get_inliers", {}).get("p99_ms", 0.0),
        "rerank.rerank_s": own("rerank.rerank"),
        "rerank.adaptive_s": own("rerank.adaptive"),
        "rerank.gate_fire_ratio": (counts.get("rerank.gate_fired", 0) / adaptive_calls
                                   if adaptive_calls else 0.0),
        "rerank.csv_write_s": total("rerank.csv_write"),
        "uncertainty.l2_s": own("uncertainty.l2"),
        "uncertainty.pa_s": own("uncertainty.pa"),
        "uncertainty.sue_s": own("uncertainty.sue"),
        "uncertainty.random_s": own("uncertainty.random"),
        "uncertainty.inlier_s": own("uncertainty.inlier"),
        "uncertainty.fit_s": total("uncertainty.fit"),
        "uncertainty.newton_iters": counts.get("uncertainty.newton_iters", 0),
        "evaluation.recall_s": total("evaluation.recall"),
        "evaluation.recall_calls": calls("evaluation.recall"),
        "evaluation.pr_s": total("evaluation.pr_curve") + total("evaluation.auprc"),
        "evaluation.report_write_s": (total("evaluation.report_json")
                                      + total("evaluation.report_text")
                                      + total("evaluation.pr_csv")),
        "evaluation.self_s": own("evaluation.pipeline"),
        "cli.startup_s": sum(t["startup_s"] for t in p.traces),
    }
    for step in STAGED_STEPS + ("evaluate",):
        out[f"cli.{step}_s"] = total(f"cli.{step}")
    out["trace.pass_s"] = p.traced_wall_s
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_DIR / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(w, seed, work)
    setup_tracer = None
    try:
        if trace:
            setup_tracer = Tracer()
            setup_tracer.install()
        try:
            setup_times = runner.set_up()
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()

        # the first pass is traced: it warms the caches, gives the counts and
        # exposes the search_all result to the oracle
        passes = []
        deadline = None
        while deadline is None or time.perf_counter() < deadline:
            p = runner.run_pass(traced=not passes or (trace and len(passes) % 2 == 0))
            try:
                runner.check(p)
            except CheckFailed as exc:
                p.error = str(exc)
            if p.traced and p.error is None:
                p.layers = layer_metrics(p)
            p.outputs, p.traces = {}, []  # checked; keep only the numbers
            passes.append(p)
            if deadline is None:
                deadline = time.perf_counter() + seconds
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    failures = [p for p in passes if p.error is not None]
    good = [p for p in passes if p.error is None]
    untraced = [p for p in good if not p.traced]
    if trace:
        traced = [p for p in good if p.traced]
        traced = traced[1:] or traced  # the first traced pass also warms up
        per_pass = [p.layers for p in traced]
        metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]} \
            if per_pass else {}
        setup_stats = summarize([setup_tracer.span_arrays()])
        metrics["synth.generate_s"] = setup_stats["synth.generate"]["p50_ms"] / 1e3
        metrics["synth.write_s"] = setup_stats["synth.write"]["p50_ms"] / 1e3
        metrics["trace.overhead_ratio"] = (
            median([p.traced_wall_s for p in traced]) / median([p.wall_s for p in untraced]) - 1.0
            if untraced and traced else 0.0)
    else:
        first = passes[0].layers
        metrics = {
            "queries_per_s": median([w.n_queries / (p.wall_s - p.steal_s) for p in untraced]),
            "peak_rss_mb": median([p.peak_rss_mb for p in untraced]),
            "setup_s": median(setup_times),
            "matcher_calls_per_query": first.get("matching.calls", 0) / w.n_queries,
        }
    return {"workload": w.name, "passes": passes, "failures": failures,
            "untraced": len(untraced), "metrics": metrics}


def load_spec() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, group) from BENCHMARK.json at the checkout root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: (m["unit"], "end_to_end") for m in spec["end_to_end"]}
    units.update({m["name"]: (m["unit"], "per_layer") for m in spec["per_layer"]})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vprkit pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    units = load_spec()
    group = "per_layer" if args.trace else "end_to_end"
    wanted = {name for name, (_, g) in units.items() if g == group}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]

    attempted = sum(len(r["passes"]) for r in results)
    failed = sum(len(r["failures"]) for r in results)
    metrics = {}
    for r in results:
        # a metric is only absent when every pass it comes from failed
        absent = wanted - set(r["metrics"])
        if set(r["metrics"]) - wanted or (absent and not r["failures"]):
            print(f"perfbench: metrics {sorted(set(r['metrics']) ^ wanted)} do not match "
                  f"BENCHMARK.json", file=sys.stderr)
            return 2
        r["metrics"].update(dict.fromkeys(absent, 0.0))
        print(f"{r['workload']}: {len(r['passes'])} passes ({r['untraced']} untraced), "
              f"{len(r['failures'])} failed, failed_ratio "
              f"{len(r['failures']) / len(r['passes']):.3f}")
        print("  pass wall s (* traced): " + " ".join(
            f"{p.wall_s:.3f}{'*' if p.traced else ''}" for p in r["passes"]))
        print("  of which steal s:       " + " ".join(f"{p.steal_s:.3f}" for p in r["passes"]))
        for p in r["failures"]:
            print(f"  FAILED: {p.error}")
        for name, value in r["metrics"].items():
            print(f"  {name:34} {value:>16.6f} {units[name][0]}")
            key = name if len(results) == 1 else f"{r['workload']}.{name}"
            metrics[key] = {"value": value, "unit": units[name][0]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if not (SRC / "vprkit" / "__init__.py").is_file():
        print(f"perfbench: no vprkit sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    # This process and every process it starts run on one CPU. Set before
    # numpy is imported, so no thread escapes it. On a shared guest, a pass
    # whose threads and children span both vCPUs slowed far more under host
    # load than one kept on a single vCPU; see NOTES.md, "Steadiness".
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy as np  # noqa: E402
    from vprkit import synth  # noqa: E402
    from spawn import stolen_s  # noqa: E402
    from tracer import Tracer, summarize  # noqa: E402
    sys.exit(main())
