"""One benchmark pass in its own process, optionally traced.

    python perfbench/job.py [--trace DIR --spawned T] cli SUBCOMMAND ARGS...
    python perfbench/job.py [--trace DIR --spawned T] verify DATA_DIR PAIR_DIR K SEED REPORT

``cli`` runs ``vprkit.cli.main`` on the arguments, as the ``vprkit`` command
would. ``verify`` loads the two splits written at set-up and runs
``evaluate_pipeline(workers=2)`` against a real out-of-process matcher:
``cat`` of a per-pair count file, run through
``SubprocessProvider(max_concurrent=2)``; the report goes to REPORT.

With ``--trace`` the pass records spans around vprkit's public functions
and, once the work has ended, writes spans.npz and counts.json into DIR.
``--spawned`` is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide), so start-up time can be measured.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from vprkit import cli, dataset, evaluation
from vprkit.matching import MatcherProvider, SubprocessProvider

import tracer as tracing

MATCHER_COMMAND = "cat {query}/{db}"


class PairPathProvider(MatcherProvider):
    """Supplies the image paths that the pipeline never passes.

    ``evaluate_pipeline``, ``rerank`` and ``u_inlier`` call ``get_inliers``
    without image paths, so a bare ``SubprocessProvider`` raises
    ``ValidationError`` on the first pair. Here a query's "image" is its
    directory of per-pair count files and a database record's "image" is its
    id, so ``cat {query}/{db}`` prints the pair's inlier count.
    """

    def __init__(self, inner: SubprocessProvider, pair_dir: str):
        self.inner = inner
        self.pair_dir = pair_dir

    def get_inliers(self, query_id, db_id, image_paths=None):
        return self.inner.get_inliers(query_id, db_id,
                                      (os.path.join(self.pair_dir, query_id), db_id))


def run_verify(data_dir: str, pair_dir: str, k: int, seed: int, report_path: str) -> int:
    db = dataset.load_split(os.path.join(data_dir, "db.jsonl"), os.path.join(data_dir, "db.vprd"))
    queries = dataset.load_split(os.path.join(data_dir, "queries.jsonl"),
                                 os.path.join(data_dir, "queries.vprd"))
    provider = PairPathProvider(SubprocessProvider(MATCHER_COMMAND, max_concurrent=2), pair_dir)
    report = evaluation.evaluate_pipeline(db, queries, provider, k=k, seed=seed, workers=2)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    return 0


def main(argv=None) -> int:
    entered = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", help="write spans.npz and counts.json into this directory")
    parser.add_argument("--spawned", type=float, help="parent's perf_counter at spawn")
    parser.add_argument("kind", choices=["cli", "verify"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    tracer = None
    if opts.trace:
        tracer = tracing.Tracer()
        tracer.install(extra=[(PairPathProvider, "get_inliers", "matching.get_inliers",
                               tracing.count_pair)])
    if opts.kind == "cli":
        status = cli.main(opts.args)
    else:
        data_dir, pair_dir, k, seed, report_path = opts.args
        status = run_verify(data_dir, pair_dir, int(k), int(seed), report_path)
    work_end = time.perf_counter()

    if tracer is not None:
        shortlists = [[sl.query_id, sl.ids(), sl.distances()] for sl in tracer.shortlists]
        startup = entered - opts.spawned if opts.spawned is not None else 0.0
        tracer.dump(opts.trace, {"startup_s": startup, "work_end": work_end,
                                 "shortlists": shortlists})
    return status


if __name__ == "__main__":
    sys.exit(main())
