"""Command-line interface.

Subcommands mirror the pipeline stages: synth, retrieve, rerank,
uncertainty, calibrate, gate, evaluate. All file paths are explicit flags.
Exit codes: 0 success, 1 validation error, 2 I/O or command-line usage error.
Each command imports dataset, evaluation and synth, which load numpy, only if
it uses them, so rerank, uncertainty and gate start without numpy.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ValidationError, VprError
from .matching import TableProvider, load_inlier_table
from .rerank import GatePolicy, adaptive_rerank, rerank, write_reranked_csv
from .retrieval import build_index, read_shortlists_csv, search_all, write_shortlists_csv
from .uncertainty import (
    Estimator,
    LogisticModel,
    compute_uncertainties,
    fit_logistic,
    read_scores_csv,
    write_scores_csv,
)

# Each subparser names the shared flags its command reads, and also --k and
# --seed where unread: perfbench/run.py passes both to every staged command.
_SHARED = {
    "tau": dict(type=float, default=25.0,
                help="correctness distance threshold in meters (default 25)"),
    "k": dict(type=int, default=100, help="shortlist length (default 100)"),
    "seed": dict(type=int, default=0, help="seed for randomized components (default 0)"),
    "estimator": dict(type=Estimator, choices=Estimator, default=Estimator.INLIER,
                      help="uncertainty estimator (default inlier)"),
    "threshold": dict(type=float, default=0.5, help="gate probability threshold (default 0.5)"),
}


def _add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vprkit",
        description="Verification-gated place-recognition retrieval toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic instance on disk")
    _add_shared(p, "k", "seed")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-db", type=int, default=1500)
    p.add_argument("--n-queries", type=int, default=1000)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--target-r1", type=float, default=0.98)
    p.add_argument("--matcher-quality", type=float, default=0.85)
    p.add_argument("--noise", type=float, default=0.0,
                   help="inlier noise scale (default 0)")
    p.add_argument("--gps-noise", type=float, default=0.0,
                   help="std-dev in meters of database GPS label noise (default 0)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("retrieve", help="exact top-k retrieval to a shortlist CSV")
    _add_shared(p, "k", "seed")
    p.add_argument("--db-manifest", required=True)
    p.add_argument("--db-blob", required=True)
    p.add_argument("--query-manifest", required=True)
    p.add_argument("--query-blob", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("rerank", help="re-rank shortlists by inlier count")
    _add_shared(p, "k", "seed")
    p.add_argument("--shortlists", required=True)
    p.add_argument("--inliers", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("uncertainty", help="per-query uncertainty scores to CSV")
    _add_shared(p, "k", "seed", "estimator")
    p.add_argument("--shortlists", required=True)
    p.add_argument("--inliers", help="inlier CSV (needed for the inlier estimator)")
    p.add_argument("--db-manifest", help="database manifest (needed for SUE)")
    p.add_argument("--model", help="logistic model JSON; fills the prob column")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("calibrate", help="fit a logistic wrong-localization model")
    _add_shared(p, "tau", "k", "seed", "estimator")
    p.add_argument("--scores", required=True, help="uncertainty scores CSV")
    p.add_argument("--shortlists", required=True)
    p.add_argument("--query-manifest", required=True)
    p.add_argument("--db-manifest", required=True)
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("gate", help="adaptively re-rank only uncertain queries")
    _add_shared(p, "k", "seed", "estimator", "threshold")
    p.add_argument("--shortlists", required=True)
    p.add_argument("--inliers", required=True)
    p.add_argument("--model", required=True, help="logistic model JSON")
    p.add_argument("--db-manifest", help="database manifest (needed for SUE)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("evaluate", help="full evaluation report")
    _add_shared(p, "tau", "k", "seed", "estimator", "threshold")
    p.add_argument("--db-manifest", required=True)
    p.add_argument("--db-blob", required=True)
    p.add_argument("--query-manifest", required=True)
    p.add_argument("--query-blob", required=True)
    p.add_argument("--inliers", required=True)
    gate = p.add_mutually_exclusive_group()
    gate.add_argument("--model", help="logistic model JSON for the gate")
    gate.add_argument("--oracle-gate", action="store_true",
                      help="gate on ground-truth top-1 correctness instead of a model")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--pr-csv", help="write PR curves CSV here")
    p.set_defaults(func=cmd_evaluate)

    return parser


def cmd_synth(args) -> int:
    from .synth import SynthConfig, generate, write_instance
    config = SynthConfig(n_db=args.n_db, n_queries=args.n_queries, dim=args.dim,
                         target_retrieval_r1=args.target_r1,
                         matcher_quality=args.matcher_quality,
                         inlier_noise_scale=args.noise, seed=args.seed)
    instance = generate(config, k=args.k, gps_noise_m=args.gps_noise)
    paths = write_instance(instance, args.out_dir)
    for name in ("db_manifest", "db_blob", "query_manifest", "query_blob", "inliers"):
        print(f"{name}: {paths[name]}")
    return 0


def cmd_retrieve(args) -> int:
    from .dataset import load_split
    db = load_split(args.db_manifest, args.db_blob)
    queries = load_split(args.query_manifest, args.query_blob)
    shortlists = search_all(build_index(db), queries, args.k)
    write_shortlists_csv(shortlists, args.out)
    print(f"wrote {len(shortlists)} shortlists to {args.out}")
    return 0


def cmd_rerank(args) -> int:
    shortlists = read_shortlists_csv(args.shortlists)
    provider = TableProvider(load_inlier_table(args.inliers))
    n_missing = write_reranked_csv((rerank(sl, provider) for sl in shortlists), args.out)
    print(f"wrote {len(shortlists)} reranked lists to {args.out} "
          f"({n_missing} pairs missing counts)")
    return 0


def _scores_for(args, shortlists, provider=None):
    """Scores under ``args.estimator``; the inlier table is loaded only when
    the estimator needs it and the caller has not already built a provider."""
    if args.estimator is Estimator.INLIER and provider is None:
        if not args.inliers:
            raise ValidationError("the inlier estimator requires --inliers")
        provider = TableProvider(load_inlier_table(args.inliers))
    db_records = None
    if args.estimator is Estimator.SUE:
        if not args.db_manifest:
            raise ValidationError("the sue estimator requires --db-manifest")
        from .dataset import read_manifest
        db_records = {r.id: r for r in read_manifest(args.db_manifest)}
    return compute_uncertainties(shortlists, args.estimator, db_records=db_records,
                                 provider=provider, seed=args.seed)


def _read_model(path) -> LogisticModel | None:
    """The logistic model JSON at ``path``; None when no path is given."""
    if not path:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return LogisticModel.from_json(fh.read())
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def cmd_uncertainty(args) -> int:
    shortlists = read_shortlists_csv(args.shortlists)
    scores = _scores_for(args, shortlists)
    write_scores_csv(scores, args.out, model=_read_model(args.model))
    print(f"wrote {len(scores)} scores to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    from .dataset import DistanceThreshold, haversine_many, read_manifest
    estimator = args.estimator
    scores = [s for s in read_scores_csv(args.scores) if s.estimator is estimator]
    if not scores:
        raise ValidationError(f"no {estimator.value!r} scores found in {args.scores}")
    shortlists = {sl.query_id: sl for sl in read_shortlists_csv(args.shortlists)}
    query_records = {r.id: r for r in read_manifest(args.query_manifest)}
    db_records = {r.id: r for r in read_manifest(args.db_manifest)}
    threshold = DistanceThreshold(args.tau)

    pairs = []
    for score in scores:
        sl = shortlists.get(score.query_id)
        if sl is None:
            raise ValidationError(f"query {score.query_id!r} has no shortlist")
        query = query_records.get(score.query_id)
        if query is None:
            raise ValidationError(f"query {score.query_id!r} not in manifest")
        top1 = db_records.get(sl.db_ids[0])
        if top1 is None:
            raise ValidationError(f"candidate {sl.db_ids[0]!r} not in db manifest")
        pairs.append((query.lat, query.lon, top1.lat, top1.lon))
    wrong = ~threshold.within(haversine_many(*zip(*pairs)))
    samples = [(score.u, bool(w)) for score, w in zip(scores, wrong)]
    model = fit_logistic(samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(model.to_json() + "\n")
    print(f"fitted on {len(samples)} queries; model written to {args.out}")
    return 0


def cmd_gate(args) -> int:
    shortlists = read_shortlists_csv(args.shortlists)
    provider = TableProvider(load_inlier_table(args.inliers))
    policy = GatePolicy(model=_read_model(args.model), threshold=args.threshold,
                        estimator=args.estimator)
    scores = _scores_for(args, shortlists, provider)
    # every gate is decided before --out is opened, so a bad score leaves no file
    fired = sum(policy.fires(s) for s in scores)
    write_reranked_csv((adaptive_rerank(sl, provider, policy, s)
                        for sl, s in zip(shortlists, scores)), args.out)
    print(f"gate fired for {fired}/{len(shortlists)} queries; wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .dataset import load_split
    from .evaluation import ORACLE_GATE, evaluate_pipeline, write_pr_curves_csv
    db = load_split(args.db_manifest, args.db_blob)
    queries = load_split(args.query_manifest, args.query_blob)
    provider = TableProvider(load_inlier_table(args.inliers))
    report = evaluate_pipeline(
        db, queries, provider, k=args.k, taus=(args.tau,),
        gate_estimator=ORACLE_GATE if args.oracle_gate else args.estimator,
        gate_threshold=args.threshold, gate_model=_read_model(args.model), seed=args.seed)
    sys.stdout.write(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    if args.pr_csv:
        write_pr_curves_csv(report, args.pr_csv)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
