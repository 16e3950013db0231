import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vprkit import cli
from vprkit.cli import main
from vprkit.dataset import DistanceThreshold, haversine_many, read_manifest
from vprkit.errors import ValidationError
from vprkit.matching import InlierTable, load_inlier_table, write_inlier_table
from vprkit.retrieval import Shortlist, read_shortlists_csv, write_shortlists_csv
from vprkit.uncertainty import (
    Estimator,
    LogisticModel,
    UncertaintyScore,
    fit_logistic,
    write_scores_csv,
)

from conftest import recall_at_k, unreadable_csv, write_manifest_file


@pytest.fixture
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    code = main([
        "synth", "--out-dir", str(out), "--n-db", "200", "--n-queries", "120",
        "--dim", "16", "--target-r1", "0.85", "--matcher-quality", "0.9",
        "--seed", "21", "--k", "20",
    ])
    assert code == 0
    return out


def run_ok(argv):
    assert main(argv) == 0


def retrieve_to(instance_dir, out, k):
    run_ok(["retrieve",
            "--db-manifest", str(instance_dir / "db.jsonl"),
            "--db-blob", str(instance_dir / "db.vprd"),
            "--query-manifest", str(instance_dir / "queries.jsonl"),
            "--query-blob", str(instance_dir / "queries.vprd"),
            "--k", str(k), "--out", str(out)])


class TestPipeline:
    def test_full_chain(self, instance_dir, tmp_path, capsys):
        shortlists = tmp_path / "shortlists.csv"
        run_ok(["retrieve",
                "--db-manifest", str(instance_dir / "db.jsonl"),
                "--db-blob", str(instance_dir / "db.vprd"),
                "--query-manifest", str(instance_dir / "queries.jsonl"),
                "--query-blob", str(instance_dir / "queries.vprd"),
                "--k", "20", "--out", str(shortlists)])
        with open(shortlists) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["query_id", "rank", "db_id", "distance"]
        assert len(rows) == 1 + 120 * 20

        reranked = tmp_path / "reranked.csv"
        run_ok(["rerank", "--shortlists", str(shortlists),
                "--inliers", str(instance_dir / "inliers.csv"),
                "--out", str(reranked)])
        with open(reranked) as fh:
            rrows = list(csv.reader(fh))
        assert rrows[0] == ["query_id", "new_rank", "db_id", "inliers",
                            "original_rank", "gate_fired"]

        scores = tmp_path / "scores.csv"
        run_ok(["uncertainty", "--shortlists", str(shortlists),
                "--inliers", str(instance_dir / "inliers.csv"),
                "--estimator", "inlier", "--out", str(scores)])
        with open(scores) as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == ["query_id", "estimator", "u", "prob"]
        assert len(srows) == 1 + 120
        assert all(row[3] == "" for row in srows[1:])  # uncalibrated: blank prob

        model = tmp_path / "model.json"
        run_ok(["calibrate", "--scores", str(scores), "--shortlists", str(shortlists),
                "--query-manifest", str(instance_dir / "queries.jsonl"),
                "--db-manifest", str(instance_dir / "db.jsonl"),
                "--estimator", "inlier", "--out", str(model)])
        loaded = LogisticModel.from_json(model.read_text())
        assert loaded.w > 0  # more uncertainty, more probably wrong

        scored = tmp_path / "scores_prob.csv"
        run_ok(["uncertainty", "--shortlists", str(shortlists),
                "--inliers", str(instance_dir / "inliers.csv"),
                "--estimator", "inlier", "--model", str(model), "--out", str(scored)])
        with open(scored) as fh:
            prows = list(csv.reader(fh))
        assert all(0.0 < float(row[3]) < 1.0 for row in prows[1:])

        gated = tmp_path / "gated.csv"
        run_ok(["gate", "--shortlists", str(shortlists),
                "--inliers", str(instance_dir / "inliers.csv"),
                "--model", str(model), "--estimator", "inlier",
                "--threshold", "0.5", "--out", str(gated)])
        with open(gated) as fh:
            grows = list(csv.reader(fh))
        fired_flags = {row[5] for row in grows[1:]}
        assert fired_flags <= {"true", "false"}

        report = tmp_path / "report.json"
        curves = tmp_path / "curves.csv"
        run_ok(["evaluate",
                "--db-manifest", str(instance_dir / "db.jsonl"),
                "--db-blob", str(instance_dir / "db.vprd"),
                "--query-manifest", str(instance_dir / "queries.jsonl"),
                "--query-blob", str(instance_dir / "queries.vprd"),
                "--inliers", str(instance_dir / "inliers.csv"),
                "--k", "20", "--tau", "25", "--oracle-gate",
                "--out", str(report), "--pr-csv", str(curves)])
        captured = capsys.readouterr()
        assert "retrieval" in captured.out and "adaptive" in captured.out
        payload = json.loads(report.read_text())
        assert payload["n_queries"] == 120
        assert "25.0" in payload["recalls"]
        assert curves.read_text().splitlines()[0] == "estimator,recall,precision"

    def test_evaluate_deterministic_output_files(self, instance_dir, tmp_path):
        argv = ["evaluate",
                "--db-manifest", str(instance_dir / "db.jsonl"),
                "--db-blob", str(instance_dir / "db.vprd"),
                "--query-manifest", str(instance_dir / "queries.jsonl"),
                "--query-blob", str(instance_dir / "queries.vprd"),
                "--inliers", str(instance_dir / "inliers.csv"),
                "--k", "20", "--oracle-gate"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_ok(argv + ["--out", str(a)])
        run_ok(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def ranked_ids(path) -> dict[str, list[str]]:
    """{query id: db ids in file order} of a shortlist, re-ranked or gated CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        ranked: dict[str, list[str]] = {}
        for row in rows:
            ranked.setdefault(row[0], []).append(row[2])
    return ranked


# the README demo instance, where the fitted gate fires for no query, and one
# with a weaker retrieval and a better matcher, where it fires for 250
@pytest.mark.parametrize("target_r1, quality, fired", [("0.98", "0.85", 0), ("0.8", "0.9", 250)],
                         ids=["readme-demo", "gate-fires"])
def test_staged_chain_recalls_equal_evaluate_rows(target_r1, quality, fired, tmp_path, capsys):
    d = tmp_path
    run_ok(["synth", "--out-dir", str(d), "--n-db", "1500", "--n-queries", "1000", "--dim", "32",
            "--target-r1", target_r1, "--matcher-quality", quality, "--seed", "1234"])
    manifests = ["--db-manifest", str(d / "db.jsonl"), "--query-manifest", str(d / "queries.jsonl")]
    splits = [*manifests, "--db-blob", str(d / "db.vprd"), "--query-blob", str(d / "queries.vprd")]
    inliers, model = ["--inliers", str(d / "inliers.csv")], ["--model", str(d / "model.json")]
    sl = ["--shortlists", str(d / "shortlists.csv")]
    run_ok(["retrieve", *splits, "--k", "100", "--out", str(d / "shortlists.csv")])
    run_ok(["rerank", *sl, *inliers, "--out", str(d / "reranked.csv")])
    run_ok(["uncertainty", *sl, *inliers, "--out", str(d / "scores.csv")])
    run_ok(["calibrate", "--scores", str(d / "scores.csv"), *sl, *manifests,
            "--out", str(d / "model.json")])
    run_ok(["gate", *sl, *inliers, *model, "--out", str(d / "gated.csv")])
    assert f"gate fired for {fired}/1000 queries" in capsys.readouterr().out
    run_ok(["evaluate", *splits, *inliers, *model, "--out", str(d / "report.json")])
    report = json.loads((d / "report.json").read_text())
    assert report["gate_fired"] == fired

    queries = {r.id: r for r in read_manifest(d / "queries.jsonl")}
    db = {r.id: r for r in read_manifest(d / "db.jsonl")}
    for system, name in (("retrieval", "shortlists.csv"), ("rerank", "reranked.csv"),
                         ("adaptive", "gated.csv")):
        ranked = ranked_ids(d / name)
        for kk in report["ks"]:
            want = recall_at_k(ranked, queries, db, kk, DistanceThreshold(25.0))
            assert report["recalls"]["25.0"][system][str(kk)] == want, (system, kk)


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["rerank", "--shortlists", str(tmp_path / "nope.csv"),
                     "--inliers", str(tmp_path / "nope2.csv"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2

    def test_validation_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        code = main(["rerank", "--shortlists", str(bad),
                     "--inliers", str(bad), "--out", str(tmp_path / "out.csv")])
        assert code == 1

    def test_infeasible_synth_config(self, tmp_path):
        code = main(["synth", "--out-dir", str(tmp_path / "x"),
                     "--n-db", "5", "--n-queries", "50"])
        assert code == 1

    def test_synth_with_one_db_row_and_a_miss_exits_1(self, tmp_path):
        # its own process, so that a distractor draw that never ends fails
        # on the timeout instead of hanging the suite
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "vprkit.cli", "synth", "--out-dir", str(tmp_path / "x"),
             "--n-db", "1", "--n-queries", "1", "--target-r1", "0.5"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 1
        assert "n_db must be >= 2, got 1" in proc.stderr

    def test_oracle_gate_checks_its_threshold(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--db-manifest", str(instance_dir / "db.jsonl"),
                     "--db-blob", str(instance_dir / "db.vprd"),
                     "--query-manifest", str(instance_dir / "queries.jsonl"),
                     "--query-blob", str(instance_dir / "queries.vprd"),
                     "--inliers", str(instance_dir / "inliers.csv"),
                     "--oracle-gate", "--threshold", "7", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: gate threshold must be strictly inside (0, 1), got 7.0\n"
        assert not out.exists()

    def test_oracle_gate_and_model_exclude_each_other(self, instance_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"w": 1.0, "b": 0.0, "mean": 0.0, "std": 1.0}\n')
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--db-manifest", str(instance_dir / "db.jsonl"),
                  "--db-blob", str(instance_dir / "db.vprd"),
                  "--query-manifest", str(instance_dir / "queries.jsonl"),
                  "--query-blob", str(instance_dir / "queries.vprd"),
                  "--inliers", str(instance_dir / "inliers.csv"),
                  "--oracle-gate", "--model", str(model), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with" in err and "--oracle-gate" in err and "--model" in err
        assert not out.exists()

    def test_missing_estimator_input(self, instance_dir, tmp_path, capsys):
        shortlists = tmp_path / "s.csv"
        run_ok(["retrieve",
                "--db-manifest", str(instance_dir / "db.jsonl"),
                "--db-blob", str(instance_dir / "db.vprd"),
                "--query-manifest", str(instance_dir / "queries.jsonl"),
                "--query-blob", str(instance_dir / "queries.vprd"),
                "--k", "5", "--out", str(shortlists)])
        for estimator, flag in (("inlier", "--inliers"), ("sue", "--db-manifest")):
            capsys.readouterr()
            code = main(["uncertainty", "--shortlists", str(shortlists),
                         "--estimator", estimator, "--out", str(tmp_path / "u.csv")])
            assert code == 1
            assert capsys.readouterr().err == \
                f"error: the {estimator} estimator requires {flag}\n"
        assert not (tmp_path / "u.csv").exists()

    def test_sue_estimator_via_cli(self, instance_dir, tmp_path):
        shortlists = tmp_path / "s.csv"
        run_ok(["retrieve",
                "--db-manifest", str(instance_dir / "db.jsonl"),
                "--db-blob", str(instance_dir / "db.vprd"),
                "--query-manifest", str(instance_dir / "queries.jsonl"),
                "--query-blob", str(instance_dir / "queries.vprd"),
                "--k", "10", "--out", str(shortlists)])
        run_ok(["uncertainty", "--shortlists", str(shortlists),
                "--estimator", "sue", "--db-manifest", str(instance_dir / "db.jsonl"),
                "--out", str(tmp_path / "u.csv")])

    def test_malformed_model_json_is_one(self, instance_dir, tmp_path, capsys):
        shortlists = tmp_path / "s.csv"
        retrieve_to(instance_dir, shortlists, 5)
        model = tmp_path / "model.json"
        model.write_text('{"w": 1.0, "b": ')
        code = main(["gate", "--shortlists", str(shortlists),
                     "--inliers", str(instance_dir / "inliers.csv"),
                     "--model", str(model), "--out", str(tmp_path / "g.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {model}: bad logistic model JSON: ")
        model.write_text("[1.0, 0.0, 0.0, 1.0]\n")  # the four values, but not an object
        code = main(["gate", "--shortlists", str(shortlists),
                     "--inliers", str(instance_dir / "inliers.csv"),
                     "--model", str(model), "--out", str(tmp_path / "g.csv")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {model}: bad logistic model JSON: expected "
                                           "an object with fields w, b, mean and std\n")

    def test_a_manifest_coordinate_beyond_float_range_is_one(self, instance_dir, tmp_path,
                                                               capsys):
        manifest = tmp_path / "db.jsonl"
        lines = (instance_dir / "db.jsonl").read_text().splitlines()
        lines[2] = '{"id": "huge", "lat": 1' + "0" * 400 + ', "lon": 0}'
        manifest.write_text("\n".join(lines) + "\n")
        code = main(["retrieve", "--db-manifest", str(manifest),
                     "--db-blob", str(instance_dir / "db.vprd"),
                     "--query-manifest", str(instance_dir / "queries.jsonl"),
                     "--query-blob", str(instance_dir / "queries.vprd"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {manifest}: line 3: lat/lon out of range\n"
        assert not (tmp_path / "s.csv").exists()

    def test_a_manifest_line_nested_too_deep_is_one(self, instance_dir, tmp_path, capsys):
        manifest = tmp_path / "queries.jsonl"
        lines = (instance_dir / "queries.jsonl").read_text().splitlines()
        lines[1] = "[" * 100000
        manifest.write_text("\n".join(lines) + "\n")
        code = main(["retrieve", "--db-manifest", str(instance_dir / "db.jsonl"),
                     "--db-blob", str(instance_dir / "db.vprd"),
                     "--query-manifest", str(manifest),
                     "--query-blob", str(instance_dir / "queries.vprd"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: malformed JSON on line 2: ")
        assert not (tmp_path / "s.csv").exists()


    def test_a_manifest_byte_that_is_not_utf8_is_one(self, instance_dir, tmp_path, capsys):
        manifest = tmp_path / "db.jsonl"
        lines = (instance_dir / "db.jsonl").read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"id": "', b'"id": "\xff', 1)
        manifest.write_bytes(b"\n".join(lines))
        code = main(["retrieve", "--db-manifest", str(manifest),
                     "--db-blob", str(instance_dir / "db.vprd"),
                     "--query-manifest", str(instance_dir / "queries.jsonl"),
                     "--query-blob", str(instance_dir / "queries.vprd"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {manifest}: line 3: not UTF-8\n"
        assert not (tmp_path / "s.csv").exists()

    def test_a_model_byte_that_is_not_utf8_is_one(self, instance_dir, tmp_path, capsys):
        shortlists = tmp_path / "s.csv"
        retrieve_to(instance_dir, shortlists, 5)
        model = tmp_path / "model.json"
        model.write_bytes(b'{"w": 1.0, "b": 0.0, "mean": 0.0, "std": 1.0, "note": "\xff"}\n')
        with pytest.raises(ValidationError, match=re.escape(f"{model}: not a UTF-8 file") + "$"):
            cli._read_model(model)
        code = main(["gate", "--shortlists", str(shortlists),
                     "--inliers", str(instance_dir / "inliers.csv"),
                     "--model", str(model), "--out", str(tmp_path / "g.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {model}: not a UTF-8 file\n"
        assert not (tmp_path / "g.csv").exists()

    def test_an_unreadable_csv_exits_1_without_a_traceback(self, instance_dir, tmp_path):
        # the console path end to end, in its own process: a file the csv module or
        # the UTF-8 decoder cannot read is an error line naming it, never a traceback
        shortlists = tmp_path / "s.csv"
        retrieve_to(instance_dir, shortlists, 5)
        bad = {name: tmp_path / f"bad_{name}.csv" for name in ("shortlists", "inliers", "scores")}
        bad["shortlists"].write_bytes(shortlists.read_bytes().replace(b"q", b"\xffq", 1))
        bad["inliers"].write_bytes(unreadable_csv(
            "quote-past-field-limit", "query_id,db_id,inliers", "q{i},d1,3"))
        bad["scores"].write_bytes(unreadable_csv(
            "non-utf8-row", "query_id,estimator,u,prob", "q{i},l2,0.5,"))
        inliers, out = str(instance_dir / "inliers.csv"), str(tmp_path / "out.csv")
        src = Path(__file__).resolve().parents[1] / "src"
        for name, argv in (
                ("shortlists", ["rerank", "--shortlists", str(bad["shortlists"]),
                                "--inliers", inliers, "--out", out]),
                ("inliers", ["rerank", "--shortlists", str(shortlists),
                             "--inliers", str(bad["inliers"]), "--out", out]),
                ("scores", ["calibrate", "--scores", str(bad["scores"]),
                            "--shortlists", str(shortlists),
                            "--query-manifest", str(instance_dir / "queries.jsonl"),
                            "--db-manifest", str(instance_dir / "db.jsonl"), "--out", out])):
            proc = subprocess.run([sys.executable, "-m", "vprkit.cli", *argv],
                                  env=dict(os.environ, PYTHONPATH=str(src)),
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 1, name
            assert proc.stderr.startswith(f"error: {bad[name]}: "), name
            assert "Traceback" not in proc.stderr, name
        assert not Path(out).exists()

    def test_evaluate_on_a_saturated_instance_says_what_is_needed(self, tmp_path, capsys):
        d = tmp_path / "sat"
        run_ok(["synth", "--out-dir", str(d), "--n-db", "200", "--n-queries", "50",
                "--dim", "16", "--k", "10", "--target-r1", "1.0", "--seed", "3"])
        model = tmp_path / "model.json"
        model.write_text(LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0).to_json())
        argv = ["evaluate", "--db-manifest", str(d / "db.jsonl"), "--db-blob", str(d / "db.vprd"),
                "--query-manifest", str(d / "queries.jsonl"),
                "--query-blob", str(d / "queries.vprd"), "--inliers", str(d / "inliers.csv"),
                "--k", "10"]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: every top-1 result is correct at tau = 25 m, so no gate can be fitted "
            "here; a gate model or the oracle gate is needed\n")
        for gate in (["--oracle-gate"], ["--model", str(model)]):
            run_ok(argv + gate)
            assert "correct top-1: 50 " in capsys.readouterr().out


def test_gate_loads_inlier_table_once(instance_dir, tmp_path, monkeypatch):
    shortlists = tmp_path / "s.csv"
    retrieve_to(instance_dir, shortlists, 5)
    model = tmp_path / "model.json"
    model.write_text(LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0).to_json())
    calls = []
    real = cli.load_inlier_table

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_inlier_table", counting)
    run_ok(["gate", "--shortlists", str(shortlists),
            "--inliers", str(instance_dir / "inliers.csv"),
            "--model", str(model), "--estimator", "inlier", "--out", str(tmp_path / "g.csv")])
    assert len(calls) == 1


def test_gate_fetches_each_pair_once(instance_dir, tmp_path, monkeypatch):
    # the inlier score fetches every top-1 pair; a fired query then fetches
    # only its other k - 1 pairs, reusing the count the score holds
    k = 5
    shortlists = tmp_path / "s.csv"
    retrieve_to(instance_dir, shortlists, k)
    model = tmp_path / "model.json"
    model.write_text(LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0).to_json())
    calls = []

    class CountingProvider(cli.TableProvider):
        def get_inliers(self, query_id, db_id):
            calls.append((query_id, db_id))
            return super().get_inliers(query_id, db_id)

    monkeypatch.setattr(cli, "TableProvider", CountingProvider)
    gated = tmp_path / "g.csv"
    run_ok(["gate", "--shortlists", str(shortlists),
            "--inliers", str(instance_dir / "inliers.csv"),
            "--model", str(model), "--estimator", "inlier", "--threshold", "0.02",
            "--out", str(gated)])
    with open(gated) as fh:
        rows = list(csv.DictReader(fh))
    n_q = len({r["query_id"] for r in rows})
    fired = len({r["query_id"] for r in rows if r["gate_fired"] == "true"})
    assert 0 < fired < n_q
    assert len(calls) == n_q + (k - 1) * fired
    assert len(set(calls)) == len(calls)
    table = cli.load_inlier_table(instance_dir / "inliers.csv")
    for r in rows:
        if r["inliers"]:
            assert int(r["inliers"]) == table.rows[r["query_id"]][r["db_id"]]


def test_rerank_holds_its_inputs_and_one_list_at_a_time(tmp_path):
    # 200 shortlists of 50 against a table holding every other pair: every
    # list kept until the CSV is written would hold 25 errors each
    n_q, k = 200, 50
    with open(tmp_path / "s.csv", "w") as fh:
        fh.write("query_id,rank,db_id,distance\n")
        for i in range(n_q):
            fh.writelines(f"q{i},{r + 1},d{(7 * i + r) % 1000},{0.1 * r!r}\n" for r in range(k))
    with open(tmp_path / "i.csv", "w") as fh:
        fh.write("query_id,db_id,inliers\n")
        for i in range(n_q):
            fh.writelines(f"q{i},d{(7 * i + r) % 1000},{r}\n" for r in range(0, k, 2))
    tracemalloc.start()
    try:
        inputs = (read_shortlists_csv(tmp_path / "s.csv"), load_inlier_table(tmp_path / "i.csv"))
        held = tracemalloc.get_traced_memory()[0]
        del inputs
        tracemalloc.reset_peak()
        run_ok(["rerank", "--shortlists", str(tmp_path / "s.csv"),
                "--inliers", str(tmp_path / "i.csv"), "--out", str(tmp_path / "r.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * held  # 3.4 times when every list is held
    with open(tmp_path / "r.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == n_q * k
    assert sum(1 for r in rows if not r["inliers"]) == n_q * k // 2


def test_calibrate_rejects_a_repeated_score_row(instance_dir, tmp_path, capsys):
    shortlists = tmp_path / "s.csv"
    retrieve_to(instance_dir, shortlists, 5)
    scores = tmp_path / "scores.csv"
    run_ok(["uncertainty", "--shortlists", str(shortlists), "--estimator", "l2",
            "--out", str(scores)])
    first = scores.read_text().splitlines()[1]
    with open(scores, "a") as fh:
        fh.write(first + "\n")
    code = main(["calibrate", "--scores", str(scores), "--shortlists", str(shortlists),
                 "--query-manifest", str(instance_dir / "queries.jsonl"),
                 "--db-manifest", str(instance_dir / "db.jsonl"),
                 "--estimator", "l2", "--out", str(tmp_path / "model.json")])
    assert code == 1
    assert "line 122: duplicate score (q_00000, l2)" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_calibrate_names_the_line_of_a_nan_score(instance_dir, tmp_path, capsys):
    shortlists = tmp_path / "s.csv"
    retrieve_to(instance_dir, shortlists, 5)
    scores = tmp_path / "scores.csv"
    run_ok(["uncertainty", "--shortlists", str(shortlists), "--estimator", "l2",
            "--out", str(scores)])
    lines = scores.read_text().splitlines()
    qid, est, _u, prob = lines[3].split(",")
    lines[3] = ",".join([qid, est, "nan", prob])
    scores.write_text("\n".join(lines) + "\n")
    code = main(["calibrate", "--scores", str(scores), "--shortlists", str(shortlists),
                 "--query-manifest", str(instance_dir / "queries.jsonl"),
                 "--db-manifest", str(instance_dir / "db.jsonl"),
                 "--estimator", "l2", "--out", str(tmp_path / "model.json")])
    assert code == 1
    assert f"{scores}: line 4: non-finite u value 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_calibrate_labels_tau_boundary_inclusively(tmp_path):
    # one query per top-1 distance; q2's is the boundary under test
    offsets = [0.0, 1e-4, 3e-4, 5e-3, 1e-2, 0.0]
    us = [-10.0, -8.0, -5.0, -1.0, 0.0, -0.5]
    qids = [f"q{i}" for i in range(len(offsets))]
    write_manifest_file(tmp_path / "q.jsonl", [(q, 45.0, 7.0) for q in qids])
    write_manifest_file(tmp_path / "db.jsonl",
                        [(f"d{i}", 45.0, 7.0 + off) for i, off in enumerate(offsets)])
    write_shortlists_csv([Shortlist(q, [f"d{i}"], [0.5]) for i, q in enumerate(qids)],
                         tmp_path / "s.csv")
    write_scores_csv([UncertaintyScore(q, Estimator.L2, u) for q, u in zip(qids, us)],
                     tmp_path / "scores.csv")
    dists = haversine_many([45.0] * len(offsets), [7.0] * len(offsets),
                           [45.0] * len(offsets), [7.0 + off for off in offsets])
    tau = float(dists[2])
    for tau_arg, q2_wrong in ((tau, False), (float(np.nextafter(tau, 0.0)), True)):
        out = tmp_path / "model.json"
        run_ok(["calibrate", "--scores", str(tmp_path / "scores.csv"),
                "--shortlists", str(tmp_path / "s.csv"),
                "--query-manifest", str(tmp_path / "q.jsonl"),
                "--db-manifest", str(tmp_path / "db.jsonl"),
                "--estimator", "l2", "--tau", repr(tau_arg), "--out", str(out)])
        wrong = [False, False, q2_wrong, True, True, False]
        expected = fit_logistic(list(zip(us, wrong)))
        assert out.read_text() == expected.to_json() + "\n"


@pytest.mark.parametrize("case, message", [
    ("estimator", "no 'pa' scores found in {scores}"),
    ("shortlist", "query 'q2' has no shortlist"),
    ("query", "query 'q1' not in manifest"),
    ("candidate", "candidate 'd1' not in db manifest"),
])
def test_calibrate_names_a_score_it_cannot_label(case, message, tmp_path, capsys):
    # two queries, each with one candidate at its own position
    queries = [("q0", 45.0, 7.0)] + ([] if case == "query" else [("q1", 45.0, 7.1)])
    write_manifest_file(tmp_path / "q.jsonl", queries)
    db = [("d0", 45.0, 7.0)] + ([] if case == "candidate" else [("d1", 45.0, 7.1)])
    write_manifest_file(tmp_path / "db.jsonl", db)
    write_shortlists_csv([Shortlist("q0", ["d0"], [0.1]), Shortlist("q1", ["d1"], [0.2])],
                         tmp_path / "s.csv")
    scored = ["q0", "q1"] + (["q2"] if case == "shortlist" else [])
    scores = tmp_path / "scores.csv"
    write_scores_csv([UncertaintyScore(q, Estimator.L2, 0.1) for q in scored], scores)
    estimator = "pa" if case == "estimator" else "l2"
    code = main(["calibrate", "--scores", str(scores), "--shortlists", str(tmp_path / "s.csv"),
                 "--query-manifest", str(tmp_path / "q.jsonl"),
                 "--db-manifest", str(tmp_path / "db.jsonl"),
                 "--estimator", estimator, "--out", str(tmp_path / "model.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message.format(scores=scores)}\n"
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command, flag", [
    ("synth", "--tau"), ("synth", "--estimator"), ("synth", "--threshold"),
    ("retrieve", "--tau"), ("retrieve", "--estimator"), ("retrieve", "--threshold"),
    ("rerank", "--tau"), ("rerank", "--estimator"), ("rerank", "--threshold"),
    ("uncertainty", "--tau"), ("uncertainty", "--threshold"),
    ("calibrate", "--threshold"),
    ("gate", "--tau"),
])
def test_flags_a_command_does_not_read_are_rejected(command, flag, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    value = "inlier" if flag == "--estimator" else "0.5"
    required = {
        "synth": ["--out-dir", "o"],
        "retrieve": ["--db-manifest", "a", "--db-blob", "b", "--query-manifest", "c",
                     "--query-blob", "d", "--out", "o"],
        "rerank": ["--shortlists", "s", "--inliers", "i", "--out", "o"],
        "uncertainty": ["--shortlists", "s", "--out", "o"],
        "calibrate": ["--scores", "c", "--shortlists", "s", "--query-manifest", "q",
                      "--db-manifest", "d", "--out", "o"],
        "gate": ["--shortlists", "s", "--inliers", "i", "--model", "m", "--out", "o"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["uncertainty", "gate"])
def test_a_non_finite_score_names_its_query(command, tmp_path, capsys):
    # search writes inf distances when a query's squared distances overflow
    write_shortlists_csv([Shortlist("q0", ["d0", "d1"], [0.5, 0.7]),
                          Shortlist("q1", ["d0", "d1"], [math.inf, math.inf])],
                         tmp_path / "s.csv")
    (tmp_path / "inliers.csv").write_text(
        "query_id,db_id,inliers\nq0,d0,3\nq0,d1,1\nq1,d0,2\nq1,d1,5\n")
    model = tmp_path / "m.json"
    model.write_text(LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0).to_json())
    extra = ["--inliers", str(tmp_path / "inliers.csv")] if command == "gate" else []
    code = main([command, "--shortlists", str(tmp_path / "s.csv"), "--estimator", "l2",
                 "--model", str(model), *extra, "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: query 'q1': uncertainty value must be finite, got inf\n"


@pytest.mark.parametrize("command", ["uncertainty", "gate"])
def test_a_non_finite_score_leaves_no_output(command, tmp_path):
    # the first query's score maps to a probability; the second's cannot, so
    # no file is written, not even the first query's rows
    write_shortlists_csv([Shortlist("q0", ["d0", "d1"], [0.5, 0.7]),
                          Shortlist("q1", ["d0", "d1"], [math.inf, math.inf])],
                         tmp_path / "s.csv")
    (tmp_path / "inliers.csv").write_text(
        "query_id,db_id,inliers\nq0,d0,3\nq0,d1,1\nq1,d0,2\nq1,d1,5\n")
    model = tmp_path / "m.json"
    model.write_text(LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0).to_json())
    extra = ["--inliers", str(tmp_path / "inliers.csv")] if command == "gate" else []
    out = tmp_path / "out.csv"
    code = main([command, "--shortlists", str(tmp_path / "s.csv"), "--estimator", "l2",
                 "--model", str(model), *extra, "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.fixture
def thinned(instance_dir, tmp_path):
    """Shortlists of 10 and the instance's counts for them, less every third
    pair of each list (ranks 3, 6 and 9), so each top-1 pair keeps its count."""
    shortlists = tmp_path / "s.csv"
    retrieve_to(instance_dir, shortlists, 10)
    table = load_inlier_table(instance_dir / "inliers.csv")
    rows = {sl.query_id: {db_id: table.rows[sl.query_id][db_id]
                          for i, db_id in enumerate(sl.db_ids) if i % 3 != 2}
            for sl in read_shortlists_csv(shortlists)}
    write_inlier_table(InlierTable(rows=rows), tmp_path / "i.csv")
    return shortlists, tmp_path / "i.csv"


def test_rerank_prints_its_count_of_blank_inlier_cells(thinned, tmp_path, capsys):
    shortlists, inliers = thinned
    out = tmp_path / "r.csv"
    capsys.readouterr()
    run_ok(["rerank", "--shortlists", str(shortlists), "--inliers", str(inliers),
            "--out", str(out)])
    with open(out) as fh:
        blank = sum(1 for r in csv.DictReader(fh) if not r["inliers"])
    assert blank == 120 * 3
    assert capsys.readouterr().out == \
        f"wrote 120 reranked lists to {out} ({blank} pairs missing counts)\n"


@pytest.mark.parametrize("estimator", ["inlier", "l2"])
def test_gate_prints_its_count_of_fired_queries(estimator, thinned, tmp_path, capsys):
    shortlists, inliers = thinned
    if estimator == "inlier":
        model, threshold = LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0), "0.02"
    else:  # fires above the median top-1 distance
        d1 = sorted(sl.dists[0] for sl in read_shortlists_csv(shortlists))
        model, threshold = LogisticModel(w=1.0, b=0.0, mean=d1[60], std=0.01), "0.5"
    (tmp_path / "m.json").write_text(model.to_json())
    out = tmp_path / "g.csv"
    capsys.readouterr()
    run_ok(["gate", "--shortlists", str(shortlists), "--inliers", str(inliers),
            "--model", str(tmp_path / "m.json"), "--estimator", estimator,
            "--threshold", threshold, "--out", str(out)])
    with open(out) as fh:
        fired = len({r["query_id"] for r in csv.DictReader(fh) if r["gate_fired"] == "true"})
    assert 0 < fired < 120
    assert capsys.readouterr().out == f"gate fired for {fired}/120 queries; wrote {out}\n"


@pytest.mark.parametrize("value, problem", [
    ("NaN", "must be finite, got nan"), ("Infinity", "must be finite, got inf"),
    ("-Infinity", "must be finite, got -inf"),
    ("true", "must be a JSON number, got bool"),
    ('"1.5"', "must be a JSON number, got str"),
    ("1" + "0" * 400, "must be finite, got inf"),
    ("-1" + "0" * 5000, "must be finite, got -inf"),
], ids=["NaN", "Infinity", "-Infinity", "true", "numeric-string", "400-digit-int",
        "5000-digit-int"])
@pytest.mark.parametrize("name", ["w", "b", "mean", "std"])
def test_gate_rejects_a_model_with_a_non_finite_field(name, value, problem, tmp_path, capsys):
    write_shortlists_csv([Shortlist("q0", ["d0", "d1"], [0.5, 0.7])], tmp_path / "s.csv")
    (tmp_path / "inliers.csv").write_text("query_id,db_id,inliers\nq0,d0,3\nq0,d1,1\n")
    fields = {"w": "1.0", "b": "0.0", "mean": "0.0", "std": "1.0", name: value}
    model = tmp_path / "m.json"
    model.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    out = tmp_path / "out.csv"
    code = main(["gate", "--shortlists", str(tmp_path / "s.csv"),
                 "--inliers", str(tmp_path / "inliers.csv"), "--model", str(model),
                 "--estimator", "l2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {model}: model field '{name}' {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["uncertainty", "gate"])
def test_a_model_with_zero_std_is_rejected_naming_its_file(command, tmp_path, capsys):
    write_shortlists_csv([Shortlist("q0", ["d0", "d1"], [0.5, 0.7])], tmp_path / "s.csv")
    (tmp_path / "inliers.csv").write_text("query_id,db_id,inliers\nq0,d0,3\nq0,d1,1\n")
    model = tmp_path / "m.json"
    model.write_text('{"w": 1.0, "b": 0.0, "mean": 0.0, "std": 0}')
    extra = ["--inliers", str(tmp_path / "inliers.csv")] if command == "gate" else []
    code = main([command, "--shortlists", str(tmp_path / "s.csv"), "--model", str(model),
                 "--estimator", "l2", *extra, "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {model}: feature std must be positive, got 0.0\n"
    assert not (tmp_path / "out.csv").exists()
