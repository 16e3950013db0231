import csv
import json

import pytest

from vprkit import cli
from vprkit.cli import main
from vprkit.uncertainty import LogisticModel


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

    def test_missing_estimator_input(self, instance_dir, tmp_path):
        shortlists = tmp_path / "s.csv"
        run_ok(["retrieve",
                "--db-manifest", str(instance_dir / "db.jsonl"),
                "--db-blob", str(instance_dir / "db.vprd"),
                "--query-manifest", str(instance_dir / "queries.jsonl"),
                "--query-blob", str(instance_dir / "queries.vprd"),
                "--k", "5", "--out", str(shortlists)])
        code = main(["uncertainty", "--shortlists", str(shortlists),
                     "--estimator", "inlier", "--out", str(tmp_path / "u.csv")])
        assert code == 1

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
        assert "bad logistic model JSON" in capsys.readouterr().err


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
        def get_inliers(self, query_id, db_id, image_paths=None):
            calls.append((query_id, db_id))
            return super().get_inliers(query_id, db_id, image_paths)

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
            assert int(r["inliers"]) == table.inliers(r["query_id"], r["db_id"])
