import re
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from vprkit.errors import (
    MatcherError,
    MatcherExitError,
    MatcherOutputError,
    MatcherTimeout,
    MissingPairError,
    ValidationError,
)
from vprkit.matching import (
    INLIER_CSV_HEADER,
    InlierTable,
    SubprocessProvider,
    TableProvider,
    load_inlier_table,
    write_inlier_table,
)

from conftest import AWKWARD_IDS, UNREADABLE_CSV, csv_bytes, inlier_table, unreadable_csv


def write_csv(path, rows, header="query_id,db_id,inliers"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


class TestInlierTable:
    def test_loads_rows(self, tmp_path):
        path = tmp_path / "i.csv"
        write_csv(path, [("q1", "d1", 7), ("q1", "d2", 26), ("q2", "d1", 0)])
        table = load_inlier_table(path)
        assert len(table) == 3
        assert table.rows["q1"]["d2"] == 26

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "i.csv"
        write_csv(path, [("q1", "d2", 5), ("q1", "d2", 7)])
        with pytest.raises(ValidationError, match="duplicate pair"):
            load_inlier_table(path)

    def test_duplicate_pair_on_non_adjacent_lines_names_the_second(self, tmp_path):
        path = tmp_path / "i.csv"
        write_csv(path, [("q1", "d2", 5), ("q2", "d2", 1), ("q1", "d3", 0), ("q1", "d2", 7)])
        with pytest.raises(ValidationError, match=r"line 5: duplicate pair \(q1, d2\)"):
            load_inlier_table(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "i.csv"
        write_csv(path, [("q1", "d1", -3)])
        with pytest.raises(ValidationError, match="negative"):
            load_inlier_table(path)

    def test_a_bad_row_after_a_quoted_line_break_names_its_physical_line(self, tmp_path):
        path = tmp_path / "i.csv"
        write_inlier_table(inlier_table({("lf\nx", "d1"): 3}), path)
        with open(path, "a", newline="") as fh:
            fh.write("q1,d2,-1\r\n")
        with pytest.raises(ValidationError, match="line 4: negative inlier count -1"):
            load_inlier_table(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "i.csv"
        for row, message in ((("q2", "d1", "seven"), "inlier count 'seven' is not an integer"),
                             (("q2", "d1"), "expected 3 fields, got 2")):
            write_csv(path, [("q1", "d1", 3), row])
            with pytest.raises(ValidationError, match=re.escape(f"{path}: line 3: {message}")):
                load_inlier_table(path)

    @pytest.mark.parametrize("first_query, row, message", [
        ("q1", "q2,d1", "line 3: expected 3 fields, got 2"),
        ("q1", "q2,d1,3,x", "line 3: expected 3 fields, got 4"),
        ("lf\nx", "q2,d1", "line 4: expected 3 fields, got 2"),
    ], ids=["short", "long", "after-a-quoted-line-break"])
    def test_a_row_of_the_wrong_width_names_its_physical_line(self, tmp_path, first_query,
                                                              row, message):
        path = tmp_path / "i.csv"
        write_inlier_table(inlier_table({(first_query, "d1"): 3}), path)
        with open(path, "a", newline="") as fh:
            fh.write(row + "\r\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}") + "$"):
            load_inlier_table(path)

    @pytest.mark.parametrize("case", UNREADABLE_CSV)
    def test_an_unreadable_file_is_rejected_naming_it(self, tmp_path, case):
        path = tmp_path / "i.csv"
        path.write_bytes(unreadable_csv(case, "query_id,db_id,inliers", "q{i},d1,3"))
        with pytest.raises(ValidationError,
                           match=re.escape(f"{path}: {UNREADABLE_CSV[case]}") + "$"):
            load_inlier_table(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "i.csv"
        write_csv(path, [("q1", "d1", 3)], header="a,b,c")
        with pytest.raises(ValidationError, match="header"):
            load_inlier_table(path)

    def test_missing_pair_is_distinct_outcome(self):
        provider = TableProvider(inlier_table({("q1", "d1"): 0}))
        assert provider.get_inliers("q1", "d1") == 0
        with pytest.raises(MissingPairError) as err:
            provider.get_inliers("q1", "d9")
        assert err.value.query_id == "q1"
        assert err.value.db_id == "d9"
        assert "(q1, d9)" in str(err.value)

    def test_missing_query_names_the_pair(self):
        provider = TableProvider(inlier_table({("q1", "d1"): 0}))
        with pytest.raises(MissingPairError) as err:
            provider.get_inliers("q7", "d1")
        assert (err.value.query_id, err.value.db_id) == ("q7", "d1")
        assert "(q7, d1)" in str(err.value)

    def test_round_trip(self, tmp_path):
        table = inlier_table({("q1", "d1"): 7, ("q2", "d3"): 0})
        path = tmp_path / "out.csv"
        write_inlier_table(table, path)
        assert load_inlier_table(path).counts == table.counts

    def test_writer_bytes_are_csv_writers_for_awkward_ids(self, tmp_path):
        ids = AWKWARD_IDS + [""]  # an empty db id is a cell of its own
        table = InlierTable({q: {d: (i * 7 + j) % 11 for j, d in enumerate(ids)}
                             for i, q in enumerate(AWKWARD_IDS)})
        path = tmp_path / "out.csv"
        write_inlier_table(table, path)
        assert path.read_bytes() == csv_bytes(
            [INLIER_CSV_HEADER]
            + [[q, d, n] for q, row in table.rows.items() for d, n in row.items()])
        assert load_inlier_table(path).rows == table.rows

    def test_writer_groups_interleaved_queries(self, tmp_path):
        # queries in first-appearance order, each with its pairs in file order
        src = tmp_path / "in.csv"
        write_csv(src, [("q2", "d1", 1), ("q1", "d4", 2), ("q2", "d3", 3),
                        ("q3", "d1", 4), ("q1", "d2", 5)])
        out = tmp_path / "out.csv"
        write_inlier_table(load_inlier_table(src), out)
        assert out.read_text().splitlines() == [
            "query_id,db_id,inliers",
            "q2,d1,1", "q2,d3,3", "q1,d4,2", "q1,d2,5", "q3,d1,4",
        ]

    def test_100k_pair_table_stays_compact(self, tmp_path):
        path = tmp_path / "big.csv"
        write_csv(path, [(f"q_{q:05d}", f"db_{(q * 7 + j) % 1000:05d}", (q + j) % 90)
                         for q in range(1000) for j in range(100)])
        tracemalloc.start()
        try:
            table = load_inlier_table(path)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 100_000
        assert kept < 8_000_000  # a dict of (str, str) keys kept about 22 MB


class TestTableProvider:
    def test_lookup_and_repeatability(self):
        provider = TableProvider(inlier_table({("q", "d"): 12}))
        assert provider.get_inliers("q", "d") == 12
        assert provider.get_inliers("q", "d") == 12

    def test_missing_propagates(self):
        provider = TableProvider(inlier_table({}))
        with pytest.raises(MissingPairError):
            provider.get_inliers("q", "d")


def _py_cmd(code):
    return f'{sys.executable} -c "{code}" {{query}} {{db}}'


class TestSubprocessProvider:
    def test_parses_last_stdout_token(self):
        provider = SubprocessProvider(_py_cmd("print('inliers: 7')"), timeout=30)
        assert provider.get_inliers("q", "d", ("a.png", "b.png")) == 7

    def test_wrapper_logging_is_ignored(self):
        provider = SubprocessProvider(
            _py_cmd("print('loading model...'); print('matched pair'); print(42)"), timeout=30)
        assert provider.get_inliers("q", "d", ("a.png", "b.png")) == 42

    def test_wrapper_logging_need_not_be_utf8(self):
        code = "import sys; sys.stdout.buffer.write(bytes([255]) + b' log' + bytes([10]) + b'42')"
        provider = SubprocessProvider(_py_cmd(code), timeout=30)
        assert provider.get_inliers("q", "d", ("a.png", "b.png")) == 42

    def test_a_lone_invalid_byte_names_the_pair(self):
        code = "import sys; sys.stdout.buffer.write(bytes([255]))"
        provider = SubprocessProvider(_py_cmd(code), timeout=30)
        with pytest.raises(MatcherOutputError) as err:
            provider.get_inliers("q3", "d5", ("a.png", "b.png"))
        assert "(q3, d5)" in str(err.value)
        assert "last stdout token '\ufffd' is not an integer" in str(err.value)

    def test_paths_are_substituted(self, tmp_path):
        out = tmp_path / "args.txt"
        code = f"import sys; open(r'{out}','w').write(' '.join(sys.argv[1:])); print(3)"
        provider = SubprocessProvider(_py_cmd(code), timeout=30)
        assert provider.get_inliers("q", "d", ("left.png", "right.png")) == 3
        assert out.read_text() == "left.png right.png"

    def test_paths_holding_placeholders_reach_argv_verbatim(self):
        provider = SubprocessProvider("matcher {query} --db={db}", timeout=30)
        seen = []

        def fake_run(argv):
            seen.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout=b"4\n", stderr=b"")

        provider._run = fake_run
        paths = ("/imgs/{db}/q.jpg", r"/db/{query}\1/d.jpg")
        assert provider.get_inliers("q", "d", paths) == 4
        assert seen == [["matcher", paths[0], "--db=" + paths[1]]]
        # so does a record id, which fills a placeholder when no paths are given
        assert provider.get_inliers("q{db}", "{query}d") == 4
        assert seen == [["matcher", paths[0], "--db=" + paths[1]],
                        ["matcher", "q{db}", "--db={query}d"]]

    @pytest.mark.parametrize("stdout, reason", [
        (b"", "empty stdout"),
        (b" \n\t\n", "empty stdout"),
        (b"matched\n-3\n", "negative inlier count -3"),
    ])
    def test_unusable_stdout_names_the_pair(self, stdout, reason):
        provider = SubprocessProvider("matcher {query} {db}", timeout=30)
        provider._run = lambda argv: subprocess.CompletedProcess(argv, 0, stdout=stdout,
                                                                 stderr=b"")
        with pytest.raises(MatcherOutputError) as err:
            provider.get_inliers("q3", "d5", ("a.png", "b.png"))
        assert str(err.value) == f"matcher failed for (q3, d5): {reason}"

    def test_timeout_names_the_pair(self):
        provider = SubprocessProvider(_py_cmd("import time; time.sleep(30)"), timeout=0.3)
        with pytest.raises(MatcherTimeout) as err:
            provider.get_inliers("q7", "d9", ("a", "b"))
        assert "q7" in str(err.value) and "d9" in str(err.value)

    def test_nonzero_exit(self):
        provider = SubprocessProvider(_py_cmd("import sys; sys.exit(3)"), timeout=30)
        with pytest.raises(MatcherExitError, match="exit status 3"):
            provider.get_inliers("q", "d", ("a", "b"))

    def test_stderr_is_discarded_not_held_in_memory(self):
        code = "import sys; sys.stderr.buffer.write(bytes(32 << 20)); print(7)"
        provider = SubprocessProvider(_py_cmd(code), timeout=60)
        tracemalloc.start()
        try:
            assert provider.get_inliers("q", "d") == 7
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a captured stderr held all 32 MiB

    def test_unparseable_output(self):
        provider = SubprocessProvider(_py_cmd("print('no numbers here')"), timeout=30)
        with pytest.raises(MatcherOutputError):
            provider.get_inliers("q", "d", ("a", "b"))

    def test_missing_image_paths(self):
        # without paths, the pair's record ids fill the placeholders
        provider = SubprocessProvider("matcher /imgs/{query}.jpg {db}", timeout=30)
        seen = []

        def fake_run(argv):
            seen.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout=b"6\n", stderr=b"")

        provider._run = fake_run
        assert provider.get_inliers("q 1", "d9") == 6
        assert seen == [["matcher", "/imgs/q 1.jpg", "d9"]]

    @pytest.mark.parametrize("query_id", ["q\x00nul", "q\ud800"], ids=["nul", "lone-surrogate"])
    def test_an_id_no_process_takes_is_a_matcher_error_naming_the_pair(self, query_id):
        provider = SubprocessProvider(_py_cmd("print(1)"), timeout=30)
        with pytest.raises(MatcherError, match="cannot run: ") as info:
            provider.get_inliers(query_id, "d")
        assert (info.value.query_id, info.value.db_id) == (query_id, "d")

    @pytest.mark.skipif(sys.platform == "win32", reason="runs a POSIX shell script")
    def test_the_program_is_looked_up_on_path_once_when_built(self, tmp_path, monkeypatch):
        tool = tmp_path / "fake-matcher"
        tool.write_text("#!/bin/sh\necho 9\n")
        tool.chmod(0o755)
        monkeypatch.setenv("PATH", str(tmp_path))
        provider = SubprocessProvider("fake-matcher {query} {db}", timeout=30)
        monkeypatch.setenv("PATH", "")
        assert provider.get_inliers("q", "d") == 9
        seen = []

        def fake_run(argv):
            seen.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout=b"9\n", stderr=b"")

        provider._run = fake_run
        assert provider.get_inliers("q", "d") == 9
        assert seen == [[str(tool), "q", "d"]]

    def test_template_must_have_placeholders(self):
        with pytest.raises(ValidationError, match="placeholder"):
            SubprocessProvider("matcher --left only", timeout=30)

    def test_unbalanced_quote_in_template_is_rejected_up_front(self):
        template = 'matcher "{query} {db}'
        with pytest.raises(ValidationError, match="No closing quotation") as err:
            SubprocessProvider(template, timeout=30)
        assert template in str(err.value)

    def test_invalid_limits(self):
        with pytest.raises(ValidationError):
            SubprocessProvider(_py_cmd("print(1)"), timeout=0)
        with pytest.raises(ValidationError):
            SubprocessProvider(_py_cmd("print(1)"), timeout=5, max_concurrent=0)
        # subprocess.run would raise a bare OverflowError on every call
        for timeout in (float("inf"), float("nan")):
            with pytest.raises(ValidationError, match=f"timeout must be positive and finite, "
                                                      f"got {timeout}"):
                SubprocessProvider(_py_cmd("print(1)"), timeout=timeout)

    @pytest.mark.parametrize("value, message", [
        (1.5, "max_concurrent must be an integer, got 1.5"),
        ("2", "max_concurrent must be an integer, got '2'"),
        (0, "max_concurrent must be >= 1, got 0"),
    ], ids=["fractional", "string", "zero"])
    def test_a_bad_max_concurrent_is_rejected_naming_it(self, value, message):
        # a float once built a semaphore that never blocks; a string raised a bare TypeError
        with pytest.raises(ValidationError, match=re.escape(message)):
            SubprocessProvider(_py_cmd("print(1)"), timeout=5, max_concurrent=value)

    def test_concurrency_stays_within_bound(self):
        provider = SubprocessProvider(_py_cmd("print(1)"), timeout=30, max_concurrent=3)
        lock = threading.Lock()
        state = {"active": 0, "peak": 0}

        def fake_run(argv):
            with lock:
                state["active"] += 1
                state["peak"] = max(state["peak"], state["active"])
            time.sleep(0.02)
            with lock:
                state["active"] -= 1
            return subprocess.CompletedProcess(argv, 0, stdout=b"5\n", stderr=b"")

        provider._run = fake_run
        threads = [
            threading.Thread(target=provider.get_inliers, args=(f"q{i}", "d", ("a", "b")))
            for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state["peak"] <= 3
        assert state["active"] == 0
