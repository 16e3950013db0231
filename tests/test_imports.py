"""Each CLI command imports only the modules it runs.

rerank, uncertainty (except under sue) and gate never touch an array, so
they must start and finish without numpy, and write the same bytes as an
ordinary in-process run. Every check runs in a fresh interpreter, since the
test process itself has imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vprkit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``vprkit.cli`` as ``python -m vprkit.cli`` would, with numpy made
# unimportable when the first argument is "no-numpy", and prints the vprkit
# modules that were loaded once the command has exited, and ``_hashlib``
# (hashlib's OpenSSL binding) if that was loaded too.
RUN_CLI = """
import runpy, sys
if sys.argv[1] == "no-numpy":
    sys.modules["numpy"] = None
sys.argv[:2] = ["vprkit"]
try:
    runpy.run_module("vprkit.cli", run_name="__main__")
finally:
    print(" ".join(sorted(m for m in sys.modules if m.startswith("vprkit") or m == "_hashlib")))
"""


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def run_cli(argv, numpy=True):
    """Exit status and loaded vprkit modules of one CLI command in a new process."""
    proc = python("-c", RUN_CLI, "with-numpy" if numpy else "no-numpy", *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.fixture(scope="module")
def inst(tmp_path_factory):
    d = tmp_path_factory.mktemp("inst")
    assert main(["synth", "--out-dir", str(d), "--n-db", "200", "--n-queries", "120",
                 "--dim", "16", "--target-r1", "0.85", "--matcher-quality", "0.9",
                 "--seed", "21", "--k", "20"]) == 0
    assert main(["retrieve", "--db-manifest", str(d / "db.jsonl"), "--db-blob", str(d / "db.vprd"),
                 "--query-manifest", str(d / "queries.jsonl"),
                 "--query-blob", str(d / "queries.vprd"), "--k", "20",
                 "--out", str(d / "shortlists.csv")]) == 0
    assert main(["uncertainty", "--shortlists", str(d / "shortlists.csv"),
                 "--inliers", str(d / "inliers.csv"), "--out", str(d / "scores.csv")]) == 0
    assert main(["calibrate", "--scores", str(d / "scores.csv"),
                 "--shortlists", str(d / "shortlists.csv"),
                 "--query-manifest", str(d / "queries.jsonl"),
                 "--db-manifest", str(d / "db.jsonl"), "--out", str(d / "model.json")]) == 0
    return d


def commands(d):
    sl, inl = ["--shortlists", str(d / "shortlists.csv")], ["--inliers", str(d / "inliers.csv")]
    model = ["--model", str(d / "model.json")]
    return {
        "rerank": ["rerank", *sl, *inl],
        "uncertainty-inlier": ["uncertainty", *sl, *inl, "--estimator", "inlier", *model],
        "uncertainty-l2": ["uncertainty", *sl, "--estimator", "l2"],
        "uncertainty-pa": ["uncertainty", *sl, "--estimator", "pa"],
        "uncertainty-random": ["uncertainty", *sl, "--estimator", "random", "--seed", "7"],
        "gate-inlier": ["gate", *sl, *inl, *model, "--estimator", "inlier", "--threshold", "0.3"],
        "uncertainty-sue": ["uncertainty", *sl, "--estimator", "sue",
                            "--db-manifest", str(d / "db.jsonl")],
        "retrieve": ["retrieve", "--db-manifest", str(d / "db.jsonl"),
                     "--db-blob", str(d / "db.vprd"), "--query-manifest",
                     str(d / "queries.jsonl"), "--query-blob", str(d / "queries.vprd"),
                     "--k", "20"],
        "calibrate": ["calibrate", "--scores", str(d / "scores.csv"), *sl,
                      "--query-manifest", str(d / "queries.jsonl"),
                      "--db-manifest", str(d / "db.jsonl")],
        "evaluate": ["evaluate", "--db-manifest", str(d / "db.jsonl"),
                     "--db-blob", str(d / "db.vprd"), "--query-manifest",
                     str(d / "queries.jsonl"), "--query-blob", str(d / "queries.vprd"),
                     *inl, "--k", "20"],
    }


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = python("-c", "import sys, vprkit.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_importing_the_cli_leaves_the_matcher_process_modules_unloaded():
    # -S keeps site hooks from importing them before vprkit does
    code = ("import sys, vprkit.cli\n"
            "print(sorted({'subprocess', 'shlex', 'threading'} & sys.modules.keys()))\n")
    proc = python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_evaluation_leaves_the_thread_pool_unloaded():
    # only evaluate_pipeline(workers > 1) starts a pool; not -S, which would hide numpy
    code = "import sys, vprkit.evaluation\nprint('concurrent.futures' in sys.modules)\n"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name", ["rerank", "uncertainty-inlier", "uncertainty-l2",
                                  "uncertainty-pa", "uncertainty-random", "gate-inlier"])
def test_command_runs_without_numpy_and_writes_the_same_bytes(inst, tmp_path, name):
    argv = commands(inst)[name]
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    run_cli([*argv, "--out", str(tmp_path / "no_numpy")], numpy=False)
    assert (tmp_path / "no_numpy").read_bytes() == (tmp_path / "in_process").read_bytes()


@pytest.mark.parametrize("name", ["uncertainty-sue", "retrieve", "calibrate"])
def test_commands_that_compute_on_arrays_still_run(inst, tmp_path, name):
    argv = commands(inst)[name]
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    loaded = run_cli([*argv, "--out", str(tmp_path / "subprocess")])
    assert (tmp_path / "subprocess").read_bytes() == (tmp_path / "in_process").read_bytes()
    assert "vprkit.evaluation" not in loaded and "vprkit.synth" not in loaded


def test_rerank_stays_the_function_after_every_submodule_is_imported():
    code = ("import importlib, pkgutil, sys, vprkit\n"
            "for info in pkgutil.iter_modules(vprkit.__path__):\n"
            "    importlib.import_module('vprkit.' + info.name)\n"
            "print(vprkit.rerank is sys.modules['vprkit.rerank'].rerank)\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


@pytest.mark.parametrize("name", ["retrieve", "rerank", "uncertainty-inlier", "uncertainty-l2",
                                  "uncertainty-pa", "uncertainty-sue", "uncertainty-random",
                                  "calibrate", "gate-inlier", "evaluate"])
def test_no_command_loads_openssl(inst, tmp_path, name):
    # u_random's blake2b is the builtin _blake2 one; hashlib would map OpenSSL
    proc = python("-c", "import sys; print('_hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    if proc.stdout == "True\n":
        pytest.skip("site hooks load _hashlib before any vprkit code runs")
    loaded = run_cli([*commands(inst)[name], "--out", str(tmp_path / "out")])
    assert "_hashlib" not in loaded
