"""The README's CLI walkthrough runs as written and gives the figures it quotes."""

import json
import re
import shlex
from pathlib import Path

from vprkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough():
    """(argv list per ``vprkit`` command, the prose after the block)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
    block, prose = re.match(r"\s*```bash\n(.*?)```(.*)", section, re.S).groups()
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("vprkit ")]
    return commands, " ".join(prose.split())


def swap(argv, old, new):
    """``argv`` with the flag ``old`` (and its value, when it takes one)
    replaced by the tokens ``new``."""
    i = argv.index(old)
    takes_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
    return argv[:i] + new + argv[i + 1 + takes_value:]


def run(argv, capsys):
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def r1(path):
    recalls = json.loads(Path(path).read_text())["recalls"]["25.0"]
    return {system: at_k["1"] for system, at_k in recalls.items()}


def test_cli_walkthrough_reproduces_quoted_figures(tmp_path, monkeypatch, capsys):
    commands, prose = walkthrough()
    assert [argv[0] for argv in commands] == [
        "synth", "retrieve", "rerank", "uncertainty", "calibrate", "gate", "evaluate"]
    monkeypatch.chdir(tmp_path)
    out = {argv[0]: run(argv, capsys) for argv in commands}

    assert "from 98.0 to 83.8 while the oracle-gated pipeline reaches 99.7" in prose
    assert r1("demo/report.json") == {"retrieval": 98.0, "rerank": 83.8, "adaptive": 99.7}

    assert "At `--threshold 0.5` it fires for 0 of 1000 queries" in prose
    assert "gate fired for 0/1000 queries" in out["gate"]

    gate, evaluate = commands[5], commands[6]
    assert "At `--threshold 0.02` it fires for 176" in prose
    gated = run(swap(gate, "--threshold", ["--threshold", "0.02"]), capsys)
    assert "gate fired for 176/1000 queries" in gated

    assert ("`vprkit evaluate --model demo/model.json --threshold 0.02` "
            "then reports adaptive R@1 83.8") in prose
    argv = swap(evaluate, "--oracle-gate", ["--model", "demo/model.json", "--threshold", "0.02"])
    run(swap(argv, "--out", ["--out", "demo/model_report.json"]), capsys)
    assert r1("demo/model_report.json")["adaptive"] == 83.8

