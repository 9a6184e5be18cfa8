"""The README's library example and its synth, factorize and cluster shell
examples run as written and print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from icfcluster.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# printed floats that may move in their last digits with the BLAS build
APPROXIMATE = {"epsilon_final", "objective"}


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rank, acc = capsys.readouterr().out.split()
    assert 1 <= int(rank) <= 40
    assert 0.0 <= float(acc) <= 1.0


def shell_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, the '# ' lines shown under it) of each README shell example of
    synth, factorize and cluster, in README order."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S):
        lines = block.replace("\\\n", " ").splitlines()
        argv = shlex.split(lines[0])
        if argv[:1] == ["icfcluster"] and argv[1] in ("synth", "factorize", "cluster"):
            examples.append((argv[1:], [line.removeprefix("# ") for line in lines[1:]]))
    return examples


def assert_same_fields(printed: str, shown: str) -> None:
    """Every whitespace-separated token equal, except key=value fields whose
    key ends in _ms, which are skipped, and APPROXIMATE ones, equal to 1e-9."""
    got, want = printed.split(), shown.split()
    assert len(got) == len(want), (printed, shown)
    for g, w in zip(got, want):
        key, _, value = w.partition("=")
        assert g.partition("=")[0] == key, (printed, shown)
        if key.endswith("_ms"):
            continue
        if key in APPROXIMATE:
            assert float(g.partition("=")[2]) == pytest.approx(float(value), rel=1e-9, abs=0.0)
        else:
            assert g == w, (printed, shown)


def test_shell_examples_print_what_is_shown(tmp_path, monkeypatch, capsys):
    examples = shell_examples()
    assert [argv[0] for argv, _ in examples] == ["synth", "factorize", "cluster"]
    monkeypatch.chdir(tmp_path)  # factorize reads the file synth writes
    for argv, shown in examples:
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(shown), (argv, printed)
        for line, expected in zip(printed, shown):
            assert_same_fields(line, expected)
    assert (tmp_path / "ring.factor").is_file()
    assert len((tmp_path / "assignments.txt").read_text().splitlines()) == 1000
