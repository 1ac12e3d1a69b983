"""The declared console scripts exist, and ``casdet fixture`` reports a
fixture's counts and rejections through its exit code."""

import importlib
import os
import subprocess
import sys

import pytest

import casdet
from casdet.proposals import Proposal, save_proposals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(casdet.__file__)))


def run_cli(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "casdet.cli", *args], env=env, capture_output=True, text=True,
                          timeout=120)


def declared_scripts() -> dict:
    """``pyproject.toml``'s ``[project.scripts]`` table, read from its ``name
    = "module:attr"`` lines up to the next table, since Python 3.10 has no
    ``tomllib``; where ``tomllib`` exists it must read the same table."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    scripts, inside = {}, False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and line and not line.startswith("#"):
            name, _, target = line.partition("=")
            scripts[name.strip().strip('"')] = target.strip().strip('"')
    if sys.version_info >= (3, 11):
        import tomllib
        assert scripts == tomllib.loads(text)["project"]["scripts"]
    return scripts


def test_every_declared_script_imports_and_answers_help(capsys):
    scripts = declared_scripts()
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        main = getattr(importlib.import_module(module), attr)
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0, name
        assert "usage:" in capsys.readouterr().out


def test_fixture_command_on_a_clean_file(tmp_path):
    path = tmp_path / "props.txt"
    save_proposals(path, {0: [Proposal([0.5, 0.5, 0.2, 0.2], 0.9), Proposal([0.3, 0.3, 0.1, 0.1])],
                          4: [Proposal([0.6, 0.4, 0.2, 0.3])]})
    proc = run_cli("fixture", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["scenes: 2", "proposals: 3"]


def test_fixture_command_on_a_file_of_scenes_with_no_proposals(tmp_path):
    """Scenes with zero proposals write only the header line, which is a
    clean fixture of no scenes."""
    path = tmp_path / "props.txt"
    save_proposals(path, {0: [], 5: []})
    assert path.read_text() == "# scene_id cx cy w h [score]\n"
    proc = run_cli("fixture", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["scenes: 0", "proposals: 0"]


def test_fixture_command_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    """A UTF-8 byte-order mark is valid UTF-8, not part of the first line;
    it used to make a header line 7 fields and a first record's scene id
    ``'\\ufeff0'``, each rejected with exit code 1."""
    for first in ("# scene_id cx cy w h [score]\n", ""):
        path = tmp_path / "bom.txt"
        path.write_bytes(("\ufeff" + first + "0 0.5 0.5 0.2 0.2 0.9\n3 0.25 0.75 0.1 0.3\n").encode("utf-8"))
        proc = run_cli("fixture", str(path))
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.splitlines() == ["scenes: 2", "proposals: 2"]


def test_fixture_command_lists_rejections_and_exits_1(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0.5 0.5 0.2 0.2\nnot a record\n1 0.4 0.4 -0.1 0.2\n")
    proc = run_cli("fixture", str(path))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "scenes: 1",
        "proposals: 1",
        "rejected line 2: expected 5 or 6 fields, got 3",
        "rejected line 3: invalid box [0.4, 0.4, -0.1, 0.2]",
    ]


def test_fixture_command_on_an_unreadable_file(tmp_path):
    proc = run_cli("fixture", str(tmp_path / "missing.txt"))
    assert proc.returncode == 2
    assert "missing.txt" in proc.stderr and proc.stdout == ""
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"0 0.5 0.5 0.2 0.2\n\xff\xfe\n")
    proc = run_cli("fixture", str(binary))
    assert proc.returncode == 2
    assert "utf-8" in proc.stderr and "Traceback" not in proc.stderr and proc.stdout == ""


def test_cli_help_and_missing_command():
    assert run_cli("--help").returncode == 0
    assert run_cli().returncode == 2
