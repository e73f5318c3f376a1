"""What ``ctxsd bounds`` and ``ctxsd table`` print, pinned byte for byte.

``tests/data/cli_scalar.json`` holds stdout, stderr and the exit code of both
commands at the default point, near the singular corner, at both ends of c,
at the normalisation edge (c = 1 answers at p = 2.5e-12, exits 2 at p = 1e-12
and p = 0) and at an omega outside [0, 1]. A refactor or a speed-up must pass
this test without regenerating the file.

Regenerate only for an intended change of output, with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from ctxsd import config
from ctxsd.cli import main

_FILE = Path(__file__).parent / "data" / "cli_scalar.json"

_POINTS = [
    [],
    ["--c", "0.999999", "--p", "1e-9"],
    ["--c", "0", "--p", "0.5"],
    ["--c", "1", "--p", "0.5"],
    ["--c", "1", "--p", "2.5e-12"],
    ["--c", "1", "--p", "1e-12"],
    ["--c", "1", "--p", "0"],
    ["--omega", "2"],
]
_ARGVS = [[command, *point] for command in ("bounds", "table") for point in _POINTS]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _pinned() -> list[dict]:
    return json.loads(_FILE.read_text(encoding="utf-8"))


def test_the_pinned_runs_are_the_fixed_runs():
    assert [entry["argv"] for entry in _pinned()] == _ARGVS


@pytest.mark.parametrize("index", range(len(_ARGVS)), ids=[" ".join(a) for a in _ARGVS])
def test_every_run_prints_its_pinned_bytes(index, monkeypatch):
    monkeypatch.delenv(config.ENV_TOL, raising=False)
    assert _run(_ARGVS[index]) == _pinned()[index]


if __name__ == "__main__":
    os.environ.pop(config.ENV_TOL, None)
    _FILE.write_text(json.dumps([_run(argv) for argv in _ARGVS], indent=1) + "\n",
                     encoding="utf-8")
