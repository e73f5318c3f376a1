"""The package's import boundaries and module sizes.

``import ctxsd`` loads no submodule, and each command loads only the
modules it runs: ``bounds``, ``table``, ``sweep`` and ``figure`` load
neither the construction route (``qtheory``), nor the oracle route
(``ncmodel``), nor the verify suite (``harness``). The closed-form route,
``bounds``, is a leaf: importing it loads only ``config`` and ``errors``.
Each public name is imported from its home module on first use, and is
that module's object.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
_MAX_MODULE_LINES = 750

# Run in a fresh interpreter, given the commands as JSON; prints what it saw.
_PROBE = """
import contextlib, importlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("ctxsd."))

import ctxsd
bare = loaded()
import ctxsd.bounds
leaf = loaded()
from ctxsd.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
commands = loaded()
checks = len(ctxsd.harness._CHECKS)  # a submodule read as an attribute
star = {}
exec("from ctxsd import *", star)
home = lambda name: importlib.import_module("ctxsd." + ctxsd._HOME[name])
print(json.dumps({
    "bare": bare, "leaf": leaf, "codes": codes, "commands": commands, "checks": checks,
    "not_home": [n for n in ctxsd.__all__ if getattr(ctxsd, n) is not getattr(home(n), n)],
    "not_starred": [n for n in ctxsd.__all__ if star.get(n) is not getattr(ctxsd, n)],
}))
"""


def test_import_loads_only_what_a_command_runs(tmp_path):
    commands = [
        ["bounds"],
        ["table"],
        ["sweep", "--variable", "c", "--points", "5", "--target", "MCM:C:Q"],
        ["figure", "--id", "fig2", "--out", str(tmp_path / "fig2.csv")],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["bare"] == []
    assert seen["leaf"] == ["ctxsd.bounds", "ctxsd.config", "ctxsd.errors"]
    assert seen["codes"] == [0] * len(commands)
    other_routes = {"ctxsd.qtheory", "ctxsd.ncmodel", "ctxsd.harness"}
    assert not other_routes & set(seen["commands"]), seen["commands"]
    assert seen["checks"] > 0
    assert seen["not_home"] == []
    assert seen["not_starred"] == []


def test_no_module_is_over_the_size_limit():
    sizes = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in (_SRC / "ctxsd").glob("*.py")}
    assert {name: n for name, n in sizes.items() if n > _MAX_MODULE_LINES} == {}
