"""Only aak mode loads scipy.linalg; everything else runs on numpy alone.

The check starts a fresh interpreter, so what pytest or another test has
already imported does not decide it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

#: Executes each (name, source) step in turn and prints, per step, the exit
#: code the step leaves in ``code`` and whether scipy.linalg is loaded after it.
PROBE = """
import contextlib, io, json, sys

loaded = {}
for name, source in json.loads(sys.argv[1]):
    scope = {"code": 0}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(source, scope)
    loaded[name] = [scope["code"], "scipy.linalg" in sys.modules]
print(json.dumps(loaded))
"""


def _cli(*argv):
    return f"from wfamin.cli import main; code = main({list(argv)!r})"


def test_only_aak_mode_loads_scipy_linalg(tmp_path):
    e2, nilpotent = str(FIXTURES / "e2.wfa"), str(FIXTURES / "nilpotent.wfa")
    numpy_only = [
        ("import", "import wfamin, wfamin.cli"),
        ("eval", _cli("eval", nilpotent, "ab")),
        ("svd", _cli("approximate", nilpotent, "0", "--mode", "svd", "--no-timestamp",
                     "-o", str(tmp_path / "svd.wfa"))),
        ("verify", _cli("verify", "--suite", "all", "--degree", "2", "--no-timestamp")),
        ("is_minimal", "from wfamin import is_minimal, load_document; "
                       f"code = int(not is_minimal(load_document({e2!r}).wfa))"),
    ]
    aak = ("aak", _cli("approximate", e2, "1", "--mode", "aak", "--no-timestamp",
                       "-o", str(tmp_path / "aak.wfa")))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([*numpy_only, aak])],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        **{name: [0, False] for name, _ in numpy_only},
        "aak": [0, True],
    }
