"""The package runs on the standard library alone.

numpy stays a test-only dependency (the oracles use it as an independent
matrix product), so each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
if {block}:
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import blfsig.cli
from blfsig.fibration import compute_report, family_spec
report = compute_report(family_spec("mgn", 2, 1))
assert report.signature == report.meyer_path_signature == -8, report.signature
assert blfsig.cli.run(["tau", "-g", "2", "t1 t2", "t3"]) == 0
if not {block}:
    assert "numpy" not in sys.modules, "numpy was imported"
"""


@pytest.mark.parametrize("block", [True, False], ids=["numpy-blocked", "numpy-present"])
def test_cli_and_report_need_no_numpy(block):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(block=block)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
