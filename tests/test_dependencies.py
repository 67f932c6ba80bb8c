"""The package runs on the standard library alone, and loads little of it.

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


IMPORT_GRAPH = """
import sys
sys.path.insert(0, sys.argv[1])
unwanted = ("dataclasses", "inspect", "typing", "blfsig.verify")
import blfsig
print(*[m for m in unwanted if m in sys.modules])
import blfsig.cli
print(*[m for m in unwanted if m in sys.modules])
"""


def test_import_loads_no_dataclasses_typing_or_verify():
    # -S: no site, whose start-up may load typing itself
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_GRAPH, str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n\n"
