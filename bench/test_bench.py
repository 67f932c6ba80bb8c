"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
OTHER_SEED = 5


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_default_families_are_the_builtin_families():
    from blfsig import fibration
    for item in workloads.families(workloads.DEFAULT_SEED):
        spec = fibration.family_spec(item["family"], item["g"], item["n"])
        assert item["doc"] == fibration.spec_to_json(spec)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    make = workloads.make_items
    assert make(workload, OTHER_SEED) == make(workload, OTHER_SEED)
    assert make(workload, OTHER_SEED) != make(workload, OTHER_SEED + 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, section):
    result, meta = run.measure(workload, OTHER_SEED, 0, trace, limit=2)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(section)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert meta["fail_frac"] == 0 and meta["samples"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_wrong_reference_value_is_a_failure(workload):
    reference = run.load_reference(workload)
    result, _ = run.measure(workload, workloads.DEFAULT_SEED, 0, False, limit=2,
                            reference=reference)
    assert result["correct"] and result["failed"] == 0
    wrong = copy.deepcopy(reference)
    first = wrong["outputs"][0]
    key = next(iter(first))
    first[key] = "12345/7" if isinstance(first[key], str) else 12345
    result, meta = run.measure(workload, workloads.DEFAULT_SEED, 0, False, limit=2,
                               reference=wrong)
    assert not result["correct"] and result["failed"] == 1
    assert meta["fail_frac"] == 0.5


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "families",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
