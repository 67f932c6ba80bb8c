"""The benchmark's own correctness check, run on every item of a workload.

``bench/run.py`` checks each output of a pass (``workloads.problems``) and,
at the default seed, compares it with ``bench/reference/<workload>.json``.
Here one untimed pass of ``families`` and of ``word-queries`` at the default
seed goes through that check, so a change in ``src/`` that alters a
benchmark output fails the suite, not only the benchmark run.  The bench
modules are loaded from their files, without writing bytecode next to them.

``random-specs`` is left out: 18 of its 108 default-seed items fail.  Its
draw still appends iota to a type I fold monodromy over a north disk with no
data, a branch that ``verify.random_valid_spec`` no longer has; those specs
are no fibrations, and validation, exact on homology, refuses them.  The
repair of that workload is an open ROADMAP item.
"""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["families", "word-queries"])
def test_every_default_seed_item_matches_the_reference(monkeypatch, workload):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # bench/run.py imports its sibling as ``workloads``
    workloads = load("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    run = load("run")
    items = workloads.make_items(workload, workloads.DEFAULT_SEED)
    result = run.run_pass(workload, items, False, time.monotonic() + 120)
    reference = run.load_reference(workload)
    assert len(items) == len(result["outputs"]) == len(reference["outputs"]) > 0
    assert run.check(workloads.DEFAULT_SEED, items, result, reference) == []
