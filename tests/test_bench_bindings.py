"""The benchmark's span table names bindings in ``blfsig``.

``bench/spans.py`` wraps each ``module.attribute`` of its ``LAYERS`` table
at run time and raises on one that is missing, so a rename in ``src/``
would otherwise only break the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from blfsig import meyer

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves(monkeypatch):
    spans = load_spans()
    for _, targets in spans.LAYERS:
        for target in targets:
            path, attr = target.rsplit(".", 1)
            owner = importlib.import_module(f"blfsig.{path.split('.')[0]}")
            for part in path.split(".")[1:]:
                owner = getattr(owner, part)
            assert callable(getattr(owner, attr, None)), target
            # restored when the test ends, after install() below rebinds it
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
    assert callable(meyer._tau_cached.cache_info)
    spans.Recorder().install()
