"""The package runs on the standard library alone, and loads little of it.

numpy stays a test-only dependency (the oracles use it as an independent
matrix product), and ``fibration`` loads only for the commands and names
that need it, so each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blfsig
from blfsig import fibration

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
unwanted = ("dataclasses", "inspect", "typing", "blfsig.verify", "blfsig.fibration")
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


COMMAND = """
import sys
sys.path.insert(0, sys.argv[1])
import blfsig.cli
code = blfsig.cli.run(sys.argv[2:])
print(code, "blfsig.fibration" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads", [
    (["phi", "-g", "2", "t1 t2^3 iota"], False),
    (["tau", "-g", "2", "t1 t2", "t3"], False),
    (["h", "-g", "2", "--cycle", "I", "t1 t3"], False),
    (["sigma-loc", "-g", "2", "--cycle", "II:1"], False),
    (["compute", "SPEC"], True),
    (["family", "mgn", "-g", "1", "-n", "1"], True),
    (["abelianization", "-g", "2", "--cycle", "I"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_only_the_spec_commands_load_fibration(tmp_path, argv, loads):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fibration.spec_to_json(fibration.family_spec("mgn", 1, 1))))
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", COMMAND, str(ROOT / "src"), *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads}"


# blfsig.__all__ spelled out, so that a public name added or dropped shows here
ALL = [
    "ChainTwist", "ConsistencyError", "ContextError", "CycleContext", "FibrationSpec",
    "IOTA", "Iota", "LefschetzDatum", "RoundRegion", "ShapeError", "TypeI", "TypeII",
    "ValidationError", "Word", "WordError", "abelianization", "chain_class",
    "chain_twist_datum", "chain_word", "compute_report", "decomposition_check",
    "euler_characteristic", "family_spec", "fibration", "format_word", "gen_word",
    "h_generator", "h_word", "homeomorphism_report", "load_spec", "locsig",
    "meyer", "parse_word", "phi", "phi_base", "ratlin",
    "s_generator", "s_word", "separating_torsion", "sigma_loc", "signature_meyer_path",
    "signature_of_symmetric", "smith_normal_form", "spec_from_json", "spec_to_json",
    "surface", "tau", "total_signature", "validate", "word_to_matrix", "words",
]

LAZY = ["ConsistencyError", "FibrationSpec", "LefschetzDatum", "RoundRegion",
        "ValidationError", "abelianization", "chain_twist_datum", "compute_report",
        "euler_characteristic", "family_spec", "homeomorphism_report", "load_spec",
        "separating_torsion", "signature_meyer_path", "spec_from_json", "spec_to_json",
        "total_signature", "validate"]


def test_all_is_unchanged():
    assert blfsig.__all__ == ALL


@pytest.mark.parametrize("name", LAZY)
def test_a_lazy_name_is_the_fibration_attribute(name):
    assert getattr(blfsig, name) is getattr(fibration, name)
    assert blfsig.fibration is fibration


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'blfsig' has no attribute 'no_such_name'"):
        blfsig.no_such_name
    assert not hasattr(blfsig, "InvariantReport")


def annotated_objects():
    """Every blfsig module, and each function, class and method defined at
    the top level of one."""
    import importlib
    import inspect
    import pkgutil

    for info in pkgutil.iter_modules(blfsig.__path__):
        module = importlib.import_module(f"blfsig.{info.name}")
        yield module
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for member in vars(obj).values():
                    # the function of a staticmethod, classmethod or property
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        yield member


def test_every_annotation_names_what_it_uses():
    # get_type_hints evaluates each annotation in its module, so a name that
    # a module annotates with but does not import raises NameError
    import typing

    from blfsig import verify, words

    objects = list(annotated_objects())
    for obj in objects:
        typing.get_type_hints(obj)
    assert {verify, words.evaluate, words.Word, words.Word.substitute} <= set(objects)


def test_import_time_tool_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "import_time.py"),
                           "--runs", "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["runs"] == 1 and result["median_s"] == result["min_s"] > 0
    assert "blfsig.cli" in result["modules"]
    assert "blfsig.fibration" not in result["modules"]


@pytest.mark.parametrize("kind, genus", [("word_matrix", "6"), ("validate", "2")])
def test_genus_scaling_tool_smoke(kind, genus):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "genus_scaling.py"),
                           "--cell", kind, genus], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    assert float(line) > 0
