import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blfsig import cli, fibration, locsig, meyer, surface, verify
from blfsig.surface import TypeII
from blfsig.verify import random_word
from blfsig.words import format_word


def run(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_phi_value(capsys):
    code, out, _ = run(capsys, "phi", "-g", "2", "t5")
    assert code == 0 and out.strip() == "3/5"


def test_phi_json(capsys):
    code, out, _ = run(capsys, "phi", "-g", "2", "t5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["phi"] == "3/5"


def test_tau_command(capsys):
    code, out, _ = run(capsys, "tau", "-g", "2", "t5", "t5")
    assert code == 0 and out.strip() == "1"


def test_tau_command_skips_the_symplectic_check(capsys, monkeypatch, rng):
    # word matrices are symplectic by construction: tau of two words needs
    # no check, and gives what the checked public tau gives
    pairs = [(g, random_word(rng, g, rng.randrange(0, 7)),
              random_word(rng, g, rng.randrange(0, 7)))
             for g in range(1, 5) for _ in range(6)]
    want = [meyer.tau(surface.word_matrix(u), surface.word_matrix(v)) for _, u, v in pairs]

    def no_check(*args):
        raise AssertionError("is_symplectic called")

    monkeypatch.setattr(surface, "is_symplectic", no_check)
    for (g, u, v), value in zip(pairs, want):
        code, out, _ = run(capsys, "tau", "-g", str(g), format_word(u), format_word(v))
        assert (code, out.strip()) == (0, str(value)), (g, u, v)


def test_h_command(capsys):
    code, out, _ = run(capsys, "h", "-g", "2", "--cycle", "I", "t5^-4")
    assert code == 0 and out.strip() == "8/5"


def test_sigma_loc_command(capsys):
    code, out, _ = run(capsys, "sigma-loc", "-g", "1", "--cycle", "I")
    assert code == 0 and out.strip() == "-2/3"
    code, out, _ = run(capsys, "sigma-loc", "-g", "3", "--cycle", "II:1")
    assert code == 0 and out.strip() == "1/7"


def test_abelianization_command(capsys):
    code, out, _ = run(capsys, "abelianization", "-g", "2", "--cycle", "II:1")
    assert code == 0 and "Z/12" in out


def test_family_compute(capsys):
    code, out, _ = run(capsys, "family", "mgn", "-g", "1", "-n", "1",
                       "--compute", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["signature"] == -4
    assert doc["euler_characteristic"] == 10
    assert doc["two_paths_agree"] is True
    assert doc["homeomorphism"]["display"] == "#2CP² # 6CP̄²"


def test_family_emit_and_compute_file(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "mgn-tilde", "-g", "2", "-n", "1",
                       "--emit-spec")
    assert code == 0
    path = tmp_path / "spec.json"
    path.write_text(out)
    code, out, _ = run(capsys, "compute", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["signature"] == -16
    assert doc["homeomorphism"]["display"] == "E(2) # (S²×S²)"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "phi", "-g", "2", "t9")
    assert code == 2 and "out of range" in err


def test_deep_nesting_exits_two(capsys):
    text = "(" * 3000 + "t1" + ")" * 3000
    code, _, err = run(capsys, "phi", "-g", "1", text)
    assert code == 2 and "nest deeper" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_context_error_exit_code(capsys):
    code, _, err = run(capsys, "h", "-g", "2", "--cycle", "I", "t4")
    assert code == 1 and "not a generator" in err


UNREALIZABLE = {  # a II_1 fold whose h term is -4/5: not an integer signature
    "spec_version": 1, "higher_fiber": [{"genus": 2}], "lefschetz": [],
    "rounds": [{"component": 0, "cycle": {"type": "II", "h": 1}, "monodromy": "( t1 t2 )^6"}],
    "flags": {"spin": False, "simply_connected": False},
}


@pytest.mark.parametrize("argv, code, err", [
    (["h", "-g", "2", "--cycle", "I", "t4"], 1,
     "error: t4 is not a generator of the stabiliser for (g=2, I)"),
    (["h", "-g", "3", "--cycle", "II:1", "iota"], 1,
     "error: iota is not a generator of the stabiliser for (g=3, II_1)"),
    (["h", "-g", "3", "--cycle", "II:1", "t3"], 1,
     "error: t3 is not a generator of the stabiliser for (g=3, II_1)"),
    (["h", "-g", "2", "--cycle", "II:3", "t1"], 1, "error: II_3 invalid at genus 2"),
    (["h", "-g", "0", "--cycle", "I", "t1"], 2,
     "error: mapping class operations need genus >= 1, got 0"),
    (["h", "-g", "2", "--cycle", "II:x", "t1"], 2,
     "error: bad separating genus in cycle 'II:x'"),
    (["h", "-g", "2", "--cycle", "I", "t5^-4"], 0, ""),
    (["sigma-loc", "-g", "2", "--cycle", "II:2"], 1,
     "error: a Lefschetz vanishing cycle of type II needs 1 <= h <= g-1, got h=2"),
    (["sigma-loc", "-g", "0", "--cycle", "I"], 2,
     "error: mapping class operations need genus >= 1, got 0"),
    (["sigma-loc", "-g", "2", "--cycle", "III"], 2,
     "error: cycle must be 'I' or 'II:h', got 'III'"),
    (["sigma-loc", "-g", "3", "--cycle", "II:1"], 0, ""),
    (["abelianization", "-g", "1", "--cycle", "II:1"], 1,
     "error: type II_h abelianization needs g >= 2, 1 <= h <= g-1"),
    (["abelianization", "-g", "0", "--cycle", "I"], 2,
     "error: mapping class operations need genus >= 1, got 0"),
    (["abelianization", "-g", "2", "--cycle", "II:1"], 0, ""),
    (["compute", UNREALIZABLE], 1,
     "error: total signature came out -4/5, not an integer: the input data is not "
     "realizable by a fibration"),
    (["family", "mgn", "-g", "1", "-n", "1"], 0, ""),
    (["family", "mgn", "-g", "1", "-n", "0"], 2, "error: need n >= 1, got 0"),
])
def test_error_line_and_exit_code(capsys, tmp_path, argv, code, err):
    # each command leaves its errors to run(), which prints one line
    if argv[0] == "compute":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(argv[1]))
        argv = ["compute", str(path)]
    got, _, stderr = run(capsys, *argv)
    assert (got, stderr) == (code, err + "\n" if err else "")


@pytest.mark.parametrize("genus", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["phi", "t1"], ["tau", "t1", "t1"], ["h", "--cycle", "I", "t1"],
    ["sigma-loc", "--cycle", "I"], ["family", "mgn", "-n", "1"],
    ["abelianization", "--cycle", "I"],
])
def test_a_genus_below_one_is_a_usage_error(capsys, argv, genus):
    # every subcommand that takes -g refuses it the same way, before its own checks
    code, out, err = run(capsys, argv[0], "-g", genus, *argv[1:])
    assert (code, out, err) == (2, "", f"error: mapping class operations need genus >= 1, "
                                       f"got {genus}\n")


def test_invalid_sigma_exit_code(capsys):
    code, _, err = run(capsys, "sigma-loc", "-g", "2", "--cycle", "II:2")
    assert code == 1


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "family", "mgn")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/path.json")
    assert code == 2


def test_invalid_spec_exits_one(capsys, tmp_path):
    doc = {
        "spec_version": 1,
        "higher_fiber": [{"genus": 2}],
        "lefschetz": [],
        "rounds": [{"component": 0, "cycle": {"type": "I"}, "monodromy": "t4"}],
        "flags": {"spin": False, "simply_connected": False},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1 and "t4" in err


def test_malformed_spec_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for doc, where in (({"spec_version": 1}, "higher_fiber"),
                       ([1], "spec")):
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compute", str(path))
        assert code == 2, err
        assert where in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("version", ["true", "1.0", "\"1\""])
def test_spec_version_must_be_the_integer_one(capsys, tmp_path, version):
    # true and 1.0 compare equal to 1 in Python, and are refused all the same
    text = json.dumps(fibration.spec_to_json(fibration.family_spec("mgn", 1, 1)))
    path = tmp_path / "spec.json"
    path.write_text(text.replace('"spec_version": 1', f'"spec_version": {version}'))
    code, out, err = run(capsys, "compute", str(path))
    assert (code, out) == (2, "")
    assert err == f"error reading {path}: unsupported spec_version {json.loads(version)!r}\n"


def test_malformed_entry_names_its_path(capsys, tmp_path):
    # an entry's keys are checked before its members are read
    path = tmp_path / "bad.json"
    for entry, message in (({"kind": "I"}, "lefschetz[3].kind: unknown key"),
                           ({}, "lefschetz[3].type: required key is missing")):
        doc = {"spec_version": 1, "higher_fiber": [{"genus": 1}],
               "lefschetz": [{"type": "I"}] * 3 + [entry]}
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compute", str(path))
        assert code == 2 and err == f"error reading {path}: {message}\n"


@pytest.mark.parametrize("entry, message", [
    ({"type": "II", "h": True}, "lefschetz[50].h: expected an integer, got a boolean"),
    ({"type": "II", "h": 1.0}, "lefschetz[50].h: expected an integer, got a number"),
    ({"type": "II", "h": 1, "conjugator": ["t1"]},
     "lefschetz[50].conjugator: expected a string, got an array"),
])
def test_an_entry_is_read_off_a_checked_one_only_when_its_value_types_agree(
        capsys, tmp_path, entry, message):
    # True == 1 == 1.0 in Python: fifty checked {"type": "II", "h": 1}
    # entries must not pass a later entry that only compares equal to them
    doc = {"spec_version": 1, "higher_fiber": [{"genus": 2}],
           "lefschetz": [{"type": "II", "h": 1} for _ in range(50)] + [entry]}
    with pytest.raises(ValueError) as err:
        fibration.spec_from_json(doc)
    assert str(err.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "compute", str(path)) == (2, "", f"error reading {path}: {message}\n")


def test_entries_that_read_alike_share_one_datum():
    doc = {"spec_version": 1, "higher_fiber": [{"genus": 2}],
           "lefschetz": [{"type": "I", "conjugator": "t1"}, {"type": "I"},
                         {"conjugator": "t1", "type": "I"}, {"type": "I", "conjugator": ""},
                         {"type": "I", "conjugator": "t1"}]}
    data = fibration.spec_from_json(doc).lefschetz
    assert [id(d) for d in data] == [id(data[k]) for k in (0, 1, 0, 1, 0)]
    assert data[0] != data[1]


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"a": ' * 3_000 + "1" + "}" * 3_000])
def test_a_document_nested_too_deeply_is_one_line(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert run(capsys, "compute", str(path)) == (
        2, "", f"error reading {path}: JSON nested too deeply\n")


UNKNOWN_KEYS = [
    # (the object's place in an mgn(1, 1) document, the key added, its path)
    ((), "round", "round"),
    (("higher_fiber", 0), "genera", "higher_fiber[0].genera"),
    (("lefschetz", 0), "conjugater", "lefschetz[0].conjugater"),
    # h belongs to a type II cycle only
    (("lefschetz", 1), "h", "lefschetz[1].h"),
    (("rounds", 0), "componnet", "rounds[0].componnet"),
    (("rounds", 0, "cycle"), "h", "rounds[0].cycle.h"),
    (("rounds", 0, "cycle"), "conjugator", "rounds[0].cycle.conjugator"),
    (("flags",), "simply_conected", "flags.simply_conected"),
]


@pytest.mark.parametrize("place, key, where", UNKNOWN_KEYS, ids=[w for *_, w in UNKNOWN_KEYS])
def test_a_key_the_format_does_not_define_is_refused(capsys, tmp_path, place, key, where):
    doc = fibration.spec_to_json(fibration.family_spec("mgn", 1, 1))
    target = doc
    for step in place:
        target = target[step]
    target[key] = 1
    with pytest.raises(ValueError, match=rf"^{re.escape(where)}: unknown key$"):
        fibration.spec_from_json(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "compute", str(path)) == (
        2, "", f"error reading {path}: {where}: unknown key\n")


def spec_doc(higher, rounds, lefschetz=()):
    return {"spec_version": 1, "higher_fiber": [{"genus": g} for g in higher],
            "lefschetz": list(lefschetz),
            "rounds": [{"component": c, "cycle": cycle, "monodromy": mono}
                       for c, cycle, mono in rounds]}


@pytest.mark.parametrize("doc,where,message", [
    # II_5 on a genus-2 component, then a fold on the new component 1
    (spec_doc([2], [(0, {"type": "II", "h": 5}, ""), (1, {"type": "I"}, "")]),
     "rounds[0].cycle", "II_5 fold on a genus-2 component"),
    # the first fold leaves genus 0, where no second type I fold applies
    (spec_doc([1], [(0, {"type": "I"}, ""), (0, {"type": "I"}, "")]),
     "rounds[1].cycle", "type I fold on a genus-0 component"),
    (spec_doc([2], [(0, {"type": "II", "h": -1}, "")]),
     "rounds[0].cycle", "II_-1 fold on a genus-2 component"),
    # nor does a II_0 fold at genus 0
    (spec_doc([1], [(0, {"type": "I"}, ""), (0, {"type": "II", "h": 0}, "")]),
     "rounds[1].cycle", "II_0 fold on a genus-0 component"),
])
def test_a_fold_the_genus_does_not_admit_names_its_round(capsys, tmp_path, doc, where, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(where)}: {re.escape(message)}$"):
        fibration.spec_from_json(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compute", str(path))
    assert code == 2 and f"{where}: {message}" in err
    assert len(err.strip().splitlines()) == 1


def test_data_that_validation_rejects_exit_one(capsys, tmp_path, monkeypatch):
    # the Hurwitz fold only sees data that passed, so a datum no fibration
    # of this genus has keeps its validation failure (exit 1)
    doc = fibration.spec_to_json(fibration.family_spec("mgn", 2, 1))
    doc["lefschetz"].append({"type": "II", "h": 7})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1 and err == "validation: lefschetz[16]: II_7 is not essential at genus 2\n"
    # a spec file cannot hold a datum of another genus, so hand one to compute
    spec = fibration.family_spec("mgn", 2, 1)
    bad = fibration.FibrationSpec(
        spec.higher_fiber, spec.lefschetz + (fibration.chain_twist_datum(1, 1),),
        spec.rounds, spec.spin, spec.simply_connected)
    monkeypatch.setattr(fibration, "load_spec", lambda path: bad)
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1 and err == "validation: lefschetz[16]: word genus 1 != fiber genus 2\n"


SOUTH_DISK = ("validation: south disk: component 0: residual monodromy is not homologically "
              "trivial, the south-side bundle cannot be trivial")


@pytest.mark.parametrize("g", range(1, 5))
def test_a_half_chain_is_refused_at_the_south_disk(capsys, tmp_path, g):
    # (t_1 ... t_{2g})^{2g+1} multiplies to iota, which is -1 on homology, so
    # the bundle over the south disk would not be trivial: no fibration
    data = [fibration.chain_twist_datum(i, g) for i in range(1, 2 * g + 1)] * (2 * g + 1)
    path = tmp_path / "half-chain.json"
    path.write_text(json.dumps(fibration.spec_to_json(fibration.FibrationSpec((g,), tuple(data)))))
    assert run(capsys, "compute", str(path)) == (1, "", SOUTH_DISK + "\n")


def fold_mismatch(k):
    return (f"validation: rounds[{k}]: monodromy does not match the incoming boundary "
            "monodromy on homology")


def mgn_with_iota_on_its_fold(g):
    doc = fibration.spec_to_json(fibration.family_spec("mgn", g, 1))
    doc["rounds"][0]["monodromy"] += " iota"
    return doc


def compute_doc(capsys, tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compute", str(path))
    assert (code, out) == (1, "")
    return err.splitlines()


@pytest.mark.parametrize("g", range(1, 4))
def test_a_fold_monodromy_times_iota_is_refused(capsys, tmp_path, g):
    # the fold monodromy of mgn(g, 1) times iota no longer matches the
    # Hurwitz product; the fold's side is then unknown, so the south disk,
    # which would see iota pushed forward, reports nothing more
    assert compute_doc(capsys, tmp_path, mgn_with_iota_on_its_fold(g)) == [fold_mismatch(0)]


def test_a_faulty_fold_ends_the_checks_on_its_component(capsys, tmp_path):
    # the second fold's monodromy is the identity, which does not match the
    # iota that the faulty first fold would push forward: no second issue
    doc = mgn_with_iota_on_its_fold(2)
    doc["rounds"].append({"component": 0, "cycle": {"type": "I"}, "monodromy": "t1 t1^-1"})
    assert compute_doc(capsys, tmp_path, doc) == [fold_mismatch(0)]


def test_a_faulty_separating_fold_leaves_both_sides_unchecked(capsys, tmp_path):
    # t1 is not the trivial incoming monodromy, and it would reach the south
    # disk on side 0 of the II_1 fold
    doc = fibration.spec_to_json(fibration.FibrationSpec(
        (2,), (), (fibration.RoundRegion(0, TypeII(1), fibration.parse_word("t1", 2)),)))
    assert compute_doc(capsys, tmp_path, doc) == [fold_mismatch(0)]


def test_an_exponent_too_long_to_convert_exits_two(capsys):
    for text in ("t1^" + "9" * 5000, "t" + "1" * 5000):
        code, out, err = run(capsys, "phi", "-g", "2", text)
        assert (code, out) == (2, "") and len(err.splitlines()) == 1
        assert "over the limit of 4,300 digits" in err and "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_early_ends_the_command_quietly(unbuffered):
    # about 480 kB of JSON, far more than a pipe holds, so the writer is still
    # writing when the reader goes
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "blfsig.cli", "family", "mgn", "--emit-spec",
         "-g", "40", "-n", "4"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == cli.EXIT_INVALID
    assert "Traceback" not in err and "Exception ignored" not in err
    assert len(err.splitlines()) <= 1


def test_compute_validates_once(capsys, monkeypatch):
    calls = []
    validate = fibration.validate

    def counting(spec):
        calls.append(spec)
        return validate(spec)

    monkeypatch.setattr(fibration, "validate", counting)
    code, _, _ = run(capsys, "family", "mgn", "-g", "2", "-n", "1")
    assert code == 0 and len(calls) == 1


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "4", "--max-genus", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {"cocycle identity",
                                                  "cobounding calibration"}


def test_verify_beyond_genus_one_reaches_the_separating_contexts(monkeypatch):
    # the command's default --max-genus is 2; at 3 the decomposition suite
    # also checks the separating contexts II_1 and II_2 of genus 3
    contexts = set()
    check = locsig.decomposition_check

    def recording(w, ctx):
        contexts.add(ctx)
        return check(w, ctx)

    monkeypatch.setattr(locsig, "decomposition_check", recording)
    results = verify.run_all(samples=3, max_genus=3, seed=7)
    assert len(results) == len(verify.ALL_CHECKS)
    assert all(r.passed for r in results), [str(r) for r in results if not r.passed]
    assert {locsig.CycleContext(3, TypeII(1)), locsig.CycleContext(3, TypeII(2))} <= contexts


class EveryVariableSet(dict):
    """An environment in which every variable is set, to "99"."""

    def __getitem__(self, key):
        return "99"

    def get(self, key, default=None):
        return "99"

    def __contains__(self, key):
        return True


def test_verify_takes_its_seed_from_the_option_alone(capsys, monkeypatch):
    # no environment variable sets the seed: without --seed the command runs
    # the default seed, which its --help states
    monkeypatch.setattr(os, "environ", EveryVariableSet())
    argv = ("verify", "--samples", "2", "--max-genus", "2", "--format", "json")
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, "--seed", "20240913")
    assert default[0] == 0 and json.loads(default[1])["seed"] == verify.DEFAULT_SEED == 20240913
    assert run(capsys, *argv, "--seed", "99")[1] != default[1]
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0 and "default: 20240913" in " ".join(out.split())


def test_verify_rejects_nonpositive_samples(capsys):
    code, out, err = run(capsys, "verify", "--samples", "-1")
    assert code == 2 and "--samples" in err and out == ""
    assert len(err.strip().splitlines()) == 1


def test_verify_rejects_nonpositive_max_genus(capsys):
    code, out, err = run(capsys, "verify", "--max-genus", "0")
    assert code == 2 and "--max-genus" in err and out == ""
    assert len(err.strip().splitlines()) == 1


# Word text from grammar tokens, malformed ones included.  Exponents stay
# at |e| <= 64: the entries of a power of a hyperbolic word grow linearly
# in digits with the exponent, so no time bound holds for every exponent.
TOKENS = ("t0", "t1", "t2", "t3", "t5", "t7", "iota", "(", ")", "^", "^0",
          "^1", "^-1", "^2", "^-3", "^64", "^-64", "x")
word_texts = st.lists(st.tuples(st.sampled_from(("", " ")), st.sampled_from(TOKENS)),
                      max_size=10).map(lambda parts: "".join(s + t for s, t in parts))


@given(st.sampled_from(("phi", "tau", "h")), st.integers(-1, 3), word_texts, word_texts)
@settings(max_examples=400, deadline=None)
def test_word_text_fuzz_ends_in_an_exit_code(command, genus, text, other):
    argv = [command, f"--genus={genus}"]
    argv += {"phi": [text], "tau": [text, other], "h": ["--cycle", "I", text]}[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert len(err.strip().splitlines()) == 1, err


# Spec documents from the spec grammar, then up to two mutations: a value
# replaced by one of the wrong JSON type or range, or a key deleted.
# Built-in family documents (g <= 2) are among the bases, so valid
# fibrations and near misses of them are drawn too.  Genera stay in -1..3:
# there is no genus cap, so a large genus would only measure the machine.
junk = st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.just(1.5), st.just("1"),
                 st.sampled_from(("", "I", "II", "t1", "t1\nt2", "(t1")),
                 st.just([]), st.just({}), st.just([{"genus": 1}]))
cycles = st.sampled_from([{"type": "I"}] * 6 + [{"type": "II", "h": h} for h in range(-1, 5)] +
                         [{"type": "III"}, {"type": "i"}, {"type": "II"}])
letters = st.builds("{}^{}".format, st.sampled_from(("t1", "t2", "t3", "t4", "t5", "iota")),
                    st.integers(-64, 64))
good_words = st.lists(letters, max_size=4).map(" ".join) | \
    st.lists(letters, min_size=1, max_size=3).map(lambda ls: f"({' '.join(ls)})^2")
words = good_words | good_words | word_texts


def _lefschetz(cycle, conjugator):
    return cycle if conjugator is None else {**cycle, "conjugator": conjugator}


grammar_docs = st.fixed_dictionaries({
    "spec_version": st.just(1),
    "higher_fiber": st.lists(st.fixed_dictionaries({"genus": st.sampled_from((1, 2, 3, 0, -1))}),
                             min_size=1, max_size=3),
    "lefschetz": st.lists(st.builds(_lefschetz, cycles, st.none() | words), max_size=6),
    "rounds": st.lists(st.fixed_dictionaries({
        "component": st.integers(-1, 2), "cycle": cycles, "monodromy": words}),
        max_size=3),
    "flags": st.fixed_dictionaries({"spin": st.booleans(),
                                    "simply_connected": st.booleans()}),
})
family_docs = st.builds(
    lambda family_genus, n: fibration.spec_to_json(fibration.family_spec(*family_genus, n)),
    st.sampled_from((("mgn", 1), ("mgn", 2), ("mgn-tilde", 2))), st.integers(1, 2))


def _places(doc):
    """Every (container, key) below doc, in document order."""
    for k in (doc.keys() if isinstance(doc, dict) else range(len(doc))):
        yield doc, k
        if isinstance(doc[k], (dict, list)):
            yield from _places(doc[k])


@st.composite
def spec_documents(draw):
    # mutate a copy: drawn documents share the dicts and lists of the
    # sampled_from and just strategies above, and mutating those in place
    # would change what later examples draw (Hypothesis then reports a
    # flaky strategy)
    doc = copy.deepcopy(draw(st.one_of(grammar_docs, family_docs)))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        places = list(_places(doc))
        if not places:
            break
        container, key = draw(st.sampled_from(places))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(junk))
    top_level_junk = draw(st.sampled_from((False,) * 9 + (True,)))
    return draw(junk) if top_level_junk else doc


@given(spec_documents())
@settings(max_examples=300, deadline=None)
def test_spec_json_fuzz_ends_in_an_exit_code(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["compute", str(path)])
    lines = err.getvalue().strip().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not lines and out.getvalue()
    elif code == 2:
        assert len(lines) == 1, lines
    else:
        assert (len(lines) == 1 and lines[0].startswith("error:")) or \
            (lines and all(line.startswith("validation: ") for line in lines)), lines
