"""The result records: named tuples with their fields, defaults and text."""

from fractions import Fraction

import pytest

from blfsig import fibration as fib
from blfsig import locsig, verify
from blfsig.locsig import CycleContext
from blfsig.surface import TypeI
from blfsig.words import parse_word

RECORDS = [
    (fib.ValidationIssue, ("where", "message")),
    (fib.ValidationReport, ("issues", "notes")),
    (fib.SignatureBreakdown, ("sigma_terms", "h_terms", "total")),
    (fib.HomeoReport, ("status", "summands", "display")),
    (fib.InvariantReport, ("spec", "validation", "signature", "euler", "breakdown",
                           "meyer_path_signature", "two_paths_agree", "homeomorphism",
                           "notes")),
    (locsig.DecompositionReport, ("context", "homomorphism", "s_term", "phi_term",
                                  "pushed_phi_term")),
    (verify.CheckResult, ("name", "passed", "detail")),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_a_record_keeps_its_fields_and_is_read_only(record, fields):
    assert record._fields == fields and issubclass(record, tuple)
    r = record(*range(len(fields)))
    assert tuple(getattr(r, name) for name in fields) == tuple(range(len(fields)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        r.other = None  # no instance dict


def test_keyword_construction_and_defaults():
    r = fib.HomeoReport(status="indeterminate")
    assert (r.status, r.summands, r.display) == ("indeterminate", (), "")
    assert fib.InvariantReport(*range(8)).notes == ()
    assert fib.SignatureBreakdown(total=1, h_terms=(), sigma_terms=()).total == 1


def test_records_read_as_before():
    assert str(fib.ValidationIssue("rounds[0]", "bad")) == "rounds[0]: bad"
    assert str(verify.CheckResult("x", True, "d")) == "ok   x: d"
    assert str(verify.CheckResult("x", False, "d")) == "FAIL x: d"

    r = fib.ValidationReport([], [])
    assert r.ok
    r.add("rounds[0]", "bad")
    assert not r.ok and r.issues == [fib.ValidationIssue("rounds[0]", "bad")]
    spec = fib.family_spec("mgn", 1, 1)
    a, b = fib.validate(spec), fib.validate(spec)  # two fresh pairs of lists
    assert a == b and a.issues is not b.issues and a.notes is not b.notes

    d = locsig.decomposition_check(parse_word("t1 t2^-1 t3", 2), CycleContext(2, TypeI()))
    assert (d.homomorphism, d.s_term, d.phi_term, d.pushed_phi_term) == \
        (Fraction(-1, 15), -1, Fraction(3, 5), Fraction(-1, 3))
    assert d.assembled == Fraction(-1, 15) and d.agrees
    assert not locsig.DecompositionReport(d.context, d.homomorphism, 0, d.phi_term,
                                          d.pushed_phi_term).agrees

    report = fib.compute_report(fib.family_spec("mgn", 1, 1)).to_dict()
    assert report == {
        "signature": -4, "euler_characteristic": 10,
        "sigma_terms": [[f"sigma_loc[{j}](I)", "-2/3"] for j in range(8)],
        "h_terms": [["h[0](g=1, I)", "4/3"]],
        "meyer_path_signature": -4, "two_paths_agree": True,
        "validation": {"ok": True, "issues": [], "notes": [
            "membership checks are homological (necessary conditions); geometric "
            "isotopy is the caller's responsibility"]},
        "homeomorphism": {"status": "ok", "summands": [[2, "CP2"], [6, "CP2bar"]],
                          "display": "#2CP² # 6CP̄²"},
        "flags": {"spin": False, "simply_connected": True},
        "notes": ["spin and simply-connected flags are caller-asserted inputs"],
    }
