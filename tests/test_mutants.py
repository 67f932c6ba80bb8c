"""Each ``verify`` suite fails under a fault put into what it checks.

A mutant is a monkeypatch of one function of the package.  Each case runs
every suite of ``verify.run_all`` at 30 samples per genus, g <= 3, seed 7,
and pins the suites that fail: those that reach the mutated code, and no
others.  The suites build their specs afresh, so no fold kept on a spec
from before the patch is read.
"""

from __future__ import annotations

import pytest

from blfsig import locsig, meyer, verify, words
from blfsig.words import ChainTwist, Word


def flip_letter_correction(monkeypatch):
    # sign(e) - e per chain-twist letter, subtracted where it is added
    stretch = meyer._stretch_state

    def flipped(letters, g):
        c, P = stretch(letters, g)
        letter = sum((1 if e > 0 else -1) - e
                     for gen, e in letters if isinstance(gen, ChainTwist))
        return c - 2 * letter, P

    monkeypatch.setattr(meyer, "_stretch_state", flipped)


def drop_pushforward_term(monkeypatch):
    # s(w) of a type I context without the correction of its pushforward
    s_value = locsig._s_value
    monkeypatch.setattr(locsig, "_s_value", lambda w, ctx, c, c_push: s_value(w, ctx, c, 0))


def negate_cocycle(monkeypatch):
    tau = meyer._tau_cached
    monkeypatch.setattr(meyer, "_tau_cached", lambda A, B: -tau(A, B))


def negate_window_sums(monkeypatch):
    window = meyer._window_state

    def negated(factors):
        c, P = window(factors)
        return -c, P

    monkeypatch.setattr(meyer, "_window_state", negated)


def shift_h_value(monkeypatch):
    h_generator = locsig.h_generator
    monkeypatch.setattr(locsig, "h_generator", lambda gen, ctx: h_generator(gen, ctx) + 1)


def drop_nested_exponent(monkeypatch):
    # the text of a power of a nested word, ( u )^e, loses its exponent
    format_word = words.format_word

    def dropped(w):
        return " ".join(f"( {dropped(item)} )" if isinstance(item, Word)
                        else format_word(Word(w.genus, ((item, exp),)))
                        for item, exp in w.items)

    monkeypatch.setattr(words, "format_word", dropped)


@pytest.mark.parametrize("mutate, failing", [
    (None, set()),
    (flip_letter_correction, {"relations", "antisymmetry", "decomposition", "two-paths"}),
    # on a single generator the pushforward's correction is 0, so only the
    # random type I words of the decomposition suite see this mutant
    (drop_pushforward_term, {"decomposition", "two-paths"}),
    # the cocycle identity is linear in tau, so it survives a sign flip
    (negate_cocycle, {"calibration", "relations", "antisymmetry", "decomposition", "two-paths"}),
    (negate_window_sums, {"calibration", "antisymmetry", "decomposition", "two-paths"}),
    (shift_h_value, {"decomposition", "two-paths"}),
    # the round trip imports format_word when it runs, and no other suite
    # prints a word
    (drop_nested_exponent, {"roundtrip"}),
], ids=["none", "flipped_letter_correction", "dropped_pushforward_term", "negated_cocycle",
        "negated_window_sums", "shifted_h_value", "dropped_nested_exponent"])
def test_the_suites_that_reach_a_mutant_fail(monkeypatch, mutate, failing):
    if mutate is not None:
        mutate(monkeypatch)
    results = verify.run_all(samples=30, max_genus=3, seed=7)
    assert {name for (name, _), r in zip(verify.ALL_CHECKS, results) if not r.passed} == failing
