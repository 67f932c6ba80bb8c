"""The draws of ``verify``'s random inputs, pinned at fixed seeds.

The suites' printed counts stay the same whichever words are drawn, so
these values are what shows a change to a draw: the rng calls, their
order, and the sequences they choose from.  Words are pinned by their
text, specs by the text of their round monodromies and a digest of their
whole JSON document.
"""

import hashlib
import json
import random

import pytest

from blfsig import fibration, verify
from blfsig.locsig import CycleContext
from blfsig.surface import TypeI, TypeII
from blfsig.words import format_word

# (draw, g, h, text): h None is type I, else II_h; one rng per seed, drawn in order
WORDS = {
    1: [
        ("random_word", 1, None, "t1^-1 iota t2^3 t1^-3 t2"),
        ("random_word", 2, None, "t1^3 t2^2 t3^-3 iota t1"),
        ("random_word", 3, None, "t4^3 iota t4 t3^-2 t7"),
        ("random_context_word", 1, None, "t1^2 t1^-1 t3^-2 t3^-1 t3^2 t1^2"),
        ("_trivial_context_word", 1, None, "t3^2 t3 t3^-1 t3^-2 iota^2"),
        ("random_context_word", 2, None, "t1^-1 t5 t1^2 iota t5^-1 t2^-2"),
        ("_trivial_context_word", 2, None, "t2^2 t3^2 t3^-2 t2^-2"),
        ("random_context_word", 3, None, "t5^-2 t7^-1 t5^-1 t1^2 t5^-1 t4^2"),
        ("_trivial_context_word", 3, None, "t1 t1^-1 t5^-1 t5 t1 t1^-1"),
        ("random_context_word", 2, 0, "t5 t1^-2 t1^-2 t4^-2 t3^-1 t3^-2"),
        ("_trivial_context_word", 2, 0, "t3 t1^-1 t1 t3^-1"),
        ("random_context_word", 2, 1, "t2 t2 t4^2 t4^2 t5^-2 t1"),
        ("_trivial_context_word", 2, 1, "t4^2 t2 t1 t2^2 t2^-2 t1^-1 t2^-1 t4^-2"),
        ("random_context_word", 3, 1, "t1^-1 t1^2 t2^-2 t7^-1 t5^2 t6^-1"),
        ("_trivial_context_word", 3, 1, "t2^-2 t5 t7^2 t1 t1^-1 t7^-2 t5^-1 t2^2"),
        ("random_context_word", 3, 2, "t2^-1 t1 t1^-2 t3 t7^-1 t4"),
        ("_trivial_context_word", 3, 2, "t1^-2 t6^-1 t6 t1^2"),
        ("random_context_word", 3, 3, "t5^2 t2^-2 t4^-1 t3^-2 t2^2 t5^-1"),
        ("_trivial_context_word", 3, 3, "t1^2 t3^2 t1 t5^2 t5^-2 t1^-1 t3^-2 t1^-2"),
    ],
    7: [
        ("random_word", 1, None, "t1 t1^2 iota t3^-2 iota"),
        ("random_word", 2, None, "t1^-2 iota t5^-3 t5^-3 t4^-3"),
        ("random_word", 3, None, "t1^2 t3 t1^2 t7^3 t5^2"),
        ("random_context_word", 1, None, "t3^-2 t1^-2 t3^2 t3^2 t1^-1 t1^-2"),
        ("_trivial_context_word", 1, None, "t3^2 t1^-2 t1 t1^-1 t1^2 t3^-2 iota^2"),
        ("random_context_word", 2, None, "t1^-2 t3 t5^2 iota iota t1^-2"),
        ("_trivial_context_word", 2, None, "t5 t3^-2 t3^-1 t3 t3^2 t5^-1"),
        ("random_context_word", 3, None, "t2 t2^2 t4^-2 t4 t4 t3^2"),
        ("_trivial_context_word", 3, None, "t2^-1 t2^-2 t2^2 t2"),
        ("random_context_word", 2, 0, "t5^-1 t3 t1^-1 t4 t5 t2^-2"),
        ("_trivial_context_word", 2, 0, "t5^2 t4^2 t4^-2 t4^2 t4^-2 t4^2 t4^-2 t5^-2"),
        ("random_context_word", 2, 1, "t1^-1 t1^-1 t5^-1 t1 t1^-2 t1^-1"),
        ("_trivial_context_word", 2, 1, "t4^-2 t4^2"),
        ("random_context_word", 3, 1, "t1^-1 t6^2 t2 t4 t5^-2 t1^2"),
        ("_trivial_context_word", 3, 1, "t5^2 t4^-2 t2^-2 t7 t7^-1 t2^2 t4^2 t5^-2"),
        ("random_context_word", 3, 2, "t7 t4^-1 t6^-2 t2 t2^-2 t6"),
        ("_trivial_context_word", 3, 2, "t7 t7^-1"),
        ("random_context_word", 3, 3, "t5 t2 t7^-1 t5 t6^-1 t5^-1"),
        ("_trivial_context_word", 3, 3, "t7^2 t6^-1 t6 t7^-2"),
    ],
}
# seed: (round monodromies, sha256 of the sorted JSON document, 16 hex digits)
SPECS = {
    1: (["iota t4^2 t7^-4 t4^-2 iota^-1"], "797a266588fba5f3"),
    4: (["t1^-2 iota t3^-2 t5^-4 t3^2 iota^-1 t1^2", "t1^-2 t1 t1^-1 t1 t1^-1 t1^2 iota^2"],
        "2477491fc0e823dd"),
    9: (["t7^-2 t4^-2 t5^-2 t5^2 t4^2 t7^2", "t5^-1 t1^-2 t1^2 t1 t1^-1 t1^-2 t1^2 t5 iota^2"],
        "a1ffc11c0f40ba48"),
    24: (["t2^-1 ( t1 t2 )^6 ( t4 t5 t6 t7 )^-10 t2"], "6cd28aa32acdcbbf"),
    26: (["t1^-1 t5^-2 t2^2 ( t1 t2 )^6 ( t4 t5 )^-6 t2^-2 t5^2 t1"], "a4e82f19c8c2f4e9"),
}

@pytest.mark.parametrize("seed", sorted(WORDS))
def test_the_seeded_words_are_pinned(seed):
    rng = random.Random(seed)
    got = []
    for draw, g, h, _ in WORDS[seed]:
        if draw == "random_word":
            w = verify.random_word(rng, g, 5)
        else:
            ctx = CycleContext(g, TypeI() if h is None else TypeII(h))
            w = (verify.random_context_word(rng, ctx, 6) if draw == "random_context_word"
                 else verify._trivial_context_word(rng, ctx))
        got.append((draw, g, h, format_word(w)))
    assert got == WORDS[seed]


@pytest.mark.parametrize("seed", sorted(SPECS))
def test_the_seeded_specs_are_pinned(seed):
    # seeds 1 and 4: mutated families (4 chains a trivial fold); 9: a fold
    # chain with no Lefschetz part; 24 and 26: conjugated separating folds
    doc = fibration.spec_to_json(verify.random_valid_spec(random.Random(seed), 3))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
    assert ([r["monodromy"] for r in doc["rounds"]], digest) == SPECS[seed]
