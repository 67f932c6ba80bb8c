"""Seeded inputs for the benchmark workloads, and the checks on their outputs.

Inputs are plain JSON: spec documents in the ``blfsig compute`` file format
and word queries as text.  They are built here, not by ``blfsig.verify`` or
``blfsig.fibration.family_spec``, so that a change to the program never
changes what the benchmark feeds it.  ``test_bench.py`` checks that the
default-seed ``families`` documents equal the built-in families.

The items of a workload are a pure function of ``(workload, seed)``.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("families", "random-specs", "word-queries")


# -- words as lists of (atom, exponent), atom "tK", "iota" or "( ... )" --------

def _t(i: int, e: int = 1):
    return (f"t{i}", e)


def fmt(word) -> str:
    return " ".join(a if e == 1 else f"{a}^{e}" for a, e in word)


def inv(word):
    return [(a, -e) for a, e in reversed(word)]


def group(word, e: int):
    """The power ``( word )^e``, written as one atom as ``chain_word`` does."""
    if len(word) == 1:
        a, e0 = word[0]
        return [(a, e0 * e)]
    return [(f"( {fmt(word)} )", e)]


def _chain_conjugator(i: int, g: int):
    """w with w t_{2g+1} w^-1 = t_i (same word as fibration.chain_twist_conjugator)."""
    out = []
    for j in range(i, 2 * g + 1):
        out += [_t(j + 1), _t(j)]
    return out


def _stabiliser_indices(g: int, h: int | None) -> list[int]:
    """Chain indices in the stabiliser of the type I (h None) or II_h cycle."""
    if h is None:
        return list(range(1, 2 * g)) + [2 * g + 1]
    return list(range(1, 2 * h + 1)) + list(range(2 * h + 2, 2 * g + 2))


def _context_word(rng, g: int, h: int | None, length: int):
    """Mirror of verify.random_context_word."""
    idx = _stabiliser_indices(g, h)
    out = []
    for _ in range(length):
        if h is None and rng.random() < 0.12:
            out.append(("iota", 1))
        else:
            out.append(_t(rng.choice(idx), rng.choice([-2, -1, 1, 2])))
    return out


def _trivial_word(rng, g: int, length: int, square: bool):
    """Mirror of verify._trivial_context_word for a type I cycle: u u^-1 with
    u of the given length, times iota^2 when ``square``."""
    u = _context_word(rng, g, None, length)
    return u + inv(u) + ([("iota", 2)] if square else [])


def _balanced(rng, n: int, outcomes: list) -> list:
    """n seeded draws from equally likely ``outcomes`` whose counts are fixed:
    each outcome appears in proportion, in a shuffled order."""
    out = [outcomes[i * len(outcomes) // n] for i in range(n)]
    rng.shuffle(out)
    return out


# -- spec documents -------------------------------------------------------------

def _spec(g: int, data, rounds, spin: bool, simply_connected: bool) -> dict:
    lefschetz = []
    for conj in data:
        entry = {"type": "I"}
        if conj:
            entry["conjugator"] = fmt(conj)
        lefschetz.append(entry)
    return {
        "spec_version": 1,
        "higher_fiber": [{"genus": g}],
        "lefschetz": lefschetz,
        "rounds": [{"component": 0, "cycle": cycle, "monodromy": fmt(w)}
                   for cycle, w in rounds],
        "flags": {"spin": spin, "simply_connected": simply_connected},
    }


_TYPE_I = {"type": "I"}


def _family_parts(family: str, g: int, n: int):
    """Lefschetz conjugators, fold monodromy and spin flag of a built-in family."""
    indices = list(range(2 * g, 0, -1)) + [1] + list(range(2, 2 * g + 1))
    data = [_chain_conjugator(i, g) for _ in range(2 * n) for i in indices]
    if family == "mgn":
        return data, [_t(2 * g + 1, -4 * n)], g % 2 == 0 and n % 2 == 0
    tail = list(range(1, 2 * g - 1))
    k = 2 * (2 * g - 1) * n
    data += [_chain_conjugator(i, g) for _ in range(k) for i in tail]
    mono = group([_t(2 * g + 1, -2), ("iota", 1)], 2 * n) + group([_t(i) for i in tail], k)
    return data, mono, g % 2 == 0


def _hurwitz_move(data, p: int, g: int) -> None:
    """Elementary move (a, b) -> (a b a^-1, a) at position p; keeps the product."""
    a, b = data[p], data[p + 1]
    data[p] = a + [_t(2 * g + 1)] + inv(a) + b
    data[p + 1] = a


# ROADMAP's end-to-end grid (mgn g <= 5, n in {1,2,4}; mgn-tilde g <= 4),
# trimmed to g <= 3 and small n: every spec then takes at most about half a
# second, one cold pass under 2 s, and a run repeats every item some thirty
# times.  Specs of a second or more were the noisiest to time.
FAMILY_GRID = (("mgn", 1, 1), ("mgn", 1, 2), ("mgn", 1, 4), ("mgn", 2, 1), ("mgn", 2, 2),
               ("mgn", 2, 4), ("mgn", 3, 1),
               ("mgn-tilde", 2, 1), ("mgn-tilde", 2, 2))


def _family_conjugator(rng, g: int):
    """t_a t_{a+1}^-1 for a seeded a with a + 1 < 2g, two adjacent twists of
    the type I stabiliser; t_1 t_3^-1 at genus 1, which has no adjacent pair
    there.  Never cancels.  With free order and signs the tau misses of a
    spec vary by up to 3x from seed to seed."""
    a = rng.randrange(1, 2 * g - 1) if g > 1 else 1
    return [_t(a), _t(a + 1 if g > 1 else 3, -1)]


def families(seed: int) -> list[dict]:
    """The family grid.  Other seeds than the default apply two elementary
    Hurwitz moves to each spec and conjugate every spec of a genus
    by the same two-letter stabiliser word; both keep every closed-form
    answer.  The seed picks in which repetition of the chain each move falls
    (always at the same place within it: positions 0 and 2g, where the
    conjugators are the shortest and the longest) and the conjugator of each
    genus.  So the words have the same lengths for every seed, and the specs
    of one genus share their conjugator, as they share the chain, so that
    how much a spec finds in the tau cache filled by the specs before it
    does not hang on the seed."""
    rng = random.Random(seed)
    conjugators = {g: _family_conjugator(rng, g) for g in sorted({g for _, g, _ in FAMILY_GRID})}
    items = []
    for family, g, n in FAMILY_GRID:
        data, mono, spin = _family_parts(family, g, n)
        if seed != DEFAULT_SEED:
            for offset in (0, 2 * g):      # the chain repeats every 4g entries
                _hurwitz_move(data, 4 * g * rng.randrange(2 * n) + offset, g)
            u = conjugators[g]
            data = [u + d for d in data]
            mono = u + mono + inv(u)
        items.append({"kind": "spec", "family": family, "g": g, "n": n,
                      "doc": _spec(g, data, [(_TYPE_I, mono)], spin, True)})
    return items


# random-specs: the distribution of verify.random_valid_spec(rng, 3), drawn
# stratified.  The generator picks kind 0/1/2 with probability 1/3 each, the
# genus (and h) uniformly within a kind and, for kind 0, 0-2 Hurwitz moves
# and a conjugator of 0-3 letters uniformly.  The 108 items hold every such
# class in exactly its expected proportion, and within each (kind, g, h)
# group the generator's other coin flips and word lengths (CHOICES) come out
# in their expected proportions too; only which choice meets which item,
# and the letters, vary with the seed.  Unstratified, the share of the
# slowest class (kind 0 at g=3, 1/9) and the word lengths of the cheap kinds
# wander from seed to seed, and item_p90_ms and item_p50_ms, which sit at
# the edges of those groups, jump with them.
RANDOM_SPEC_CLASSES = (
    [((0, g, None, moves, ulen), 1) for g in (1, 2, 3) for moves in range(3)
     for ulen in range(4)]
    + [((1, g, None, None, None), 18) for g in (2, 3)]
    + [((2, 2, 1, None, None), 18), ((2, 3, 1, None, None), 9),
       ((2, 3, 2, None, None), 9)])
_LENGTHS = [1, 2, 3, 4]
_SQUARE = [True] * 2 + [False] * 3      # iota^2 with probability 0.4
CHOICES = {
    0: {"extra": [True, False], "len": _LENGTHS, "square": _SQUARE},
    1: {"iota": [True, False], "len1": _LENGTHS, "square1": _SQUARE,
        "second": [True] * 7 + [False] * 3, "len2": _LENGTHS, "square2": _SQUARE},
    2: {"conjugate": [True, False], "len": [1, 2, 3]},
}


def _random_spec(rng, kind: int, g: int, h: int | None, moves: int | None,
                 ulen: int | None, c: dict) -> dict:
    if kind == 0:
        # mutated mgn(g, 1): Hurwitz moves and a stabiliser conjugation
        data, mono, spin = _family_parts("mgn", g, 1)
        for _ in range(moves):
            _hurwitz_move(data, rng.randrange(len(data) - 1), g)
        u = _context_word(rng, g, None, ulen)
        data = [u + d for d in data]
        rounds = [(_TYPE_I, u + mono + inv(u))]
        if g >= 2 and c["extra"]:
            rounds.append((_TYPE_I, _trivial_word(rng, g - 1, c["len"], c["square"])))
        return _spec(g, data, rounds, spin, True)
    if kind == 1:
        # no Lefschetz part: fold chain with identity or involution monodromy
        tail = [("iota", 1)] if c["iota"] else []
        rounds = [(_TYPE_I, _trivial_word(rng, g, c["len1"], c["square1"]) + tail)]
        if c["second"]:
            rounds.append((_TYPE_I, _trivial_word(rng, g - 1, c["len2"], c["square2"]) + tail))
        return _spec(g, [], rounds, False, False)
    # separating fold whose monodromy is a boundary-chain identity
    w = (group([_t(i) for i in range(1, 2 * h + 1)], 4 * h + 2)
         + group([_t(i) for i in range(2 * h + 2, 2 * g + 2)], -(4 * (g - h) + 2)))
    if c["conjugate"]:
        u = _context_word(rng, g, h, c["len"])
        w = u + w + inv(u)
    return _spec(g, [], [({"type": "II", "h": h}, w)], False, False)


def random_specs(seed: int) -> list[dict]:
    """The classes come in the same order for every seed, each (kind, g, h)
    group spread evenly through the run, so the caches warm alike from seed
    to seed."""
    rng = random.Random(seed)
    groups: dict[tuple, list] = {}
    for cls, count in RANDOM_SPEC_CLASSES:
        groups.setdefault(cls[:3], []).extend([cls] * count)
    draws = {key: {name: iter(_balanced(rng, len(members), outcomes))
                   for name, outcomes in CHOICES[key[0]].items()}
             for key, members in groups.items()}
    slots = sorted(((j + 0.5) / len(members), k, cls)
                   for k, members in enumerate(groups.values())
                   for j, cls in enumerate(members))
    items = []
    for _, _, cls in slots:
        c = {name: next(it) for name, it in draws[cls[:3]].items()}
        items.append({"kind": "spec", "class": list(cls),
                      "doc": _random_spec(rng, *cls, c)})
    return items


# -- word queries -----------------------------------------------------------------

QUERY_GENERA = range(1, 7)


def _free_word(rng, g: int, length: int):
    """Like verify.random_word (any chain twist or iota), but with one iota
    and the exponents in fixed proportions."""
    out = [_t(rng.randrange(1, 2 * g + 2), e)
           for e in _balanced(rng, length - 1, [-3, -2, -1, 1, 2, 3])]
    out.insert(rng.randrange(length), ("iota", 1))
    return out


def _separating(rng, g: int):
    """A separating II_h cycle, 1 <= h <= g-1; type I at genus 1, which has none."""
    return {"type": "II", "h": rng.randrange(1, g)} if g >= 2 else {"type": "I"}


def word_queries(seed: int) -> list[dict]:
    """Four rounds over genus 1..6, in the same order for every seed, of:
    phi of a 12-letter word; phi of a symbolic power 10^5..10^6 of a chain
    run of 1-4 twists (finite order or parabolic, so entries stay small);
    tau of two 8-letter words; h, for a type I and a separating cycle, of a
    power of about 10^4 of a two-letter stabiliser word; the decomposition
    check on an 8-letter stabiliser word, for a type I cycle in two rounds
    and a separating one in the other two.  h walks the letters, so it
    costs O(exponent); the exponents stay within 5% of 10^4 so that these
    48 items form the tight middle of the latency distribution, where
    item_p50_ms falls."""
    rng = random.Random(seed)
    run_lengths = {g: _balanced(rng, 4, [1, 2, 3, 4]) for g in QUERY_GENERA}
    separating = {g: _balanced(rng, 4, [True, False]) for g in QUERY_GENERA}
    items = []
    for r in range(4):
        for g in QUERY_GENERA:
            items.append({"kind": "phi", "g": g, "word": fmt(_free_word(rng, g, 12))})
            length = min(run_lengths[g][r], 2 * g + 1)
            a = rng.randrange(1, 2 * g + 3 - length)
            n = rng.randrange(10 ** 5, 10 ** 6) * rng.choice([-1, 1])
            items.append({"kind": "phi", "g": g,
                          "word": fmt(group([_t(i) for i in range(a, a + length)], n))})
            items.append({"kind": "tau", "g": g, "word": fmt(_free_word(rng, g, 8)),
                          "word_b": fmt(_free_word(rng, g, 8))})
            for ctx in ({"type": "I"}, _separating(rng, g)):
                idx = _stabiliser_indices(g, ctx.get("h"))
                base = [_t(rng.choice(idx), rng.choice([-1, 1])) for _ in range(2)]
                n = rng.randrange(9_500, 10_500)
                items.append({"kind": "h", "g": g, "cycle": ctx,
                              "word": fmt(group(base, n))})
            ctx = _separating(rng, g) if separating[g][r] else {"type": "I"}
            items.append({"kind": "decomposition", "g": g, "cycle": ctx,
                          "word": fmt(_context_word(rng, g, ctx.get("h"), 8))})
    return items


MAKERS = {"families": families, "random-specs": random_specs, "word-queries": word_queries}


def make_items(workload: str, seed: int) -> list[dict]:
    return MAKERS[workload](seed)


# -- output checks ------------------------------------------------------------------

def _display(sig: int, chi: int, spin: bool) -> str:
    """Homeomorphism type of a closed simply connected 4-manifold, written as
    blfsig writes it, derived here from Freedman's classification."""
    b2 = chi - 2
    if spin:
        a = -sig // 16
        blocks = [(a, "E(2)"), ((b2 - 22 * a) // 2, "S²×S²")]
    else:
        blocks = [((b2 + sig) // 2, "CP²"), ((b2 - sig) // 2, "CP̄²")]
    blocks = [(k, name) for k, name in blocks if k]
    if not blocks:
        return "S⁴"
    multi = sum(k for k, _ in blocks) > 1
    parts = []
    for k, name in blocks:
        if name == "S²×S²" and multi:
            name = f"({name})"
        parts.append(f"{k}{name}" if k > 1 else name)
    return ("#" if blocks[0][0] > 1 else "") + " # ".join(parts)


def _family_expected(family: str, g: int, n: int) -> tuple[int, int, bool]:
    if family == "mgn":
        return -4 * g * n, 8 * g * n - 4 * g + 6, g % 2 == 0 and n % 2 == 0
    return (-4 * g * g * n, 8 * g * g * n - 4 * g * n + 4 * n - 4 * g + 6, g % 2 == 0)


def _spec_problems(item: dict, out: dict) -> list[str]:
    bad = []
    if not out["valid"]:
        bad.append("validation failed")
    if not (out["agree"] and out["meyer"] == out["sig"]):
        bad.append(f"pipelines disagree: {out['sig']} vs {out['meyer']}")
    if "family" in item:
        sig, chi, spin = _family_expected(item["family"], item["g"], item["n"])
        if (out["sig"], out["chi"]) != (sig, chi):
            bad.append(f"(sig, chi) = ({out['sig']}, {out['chi']}), closed form ({sig}, {chi})")
        if out["homeo"] != _display(sig, chi, spin):
            bad.append(f"homeomorphism {out['homeo']!r}, expected {_display(sig, chi, spin)!r}")
    return bad


def _h_denominator(g: int, ctx: dict) -> int:
    """Every value of the fold homomorphism times this is an integer."""
    if ctx["type"] == "I":
        return 4 * g * g - 1
    h = ctx["h"]
    return (2 * g + 1) * (2 * h + 1) * (2 * (g - h) + 1)


def _query_problems(item: dict, out: dict) -> list[str]:
    g = item["g"]
    kind = item["kind"]
    if kind == "phi":
        if (Fraction(out["phi"]) * (2 * g + 1)).denominator != 1:
            return [f"(2g+1) phi not integral: {out['phi']}"]
    elif kind == "tau":
        if abs(out["tau"]) > 2 * g:
            return [f"|tau| = {abs(out['tau'])} > 2g"]
    elif kind == "h":
        if (Fraction(out["h"]) * _h_denominator(g, item["cycle"])).denominator != 1:
            return [f"h has a bad denominator: {out['h']}"]
    elif not out["agrees"]:
        return [f"decomposition disagrees: {out}"]
    return []


def problems(item: dict, out: dict | None, error: str | None,
             reference: dict | None) -> list[str]:
    """Why an item failed; empty when its output is correct."""
    if error is not None:
        return [error]
    bad = _spec_problems(item, out) if item["kind"] == "spec" else _query_problems(item, out)
    if reference is not None and out != reference:
        bad.append(f"output {out} differs from reference {reference}")
    return bad
