import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blfsig import locsig, meyer, surface
from blfsig.fibration import FibrationSpec, LefschetzDatum, RoundRegion
from blfsig.locsig import CycleContext
from blfsig.surface import TypeI, TypeII
from blfsig.words import (
    IOTA, MAX_NESTING, ChainTwist, Iota, Word, WordError,
    chain_word, evaluate, format_word, gen_word, parse_word, pow_by_squaring, reduce_word,
    runs,
)


def test_parse_simple_word():
    w = parse_word("t1 t2 t1^2 t2 t1", 1)
    assert len(w.items) == 5
    assert w.items[2] == (ChainTwist(1), 2)


def test_parse_hurwitz_word():
    w = parse_word("(t4 t3 t2 t1^2 t2 t3 t4)^2", 2)
    assert len(w.items) == 1
    inner, exp = w.items[0]
    assert exp == 2 and isinstance(inner, Word) and len(inner.items) == 7


def test_parse_negative_exponent_and_iota():
    w = parse_word("t5^-4 iota", 2)
    assert w.items == ((ChainTwist(5), -4), (IOTA, 1))


def test_index_out_of_range():
    with pytest.raises(WordError):
        parse_word("t9", 2)


def test_zero_exponent_rejected():
    with pytest.raises(WordError):
        parse_word("t1^0", 2)


def test_unbalanced_parens():
    for text in ("(t1", "t1)", "(t1))"):
        with pytest.raises(WordError):
            parse_word(text, 2)


def test_nesting_depth_is_capped():
    def nested(depth):
        return "(" * depth + "t1" + ")" * depth

    w = parse_word(nested(MAX_NESTING), 1)
    assert format_word(w) == nested(MAX_NESTING).replace("(", "( ").replace(")", " )")
    with pytest.raises(WordError, match="nest deeper"):
        parse_word(nested(MAX_NESTING + 1), 1)
    with pytest.raises(WordError, match="nest deeper"):
        parse_word(nested(3000), 1)


def test_built_words_nest_at_most_max_nesting_deep():
    # w_{k+1} = (w_k)^2 t3 to depth 3000 overflowed the stack of every
    # recursive walk of a word: hash, phi, the matrix and the text
    w = gen_word(2, ChainTwist(1))
    depth = 0
    with pytest.raises(WordError, match="nest deeper"):
        for depth in range(3000):
            w = Word(2, ((w, 2), (ChainTwist(3), 1)))
    assert depth == MAX_NESTING
    # at the cap a word still builds, compares, hashes and evaluates, and
    # its power, which would nest one level deeper, raises
    w = shared(MAX_NESTING, 2)
    assert w == shared(MAX_NESTING, 2) and hash(w) == hash(shared(MAX_NESTING, 2))
    assert w * w.inverse() == Word(2, w.items + w.inverse().items)
    with pytest.raises(WordError, match="nest deeper"):
        w ** 2
    with pytest.raises(WordError, match="nest deeper"):
        Word(2, ((w, 1),))
    # w is a conjugate of t3: phi is phi(t3), the matrix a transvection
    # along the image of c_3 under the conjugator
    assert meyer.phi(w) == meyer.phi(gen_word(2, ChainTwist(3)))
    conjugator = w.items[0][0]
    v = surface.word_action(conjugator, surface.chain_class(3, 2))
    assert surface.word_matrix(w) == surface.transvection(v)


def test_generators_walk_the_structure():
    w = parse_word("t3^1000000000000 (t1 iota^-3 (t3 t2)^-7)^999999999999 t1", 2)
    assert w.generators() == [ChainTwist(3), ChainTwist(1), IOTA, ChainTwist(2)]
    assert Word(2).generators() == []


def test_unknown_token():
    with pytest.raises(WordError):
        parse_word("t1 x3", 2)


def test_genus_bounds_on_constructor():
    with pytest.raises(WordError):
        Word(2, ((ChainTwist(6), 1),))
    with pytest.raises(WordError):
        Word(2, ((ChainTwist(1), 0),))


def test_no_chain_twist_at_genus_zero():
    # a sphere has no chain curves; iota and the empty word stay valid
    with pytest.raises(WordError, match="genus 0"):
        Word(0, ((ChainTwist(1), 3),))
    with pytest.raises(WordError, match="genus 0"):
        gen_word(0, ChainTwist(1))
    assert Word(0, ((IOTA, 1),)).genus == 0 and Word(0).items == ()


def test_parsed_texts_are_shared():
    text = "t1 ( t2 t3^-2 )^5 iota t4"
    w = parse_word(text, 2)
    assert parse_word(text, 2) == w == parse_word(text.replace(" ", "  "), 2)
    # the genus is part of the key
    assert parse_word(text, 3).genus == 3 and format_word(parse_word(text, 3)) == text


def test_invalid_text_raises_on_every_call():
    for text, genus in (("t9", 2), ("t1^0", 2), ("(t1", 2), ("t1 x3", 2), ("t1", 0)):
        messages = set()
        for _ in range(3):
            with pytest.raises(WordError) as err:
                parse_word(text, genus)
            messages.add(str(err.value))
        assert len(messages) == 1, (text, messages)


def test_public_constructor_validates_every_item():
    with pytest.raises(WordError):
        Word(2, ((ChainTwist(1), 1), (ChainTwist(6), 1)))
    with pytest.raises(WordError):
        Word(2, ((ChainTwist(1), 1), (ChainTwist(2), 0)))
    with pytest.raises(WordError):
        Word(2, ((ChainTwist(1), 1), (gen_word(3, ChainTwist(1)), 2)))


def test_products_of_checked_words_are_not_rechecked(monkeypatch):
    u, v = parse_word("t1 (t2 t3)^2", 2), parse_word("t5^-1 iota", 2)
    other_genus = gen_word(3, ChainTwist(1))

    def recheck(self, genus, items=()):
        raise AssertionError("items re-validated")

    monkeypatch.setattr(Word, "__init__", recheck)
    w = (u * v) ** 3 * u.inverse() * v ** 0
    assert list(w.letters()) == (list(u.letters()) + list(v.letters())) * 3 + \
        list(u.inverse().letters())
    with pytest.raises(WordError):
        u * other_genus
    with pytest.raises(WordError):
        u ** 1.5


T1 = ((ChainTwist(1), 2),)
# (build, fields as (name, value, a different value), repr text) per value class
VALUE_CLASSES = [
    (ChainTwist, [("index", 3, 4)], "ChainTwist(index=3)"),
    (Iota, [], "Iota()"),
    (Word, [("genus", 2, 3), ("items", T1, ())],
     "Word(genus=2, items=((ChainTwist(index=1), 2),))"),
    (TypeI, [], "TypeI()"),
    (TypeII, [("h", 1, 2)], "TypeII(h=1)"),
    (CycleContext, [("genus", 2, 3), ("cycle", TypeII(1), TypeI())],
     "CycleContext(genus=2, cycle=TypeII(h=1))"),
    (LefschetzDatum, [("cycle", TypeI(), TypeII(0)), ("conjugator", Word(1, T1), Word(1))],
     "LefschetzDatum(cycle=TypeI(), conjugator=Word(genus=1, items=((ChainTwist(index=1), 2),)))"),
    (RoundRegion, [("component", 0, 1), ("cycle", TypeI(), TypeII(1)),
                   ("monodromy", Word(2), Word(2, T1))],
     "RoundRegion(component=0, cycle=TypeI(), monodromy=Word(genus=2, items=()))"),
    (FibrationSpec, [("higher_fiber", (2,), (3,)),
                     ("lefschetz", (), (LefschetzDatum(TypeI(), Word(2)),)),
                     ("rounds", (), (RoundRegion(0, TypeI(), Word(2)),)),
                     ("spin", False, True), ("simply_connected", False, True)],
     "FibrationSpec(higher_fiber=(2,), lefschetz=(), rounds=(), spin=False, "
     "simply_connected=False)"),
]


@pytest.mark.parametrize("cls, fields, text", VALUE_CLASSES,
                         ids=[case[0].__name__ for case in VALUE_CLASSES])
def test_value_classes_compare_hash_and_print_by_their_fields(cls, fields, text):
    values = [value for _, value, _ in fields]
    a = cls(*values)
    assert a == cls(*values) == cls(**{name: value for name, value, _ in fields})
    # the hash of the tuple of fields, as a frozen dataclass hashes
    assert hash(a) == hash(cls(*values)) == hash(tuple(values))
    assert repr(a) == text
    assert hash(a) == hash(tuple(getattr(a, name) for name in cls.__slots__ if name[0] != "_"))
    assert a != object() and not a == object()
    others = [TypeI(), IOTA, Word(2), ChainTwist(3), TypeII(3), object()]
    for other in [other for other in others if type(other) is not cls]:
        assert a != other and not a == other
        assert a.__eq__(other) is NotImplemented
    # values of different classes differ even where their fields agree
    assert TypeI() != Iota() and ChainTwist(1) != TypeII(1)
    for k, (name, _, changed) in enumerate(fields):
        b = cls(*values[:k], changed, *values[k + 1:])
        assert a != b and getattr(b, name) == changed
    for name in [name for name, _, _ in fields] + ["other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name, value, _ in fields:
        assert getattr(a, name) == value


def test_a_word_hashes_its_items_once(monkeypatch):
    hashed = []

    def counting(self):
        hashed.append(self.index)
        return hash((self.index,))

    u = parse_word("t1 t2^-1 (t3 t1)^2", 2)
    monkeypatch.setattr(ChainTwist, "__hash__", counting)
    for w in (u, u * u.inverse(), Word(2, ((u, 3), (ChainTwist(4), 1)))):
        hashed.clear()
        h = hash(w)
        assert hashed  # the first hash reads the items
        hashed.clear()
        assert hash(w) == h and not hashed
        assert h == hash((w.genus, w.items))


def shared(depth, last):
    """w_{k+1} = (w_k) t3 (w_k)^-1 from w_0 = t1 t_last, at genus 2: w_k
    shares w_{k-1} twice, so it holds 2^k occurrences of w_0 in 3 items per
    level; each call builds a separate set of objects."""
    w = Word(2, ((ChainTwist(1), 1), (ChainTwist(last), 1)))
    for _ in range(depth):
        w = Word(2, ((w, 1), (ChainTwist(3), 1), (w, -1)))
    return w


def test_copies_of_a_deep_shared_word_compare_in_its_size():
    a, b, c = shared(40, 2), shared(40, 2), shared(40, 4)
    t = time.perf_counter()
    assert a == b and not a != b
    assert a != c and not a == c
    assert time.perf_counter() - t < 1.0
    surface.word_matrix.cache_clear()
    M = surface.word_matrix(a)
    before = surface.word_matrix.cache_info()
    t = time.perf_counter()
    assert surface.word_matrix(shared(40, 2)) is M
    assert time.perf_counter() - t < 1.0
    after = surface.word_matrix.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_a_shared_nested_word_is_folded_once_per_call(monkeypatch):
    # each fold of a word sees each distinct nested word once: at depth 40
    # the word holds 2^40 occurrences of w_0, and a fold per occurrence
    # doubled its cost per level
    ctx = CycleContext(2, TypeI())
    combine = meyer._combine
    joins = []
    monkeypatch.setattr(meyer, "_combine", lambda a, b: joins.append(1) or combine(a, b))
    folds = {
        "correction": meyer.correction,
        "word_matrix": surface.word_matrix,
        "h_word": lambda w: locsig.h_word(w, ctx),
        "s_word": lambda w: locsig.s_word(w, ctx),
    }
    counts = {}
    for depth in (10, 20, 40):
        w = shared(depth, 2)
        surface.word_matrix.cache_clear()
        for name, fold in folds.items():
            joins.clear()
            t = time.perf_counter()
            fold(w)
            assert time.perf_counter() - t < 1.0, (depth, name)
            if name == "correction":
                counts[depth] = len(joins)
        # w_k is a conjugate of t3, which s and h see through their folds
        assert locsig.s_word(w, ctx) == locsig.s_word(gen_word(2, ChainTwist(3)), ctx)
        assert locsig.h_word(w, ctx) == locsig.h_word(gen_word(2, ChainTwist(3)), ctx)
    assert counts[40] - counts[20] == 2 * (counts[20] - counts[10]) > 0


def test_power_of_the_empty_word_is_empty():
    # the II_0 standard twist is the chain word on no indices, (  )^2
    for e in (-3, -1, 1, 2, 3):
        assert Word(2) ** e == Word(2)
        assert chain_word(2, [], e) == Word(2)
        assert format_word(Word(2) ** e) == ""


def test_inverse_reverses_and_negates():
    w = parse_word("t1 t2^3", 2)
    assert w.inverse().items == ((ChainTwist(2), -3), (ChainTwist(1), -1))
    assert w.inverse().inverse() == w


def test_letters_flatten_powers():
    w = parse_word("(t1 t2)^-2", 2)
    assert list(w.letters()) == [(ChainTwist(2), -1), (ChainTwist(1), -1)] * 2


def test_roundtrip_examples():
    for text, g in [("t1 t2 t1^2 t2 t1", 1),
                    ("(t4 t3 t2 t1^2 t2 t3 t4)^2", 2),
                    ("iota t5^-4 ( t1 t2 )^3", 2)]:
        w = parse_word(text, g)
        assert parse_word(format_word(w), g) == w


@st.composite
def random_words(draw, genus=2):
    depth = draw(st.integers(0, 1))
    n = draw(st.integers(1, 5))
    items = []
    for _ in range(n):
        exp = draw(st.integers(-3, 3).filter(bool))
        if depth and draw(st.booleans()):
            items.append((draw(random_words(genus)), exp))
        elif draw(st.booleans()):
            items.append((IOTA, exp))
        else:
            items.append((ChainTwist(draw(st.integers(1, 2 * genus + 1))), exp))
    return Word(genus, tuple(items))


@given(random_words())
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(w):
    assert parse_word(format_word(w), w.genus) == w


def test_first_power_is_the_word_itself():
    w = parse_word("t1 t2^-1 ( t3 iota )^2", 2)
    assert w ** 1 is w
    assert chain_word(3, [1, 2]).items == ((ChainTwist(1), 1), (ChainTwist(2), 1))
    assert format_word(chain_word(3, [1, 2])) == "t1 t2"


@pytest.mark.parametrize("text, genus, reduced", [
    ("( t5^-2 iota )^2", 2, "t5^-4"),
    ("( t5^-2 iota )^3 t1", 2, "t5^-6 t1 iota"),
    ("t1 t3 t1 iota t3^-1 iota iota", 2, "t1^2 iota"),
    ("t1 t2^-1 t5^-8 t2 t1^-1", 2, "t5^-8"),
    ("t1 t2 t1^-1", 1, "t2"),
    ("t1 t2 t1^-1 t2^-1", 1, "t1 t2 t1^-1 t2^-1"),
    ("( ( t1 t2 )^3 )^2 t1", 2, "( t1 t2 )^6 t1"),
    ("t1 iota ( t1 t2 )^2 iota t3 t1^-1", 2, "iota ( t1 t2 )^2 t3 iota"),
    # no cyclic move inside a nested power: it would conjugate that factor
    ("( t1 t2 t1^-1 )^3 t2", 1, "( t1 t2 t1^-1 )^3 t2"),
    ("t1 t1^-1 iota^2", 1, ""),
])
def test_reduce_word_examples(text, genus, reduced):
    assert format_word(reduce_word(parse_word(text, genus))) == reduced


def test_chain_word_builder():
    w = chain_word(2, [1, 2, 3], 4)
    assert w.items[0][1] == 4
    assert [g.index for g, _ in w.letters()] == [1, 2, 3] * 4


# -- words.evaluate in a non-abelian toy group: permutations of 0..5 ----------

ONE = object()  # the empty word's value; evaluate must never multiply it
PERMS = {ChainTwist(1): (1, 0, 2, 3, 4, 5), ChainTwist(2): (0, 2, 3, 4, 5, 1),
         ChainTwist(3): (5, 1, 2, 0, 4, 3), ChainTwist(4): (0, 1, 4, 2, 3, 5),
         ChainTwist(5): (3, 4, 5, 0, 1, 2), IOTA: (2, 3, 0, 1, 5, 4)}
IDENTITY = tuple(range(6))


def compose(p, q):
    if p is ONE or q is ONE:
        raise AssertionError("evaluate multiplied the empty word's value")
    return tuple(p[i] for i in q)


def invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_value(item):
    if isinstance(item, Word):
        return evaluate(item, perm_value, compose, invert, ONE)
    return PERMS[item]


def letter_count(w: Word) -> int:
    return sum(abs(e) * (letter_count(x) if isinstance(x, Word) else 1) for x, e in w.items)


@st.composite
def nested_words(draw, depth=2):
    items = []
    for _ in range(draw(st.integers(1, 3))):
        if depth and draw(st.booleans()):
            items.append((draw(nested_words(depth - 1)), draw(st.integers(-3, 3).filter(bool))))
        else:
            items.append((draw(st.sampled_from(sorted(PERMS, key=str))),
                          draw(st.integers(-200, 200).filter(bool))))
    return Word(2, tuple(items))


@given(nested_words())
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_the_flat_fold(w):
    assume(letter_count(w) <= 20000)
    flat = IDENTITY
    for gen, sign in w.letters():
        flat = compose(flat, PERMS[gen] if sign > 0 else invert(PERMS[gen]))
    assert evaluate(w, perm_value, compose, invert, ONE) == flat


def test_evaluate_empty_word_is_one():
    assert evaluate(Word(2), perm_value, compose, invert, ONE) is ONE


def test_evaluate_large_exponents_cost_log_many_products():
    calls = []

    def counting(p, q):
        calls.append(1)
        return compose(p, q)

    t2 = PERMS[ChainTwist(2)]  # a 5-cycle
    for e in (10 ** 18 + 3, -(10 ** 18 + 3)):
        calls.clear()
        got = evaluate(gen_word(2, ChainTwist(2), e), perm_value, counting, invert, ONE)
        expected = IDENTITY
        for _ in range(e % 5):
            expected = compose(expected, t2)
        assert got == expected
        assert len(calls) <= 2 * (10 ** 18).bit_length()


def generator_items(w: Word) -> int:
    """Generator items of the word tree, each nested word counted once per
    occurrence, as a fold that does not cache nested values visits them."""
    return sum(generator_items(x) if isinstance(x, Word) else 1 for x, _ in w.items)


@given(nested_words())
@settings(max_examples=50, deadline=None)
def test_evaluate_takes_generator_powers_from_the_hook(w):
    # with ``power`` given, a generator's factor is power(gen, exp), and its
    # value is never taken; nested words still go by squaring their values
    assume(letter_count(w) <= 20000)
    asked = []

    def power(gen, e):
        asked.append(gen)
        return pow_by_squaring(PERMS[gen], e, compose, invert)

    def value(item):
        assert isinstance(item, Word), "took a generator's value despite the power hook"
        return evaluate(item, value, compose, invert, ONE, power)

    assert evaluate(w, value, compose, invert, ONE, power) == \
        evaluate(w, perm_value, compose, invert, ONE)
    assert len(asked) == generator_items(w)


def test_evaluate_folds_any_sequence_of_pairs():
    items = [((ChainTwist(1), ChainTwist(2)), 3), ((IOTA,), -1)]

    def value(block):
        return evaluate(Word(2, tuple((gen, 1) for gen in block)), perm_value,
                        compose, invert, ONE)

    w = Word(2, ((Word(2, ((ChainTwist(1), 1), (ChainTwist(2), 1))), 3), (IOTA, -1)))
    assert evaluate(items, value, compose, invert, ONE) == \
        evaluate(w, perm_value, compose, invert, ONE)


def brute_leading_power(keys):
    """Oracle: (p, k) of the longest prefix that is a block repeated k >= 2
    times, by trying every prefix length and period."""
    for L in range(len(keys), 1, -1):
        for p in range(1, L // 2 + 1):
            if L % p == 0 and keys[:L] == keys[:p] * (L // p):
                return p, L // p
    return None


@given(st.lists(st.sampled_from("abc"), max_size=14),
       st.lists(st.sampled_from("ab"), min_size=1, max_size=4), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_runs_are_the_longest_leading_and_trailing_powers(head, block, k):
    keys = head + block * k if k % 2 else block * k + head
    parts = runs(keys)
    covered = []
    for start, period, count in parts:
        assert start == len(covered)
        covered += keys[start:start + period] * count
    assert covered == keys
    lead = brute_leading_power(keys)
    start = lead[0] * lead[1] if lead else 0
    tail = brute_leading_power(keys[start:][::-1])
    stop = len(keys) - (tail[0] * tail[1] if tail else 0)
    assert parts == ([(0, *lead)] if lead else []) + \
        ([(start, stop - start, 1)] if start < stop else []) + ([(stop, *tail)] if tail else [])


class Counted:
    """A key that counts the comparisons made on it."""
    compared = 0

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        Counted.compared += 1
        return self.key == other.key


def square_free_ternary(n):
    """The first n letters of a ternary word with no square uu at all: the
    number of 1s between consecutive 0s of the Thue-Morse word."""
    thue_morse = [bin(i).count("1") % 2 for i in range(4 * n + 8)]
    zeros = [i for i, x in enumerate(thue_morse) if x == 0]
    return [b - a - 1 for a, b in zip(zeros, zeros[1:])][:n]


def test_runs_compare_linearly_many_keys():
    n = 10 ** 4
    keys = [Counted(x) for x in square_free_ternary(n)]
    assert len(keys) == n and {k.key for k in keys} == {0, 1, 2}
    Counted.compared = 0
    assert runs(keys) == [(0, n, 1)]
    assert Counted.compared <= 4 * n
