import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blfsig.words import (
    IOTA, MAX_NESTING, ChainTwist, SeparatingTwist, Word, WordError,
    chain_word, format_word, gen_word, parse_word,
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
        Word(2, ((SeparatingTwist(3), 1),))
    with pytest.raises(WordError):
        Word(2, ((ChainTwist(1), 0),))


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

    def recheck(self):
        raise AssertionError("items re-validated")

    monkeypatch.setattr(Word, "__post_init__", recheck)
    w = (u * v) ** 3 * u.inverse() * v ** 0
    assert list(w.letters()) == (list(u.letters()) + list(v.letters())) * 3 + \
        list(u.inverse().letters())
    with pytest.raises(WordError):
        u * other_genus
    with pytest.raises(WordError):
        u ** 1.5


def test_inverse_reverses_and_negates():
    w = parse_word("t1 t2^3", 2)
    assert w.inverse().items == ((ChainTwist(2), -3), (ChainTwist(1), -1))
    assert w.inverse().inverse() == w


def test_letters_flatten_powers():
    w = parse_word("(t1 t2)^-2", 2)
    assert list(w.letters()) == [(ChainTwist(2), -1), (ChainTwist(1), -1)] * 2


def test_separating_twist_has_no_text_form():
    w = gen_word(2, SeparatingTwist(1))
    with pytest.raises(WordError):
        format_word(w)


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


def test_chain_word_builder():
    w = chain_word(2, [1, 2, 3], 4)
    assert w.items[0][1] == 4
    assert [g.index for g, _ in w.letters()] == [1, 2, 3] * 4
