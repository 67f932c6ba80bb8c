"""Words in the standard twist generators of the hyperelliptic mapping
class group of a closed genus-g surface.

Generators are the Dehn twists t_1, ..., t_{2g+1} along the standard chain
of simple closed curves and the hyperelliptic involution ``iota``.  The
twist along the standard separating curve that splits off genus h needs no
generator of its own: it is the chain word (t_1 ... t_{2h})^{4h+2} (the
chain relation), so every word has a text form.  A word is a sequence of
(item, exponent) pairs where an item is a generator or a nested word, so
powers of subwords stay symbolic (the power of the empty word is the empty
word), and ``evaluate`` folds a word into any group: each maximal stretch
of generator items by the caller's ``stretch`` routine (an integer sum; a
matrix by row updates), and each distinct nested word once per call, its
powers in O(log exponent) operations by ``pow_by_squaring``, or by a
caller's own routine when it knows more about the element (``meyer``
raises a state at its unipotent period).  ``homomorphism`` is the additive
case: a homomorphism to (Q, +) given by its generator values, folded in
ints over their common denominator, a power by one multiplication.
``reduce_word`` shortens a word by moves that keep its conjugacy class
and its generator sum (merges of commuting twists, iota's parity,
one-letter nested powers, and the peeling of the two ends), and ``meyer``
folds it in place of the word; the peeling merges the last item into the
first while both are powers of one chain twist, going on while they
cancel.  ``evaluate``, ``reduce_word`` and ``Word.substitute`` take a
nested word shared by several items once per call, so they cost the size
of the word as written, not its number of letters.  ``runs`` turns a flat
sequence into such items the other way round: it finds a leading and a
trailing power block^k in linear time, so a fold of a Hurwitz system whose
data repeat a block raises that block as one power.

The text grammar (used by the command line and the spec file format) is

    word := term { term }
    term := atom [ '^' signed-int ]
    atom := 't' index | 'iota' | '(' word ')'

with whitespace between terms and chain indices in 1..2g+1.  A word at
genus 0 holds no chain twist, as a sphere has no chain curves.  Words,
parsed or built, nest at most MAX_NESTING deep, which bounds the recursion
of every evaluator that walks a word.  ``format_word`` writes a shared
nested word out at each occurrence, so it sizes the text first and refuses
one longer than MAX_TEXT characters, and ``repr`` shows that text or the
refusal.  A number in a text, or an exponent written out, longer than
Python converts (``sys.get_int_max_str_digits``) is a WordError.
``parse_word`` keeps the words of recent texts (an ``lru_cache`` of 2^12
(text, genus) pairs, keyed by type too): a Word is immutable, so a text
repeated across a spec file is parsed once.  For the same reason a Word
caches its hash when first hashed, so a word that holds a nested word
many times (as words built through the API may) hashes in time linear in
its size as written, not in its number of occurrences of that nested word.
The parser reads a text's tokens with one ``findall``, then parses them,
so a bad token anywhere is found before a bad parenthesis; its chain twists
come from ``_twist``, an ``lru_cache`` of 2^10 indices, so the words of all
texts share one ChainTwist per index.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, starmap

_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes of the package: assigning or
    deleting an attribute raises AttributeError, and the repr lists the
    public slots, ``ChainTwist(index=3)``.  Each subclass writes out its
    ``__init__``, which sets its slots with ``object.__setattr__`` and
    keeps its fields, in slot order, as the tuple ``_key`` (a class with no
    field keeps the class-level ``()``): two values are equal when they are
    of one class with equal keys, and hash as their key.  ``Word`` keeps
    its own ``__eq__``, its cached hash, and a repr of its text form."""
    __slots__ = ()
    _key = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({fields})"


class ChainTwist(Frozen):
    """Right-handed Dehn twist along the index-th chain curve."""
    __slots__ = ("index", "_key")

    def __init__(self, index: int):
        _set(self, "index", index)
        _set(self, "_key", (index,))

    def __str__(self):
        return f"t{self.index}"


class Iota(Frozen):
    """The hyperelliptic involution."""
    __slots__ = ()

    def __str__(self):
        return "iota"


Generator = ChainTwist | Iota
IOTA = Iota()
MAX_NESTING = 100
MAX_TEXT = 10 ** 7  # characters of the text form of a word


class WordError(ValueError):
    """Malformed word: bad index, zero exponent, or genus mismatch."""


class Word(Frozen):
    """A word in the generators at a fixed genus.

    ``items`` is a tuple of (item, exponent) pairs; an item is a generator
    or a nested Word of the same genus, and exponents are nonzero ints.
    The genus, each chain index and each exponent must be an int that is
    not a bool (``Word(1, ((ChainTwist(1.0), 1),))`` raises WordError).
    The hash is computed on first use and kept, so hashing a word whose
    nested words are hashed already costs O(len(items)).  ``==`` walks each
    pair of nested words once (``_same_word``), so two separately built
    copies of a word that shares its nested words compare in the size as
    written.
    """
    __slots__ = ("genus", "items", "_hash", "_depth")

    def __init__(self, genus: int, items: tuple = ()):
        if not _is_int(genus):
            raise WordError(f"genus must be an integer, got {genus!r}")
        if genus < 0:
            raise WordError(f"genus must be >= 0, got {genus}")
        for item, exp in items:
            if not _is_int(exp) or exp == 0:
                raise WordError(f"exponent must be a nonzero integer, got {exp!r}")
            if isinstance(item, Word):
                if item.genus != genus:
                    raise WordError("nested word has mismatched genus")
            elif isinstance(item, ChainTwist):
                if not _is_int(item.index):
                    raise WordError(f"chain index must be an integer, got {item.index!r}")
                if not genus:
                    raise WordError(f"t{item.index} at genus 0: a sphere has no chain curves")
                if not 1 <= item.index <= 2 * genus + 1:
                    raise WordError(
                        f"t{item.index} out of range for genus {genus} "
                        f"(max index {2 * genus + 1})")
            elif not isinstance(item, Iota):
                raise WordError(f"unknown generator {item!r}")
        _set(self, "genus", genus)
        _set(self, "items", items)
        _set(self, "_depth", _depth_of(items))

    def __eq__(self, other):
        if other.__class__ is not Word:
            return NotImplemented
        return _same_word(self, other, set())

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.genus, self.items))
            _set(self, "_hash", h)
            return h

    def __mul__(self, other: "Word") -> "Word":
        if self.genus != other.genus:
            raise WordError("cannot concatenate words of different genus")
        return _checked_word(self.genus, self.items + other.items)

    def __pow__(self, e: int) -> "Word":
        if not _is_int(e):
            raise WordError(f"exponent must be an integer, got {e!r}")
        if e == 0 or not self.items:
            return _checked_word(self.genus, ())
        if e == 1:
            return self
        if len(self.items) == 1:
            item, exp = self.items[0]
            return _checked_word(self.genus, ((item, exp * e),))
        return _checked_word(self.genus, ((self, e),))

    def inverse(self) -> "Word":
        return _checked_word(self.genus,
                             tuple((item, -exp) for item, exp in reversed(self.items)))

    def letters(self) -> Iterator[tuple[Generator, int]]:
        """Flat left-to-right stream of (generator, +1/-1) letters."""
        for item, exp in self.items:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                if isinstance(item, Word):
                    sub = item if sign > 0 else item.inverse()
                    yield from sub.letters()
                else:
                    yield item, sign

    def generators(self) -> list[Generator]:
        """The distinct generators, in order of first appearance as written.
        A nested word shared by several items is walked once, so the cost is
        the size of the word as written, whatever its exponents."""
        found: dict = {}
        walked: set = set()  # ids of the nested words walked

        def walk(w: Word) -> None:
            for item, _ in w.items:
                if not isinstance(item, Word):
                    found.setdefault(item, None)
                elif id(item) not in walked:
                    walked.add(id(item))
                    walk(item)

        walk(self)
        return list(found)

    def substitute(self, fn: Callable[[Generator], Generator | None],
                   genus: int) -> "Word":
        """Map each generator through ``fn`` (None drops it), re-rooted at
        the given genus; word structure and exponents are preserved, and a
        nested word shared by several items is mapped once, to one image."""
        images: dict = {}  # id of a word -> its image

        def image(w: Word) -> Word:
            if id(w) not in images:
                out = []
                for item, exp in w.items:
                    x = image(item) if isinstance(item, Word) else fn(item)
                    if x is not None and (not isinstance(x, Word) or x.items):
                        out.append((x, exp))
                images[id(w)] = Word(genus, tuple(out))
            return images[id(w)]

        return image(self)

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        # the text form, sized first by format_word, so a repr never raises
        # and costs the size of the word as written
        try:
            text = repr(format_word(self))
        except WordError as e:
            text = f"<{e}>"
        return f"Word(genus={self.genus}, text={text})"


def _is_int(x) -> bool:
    """True for an int that is not a bool: the only genus, chain index and
    exponent a word takes."""
    return isinstance(x, int) and x.__class__ is not bool


def _same_word(u: Word, v: Word, same: set) -> bool:
    """u == v, with ``same`` the id pairs of nested words already found
    equal within this comparison: each pair is compared once, and unequal
    hashes decide at once."""
    if u is v or (id(u), id(v)) in same:
        return True
    if hash(u) != hash(v) or u.genus != v.genus or len(u.items) != len(v.items):
        return False
    for (a, e), (b, f) in zip(u.items, v.items):
        if e != f:
            return False
        if a.__class__ is Word and b.__class__ is Word:
            if not _same_word(a, b, same):
                return False
        elif a != b:
            return False
    same.add((id(u), id(v)))
    return True


def _checked_word(genus: int, items: tuple) -> Word:
    """A Word built from items that are already valid at this genus (taken
    from checked words), without running the checks of ``Word.__init__``
    again."""
    w = object.__new__(Word)
    _set(w, "genus", genus)
    _set(w, "items", items)
    _set(w, "_depth", _depth_of(items))
    return w


def _depth_of(items) -> int:
    """How deep nested words go in a word of these items, 0 for a flat
    word; WordError past MAX_NESTING."""
    depth = 0
    for item, _ in items:
        if item.__class__ is Word and item._depth >= depth:
            depth = item._depth + 1
    if depth > MAX_NESTING:
        raise WordError(f"words nest deeper than {MAX_NESTING}")
    return depth


def evaluate(w: Word, stretch: Callable, mul: Callable, inv: Callable, one,
             raise_value: Callable | None = None):
    """Fold a word into a group: the product of its factors, left to right.

    Each maximal stretch of generator items is one factor,
    ``stretch(letters)`` with letters the tuple of its (generator, exponent)
    pairs.  A nested word is folded once per call, however many items hold
    it (keyed by identity), and its item's factor is
    ``raise_value(value, exp)`` when that is given, so a caller may raise an
    element whose powers it knows in closed form more cheaply, and
    ``pow_by_squaring`` otherwise.  A fold starts from its first factor,
    so ``one``, the value of an empty word, meets ``mul`` only when an
    empty word is nested.
    """
    values: dict = {}  # id of a nested word -> its value
    if raise_value is None:
        def raise_value(x, e):
            return pow_by_squaring(x, e, mul, inv)

    def factor(item: Word, exp: int):
        if id(item) not in values:
            values[id(item)] = fold(item)
        return raise_value(values[id(item)], exp)

    def fold(u: Word):
        acc = None
        for nested, items in groupby(u.items, lambda item: item[0].__class__ is Word):
            for x in starmap(factor, items) if nested else (stretch(tuple(items)),):
                acc = x if acc is None else mul(acc, x)
        return one if acc is None else acc

    return fold(w)


def pow_by_squaring(x, e: int, mul: Callable, inv: Callable):
    """x ** e for a nonzero int e: O(log |e|) products by repeated
    squaring, a negative exponent inverting x first."""
    if e < 0:
        x, e = inv(x), -e
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


def runs(keys) -> list[tuple[int, int, int]]:
    """Factor a sequence into runs: parts (start, period, count), in order
    and covering it, with keys[start : start + period * count] equal to
    keys[start : start + period] repeated count times.  The parts are the
    longest leading power block^k with k >= 2, the longest trailing one in
    what is left, and the plain stretch between them (count 1); each may be
    absent.  Keys are compared with ``==`` only, O(len(keys)) times."""
    n = len(keys)
    lead = _leading_power(keys)
    start = lead[0] * lead[1] if lead else 0
    tail = _leading_power(keys[start:][::-1])
    stop = n - tail[0] * tail[1] if tail else n
    parts = [(0, *lead)] if lead else []
    if start < stop:
        parts.append((start, stop - start, 1))
    if tail:
        parts.append((stop, *tail))
    return parts


def _leading_power(keys) -> tuple[int, int] | None:
    """(p, k) for the longest prefix of keys that is a block of length p
    repeated k >= 2 times, or None.  The prefix function of Knuth, Morris
    and Pratt gives the shortest period p = L - border(L) of every prefix
    length L in at most 2 len(keys) comparisons, and a prefix is a power of
    a shorter block exactly when p divides L (by the Fine-Wilf theorem, a
    period q with q | L and q <= L/2 is a multiple of p)."""
    border = [0] * len(keys)
    b = 0
    for i in range(1, len(keys)):
        # each comparison extends the border, shortens it, or ends at 0
        while True:
            if keys[i] == keys[b]:
                b += 1
                break
            if not b:
                break
            b = border[b - 1]
        border[i] = b
    for L in range(len(keys), 1, -1):
        p = L - border[L - 1]
        if p < L and L % p == 0:
            return p, L // p
    return None


def homomorphism(w: Word, value: Callable[[Generator], Fraction | int]) -> Fraction:
    """The homomorphism to (Q, +) with generator values ``value(gen)``,
    evaluated on a word.  The word is folded in ints over the least common
    denominator D of the values of its generators, a power costs one int
    multiplication, and a nested word shared by several items is folded
    once, so the fold costs O(size as written); one Fraction is built."""
    values = {gen: value(gen) for gen in w.generators()}
    D = math.lcm(1, *(v.denominator for v in values.values()))
    scaled = {gen: v.numerator * (D // v.denominator) for gen, v in values.items()}
    return Fraction(evaluate(w, lambda letters: sum(e * scaled[gen] for gen, e in letters),
                             operator.add, operator.neg, 0, operator.mul), D)


def reduce_word(w: Word) -> Word:
    """A word for a conjugate of w with the same generator sum, found by
    moves that keep both: equal neighbouring chain twists merge (cancel when
    their exponents sum to 0), also across iota, which is central, and
    across twists along disjoint chain curves (indices i, j with
    |i - j| >= 2 commute); iota keeps only its parity, at the end of each
    stretch of generators; a nested power whose reduced body is one letter
    becomes a power of that letter (``(t5^-2 iota)^2`` is ``t5^-4``); and at
    the top level only (inside a nested power it would conjugate the one
    factor), the last item merges cyclically into the first while both are
    powers of one chain twist, going on while they cancel, so u x u^-1
    peels to x.  No other relation of the group is used, so for a
    function of the conjugacy class that is additive on generators up to a
    correction of the word, the correction is unchanged.  Linear in the
    size of the word as written; each distinct nested word is reduced
    once, into one word that every item holding it shares."""
    items, odd = _reduce_items(w.items, w.genus, {})
    items = _cyclic(items)
    if odd:
        items.append((IOTA, 1))
    return _checked_word(w.genus, tuple(items))


def _reduce_items(items, genus: int, memo: dict) -> tuple[list, int]:
    """The items of one level with the merges of ``reduce_word``, every
    stretch but the last closed by its iota when its parity is odd, and the
    parity of the last stretch."""
    out: list = []  # (item, exponent), None where a letter cancelled
    last: dict = {}  # chain index -> positions in out of its live letters
    barrier = -1  # position of the last nested item, which commutes with nothing
    odd = 0

    def push(gen, e):
        here = last.setdefault(gen.index, [])
        if here:
            p = here[-1]
            # the letters after p commute with gen when none is adjacent to it
            if p > barrier and all(not last.get(j) or last[j][-1] < p
                                   for j in (gen.index - 1, gen.index + 1)):
                e += out[p][1]
                if e:
                    out[p] = (out[p][0], e)
                else:
                    out[p] = None
                    here.pop()
                return
        here.append(len(out))
        out.append((gen, e))

    for item, exp in items:
        if isinstance(item, Iota):
            odd ^= exp & 1
        elif isinstance(item, ChainTwist):
            push(item, exp)
        else:
            if id(item) not in memo:
                # (sub, m, p): the item is sub^m iota^p, with sub a letter,
                # a reduced word, or None
                body, p = _reduce_items(item.items, genus, memo)
                if len(body) == 1 and (isinstance(body[0][0], ChainTwist) or not p):
                    memo[id(item)] = *body[0], p
                else:
                    memo[id(item)] = ((_checked_word(genus, tuple(body) + ((IOTA, 1),) * p), 1, 0)
                                      if body else (None, 0, p))
            sub, m, sub_odd = memo[id(item)]
            if not isinstance(sub, Word):
                # (t^m iota^p)^e = t^(m e) iota^(p e), as iota is central
                if sub is not None:
                    push(sub, m * exp)
                odd ^= sub_odd & exp
                continue
            if odd:
                out.append((IOTA, 1))
                odd = 0
            barrier = len(out)
            out.append((sub, m * exp))
    return [x for x in out if x is not None], odd


def _cyclic(items: list) -> list:
    """Peel the two ends: while the first and last items are powers of one
    chain twist, merge the last into the first, going on only when they
    cancel."""
    i, j = 0, len(items) - 1
    while i < j and items[i][0].__class__ is ChainTwist and items[i][0] == items[j][0]:
        e = items[i][1] + items[j][1]
        j -= 1
        if e:
            items[i] = (items[i][0], e)
            break
        i += 1
    return items[i:j + 1]


def gen_word(genus: int, gen: Generator, exp: int = 1) -> Word:
    return Word(genus, ((gen, exp),))


def chain_word(genus: int, indices, exp: int = 1) -> Word:
    """Word ``(t_{i1} t_{i2} ...)^exp`` for a sequence of chain indices."""
    inner = Word(genus, tuple((ChainTwist(i), 1) for i in indices))
    return inner ** exp


_TOKEN = re.compile(r"t(\d+)|(iota|[()])|\^(-?\d+)|(\S)")
_NAMED = {"iota": ("iota", None), "(": ("open", None), ")": ("close", None)}


def _tokenize(text: str) -> list:
    """The tokens of a text, from one ``findall``: ("gen", twist) with the
    shared ``_twist``, ("pow", exponent), or a named token.  The first
    token that is none of these, or a number longer than Python converts,
    raises WordError."""
    tokens = []
    for index, name, exp, other in _TOKEN.findall(text):
        if index:
            tokens.append(("gen", _twist(_int(index, "t"))))
        elif name:
            tokens.append(_NAMED[name])
        elif exp:
            tokens.append(("pow", _int(exp, "^")))
        else:
            raise WordError(f"unexpected token {other!r}")
    return tokens


@lru_cache(maxsize=1 << 10)
def _twist(index: int) -> ChainTwist:
    """The parser's one ChainTwist per index, its range unchecked (the word
    checks it), so the words of many texts share their generators."""
    return ChainTwist(index)


def _int(digits: str, prefix: str) -> int:
    """int(digits), or a WordError naming the token, prefix + digits, when the
    number is longer than Python converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError:
        raise WordError(f"{(prefix + digits)[:20]}...: a number of {len(digits):,} characters, "
                        f"over the limit of {sys.get_int_max_str_digits():,} digits") from None


@lru_cache(maxsize=1 << 12, typed=True)
def parse_word(text: str, genus: int) -> Word:
    """Parse the text grammar into a Word at the given genus.  Parsed
    texts are cached, keyed by type too, so a genus of True or 1.0 is not
    read off the entry of 1 (the Word refuses it): a Word is immutable, so
    callers may share it, and a malformed text raises on every call, as
    exceptions are not cached."""
    if _is_int(genus) and genus < 1:
        raise WordError("words need genus >= 1")
    tokens = _tokenize(text)
    pos = 0

    def parse_seq(depth: int) -> Word:
        nonlocal pos
        items = []
        while pos < len(tokens):
            kind, val = tokens[pos]
            if kind == "close":
                if depth == 0:
                    raise WordError("unbalanced ')'")
                break
            pos += 1
            if kind == "gen":
                item = val
            elif kind == "iota":
                item = IOTA
            elif kind == "open":
                if depth == MAX_NESTING:
                    raise WordError(f"parentheses nest deeper than {MAX_NESTING}")
                item = parse_seq(depth + 1)
                if pos >= len(tokens) or tokens[pos][0] != "close":
                    raise WordError("unbalanced '('")
                pos += 1
            else:
                raise WordError("exponent without a preceding atom")
            exp = 1
            if pos < len(tokens) and tokens[pos][0] == "pow":
                exp = tokens[pos][1]
                if exp == 0:
                    raise WordError("zero exponent")
                pos += 1
            items.append((item, exp))
        return Word(genus, tuple(items))

    w = parse_seq(0)
    if pos != len(tokens):
        raise WordError("unbalanced ')'")
    return w


def format_word(w: Word) -> str:
    """Inverse of parse_word on the parsed structure.  The text writes a
    nested word out at every item that holds it, so its length is found
    first, by a walk that takes each distinct nested word once, and a text
    longer than MAX_TEXT characters raises WordError.  Each distinct nested
    word is formatted once."""
    size = _text_length(w, {})
    if size > MAX_TEXT:
        raise WordError(f"the text of this word would have {size:,} characters, "
                        f"more than {MAX_TEXT:,}")
    texts: dict = {}  # id of a nested word -> its text in parentheses

    def text(w: Word) -> str:
        parts = []
        for item, exp in w.items:
            if item.__class__ is Word:
                if id(item) not in texts:
                    texts[id(item)] = f"( {text(item)} )"
                atom = texts[id(item)]
            else:
                atom = str(item)
            parts.append(atom if exp == 1 else f"{atom}^{exp}")
        return " ".join(parts)

    return text(w)


def _text_length(w: Word, lengths: dict) -> int:
    """len(format_word(w)), with ``lengths`` the lengths of the nested
    words measured already, in parentheses, by id."""
    n = max(len(w.items) - 1, 0)
    for item, exp in w.items:
        if item.__class__ is Word:
            if id(item) not in lengths:
                lengths[id(item)] = _text_length(item, lengths) + 4
            n += lengths[id(item)]
        else:
            n += len(str(item))
        if exp != 1:
            try:
                n += 1 + len(str(exp))
            except ValueError:
                raise WordError(f"an exponent of {exp.bit_length():,} bits has more than "
                                f"{sys.get_int_max_str_digits():,} digits") from None
    return n
