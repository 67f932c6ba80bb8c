"""The closed genus-g reference surface and its symplectic representation.

First homology carries the symplectic basis (a_1, b_1, ..., a_g, b_g),
with intersection form <u, v> = u^T J v (``pairing``), <a_k, b_k> = +1.
The chain curves c_1, ..., c_{2g+1} get the homology classes

    [c_{2k}]   = b_k,
    [c_{2k-1}] = a_{k-1} + a_k      (a_0 = a_{g+1} = 0),

so consecutive chain classes pair to +-1, non-consecutive ones to 0, and
the chain relation holds at the matrix level.  A right-handed Dehn twist
along a class c acts as the transvection x -> x + <x, c> c; the
hyperelliptic involution acts as -identity.  A separating twist, the chain
word (t_1 ... t_{2h})^{4h+2}, has the identity matrix.

J is written out once, in ``j_times``: (J v)_i = s(i) v[i^1], with
s(i) = +1 for even i and -1 for odd i, a signed permutation with
J^T = J^-1 = -J.  ``pairing``, ``is_symplectic`` and ``meyer``'s forms
apply it; ``times_transvection`` and ``word_action`` apply its sparse
case, to the support of one class.  Inverses need no elimination:
M^-1 = -J M^T J for a symplectic M, the index shuffle
M^-1[i][j] = s(i) s(j) M[j^1][i^1], which ``sp_inverse`` writes out as
one pass of signed ``j_times`` shuffles of the columns of M.

A matrix is a tuple of row tuples of Python ints, and a homology class a
tuple of ints: immutable, so a matrix serves as its own cache key and a
cached value cannot be corrupted by a caller.  ``chain_class`` keeps the
class of each (index, genus) pair, keyed by type too, in an ``lru_cache``
of at most 2^10 classes, as the folds of ``word_matrix`` and ``meyer`` ask
for it once per letter; an index out of range raises on every call.
``word_matrix`` folds a word into that form with ``words.evaluate`` on
every call; a nested word is folded once per call.

``words.evaluate`` hands ``word_matrix`` each maximal stretch of letters
of a word, as it hands ``meyer``: a stretch is built from the identity by
row updates, ``times_transvection`` for each t_i^e and a negation for an
odd power of iota, so a letter needs no product; ``mat_mul`` joins
stretches and nested words, and only a nested power (u)^N is raised by
repeated squaring.
``word_action`` gives W c for a class c without the matrix W: it acts on
c with the word's letters from right to left, in O(1) per chain-twist
power, and only a nested power (u)^N goes through ``word_matrix``.

``mat_mul`` computes only the entries its factors change: the columns of
B that are not unit columns, in the rows of A that are not unit rows.  It
takes two square matrices of one size 2g, as every caller passes.  A chain
class has at most two nonzero coordinates, so a chain twist, and any power
of one, differs from the identity in at most two rows and two columns, and
a product with it on either side costs O(g^2) instead of O(g^3).  The
matrix -1 of iota has no unit row or column, so ``mat_mul`` tests for it
and negates the other factor, also in O(g^2).
``times_transvection`` gives M t_c^e without the matrix of the twist: it
adds a multiple of (J c)^T to each row of M that c does not annihilate,
so for a chain class it touches two columns, in O(g) per row.

``is_symplectic`` checks M J M^T = J, which holds exactly when M^T J M = J,
as pairings of rows: <M_i, M_j> = J_ij for i < j (the pairing is
alternating, so the diagonal and the lower triangle follow), with the rows
J M_j built once: about half the work of the product M^-1 M.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, neg

from . import ratlin
from .words import ChainTwist, Frozen, Iota, Word, _is_int, evaluate


class TypeI(Frozen):
    """A non-separating simple closed curve."""
    __slots__ = ()

    def __str__(self):
        return "I"


class TypeII(Frozen):
    """A separating curve bounding subsurfaces of genus h and g-h."""
    __slots__ = ("h", "_key")

    def __init__(self, h: int):
        if not _is_int(h):
            raise ValueError(f"II_h needs an integer h, got {h!r}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "_key", (h,))

    def __str__(self):
        return f"II_{self.h}"


CurveDescriptor = TypeI | TypeII
Matrix = tuple  # tuple of row tuples of Python ints


def check_genus(g: int) -> int:
    if not _is_int(g):
        raise ValueError(f"genus must be an integer, got {g!r}")
    if g < 1:
        raise ValueError(f"mapping class operations need genus >= 1, got {g}")
    return g


def j_times(v) -> list[int]:
    """J v for a class v, a tuple or list: entry i is s(i) v[i^1]."""
    out = [0] * len(v)
    out[0::2] = v[1::2]
    out[1::2] = map(neg, v[0::2])
    return out


def pairing(u, v) -> int:
    """Algebraic intersection number <u, v> = u^T J v."""
    return sum(map(mul, u, j_times(v)))


@lru_cache(maxsize=1 << 10, typed=True)
def chain_class(i: int, g: int) -> tuple[int, ...]:
    """Homology class of the i-th chain curve, 1 <= i <= 2g+1; cached."""
    check_genus(g)
    if not _is_int(i):
        raise ValueError(f"chain index must be an integer, got {i!r}")
    if not 1 <= i <= 2 * g + 1:
        raise ValueError(f"chain index {i} out of range 1..{2 * g + 1}")
    v = [0] * (2 * g)
    for p in _chain_support(i, g):
        v[p] = 1
    return tuple(v)


def _chain_support(i: int, g: int) -> tuple[int, ...]:
    """The coordinates where the class of the i-th chain curve is 1 (it is
    0 elsewhere), for 1 <= i <= 2g+1: one or two of them, in O(1)."""
    if i % 2 == 0:
        return (i - 1,)  # b_{i/2}
    k = (i + 1) // 2
    return tuple(p for p in (2 * (k - 2), 2 * (k - 1)) if 0 <= p < 2 * g)  # a_{k-1}, a_k


def _integer_class(c) -> list[int]:
    """The entries of the class c as a new list of ints, read as matrix
    entries are (``ratlin._integer``); ValueError for an entry that is not
    an integer, so 1.5 is never read as 1."""
    c = list(c)
    x = ratlin._integers(c)
    if None in x:
        raise ValueError(f"class entry {c[x.index(None)]!r} is not an integer")
    return x


def transvection(c, e: int = 1) -> Matrix:
    """The e-th power x -> x + e <x, c> c of the transvection of the
    right-handed twist along the integer class c, as a tuple matrix:
    1 - e c c^T J, whose (i, j) entry is delta_ij + e s(j) c_i c_{j^1}: the
    identity times t_c^e (``times_transvection``).  Row i is the unit row
    where c_i = 0, so a null class gives the identity."""
    c = tuple(_integer_class(c))
    return times_transvection(sp_identity(len(c) // 2), c, e)


def times_transvection(M: Matrix, c, e: int = 1) -> Matrix:
    """The product M t_c^e for a tuple matrix M and an integer class c, with
    no matrix of the twist: t_c^e = 1 + e c (J c)^T, so row i of M gains
    e (M_i . c) (J c)^T, which moves only the columns p^1 for c_p != 0 and
    only the rows with M_i . c != 0 (the others stay shared); J c is the
    sparse case of ``j_times``.  O(g) per row for a chain class, against
    O(g^2) per call for ``mat_mul``."""
    support = [(p, x) for p, x in enumerate(c) if x]
    # (J c)_j = s(j) c_{j^1}: column p^1 gains e s(p^1) c_p per unit of M_i . c
    moved = [(p ^ 1, e * x if p % 2 else -e * x) for p, x in support]
    out = []
    for row in M:
        t = 0
        for p, x in support:  # a loop: faster than sum() over one or two terms
            t += row[p] * x
        if t:
            row = list(row)
            for j, r in moved:
                row[j] += t * r
            row = tuple(row)
        out.append(row)
    return tuple(out)


@lru_cache(maxsize=None)
def iota_matrix(g: int) -> Matrix:
    """-1, the matrix of the hyperelliptic involution; () at genus 0."""
    return tuple(tuple(map(neg, row)) for row in sp_identity(g))


def is_symplectic(M) -> bool:
    """True if M, a square sequence of rows of even size (ShapeError
    otherwise), is symplectic."""
    n = len(M)
    if n % 2 or any(len(row) != n for row in M):
        raise ratlin.ShapeError(f"expected a square matrix of even size, got {n} rows")
    JM = list(map(j_times, M))
    return all(sum(map(mul, M[i], JM[j])) == (j == i + 1 and i % 2 == 0)
               for i in range(n) for j in range(i + 1, n))


# -- tuple matrices -----------------------------------------------------------

@lru_cache(maxsize=None)
def sp_identity(g: int) -> Matrix:
    """The 2g x 2g identity as a tuple matrix; () at genus 0."""
    n = 2 * g
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """Product of two tuple matrices of one size 2g x 2g, computing only
    the entries the factors change: a unit column e_j of B leaves column j
    of A in place, a unit row e_i of A makes row i of the product the row
    B[i] (shared, as tuples are immutable), and every other entry is a dot
    product.  A factor -1 (iota) negates the other one.  O(g^2) when either
    factor is -1, a chain twist or a power of one; O(g^3) for two general
    matrices."""
    g = len(B) // 2
    minus = iota_matrix(g)
    if B == minus:
        return tuple(tuple(map(neg, row)) for row in A)
    if A == minus:
        return tuple(tuple(map(neg, row)) for row in B)
    units = sp_identity(g)
    moved = [(j, col) for j, (col, unit) in enumerate(zip(zip(*B), units)) if col != unit]
    out = []
    for row, unit, brow in zip(A, units, B):
        if row == unit:
            out.append(brow)
            continue
        new = list(row)
        for j, col in moved:
            new[j] = sum(map(mul, row, col))
        out.append(tuple(new))
    return tuple(out)


def sp_inverse(A: Matrix) -> Matrix:
    """Inverse -J A^T J of a symplectic tuple matrix in one pass over A:
    entry (i, j) is s(i) s(j) A[j^1][i^1], so row i is s(i) times
    ``j_times`` of column i^1 of A, written out with the sign folded in."""
    cols = tuple(zip(*A))
    out = []
    for i in range(len(A)):
        c = cols[i ^ 1]
        row = [0] * len(A)
        if i & 1:  # s(i) = -1
            row[0::2] = map(neg, c[1::2])
            row[1::2] = c[0::2]
        else:
            row[0::2] = c[1::2]
            row[1::2] = map(neg, c[0::2])
        out.append(tuple(row))
    return tuple(out)


def word_matrix(w: Word) -> Matrix:
    """Product of generator matrices, left to right in word order, as a
    tuple matrix, folded by ``words.evaluate`` (see the module
    docstring)."""
    g = check_genus(w.genus)
    return evaluate(w, lambda letters: _stretch_matrix(letters, g), mat_mul, sp_inverse,
                    sp_identity(g))


def _stretch_matrix(letters, g: int) -> Matrix:
    """The matrix of a stretch of letters (gen, e), by row updates of the
    identity; iota is central, so its odd powers negate the product."""
    M = sp_identity(g)
    odd = 0
    for gen, e in letters:
        if isinstance(gen, ChainTwist):
            M = times_transvection(M, chain_class(gen.index, g), e)
        else:
            odd ^= e & 1
    return tuple(tuple(map(neg, row)) for row in M) if odd else M


def word_action(w: Word, c) -> tuple[int, ...]:
    """W c, for W the matrix of the word w and c an integer class at its
    genus, by acting on c with the word's items from right to left: a chain
    twist power t_i^e maps x to x + e <x, c_i> c_i, in O(1) as c_i has at
    most two nonzero coordinates (the sparse case of ``j_times``), and an
    odd power of iota negates x.  Only a nested subword (u)^N goes through
    ``word_matrix``, whose repeated squaring keeps the cost polynomial in
    the size of the word as written."""
    g = check_genus(w.genus)
    x = _integer_class(c)
    if len(x) != 2 * g:
        raise ValueError(f"class of length {len(x)} at genus {g}")
    for item, exp in reversed(w.items):
        if isinstance(item, ChainTwist):
            # <x, c_i> = sum over the support p of s(p^1) x[p^1], s(k) = -1 for odd k
            support = _chain_support(item.index, g)
            t = exp * sum(x[p ^ 1] if p % 2 else -x[p ^ 1] for p in support)
            for p in support:
                x[p] += t
        elif isinstance(item, Iota):
            if exp % 2:
                x = [-v for v in x]
        elif isinstance(item, Word):
            x = [sum(map(mul, row, x)) for row in word_matrix(Word(g, ((item, exp),)))]
    return tuple(x)


def word_to_matrix(w: Word) -> Matrix:
    """Product of generator matrices, left to right in word order, as an
    immutable tuple matrix: ``word_matrix(w)``."""
    return word_matrix(w)


def cycle_class(cycle: CurveDescriptor, g: int) -> tuple[int, ...]:
    """Homology class of the standard curve of the given type: the top
    chain curve (class a_g) for type I, zero for separating types."""
    check_genus(g)
    if isinstance(cycle, TypeI):
        return chain_class(2 * g + 1, g)
    if not 0 <= cycle.h <= g:
        raise ValueError(f"type II_h needs 0 <= h <= {g}, got {cycle.h}")
    return (0,) * (2 * g)
