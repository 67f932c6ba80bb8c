"""Exact linear algebra over the rationals and the integers.

Every computation in this package reduces to small dense exact problems:
signatures of symmetric bilinear forms, Smith normal forms of presentation
matrices, and integer kernels.  The public functions take any sequence of
rows of ints or ``fractions.Fraction``, read by plain iteration, raise
``ShapeError`` unless it is 2-d and rectangular with finite real entries
(integral ones, by ``_integer``, where integers are needed: a complex
entry is refused even with a zero imaginary part), and return matrices as
tuples of Python ints (the tuple matrices of ``surface``), so there is no
floating point anywhere and no bound on entry size.  The integer kernels
the cocycle code calls per evaluation, ``_signature_int`` and
``column_reduce``, take lists of integer rows as they are.

One integer column reduction serves the image, the kernel and the Smith
normal form: ``column_reduce`` eliminates row by row with unimodular
column operations that it also applies to an identity tail, so each pivot
column comes out with a preimage and each column that reduces to zero is
a kernel vector.  ``kernel_basis_int`` is its kernel part, and the rank
is the number of its image columns.

``smith_normal_form`` alternates column passes on D and on its transpose
until D is diagonal, then adds row i + 1 to row i wherever d_i does not
divide d_{i+1}, and goes on.  It ends: after a column pass the top left
entry is the gcd of its row, after a row pass that of its column, so it
shrinks at every pass until its row and column are clear for good, and
the trailing block follows.  Passes keep zero rows and columns last, and
a divisibility step lowers d_i to a proper divisor, keeping d_1..d_{i-1},
so the nonzero diagonal falls lexicographically.

The signature routine diagonalises by symmetric (congruence) row/column
elimination: the pivot is the first nonzero diagonal entry of the trailing
block, and when the whole trailing diagonal vanishes, the first nonzero
off-diagonal entry is split off as a hyperbolic pair contributing zero.
It stays fraction-free; once a pivot is longer than ``CONTENT_BITS``, it
divides the trailing block by the gcd of its entries, so entry lengths stay
bounded instead of doubling at every step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Complex, Number, Real
from operator import mul


class ShapeError(ValueError):
    """Raised when a matrix argument has the wrong shape or symmetry."""


def _rows(M) -> list[list]:
    """The rows of M, any sequence of rows of numbers, as lists."""
    try:
        rows = [list(row) for row in M]
    except TypeError:
        raise ShapeError("expected a 2-d matrix, a sequence of rows") from None
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != width:
            raise ShapeError(f"ragged rows of lengths {width} and {len(row)}")
        # a row of ints alone skips the ABC dispatch of isinstance(x, Number)
        if not set(map(type, row)) <= {int} and not all(isinstance(x, Number) for x in row):
            raise ShapeError("expected a 2-d matrix of numbers")
    return rows


def _integer(x) -> int | None:
    """x as an int if it is a real number of integral value (an int, a bool,
    a Fraction, a float, a NumPy integer, ...), else None: a complex entry,
    NumPy's included, an infinity or a NaN is not an integer."""
    if isinstance(x, Complex) and not isinstance(x, Real):
        return None
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == x else None


def _integers(row: list) -> list:
    """A row of ``_rows`` with each entry as ``_integer`` gives it; a row of
    ints alone is returned as it is."""
    return row if set(map(type, row)) <= {int} else [_integer(x) for x in row]


def is_symmetric(M) -> bool:
    rows = _rows(M)
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))


def _sign(x) -> int:
    return 1 if x > 0 else (-1 if x < 0 else 0)


# forms whose pivots stay this short never pay for the gcd of their entries
CONTENT_BITS = 64


def _signature_int(T: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix, destructively, in place.

    Fraction-free symmetric elimination: one step replaces the trailing
    block by ``q * (Schur complement)`` where ``q`` is the pivot, so the
    stored block equals the true remaining form up to a positive rescaling
    and a running sign that we track in ``scale``.  After a pivot longer
    than ``CONTENT_BITS``, the trailing block is divided by its content, a
    positive scalar, which keeps that true.
    """
    n = len(T)
    sig = 0
    scale = 1
    k = 0
    q = 0  # the last pivot

    def swap(a: int, b: int) -> None:
        T[a], T[b] = T[b], T[a]
        for row in T:
            row[a], row[b] = row[b], row[a]

    while k < n:
        if q.bit_length() > CONTENT_BITS:
            _divide_content(T, k)
        piv = next((i for i in range(k, n) if T[i][i] != 0), None)
        if piv is not None:
            if piv != k:
                swap(piv, k)
            q = T[k][k]
            sig += scale * _sign(q)
            for i in range(k + 1, n):
                Tik = T[i][k]
                rowk = T[k]
                rowi = T[i]
                for j in range(k + 1, n):
                    rowi[j] = q * rowi[j] - Tik * rowk[j]
            scale *= _sign(q)
            k += 1
            continue
        pair = None
        for i in range(k, n):
            for j in range(i + 1, n):
                if T[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break  # trailing block is zero
        i, j = pair
        if i != k:
            swap(i, k)
        if j != k + 1:
            swap(j, k + 1)
        # hyperbolic pair: one positive and one negative eigenvalue, net 0
        q = T[k][k + 1]
        for a in range(k + 2, n):
            Tak, Tak1 = T[a][k], T[a][k + 1]
            rowk, rowk1, rowa = T[k], T[k + 1], T[a]
            for b in range(k + 2, n):
                rowa[b] = q * rowa[b] - Tak * rowk1[b] - Tak1 * rowk[b]
        scale *= _sign(q)
        k += 2
    return sig


def _divide_content(T: list[list[int]], k: int) -> None:
    """Divide the trailing block T[k:][k:] by the gcd of its entries."""
    c = gcd(*(x for row in T[k:] for x in row[k:]))
    if c > 1:
        for row in T[k:]:
            row[k:] = [x // c for x in row[k:]]


def signature_of_symmetric(M) -> int:
    """Signature (positive minus negative eigenvalue count) of a symmetric
    rational matrix, computed exactly by congruence diagonalisation."""
    try:
        rows = [[Fraction(x) for x in row] for row in _rows(M)]
    except (TypeError, ValueError, OverflowError):  # complex, infinite or NaN
        raise ShapeError("signature needs a matrix of finite real numbers") from None
    r = len(rows)
    c = len(rows[0]) if rows else 0
    if r != c:
        raise ShapeError(f"signature needs a square matrix, got {r}x{c}")
    if not is_symmetric(rows):
        raise ShapeError("signature needs a symmetric matrix")
    # clear denominators: L*M is integer and congruent-in-signature for L > 0
    L = lcm(*(x.denominator for row in rows for x in row))
    return _signature_int([[int(x * L) for x in row] for row in rows])


def column_reduce(M) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Integer column reduction of an m x n integer matrix.

    Returns ``(image, preimages, kernel)``: the columns of ``image`` are a
    lattice basis of the column lattice M Z^n, in column echelon form;
    ``preimages[k]`` is an integer vector with M preimages[k] = image[k];
    ``kernel`` is a lattice basis of the integer kernel.  Only unimodular
    column operations are used, each applied to the matrix part and to an
    identity tail, so the tails of the preimages and the kernel vectors
    together form a unimodular n x n matrix.  Takes a sequence of integer
    rows as is, unchecked.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    # each working column carries its matrix part and an identity tail
    zero = [0] * n
    cols = [[*col, *zero] for col in zip(*M)]
    for j, c in enumerate(cols):
        c[m + j] = 1
    active = list(range(n))
    pivots = []
    for r in range(m):
        while True:
            nz = [j for j in active if cols[j][r]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(cols[j][r]))
            ca = cols[nz[0]]
            p = ca[r]
            for b in nz[1:]:
                cb = cols[b]
                q = cb[r] // p
                cols[b] = [x - q * y for x, y in zip(cb, ca)]
        if nz:
            active.remove(nz[0])
            pivots.append(nz[0])
    return ([cols[j][:m] for j in pivots], [cols[j][m:] for j in pivots],
            [cols[j][m:] for j in active])


def kernel_basis_int(M) -> list[list[int]]:
    """Integer basis of the right null space of an integer matrix: the
    kernel part of ``column_reduce`` (used by the cocycle code, which wants
    integer Gram matrices)."""
    return column_reduce(M)[2]


def smith_normal_form(A) -> tuple[tuple, tuple, tuple]:
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    non-negative entries satisfying d_i | d_{i+1}; all three are tuple
    matrices.  An entry that is not an integer raises ShapeError.
    """
    rows = _rows(A)
    D = [_integers(row) for row in rows]
    for i, row in enumerate(D):
        if None in row:
            j = row.index(None)
            raise ShapeError(f"Smith normal form needs integer entries, "
                             f"got {rows[i][j]} at ({i}, {j})")
    m, n = len(D), len(D[0]) if D else 0
    if not n:
        U = [[int(i == j) for j in range(m)] for i in range(m)]
        return tuple(tuple(map(tuple, X)) for X in (U, D, ()))
    # U is kept transposed, so that both passes reduce columns
    Ut = V = None  # the identities, until the first pass
    while True:
        Dt, V = _column_pass(D, V)
        D, Ut = _column_pass(Dt, Ut)
        if any(x for i, row in enumerate(D) for j, x in enumerate(row) if i != j):
            continue
        d = [D[i][i] for i in range(min(m, n))]
        i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if i is None:
            break
        D[i] = [a + b for a, b in zip(D[i], D[i + 1])]
        for row in Ut:
            row[i] += row[i + 1]
    U = [list(row) for row in zip(*Ut)]
    for i, di in enumerate(d):
        if di < 0:
            D[i] = [-x for x in D[i]]
            U[i] = [-x for x in U[i]]
    return tuple(tuple(map(tuple, X)) for X in (U, D, V))


def _column_pass(X, W):
    """``column_reduce`` gives X T = [image | 0], T unimodular, the matrix of
    its tails.  Returns [image | 0] transposed, and W T (T for W None)."""
    image, pre, ker = column_reduce(X)
    T = pre + ker  # the columns of T
    WT = zip(*T) if W is None else ([sum(map(mul, row, t)) for t in T] for row in W)
    return image + [[0] * len(X)] * len(ker), [list(row) for row in WT]
