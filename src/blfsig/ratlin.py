"""Exact linear algebra over the rationals and the integers.

Every computation in this package reduces to small dense exact problems:
signatures of symmetric bilinear forms, Smith normal forms of presentation
matrices, and rational kernels.  The public functions take any nested
sequence of rows and return numpy arrays with ``dtype=object`` whose
entries are Python ints or ``fractions.Fraction``, so there is no floating
point anywhere and no bound on entry size.  The integer kernels the cocycle
code calls per evaluation, ``_signature_int`` and ``column_reduce``, work
on and return lists of lists; the symplectic hot path itself keeps its
matrices as tuples of row tuples (see ``surface``).

One integer column reduction serves both the image and the kernel:
``column_reduce`` eliminates row by row with unimodular column operations
that it also applies to an identity tail, so each pivot column comes out
with a preimage and each column that reduces to zero is a kernel vector.
``kernel_basis_int`` is its kernel part.

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

import numpy as np


class ShapeError(ValueError):
    """Raised when a matrix argument has the wrong shape or symmetry."""


def as_matrix(rows) -> np.ndarray:
    """Copy the input into a 2-d ``dtype=object`` numpy array."""
    M = np.array(rows, dtype=object)
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={M.ndim}")
    return M


def identity(n: int) -> np.ndarray:
    M = np.zeros((n, n), dtype=object)
    for i in range(n):
        M[i, i] = 1
    return M


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=object)


def is_symmetric(M: np.ndarray) -> bool:
    r, c = M.shape
    if r != c:
        return False
    return all(M[i, j] == M[j, i] for i in range(r) for j in range(i + 1, r))


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
    M = as_matrix(M)
    r, c = M.shape
    if r != c:
        raise ShapeError(f"signature needs a square matrix, got {r}x{c}")
    if not is_symmetric(M):
        raise ShapeError("signature needs a symmetric matrix")
    if r == 0:
        return 0
    # clear denominators: L*M is integer and congruent-in-signature for L > 0
    L = lcm(*[int(M[i, j].denominator) for i in range(r) for j in range(r)]) if r else 1
    T = [[int(M[i, j] * L) for j in range(r)] for i in range(r)]
    return _signature_int(T)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(M) -> int:
    M = as_matrix(M)
    rows = [[Fraction(x) for x in row] for row in M]
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def kernel_basis(M) -> list[np.ndarray]:
    """Basis of the right null space of a rational matrix.

    Returns one vector per free column of the reduced row echelon form;
    the list is empty exactly when the matrix is injective.
    """
    M = as_matrix(M)
    m, n = M.shape
    if m == 0:
        return [np.array([1 if j == f else 0 for j in range(n)], dtype=object)
                for f in range(n)]
    rows = [[Fraction(x) for x in row] for row in M]
    rows, pivots = _rref(rows)
    basis = []
    pivot_set = set(pivots)
    for f in range(n):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][f]
        basis.append(np.array(v, dtype=object))
    return basis


def column_reduce(M) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Integer column reduction of an m x n integer matrix.

    Returns ``(image, preimages, kernel)``: the columns of ``image`` are a
    lattice basis of the column lattice M Z^n, in column echelon form;
    ``preimages[k]`` is an integer vector with M preimages[k] = image[k];
    ``kernel`` is a lattice basis of the integer kernel.  Only unimodular
    column operations are used, each applied to the matrix part and to an
    identity tail, so the tails of the preimages and the kernel vectors
    together form a unimodular n x n matrix.  Takes a list of rows as is,
    or a numpy array, whose entries are converted to ints.
    """
    if isinstance(M, np.ndarray):
        if M.ndim != 2:
            raise ShapeError(f"expected a 2-d matrix, got ndim={M.ndim}")
        m, n = M.shape
        rows = [[int(x) for x in row] for row in M.tolist()]
    else:
        rows = M
        m = len(rows)
        n = len(rows[0]) if m else 0
    # each working column carries its matrix part and an identity tail
    zero = [0] * n
    cols = [[*col, *zero] for col in zip(*rows)] if m else [zero[:] for _ in range(n)]
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


def det(M):
    """Exact determinant via fraction elimination."""
    M = as_matrix(M)
    r, c = M.shape
    if r != c:
        raise ShapeError("determinant needs a square matrix")
    rows = [[Fraction(x) for x in row] for row in M]
    d = Fraction(1)
    for k in range(r):
        pr = next((i for i in range(k, r) if rows[i][k] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != k:
            rows[k], rows[pr] = rows[pr], rows[k]
            d = -d
        d *= rows[k][k]
        inv = 1 / rows[k][k]
        for i in range(k + 1, r):
            if rows[i][k] != 0:
                f = rows[i][k] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return d


def is_unimodular(M) -> bool:
    return abs(det(M)) == 1


def smith_normal_form(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    non-negative entries satisfying d_i | d_{i+1}.
    """
    A = as_matrix(A)
    m, n = A.shape
    D = [[int(x) for x in row] for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        D[a], D[b] = D[b], D[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in D:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, q):
        # row_dst -= q * row_src
        D[dst] = [a - q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in D:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    t = 0
    while True:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)

        while True:
            # euclidean descent on the pivot cross
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    add_row(i, t, q)
                    if D[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(j, t, q)
                    if D[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block
            viol = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t]:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            add_row(t, viol, -1)

        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
        if t == min(m, n):
            break

    return (np.array(U, dtype=object), np.array(D, dtype=object),
            np.array(V, dtype=object))

