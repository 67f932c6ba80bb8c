"""Shared fixtures and independent oracles for the test suite.

The signature oracle goes through the characteristic polynomial (exact
Faddeev-LeVerrier over Fractions) and Descartes' rule of signs, which
counts roots exactly for real-rooted polynomials; it shares no code with
the congruence-diagonalisation implementation it checks; the same
polynomial gives the determinant oracle.  The rank and kernel oracle is a
reduced row echelon form over the rationals, which shares no code with
the integer column reduction behind ``ratlin.column_reduce`` and
``ratlin.kernel_basis_int``.

The package returns tuple matrices; numpy, a test-only dependency, gives
the oracles and the tests an independent matrix product.  ``arr`` converts
at that boundary, and the random matrices below are numpy arrays, which
the public functions read as sequences of rows.

``bounded_power_base`` draws words whose powers have matrix entries linear
in the exponent, so the word folds can be checked at exponents near 10^12.
``plain_fold`` is the per-datum left fold of the matrices of a Hurwitz
system, the identities of type II data included.  ``meyer.sequence_state``
replaces it with a fold of the type I data's vanishing classes alone: in
windows of 2g as one form each, joined pairwise, with a repeated block
raised by squaring.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from blfsig import locsig, meyer
from blfsig.verify import random_context_word
from blfsig.words import IOTA, chain_word, gen_word


def arr(M) -> np.ndarray:
    """A matrix or vector as a numpy array of Python numbers."""
    return np.array(M, dtype=object)


def eye(n: int) -> tuple:
    """The n x n identity as a tuple matrix, built here, not by the package."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def numpy_j(g: int) -> np.ndarray:
    """J with <a_i, b_i> = +1 in the interleaved basis, built here, not by
    the package."""
    J = np.zeros((2 * g, 2 * g), dtype=object)
    for k in range(g):
        J[2 * k, 2 * k + 1] = 1
        J[2 * k + 1, 2 * k] = -1
    return J


def char_poly(M) -> list[Fraction]:
    """Coefficients of det(xI - M), highest degree first."""
    n = len(M)
    I = arr(eye(n))
    coeffs = [Fraction(1)]
    A = arr([[Fraction(x) for x in row] for row in M])
    Mf = A.copy()
    c = Fraction(-sum(A[i, i] for i in range(n)))
    coeffs.append(c)
    for k in range(2, n + 1):
        A = Mf @ (A + c * I)
        c = Fraction(-sum(A[i, i] for i in range(n)), k)
        coeffs.append(c)
    return coeffs


def det_oracle(M) -> Fraction:
    """det M = (-1)^n char_poly(M)[-1] for an n x n matrix M."""
    return (-1) ** len(M) * char_poly(M)[-1]


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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


def rank_oracle(M) -> int:
    return len(rref([[Fraction(x) for x in row] for row in M])[1])


def _sign_changes(seq) -> int:
    signs = [1 if x > 0 else -1 for x in seq if x != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature_oracle(M) -> int:
    """Eigenvalue-sign count via Descartes' rule on the char polynomial."""
    coeffs = char_poly(M)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()  # zero eigenvalues
    n = len(coeffs) - 1
    pos = _sign_changes(coeffs)
    neg = _sign_changes([c * (-1) ** (n - i) for i, c in enumerate(coeffs)])
    return pos - neg


def random_symmetric(rng: random.Random, n: int, fractions=True):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if fractions:
                v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            else:
                v = rng.randint(-6, 6)
            M[i][j] = M[j][i] = v
    return arr(M)


def random_unimodular(rng: random.Random, n: int, ops: int = 12):
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        P[i] = [a + k * b for a, b in zip(P[i], P[j])]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        P[i] = [-a for a in P[i]]
    return arr(P)


def random_int_matrix(rng: random.Random, m: int, n: int):
    return arr([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])


@pytest.fixture
def rng():
    return random.Random(12345)


def bounded_power_base(rng, ctx):
    """A stabiliser word whose powers have matrix entries linear in the
    exponent: a conjugated run of consecutive allowed chain twists, or iota."""
    gens = locsig.generators(ctx)
    if IOTA in gens and rng.random() < 0.15:
        return gen_word(ctx.genus, IOTA)
    indices = [gen.index for gen in gens if gen != IOTA]
    a = rng.randrange(len(indices))
    b = a
    while b + 1 < len(indices) and indices[b + 1] == indices[b] + 1 and rng.random() < 0.6:
        b += 1
    u = random_context_word(rng, ctx, rng.randrange(0, 3))
    return u * chain_word(ctx.genus, indices[a:b + 1]) * u.inverse()


def plain_fold(mats):
    """The per-datum left fold of a nonempty sequence of symplectic
    matrices, with numpy products and the public ``meyer.tau``:
    (-Sum_k tau(P_{k-1}, M_k), P_n) as a pair of an int and nested lists."""
    c, P = 0, arr(mats[0])
    for M in mats[1:]:
        c -= meyer.tau(P.tolist(), M)
        P = P @ arr(M)
    return c, P.tolist()
