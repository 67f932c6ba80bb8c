import random
import time
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blfsig import ratlin
from conftest import (
    arr, det_oracle, eye, random_int_matrix, random_symmetric, random_unimodular, rank_oracle,
    rref, signature_oracle,
)


def random_small_symmetric(rng, n, zero_diagonal=False):
    """Symmetric integer n x n matrix with entries in -3..3."""
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + int(zero_diagonal), n):
            M[i][j] = M[j][i] = rng.randint(-3, 3)
    return M


def shuffled_sum_with_hyperbolic(rng, r, h, shift):
    """R + H, with R random r x r plus shift on its diagonal and
    H = (0 B; B^T 0) for a random h x h block B, conjugated by a random
    permutation."""
    n = r + 2 * h
    M = [[0] * n for _ in range(n)]
    R = random_small_symmetric(rng, r)
    for i in range(r):
        M[i][:r] = R[i]
        M[i][i] += shift
    for i in range(h):
        for j in range(h):
            M[r + i][r + h + j] = M[r + h + j][r + i] = rng.randint(-3, 3)
    p = list(range(n))
    rng.shuffle(p)
    return [[M[p[i]][p[j]] for j in range(n)] for i in range(n)]


class TestSignature:
    def test_single_positive_entry(self):
        assert ratlin.signature_of_symmetric([[2]]) == 1

    def test_mixed_diagonal(self):
        assert ratlin.signature_of_symmetric([[1, 0], [0, -3]]) == 0

    def test_hyperbolic_pair(self):
        # eigenvalues +-1 by hand
        assert ratlin.signature_of_symmetric([[0, 1], [1, 0]]) == 0

    def test_definite(self):
        assert ratlin.signature_of_symmetric([[-1, 0], [0, -1]]) == -2
        assert ratlin.signature_of_symmetric(eye(5)) == 5

    def test_fractional_entries(self):
        M = [[F(1, 2), F(1, 3)], [F(1, 3), F(-5, 7)]]
        assert ratlin.signature_of_symmetric(M) == signature_oracle(M)

    def test_rejects_nonsquare(self):
        with pytest.raises(ratlin.ShapeError):
            ratlin.signature_of_symmetric([[1, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ratlin.ShapeError):
            ratlin.signature_of_symmetric([[0, 1], [2, 0]])

    @pytest.mark.parametrize("x", [float("inf"), float("nan"), 1j, np.complex128(2)])
    def test_rejects_complex_and_non_finite_entries(self, x):
        # inf gave OverflowError and 1j TypeError from Fraction()
        with pytest.raises(ratlin.ShapeError,
                           match="^signature needs a matrix of finite real numbers$"):
            ratlin.signature_of_symmetric([[1, 0], [0, x]])

    def test_congruence_invariance(self, rng):
        for _ in range(60):
            n = rng.randint(1, 8)
            M = random_symmetric(rng, n)
            P = random_unimodular(rng, n)
            assert ratlin.signature_of_symmetric(P @ M @ P.T) == \
                ratlin.signature_of_symmetric(M)

    def test_signature_bounded_by_rank(self, rng):
        for _ in range(40):
            n = rng.randint(1, 6)
            M = random_symmetric(rng, n)
            assert abs(ratlin.signature_of_symmetric(M)) <= rank_oracle(M) <= n

    def test_against_charpoly_oracle(self, rng):
        for _ in range(80):
            n = rng.randint(1, 5)
            M = random_symmetric(rng, n)
            assert ratlin.signature_of_symmetric(M) == signature_oracle(M)

    def test_large_forms_against_oracle(self, rng):
        # zero diagonals force hyperbolic steps: in the first case at the
        # start, in the second for the whole hyperbolic block H once the
        # random block R is eliminated, by which time H carries the product
        # of R's pivots as content
        for n in (16, 24):
            M = random_small_symmetric(rng, n, zero_diagonal=True)
            assert ratlin.signature_of_symmetric(M) == signature_oracle(M)
        for n, shift in ((16, 4), (20, -4)):
            M = shuffled_sum_with_hyperbolic(rng, n // 2, n // 4, shift)
            assert ratlin.signature_of_symmetric(M) == signature_oracle(M)

    def test_entries_stay_bounded(self):
        # took over 10 s when elimination never divided earlier pivots out
        M = random_small_symmetric(random.Random(1), 24)
        t = time.perf_counter()
        ratlin.signature_of_symmetric(M)
        assert time.perf_counter() - t < 2.0


class TestSmithNormalForm:
    def check(self, A):
        A = arr(A)
        U, D, V = map(arr, ratlin.smith_normal_form(A))
        assert (U @ A @ V == D).all()
        assert det_oracle(U) in (1, -1) and det_oracle(V) in (1, -1)
        m, n = D.shape
        diag = [D[i, i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i, j] == 0
        for d in diag:
            assert d >= 0
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        return diag

    def test_identity(self):
        assert self.check([[1, 0], [0, 1]]) == [1, 1]

    def test_diag_4_6(self):
        # brute-force oracle over unimodular operations gives diag(2, 12)
        assert self.check([[4, 0], [0, 6]]) == [2, 12]

    def test_column_vector(self):
        # gcd(12, -12) = 12
        U, D, V = ratlin.smith_normal_form([[12], [-12]])
        assert D == ((12,), (0,))
        self.check([[12], [-12]])

    def test_non_integer_entries_rejected(self):
        # truncated by int() they gave D = diag(2, 0) and ((1,),)
        with pytest.raises(ratlin.ShapeError, match=r"1/2 at \(0, 0\)"):
            ratlin.smith_normal_form([[F(1, 2), 0], [0, F(7, 3)]])
        with pytest.raises(ratlin.ShapeError, match=r"1\.9 at \(0, 0\)"):
            ratlin.smith_normal_form([[1.9]])
        with pytest.raises(ratlin.ShapeError, match=r"7/3 at \(1, 1\)"):
            ratlin.smith_normal_form([[1, 0], [0, F(7, 3)]])
        # a complex or non-finite entry is no integer either: they raised
        # TypeError, OverflowError and a bare ValueError, and a NumPy 2 + 0j
        # passed as 2
        for M, got in (([[1j]], "1j at (0, 0)"), ([[float("inf")]], "inf at (0, 0)"),
                       ([[float("nan")]], "nan at (0, 0)"),
                       (np.array([[2 + 0j]]), "(2+0j) at (0, 0)"),
                       ([[1, 0], [0, -1j]], "(-0-1j) at (1, 1)")):
            with pytest.raises(ratlin.ShapeError) as e:
                ratlin.smith_normal_form(M)
            assert str(e.value) == f"Smith normal form needs integer entries, got {got}"
        # integral entries of any number type still pass
        A = [[F(4), 2.0], [np.int64(6), 8]]
        assert ratlin.smith_normal_form(A)[1] == ((2, 0), (0, 10))
        assert self.check(A) == [2, 10]

    def test_random(self, rng):
        for _ in range(60):
            A = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            self.check(A)

    @given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=8),
                    min_size=1, max_size=8).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_recomposition_property(self, rows):
        self.check(rows)

    @pytest.mark.parametrize("n", [6, 7, 8, 12, 24])
    def test_no_blowup_on_larger_matrices(self, n):
        # the 6 x 6 matrix from seed 3 and the 7 x 7 one from seed 1 did not
        # finish under a min-pivot elimination, whose entries grew without
        # bound
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            t = time.perf_counter()
            ratlin.smith_normal_form(A)
            assert time.perf_counter() - t < 1.0, (n, seed)
            self.check(A)

    def test_determinantal_divisors(self):
        """d_1 ... d_k is the gcd of the k x k minors, each minor taken from
        conftest's characteristic polynomial (``det_oracle``)."""
        rng = random.Random(2024)
        for trial in range(120):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            if trial % 3 == 0 and m > 1:
                # rank-deficient: one row a multiple of another
                a, c = rng.sample(range(m), 2)
                k = rng.randint(-2, 2)
                A[c] = [k * x for x in A[a]]
            d = self.check(A)
            prev = 1
            for k in range(1, min(m, n) + 1):
                minors = [det_oracle([[A[i][j] for j in cols] for i in rows])
                          for rows in combinations(range(m), k)
                          for cols in combinations(range(n), k)]
                Dk = gcd(*(int(x) for x in minors))
                assert d[k - 1] == (Dk // prev if Dk else 0), (A, k)
                prev = Dk or 1


class TestKernel:
    def test_identity_injective(self):
        assert ratlin.kernel_basis_int(eye(3)) == []

    def test_zero_matrix(self):
        basis = ratlin.kernel_basis_int(((0, 0), (0, 0)))
        assert len(basis) == 2

    def test_single_equation(self):
        (v,) = ratlin.kernel_basis_int([[1, 1]])
        # spans the line through (1, -1)
        assert v[0] * (-1) == v[1] and v[0] != 0

    def test_kernel_vectors_annihilated(self, rng):
        for _ in range(40):
            A = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            for v in ratlin.kernel_basis_int(A):
                assert all(x == 0 for x in A @ arr(v))

    def test_column_reduce_image_and_kernel(self, rng):
        for _ in range(40):
            m, n, k = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 4)
            A = random_int_matrix(rng, m, k) @ random_int_matrix(rng, k, n)
            image, preimages, kernel = ratlin.column_reduce(A.tolist())
            assert len(image) == rank_oracle(A)
            assert len(kernel) == n - len(image)
            for e, y in zip(image, preimages):
                assert [sum(A[i, j] * y[j] for j in range(n)) for i in range(m)] == e
            for v in kernel:
                assert all(sum(A[i, j] * v[j] for j in range(n)) == 0 for i in range(m))
            # the tails are one unimodular change of basis: image and kernel
            # are lattice bases, not just rational ones
            assert det_oracle(preimages + kernel) in (1, -1)
            assert ratlin.column_reduce(A) == (image, preimages, kernel)

    def test_kernel_dimension_matches_rank(self, rng):
        for _ in range(30):
            A = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
            n = A.shape[1]
            assert len(ratlin.kernel_basis_int(A)) == n - rank_oracle(A)


class TestRankAndKernelAgainstRref:
    """The rank and the kernel come from the integer column reduction; the
    oracle is a reduced row echelon form over Q, which it does not use."""

    def check(self, M):
        n = len(M[0]) if len(M) else 0
        r = rank_oracle(M)
        assert len(ratlin.column_reduce(M)[0]) == r
        basis = ratlin.kernel_basis_int(M)
        assert len(basis) == n - r
        for v in basis:
            assert all(type(x) is int for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in M)
        # a basis, not just a spanning set: full rank as the rows of a matrix
        if basis:
            assert rank_oracle(basis) == len(basis)

    def test_random_integer_matrices(self, rng):
        for _ in range(80):
            m, n = rng.randint(1, 6), rng.randint(1, 7)
            self.check(random_int_matrix(rng, m, n))
            # integer matrices of lower rank, as products
            k = rng.randint(1, 3)
            self.check(random_int_matrix(rng, m, k) @ random_int_matrix(rng, k, n))

    def test_zero_rows(self):
        for m, n in ((1, 1), (1, 4), (3, 2), (4, 4)):
            M = [[0] * n for _ in range(m)]
            self.check(M)
            assert ratlin.kernel_basis_int(M) == [list(row) for row in eye(n)]

    def test_no_rows(self):
        # m = 0: a sequence of no rows has no width, so the kernel is empty
        assert ratlin.column_reduce([]) == ([], [], []) and rank_oracle([]) == 0
        assert ratlin.kernel_basis_int([]) == []
        assert ratlin.kernel_basis_int(()) == []

    def test_oracle_pivots(self):
        # the oracle itself on a hand example: x + 2y = 0, z free of y
        rows, pivots = rref([[F(1), F(2), F(0)], [F(2), F(4), F(1)]])
        assert pivots == [0, 2]
        assert rows == [[1, 2, 0], [0, 0, 1]]


class TestMatrixArguments:
    """The public functions read any sequence of rows and return tuples."""

    def test_rows_of_any_sequence_type(self, rng):
        for _ in range(20):
            M = random_symmetric(rng, rng.randint(1, 5))
            forms = (M, M.tolist(), tuple(map(tuple, M.tolist())))
            assert len({ratlin.signature_of_symmetric(X) for X in forms}) == 1
            A = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            forms = (A, A.tolist(), tuple(map(tuple, A.tolist())))
            assert len({ratlin.smith_normal_form(X) for X in forms}) == 1

    def test_tuple_results(self):
        U, D, V = ratlin.smith_normal_form([[4, 0], [0, 6]])
        assert D == ((2, 0), (0, 12))
        assert all(type(X) is tuple and all(type(row) is tuple for row in X)
                   for X in (U, D, V))

    @pytest.mark.parametrize("bad", [
        [[1, 2], [3]],          # ragged
        [1, 2],                 # 1-d
        [[[1]], [[2]]],         # 3-d
        5,                      # not a sequence
    ])
    def test_shape_errors(self, bad):
        for fn in (ratlin.signature_of_symmetric, ratlin.smith_normal_form,
                   ratlin.is_symmetric):
            with pytest.raises(ratlin.ShapeError):
                fn(bad)
