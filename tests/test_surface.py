import time

import numpy as np
import pytest

from blfsig import ratlin, surface
from blfsig.surface import TypeI, TypeII
from blfsig.verify import random_word
from blfsig.words import (IOTA, ChainTwist, Word, chain_word, gen_word, parse_word,
                          pow_by_squaring)
from conftest import arr, eye, numpy_j


def twist(i, g):
    return surface.transvection(surface.chain_class(i, g))


class TestChainClasses:
    def test_examples_genus_2(self):
        assert surface.chain_class(1, 2) == (1, 0, 0, 0)   # a_1
        assert surface.chain_class(4, 2) == (0, 0, 0, 1)   # b_2
        assert surface.chain_class(3, 2) == (1, 0, 1, 0)   # a_1 + a_2

    def test_end_curves(self):
        # [c_1] = a_1 and [c_{2g+1}] = a_g
        for g, a_1, a_g in ((1, (1, 0), (1, 0)),
                            (2, (1, 0, 0, 0), (0, 0, 1, 0)),
                            (3, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0))):
            assert surface.chain_class(1, g) == a_1
            assert surface.chain_class(2 * g + 1, g) == a_g

    def test_intersection_pattern_bruteforce(self):
        # consecutive chain classes pair to +-1, all others to 0
        for g in (1, 2, 3, 4):
            for i in range(1, 2 * g + 2):
                for j in range(1, 2 * g + 2):
                    p = surface.pairing(surface.chain_class(i, g),
                                        surface.chain_class(j, g))
                    assert abs(p) == (1 if abs(i - j) == 1 else 0), (g, i, j)

    def test_classes_primitive(self):
        from math import gcd
        for g in (1, 2, 3):
            for i in range(1, 2 * g + 2):
                entries = [int(x) for x in surface.chain_class(i, g)]
                assert gcd(*entries) == 1 if len(entries) > 1 else entries[0] == 1

    def test_index_range(self):
        with pytest.raises(ValueError):
            surface.chain_class(0, 2)
        with pytest.raises(ValueError):
            surface.chain_class(6, 2)
        with pytest.raises(ValueError):
            surface.chain_class(1, 0)


class TestTwistMatrices:
    def test_null_class_gives_identity(self):
        M = surface.transvection([0, 0, 0, 0])
        assert M == eye(4)

    def test_genus_one_transvection(self):
        # a -> a, b -> b - a
        M = surface.transvection((1, 0))
        assert M == ((1, -1), (0, 1))

    def test_twists_are_symplectic(self):
        for g in (1, 2, 3):
            for i in range(1, 2 * g + 2):
                assert surface.is_symplectic(twist(i, g), g)

    def test_twist_sign_invariance(self):
        for g in (1, 2):
            for i in range(1, 2 * g + 2):
                c = surface.chain_class(i, g)
                assert surface.transvection(c) == surface.transvection([-x for x in c])

    def test_braid_relations(self):
        for g in (1, 2, 3, 4):
            A = [arr(twist(i, g)) for i in range(1, 2 * g + 2)]
            for i in range(len(A) - 1):
                assert ((A[i] @ A[i + 1] @ A[i]) ==
                        (A[i + 1] @ A[i] @ A[i + 1])).all()
            for i in range(len(A)):
                for j in range(i + 2, len(A)):
                    assert ((A[i] @ A[j]) == (A[j] @ A[i])).all()

    def test_chain_relation(self):
        # (t_1 ... t_{2g-1})^{2g} = t_{2g+1}^2
        for g in (1, 2, 3, 4):
            P = arr(eye(2 * g))
            for i in range(1, 2 * g):
                P = P @ arr(twist(i, g))
            lhs = arr(eye(2 * g))
            for _ in range(2 * g):
                lhs = lhs @ P
            rhs = arr(twist(2 * g + 1, g)) @ arr(twist(2 * g + 1, g))
            assert (lhs == rhs).all()


class TestWordToMatrix:
    def test_empty_word(self):
        assert surface.word_to_matrix(Word(2)) == eye(4)

    def test_word_times_inverse(self, rng):
        for _ in range(20):
            g = rng.randint(1, 3)
            items = tuple((ChainTwist(rng.randint(1, 2 * g + 1)),
                           rng.choice([-2, -1, 1, 2])) for _ in range(6))
            w = Word(g, items)
            M = surface.word_to_matrix(w * w.inverse())
            assert M == eye(2 * g)

    def test_chain_relation_via_words(self):
        g = 2
        lhs = chain_word(g, [1, 2, 3], 1) ** 4
        rhs = gen_word(g, ChainTwist(5), 2)
        assert surface.word_to_matrix(lhs) == surface.word_to_matrix(rhs)

    def test_iota_central_and_involutive(self, rng):
        for g in (1, 2, 3):
            I2 = surface.word_to_matrix(gen_word(g, IOTA, 2))
            assert I2 == eye(2 * g)
            M = arr(surface.word_to_matrix(gen_word(g, IOTA)))
            for i in range(1, 2 * g + 2):
                T = arr(twist(i, g))
                assert ((M @ T) == (T @ M)).all()

    def test_structured_powers_match_flat(self, rng):
        for _ in range(10):
            g = 2
            inner = Word(g, tuple((ChainTwist(rng.randint(1, 5)), 1)
                                  for _ in range(3)))
            e = rng.choice([-3, -2, 2, 5])
            flat = Word(g)
            for _ in range(abs(e)):
                flat = flat * (inner if e > 0 else inner.inverse())
            assert surface.word_to_matrix(inner ** e) == surface.word_to_matrix(flat)

    def test_a_shared_nested_word_costs_its_depth(self):
        # w_{k+1} = (w_k) t3 (w_k)^-1 shares w_k twice, so it has 2^depth
        # occurrences of w_0 but 3 items per level; its matrix is the
        # transvection along M_k c_3, M_k the matrix of w_k
        w, M = parse_word("t1 t2", 2), surface.mat_mul(twist(1, 2), twist(2, 2))
        for _ in range(40):
            w = Word(2, ((w, 1), (ChainTwist(3), 1), (w, -1)))
            M = surface.mat_mul(surface.mat_mul(M, twist(3, 2)), surface.sp_inverse(M))
        surface.word_matrix.cache_clear()
        t = time.perf_counter()
        assert surface.word_matrix(w) == M
        assert time.perf_counter() - t < 1.0


def nested_random_word(rng, g):
    inner = random_word(rng, g, rng.randrange(1, 4))
    outer = random_word(rng, g, rng.randrange(0, 4))
    return outer * Word(g, ((inner, rng.choice([-3, -2, 2, 4])),)) * random_word(rng, g, 2)


def reference_matrix(w):
    """Letter by letter with numpy: I - c c^T J for a twist, -I for iota,
    and T^-1 = -J T^T J."""
    g = w.genus
    J = numpy_j(g)
    I = arr(eye(2 * g))
    M = I
    for gen, sign in w.letters():
        if isinstance(gen, ChainTwist):
            c = arr(surface.chain_class(gen.index, g))
            T = I - np.outer(c, c) @ J
        else:
            T = -I
        M = M @ (T if sign > 0 else -J @ T.T @ J)
    return M


class TestTupleMatrices:
    def test_word_matrix_matches_letterwise_reference(self, rng):
        for _ in range(30):
            w = nested_random_word(rng, rng.randint(1, 4))
            assert surface.word_to_matrix(w) == tuple(map(tuple, reference_matrix(w).tolist()))

    def test_shuffle_inverse(self, rng):
        for _ in range(40):
            g = rng.randint(1, 5)
            w = nested_random_word(rng, g)
            M = surface.word_matrix(w)
            Minv = surface.sp_inverse(M)
            J = numpy_j(g)
            assert Minv == tuple(map(tuple, (-J @ arr(M).T @ J).tolist()))
            assert surface.mat_mul(M, Minv) == surface.sp_identity(g)
            assert surface.mat_mul(Minv, M) == surface.sp_identity(g)

    def test_word_to_matrix_is_the_immutable_cached_matrix(self):
        # no copy is needed: a caller cannot write into the cached value
        w = chain_word(2, [1, 2, 3], 3)
        M = surface.word_to_matrix(w)
        assert M == surface.word_matrix(w)
        with pytest.raises(TypeError):
            M[0] = (7, 0, 0, 0)
        with pytest.raises(TypeError):
            M[0][0] += 7
        assert surface.word_to_matrix(w) == surface.word_matrix(w)


def dense_product(A, B):
    n = len(B)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
                 for i in range(len(A)))


def sample_factors(rng, g):
    """Random word matrices with the sparse factors the folds multiply by:
    chain twists and their powers, iota, the identity, separating twists
    (t_1 ... t_{2h})^{4h+2}."""
    twist_power = Word(g, ((ChainTwist(rng.randint(1, 2 * g + 1)), rng.choice([-5, -1, 2, 7])),))
    words = [random_word(rng, g, rng.randint(1, 8)), nested_random_word(rng, g),
             gen_word(g, ChainTwist(rng.randint(1, 2 * g + 1))), twist_power,
             gen_word(g, IOTA), Word(g)]
    if g >= 2:
        h = rng.randint(1, g - 1)
        words.append(chain_word(g, range(1, 2 * h + 1), 4 * h + 2))
    return [surface.word_matrix(w) for w in words]


class TestSparseProducts:
    def test_matches_dense_product(self, rng):
        for g in range(1, 7):
            for _ in range(3):
                mats = sample_factors(rng, g)
                for A in mats:
                    for B in mats:
                        assert surface.mat_mul(A, B) == dense_product(A, B), g

    def test_genus_zero(self):
        assert surface.mat_mul((), ()) == ()

    def test_times_transvection_matches_dense_product(self, rng):
        # any class, primitive or not, any power; rows it does not move stay shared
        for g in range(1, 7):
            for A in sample_factors(rng, g):
                for c in (tuple(rng.randint(-2, 2) for _ in range(2 * g)),
                          surface.chain_class(rng.randint(1, 2 * g + 1), g)):
                    e = rng.choice([1, -1, 2, -3])
                    # x -> x + e <x, c> c is 1 + e c (J c)^T
                    T = arr(eye(2 * g)) + e * np.outer(arr(c), numpy_j(g) @ arr(c))
                    got = surface.times_transvection(A, c, e)
                    assert got == dense_product(A, T.tolist())
                    fixed = [i for i, row in enumerate(A) if not (arr(row) @ arr(c))]
                    assert all(got[i] is A[i] for i in fixed)

    def test_twist_costs_quadratic_multiplications(self, rng, monkeypatch):
        calls = []

        def counting_mul(a, b):
            calls.append(None)
            return a * b

        monkeypatch.setattr(surface, "mul", counting_mul)
        g = 6
        n = 2 * g
        W = surface.word_matrix(random_word(rng, g, 40))
        for i, e in ((1, 1), (2, -1), (7, 5), (2 * g + 1, -3)):
            T = surface.word_matrix(gen_word(g, ChainTwist(i), e))
            for A, B in ((W, T), (T, W)):
                calls.clear()
                assert surface.mat_mul(A, B) == dense_product(A, B)
                # a twist power moves at most two rows and two columns:
                # at most 2n dot products of length n, against n^2 dense
                assert len(calls) <= 2 * n * n < n ** 3


    def test_iota_factor_is_a_negation(self, rng, monkeypatch):
        calls = []

        def counting_mul(a, b):
            calls.append(None)
            return a * b

        monkeypatch.setattr(surface, "mul", counting_mul)
        for g in range(1, 7):
            minus = surface.iota_matrix(g)
            for M in sample_factors(rng, g) + [minus]:
                for A, B in ((M, minus), (minus, M)):
                    calls.clear()
                    assert surface.mat_mul(A, B) == dense_product(A, B)
                    assert not calls
        assert surface.iota_matrix(0) == () == surface.mat_mul((), ())


class TestGeneratorPowers:
    def test_letter_powers_match_the_squaring_fold(self):
        # t_i^e is one transvection scaled by e and iota^e is +-1, equal to
        # the power by squaring and, at small |e|, to the numpy letter fold
        for g in (1, 2, 3, 4):
            for gen in [ChainTwist(i) for i in range(1, 2 * g + 2)] + [IOTA]:
                one = surface.word_matrix(gen_word(g, gen))
                for e in [e for e in range(-64, 65) if e]:
                    want = pow_by_squaring(one, e, surface.mat_mul, surface.sp_inverse)
                    w = gen_word(g, gen, e)
                    assert surface.word_matrix(w) == want, (g, gen, e)
                    if abs(e) <= 3:
                        assert arr(want).tolist() == reference_matrix(w).tolist()

    def test_huge_powers_need_no_product(self, monkeypatch):
        products = []
        mat_mul = surface.mat_mul

        def counting(A, B):
            products.append(1)
            return mat_mul(A, B)

        monkeypatch.setattr(surface, "mat_mul", counting)
        e = -(10 ** 18) - 1
        T = surface.word_matrix(gen_word(3, ChainTwist(2), e))
        assert surface.word_matrix(gen_word(3, IOTA, e)) == surface.iota_matrix(3)
        assert not products
        # x -> x + e <x, b_1> b_1
        assert T == surface.transvection(surface.chain_class(2, 3), e)
        assert (T[0][:2], T[1][:2]) == ((1, 0), (e, 1))


class TestCurveAction:
    def test_identity_fixes(self):
        c = surface.chain_class(5, 2)
        assert surface.curve_action(eye(4), c) == 1

    def test_iota_negates(self):
        c = (0, 0, 1, 0)  # a_2
        assert surface.curve_action(surface.iota_matrix(2), c) == -1

    def test_transverse_twist_moves(self):
        # the twist along b_2 sends a_2 to a_2 + b_2
        M = surface.transvection((0, 0, 0, 1))
        assert surface.curve_action(M, (0, 0, 1, 0)) == 0

    def test_cycle_class(self):
        assert surface.cycle_class(TypeI(), 2) == surface.chain_class(5, 2)
        assert surface.cycle_class(TypeII(1), 2) == (0, 0, 0, 0)


class TestIsSymplectic:
    def test_word_matrices_and_generators(self, rng):
        for g in range(1, 7):
            assert surface.is_symplectic(surface.iota_matrix(g), g)
            assert surface.is_symplectic(numpy_j(g), g)
            for _ in range(3):
                M = surface.word_matrix(random_word(rng, g, 40))
                assert surface.is_symplectic(M) and surface.is_symplectic(M, g)
                # any sequence of rows: lists and numpy arrays too
                assert surface.is_symplectic([list(row) for row in M], g)
                assert surface.is_symplectic(arr(M), g)

    def test_one_changed_entry_is_rejected(self, rng):
        rejected = 0
        for g in (1, 2, 3, 6):
            M = [list(row) for row in surface.word_matrix(random_word(rng, g, 40))]
            J = numpy_j(g)
            for _ in range(10):
                i, j = rng.randrange(2 * g), rng.randrange(2 * g)
                bad = [row[:] for row in M]
                bad[i][j] += rng.choice([-2, -1, 1, 3])
                # some changes stay symplectic (a shear inside a block), so
                # the numpy oracle M^T J M == J decides
                want = (arr(bad).T @ J @ arr(bad) == J).all()
                assert surface.is_symplectic(bad) == want
                rejected += not want
        assert rejected >= 30

    def test_matches_numpy_oracle_on_random_integer_matrices(self, rng):
        # the 2 x 2 symplectic matrices are exactly those of determinant 1
        for _ in range(200):
            M = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            want = (arr(M).T @ numpy_j(1) @ arr(M) == numpy_j(1)).all()
            assert surface.is_symplectic(M) == want == (M[0][0] * M[1][1] - M[0][1] * M[1][0] == 1)

    def test_wrong_genus(self):
        assert not surface.is_symplectic(eye(4), 1)
        assert not surface.is_symplectic(eye(4), 3)
        assert surface.is_symplectic(eye(4), 2)

    @pytest.mark.parametrize("bad", [
        eye(3),                                  # odd size
        ((1, 0, 0), (0, 1, 0)),                  # not square
        ((1, 0, 0, 0), (0, 1), (0, 0, 1, 0), (0, 0, 0, 1)),  # ragged rows
    ])
    def test_shape_errors(self, bad):
        with pytest.raises(ratlin.ShapeError):
            surface.is_symplectic(bad)
