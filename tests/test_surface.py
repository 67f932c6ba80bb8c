import numpy as np
import pytest

from blfsig import ratlin, surface
from blfsig.surface import TypeI, TypeII
from blfsig.verify import random_word
from blfsig.words import IOTA, ChainTwist, SeparatingTwist, Word, chain_word, gen_word


def twist(i, g):
    return surface.twist_matrix(surface.chain_class(i, g), g)


class TestChainClasses:
    def test_examples_genus_2(self):
        assert surface.chain_class(1, 2).tolist() == [1, 0, 0, 0]   # a_1
        assert surface.chain_class(4, 2).tolist() == [0, 0, 0, 1]   # b_2
        assert surface.chain_class(3, 2).tolist() == [1, 0, 1, 0]   # a_1 + a_2

    def test_end_curves(self):
        for g in (1, 2, 3):
            assert (surface.chain_class(1, g) == surface.basis_a(1, g)).all()
            assert (surface.chain_class(2 * g + 1, g) == surface.basis_a(g, g)).all()

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
        M = surface.twist_matrix([0, 0, 0, 0], 2)
        assert (M == ratlin.identity(4)).all()

    def test_genus_one_transvection(self):
        # a -> a, b -> b - a
        M = surface.twist_matrix(surface.basis_a(1, 1), 1)
        assert M.tolist() == [[1, -1], [0, 1]]

    def test_twists_are_symplectic(self):
        for g in (1, 2, 3):
            for i in range(1, 2 * g + 2):
                assert surface.is_symplectic(twist(i, g), g)

    def test_twist_sign_invariance(self):
        for g in (1, 2):
            for i in range(1, 2 * g + 2):
                c = surface.chain_class(i, g)
                assert (surface.twist_matrix(c, g) ==
                        surface.twist_matrix(-c, g)).all()

    def test_braid_relations(self):
        for g in (1, 2, 3, 4):
            A = [twist(i, g) for i in range(1, 2 * g + 2)]
            for i in range(len(A) - 1):
                assert ((A[i] @ A[i + 1] @ A[i]) ==
                        (A[i + 1] @ A[i] @ A[i + 1])).all()
            for i in range(len(A)):
                for j in range(i + 2, len(A)):
                    assert ((A[i] @ A[j]) == (A[j] @ A[i])).all()

    def test_chain_relation(self):
        # (t_1 ... t_{2g-1})^{2g} = t_{2g+1}^2
        for g in (1, 2, 3, 4):
            P = ratlin.identity(2 * g)
            for i in range(1, 2 * g):
                P = P @ twist(i, g)
            lhs = ratlin.identity(2 * g)
            for _ in range(2 * g):
                lhs = lhs @ P
            rhs = twist(2 * g + 1, g) @ twist(2 * g + 1, g)
            assert (lhs == rhs).all()


class TestWordToMatrix:
    def test_empty_word(self):
        assert (surface.word_to_matrix(Word(2)) == ratlin.identity(4)).all()

    def test_word_times_inverse(self, rng):
        for _ in range(20):
            g = rng.randint(1, 3)
            items = tuple((ChainTwist(rng.randint(1, 2 * g + 1)),
                           rng.choice([-2, -1, 1, 2])) for _ in range(6))
            w = Word(g, items)
            M = surface.word_to_matrix(w * w.inverse())
            assert (M == ratlin.identity(2 * g)).all()

    def test_chain_relation_via_words(self):
        g = 2
        lhs = chain_word(g, [1, 2, 3], 1) ** 4
        rhs = gen_word(g, ChainTwist(5), 2)
        assert (surface.word_to_matrix(lhs) == surface.word_to_matrix(rhs)).all()

    def test_iota_central_and_involutive(self, rng):
        for g in (1, 2, 3):
            I2 = surface.word_to_matrix(gen_word(g, IOTA, 2))
            assert (I2 == ratlin.identity(2 * g)).all()
            M = surface.word_to_matrix(gen_word(g, IOTA))
            for i in range(1, 2 * g + 2):
                assert ((M @ twist(i, g)) == (twist(i, g) @ M)).all()

    def test_structured_powers_match_flat(self, rng):
        for _ in range(10):
            g = 2
            inner = Word(g, tuple((ChainTwist(rng.randint(1, 5)), 1)
                                  for _ in range(3)))
            e = rng.choice([-3, -2, 2, 5])
            flat = Word(g)
            for _ in range(abs(e)):
                flat = flat * (inner if e > 0 else inner.inverse())
            assert (surface.word_to_matrix(inner ** e) ==
                    surface.word_to_matrix(flat)).all()


def nested_random_word(rng, g):
    inner = random_word(rng, g, rng.randrange(1, 4))
    outer = random_word(rng, g, rng.randrange(0, 4))
    return outer * Word(g, ((inner, rng.choice([-3, -2, 2, 4])),)) * random_word(rng, g, 2)


def reference_matrix(w):
    """Letter by letter with numpy: I - c c^T J for a twist, -I for iota."""
    g = w.genus
    J = surface.intersection_matrix(g)
    M = ratlin.identity(2 * g)
    for gen, sign in w.letters():
        if isinstance(gen, ChainTwist):
            c = surface.chain_class(gen.index, g)
            T = ratlin.identity(2 * g) - np.outer(c, c) @ J
        else:
            T = -ratlin.identity(2 * g)
        M = M @ (T if sign > 0 else surface.symplectic_inverse(T))
    return M


class TestTupleMatrices:
    def test_word_matrix_matches_letterwise_reference(self, rng):
        for _ in range(30):
            w = nested_random_word(rng, rng.randint(1, 4))
            assert surface.word_to_matrix(w).tolist() == reference_matrix(w).tolist()

    def test_shuffle_inverse(self, rng):
        for _ in range(40):
            g = rng.randint(1, 5)
            w = nested_random_word(rng, g)
            M = surface.word_matrix(w)
            Minv = surface.sp_inverse(M)
            assert Minv == tuple(map(tuple, surface.symplectic_inverse(
                ratlin.as_matrix(M)).tolist()))
            assert surface.mat_mul(M, Minv) == surface.sp_identity(g)
            assert surface.mat_mul(Minv, M) == surface.sp_identity(g)

    def test_returned_array_does_not_alias_the_cache(self):
        w = chain_word(2, [1, 2, 3], 3)
        want = surface.word_to_matrix(w).tolist()
        M = surface.word_to_matrix(w)
        M[0, 0] += 7
        M[1, :] = 0
        assert surface.word_to_matrix(w).tolist() == want
        assert surface.word_matrix(w) == tuple(map(tuple, want))


def dense_product(A, B):
    n = len(B)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
                 for i in range(len(A)))


def sample_factors(rng, g):
    """Random word matrices with the sparse factors the folds multiply by:
    chain twists and their powers, iota, the identity, separating twists."""
    twist_power = Word(g, ((ChainTwist(rng.randint(1, 2 * g + 1)), rng.choice([-5, -1, 2, 7])),))
    words = [random_word(rng, g, rng.randint(1, 8)), nested_random_word(rng, g),
             gen_word(g, ChainTwist(rng.randint(1, 2 * g + 1))), twist_power,
             gen_word(g, IOTA), Word(g)]
    if g >= 2:
        words.append(gen_word(g, SeparatingTwist(rng.randint(1, g - 1))))
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


class TestCurveAction:
    def test_identity_fixes(self):
        c = surface.chain_class(5, 2)
        assert surface.curve_action(ratlin.identity(4), c) == 1

    def test_iota_negates(self):
        c = surface.basis_a(2, 2)
        assert surface.curve_action(surface.iota_matrix(2), c) == -1

    def test_transverse_twist_moves(self):
        # the twist along b_2 sends a_2 to a_2 + b_2
        M = surface.twist_matrix(surface.basis_b(2, 2), 2)
        assert surface.curve_action(M, surface.basis_a(2, 2)) == 0

    def test_cycle_class(self):
        assert (surface.cycle_class(TypeI(), 2) == surface.chain_class(5, 2)).all()
        assert not surface.cycle_class(TypeII(1), 2).any()
