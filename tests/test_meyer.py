import random
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest

from blfsig import locsig, meyer, ratlin, surface
from blfsig.surface import TypeI
from blfsig.verify import random_symplectic, random_word
from blfsig.words import (IOTA, ChainTwist, Word, WordError, chain_word, evaluate, gen_word,
                          pow_by_squaring, reduce_word)
from conftest import arr, bounded_power_base, eye, numpy_j, plain_fold


def twist(i, g):
    return surface.transvection(surface.chain_class(i, g))


def separating_twist(g, h):
    """The twist along the standard separating curve of genus h, written as
    the chain word (t_1 ... t_{2h})^{4h+2}."""
    return chain_word(g, range(1, 2 * h + 1), 4 * h + 2)


def full_space_form(A, B):
    """Oracle: Gram matrix of (x1 + y1)^T J (1 - B) y2 on an integer basis
    of the whole of V_{A,B} = ker (A^-1 - 1 | B - 1), of dimension 2g to 4g,
    with A^-1 = -J A^T J and J as numpy products rather than shuffles."""
    A, B = arr(A), arr(B)
    n = A.shape[0]
    I = arr(eye(n))
    J = numpy_j(n // 2)
    K = np.hstack([-J @ A.T @ J - I, B - I])
    P = J @ (I - B)
    kern = [arr(v) for v in ratlin.kernel_basis_int(K.tolist())]
    return [[int((v[:n] + v[n:]) @ P @ w[n:]) for w in kern] for v in kern]


def oracle_tau(A, B):
    return -ratlin.signature_of_symmetric(full_space_form(A, B))


def meyer_gram(A, B):
    """The integer Gram matrix that ``meyer`` builds for tau(A, B), on
    vectors whose images span W = Im(A^-1 - 1) ∩ Im(B - 1); its signature
    is -tau(A, B)."""
    return meyer._gram(*meyer._symplectic_pair(A, B))


def phi_by_fraction_fold(w: Word) -> F:
    """The fold that ``meyer.phi`` replaces by a generator sum plus
    ``meyer.correction``: states (phi, matrix) in the central extension
    Q x_tau Sp(2g, Z), phi(uv) = phi(u) + phi(v) - tau(u, v), where the
    inverse pays tau(M, M^-1) instead of relying on its vanishing."""
    g = w.genus

    def combine(a, b):
        return (a[0] + b[0] - meyer._tau_cached(a[1], b[1]), surface.mat_mul(a[1], b[1]))

    def invert(a):
        Minv = surface.sp_inverse(a[1])
        return (-a[0] + meyer._tau_cached(a[1], Minv), Minv)

    def value(gen):
        return (meyer.phi_base(gen, g), surface.word_matrix(gen_word(g, gen)))

    def stretch(letters):
        return reduce(combine, (pow_by_squaring(value(gen), e, combine, invert)
                                for gen, e in letters))

    return evaluate(w, stretch, combine, invert, (F(0), surface.sp_identity(g)))[0]


class TestTau:
    def test_identity_normalization(self, rng):
        for g in (1, 2):
            I = eye(2 * g)
            for _ in range(10):
                B = random_symplectic(rng, g)
                assert meyer.tau(I, B) == 0
                assert meyer.tau(B, I) == 0

    def test_inverse_pairs_vanish(self, rng):
        # forced by phi(1) = 0 and phi(w^-1) = -phi(w); checked on the form
        for g in (1, 2):
            for _ in range(15):
                A = random_symplectic(rng, g)
                assert meyer.tau(A, surface.sp_inverse(A)) == 0

    def test_minus_identity_pair_vanishes(self):
        # the value behind phi(iota) = tau(-1,-1)/2 = 0, which phi_base returns
        for g in range(1, 7):
            I = arr(eye(2 * g))
            assert meyer.tau(-I, -I) == 0
            assert meyer.phi_base(IOTA, g) == 0

    def test_twist_self_value(self):
        # pinned by h(t^2) = -2g/(2g+1), s(t^2) = -1, phi(t) = (g+1)/(2g+1):
        # tau(t, t) = 2 phi(t) - phi(t^2) = +1
        for g in (1, 2, 3):
            T = twist(2 * g + 1, g)
            assert meyer.tau(T, T) == 1

    def test_bound(self, rng):
        for g in (1, 2, 3):
            for _ in range(20):
                A, B = random_symplectic(rng, g), random_symplectic(rng, g)
                assert abs(meyer.tau(A, B)) <= 2 * g

    def test_cocycle_identity(self, rng):
        for g in (1, 2, 3):
            for _ in range(60):
                a, b, c = (arr(random_symplectic(rng, g, rng.randrange(2, 8)))
                           for _ in range(3))
                assert meyer.tau(a, b) + meyer.tau(a @ b, c) == \
                    meyer.tau(b, c) + meyer.tau(a, b @ c)

    def test_swapped_and_inverted_arguments(self, rng):
        # tau(B, A) = tau(A, B) and tau(A^-1, B^-1) = -tau(A, B): the two
        # identities that let a periodic power read half its fold off the
        # other half (see meyer._power)
        for g in (1, 2, 3, 4):
            for _ in range(10):
                A, B = (surface.word_matrix(random_word(rng, g, rng.randrange(1, 9)))
                        for _ in range(2))
                Ai, Bi = surface.sp_inverse(A), surface.sp_inverse(B)
                want = oracle_tau(A, B)
                assert meyer.tau(A, B) == want
                assert meyer.tau(B, A) == oracle_tau(B, A) == want
                assert meyer.tau(Ai, Bi) == oracle_tau(Ai, Bi) == -want

    def test_block_additivity(self, rng):
        # commuting twists in disjoint symplectic blocks contribute separately
        A = surface.word_to_matrix(gen_word(3, ChainTwist(1)))
        B = surface.word_to_matrix(gen_word(3, ChainTwist(6)))
        assert meyer.tau(A, B) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ratlin.ShapeError):
            meyer.tau(eye(2), eye(4))

    def test_non_symplectic_rejected(self):
        M = [[1, 1], [1, 1]]
        with pytest.raises(ValueError):
            meyer.tau(M, eye(2))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            meyer.tau([[1, F(1, 2)], [0, 1]], eye(2))
        with pytest.raises(ratlin.ShapeError):
            meyer.tau([[1, 0], [0]], eye(2))
        with pytest.raises(ratlin.ShapeError):
            meyer.tau(eye(3), eye(3))

    @pytest.mark.parametrize("A, B, name", [
        ([[1, 1j], [0, 1]], [[1, 0], [0, 1]], "first"),
        ([[1 + 0j, 0], [0, 1]], [[1, 0], [0, 1]], "first"),
        ([[1, 0], [0, 1]], [[1, 0], [complex(0, 2), 1]], "second"),
        # int() of a NumPy complex drops a zero imaginary part, with a warning
        (np.array([[1, 1], [0, 1]], dtype=complex), [[1, 1], [0, 1]], "first"),
        ([[1, 0], [0, 1]], np.array([[1, 0], [0, 1]], dtype=np.complex64), "second"),
    ])
    def test_complex_entry_is_not_an_integer_matrix(self, A, B, name):
        with pytest.raises(ValueError, match=rf"^{name} argument is not an integer matrix$"):
            meyer.tau(A, B)

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"),
                                   np.float64("inf"), np.float32("nan")])
    def test_non_finite_entry_is_not_an_integer_matrix(self, x):
        # int() raised OverflowError or "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=r"^first argument is not an integer matrix$"):
            meyer.tau([[1, x], [0, 1]], eye(2))
        with pytest.raises(ValueError, match=r"^second argument is not an integer matrix$"):
            meyer.tau(eye(2), [[1, 0], [x, 1]])

    T = [[1, 1], [0, 1]]
    T4 = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    @pytest.mark.parametrize("A, B, outcome", [
        (T, T, -1),
        (tuple(map(tuple, T)), ((1, 0), (-1, 1)), 0),
        (np.array(T), np.array(T), -1),  # numpy ints are Numbers but not ints
        ([[F(1), F(1)], [F(0), F(1)]], T, -1),
        ([[1, F(1)], [0, True]], T, -1),
        ([[True, True], [False, True]], T, -1),
        ([[True, False], [False, True]], T, 0),
        ([[1.0, 1.0], [0.0, 1.0]], T, -1),
        (T4, T4, -1),
        ([[-1, 0], [0, -1]], [[-1, 0], [0, -1]], 0),
        ([[1, 10 ** 30], [0, 1]], [[1, 0], [-7, 1]], 0),
        ([], [], 0),
        ([[F(1, 2), 0], [0, 2]], T, "ValueError: first argument is not an integer matrix"),
        ([[1.5, 0], [0, 1]], T, "ValueError: first argument is not an integer matrix"),
        ([[1, 1], [0]], T, "ShapeError: ragged rows of lengths 2 and 1"),
        (T, [[1], [0, 1]], "ShapeError: ragged rows of lengths 1 and 2"),
        ([["1", "0"], ["0", "1"]], T, "ShapeError: expected a 2-d matrix of numbers"),
        ([[1, None], [0, 1]], T, "ShapeError: expected a 2-d matrix of numbers"),
        (None, T, "ShapeError: expected a 2-d matrix, a sequence of rows"),
        ([1, 2], T, "ShapeError: expected a 2-d matrix, a sequence of rows"),
        ([[2, 0], [0, 1]], T, "ValueError: first argument is not symplectic"),
        (T, [[1, 2], [3, 4]], "ValueError: second argument is not symplectic"),
        ([[1]], [[1]], "ShapeError: expected a square matrix of even size, got 1 rows"),
        ([[1, 0, 0], [0, 1, 0]], T, "ShapeError: expected a square matrix of even size, got 2 rows"),
        (T, T4, "ShapeError: dimension mismatch: 2 vs 4"),
    ])
    def test_every_argument_keeps_its_outcome(self, A, B, outcome):
        # recorded before a row of plain ints skipped the Number check
        try:
            got = meyer.tau(A, B)
        except ValueError as e:
            got = f"{type(e).__name__}: {e}"
        assert got == outcome

    def test_input_type_does_not_matter(self, rng):
        # a list of lists, a tuple matrix and a numpy array give one value
        for g in (1, 2, 3):
            for _ in range(10):
                A, B = random_symplectic(rng, g), random_symplectic(rng, g)
                values = {meyer.tau(X, Y) for X, Y in (
                    ([list(r) for r in A], [list(r) for r in B]), (A, B), (arr(A), arr(B)))}
                assert len(values) == 1
                assert values == {meyer.tau(arr(A), [list(r) for r in B])}
                assert meyer_gram(arr(A), B) == meyer_gram(A, B)

    def test_form_is_symmetric_gram(self, rng):
        for _ in range(10):
            A, B = random_symplectic(rng, 2), random_symplectic(rng, 2)
            G = meyer_gram(A, B)
            assert ratlin.is_symmetric(G)


class TestReducedForm:
    """tau is computed on W = Im(A^-1 - 1) ∩ Im(B - 1); the oracle builds
    the form on all of V_{A,B}."""

    def test_random_pairs_match_the_full_space_form(self, rng):
        for g in (1, 2, 3, 4):
            for _ in range(25):
                A = random_symplectic(rng, g, rng.randrange(1, 9))
                B = random_symplectic(rng, g, rng.randrange(1, 9))
                assert meyer.tau(A, B) == oracle_tau(A, B)

    def test_special_pairs_match_the_full_space_form(self, rng):
        for g in (1, 2, 3, 4):
            I = arr(eye(2 * g))
            T = arr(twist(rng.randrange(1, 2 * g + 2), g))
            for _ in range(4):
                A = random_symplectic(rng, g)
                A, Ainv = arr(A), arr(surface.sp_inverse(A))
                for X, Y in [(I, A), (A, I), (-I, A), (A, -I), (-I, -I), (T, A), (A, T),
                             (T, T), (A, A), (A, Ainv), (Ainv, A), (A @ T, T),
                             (A, A @ A)]:
                    assert meyer.tau(X, Y) == oracle_tau(X, Y)

    def test_squaring_chain_of_phi_matches_the_full_space_form(self, monkeypatch):
        # phi of two chain-run powers at g = 5 evaluates tau on the repeated
        # squares of each run and on the accumulated products (a run of 2g
        # letters is one window and asks for none)
        g = 5
        calls = []
        cached = meyer._tau_cached

        def recording(At, Bt):
            value = cached(At, Bt)
            calls.append((At, Bt, value))
            return value

        monkeypatch.setattr(meyer, "_tau_cached", recording)
        meyer.phi(chain_word(g, range(1, 2 * g + 1), 4 * g + 2)
                  * chain_word(g, range(2, 2 * g + 2), 2 * g + 1) * gen_word(g, IOTA))
        assert len(calls) > 10
        for At, Bt, value in calls:
            assert value == oracle_tau(At, Bt)

    def test_identity_argument_gives_the_empty_form(self, rng):
        for g in (1, 2, 3):
            I = eye(2 * g)
            for _ in range(5):
                A = random_symplectic(rng, g)
                assert meyer_gram(A, I) == []
                assert meyer_gram(I, A) == []

    def test_form_has_at_most_2g_rows(self, rng):
        for g in (1, 2, 3, 4):
            for _ in range(10):
                A, B = random_symplectic(rng, g), random_symplectic(rng, g)
                G = meyer_gram(A, B)
                assert all(len(row) == len(G) for row in G) and len(G) <= 2 * g
                assert -ratlin.signature_of_symmetric(G) == meyer.tau(A, B)


def power(M, k):
    """M^k by numpy products, inverting through the index shuffle."""
    base = arr(M if k > 0 else surface.sp_inverse(M))
    out = arr(eye(len(M)))
    for _ in range(abs(k)):
        out = out @ base
    return out


def random_class(rng, g):
    while True:
        c = tuple(rng.randint(-2, 2) for _ in range(2 * g))
        if any(c):
            return c


class TestSpecialForms:
    """tau with a transvection second argument (Im(B - 1) = Q e), with two
    transvections, and with B = -1, against the full-space form."""

    @staticmethod
    def check(A, B):
        want = oracle_tau(A, B)
        assert meyer.tau(A, B) == want
        G = meyer_gram(A, B)
        assert len(G) <= len(arr(A))
        assert -ratlin.signature_of_symmetric(G) == want if G else want == 0
        return want

    def test_twist_powers(self, rng):
        for g in range(1, 7):
            A = random_symplectic(rng, g, rng.randrange(2, 9))
            for k in (1, -1, 2, -2, 3, -3, 7, -7):
                T = surface.word_matrix(gen_word(g, ChainTwist(rng.randrange(1, 2 * g + 2)), k))
                self.check(A, T)
                self.check(T, A)

    def test_conjugated_transvections(self, rng):
        for g in range(1, 7):
            for _ in range(3):
                W = random_symplectic(rng, g, rng.randrange(2, 9))
                t = power(twist(rng.randrange(1, 2 * g + 2), g), rng.choice([1, -1, 2]))
                T = arr(W) @ t @ arr(surface.sp_inverse(W))
                A = random_symplectic(rng, g, rng.randrange(2, 9))
                self.check(A, T)
                self.check(T, A)
                assert self.check(T, power(T, -1)) == 0

    def test_transvection_pairs(self, rng):
        # parallel (c and m c, either sign and power) and skew classes
        for g in range(1, 7):
            c = random_class(rng, g)
            d = random_class(rng, g)
            for a in (1, -1, 2, -3):
                for m, b in ((1, 1), (1, -1), (-1, 2), (2, 1), (2, -1), (1, -a)):
                    mc = tuple(m * x for x in c)
                    self.check(power(surface.transvection(c), a),
                               power(surface.transvection(mc), b))
                self.check(power(surface.transvection(c), a), surface.transvection(d))
            for _ in range(6):
                i, j = rng.randrange(1, 2 * g + 2), rng.randrange(1, 2 * g + 2)
                self.check(twist(i, g), power(twist(j, g), rng.choice([1, -1])))

    def test_minus_identity(self, rng):
        for g in range(1, 7):
            minus = surface.iota_matrix(g)
            assert self.check(minus, minus) == 0
            for _ in range(3):
                A = random_symplectic(rng, g, rng.randrange(1, 9))
                self.check(A, minus)
                self.check(minus, A)
                self.check(arr(A) @ arr(minus), minus)
            self.check(twist(1, g), minus)
            G = meyer_gram(A, minus)
            assert len(G) == 2 * g  # a form on the whole of Q^2g, no reduction

    def test_phi_pairs_with_iota_at_genus_6(self, monkeypatch):
        g = 6
        rng = random.Random(12)
        # a flat 12-letter word at g = 6 is one window, so the powers of two
        # of them and their joins ask for the cocycle
        u = random_word(rng, g, 6) * gen_word(g, IOTA) * random_word(rng, g, 5)
        v = random_word(rng, g, 12)
        w = Word(g, ((u, 3), (v, -2), (IOTA, 1), (u, -2), (v, 3)))
        calls = []
        cached = meyer._tau_cached

        def recording(At, Bt):
            calls.append((At, Bt))
            return cached(At, Bt)

        cached.cache_clear()
        monkeypatch.setattr(meyer, "_tau_cached", recording)
        meyer.phi(w)
        monkeypatch.undo()
        assert len(calls) > 10
        assert any(Bt == surface.iota_matrix(g) for _, Bt in calls)
        for At, Bt in calls:
            self.check(At, Bt)

    def test_minus_one_form_needs_no_kernel(self, monkeypatch, rng):
        kernels = []
        kernel = ratlin.kernel_basis_int

        def recording(M):
            kernels.append(M)
            return kernel(M)

        monkeypatch.setattr(ratlin, "kernel_basis_int", recording)
        for g in range(1, 7):
            A = random_symplectic(rng, g)
            minus = surface.iota_matrix(g)
            want = oracle_tau(A, minus)
            kernels.clear()
            assert len(meyer._gram(A, minus)) <= 2 * g
            assert meyer._tau_cached.__wrapped__(A, minus) == want
            assert not kernels

    def test_second_argument_is_reduced_once(self, rng):
        for g in (2, 4, 6):
            B = random_symplectic(rng, g)
            meyer._image.cache_clear()
            for _ in range(5):
                A = random_symplectic(rng, g)
                assert meyer._tau_cached.__wrapped__(A, B) == oracle_tau(A, B)
            assert meyer._image.cache_info().misses == 1

    def test_general_form_keeps_its_symmetry_check(self):
        # B - 1 of rank 4 that is not symplectic: Im(B - 1) is no longer
        # omega-orthogonal to ker(B - 1), and the general form says so
        A = ((0, 1, 0, 0), (-1, 4, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1))
        B = ((1, -1, 2, -2), (0, -1, -2, -2), (2, -2, 2, -1), (1, -2, 2, 0))
        assert surface.is_symplectic(A) and not surface.is_symplectic(B)
        with pytest.raises(AssertionError, match="asymmetric"):
            meyer._gram(A, B)


class TestPhi:
    def test_phi_base_values_are_cached_within_a_bound(self):
        meyer.phi_base.cache_clear()
        for g in range(1, 120):
            for gen in (IOTA, *map(ChainTwist, range(1, 2 * g + 2))):
                meyer.phi_base(gen, g)
        info = meyer.phi_base.cache_info()
        assert info.currsize == info.maxsize
        for _ in range(3):  # an error is not kept
            with pytest.raises(WordError, match="t6 out of range for genus 2"):
                meyer.phi_base(ChainTwist(6), 2)
        # the key holds the genus's type: 1.0 is not read off the entry of 1
        assert meyer.phi_base(ChainTwist(1), 1) == F(2, 3)
        with pytest.raises(ValueError, match=r"^genus must be an integer, got 1\.0$"):
            meyer.phi_base(ChainTwist(1), 1.0)

    def test_empty_word(self):
        assert meyer.phi(Word(2)) == 0

    def test_phi_base_refuses_what_is_no_generator_at_the_genus(self):
        assert meyer.phi_base(ChainTwist(5), 2) == F(3, 5)
        with pytest.raises(WordError) as err:
            meyer.phi_base(ChainTwist(6), 2)
        assert str(err.value) == "t6 out of range for genus 2"
        with pytest.raises(WordError) as err:
            meyer.phi_base("t1", 2)
        assert str(err.value) == "unknown generator 't1'"

    def test_top_twist_anchor(self):
        for g in (1, 2, 3):
            assert meyer.phi(gen_word(g, ChainTwist(2 * g + 1))) == F(g + 1, 2 * g + 1)

    def test_all_chain_twists_share_the_value(self):
        for g in (1, 2, 3):
            for i in range(1, 2 * g + 2):
                assert meyer.phi(gen_word(g, ChainTwist(i))) == F(g + 1, 2 * g + 1)

    def test_inverse_twist(self):
        assert meyer.phi(gen_word(2, ChainTwist(5), -1)) == F(-3, 5)

    def test_twist_inverse_square(self):
        # hand recursion: phi(t^-2) = 2 phi(t^-1) - tau(t^-1, t^-1) = -1/(2g+1)
        assert meyer.phi(gen_word(2, ChainTwist(5), -2)) == F(-1, 5)

    def test_separating_base_values(self):
        # the separating twist has no generator of its own: its value is
        # phi of its chain word
        assert meyer.phi(separating_twist(2, 1)) == F(-4, 5)
        assert meyer.phi(separating_twist(3, 1)) == F(-8, 7)
        assert meyer.phi(separating_twist(3, 0)) == 0
        assert meyer.phi(separating_twist(3, 3)) == 0

    def test_separating_value_matches_chain_relation(self):
        # (t_1 ... t_{2h})^{4h+2} is the separating twist: it acts trivially
        # on homology, and the recursion through chain twists must land on
        # Endo's value -4h(g-h)/(2g+1), which is 0 for h = 0 and h = g
        for g in range(1, 7):
            for h in range(g + 1):
                w = separating_twist(g, h)
                assert surface.word_matrix(w) == eye(2 * g), (g, h)
                assert meyer.phi(w) == F(-4 * h * (g - h), 2 * g + 1), (g, h)

    def test_conjugation_invariance(self, rng):
        for g in (1, 2, 3):
            want = F(g + 1, 2 * g + 1)
            for _ in range(15):
                u = random_word(rng, g, rng.randrange(1, 6))
                w = u * gen_word(g, ChainTwist(1)) * u.inverse()
                assert meyer.phi(w) == want

    def test_antisymmetry(self, rng):
        for g in (1, 2, 3):
            for _ in range(15):
                w = random_word(rng, g, rng.randrange(1, 8))
                assert meyer.phi(w.inverse()) == -meyer.phi(w)

    def test_word_independence_braid_and_chain(self):
        for g in (1, 2, 3):
            for i in range(1, 2 * g + 1):
                assert meyer.phi(chain_word(g, [i, i + 1, i])) == \
                    meyer.phi(chain_word(g, [i + 1, i, i + 1]))
            assert meyer.phi(chain_word(g, range(1, 2 * g), 2 * g)) == \
                meyer.phi(gen_word(g, ChainTwist(2 * g + 1), 2))

    def test_denominator_shadow(self, rng):
        for g in (1, 2, 3):
            for _ in range(30):
                w = random_word(rng, g, rng.randrange(1, 9))
                assert ((2 * g + 1) * meyer.phi(w)).denominator == 1

    def test_separating_letters_in_words(self, rng):
        # a conjugated separating twist keeps the base value (class function)
        for _ in range(10):
            u = random_word(rng, 2, rng.randrange(1, 5))
            w = u * separating_twist(2, 1) * u.inverse()
            assert meyer.phi(w) == F(-4, 5)

    def test_structured_power_matches_flat(self, rng):
        g = 2
        for _ in range(10):
            inner = random_word(rng, g, 3)
            e = rng.choice([-3, 2, 4])
            flat = Word(g)
            for _ in range(abs(e)):
                flat = flat * (inner if e > 0 else inner.inverse())
            assert meyer.phi(inner ** e) == meyer.phi(flat)

    def test_genus_zero_is_trivial(self):
        assert meyer.phi(Word(0)) == 0

    def test_random_words_match_the_fraction_fold(self, rng):
        for g in (1, 2, 3, 4):
            for _ in range(25):
                w = random_word(rng, g, rng.randrange(1, 9))
                if g >= 2 and rng.random() < 0.3:
                    w = w * separating_twist(g, rng.randrange(0, g + 1)).inverse()
                assert meyer.phi(w) == phi_by_fraction_fold(w)

    def test_nested_huge_powers_match_the_fraction_fold(self, rng):
        for _ in range(30):
            g = rng.randint(1, 4)
            base = bounded_power_base(rng, locsig.CycleContext(g, TypeI()))
            e = rng.choice([-10 ** 12, -999_999_999_999, -37, 2, 1000, 10 ** 12])
            w = random_word(rng, g, 2) * Word(g, ((base, e),)) * random_word(rng, g, 2)
            w = Word(g, ((w, rng.choice([-3, -1, 2])), (base, -1), (IOTA, 1)))
            assert meyer.phi(w) == phi_by_fraction_fold(w)

    def test_prefix_sum_telescopes_phi(self, rng):
        # sum_k tau(P_{k-1}, M_k) = sum_k phi(w_k) - phi(w_1 ... w_n) for
        # conjugated twist powers u t_i^e u^-1, of class v = U c_i, with
        # separating twists among the words from genus 2 on: their class is
        # null and their matrix the identity, so they are no factor
        for g in (1, 2, 3):
            for _ in range(5):
                words, factors = [], []
                for _ in range(rng.randrange(1, 6)):
                    u = random_word(rng, g, rng.randrange(0, 5))
                    i, e = rng.randrange(1, 2 * g + 2), rng.choice([1, -1, 2])
                    words.append(u * gen_word(g, ChainTwist(i), e) * u.inverse())
                    v = arr(surface.word_matrix(u)) @ arr(surface.chain_class(i, g))
                    factors.append((tuple(int(x) for x in v), e))
                if g >= 2:
                    u = random_word(rng, g, 2)
                    words.insert(rng.randrange(len(words) + 1),
                                 u * separating_twist(g, 1) * u.inverse())
                product = Word(g)
                for w in words:
                    product = product * w
                assert -meyer.sequence_state(factors)[0] == \
                    sum(meyer.phi(w) for w in words) - meyer.phi(product)


def test_powers_request_no_tau_with_an_identity_first_argument(monkeypatch):
    # folds start from their first factor, so no nested power asks for
    # tau(1, M), and a generator power asks for no tau at all; the 0 x 0
    # matrices of the genus-0 cut surface at g = 1 are exempt
    firsts = []
    cached = meyer._tau_cached

    def recording(At, Bt):
        firsts.append(At)
        return cached(At, Bt)

    monkeypatch.setattr(meyer, "_tau_cached", recording)
    for g in (1, 2, 3):
        ctx = locsig.CycleContext(g, TypeI())
        gen = ChainTwist(1 if g > 1 else 3)
        for e in range(1, 17):
            meyer.phi(gen_word(g, ChainTwist(1), e))
            locsig.s_word(gen_word(g, gen, e), ctx)
    assert not firsts
    for g in (1, 2, 3):
        ctx = locsig.CycleContext(g, TypeI())
        # t_1 t_{2g+1} has infinite order, so no power of it is the identity
        inner = Word(g, ((ChainTwist(1), 1), (ChainTwist(2 * g + 1), 1)))
        for e in range(1, 17):
            meyer.phi(Word(g, ((inner, e),)))
            locsig.s_word(Word(g, ((inner, e), (IOTA, 1))), ctx)
    assert firsts
    assert not [At for At in firsts if At and At == surface.sp_identity(len(At) // 2)]


def test_letter_power_corrections_match_the_squaring_fold():
    # c(t_i^e) = sign(e) - e and c(iota^e) = 0, each with the matrix of the
    # power, as the fold of e single-letter states by squaring gives them
    for g in (1, 2, 3, 4):
        for gen in (ChainTwist(1), ChainTwist(2), ChainTwist(2 * g + 1), IOTA):
            state = (0, surface.word_matrix(gen_word(g, gen)))
            for e in [e for e in range(-64, 65) if e]:
                want = pow_by_squaring(state, e, meyer._combine, meyer._invert)
                w = gen_word(g, gen, e)
                closed = ((1 if e > 0 else -1) - e) if isinstance(gen, ChainTwist) else 0
                assert meyer.correction(w) == closed == want[0], (g, gen, e)
                assert surface.word_matrix(w) == want[1], (g, gen, e)


def test_huge_letter_power_needs_no_product(monkeypatch):
    products = []
    mat_mul = surface.mat_mul

    def counting(A, B):
        products.append(1)
        return mat_mul(A, B)

    monkeypatch.setattr(surface, "mat_mul", counting)
    e = 10 ** 18
    assert meyer.phi(gen_word(3, ChainTwist(1), e)) == F(4, 7) * e + 1 - e
    assert not products


def hurwitz_moved(block, i):
    """The block of transvection powers (v, e) with the elementary Hurwitz
    move at i: (t_a^e, t_b^f) -> (t_a^e t_b^f t_a^-e, t_a^e), which keeps the
    product, and t_a^e t_b^f t_a^-e is t_{t_a^e b}^f."""
    (a, e), (b, f) = block[i], block[i + 1]
    moved = tuple(int(x) for x in arr(surface.transvection(a, e)) @ arr(b))
    return block[:i] + [(moved, f), (a, e)] + block[i + 2:]


class TestSequenceState:
    def check(self, factors):
        c, P = meyer.sequence_state(factors)
        assert (c, arr(P).tolist()) == plain_fold([surface.transvection(v, e) for v, e in factors])
        # a cut anywhere moves the windows: the law joins the two halves
        k = len(factors) // 3
        if k:
            assert meyer._combine(meyer.sequence_state(factors[:k]),
                                  meyer.sequence_state(factors[k:])) == (c, P)

    def test_periodic_aperiodic_and_moved_blocks_match_the_plain_fold(self, rng):
        for g in (1, 2, 3):
            letters = [(surface.chain_class(i, g), e)
                       for i in range(1, 2 * g + 2) for e in (1, -1, 2)]
            for _ in range(6):
                block = [rng.choice(letters) for _ in range(rng.randrange(1, 6))]
                self.check(block * rng.randrange(2, 9))
                self.check([rng.choice(letters) for _ in range(rng.randrange(1, 20))])
                if len(block) >= 2:
                    moved = hurwitz_moved(block, rng.randrange(len(block) - 1))
                    a, b = rng.randrange(0, 5), rng.randrange(0, 5)
                    self.check(block * a + moved + block * b)

    def test_a_repeated_block_costs_its_length_plus_log_many_cocycle_calls(self, monkeypatch):
        calls = []
        cached = meyer._tau_cached

        def counting(At, Bt):
            calls.append(1)
            return cached(At, Bt)

        monkeypatch.setattr(meyer, "_tau_cached", counting)
        g = 3
        # seven twists are two windows, joined by one call
        twists = [(surface.chain_class(i, g), 1) for i in (1, 2, 3, 4, 5, 6, 7)]
        for k in (2, 16, 1000):
            calls.clear()
            meyer.sequence_state(twists * k)
            assert len(calls) <= 1 + 2 * k.bit_length()

    def test_empty_sequence(self):
        assert meyer.sequence_state([]) is None


def test_folds_request_no_tau_of_inverse_pairs(monkeypatch):
    # tau(M, M^-1) = 0, so inverting a state asks for no cocycle value;
    # negative powers and inverted nested words would otherwise ask for one
    pairs = []
    cached = meyer._tau_cached

    def recording(At, Bt):
        pairs.append((At, Bt))
        return cached(At, Bt)

    monkeypatch.setattr(meyer, "_tau_cached", recording)
    for g in (1, 2, 3):
        ctx = locsig.CycleContext(g, TypeI())
        top = ChainTwist(2 * g + 1)
        # infinite-order words, so no product in the folds is the identity;
        # at g = 1 the stabiliser of a type I cycle has only t1 and t3
        inner = Word(g, ((ChainTwist(1), 1), (top, -2))) if g == 1 else \
            Word(g, ((ChainTwist(1), 1), (ChainTwist(2), -1), (ChainTwist(3), 2)))
        for e in range(1, 9):
            for w in (gen_word(g, ChainTwist(1), -e), gen_word(g, top, -e),
                      Word(g, ((inner, -e),)),
                      Word(g, ((Word(g, ((inner, 2), (top, -1))), -e), (IOTA, 1)))):
                meyer.phi(w)
                locsig.s_word(w, ctx)
        # periodic words raised at their period: the step M^(k-1) M = 1 that
        # closes it asks for no tau either
        for e in (10 ** 6 + 3, -(10 ** 6 + 3), 4 * (4 * g + 2) + 5):
            meyer.phi(Word(g, ((chain_word(g, range(1, 2 * g + 1)), e),)))
            meyer.phi(Word(g, ((chain_word(g, (1, 2)), e), (top, 1))))
            if g > 1:
                locsig.s_word(Word(g, ((chain_word(g, (1, 2)), e),)), ctx)
    assert pairs
    assert not [(A, B) for A, B in pairs
                if surface.mat_mul(A, B) == surface.sp_identity(len(A) // 2)]


def squaring(state, N):
    return pow_by_squaring(state, N, meyer._combine, meyer._invert)


def power_of(inner, N):
    return Word(inner.genus, ((inner, N),))


def chain_runs(g):
    """The words t_a t_{a+1} ... t_{a+L-1} of 1 to 5 consecutive chain
    twists at genus g, for a few starting points a."""
    top = 2 * g + 1
    for L in range(1, min(5, top) + 1):
        for a in sorted({1, 2, top - L + 1}):
            if a + L - 1 <= top:
                yield chain_word(g, range(a, a + L))


class TestPeriodPowers:
    """A power s^N with |N| > 2(4g+2) is raised at the first k <= 4g+2 with
    (M^k - 1)^2 = 0, as (s^k)^q s^r with (s^k)^q in closed form, against
    ``pow_by_squaring`` of the same state."""

    def test_chain_runs_match_squaring(self, rng):
        for g in (1, 2, 3, 4, 5):
            big = 2 * (4 * g + 2)
            for inner in chain_runs(g):
                s = meyer._state(inner)
                exps = {big + 1, big + 2, 10 ** 6, 10 ** 6 + 3, rng.randint(big + 1, 10 ** 6)}
                for N in exps | {-N for N in exps}:
                    assert meyer._state(power_of(inner, N)) == squaring(s, N), (g, str(inner), N)

    def test_multitwists_match_squaring(self, rng):
        for g in (2, 3, 4, 5):
            odd = range(1, 2 * g + 2, 2)
            for _ in range(4):
                inner = Word(g, tuple((ChainTwist(i), rng.choice([-3, -2, -1, 1, 2, 3]))
                                      for i in odd if rng.random() < 0.7) or ((ChainTwist(1), 1),))
                u = random_word(rng, g, rng.randrange(0, 4))
                for w in (inner, u * inner * u.inverse()):
                    s = meyer._state(w)
                    for N in (10 ** 6 + 3, -(10 ** 6 + 3), 4 * (4 * g + 2) + 1, -999):
                        assert meyer._state(power_of(w, N)) == squaring(s, N), (g, str(w), N)
        s = meyer._state(chain_word(3, (1, 3, 5)))
        assert meyer._state(power_of(chain_word(3, (1, 3, 5)), 10 ** 6 + 3)) == \
            squaring(s, 10 ** 6 + 3)

    def test_powers_among_prefixes_and_iotas_match_squaring(self, monkeypatch, rng):
        # the powers of a word of infinite order grow exponentially, so those
        # stay small
        for g in (1, 2, 3):
            inners = [(inner, [4 * g + 7, 777, 10 ** 6 + 3]) for inner in chain_runs(g)]
            inners += [(random_word(rng, g, 3), [4 * g + 7, 40]) for _ in range(3)]
            for inner, exps in inners:
                N = rng.choice([-1, 1]) * rng.choice(exps)
                w = random_word(rng, g, rng.randrange(0, 4)) * power_of(inner, N) * \
                    gen_word(g, IOTA) * random_word(rng, g, rng.randrange(0, 4))
                w = Word(g, ((w, rng.choice([-1, 1, 2])), (IOTA, -1)))
                want = meyer._state(w)
                with monkeypatch.context() as m:
                    m.setattr(meyer, "_power", squaring)
                    assert meyer._state(w) == want, str(w)
                if abs(N) < 1000:
                    assert meyer.phi(w) == phi_by_fraction_fold(w), str(w)

    def test_random_words_match_squaring(self, rng):
        # mostly of infinite order: the search gives up on |tr M^k| > 2g or at
        # k = 4g + 2 and the power is raised by squaring after all
        for g in (1, 2, 3):
            for _ in range(10):
                inner = random_word(rng, g, rng.randrange(2, 6))
                s = meyer._state(inner)
                for N in (rng.randint(4 * g + 5, 60), -rng.randint(4 * g + 5, 60)):
                    assert meyer._state(power_of(inner, N)) == squaring(s, N), (g, str(inner), N)

    def test_repeated_blocks_match_squaring(self, rng):
        for g in (1, 2, 3):
            for inner in chain_runs(g):
                block = [(surface.chain_class(gen.index, g), e) for gen, e in inner.letters()]
                for count in (4 * g + 7, rng.randint(20, 500), 10 ** 4 + 1):
                    want = squaring(meyer._run_state(block), count)
                    assert meyer.sequence_state(block * count) == want, (g, str(inner), count)
        # one Hurwitz system of four million data: (t1 t2 t3 t4)^10 is the
        # identity on homology
        block = [(surface.chain_class(i, 3), 1) for i in (1, 2, 3, 4)]
        assert meyer.sequence_state(block * 10 ** 6) == \
            squaring(meyer._run_state(block), 10 ** 6)
        block = [(random_class(rng, 2), rng.choice([1, -1])) for _ in range(3)]
        assert meyer.sequence_state(block * 61) == squaring(meyer._run_state(block), 61)

    def test_minus_one_is_not_a_period(self):
        # (t1 t2)^3 = -1 at g = 1 and (t1 t2 t3 t4)^5 = -1 at g = 2, yet the
        # period is 6 and 10: tau(-1, M^r) is not 0, so -1 cannot stand in
        # for the identity when s^N is joined from its parts
        for g, inner, half in ((1, chain_word(1, (1, 2)), 3), (2, chain_word(2, (1, 2, 3, 4)), 5)):
            minus = surface.iota_matrix(g)
            assert surface.word_matrix(power_of(inner, half)) == minus
            assert any(meyer._tau_cached(minus, surface.word_matrix(power_of(inner, r)))
                       for r in range(1, half))
            s = meyer._state(inner)
            for N in range(13, 201):
                for e in (N, -N):
                    assert meyer._state(power_of(inner, e)) == squaring(s, e), (g, e)

    def test_tau_of_a_power_of_a_multitwist_with_it_is_its_self_value(self, rng):
        # for (U - 1)^2 = 0 the Meyer pairing on V_{U^j, U} is
        # -j(1 + j) x1^T J (U - 1) x2, so tau(U^j, U) = tau(U, U), j >= 1
        for g in (1, 2, 3, 4):
            for _ in range(4):
                U = surface.sp_identity(g)
                for i in range(1, 2 * g + 2, 2):
                    if rng.random() < 0.7:
                        e = rng.choice([-3, -2, -1, 1, 2, 3])
                        U = surface.mat_mul(U, surface.transvection(surface.chain_class(i, g), e))
                C = random_symplectic(rng, g, 6)
                U = surface.mat_mul(surface.mat_mul(C, U), surface.sp_inverse(C))
                N = arr(U) - arr(eye(2 * g))
                assert not (N @ N).any()
                P = U
                for j in range(1, 13):
                    assert meyer.tau(P, U) == meyer.tau(U, U), (g, j)
                    if j in (1, 2, 7):
                        assert oracle_tau(P, U) == meyer.tau(U, U), (g, j)
                    P = surface.mat_mul(P, U)


def recorded_calls(monkeypatch, fn, *args):
    """The (A, B) pairs of the cocycle calls that fn(*args) asks for."""
    pairs = []
    cached = meyer._tau_cached

    def recording(At, Bt):
        pairs.append((At, Bt))
        return cached(At, Bt)

    with monkeypatch.context() as m:
        m.setattr(meyer, "_tau_cached", recording)
        fn(*args)
    return pairs


def test_a_periodic_power_costs_its_period_not_log_n(monkeypatch):
    # (t1 t2 t3 t4)^10 is the twist along a separating curve, the identity on
    # homology: s^2, ..., s^5 ask for one tau each, the steps to s^9 read
    # theirs off those, and s^9 s, which closes the period, asks for none;
    # (t1 t3 t5) is a multitwist, one tau(U, U)
    N = 10 ** 6 + 3
    for inner, most in ((chain_word(3, (1, 2, 3, 4)), 4), (chain_word(3, (1, 3, 5)), 1)):
        assert len(recorded_calls(monkeypatch, meyer.phi, power_of(inner, N))) <= most
        s = meyer._state(inner)
        assert len(recorded_calls(monkeypatch, squaring, s, N)) == 27


def test_small_powers_ask_for_exactly_the_squaring_calls(monkeypatch, rng):
    for g in (1, 2, 3):
        inners = list(chain_runs(g)) + [random_word(rng, g, 3) for _ in range(3)]
        for inner in inners:
            s = meyer._state(inner)
            for N in range(1, 2 * (4 * g + 2) + 1):
                for e in (N, -N):
                    asked = recorded_calls(monkeypatch, meyer._power, s, e)
                    assert asked == recorded_calls(monkeypatch, squaring, s, e), (g, str(inner), e)
                    assert meyer._power(s, e) == squaring(s, e)


def join_firsts(windows):
    """The first arguments, as nested lists, of the cocycle calls that the
    pairwise join of window products asks for, level by level: the product
    of the left half of each join."""
    asked = []
    while len(windows) > 1:
        joined = []
        for k in range(0, len(windows) - 1, 2):
            asked.append(windows[k].tolist())
            joined.append(windows[k] @ windows[k + 1])
        windows = joined + windows[len(joined) * 2:]
    return asked


def test_prefix_sum_requests_no_identity_first_argument(monkeypatch, rng):
    # the fold asks no tau inside a window of 2g factors, and joins the
    # windows pairwise, as a balanced tree: each call's first argument is
    # the product of the left half of a join, never the empty product
    firsts = []
    cached = meyer._tau_cached

    def recording(At, Bt):
        firsts.append(At)
        return cached(At, Bt)

    monkeypatch.setattr(meyer, "_tau_cached", recording)
    for g in (1, 2, 3):
        for _ in range(8):
            # distinct factors, so that no block repeats and the sequence is
            # one run
            factors = []
            for _ in range(rng.randrange(1, 10 * g)):
                factor = (random_class(rng, g), rng.choice([1, -1, 2]))
                if factor not in factors:
                    factors.append(factor)
            windows = []
            for k in range(0, len(factors), 2 * g):
                P = arr(eye(2 * g))
                for v, e in factors[k:k + 2 * g]:
                    P = P @ arr(surface.transvection(v, e))
                windows.append(P)
            asked = join_firsts(windows)
            firsts.clear()
            meyer.sequence_state(factors)
            assert [arr(P).tolist() for P in firsts] == asked
            if arr(eye(2 * g)).tolist() not in asked:
                assert eye(2 * g) not in firsts
    assert meyer.sequence_state([]) is None


def test_a_flat_word_of_eight_windows_joins_at_most_four_windows(monkeypatch, rng):
    # joined pairwise, no cocycle call of a flat word of eight windows of 2g
    # letters has a first argument beyond the product of four windows; a
    # left-to-right join would ask one with the product of seven
    firsts = []
    cached = meyer._tau_cached

    def recording(At, Bt):
        firsts.append(arr(At).tolist())
        return cached(At, Bt)

    monkeypatch.setattr(meyer, "_tau_cached", recording)
    for g in (1, 2, 3):
        for _ in range(3):
            # neighbouring indices differ by one, so no two letters commute past
            # each other and merge in ``words.reduce_word``, and the last index,
            # an odd number of steps from the first, differs from it
            index = rng.randrange(1, 2 * g + 2)
            items = []
            for _ in range(16 * g):
                items.append((ChainTwist(index), rng.choice([-2, -1, 1, 2])))
                index += -1 if index == 2 * g + 1 or (index > 1 and rng.random() < 0.5) else 1
            windows = []
            for k in range(0, 16 * g, 2 * g):
                P = arr(eye(2 * g))
                for gen, e in items[k:k + 2 * g]:
                    P = P @ arr(surface.word_matrix(gen_word(g, gen, e)))
                windows.append(P)
            short = []
            for a in range(8):
                P = arr(eye(2 * g))
                for b in range(a, min(a + 4, 8)):
                    P = P @ windows[b]
                    short.append(P.tolist())
            firsts.clear()
            meyer.phi(Word(g, tuple(items)))
            assert len(firsts) == 7
            assert all(P in short for P in firsts), g


def letter_fold(mats):
    """The fold of a nonempty sequence of matrices from (0, M_k) each, one
    uncached cocycle call per factor and numpy products: (c, P) as an int
    and nested lists."""
    tau = meyer._tau_cached.__wrapped__
    c, P = 0, arr(mats[0])
    for M in mats[1:]:
        c -= tau(tuple(map(tuple, P.tolist())), M)
        P = P @ arr(M)
    return c, P.tolist()


class TestWindows:
    """A run of transvection powers t_{v_k}^{e_k} folds in windows of at
    most 2g factors, each the signature of one form on the relations among
    the v_k, against the fold with one cocycle call per factor."""

    @staticmethod
    def factors(rng, g, n):
        out = []
        for _ in range(n):
            kind = rng.randrange(3)
            if kind == 0:
                v = surface.chain_class(rng.randrange(1, 2 * g + 2), g)
            else:
                v = random_class(rng, g)
                if kind == 2:  # not primitive
                    v = tuple(rng.choice([2, -2, 3]) * x for x in v)
            out.append((v, rng.choice([1, -1, 2, -2, 3, -3])))
        return out

    def test_windows_match_the_letter_fold(self, rng):
        for g in (1, 2, 3, 4):
            # eight and nine windows, so that the pairwise join has three and
            # four levels, drawn fewer times, as their letter folds are long
            for n, draws in ((2 * g - 1, 6), (2 * g, 6), (2 * g + 1, 6), (5 * g, 6),
                             (16 * g, 2), (18 * g, 2)):
                for _ in range(draws):
                    factors = self.factors(rng, g, n)
                    want = letter_fold([surface.transvection(v, e) for v, e in factors])
                    c, P = meyer._run_state(factors)
                    assert (c, arr(P).tolist()) == want, (g, factors)
                    c, P = meyer.sequence_state(factors)
                    assert (c, arr(P).tolist()) == want, (g, factors)

    def test_a_window_is_one_kernel_and_one_signature(self, monkeypatch, rng):
        calls = []

        def recording(name):
            fn = getattr(ratlin, name)

            def wrapper(M):
                calls.append(name)
                return fn(M)
            return wrapper

        for name in ("kernel_basis_int", "_signature_int"):
            monkeypatch.setattr(ratlin, name, recording(name))
        monkeypatch.setattr(meyer, "_tau_cached", None)  # no cocycle call at all
        for g in (1, 2, 3, 4):
            for _ in range(4):
                factors = tuple(self.factors(rng, g, 2 * g))
                calls.clear()
                meyer._window_state.__wrapped__(factors)
                assert calls.count("kernel_basis_int") == 1
                assert calls.count("_signature_int") <= 1

    def test_words_with_several_iotas_match_the_letter_fold(self, rng):
        # iota is central, so a stretch moves its iotas to its end
        for g in (1, 2, 3, 4):
            for _ in range(12):
                w = random_word(rng, g, rng.randrange(1, 6 * g))
                for _ in range(rng.randrange(1, 4)):
                    w = w * gen_word(g, IOTA, rng.choice([1, 2, -1]))
                    w = w * random_word(rng, g, rng.randrange(0, 3 * g))
                if rng.random() < 0.5:
                    w = Word(g, ((w, rng.choice([-2, 2])), (IOTA, 1))) * random_word(rng, g, 3)
                mats = [surface.word_matrix(gen_word(g, gen, e)) for gen, e in w.letters()]
                c, P = meyer._state(w)
                assert (c, arr(P).tolist()) == letter_fold(mats), str(w)


def test_a_flat_word_asks_one_cocycle_call_per_2g_letters(monkeypatch, rng):
    calls = []
    cached = meyer._tau_cached

    def counting(At, Bt):
        calls.append(1)
        return cached(At, Bt)

    monkeypatch.setattr(meyer, "_tau_cached", counting)
    for g in (1, 2, 3, 4, 6):
        for n in (2 * g - 1, 2 * g, 2 * g + 1, 5 * g, 40):
            for _ in range(3):
                w = random_word(rng, g, n)
                iotas = sum(1 for gen, _ in w.items if gen == IOTA)
                calls.clear()
                meyer.phi(w)
                assert len(calls) <= -(-n // (2 * g)) + iotas % 2, (g, str(w))


# -- words.reduce_word before the fold -----------------------------------------

def unmergeable_letters(rng, g, n):
    """n letters whose neighbouring indices differ by one: no two of them
    commute past each other, so the reduction leaves them as they are."""
    index = rng.randrange(1, 2 * g + 2)
    out = []
    for _ in range(n):
        out.append((ChainTwist(index), rng.choice([-2, -1, 1, 2])))
        index += -1 if index == 2 * g + 1 or (index > 1 and rng.random() < 0.5) else 1
    return Word(g, tuple(out))


def reducible_word(rng, g, depth=0):
    """Letters drawn mostly from a few commuting indices, iota powers, nested
    powers (some with one-letter bodies) and conjugates u x u^-1."""
    pool = rng.sample(range(1, 2 * g + 2), min(3, 2 * g + 1))
    items = []
    for _ in range(rng.randrange(1, 7)):
        r = rng.random()
        if r < 0.15:
            items.append((IOTA, rng.choice([-3, -2, -1, 1, 2, 3])))
        elif r < 0.3 and depth < 2:
            sub = reducible_word(rng, g, depth + 1)
            if sub.items:
                items.append((sub, rng.choice([-3, -2, -1, 2, 3, 7])))
        else:
            items.append((ChainTwist(rng.choice(pool)), rng.choice([-2, -1, 1, 2])))
    w = Word(g, tuple(items))
    if rng.random() < 0.4:
        u = random_word(rng, g, rng.randrange(1, 4))
        w = u * w * u.inverse() if rng.random() < 0.7 else u.inverse() * w * u
    return w


class TestReducedWords:
    def test_correction_folds_the_reduced_word_exactly(self, rng):
        # the reduction keeps the conjugacy class and the generator sum, so
        # the correction of the reduced word is that of the word as written
        for k in range(1200):
            g = 1 + k % 4
            w = reducible_word(rng, g)
            r = reduce_word(w)
            assert meyer.correction(w) == meyer._state(w)[0], str(w)
            assert meyer.generator_sum(r) == meyer.generator_sum(w), str(w)
            M, R = surface.word_matrix(w), surface.word_matrix(r)
            assert sum(M[i][i] for i in range(2 * g)) == sum(R[i][i] for i in range(2 * g))

    def test_without_a_cyclic_move_the_element_is_kept(self, rng):
        # a word that ends in a nested power of non-commuting letters admits
        # no cyclic move, and every other move is a relation of the group
        for k in range(300):
            g = 1 + k % 4
            tail = Word(g, ((ChainTwist(1), 1), (ChainTwist(2), -1)))
            w = reducible_word(rng, g) * Word(g, ((tail, 3),))
            assert surface.word_matrix(reduce_word(w)) == surface.word_matrix(w), str(w)

    def test_a_conjugate_asks_for_the_calls_of_the_word_it_conjugates(self, monkeypatch, rng):
        for g in (1, 2, 3):
            for _ in range(5):
                x = (Word(g, ((unmergeable_letters(rng, g, 4), 3),)) * random_word(rng, g, 5)
                     * Word(g, ((unmergeable_letters(rng, g, 3), -2),)))
                u = unmergeable_letters(rng, g, 3)
                meyer._tau_cached.cache_clear()
                asked = recorded_calls(monkeypatch, meyer.phi, x)
                meyer._tau_cached.cache_clear()
                conjugated = recorded_calls(monkeypatch, meyer.phi, u * x * u.inverse())
                assert conjugated == asked, (str(u), str(x))
                assert meyer.phi(u * x * u.inverse()) == meyer.phi(x)

    def test_s_of_a_conjugated_mgn_round_asks_for_no_cocycle(self, monkeypatch):
        # u t_{2g+1}^-4n u^-1 reduces to the letter power, and its pushforward
        # u u^-1 to the empty word
        for g in (2, 3, 4):
            ctx = locsig.CycleContext(g, TypeI())
            for a in range(1, 2 * g - 1):
                u = Word(g, ((ChainTwist(a), 1), (ChainTwist(a + 1), -1)))
                w = u * gen_word(g, ChainTwist(2 * g + 1), -8) * u.inverse()
                meyer._tau_cached.cache_clear()
                assert recorded_calls(monkeypatch, locsig.s_word, w, ctx) == []
                assert locsig.s_word(w, ctx) == locsig.s_word(u.inverse() * w * u, ctx)
