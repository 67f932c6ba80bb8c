"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every comparison below is exact (integer or Fraction equality); there are
no numeric tolerances to tune.  Each test prints a single PASS line on
success (run with ``pytest -s`` to see them), and the expected values are
frozen literals, not re-derived from the implementation's own formulas.
"""

import random
import time
from fractions import Fraction as F
from math import gcd

import pytest

from blfsig import fibration as fib
from blfsig import locsig, meyer, ratlin, surface
from blfsig.fibration import family_spec
from blfsig.locsig import CycleContext
from blfsig.surface import TypeI, TypeII
from blfsig.verify import (
    DEFAULT_SEED, check_calibration, random_context_word, random_symplectic,
    random_valid_spec, random_word,
)
from blfsig.words import IOTA, ChainTwist, chain_word, gen_word
from conftest import arr, det_oracle, random_int_matrix, random_symmetric, signature_oracle

SEED = 987654321


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_family_signatures():
    t0 = time.monotonic()
    for g in (1, 2, 3):
        for n in (1, 2, 3):
            assert fib.total_signature(family_spec("mgn", g, n)) == -4 * g * n
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"family sweep took {elapsed:.2f}s"
    _ok(1, f"signature(mgn; g,n<=3) = -4gn exactly, in {elapsed:.2f}s")


def test_criterion_02_tilde_family_signatures():
    for g in (2, 3):
        for n in (1, 2):
            assert fib.total_signature(family_spec("mgn_tilde", g, n)) == -4 * g * g * n
    _ok(2, "signature(mgn-tilde; g in {2,3}, n in {1,2}) = -4g^2 n exactly")


def test_criterion_03_euler_characteristics():
    for g in (1, 2, 3):
        for n in (1, 2, 3):
            assert fib.euler_characteristic(family_spec("mgn", g, n)) == \
                8 * g * n - 4 * g + 6
    for g in (2, 3):
        for n in (1, 2):
            assert fib.euler_characteristic(family_spec("mgn_tilde", g, n)) == \
                8 * g * g * n - 4 * g * n + 4 * n - 4 * g + 6
    _ok(3, "Euler characteristics match both closed forms exactly")


def test_criterion_04_homeomorphism_strings():
    b2 = {"CP2": (1, 0), "CP2bar": (0, 1), "S2xS2": (1, 1), "E2": (3, 19)}

    def recompose(rep, sig, euler):
        p = sum(k * b2[b][0] for k, b in rep.summands)
        m = sum(k * b2[b][1] for k, b in rep.summands)
        assert p - m == sig and p + m == euler - 2

    rep11 = fib.compute_report(family_spec("mgn", 1, 1))
    assert rep11.homeomorphism.display == "#2CP² # 6CP̄²"
    recompose(rep11.homeomorphism, rep11.signature, rep11.euler)

    rep22 = fib.compute_report(family_spec("mgn", 2, 2))
    assert rep22.signature == -16 and rep22.spec.spin
    assert rep22.homeomorphism.display == "E(2) # 3(S²×S²)"
    recompose(rep22.homeomorphism, rep22.signature, rep22.euler)
    _ok(4, "Freedman decompositions of (mgn,1,1) and (mgn,2,2), with "
           "b2 recomposition")


# frozen generator tables for g = 1..5 (independent arithmetic, kept literal)
H_TYPE_I = {
    # g: (value at t_i for i <= 2g-1, value at t_{2g+1})
    1: (F(-1, 3), F(-1, 3)),
    2: (F(-1, 15), F(-2, 5)),
    3: (F(-1, 35), F(-3, 7)),
    4: (F(-1, 63), F(-4, 9)),
    5: (F(-1, 99), F(-5, 11)),
}
H_TYPE_II = {
    # (g, h): (side-1 value for i <= 2h, side-2 value for i >= 2h+2)
    (2, 1): (F(-1, 15), F(-1, 15)),
    (3, 1): (F(-2, 21), F(-1, 35)),
    (3, 2): (F(-1, 35), F(-2, 21)),
    (4, 1): (F(-1, 9), F(-1, 63)),
    (4, 2): (F(-2, 45), F(-2, 45)),
    (4, 3): (F(-1, 63), F(-1, 9)),
    (5, 1): (F(-4, 33), F(-1, 99)),
    (5, 2): (F(-3, 55), F(-2, 77)),
    (5, 3): (F(-2, 77), F(-3, 55)),
    (5, 4): (F(-1, 99), F(-4, 33)),
}
SIGMA_I = {1: F(-2, 3), 2: F(-3, 5), 3: F(-4, 7), 4: F(-5, 9), 5: F(-6, 11)}
SIGMA_II = {
    (2, 1): F(-1, 5),
    (3, 1): F(1, 7), (3, 2): F(1, 7),
    (4, 1): F(1, 3), (4, 2): F(7, 9), (4, 3): F(1, 3),
    (5, 1): F(5, 11), (5, 2): F(13, 11), (5, 3): F(13, 11), (5, 4): F(5, 11),
}


def test_criterion_05_generator_tables():
    for g in range(1, 6):
        ctx = CycleContext(g, TypeI())
        lo, top = H_TYPE_I[g]
        assert locsig.h_generator(IOTA, ctx) == 0
        for i in range(1, 2 * g):
            assert locsig.h_generator(ChainTwist(i), ctx) == lo
        assert locsig.h_generator(ChainTwist(2 * g + 1), ctx) == top
        assert locsig.sigma_loc(TypeI(), g) == SIGMA_I[g]
        for h in range(1, g):
            ctx2 = CycleContext(g, TypeII(h))
            s1, s2 = H_TYPE_II[(g, h)]
            for i in range(1, 2 * h + 1):
                assert locsig.h_generator(ChainTwist(i), ctx2) == s1
            for i in range(2 * h + 2, 2 * g + 2):
                assert locsig.h_generator(ChainTwist(i), ctx2) == s2
            assert locsig.sigma_loc(TypeII(h), g) == SIGMA_II[(g, h)]
        for h in (0, g):
            ctx3 = CycleContext(g, TypeII(h))
            for i in range(1, 2 * g + 2):
                assert locsig.h_generator(ChainTwist(i), ctx3) == 0
    _ok(5, "h and sigma_loc generator tables for g = 1..5 match the frozen values")


def test_criterion_06_meyer_calibration():
    rng = random.Random(SEED)
    for g in (1, 2, 3):
        want = F(g + 1, 2 * g + 1)
        assert meyer.phi(gen_word(g, ChainTwist(2 * g + 1))) == want
        for _ in range(50):
            u = random_word(rng, g, rng.randrange(1, 8))
            w = u * gen_word(g, ChainTwist(2 * g + 1)) * u.inverse()
            assert meyer.phi(w) == want
            # folded as written, so that the reduction cancels no conjugator
            assert meyer.generator_sum(w) + meyer._state(w)[0] == want
    _ok(6, "phi(top twist) = (g+1)/(2g+1) on 50 random conjugates per genus, "
           "g = 1..3, reduced and as written")


def test_calibration_fails_when_the_cocycle_changes_sign(monkeypatch):
    tau = meyer._tau_cached
    monkeypatch.setattr(meyer, "_tau_cached", lambda A, B: -tau(A, B))
    with pytest.raises(AssertionError):
        test_criterion_06_meyer_calibration()
    assert not check_calibration(random.Random(DEFAULT_SEED), 30, 3).passed


def test_criterion_07_cocycle_identity():
    rng = random.Random(SEED + 7)
    for g in (1, 2, 3):
        for _ in range(1000):
            a, b, c = (arr(random_symplectic(rng, g, rng.randrange(2, 9)))
                       for _ in range(3))
            tab = meyer.tau(a, b)
            assert abs(tab) <= 2 * g
            assert tab + meyer.tau(a @ b, c) == meyer.tau(b, c) + meyer.tau(a, b @ c)
    _ok(7, "cocycle identity and |tau| <= 2g on 1000 random triples per genus, "
           "g = 1..3")


def test_criterion_08_word_independence():
    for g in (1, 2, 3):
        for i in range(1, 2 * g + 1):
            assert meyer.phi(chain_word(g, [i, i + 1, i])) == \
                meyer.phi(chain_word(g, [i + 1, i, i + 1]))
        for i in range(1, 2 * g + 2):
            for j in range(i + 2, 2 * g + 2):
                assert meyer.phi(chain_word(g, [i, j])) == \
                    meyer.phi(chain_word(g, [j, i]))
        lhs = chain_word(g, range(1, 2 * g), 2 * g)
        rhs = gen_word(g, ChainTwist(2 * g + 1), 2)
        assert meyer.phi(lhs) == meyer.phi(rhs)
        assert surface.word_to_matrix(lhs) == surface.word_to_matrix(rhs)
    _ok(8, "phi agrees across braid, commutation, and chain relations (g <= 3); "
           "chain relation also holds on matrices")


def test_criterion_09_decomposition_identity():
    rng = random.Random(SEED + 9)
    contexts = [CycleContext(g, TypeI()) for g in (1, 2, 3)]
    contexts += [CycleContext(g, TypeII(h)) for g in (2, 3) for h in range(1, g)]
    cases = 0
    for ctx in contexts:
        for gen in locsig.generators(ctx):
            rep = locsig.decomposition_check(gen_word(ctx.genus, gen), ctx)
            assert rep.agrees, (ctx, gen)
            cases += 1
        if isinstance(ctx.cycle, TypeI):
            assert locsig.s_generator(ChainTwist(2 * ctx.genus + 1), ctx) == -1
            if ctx.genus >= 2:
                assert locsig.s_generator(ChainTwist(1), ctx) == 0
        for _ in range(200):
            w = random_context_word(rng, ctx, rng.randrange(1, 31))
            assert locsig.decomposition_check(w, ctx).agrees, (ctx, w)
            cases += 1
    _ok(9, f"h = s + phi - pushforward phi exactly on {cases} cases "
           "(all generators + 200 words per context, g <= 3, both cycle types)")


def test_criterion_10_two_path_signatures():
    rng = random.Random(SEED + 10)
    checked = 0
    for g in (1, 2, 3):
        for n in (1, 2):
            for fam in ("mgn",) + (("mgn_tilde",) if g >= 2 else ()):
                spec = family_spec(fam, g, n)
                assert fib.total_signature(spec) == fib.signature_meyer_path(spec)
                checked += 1
    for _ in range(50):
        spec = random_valid_spec(rng, max_genus=3)
        assert fib.validate(spec).ok
        assert fib.total_signature(spec) == fib.signature_meyer_path(spec)
        checked += 1
    _ok(10, f"localized and Meyer-path signatures agree on {checked} fibrations "
            "(families g <= 3, n <= 2, plus 50 randomized valid specs)")


def test_criterion_11_denominator_shadow():
    rng = random.Random(SEED + 11)
    for g in (1, 2, 3):
        for _ in range(500):
            w = random_word(rng, g, rng.randrange(1, 10))
            assert ((2 * g + 1) * meyer.phi(w)).denominator == 1
    _ok(11, "(2g+1) phi(w) integral on 500 random hyperelliptic words per "
            "genus, g = 1..3")


def test_criterion_12_abelianization():
    assert fib.abelianization(1, TypeI()) == "Z ⊕ Z/2"
    for g in range(2, 9):
        assert fib.abelianization(g, TypeI()) == "Z ⊕ (Z/2)²"
    for g in range(2, 9):
        for h in range(1, g):
            d = fib.separating_torsion(g, h)
            assert d == gcd(4 * h * (2 * h + 1), 4 * (g - h) * (2 * (g - h) + 1))
            assert fib.abelianization(g, TypeII(h)) == f"Z ⊕ Z/{d}"
    _ok(12, "type I abelianizations and type II torsion (SNF vs gcd) agree "
            "for g <= 8, all h")


def test_criterion_13_exact_linear_algebra_oracles():
    rng = random.Random(SEED + 13)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = random_symmetric(rng, n)
        assert ratlin.signature_of_symmetric(M) == signature_oracle(M)
    for _ in range(200):
        A = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        U, D, V = map(arr, ratlin.smith_normal_form(A))
        assert (U @ A @ V == D).all()
        assert det_oracle(U) in (1, -1) and det_oracle(V) in (1, -1)
        diag = [D[i, i] for i in range(min(D.shape))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)
    _ok(13, "signature vs char-poly oracle and SNF recomposition/divisibility "
            "on 200 random matrices each")
