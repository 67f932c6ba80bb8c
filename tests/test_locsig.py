import tracemalloc
from fractions import Fraction as F

import pytest

from blfsig import locsig, meyer, surface, words
from blfsig.locsig import ContextError, CycleContext
from blfsig.surface import TypeI, TypeII
from blfsig.verify import random_context_word
from blfsig.words import IOTA, ChainTwist, Iota, Word, chain_word, evaluate, gen_word
from conftest import bounded_power_base


CTX_I2 = CycleContext(2, TypeI())


# -- the case analysis that locsig._generator replaced, kept as an oracle ----

def former_member(gen, ctx):
    """Membership as ``validate_word`` decided it."""
    g = ctx.genus
    if isinstance(gen, Iota):
        return isinstance(ctx.cycle, TypeI)
    if not isinstance(gen, ChainTwist):
        return False
    if isinstance(ctx.cycle, TypeI):
        return gen.index in set(range(1, 2 * g)) | {2 * g + 1}
    h = ctx.cycle.h
    if h in (0, g):
        return 1 <= gen.index <= 2 * g + 1
    return 1 <= gen.index <= 2 * h or 2 * h + 2 <= gen.index <= 2 * g + 1


def former_h_generator(gen, ctx):
    g = ctx.genus
    if isinstance(ctx.cycle, TypeI):
        if isinstance(gen, Iota):
            return F(0)
        if isinstance(gen, ChainTwist):
            i = gen.index
            if i == 2 * g + 1:
                return F(-g, 2 * g + 1)
            if i <= 2 * g - 1:
                return F(-1, 4 * g * g - 1)
        raise ContextError(f"{gen} is not a generator for {ctx}")
    h = ctx.cycle.h
    if h in (0, g):
        if isinstance(gen, ChainTwist) and 1 <= gen.index <= 2 * g + 1:
            return F(0)
        raise ContextError(f"{gen} is not a generator for {ctx}")
    if isinstance(gen, ChainTwist):
        i = gen.index
        if i <= 2 * h:
            return F(g + 1, 2 * g + 1) - F(h + 1, 2 * h + 1)
        if i >= 2 * h + 2:
            return F(g + 1, 2 * g + 1) - F(g - h + 1, 2 * (g - h) + 1)
    raise ContextError(f"{gen} is not a generator for {ctx}")


def former_s_generator(gen, ctx):
    g = ctx.genus
    if not isinstance(ctx.cycle, TypeI):
        return 0
    if isinstance(gen, Iota):
        return 0
    if isinstance(gen, ChainTwist):
        if gen.index == 2 * g + 1:
            return -1
        if gen.index <= 2 * g - 1:
            return -1 if g == 1 else 0
    raise ContextError(f"{gen} is not a generator for {ctx}")


def former_push_forward(w, ctx):
    g = ctx.genus
    if isinstance(ctx.cycle, TypeI):
        top = 2 * g + 1

        def fn(gen):
            if isinstance(gen, ChainTwist):
                # the cut surface of a genus-1 cycle is a sphere, with no
                # chain curves: t_1 dies there as the top twist does
                return None if gen.index == top or g == 1 else gen
            return gen

        return w.substitute(fn, g - 1)
    h = ctx.cycle.h
    if h == 0:
        return Word(0), w
    if h == g:
        return w, Word(0)

    def side1(gen):
        return gen if isinstance(gen, ChainTwist) and gen.index <= 2 * h else None

    def side2(gen):
        if isinstance(gen, ChainTwist) and gen.index >= 2 * h + 2:
            return ChainTwist(gen.index - 2 * h - 1)
        return None

    return w.substitute(side1, h), w.substitute(side2, g - h)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ContextError:
        return ContextError


class TestGeneratingSets:
    def contexts(self):
        for g in range(1, 7):
            yield CycleContext(g, TypeI())
            yield from (CycleContext(g, TypeII(h)) for h in range(g + 1))

    def candidates(self, g):
        return [ChainTwist(i) for i in range(1, 2 * g + 4)] + [IOTA]

    def test_matches_the_former_case_analysis(self):
        h_disagreements = s_disagreements = 0
        for ctx in self.contexts():
            g = ctx.genus
            for gen in self.candidates(g):
                h, s = locsig.h_generator, locsig.s_generator
                if former_member(gen, ctx):
                    assert h(gen, ctx) == former_h_generator(gen, ctx), (ctx, gen)
                    assert s(gen, ctx) == former_s_generator(gen, ctx), (ctx, gen)
                    w = gen_word(g, gen, -3) * gen_word(g, gen)
                    assert locsig.push_forward(w, ctx) == former_push_forward(w, ctx)
                    continue
                assert outcome(h, gen, ctx) is ContextError, (ctx, gen)
                assert outcome(s, gen, ctx) is ContextError, (ctx, gen)
                if outcome(former_h_generator, gen, ctx) is not ContextError:
                    # the former h took any index past 2h+1 at a separating cycle
                    assert isinstance(ctx.cycle, TypeII) and 0 < ctx.cycle.h < g
                    assert gen.index > 2 * g + 1
                    h_disagreements += 1
                if outcome(former_s_generator, gen, ctx) is not ContextError:
                    # and the former s gave 0 for every generator at one
                    assert isinstance(ctx.cycle, TypeII)
                    s_disagreements += 1
                try:
                    w = gen_word(g, gen)
                except words.WordError:
                    continue  # no word at this genus holds it
                for fn in (locsig.validate_word, locsig.push_forward):
                    with pytest.raises(ContextError, match="not a generator of the stabiliser"):
                        fn(w, ctx)
        # indices 2g+2 and 2g+3 at each II_h with 0 < h < g
        assert h_disagreements == 2 * sum(g - 1 for g in range(1, 7))
        assert s_disagreements > 0

    def test_derived_sets(self):
        for ctx in self.contexts():
            g = ctx.genus
            assert locsig.allowed_chain_indices(ctx) == {
                i for i in range(1, 2 * g + 2) if former_member(ChainTwist(i), ctx)}
            assert locsig.iota_allowed(ctx) == former_member(IOTA, ctx)

    def test_index_past_the_chain_at_a_separating_cycle(self):
        with pytest.raises(ContextError):
            locsig.h_generator(ChainTwist(99), CycleContext(3, TypeII(1)))

    def test_s_rejects_non_generators_at_a_separating_cycle(self):
        for ctx in (CycleContext(3, TypeII(1)), CycleContext(3, TypeII(0))):
            for gen in (IOTA, ChainTwist(99)):
                with pytest.raises(ContextError):
                    locsig.s_generator(gen, ctx)

    def test_h_word_at_huge_genus_allocates_little(self):
        tracemalloc.start()
        try:
            g = 10 ** 6
            value = locsig.h_word(words.parse_word("t1^5 t3", g), CycleContext(g, TypeI()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == F(-6, 4 * g * g - 1)
        assert peak < 1 << 20


def cut_sides(gen, ctx):
    """(genus, matrix) of a stabiliser generator on each side of the surface
    cut along the cycle: the top twist dies in type I (every twist at
    genus 1), and a type II_h twist acts on the side it lies on."""
    g = ctx.genus
    if isinstance(ctx.cycle, TypeI):
        if g == 1 or gen == ChainTwist(2 * g + 1):
            return ((g - 1, surface.sp_identity(g - 1)),)
        return ((g - 1, surface.word_matrix(gen_word(g - 1, gen))),)
    h = ctx.cycle.h
    if h in (0, g):
        return ((g, surface.word_matrix(gen_word(g, gen))),)
    if gen.index <= 2 * h:
        return ((h, surface.word_matrix(gen_word(h, gen))), (g - h, surface.sp_identity(g - h)))
    side = surface.word_matrix(gen_word(g - h, ChainTwist(gen.index - 2 * h - 1)))
    return ((h, surface.sp_identity(h)), (g - h, side))


def s_by_triple_fold(w, ctx):
    """The recursion that ``locsig.s_word`` replaces by a generator sum and
    two ``meyer.correction`` terms: states (s, matrix upstairs, matrices on
    the sides of the cut) under s(uv) = s(u) + s(v) + tau(u, v)
    - tau(push u, push v), with tau of the sides summed and the inverse
    paying tau(M, M^-1) - tau(N, N^-1) instead of relying on its vanishing.
    In a separating context every generator has s = 0."""
    g = ctx.genus
    tau, mul, inv = meyer._tau_cached, surface.mat_mul, surface.sp_inverse

    def combine(a, b):
        (s1, M1, N1), (s2, M2, N2) = a, b
        return (s1 + s2 + tau(M1, M2) - sum(map(tau, N1, N2)),
                mul(M1, M2), tuple(map(mul, N1, N2)))

    def invert(a):
        s, M, N = a
        Minv, Ninv = inv(M), tuple(map(inv, N))
        return (-s - tau(M, Minv) + sum(map(tau, N, Ninv)), Minv, Ninv)

    def value(item):
        if isinstance(item, Word):
            return evaluate(item, value, combine, invert, None)
        s = locsig.s_generator(item, ctx) if isinstance(ctx.cycle, TypeI) else 0
        return (s, surface.word_matrix(gen_word(g, item)),
                tuple(N for _, N in cut_sides(item, ctx)))

    return evaluate(w, value, combine, invert, (0,))[0]


class TestSigmaLoc:
    def test_nonseparating_values(self):
        assert locsig.sigma_loc(TypeI(), 1) == F(-2, 3)
        assert locsig.sigma_loc(TypeI(), 2) == F(-3, 5)

    def test_separating_value(self):
        assert locsig.sigma_loc(TypeII(1), 3) == F(1, 7)

    def test_inessential_rejected(self):
        for h in (0, 2):
            with pytest.raises(ValueError):
                locsig.sigma_loc(TypeII(h), 2)


class TestHValues:
    def test_type_one_generators(self):
        assert locsig.h_generator(IOTA, CTX_I2) == 0
        assert locsig.h_generator(ChainTwist(1), CTX_I2) == F(-1, 15)
        assert locsig.h_generator(ChainTwist(5), CTX_I2) == F(-2, 5)

    def test_type_two_generators(self):
        ctx = CycleContext(3, TypeII(1))
        assert locsig.h_generator(ChainTwist(1), ctx) == F(-2, 21)
        assert locsig.h_generator(ChainTwist(4), ctx) == F(-1, 35)
        # the top chain curve lies on the larger side
        assert locsig.h_generator(ChainTwist(7), ctx) == F(-1, 35)

    def test_trivial_separating_contexts(self):
        for h in (0, 2):
            ctx = CycleContext(2, TypeII(h))
            for i in range(1, 6):
                assert locsig.h_generator(ChainTwist(i), ctx) == 0

    def test_h_word_examples(self):
        assert locsig.h_word(Word(2), CTX_I2) == 0
        for g, n in [(1, 1), (2, 2), (3, 1)]:
            ctx = CycleContext(g, TypeI())
            w = gen_word(g, ChainTwist(2 * g + 1), -4 * n)
            assert locsig.h_word(w, ctx) == F(4 * n * g, 2 * g + 1)
        w = (gen_word(2, ChainTwist(5), -2) * gen_word(2, IOTA)) ** 2
        assert locsig.h_word(w, CTX_I2) == F(8, 5)

    def test_chain_relation_consistency(self):
        # g(2g-1) h(t_1) = h(t_{2g+1}), exactly, for g = 1..6
        for g in range(1, 7):
            ctx = CycleContext(g, TypeI())
            assert g * (2 * g - 1) * locsig.h_generator(ChainTwist(1), ctx) == \
                locsig.h_generator(ChainTwist(2 * g + 1), ctx)

    def test_boundary_chain_consistency(self):
        # both boundary words of a separating curve give the same h value
        for g in range(2, 7):
            for h in range(1, g):
                ctx = CycleContext(g, TypeII(h))
                s1 = locsig.h_word(chain_word(g, range(1, 2 * h + 1), 4 * h + 2), ctx)
                s2 = locsig.h_word(
                    chain_word(g, range(2 * h + 2, 2 * g + 2), 4 * (g - h) + 2), ctx)
                assert s1 == s2

    def test_cost_does_not_grow_with_exponents(self):
        w = gen_word(2, ChainTwist(1), 10 ** 15)
        assert locsig.h_word(w, CTX_I2) == F(-10 ** 15, 15)
        with pytest.raises(ContextError):
            locsig.h_word(gen_word(2, ChainTwist(4), 10 ** 15) * w, CTX_I2)

    def test_nested_words_match_fraction_reference(self, rng):
        # reference: e * value(item), summed in Fractions over the word tree
        def reference(w, value):
            return sum((e * (reference(item, value) if isinstance(item, Word)
                             else value(item))
                        for item, e in w.items), F(0))

        def other(gen):
            # denominators 4, 5 and 6 on the chain twists, 9 on iota
            if gen == IOTA:
                return F(-7, 9)
            return F(gen.index - 3, 4 + gen.index % 3)

        for _ in range(60):
            g = rng.randint(1, 5)
            cycle = TypeI() if rng.random() < 0.5 else TypeII(rng.randint(0, g))
            ctx = CycleContext(g, cycle)
            inner = random_context_word(rng, ctx, rng.randint(1, 4))
            e = rng.choice([-10 ** 12, -37, 2, 1000, 10 ** 15])
            w = (random_context_word(rng, ctx, 3) * Word(g, ((inner, e),)) *
                 random_context_word(rng, ctx, 2))
            w = Word(g, ((w, rng.choice([-3, 1, 64])), (inner, -1)))
            assert locsig.h_word(w, ctx) == \
                reference(w, lambda gen: locsig.h_generator(gen, ctx))
            assert words.homomorphism(w, other) == reference(w, other)

    def test_context_violations(self):
        with pytest.raises(ContextError):
            locsig.h_word(gen_word(2, ChainTwist(4)), CTX_I2)
        with pytest.raises(ContextError):
            locsig.h_word(gen_word(3, ChainTwist(3)), CycleContext(3, TypeII(1)))
        with pytest.raises(ContextError):
            locsig.h_word(gen_word(3, IOTA), CycleContext(3, TypeII(1)))
        with pytest.raises(ContextError):
            locsig.h_word(gen_word(2, IOTA), CycleContext(2, TypeII(0)))


class TestSValues:
    def test_generator_values(self):
        assert locsig.s_generator(ChainTwist(5), CTX_I2) == -1
        assert locsig.s_generator(ChainTwist(1), CTX_I2) == 0
        assert locsig.s_generator(IOTA, CTX_I2) == 0

    def test_genus_one_exception(self):
        # at genus 1 the chain curve t_1 is isotopic to the top curve
        ctx = CycleContext(1, TypeI())
        assert locsig.s_generator(ChainTwist(1), ctx) == -1
        assert locsig.s_generator(ChainTwist(3), ctx) == -1

    def test_separating_context_vanishes(self, rng):
        ctx = CycleContext(3, TypeII(1))
        for _ in range(10):
            w = random_context_word(rng, ctx, rng.randrange(1, 10))
            assert locsig.s_word(w, ctx) == 0

    def test_word_values_not_additive(self):
        # s of a power saturates at the sign, it does not add up
        assert locsig.s_word(gen_word(2, ChainTwist(5), 2), CTX_I2) == -1
        assert locsig.s_word(gen_word(2, ChainTwist(5), -3), CTX_I2) == 1
        assert locsig.s_word(gen_word(2, ChainTwist(5)) * gen_word(2, IOTA),
                             CTX_I2) == 0
        assert locsig.s_word(Word(2), CTX_I2) == 0


class TestSAgainstTripleFold:
    def contexts(self, g):
        return [CycleContext(g, TypeI())] + [CycleContext(g, TypeII(h)) for h in range(g + 1)]

    def test_random_context_words(self, rng):
        for g in (1, 2, 3, 4):
            for ctx in self.contexts(g):
                for _ in range(8):
                    w = random_context_word(rng, ctx, rng.randrange(1, 12))
                    assert locsig.s_word(w, ctx) == s_by_triple_fold(w, ctx), (ctx, w)

    def test_nested_huge_powers(self, rng):
        for _ in range(40):
            g = rng.randint(1, 4)
            ctx = rng.choice(self.contexts(g) + [CycleContext(g, TypeI())] * g)
            base = bounded_power_base(rng, ctx)
            e = rng.choice([-10 ** 12, -999_999_999_999, -37, 2, 1000, 10 ** 12])
            w = (random_context_word(rng, ctx, 2) * Word(g, ((base, e),)) *
                 random_context_word(rng, ctx, 2))
            w = Word(g, ((w, rng.choice([-3, -1, 2])), (base, -1)))
            s = locsig.s_word(w, ctx)
            assert s == s_by_triple_fold(w, ctx), (ctx, w)
            if not isinstance(ctx.cycle, TypeI):
                assert s == 0


class TestPushForward:
    def test_type_one_drops_top_twist(self):
        w = gen_word(2, ChainTwist(5), -4) * gen_word(2, ChainTwist(1)) \
            * gen_word(2, IOTA)
        image = locsig.push_forward(w, CTX_I2)
        assert image.genus == 1
        assert image.items == ((ChainTwist(1), 1), (IOTA, 1))

    def test_type_two_splits_sides(self):
        ctx = CycleContext(3, TypeII(1))
        w = gen_word(3, ChainTwist(1), 2) * gen_word(3, ChainTwist(4)) \
            * gen_word(3, ChainTwist(7), -1)
        side1, side2 = locsig.push_forward(w, ctx)
        assert side1.genus == 1 and side1.items == ((ChainTwist(1), 2),)
        assert side2.genus == 2
        assert side2.items == ((ChainTwist(1), 1), (ChainTwist(4), -1))

    def test_genus_one_chain_twist_dies(self):
        # the cut surface is a sphere, which has no chain curves; s and the
        # pushed phi read 0 there, as they did when t_1 survived
        ctx = CycleContext(1, TypeI())
        assert locsig.push_forward(gen_word(1, ChainTwist(1), 3), ctx) == Word(0)
        w = words.parse_word("t1^-2 iota t3 (t1 t3)^5 t1", 1)
        assert locsig.push_forward(w, ctx) == Word(0, ((IOTA, 1),))
        rep = locsig.decomposition_check(gen_word(1, ChainTwist(1), 3), ctx)
        assert (rep.homomorphism, rep.s_term, rep.phi_term, rep.pushed_phi_term) == (-1, -1, 0, 0)
        rep = locsig.decomposition_check(w, ctx)
        assert rep.agrees and rep.pushed_phi_term == 0
        assert rep.s_term == locsig.s_word(w, ctx) == s_by_triple_fold(w, ctx)

    def test_trivial_separating_side(self):
        ctx = CycleContext(2, TypeII(0))
        w = gen_word(2, ChainTwist(3))
        side1, side2 = locsig.push_forward(w, ctx)
        assert side1.genus == 0 and side2 == w


class TestDecomposition:
    def contexts(self):
        out = [CycleContext(g, TypeI()) for g in (1, 2, 3)]
        out += [CycleContext(2, TypeII(1)), CycleContext(3, TypeII(1)),
                CycleContext(3, TypeII(2)), CycleContext(2, TypeII(0)),
                CycleContext(2, TypeII(2))]
        return out

    def test_every_generator(self):
        for ctx in self.contexts():
            gens = [ChainTwist(i) for i in sorted(locsig.allowed_chain_indices(ctx))]
            if locsig.iota_allowed(ctx):
                gens.append(IOTA)
            for gen in gens:
                rep = locsig.decomposition_check(gen_word(ctx.genus, gen), ctx)
                assert rep.agrees, (ctx, gen, rep)

    def test_top_twist_assembly(self):
        rep = locsig.decomposition_check(gen_word(2, ChainTwist(5)), CTX_I2)
        assert rep.homomorphism == F(-2, 5)
        assert rep.s_term == -1
        assert rep.phi_term == F(3, 5)
        assert rep.pushed_phi_term == 0

    def test_iota_assembly(self):
        rep = locsig.decomposition_check(gen_word(2, IOTA), CTX_I2)
        assert rep.homomorphism == 0 == rep.assembled
        assert rep.s_term == 0 and rep.phi_term == 0 and rep.pushed_phi_term == 0

    def test_random_words(self, rng):
        for ctx in self.contexts():
            for _ in range(20):
                w = random_context_word(rng, ctx, rng.randrange(1, 20))
                rep = locsig.decomposition_check(w, ctx)
                assert rep.agrees, (ctx, w)

    def test_terms_match_the_separate_evaluations(self, rng):
        for ctx in self.contexts():
            for _ in range(8):
                w = random_context_word(rng, ctx, rng.randrange(1, 12))
                rep = locsig.decomposition_check(w, ctx)
                image = locsig.push_forward(w, ctx)
                sides = (image,) if isinstance(ctx.cycle, TypeI) else image
                assert rep.homomorphism == locsig.h_word(w, ctx)
                assert rep.s_term == locsig.s_word(w, ctx)
                assert rep.phi_term == meyer.phi(w)
                assert rep.pushed_phi_term == sum(meyer.phi(x) for x in sides)

    def test_each_correction_is_folded_once(self, monkeypatch):
        calls = []
        correction = meyer.correction

        def recording(w):
            calls.append(w)
            return correction(w)

        monkeypatch.setattr(meyer, "correction", recording)
        for ctx, text in ((CycleContext(3, TypeI()), "t1 t2^-1 (t3 t7^2)^5 iota t5"),
                          (CycleContext(3, TypeII(0)), "t1 t2^-1 (t3 t7^2)^5 t5"),
                          (CycleContext(3, TypeII(1)), "t1 t2^-1 (t4 t7^2)^5 t5")):
            w = words.parse_word(text, 3)
            calls.clear()
            assert locsig.decomposition_check(w, ctx).agrees
            assert len(calls) == len(set(calls)), ctx
            image = locsig.push_forward(w, ctx)
            assert set(calls) == {w, *((image,) if isinstance(ctx.cycle, TypeI) else image)}
