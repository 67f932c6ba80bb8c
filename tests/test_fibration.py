import functools
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from blfsig import fibration as fib
from blfsig import cli, locsig, meyer, surface, verify
from blfsig.fibration import (
    ConsistencyError, FibrationSpec, LefschetzDatum, RoundRegion,
    chain_twist_datum, family_spec,
)
from blfsig.locsig import CycleContext
from blfsig.surface import TypeI, TypeII
from blfsig.verify import random_valid_spec, random_word
from blfsig.words import (IOTA, ChainTwist, Word, WordError, chain_word, format_word,
                          gen_word, parse_word)
from conftest import arr, eye, plain_fold


def with_data(spec, data):
    """The spec with its Lefschetz data replaced by ``data``."""
    return FibrationSpec(spec.higher_fiber, tuple(data), spec.rounds, spec.spin,
                         spec.simply_connected)


def unshared(spec):
    """The spec with every Lefschetz entry rebuilt as its own datum object,
    so that no two entries share one."""
    return with_data(spec, [LefschetzDatum(d.cycle, d.conjugator) for d in spec.lefschetz])


# data that validation refuses, appended to the 16 data of mgn(2, 1)
BAD_DATA = [
    [chain_twist_datum(1, 1) for _ in range(5)],
    [LefschetzDatum(TypeII(7), Word(2))],
    [LefschetzDatum(TypeII(0), Word(2)), LefschetzDatum(TypeII(2), Word(2))],
]
BAD_DATA_IDS = ["five-of-genus-1", "II_7", "II_0-and-II_2"]


def random_conjugator(rng, g, length):
    """A word at genus g with chain twists (some to the power 10^12), iota,
    separating twists (t_1 ... t_{2h})^{4h+2} and nested powers (u)^N, |N| up to 10^12, of a u whose
    matrix has finite order or is unipotent, so its entries stay small."""
    items = []
    for _ in range(length):
        kind = rng.randrange(6)
        big = rng.choice([1, -1, 2, -3, 10 ** 12, -10 ** 12, 10 ** 12 - 1])
        if kind == 0:
            items.append((IOTA, rng.choice([1, 2, -3])))
        elif kind == 1:
            h = rng.randrange(g + 1)
            items += (chain_word(g, range(1, 2 * h + 1), 4 * h + 2) ** rng.choice([1, -2])).items
        elif kind == 2:
            # an even run of the chain bounds a separating curve: finite order
            n = 2 * rng.randrange(1, g + 1)
            i = rng.randrange(1, 2 * g + 3 - n)
            items.append((chain_word(g, range(i, i + n)), big))
        elif kind == 3:
            # a conjugated twist: unipotent
            u = random_word(rng, g, rng.randrange(1, 4))
            items.append((u * gen_word(g, ChainTwist(rng.randrange(1, 2 * g + 2))) * u.inverse(),
                          big))
        else:
            items.append((ChainTwist(rng.randrange(1, 2 * g + 2)), big))
    return Word(g, tuple(items))


class TestLefschetzData:
    def test_conjugator_realizes_chain_twist(self):
        for g in (1, 2, 3):
            for i in range(1, 2 * g + 2):
                datum = chain_twist_datum(i, g)
                M = surface.word_to_matrix(datum.word())
                want = surface.transvection(surface.chain_class(i, g))
                assert M == want, (g, i)

    def test_separating_datum_acts_trivially(self):
        d = LefschetzDatum(TypeII(1), chain_word(2, [1, 3]))
        assert surface.word_to_matrix(d.word()) == eye(4)

    def test_matrix_is_the_matrix_of_the_datum_word(self, rng):
        # W t_c W^-1 is the transvection along v = W c, and vector()
        # computes v by acting on c with the conjugator's letters
        data = [d for _ in range(40) for d in random_valid_spec(rng, max_genus=4).lefschetz]
        for g in (1, 2, 3, 4):
            moved = list(family_spec("mgn", g, 1).lefschetz)
            for _ in range(8):
                # Hurwitz move (a, b) -> (a b a^-1, a)
                p = rng.randrange(len(moved) - 1)
                a, b = moved[p], moved[p + 1]
                moved[p:p + 2] = LefschetzDatum(b.cycle, a.word() * b.conjugator), a
            data += moved
            data += [LefschetzDatum(TypeII(h), random_word(rng, g, rng.randrange(0, 8)))
                     for h in range(g + 1) for _ in range(3)]
            data += [LefschetzDatum(cycle, random_conjugator(rng, g, rng.randrange(0, 9)))
                     for cycle in [TypeI()] * 25 + [TypeII(h) for h in range(g + 1)]]
        data += family_spec("mgn_tilde", 2, 1).lefschetz
        for d in data:
            v = d.vector()
            assert all(type(x) is int for x in v)
            M = surface.transvection(v)
            assert M == surface.word_matrix(d.word()), d
            W, c = surface.word_matrix(d.conjugator), surface.cycle_class(d.cycle, d.genus)
            assert list(v) == [sum(a * b for a, b in zip(row, c)) for row in W]
            if isinstance(d.cycle, TypeII):
                assert v == (0,) * (2 * d.genus) and M == eye(2 * d.genus)

    def test_separating_datum_words_have_a_text_form(self, rng):
        # the II_h standard twist is a chain word, so every datum word
        # round-trips through the text grammar
        for g in range(1, 5):
            for h in range(g + 1):
                for conj in [Word(g)] + [random_conjugator(rng, g, rng.randrange(0, 6))
                                         for _ in range(4)]:
                    w = LefschetzDatum(TypeII(h), conj).word()
                    assert parse_word(format_word(w), g) == w, (g, h, w)

    def test_standard_twist_rejects_h_out_of_range(self):
        for g in range(1, 5):
            assert LefschetzDatum(TypeII(0), Word(g)).standard_twist() == Word(g)
            for h in (-1, g + 1, g + 2):
                d = LefschetzDatum(TypeII(h), Word(g))
                with pytest.raises(WordError, match=f"II_{h}"):
                    d.standard_twist()
                with pytest.raises(WordError):
                    d.word()

    def test_nested_power_costs_log_many_products(self, monkeypatch):
        products = []
        mat_mul = surface.mat_mul

        def counting(A, B):
            products.append(1)
            return mat_mul(A, B)

        monkeypatch.setattr(surface, "mat_mul", counting)
        N = 10 ** 12
        for g in (2, 3):
            d = LefschetzDatum(TypeI(), chain_word(g, [1, 2], N))
            fib._vanishing_class.cache_clear()
            products.clear()
            v = d.vector()
            assert 0 < len(products) <= 2 * N.bit_length() + 2
            # (t1 t2)^6 acts trivially on homology, and 10^12 = 4 mod 6
            assert v == LefschetzDatum(TypeI(), chain_word(g, [1, 2], 4)).vector()


class TestFamilies:
    def test_mgn_counts(self):
        s = family_spec("mgn", 1, 1)
        assert len(s.lefschetz) == 8 and len(s.rounds) == 1
        assert all(isinstance(d.cycle, TypeI) for d in s.lefschetz)
        assert isinstance(s.rounds[0].cycle, TypeI)

    def test_mgn_flags(self):
        assert family_spec("mgn", 2, 2).spin
        assert not family_spec("mgn", 2, 1).spin
        assert family_spec("mgn", 1, 1).simply_connected

    def test_tilde_counts_and_flags(self):
        s = family_spec("mgn_tilde", 2, 1)
        assert len(s.lefschetz) == 28
        assert s.spin  # g even
        assert not family_spec("mgn_tilde", 3, 1).spin

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            family_spec("mgn", 0, 1)
        with pytest.raises(ValueError):
            family_spec("mgn_tilde", 1, 1)
        with pytest.raises(ValueError):
            family_spec("mgn", 1, 0)
        with pytest.raises(ValueError):
            family_spec("nope", 1, 1)

    def test_signatures_small(self):
        assert fib.total_signature(family_spec("mgn", 1, 1)) == -4
        assert fib.total_signature(family_spec("mgn", 2, 3)) == -24
        assert fib.total_signature(family_spec("mgn_tilde", 2, 1)) == -16

    def test_euler_small(self):
        assert fib.euler_characteristic(family_spec("mgn", 1, 1)) == 10
        assert fib.euler_characteristic(family_spec("mgn_tilde", 2, 1)) == 26

    def test_data_shared_per_chain_index(self):
        # one frozen datum object per chain index, not one per position
        specs = [family_spec("mgn", g, n) for g in (1, 2, 3) for n in (1, 2, 3, 4)]
        specs += [family_spec("mgn_tilde", g, n) for g in (2, 3) for n in (1, 2)]
        for s in specs:
            g = s.higher_fiber[0]
            assert len({id(d) for d in s.lefschetz}) <= 4 * g + 1


class TestValidation:
    def test_family_passes(self):
        for spec in (family_spec("mgn", 1, 1), family_spec("mgn", 2, 1),
                     family_spec("mgn_tilde", 2, 1)):
            rep = fib.validate(spec)
            assert rep.ok, [str(i) for i in rep.issues]

    def test_trivial_bundle_passes(self):
        spec = FibrationSpec((2,))
        assert fib.validate(spec).ok
        assert fib.total_signature(spec) == 0
        assert fib.euler_characteristic(spec) == -4

    def test_generator_context_failure(self):
        # t_{2g} is not in the stabiliser generating set of a type I cycle
        bad = FibrationSpec((2,), (), (RoundRegion(0, TypeI(), gen_word(2, ChainTwist(4))),))
        rep = fib.validate(bad)
        assert not rep.ok
        assert any("t4" in str(i) for i in rep.issues)

    def test_mismatched_round_monodromy(self):
        # Hurwitz part empty, fold monodromy a nontrivial transvection power
        bad = FibrationSpec((1,), (), (RoundRegion(0, TypeI(), gen_word(1, ChainTwist(3), -4)),))
        rep = fib.validate(bad)
        assert not rep.ok

    def test_datum_of_wrong_genus_is_an_issue(self):
        bad = FibrationSpec((2,), (chain_twist_datum(1, 2), chain_twist_datum(1, 1)), ())
        rep = fib.validate(bad)
        assert [i.where for i in rep.issues] == ["lefschetz[1]"]
        assert "genus" in rep.issues[0].message

    def test_inessential_lefschetz_cycle(self):
        bad = FibrationSpec((2,), (LefschetzDatum(TypeII(2), Word(2)),), ())
        rep = fib.validate(bad)
        assert any("essential" in str(i) for i in rep.issues)

    @pytest.mark.parametrize("bad", BAD_DATA, ids=BAD_DATA_IDS)
    def test_both_pipelines_refuse_what_validation_refuses(self, bad):
        base = family_spec("mgn", 2, 1)
        spec = with_data(base, base.lefschetz + tuple(bad))
        issues = [str(i) for i in fib.validate(spec).issues]
        assert [i.split(":")[0] for i in issues] == \
            [f"lefschetz[{16 + j}]" for j in range(len(bad))]
        for pipeline in (fib.total_signature, fib.signature_meyer_path,
                         fib.signature_breakdown):
            with pytest.raises(ConsistencyError) as err:
                pipeline(spec)
            assert str(err.value) == issues[0]
        with pytest.raises(fib.ValidationError):
            fib.compute_report(spec)

    def test_each_distinct_datum_is_checked_once(self, monkeypatch):
        spec = family_spec("mgn", 2, 2)  # 32 data, 4 distinct objects
        data = fib._walk(spec).data  # id -> datum, in order of first entry
        assert list(data) == list(dict.fromkeys(map(id, spec.lefschetz)))
        reads = []
        genus = LefschetzDatum.genus
        monkeypatch.setattr(LefschetzDatum, "genus",
                            property(lambda d: reads.append(d) or genus.fget(d)))
        assert fib._data_issues(spec, data) == []
        assert len(spec.lefschetz) == 32
        assert len(reads) == len({id(d) for d in spec.lefschetz}) == 4

    def test_a_bad_datum_is_refused_before_a_bad_fold(self):
        # t4 is outside the stabiliser of a type I cycle at genus 2
        bad = gen_word(2, ChainTwist(4))
        spec = FibrationSpec((2,), (chain_twist_datum(1, 2), chain_twist_datum(1, 1)),
                             (RoundRegion(0, TypeI(), bad),))
        with pytest.raises(locsig.ContextError) as fold:
            locsig.validate_word(bad, CycleContext(2, TypeI()))
        datum = "lefschetz[1]: word genus 1 != fiber genus 2"
        for pipeline in (fib.signature_breakdown, fib.signature_meyer_path):
            with pytest.raises(ConsistencyError) as err:
                pipeline(spec)
            assert type(err.value) is ConsistencyError and str(err.value) == datum
        assert [str(i) for i in fib.validate(spec).issues] == [datum, f"rounds[0]: {fold.value}"]

    def test_a_bad_fold_is_refused_before_any_fold_is_evaluated(self, monkeypatch):
        # mgn(2, 1) and then a fold on the genus-1 side whose monodromy t2 is
        # outside its stabiliser: the localized formula refuses it through
        # the walk, before it evaluates h on the good first fold
        base = family_spec("mgn", 2, 1)
        bad = gen_word(1, ChainTwist(2))
        spec = FibrationSpec((2,), base.lefschetz,
                             base.rounds + (RoundRegion(0, TypeI(), bad),))
        with pytest.raises(locsig.ContextError) as want:
            locsig.validate_word(bad, CycleContext(1, TypeI()))
        calls = []
        h_word = locsig.h_word
        monkeypatch.setattr(locsig, "h_word", lambda *args: calls.append(args) or h_word(*args))
        for pipeline in (fib.signature_breakdown, fib.signature_meyer_path):
            with pytest.raises(locsig.ContextError) as err:
                pipeline(spec)
            assert str(err.value) == str(want.value)
        assert calls == []
        assert [str(i) for i in fib.validate(spec).issues] == [f"rounds[1]: {want.value}"]

    def test_a_round_on_a_missing_component(self):
        spec = FibrationSpec((1,), (), (RoundRegion(0, TypeI(), Word(1)),
                                        RoundRegion(5, TypeI(), Word(0))))
        with pytest.raises(ConsistencyError) as err:
            fib.component_stages(spec)
        assert str(err.value) == "round 1: component 5 does not exist"
        assert [str(i) for i in fib.validate(spec).issues] == [
            "components: round 1: component 5 does not exist"]

    def test_data_on_a_genus_zero_active_component(self):
        spec = FibrationSpec((0,), (LefschetzDatum(TypeI(), Word(0)),), ())
        assert [str(i) for i in fib.validate(spec).issues] == [
            "components: active component must have genus >= 1"]
        # both pipelines refuse it by the same rule, in the same words
        for pipeline in (fib.total_signature, fib.signature_meyer_path):
            with pytest.raises(ConsistencyError) as err:
                pipeline(spec)
            assert str(err.value) == "active component must have genus >= 1"
        empty = FibrationSpec((0, 2), (), ())
        assert fib.validate(empty).ok
        assert fib.total_signature(empty) == fib.signature_meyer_path(empty) == 0

    def test_fold_on_genus_zero_component(self):
        # the first fold drops component 0 to genus 0, where no second fold
        # applies; validation and both pipelines refuse it in the same words
        for cycle, message in ((TypeI(), "round 1: type I fold on a genus-0 component"),
                               (TypeII(0), "round 1: II_0 fold on a genus-0 component")):
            bad = FibrationSpec((1,), (), (
                RoundRegion(0, TypeI(), Word(1)),
                RoundRegion(0, cycle, Word(0)),
            ))
            assert [str(i) for i in fib.validate(bad).issues] == [f"components: {message}"]
            for pipeline in (fib.signature_breakdown, fib.signature_meyer_path):
                with pytest.raises(ConsistencyError) as err:
                    pipeline(bad)
                assert str(err.value) == message

    @pytest.mark.parametrize("g, h, stages, label, chi", [
        (2, 1, [[2], [1, 1], [1, 0]], "h[1](g=1, I)", 0),
        (3, 1, [[3], [1, 2], [1, 1]], "h[1](g=2, I)", -4),
        (3, 2, [[3], [2, 1], [2, 0]], "h[1](g=1, I)", -4),
    ])
    def test_fold_on_the_component_a_separating_fold_splits_off(self, g, h, stages,
                                                                 label, chi):
        # II_h puts its genus g - h side on the new component 1, which carries
        # the second fold; its incoming monodromy is the identity.  The
        # separating twist passes validation but its h is no integer, as in
        # test_unrealizable_input_caught_by_integrality
        def spec(component, second):
            return FibrationSpec((g,), (), (
                RoundRegion(0, TypeII(h), chain_word(g, range(1, 2 * h + 1), 4 * h + 2)),
                RoundRegion(component, TypeI(), second)))

        good = spec(1, Word(g - h))
        assert fib.validate(good).ok
        assert ("rounds[0]: separating cycle is invisible to homology; orientation "
                "preservation is enforced by the generating set") in fib.validate(good).notes
        assert fib.component_stages(good) == stages
        assert fib.signature_breakdown(good).h_terms[-1] == (label, 0)
        assert fib.signature_meyer_path(good) == 0
        with pytest.raises(ConsistencyError, match="not an integer"):
            fib.total_signature(good)
        assert fib.euler_characteristic(good) == chi
        twisted = spec(1, gen_word(g - h, ChainTwist(1)))
        assert [str(i) for i in fib.validate(twisted).issues] == [
            "rounds[1]: monodromy does not match the incoming boundary monodromy "
            "on homology"]
        missing = spec(2, Word(g - h))
        assert [str(i) for i in fib.validate(missing).issues] == [
            "components: round 1: component 2 does not exist"]

    def test_unrealizable_input_caught_by_integrality(self):
        # passes homological validation (separating twists are invisible)
        # but no fibration exists: the signature formula is not an integer
        g, h = 2, 1
        mono = chain_word(g, range(1, 2 * h + 1), 4 * h + 2)
        spec = FibrationSpec((g,), (), (RoundRegion(0, TypeII(h), mono),))
        assert fib.validate(spec).ok
        with pytest.raises(ConsistencyError):
            fib.total_signature(spec)

    def test_single_lefschetz_non_integer(self):
        spec = FibrationSpec((1,), (chain_twist_datum(1, 1),), ())
        with pytest.raises(ConsistencyError):
            fib.total_signature(spec)

    def test_genus_one_census(self):
        # Mod(T^2) = SL(2, Z), so at genus 1 the matrices decide: of the
        # positive words in t1, t2, the 8 of length 6 that multiply to
        # iota = -1 are refused at the south disk, and the 196 of length 12
        # that multiply to 1 all give E(1), (sigma, chi) = (-8, 12)
        t = {i: surface.word_matrix(gen_word(1, ChainTwist(i))) for i in (1, 2)}
        for length, product, count in ((6, surface.iota_matrix(1), 8),
                                       (6, surface.sp_identity(1), 0),
                                       (12, surface.sp_identity(1), 196)):
            words = [w for w in itertools.product((1, 2), repeat=length)
                     if functools.reduce(surface.mat_mul, (t[i] for i in w)) == product]
            assert len(words) == count
            for w in words:
                spec = FibrationSpec((1,), tuple(chain_twist_datum(i, 1) for i in w), ())
                rep = fib.validate(spec)
                if length == 6:
                    assert [i.where for i in rep.issues] == ["south disk"], w
                    continue
                assert rep.ok, w
                assert fib.total_signature(spec) == -8 and fib.euler_characteristic(spec) == 12
                assert fib.signature_meyer_path(spec) == -8


class TestMeyerPath:
    def test_families_agree(self):
        for spec in (family_spec("mgn", 1, 1), family_spec("mgn", 1, 2),
                     family_spec("mgn", 2, 1), family_spec("mgn_tilde", 2, 1)):
            assert fib.signature_meyer_path(spec) == fib.total_signature(spec)

    def test_trivial_bundle(self):
        assert fib.signature_meyer_path(FibrationSpec((3,))) == 0

    def test_pure_lefschetz_degeneration(self):
        # (t_1 t_2)^6 = 1 at genus 1: twelve fishtail fibers over the sphere,
        # no folds; both pipelines must give 12 * (-2/3) = -8
        data = tuple(chain_twist_datum(i, 1) for _ in range(6) for i in (1, 2))
        spec = FibrationSpec((1,), data, (), simply_connected=True)
        rep = fib.validate(spec)
        assert rep.ok, [str(i) for i in rep.issues]
        assert fib.total_signature(spec) == -8
        assert fib.signature_meyer_path(spec) == -8
        assert fib.euler_characteristic(spec) == 12
        homeo = fib.homeomorphism_report(-8, 12, False, True)
        assert homeo.summands == ((1, "CP2"), (9, "CP2bar"))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize("chain", ["odd", "even"])
    def test_chain_relations(self, g, chain):
        # the pure Lefschetz fibrations of the odd chain (t_1 ... t_{2g+1})^{2g+2}
        # and the even chain (t_1 ... t_{2g})^{4g+2}, with Endo's closed forms
        # sigma = -2(g+1)^2 and -4g(g+1); chi = 4 - 4g + #data
        length, power, sigma = (2 * g + 1, 2 * g + 2, -2 * (g + 1) ** 2) if chain == "odd" \
            else (2 * g, 4 * g + 2, -4 * g * (g + 1))
        data = tuple(chain_twist_datum(i, g) for i in range(1, length + 1)) * power
        spec = FibrationSpec((g,), data, ())
        assert fib.validate(spec).ok
        assert fib.total_signature(spec) == fib.signature_meyer_path(spec) == sigma
        assert fib.euler_characteristic(spec) == 4 - 4 * g + length * power

    def test_random_specs_agree(self, rng):
        for _ in range(15):
            spec = random_valid_spec(rng, max_genus=3)
            assert fib.validate(spec).ok
            assert fib.total_signature(spec) == fib.signature_meyer_path(spec)


def meyer_path_by_words(spec) -> Fraction:
    """The word-level assembly that the telescoped sum replaces:
    sum s(rounds) - phi(H^-1) - sum_k phi(D_k) - #II, with phi evaluated
    letter by letter on the Hurwitz word H and on every datum word."""
    stages = fib.component_stages(spec)
    total = sum((locsig.s_word(r.monodromy, CycleContext(stages[k][r.component], r.cycle))
                 for k, r in enumerate(spec.rounds)), Fraction(0))
    if spec.active_genus() >= 1:
        total -= meyer.phi(fib.hurwitz_word(spec).inverse())
    for d in spec.lefschetz:
        total -= meyer.phi(d.word()) + isinstance(d.cycle, TypeII)
    return total


class TestTelescopedMeyerPath:
    def test_families_match_word_assembly(self):
        specs = [family_spec("mgn", g, n) for g in (1, 2, 3) for n in (1, 2)]
        specs += [family_spec("mgn_tilde", g, 1) for g in (2, 3)]
        for spec in specs:
            assert fib.signature_meyer_path(spec) == meyer_path_by_words(spec)

    def test_random_specs_match_word_assembly(self, rng):
        for _ in range(30):
            spec = random_valid_spec(rng, max_genus=3)
            assert fib.signature_meyer_path(spec) == meyer_path_by_words(spec)

    def test_no_phi_evaluation(self, monkeypatch):
        def no_phi(w):
            raise AssertionError("phi evaluated on a word")

        monkeypatch.setattr(meyer, "phi", no_phi)
        assert fib.signature_meyer_path(family_spec("mgn", 2, 1)) == -8

    def test_validation_does_not_build_the_hurwitz_word(self, monkeypatch):
        def no_word(spec):
            raise AssertionError("Hurwitz word built")

        monkeypatch.setattr(fib, "hurwitz_word", no_word)
        assert fib.compute_report(family_spec("mgn", 2, 1)).two_paths_agree

    def test_each_datum_class_is_computed_once(self, monkeypatch, rng):
        # validate and the Meyer path both need every datum's transvection;
        # its class is computed once per distinct datum by acting on the
        # vector, so no datum word, and no conjugator of chain letters
        # alone, goes through the word evaluator
        data = list(family_spec("mgn", 2, 2).lefschetz)
        for _ in range(6):
            p = rng.randrange(len(data) - 1)
            a, b = data[p], data[p + 1]
            data[p:p + 2] = LefschetzDatum(b.cycle, a.word() * b.conjugator), a
        spec = with_data(family_spec("mgn", 2, 2), data)
        assert all(isinstance(item, ChainTwist) for d in data for item, _ in d.conjugator.items)
        assert len(set(data)) < len(data)
        act, evaluate = surface.word_action, surface.word_matrix
        actions, evaluated = [], []

        def acting(w, c):
            actions.append(w)
            return act(w, c)

        def evaluating(w):
            evaluated.append(w)
            return evaluate(w)

        monkeypatch.setattr(surface, "word_action", acting)
        monkeypatch.setattr(surface, "word_matrix", evaluating)
        fib._vanishing_class.cache_clear()
        assert fib.compute_report(spec).two_paths_agree
        assert Counter(actions) == Counter({d.conjugator for d in data})
        assert fib._vanishing_class.cache_info().misses == len(set(data))
        assert not set(evaluated) & {w for d in data for w in (d.word(), d.conjugator)}


def hurwitz_moved_family(rng, g, n, moves):
    """mgn(g, n) with elementary Hurwitz moves (a, b) -> (a b a^-1, a), all
    inside one repetition of its block of 4g data, drawn by ``rng``: the
    data read block^a (moved block) block^b, and every invariant is kept."""
    spec = family_spec("mgn", g, n)
    data = list(spec.lefschetz)
    r = rng.randrange(2 * n)
    for _ in range(moves):
        p = 4 * g * r + rng.randrange(4 * g - 1)
        a, b = data[p], data[p + 1]
        data[p:p + 2] = LefschetzDatum(b.cycle, a.word() * b.conjugator), a
    return with_data(spec, data)


class TestHurwitzFold:
    def test_matches_the_plain_fold(self, rng):
        for g in (1, 2, 3):
            for n in (1, 2, 3):
                for moves in (0, 1, 2):
                    spec = hurwitz_moved_family(rng, g, n, moves)
                    c, H = fib._hurwitz_state(spec)
                    mats = [surface.word_matrix(d.word()) for d in spec.lefschetz]
                    assert (c, arr(H).tolist()) == plain_fold(mats)
                    rep = fib.compute_report(spec)
                    assert rep.meyer_path_signature == fib.signature_meyer_path(spec) == -4 * g * n

    def test_separating_data_enter_the_fold_as_no_factor(self, monkeypatch, rng):
        # an essential II_h datum has class 0 and the identity matrix, so it
        # adds tau(P, 1) = 0 and leaves P as it is: the fold of the type I
        # classes alone equals the plain fold of every datum's word matrix
        received = []
        fold = meyer.sequence_state

        def recording(factors):
            received.append(list(factors))
            return fold(factors)

        monkeypatch.setattr(meyer, "sequence_state", recording)
        for g in (2, 3):
            for n in (1, 2):
                for _ in range(3):
                    spec = family_spec("mgn", g, n)
                    data = list(spec.lefschetz)
                    for _ in range(rng.randrange(1, 4)):
                        d = LefschetzDatum(TypeII(rng.randrange(1, g)),
                                           random_conjugator(rng, g, rng.randrange(0, 6)))
                        data.insert(rng.randrange(1, len(data)), d)
                    received.clear()
                    moved = with_data(spec, data)
                    report = fib.validate(moved)
                    assert report.ok, report.issues
                    c, H = fib._hurwitz_state(moved)
                    assert (c, arr(H).tolist()) == \
                        plain_fold([surface.word_matrix(d.word()) for d in data])
                    [factors] = received
                    assert len(factors) == len(spec.lefschetz)
                    assert all(any(v) for v, _ in factors)

    def test_one_fold_per_spec_object(self, monkeypatch):
        # validation and the Meyer path share the fold kept on the spec
        # object; an equal spec built separately folds again
        folded = []
        fold = meyer.sequence_state

        def recording(factors):
            folded.append(len(factors))
            return fold(factors)

        monkeypatch.setattr(meyer, "sequence_state", recording)
        assert fib.compute_report(family_spec("mgn", 2, 1)).two_paths_agree
        assert len(folded) == 1
        spec = family_spec("mgn", 2, 1)
        assert fib.validate(spec).ok
        assert fib.signature_meyer_path(spec) == -8
        assert len(folded) == 2
        again = family_spec("mgn", 2, 1)
        assert again == spec and again is not spec
        assert fib.signature_meyer_path(again) == -8
        assert len(folded) == 3

    def test_a_repeated_block_costs_one_block_plus_log_many_misses(self):
        # mgn(2, 8) is a block of 8 data repeated 16 times
        meyer._tau_cached.cache_clear()
        assert fib.compute_report(family_spec("mgn", 2, 8)).two_paths_agree
        assert meyer._tau_cached.cache_info().misses <= 8 + 2 * (16).bit_length()

    def test_the_two_path_check_folds_each_spec_once(self, monkeypatch):
        folded = []
        fold = meyer.sequence_state

        def recording(mats):
            folded.append(len(mats))
            return fold(mats)

        monkeypatch.setattr(meyer, "sequence_state", recording)
        result = verify.check_two_paths(random.Random(3), 12, 3)
        assert result.passed
        assert len(folded) == int(result.detail.split()[0])  # "N fibrations, ..."

    def test_the_two_path_check_sees_the_window_forms(self, monkeypatch):
        # with every window sum negated, the families still agree, as their
        # windows hold independent classes; the rotated chain systems do not
        assert str(verify.check_two_paths(random.Random(3), 0, 3)) == \
            "ok   two signature pipelines agree: 13 fibrations, 0 disagreements"
        window = meyer._window_state

        def negated(factors):
            c, P = window(factors)
            return -c, P

        monkeypatch.setattr(meyer, "_window_state", negated)
        assert str(verify.check_two_paths(random.Random(3), 0, 3)) == \
            "FAIL two signature pipelines agree: 13 fibrations, 3 disagreements"

    def test_rejected_data_never_reach_the_fold(self, monkeypatch):
        folded = []
        fold = meyer.sequence_state

        def recording(mats):
            folded.append(len(mats))
            return fold(mats)

        monkeypatch.setattr(meyer, "sequence_state", recording)
        data = list(family_spec("mgn", 2, 1).lefschetz)
        for bad in (LefschetzDatum(TypeII(7), Word(2)), chain_twist_datum(1, 1)):
            folded.clear()
            spec = with_data(family_spec("mgn", 2, 1), data + [bad])
            with pytest.raises(fib.ValidationError):
                fib.compute_report(spec)
            assert folded in ([], [len(data)])


class TestSeparatingFold:
    def spec(self):
        g, h = 2, 1
        mono = chain_word(g, range(1, 2 * h + 1), 4 * h + 2) * \
            chain_word(g, range(2 * h + 2, 2 * g + 2), -(4 * (g - h) + 2))
        return FibrationSpec((g,), (), (RoundRegion(0, TypeII(h), mono),))

    def test_validates_and_vanishes(self):
        spec = self.spec()
        assert fib.validate(spec).ok
        assert fib.total_signature(spec) == 0
        assert fib.signature_meyer_path(spec) == 0

    def test_component_bookkeeping(self):
        stages = fib.component_stages(self.spec())
        assert stages[0] == [2]
        assert stages[-1] == [1, 1]
        assert fib.euler_characteristic(self.spec()) == -2


def one_fold_contexts():
    for g in range(1, 7):
        yield CycleContext(g, TypeI())
        yield from (CycleContext(g, TypeII(h)) for h in range(g + 1))


@pytest.mark.parametrize("ctx", list(one_fold_contexts()), ids=str)
def test_the_walk_and_the_pushforward_read_one_cut(ctx):
    # one fold on component 1 of three: the walk keeps side 0 there and
    # appends side 1, and the pushforward of a word holding every generator
    # of the stabiliser gives one word per side at those genera
    g = ctx.genus
    sides = ctx.sides()
    assert sides == ((g - 1,) if isinstance(ctx.cycle, TypeI) else
                     (ctx.cycle.h, g - ctx.cycle.h))
    spec = FibrationSpec((5, g, 3), (), (RoundRegion(1, ctx.cycle, Word(g)),))
    walk = fib._walk(spec)
    assert walk.contexts == (ctx,)
    assert walk.stages == ((5, g, 3), (5, sides[0], 3, *sides[1:]))
    assert tuple(x.genus for x in walk.pushes[0]) == sides
    w = Word(g, tuple((gen, (-1) ** k * (k + 1))
                      for k, gen in enumerate(locsig.generators(ctx))))
    assert tuple(x.genus for x in locsig.push_forward(w, ctx)) == sides


@pytest.mark.parametrize("build, message", [
    (lambda: locsig.generators(CycleContext(2.0, TypeI())), "genus must be an integer, got 2.0"),
    (lambda: locsig.sigma_loc(TypeI(), 2.0), "genus must be an integer, got 2.0"),
    (lambda: fib.abelianization(2.0, TypeII(1)), "genus must be an integer, got 2.0"),
    (lambda: meyer.phi_base(ChainTwist(1), True), "genus must be an integer, got True"),
    (lambda: TypeII(1.0), "II_h needs an integer h, got 1.0"),
    (lambda: TypeII(True), "II_h needs an integer h, got True"),
    (lambda: family_spec("mgn", 2, 1.5), "g and n must be integers, got 2 and 1.5"),
    (lambda: family_spec("mgn", 2, True), "g and n must be integers, got 2 and True"),
    (lambda: family_spec("mgn-tilde", 2.0, 1), "g and n must be integers, got 2.0 and 1"),
    (lambda: chain_twist_datum(True, 2), "chain index must be an integer, got True"),
    (lambda: chain_twist_datum(1.0, 2), "chain index must be an integer, got 1.0"),
    (lambda: fib.chain_twist_conjugator(2.0, 2), "chain index must be an integer, got 2.0"),
    (lambda: surface.chain_class(1.0, 2), "chain index must be an integer, got 1.0"),
    (lambda: surface.chain_class(True, 2), "chain index must be an integer, got True"),
    (lambda: fib.separating_torsion(3, 1.0), "g and h must be integers, got 3 and 1.0"),
    (lambda: fib.separating_torsion(3, True), "g and h must be integers, got 3 and True"),
])
def test_a_genus_a_separating_index_and_n_take_only_ints(build, message):
    # a float raised TypeError deep inside, and a bool passed as 1 (phi_base
    # gave 2/3, TypeII(True) printed II_True, family_spec built a spec)
    meyer.phi_base(ChainTwist(1), 1)  # cached at genus 1, which True must not hit
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


class TestDisconnectedFiber:
    def test_untouched_component_only_shifts_euler(self):
        base = family_spec("mgn", 2, 1)
        spec = FibrationSpec((2, 3), base.lefschetz, base.rounds)
        assert fib.validate(spec).ok
        assert fib.total_signature(spec) == -8
        assert fib.signature_meyer_path(spec) == -8
        # top: (2-4) + (2-6); bottom: (2-2) + (2-6); 16 Lefschetz points
        assert fib.euler_characteristic(spec) == -6 + 16 - 4
        rep = fib.compute_report(spec)
        assert any("carry no folds" in n for n in rep.notes)


class TestHomeomorphismReport:
    def test_non_spin(self):
        rep = fib.homeomorphism_report(-4, 10, False, True)
        assert rep.summands == ((2, "CP2"), (6, "CP2bar"))
        assert rep.display == "#2CP² # 6CP̄²"

    def test_spin_with_negative_signature(self):
        rep = fib.homeomorphism_report(-16, 30, True, True)
        assert rep.summands == ((1, "E2"), (3, "S2xS2"))
        assert rep.display == "E(2) # 3(S²×S²)"
        rep = fib.homeomorphism_report(-16, 26, True, True)
        assert rep.display == "E(2) # (S²×S²)"

    def test_spin_zero_signature(self):
        assert fib.homeomorphism_report(0, 4, True, True).display == "S²×S²"
        assert fib.homeomorphism_report(0, 2, True, True).display == "S⁴"

    def test_not_simply_connected(self):
        assert fib.homeomorphism_report(-4, 10, False, False).status == "indeterminate"

    def test_rokhlin_violation(self):
        with pytest.raises(ConsistencyError):
            fib.homeomorphism_report(-8, 14, True, True)

    def test_negative_b2(self):
        with pytest.raises(ConsistencyError):
            fib.homeomorphism_report(-6, 6, False, True)

    def test_positive_spin_signature_is_not_modelled(self):
        with pytest.raises(ConsistencyError) as err:
            fib.homeomorphism_report(16, 20, True, True)
        assert str(err.value) == "positive-signature spin decompositions are not modelled"

    def test_spin_euler_that_fits_no_e2_count(self):
        # one E(2) summand has chi = 24, so chi = 22 leaves -2 for the S2xS2 blocks
        with pytest.raises(ConsistencyError) as err:
            fib.homeomorphism_report(-16, 22, True, True)
        assert str(err.value) == \
            "no spin decomposition: euler 22 incompatible with 1 E(2) summands"

    def test_recomposition(self):
        # every decomposition accepted on the grid |sig| <= 200, chi < 400
        # recomposes from the blocks' (b2+, b2-): a connected sum adds them,
        # and chi = 2 + b2
        b2 = {"CP2": (1, 0), "CP2bar": (0, 1), "S2xS2": (1, 1), "E2": (3, 19)}
        accepted = Counter()
        for sig in range(-200, 201):
            for euler in range(400):
                for spin in (False, True):
                    try:
                        rep = fib.homeomorphism_report(sig, euler, spin, True)
                    except ConsistencyError:
                        continue
                    accepted[spin] += 1
                    b2p = sum(k * b2[b][0] for k, b in rep.summands)
                    b2m = sum(k * b2[b][1] for k, b in rep.summands)
                    assert (b2p - b2m, 2 + b2p + b2m) == (sig, euler), rep.summands
                    blocks = {b for _, b in rep.summands}
                    assert blocks <= ({"S2xS2", "E2"} if spin else {"CP2", "CP2bar"})
        assert sum(accepted.values()) == 61528 and accepted[True] > 0


class TestAbelianization:
    def test_type_one(self):
        assert fib.abelianization(1, TypeI()) == "Z ⊕ Z/2"
        assert fib.abelianization(2, TypeI()) == "Z ⊕ (Z/2)²"
        assert fib.abelianization(5, TypeI()) == "Z ⊕ (Z/2)²"

    def test_type_two_values(self):
        assert fib.abelianization(2, TypeII(1)) == "Z ⊕ Z/12"
        assert fib.abelianization(3, TypeII(1)) == "Z ⊕ Z/4"

    def test_torsion_matches_gcd(self):
        from math import gcd
        for g in range(2, 9):
            for h in range(1, g):
                want = gcd(4 * h * (2 * h + 1), 4 * (g - h) * (2 * (g - h) + 1))
                assert fib.separating_torsion(g, h) == want

    def test_range_errors(self):
        with pytest.raises(ValueError):
            fib.abelianization(2, TypeII(2))
        with pytest.raises(ValueError):
            fib.separating_torsion(1, 1)


class TestJson:
    def test_round_trip_family(self):
        spec = family_spec("mgn", 2, 1)
        doc = json.loads(json.dumps(fib.spec_to_json(spec)))
        spec2 = fib.spec_from_json(doc)
        assert fib.validate(spec2).ok
        assert fib.total_signature(spec2) == fib.total_signature(spec) == -8
        assert fib.euler_characteristic(spec2) == fib.euler_characteristic(spec)
        assert spec2.spin == spec.spin

    def test_round_trip_separating(self):
        g, h = 3, 1
        mono = chain_word(g, range(1, 2 * h + 1), 4 * h + 2) * \
            chain_word(g, range(2 * h + 2, 2 * g + 2), -(4 * (g - h) + 2))
        spec = FibrationSpec((g,), (), (RoundRegion(0, TypeII(h), mono),))
        doc = fib.spec_to_json(spec)
        spec2 = fib.spec_from_json(doc)
        assert spec2.rounds[0].cycle == TypeII(1)
        assert fib.total_signature(spec2) == 0

    def test_version_enforced(self):
        doc = fib.spec_to_json(family_spec("mgn", 1, 1))
        doc["spec_version"] = 99
        with pytest.raises(ValueError):
            fib.spec_from_json(doc)

    def test_a_family_document_builds_one_datum_per_conjugator(self):
        # the 2g chain conjugators, also when the whole spec is conjugated by
        # a stabiliser word u, well within 4g + 1
        cases = [(family, g, n, u) for family, g, n in
                 (("mgn", 1, 2), ("mgn", 2, 2), ("mgn", 3, 1), ("mgn-tilde", 2, 2))
                 for u in (None, ("t1 t3^-1", "t3 t1^-1") if g == 1 else ("t1 t2^-1", "t2 t1^-1"))]
        for family, g, n, conjugator in cases:
            doc = fib.spec_to_json(family_spec(family, g, n))
            if conjugator:
                u, inverse = conjugator
                for entry in doc["lefschetz"]:
                    entry["conjugator"] = f"{u} {entry.get('conjugator', '')}"
                for entry in doc["rounds"]:
                    entry["monodromy"] = f"{u} {entry['monodromy']} {inverse}"
            spec = fib.spec_from_json(doc)
            distinct = {id(d): d for d in spec.lefschetz}
            assert len(distinct) <= 4 * g + 1
            assert len(set(distinct.values())) == len(distinct)
            fib._vanishing_class.cache_clear()
            rep = fib.compute_report(spec)
            assert fib._vanishing_class.cache_info().misses == len(distinct)
            assert rep.two_paths_agree

    def test_a_round_on_a_missing_component_names_its_path(self):
        doc = fib.spec_to_json(family_spec("mgn", 1, 1))
        doc["rounds"].append({"component": 5, "cycle": {"type": "I"}, "monodromy": ""})
        with pytest.raises(ValueError) as err:
            fib.spec_from_json(doc)
        assert str(err.value) == "rounds[1].component: component 5 does not exist"

    def test_every_entry_is_checked_when_data_repeat(self):
        doc = fib.spec_to_json(family_spec("mgn", 2, 1))
        doc["lefschetz"][5]["typo"] = 1
        doc["lefschetz"][6]["type"] = 2
        with pytest.raises(ValueError, match=r"^lefschetz\[5\]\.typo: unknown key$"):
            fib.spec_from_json(doc)
        del doc["lefschetz"][5]["typo"]
        with pytest.raises(ValueError, match=r"lefschetz\[6\]\.type"):
            fib.spec_from_json(doc)

    @pytest.mark.parametrize("family, g, n", [
        ("mgn", g, n) for g in (1, 2, 3) for n in (1, 2)] + [
        ("mgn-tilde", g, n) for g in (2, 3) for n in (1, 2)])
    def test_every_family_document_loads(self, family, g, n):
        # the writer's keys are the keys the reader defines
        spec = family_spec(family, g, n)
        assert fib.spec_from_json(json.loads(json.dumps(fib.spec_to_json(spec)))) == spec

    def test_a_separating_datum_keeps_its_h_and_conjugator(self):
        doc = fib.spec_to_json(family_spec("mgn", 2, 1))
        doc["lefschetz"].append({"type": "II", "h": 1, "conjugator": "t1 t2"})
        d = fib.spec_from_json(doc).lefschetz[-1]
        assert (d.cycle, format_word(d.conjugator)) == (TypeII(1), "t1 t2")

    def test_report_dict_json_round_trip(self):
        rep = fib.compute_report(family_spec("mgn", 1, 1))
        doc = rep.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["signature"] == -4
        assert doc["sigma_terms"][0][1] == "-2/3"


class TestIdentity:
    """The data are read by identity only to save work: a spec whose entries
    share no datum object gives the same results as one that shares them."""

    @staticmethod
    def outcome(spec):
        """Each public result of the spec, or the error each one raises."""
        out = []
        for fn in (lambda s: [str(i) for i in fib.validate(s).issues], fib.signature_breakdown,
                   fib.signature_meyer_path, fib.euler_characteristic,
                   lambda s: fib.compute_report(s).to_dict(),
                   lambda s: cli._report_lines(fib.compute_report(s))):
            try:
                out.append(fn(spec))
            except ValueError as e:
                out.append((type(e), str(e)))
        return out

    def test_valid_specs(self):
        rng = random.Random(4040)
        specs = [family_spec("mgn", g, n) for g in (1, 2, 3) for n in (1, 2)]
        specs += [family_spec("mgn-tilde", g, 1) for g in (2, 3)]
        specs += [random_valid_spec(rng, 3) for _ in range(20)]
        for spec in specs:
            rebuilt = unshared(spec)
            assert rebuilt == spec
            assert len({id(d) for d in rebuilt.lefschetz}) == len(spec.lefschetz)
            want = self.outcome(spec)
            assert want[0] == [] and want[2] == want[4]["signature"]
            assert self.outcome(rebuilt) == want

    @pytest.mark.parametrize("bad", BAD_DATA, ids=BAD_DATA_IDS)
    def test_refused_data(self, bad):
        base = family_spec("mgn", 2, 1)
        spec = with_data(base, base.lefschetz + tuple(bad))
        want = self.outcome(spec)
        assert want[1] == want[2] == (ConsistencyError, want[0][0])
        assert self.outcome(unshared(spec)) == want


class TestReport:
    def test_family_report(self):
        rep = fib.compute_report(family_spec("mgn", 1, 1))
        assert rep.signature == -4 and rep.euler == 10
        assert rep.two_paths_agree
        assert rep.homeomorphism.summands == ((2, "CP2"), (6, "CP2bar"))

    def test_report_rejects_invalid(self):
        bad = FibrationSpec((2,), (), (RoundRegion(0, TypeI(), gen_word(2, ChainTwist(4))),))
        with pytest.raises(ConsistencyError):
            fib.compute_report(bad)

    def test_one_walk_per_report(self, monkeypatch):
        # a report builds the spec's walk once, checks its data once, pushes
        # each fold forward once and checks each fold monodromy at most once
        calls = Counter()

        def spy(module, name):
            fn = getattr(module, name)

            def counting(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counting)

        for module, name in ((fib, "Walk"), (fib, "_data_issues"),
                             (locsig, "push_forward"), (locsig, "validate_word")):
            spy(module, name)
        rng = random.Random(4)
        specs = [family_spec("mgn", 3, 2), family_spec("mgn-tilde", 2, 1)]
        specs += [random_valid_spec(rng, 3) for _ in range(30)]
        assert max(len(spec.rounds) for spec in specs) == 2
        for spec in specs:
            calls.clear()
            fib.compute_report(spec)
            assert calls["Walk"] == calls["_data_issues"] == 1
            assert calls["push_forward"] == len(spec.rounds)
            assert calls["validate_word"] <= len(spec.rounds)

    def test_a_monodromy_outside_its_stabiliser_is_refused_in_one_message(self):
        # the walk keeps push_forward's error, which is validate_word's, and
        # each pipeline raises it, called alone and called again
        bad = FibrationSpec((2,), (), (RoundRegion(0, TypeI(), gen_word(2, ChainTwist(4))),))
        with pytest.raises(locsig.ContextError) as want:
            locsig.validate_word(bad.rounds[0].monodromy, CycleContext(2, TypeI()))
        for pipeline in (fib.signature_meyer_path, fib.signature_breakdown,
                         fib.signature_meyer_path):
            with pytest.raises(locsig.ContextError) as err:
                pipeline(bad)
            assert str(err.value) == str(want.value)
        assert [str(i) for i in fib.validate(bad).issues] == [f"rounds[0]: {want.value}"]
