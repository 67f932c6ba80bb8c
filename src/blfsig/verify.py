"""Randomized self-verification suites.

These are the executable forms of the algebraic identities the package
rests on: the cocycle identity, class-function and antisymmetry properties
of the cobounding function, word-independence across the defining
relations, the denominator bound, the generator decomposition, and the
agreement of the two signature pipelines on randomized valid fibrations.

The suites run from the ``verify`` subcommand of the CLI and are reused by
the test suite with larger sample counts.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from . import fibration, locsig, meyer, surface
from .fibration import FibrationSpec, LefschetzDatum, RoundRegion
from .locsig import CycleContext
from .surface import TypeI, TypeII
from .words import IOTA, ChainTwist, Word, chain_word, gen_word

DEFAULT_SEED = 20240913


# -- random inputs ------------------------------------------------------------

def random_symplectic(rng: random.Random, g: int, length: int = 8):
    """Random product of chain-twist transvections and their inverses, as
    a tuple matrix."""
    M = surface.sp_identity(g)
    for _ in range(length):
        T = surface.transvection(surface.chain_class(rng.randrange(1, 2 * g + 2), g))
        if rng.random() < 0.5:
            T = surface.sp_inverse(T)
        M = surface.mat_mul(M, T)
    return M


def random_word(rng: random.Random, g: int, length: int) -> Word:
    items = []
    for _ in range(length):
        if rng.random() < 0.12:
            items.append((IOTA, 1))
        else:
            i = rng.randrange(1, 2 * g + 2)
            items.append((ChainTwist(i), rng.choice((-3, -2, -1, 1, 2, 3))))
    return Word(g, tuple(items))


def random_context_word(rng: random.Random, ctx: CycleContext, length: int) -> Word:
    gens = locsig.generators(ctx)
    iota = IOTA in gens
    twists = gens[:-1] if iota else gens
    items = []
    for _ in range(length):
        if iota and rng.random() < 0.12:
            items.append((IOTA, 1))
        else:
            items.append((rng.choice(twists), rng.choice([-2, -1, 1, 2])))
    return Word(ctx.genus, tuple(items))


def _trivial_context_word(rng: random.Random, ctx: CycleContext) -> Word:
    """A word representing the identity mapping class: u u^-1 with optional
    braid rewriting of one half, so it is not freely reduced."""
    u = random_context_word(rng, ctx, rng.randrange(1, 5))
    w = u * u.inverse()
    if IOTA in locsig.generators(ctx) and rng.random() < 0.4:
        w = w * gen_word(ctx.genus, IOTA, 2)
    return w


def random_valid_spec(rng: random.Random, max_genus: int = 3) -> FibrationSpec:
    """A fibration spec that is valid at the group level, so both signature
    pipelines apply.  Mixes mutated built-in families (Hurwitz moves and
    stabiliser conjugation preserve everything), chained fold regions with
    trivial monodromy, and separating folds."""
    kind = rng.randrange(3) if max_genus >= 2 else 0
    if kind == 0:
        # mutated family
        g = rng.randrange(1, max_genus + 1)
        spec = fibration.family_spec("mgn", g, 1)
        data = list(spec.lefschetz)
        for _ in range(rng.randrange(3)):
            p = rng.randrange(len(data) - 1)
            a, b = data[p], data[p + 1]
            # elementary move: (a, b) -> (a b a^-1, a); the product is unchanged
            data[p] = LefschetzDatum(b.cycle, a.word() * b.conjugator)
            data[p + 1] = a
        ctx = CycleContext(g, TypeI())
        u = random_context_word(rng, ctx, rng.randrange(0, 4))
        data = [LefschetzDatum(d.cycle, u * d.conjugator) for d in data]
        rounds = [RoundRegion(0, TypeI(),
                              u * spec.rounds[0].monodromy * u.inverse())]
        # optionally chain a trivial extra fold on the reduced component
        if g >= 2 and rng.random() < 0.5:
            ctx2 = CycleContext(g - 1, TypeI())
            rounds.append(RoundRegion(0, TypeI(), _trivial_context_word(rng, ctx2)))
        return FibrationSpec((g,), tuple(data), tuple(rounds),
                             spin=spec.spin, simply_connected=True)
    if kind == 1:
        # no Lefschetz part: a fold chain with identity monodromies, as the
        # bundle over a disk with no critical value is trivial
        g = rng.randrange(2, max_genus + 1)
        ctx1, ctx2 = CycleContext(g, TypeI()), CycleContext(g - 1, TypeI())
        rounds = [RoundRegion(0, TypeI(), _trivial_context_word(rng, ctx1))]
        if rng.random() < 0.7:
            rounds.append(RoundRegion(0, TypeI(), _trivial_context_word(rng, ctx2)))
        return FibrationSpec((g,), (), tuple(rounds), simply_connected=False)
    # separating fold whose monodromy is a boundary-chain identity
    g = rng.randrange(2, max_genus + 1)
    h = rng.randrange(1, g)
    ctx = CycleContext(g, TypeII(h))
    w = chain_word(g, range(1, 2 * h + 1), 4 * h + 2) * \
        chain_word(g, range(2 * h + 2, 2 * g + 2), -(4 * (g - h) + 2))
    if rng.random() < 0.5:
        u = random_context_word(rng, ctx, rng.randrange(1, 4))
        w = u * w * u.inverse()
    rounds = (RoundRegion(0, TypeII(h), w),)
    return FibrationSpec((g,), (), rounds, simply_connected=False)


# -- checks -------------------------------------------------------------------

class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()

    def __str__(self):
        mark = "ok  " if self.passed else "FAIL"
        return f"{mark} {self.name}: {self.detail}"


def check_cocycle_identity(rng, samples: int, max_genus: int) -> CheckResult:
    bad = 0
    total = 0
    for g in range(1, max_genus + 1):
        for _ in range(samples):
            a, b, c = (random_symplectic(rng, g, rng.randrange(2, 9)) for _ in range(3))
            lhs = meyer.tau(a, b) + meyer.tau(surface.mat_mul(a, b), c)
            rhs = meyer.tau(b, c) + meyer.tau(a, surface.mat_mul(b, c))
            total += 1
            if lhs != rhs or abs(meyer.tau(a, b)) > 2 * g:
                bad += 1
    return CheckResult("cocycle identity", bad == 0,
                       f"{total} random symplectic triples, {bad} violations")


def _phi_as_written(w: Word) -> Fraction:
    """phi(w) with the correction folded on w as written.  ``meyer.phi``
    folds ``words.reduce_word(w)`` instead, whose cyclic merges cancel the
    conjugator of a conjugate u t u^-1."""
    return meyer.generator_sum(w) + meyer._state(w)[0]


def check_calibration(rng, samples: int, max_genus: int) -> CheckResult:
    """phi of the top chain twist, and of random conjugates of it, both by
    ``meyer.phi`` and folded as written.  The fold as written joins the
    window forms of the conjugate's letters by cocycle evaluations, so a
    cocycle of the wrong sign misses the value; this pins the sign
    convention of the cocycle."""
    bad = []
    for g in range(1, max_genus + 1):
        want = Fraction(g + 1, 2 * g + 1)
        if meyer.phi(gen_word(g, ChainTwist(2 * g + 1))) != want:
            bad.append(f"base value at g={g}")
        for _ in range(samples):
            u = random_word(rng, g, rng.randrange(1, 7))
            w = u * gen_word(g, ChainTwist(2 * g + 1)) * u.inverse()
            if meyer.phi(w) != want or _phi_as_written(w) != want:
                bad.append(f"conjugate at g={g}")
                break
    return CheckResult("cobounding calibration", not bad,
                       "anchor value and conjugates" if not bad else "; ".join(bad))


def check_relations(rng, samples: int, max_genus: int) -> CheckResult:
    bad = []
    for g in range(1, max_genus + 1):
        for i in range(1, 2 * g + 1):
            if meyer.phi(chain_word(g, [i, i + 1, i])) != \
               meyer.phi(chain_word(g, [i + 1, i, i + 1])):
                bad.append(f"braid ({i},{i+1}) g={g}")
        for i in range(1, 2 * g + 2):
            for j in range(i + 2, 2 * g + 2):
                if meyer.phi(chain_word(g, [i, j])) != meyer.phi(chain_word(g, [j, i])):
                    bad.append(f"commutation ({i},{j}) g={g}")
        lhs = chain_word(g, range(1, 2 * g), 2 * g)
        rhs = gen_word(g, ChainTwist(2 * g + 1), 2)
        if meyer.phi(lhs) != meyer.phi(rhs):
            bad.append(f"chain relation g={g}")
        if surface.word_matrix(lhs) != surface.word_matrix(rhs):
            bad.append(f"chain relation (matrix) g={g}")
    return CheckResult("word independence across relations", not bad,
                       "braid, commutation, chain" if not bad else "; ".join(bad))


def check_antisymmetry(rng, samples: int, max_genus: int) -> CheckResult:
    bad = 0
    for g in range(1, max_genus + 1):
        for _ in range(samples):
            w = random_word(rng, g, rng.randrange(1, 10))
            if meyer.phi(w) != -meyer.phi(w.inverse()):
                bad += 1
            u = random_word(rng, g, rng.randrange(1, 6))
            if meyer.phi(u * w * u.inverse()) != meyer.phi(w):
                bad += 1
    return CheckResult("antisymmetry and conjugation invariance", bad == 0,
                       f"{samples} words per genus, {bad} violations")


def check_denominator(rng, samples: int, max_genus: int) -> CheckResult:
    bad = 0
    for g in range(1, max_genus + 1):
        for _ in range(samples):
            w = random_word(rng, g, rng.randrange(1, 10))
            if ((2 * g + 1) * meyer.phi(w)).denominator != 1:
                bad += 1
    return CheckResult("denominator bound (2g+1) phi integral", bad == 0,
                       f"{samples} words per genus, {bad} violations")


def _contexts(max_genus: int) -> list[CycleContext]:
    out = []
    for g in range(1, max_genus + 1):
        out.append(CycleContext(g, TypeI()))
        for h in range(1, g):
            out.append(CycleContext(g, TypeII(h)))
    return out


def check_decomposition(rng, samples: int, max_genus: int) -> CheckResult:
    """h = s + phi - pushforward phi on each generator of each context, and
    on random words.  For type I the corrections of w and of its
    pushforward enter s and the two phi terms with opposite signs and
    cancel, so the generators decide the identity given s; the words check
    s's pushforward term, which is 0 on a single generator.  For II_h,
    s = 0 and the corrections must agree."""
    bad = 0
    total = 0
    for ctx in _contexts(max_genus):
        ws = [gen_word(ctx.genus, gen) for gen in locsig.generators(ctx)]
        ws += [random_context_word(rng, ctx, rng.randrange(1, 12)) for _ in range(samples)]
        for w in ws:
            total += 1
            if not locsig.decomposition_check(w, ctx).agrees:
                bad += 1
    return CheckResult("decomposition h = s + phi - pushforward phi", bad == 0,
                       f"{total} cases, {bad} violations")


def check_two_paths(rng, samples: int, max_genus: int) -> CheckResult:
    """The two pipelines on the built-in families, on the pure chain systems
    (t_1 ... t_{2g+1})^{2g+2} = 1 rotated by 2g data, and on random valid
    specs.  The Meyer path folds each window of 2g data as one form on the
    relations among their vanishing classes.  The families' windows hold
    independent classes, so every such form is empty; the rotation puts
    dependent classes in the chain systems' windows, so a wrong window form
    shows there."""
    bad = 0
    total = 0
    specs = []
    for g in range(1, min(max_genus, 3) + 1):
        for n in (1, 2):
            for fam in ("mgn",) + (("mgn_tilde",) if g >= 2 else ()):
                specs.append(fibration.family_spec(fam, g, n))
        data = [fibration.chain_twist_datum(i, g) for i in range(1, 2 * g + 2)] * (2 * g + 2)
        specs.append(FibrationSpec((g,), tuple(data[2 * g:] + data[:2 * g])))
    for spec in specs:
        total += 1
        if fibration.total_signature(spec) != fibration.signature_meyer_path(spec):
            bad += 1
    for _ in range(samples):
        spec = random_valid_spec(rng, max_genus)
        total += 1
        if not fibration.validate(spec).ok:
            bad += 1
        if fibration.total_signature(spec) != fibration.signature_meyer_path(spec):
            bad += 1
    return CheckResult("two signature pipelines agree", bad == 0,
                       f"{total} fibrations, {bad} disagreements")


def check_word_roundtrip(rng, samples: int, max_genus: int) -> CheckResult:
    from .words import format_word, parse_word
    bad = 0
    for g in range(1, max_genus + 1):
        for _ in range(samples):
            w = random_word(rng, g, rng.randrange(1, 8))
            if rng.random() < 0.5:
                w = (w ** rng.choice([-2, 2, 3])) * random_word(rng, g, 2)
            if parse_word(format_word(w), g) != w:
                bad += 1
    return CheckResult("word print/parse round trip", bad == 0,
                       f"{samples} words per genus, {bad} failures")


ALL_CHECKS: list[tuple[str, Callable]] = [
    ("cocycle", check_cocycle_identity),
    ("calibration", check_calibration),
    ("relations", check_relations),
    ("antisymmetry", check_antisymmetry),
    ("denominator", check_denominator),
    ("decomposition", check_decomposition),
    ("two-paths", check_two_paths),
    ("roundtrip", check_word_roundtrip),
]


def run_all(samples: int = 50, max_genus: int = 2,
            seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    return [fn(rng, samples, max_genus) for _, fn in ALL_CHECKS]
