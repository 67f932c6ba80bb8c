"""Combinatorial model of hyperelliptic directed broken Lefschetz
fibrations over the 2-sphere, and their exact invariants.

A fibration is described by the higher-side fiber (a list of component
genera), an ordered Hurwitz system of Lefschetz data over the north disk,
and an ordered list of round regions (fold circles) crossed on the way to
the south disk.  Each Lefschetz datum is the twist along a vanishing cycle
of type I or II_h, given as a conjugate w t w^-1 of the standard twist of
its type; each round region names the component carrying the fold, the
vanishing-cycle type, and the monodromy along the north boundary of its
annulus, written in the generators of the stabiliser of the cycle.

Two signature pipelines are provided: the localized formula

    Sign M = sum_i h(round monodromy_i) + sum_j sigma_loc(fiber_j)

and an independent assembly through the Meyer cocycle (Endo, "Meyer's
signature cocycle and hyperelliptic fibrations", Math. Ann. 316, 2000)

    Sign M = sum_i s(round monodromy_i) - sum_k tau(P_{k-1}, D_k)
             - #(type II Lefschetz fibers),

where D_k is the symplectic image of Lefschetz datum k and
P_k = D_1 ... D_k.  D_k is the transvection along the datum's vanishing
class v = W c, W the matrix of its conjugator and c the class of the
standard cycle.  v is computed by acting on c with the conjugator's
letters, right to left (``surface.word_action``), with no matrix of the
conjugator except for a nested power, and kept per distinct datum.

The cocycle sum telescopes -phi(H^-1) - sum_k phi(D_k) for the Hurwitz
product H = P_n by phi(uv) = phi(u) + phi(v) - tau(u, v), with the closing
term tau(H, H^-1) identically 0, so it needs no phi of a letter.
``compute_report`` folds the Hurwitz system once, in ``meyer``'s
tau-corrected states (c, P): ``validate`` folds the data it accepts, reads
the Hurwitz product H from the fold and keeps the fold in its report, and
the Meyer path reads c = -sum_k tau(P_{k-1}, D_k) from it.  The fold
takes each datum as its vanishing class, never as a matrix, raises a
leading or trailing block of repeated data as one power
(``meyer.sequence_state``), and folds each window of 2g consecutive type I
data as the signature of one form on the relations among their vanishing
classes, with the sign convention L_kl = -<v_k, v_l> for k < l (Ozbagci's
form; see ``meyer``), instead of one cocycle evaluation per datum.  So
``mgn``(g, n), one block of 4g data repeated 2n times, costs
1 + O(log n) cocycle evaluations: the join of the block's two windows and
the squaring, and 3 once 2n > 2(4g+2), where the block is raised at its
period (``meyer._power``).  A type II datum has class 0 and is no factor.  The
localized formula is evaluated on the words themselves, so the two routes
stay independent.

Validation is homological (the symplectic representation cannot
distinguish a mapping class from its product with the involution, hence
the mod -1 comparisons); combinatorially consistent but geometrically
impossible input is caught by the integrality of the total signature.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from . import locsig, meyer, ratlin, surface
from .locsig import CycleContext
from .surface import CurveDescriptor, TypeI, TypeII
from .words import (IOTA, ChainTwist, Frozen, Word, WordError, chain_word,
                    format_word, gen_word, parse_word)

SPEC_VERSION = 1


class ConsistencyError(ValueError):
    """Input data that cannot come from an actual fibration."""


class ValidationError(ConsistencyError):
    """Validation found issues; ``report`` itemizes them."""

    def __init__(self, report: ValidationReport):
        super().__init__("validation failed: "
                         + "; ".join(str(i) for i in report.issues))
        self.report = report


# -- data model ---------------------------------------------------------------

def chain_twist_conjugator(i: int, g: int) -> Word:
    """Word w with w t_{2g+1} w^-1 = t_i, built from braid moves:
    t_j = (t_{j+1} t_j) t_{j+1} (t_{j+1} t_j)^-1 applied down the chain."""
    surface.check_genus(g)
    if not 1 <= i <= 2 * g + 1:
        raise ValueError(f"chain index {i} out of range")
    items = []
    for j in range(i, 2 * g + 1):
        items += [(ChainTwist(j + 1), 1), (ChainTwist(j), 1)]
    return Word(g, tuple(items))


class LefschetzDatum(Frozen):
    """One Lefschetz singularity: the twist w t w^-1 along a conjugate of
    the standard vanishing cycle of the given type."""
    __slots__ = ("cycle", "conjugator", "_key")

    def __init__(self, cycle: CurveDescriptor, conjugator: Word):
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "conjugator", conjugator)
        object.__setattr__(self, "_key", (cycle, conjugator))

    @property
    def genus(self) -> int:
        return self.conjugator.genus

    def standard_twist(self) -> Word:
        """t_{2g+1} for type I; for II_h the chain word (t_1 ... t_{2h})^{4h+2},
        which is empty for h = 0."""
        g = self.genus
        if isinstance(self.cycle, TypeI):
            return gen_word(g, ChainTwist(2 * g + 1))
        h = self.cycle.h
        if not 0 <= h <= g:
            raise WordError(f"II_{h} out of range for genus {g}")
        return chain_word(g, range(1, 2 * h + 1), 4 * h + 2)

    def word(self) -> Word:
        """The full twist word w t w^-1."""
        w = self.conjugator
        return w * self.standard_twist() * w.inverse()

    def vector(self) -> tuple[int, ...]:
        """The vanishing class v = W c, with W the matrix of the conjugator
        and c the class of the standard cycle (zero for a separating one),
        computed by acting on c with the conjugator's letters
        (``surface.word_action``) once per distinct datum."""
        return _vanishing_class(self)


@lru_cache(maxsize=1 << 12)
def _vanishing_class(d: LefschetzDatum) -> tuple[int, ...]:
    """``d.vector()``, kept per datum: an O(g) class, not a 2g x 2g matrix."""
    return surface.word_action(d.conjugator, surface.cycle_class(d.cycle, d.genus))


def chain_twist_datum(i: int, g: int) -> LefschetzDatum:
    """The Lefschetz datum whose twist is the chain twist t_i."""
    return LefschetzDatum(TypeI(), chain_twist_conjugator(i, g))


class RoundRegion(Frozen):
    """A fold circle: which higher-side component it lives on, the type of
    its vanishing cycle, and the monodromy along the north boundary."""
    __slots__ = ("component", "cycle", "monodromy", "_key")

    def __init__(self, component: int, cycle: CurveDescriptor, monodromy: Word):
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "monodromy", monodromy)
        object.__setattr__(self, "_key", (component, cycle, monodromy))


class FibrationSpec(Frozen):
    __slots__ = ("higher_fiber", "lefschetz", "rounds", "spin", "simply_connected", "_key")

    def __init__(self, higher_fiber: tuple[int, ...],
                 lefschetz: tuple[LefschetzDatum, ...] = (),
                 rounds: tuple[RoundRegion, ...] = (), spin: bool = False,
                 simply_connected: bool = False):
        object.__setattr__(self, "higher_fiber", higher_fiber)
        object.__setattr__(self, "lefschetz", lefschetz)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "spin", spin)
        object.__setattr__(self, "simply_connected", simply_connected)
        object.__setattr__(self, "_key", (higher_fiber, lefschetz, rounds, spin,
                                          simply_connected))

    def active_component(self) -> int:
        """The component carrying the Lefschetz data (and the first fold)."""
        return self.rounds[0].component if self.rounds else 0

    def active_genus(self) -> int:
        return self.higher_fiber[self.active_component()]


def _fold_genera(genera: list[int], comp: int, cycle: CurveDescriptor) -> None:
    """A fold on component ``comp``, applied to the genera in place: type I
    drops its genus g by one; II_h keeps genus h in place and appends g - h.
    A fold that genus g does not admit (type I at g = 0, II_h outside
    0..g) raises ValueError saying so, and leaves the genera as they were."""
    g = genera[comp]
    if isinstance(cycle, TypeI):
        if g < 1:
            raise ValueError("type I fold on a genus-0 component")
        genera[comp] -= 1
    else:
        if not 0 <= cycle.h <= g:
            raise ValueError(f"II_{cycle.h} fold on a genus-{g} component")
        genera.append(g - cycle.h)
        genera[comp] = cycle.h


def component_stages(spec: FibrationSpec) -> list[list[int]]:
    """Component genera before each round region and at the south disk
    (see ``_fold_genera``)."""
    genera = list(spec.higher_fiber)
    stages = [list(genera)]
    for k, r in enumerate(spec.rounds):
        if not 0 <= r.component < len(genera):
            raise ConsistencyError(f"round {k}: component {r.component} does not exist")
        try:
            _fold_genera(genera, r.component, r.cycle)
        except ValueError as e:
            raise ConsistencyError(f"round {k}: {e}") from None
        stages.append(list(genera))
    return stages


def hurwitz_word(spec: FibrationSpec) -> Word:
    """Product of all Lefschetz twists, the boundary monodromy of the
    north disk."""
    g = spec.active_genus()
    w = Word(g)
    for d in spec.lefschetz:
        w = w * d.word()
    return w


# -- validation ---------------------------------------------------------------

class ValidationIssue:
    __slots__ = ("where", "message")

    def __init__(self, where: str, message: str):
        self.where = where
        self.message = message

    def __str__(self):
        return f"{self.where}: {self.message}"


class ValidationReport:
    __slots__ = ("issues", "notes", "hurwitz")

    def __init__(self, issues: list[ValidationIssue] | None = None,
                 notes: list[str] | None = None, hurwitz: tuple | None = None):
        self.issues = [] if issues is None else issues
        self.notes = [] if notes is None else notes
        # the Hurwitz system folded once (``_hurwitz_state`` of the data that
        # passed), which ``signature_meyer_path`` reads; None when validation
        # stopped before the fold or the active genus is 0
        self.hurwitz = hurwitz

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, where: str, message: str):
        self.issues.append(ValidationIssue(where, message))


def _matches_mod_sign(A: surface.Matrix, B: surface.Matrix) -> str | None:
    """'+' if A == B, '-' if A == -B, None otherwise (tuple matrices)."""
    if A == B:
        return "+"
    if A == tuple(tuple(-x for x in row) for row in B):
        return "-"
    return None


def validate(spec: FibrationSpec) -> ValidationReport:
    """Homological consistency checks; every failure is itemized."""
    report = ValidationReport()
    try:
        stages = component_stages(spec)
    except ConsistencyError as e:
        report.add("components", str(e))
        return report

    g_active = spec.active_genus()
    if g_active < 1:
        if spec.lefschetz or spec.rounds:
            report.add("components", "active component must have genus >= 1")
            return report

    # (a') Lefschetz data are essential twists at the active genus; their
    # product is the incoming monodromy of the active component
    essential = []
    genus_mismatch = False
    for j, d in enumerate(spec.lefschetz):
        where = f"lefschetz[{j}]"
        if d.genus != g_active:
            report.add(where, f"word genus {d.genus} != fiber genus {g_active}")
            genus_mismatch = True
            continue
        if isinstance(d.cycle, TypeII) and not 1 <= d.cycle.h <= g_active - 1:
            # II_0 and II_g twists act trivially: the product is unaffected
            report.add(where, f"II_{d.cycle.h} is not essential at genus {g_active}")
            continue
        essential.append(d)

    # (a) round monodromies are words in the stabiliser generators
    contexts = []
    for k, r in enumerate(spec.rounds):
        where = f"rounds[{k}]"
        g_k = stages[k][r.component]
        try:
            ctx = CycleContext(g_k, r.cycle)
            locsig.validate_word(r.monodromy, ctx)
            contexts.append(ctx)
        except (ValueError, locsig.ContextError) as e:
            report.add(where, str(e))
            return report  # later checks need well-formed contexts
    if genus_mismatch:
        return report  # check (c) needs the whole Hurwitz product

    # (b) homological action on the vanishing cycle
    monodromies = [surface.word_matrix(r.monodromy) for r in spec.rounds]
    for k, (r, ctx) in enumerate(zip(spec.rounds, contexts)):
        where = f"rounds[{k}]"
        cls = surface.cycle_class(r.cycle, ctx.genus)
        act = surface.curve_action(monodromies[k], cls)
        if isinstance(r.cycle, TypeI):
            if act == 0:
                report.add(where, "monodromy does not preserve the vanishing cycle class")
        else:
            report.notes.append(
                f"{where}: separating cycle is invisible to homology (vacuous "
                "action check); orientation preservation is enforced by the "
                "generating set")

    # (c)+(d) boundary monodromies match across the base decomposition,
    # modulo the involution (+-identity on homology)
    tracked: dict[int, surface.Matrix] = {}
    if g_active >= 1:
        report.hurwitz = _hurwitz_state(essential, g_active)
        tracked[spec.active_component()] = report.hurwitz[1]
    for k, (r, ctx) in enumerate(zip(spec.rounds, contexts)):
        where = f"rounds[{k}]"
        expected = tracked.pop(r.component, surface.sp_identity(ctx.genus))
        sign = _matches_mod_sign(monodromies[k], expected)
        if sign is None:
            report.add(where, "monodromy does not match the incoming boundary "
                              "monodromy on homology (even mod the involution)")
        elif sign == "-":
            report.notes.append(f"{where}: matches incoming monodromy only up to "
                                "the involution; homology cannot resolve the sign")
        pushed = locsig.push_forward(r.monodromy, ctx)
        if isinstance(r.cycle, TypeI):
            if ctx.genus - 1 >= 1:
                tracked[r.component] = surface.word_matrix(pushed)
        else:
            side1, side2 = pushed
            if side1.genus >= 1:
                tracked[r.component] = surface.word_matrix(side1)
            if side2.genus >= 1:
                tracked[len(stages[k])] = surface.word_matrix(side2)  # new component
    # south disk: whatever monodromy survives must bound a trivial bundle
    # (for a pure Lefschetz fibration this is the Hurwitz product itself)
    for comp, M in tracked.items():
        g_low = stages[-1][comp] if comp < len(stages[-1]) else None
        if g_low is None or g_low < 1:
            continue
        sign = _matches_mod_sign(M, surface.sp_identity(g_low))
        if sign is None:
            report.add("south disk",
                       f"component {comp}: residual monodromy is not homologically "
                       "trivial, the south-side bundle cannot be trivial")
        elif sign == "-":
            report.notes.append(f"south disk: component {comp} trivial only up to "
                                "the involution")
    report.notes.append("membership checks are homological (necessary conditions); "
                        "geometric isotopy is the caller's responsibility")
    return report


# -- invariants ---------------------------------------------------------------

def _as_integer(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ConsistencyError(
            f"{what} came out {x}, not an integer: the input data is not "
            "realizable by a fibration")
    return int(x)


class SignatureBreakdown:
    __slots__ = ("sigma_terms", "h_terms", "total")

    def __init__(self, sigma_terms: tuple[tuple[str, Fraction], ...],
                 h_terms: tuple[tuple[str, Fraction], ...], total: Fraction):
        self.sigma_terms = sigma_terms
        self.h_terms = h_terms
        self.total = total


def signature_breakdown(spec: FibrationSpec) -> SignatureBreakdown:
    g = spec.active_genus()
    stages = component_stages(spec)
    # sigma_loc once per cycle type, and their total from the counts
    counts = Counter(d.cycle for d in spec.lefschetz)
    sigma = {cycle: locsig.sigma_loc(cycle, g) for cycle in counts}
    sigma_terms = tuple((f"sigma_loc[{j}]({d.cycle})", sigma[d.cycle])
                        for j, d in enumerate(spec.lefschetz))
    h_terms = []
    for k, r in enumerate(spec.rounds):
        ctx = CycleContext(stages[k][r.component], r.cycle)
        h_terms.append((f"h[{k}](g={ctx.genus}, {r.cycle})",
                        locsig.h_word(r.monodromy, ctx)))
    total = sum((k * sigma[cycle] for cycle, k in counts.items()), Fraction(0))
    total += sum((v for _, v in h_terms), Fraction(0))
    return SignatureBreakdown(sigma_terms, tuple(h_terms), total)


def total_signature(spec: FibrationSpec) -> int:
    """Signature by the localized formula; raises ConsistencyError when the
    rational total is not an integer (unrealizable input)."""
    return _as_integer(signature_breakdown(spec).total, "total signature")


def _hurwitz_state(data, g: int) -> tuple[int, surface.Matrix]:
    """The Hurwitz system of the data at genus g folded once in ``meyer``'s
    tau-corrected states: (c, H) with H = D_1 ... D_n, the Hurwitz product
    that validation compares, and c = -Sum_k tau(P_{k-1}, D_k), the
    Meyer-path sum; (0, 1) for no data.  Each datum enters the fold as
    its vanishing class, the pair (v, 1) for t_v, and a datum of class 0
    (type II) as no factor at all: its matrix is the identity, so it adds
    tau(P, 1) = 0 and leaves P as it is.  Each distinct datum object reads
    its class once, keyed by identity, so a spec that repeats its data (as
    ``family_spec`` and ``spec_from_json`` build them) hashes no word per
    datum.  ``meyer.sequence_state`` raises
    a repeated block of data as one power and folds windows of 2g classes as
    one form each."""
    classes: dict = {}  # id(datum) -> class: a repeated datum is read once, unhashed
    factors = []
    for d in data:
        v = classes.get(id(d))
        if v is None:
            v = classes[id(d)] = d.vector()
        if any(v):
            factors.append((v, 1))
    return meyer.sequence_state(factors) or (0, surface.sp_identity(g))


def signature_meyer_path(spec: FibrationSpec, hurwitz: tuple | None = None) -> int:
    """Signature assembled from the Meyer cocycle, the round-cobordism
    signatures, and the fiber-neighborhood signatures (0 for type I, -1 for
    type II); an independent route that must agree with total_signature.
    ``hurwitz`` is the fold of the Hurwitz system that ``validate`` kept
    (``ValidationReport.hurwitz``), when the caller has one; without it the
    data are folded here.

    With D_k the symplectic image of Lefschetz datum k and
    P_k = D_1 ... D_k (Endo, Math. Ann. 316, 2000):

        Sign = sum s(rounds) - sum_k tau(P_{k-1}, D_k) - #II,

    which is the cobounding-function assembly
    sum s(rounds) - phi(H^-1) - sum_k phi(D_k) - #II for H = P_n telescoped
    exactly: phi(H^-1) = tau(H, H^-1) - phi(H), and tau(A, A^-1) = 0 for
    every symplectic A.
    """
    stages = component_stages(spec)
    total = Fraction(0)
    for k, r in enumerate(spec.rounds):
        ctx = CycleContext(stages[k][r.component], r.cycle)
        total += locsig.s_word(r.monodromy, ctx)
    g = spec.active_genus()
    if g >= 1:
        if hurwitz is None:
            hurwitz = _hurwitz_state(spec.lefschetz, g)
        total += hurwitz[0]  # c = -Sum_k tau(P_{k-1}, D_k)
    total -= sum(1 for d in spec.lefschetz if isinstance(d.cycle, TypeII))
    return _as_integer(total, "Meyer-path signature")


def euler_characteristic(spec: FibrationSpec) -> int:
    """chi = chi(north fiber) + #Lefschetz + chi(south fiber); round regions
    contribute zero."""
    stages = component_stages(spec)
    chi_top = sum(2 - 2 * n for n in stages[0])
    chi_bottom = sum(2 - 2 * n for n in stages[-1])
    return chi_top + len(spec.lefschetz) + chi_bottom


# -- homeomorphism type -------------------------------------------------------

# standard building blocks and their (b2+, b2-)
_DISPLAY = {
    "CP2": "CP²",
    "CP2bar": "CP̄²",
    "S2xS2": "S²×S²",
    "E2": "E(2)",
}
_B2 = {"CP2": (1, 0), "CP2bar": (0, 1), "S2xS2": (1, 1), "E2": (3, 19)}
_PAREN_IN_SUMS = {"S2xS2"}


class HomeoReport:
    __slots__ = ("status", "summands", "display")

    def __init__(self, status: str, summands: tuple[tuple[int, str], ...] = (),
                 display: str = ""):
        self.status = status  # "ok" or "indeterminate"
        self.summands = summands
        self.display = display


def _format_summands(summands) -> str:
    if not summands:
        return "S⁴"
    multi = sum(k for k, _ in summands) > 1
    parts = []
    for k, block in summands:
        name = _DISPLAY[block]
        if block in _PAREN_IN_SUMS and multi:
            name = f"({name})"
        parts.append(f"{k}{name}" if k > 1 else name)
    text = " # ".join(parts)
    if summands[0][0] > 1:
        text = "#" + text
    return text


def _recompose_check(summands, sig: int, euler: int) -> None:
    b2p = sum(k * _B2[b][0] for k, b in summands)
    b2m = sum(k * _B2[b][1] for k, b in summands)
    count = sum(k for k, _ in summands)
    chi = 2 + b2p + b2m  # connected sum of count blocks: chi = sum chi_i - 2(count-1)
    if b2p - b2m != sig or chi != euler:
        raise ConsistencyError(
            f"decomposition recomposes to (sig, chi) = ({b2p - b2m}, {chi}), "
            f"wanted ({sig}, {euler})")


def homeomorphism_report(sig: int, euler: int, spin: bool,
                         simply_connected: bool) -> HomeoReport:
    """Connected-sum decomposition of the homeomorphism type of a closed
    simply connected 4-manifold with the given invariants."""
    if not simply_connected:
        return HomeoReport(status="indeterminate")
    b2 = euler - 2
    if b2 < 0 or (b2 + sig) % 2 or (b2 - sig) % 2:
        raise ConsistencyError(f"(sig, euler) = ({sig}, {euler}) admits no "
                               "closed simply connected manifold")
    b2p, b2m = (b2 + sig) // 2, (b2 - sig) // 2
    if b2p < 0 or b2m < 0:
        raise ConsistencyError(f"negative b2+ or b2-: ({b2p}, {b2m})")
    if not spin:
        summands = []
        if b2p:
            summands.append((b2p, "CP2"))
        if b2m:
            summands.append((b2m, "CP2bar"))
        summands = tuple(summands)
    else:
        if sig % 16:
            raise ConsistencyError(
                f"a smooth closed spin 4-manifold needs 16 | signature, got {sig}")
        if sig > 0:
            raise ConsistencyError("positive-signature spin decompositions are "
                                   "not modelled")
        a = -sig // 16
        # chi = 22a + 2b + 2 for a E(2) summands and b copies of S2xS2
        rem = euler - 2 - 22 * a
        if rem < 0 or rem % 2:
            raise ConsistencyError(
                f"no spin decomposition: euler {euler} incompatible with {a} E(2) summands")
        b = rem // 2
        summands = []
        if a:
            summands.append((a, "E2"))
        if b:
            summands.append((b, "S2xS2"))
        summands = tuple(summands)
    _recompose_check(summands, sig, euler)
    return HomeoReport(status="ok", summands=summands,
                       display=_format_summands(summands))


# -- built-in families --------------------------------------------------------

def family_spec(family: str, g: int, n: int) -> FibrationSpec:
    """The two built-in families of simplified fibrations.

    "mgn": Hurwitz system (t_{2g} ... t_2 t_1^2 t_2 ... t_{2g})^{2n}, one
    type I fold with monodromy t_{2g+1}^{-4n}; signature -4gn, spin iff g
    and n are both even.

    "mgn_tilde": the same system followed by (t_1 ... t_{2g-2})^{2(2g-1)n},
    fold monodromy (t_{2g+1}^{-2} iota)^{2n} (t_1 ... t_{2g-2})^{2(2g-1)n};
    signature -4g^2n, spin iff g is even.
    """
    name = family.replace("-", "_")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if name not in ("mgn", "mgn_tilde"):
        raise ValueError(f"unknown family {family!r} (use mgn or mgn-tilde)")
    # one datum per chain index, repeated: the data are frozen
    datum = {i: chain_twist_datum(i, g) for i in range(1, 2 * g + 1)}
    indices = list(range(2 * g, 0, -1)) + [1] + list(range(2, 2 * g + 1))
    if name == "mgn":
        if g < 1:
            raise ValueError(f"family mgn needs g >= 1, got {g}")
        data = tuple(datum[i] for _ in range(2 * n) for i in indices)
        mono = gen_word(g, ChainTwist(2 * g + 1), -4 * n)
        rounds = (RoundRegion(0, TypeI(), mono),)
        return FibrationSpec((g,), data, rounds,
                             spin=(g % 2 == 0 and n % 2 == 0), simply_connected=True)
    if g < 2:
        raise ValueError(f"family mgn_tilde needs g >= 2, got {g}")
    data = [datum[i] for _ in range(2 * n) for i in indices]
    tail = list(range(1, 2 * g - 1))
    data += [datum[i] for _ in range(2 * (2 * g - 1) * n) for i in tail]
    mono = ((gen_word(g, ChainTwist(2 * g + 1), -2) * gen_word(g, IOTA)) ** (2 * n)
            * chain_word(g, tail, 2 * (2 * g - 1) * n))
    rounds = (RoundRegion(0, TypeI(), mono),)
    return FibrationSpec((g,), tuple(data), rounds,
                         spin=(g % 2 == 0), simply_connected=True)


# -- abelianization of the stabiliser -----------------------------------------

def separating_torsion(g: int, h: int) -> int:
    """Torsion order of H_1 of the stabiliser of a type II_h curve, computed
    as the Smith normal form of the presentation
    (Z + Z) / <(4h(2h+1), -4(g-h)(2(g-h)+1))>."""
    if not (g >= 2 and 1 <= h <= g - 1):
        raise ValueError(f"type II_h abelianization needs g >= 2, 1 <= h <= g-1")
    rel = [[4 * h * (2 * h + 1)], [-4 * (g - h) * (2 * (g - h) + 1)]]
    _, D, _ = ratlin.smith_normal_form(rel)
    return D[0][0]


def abelianization(g: int, cycle: CurveDescriptor) -> str:
    """H_1 of the subgroup of the hyperelliptic mapping class group
    preserving a curve of the given type (with orientation, when
    separating)."""
    surface.check_genus(g)
    if isinstance(cycle, TypeI):
        return "Z ⊕ Z/2" if g == 1 else "Z ⊕ (Z/2)²"
    d = separating_torsion(g, cycle.h)
    return f"Z ⊕ Z/{d}"


# -- full report --------------------------------------------------------------

class InvariantReport:
    __slots__ = ("spec", "validation", "signature", "euler", "breakdown",
                 "meyer_path_signature", "two_paths_agree", "homeomorphism", "notes")

    def __init__(self, spec: FibrationSpec, validation: ValidationReport, signature: int,
                 euler: int, breakdown: SignatureBreakdown, meyer_path_signature: int,
                 two_paths_agree: bool, homeomorphism: HomeoReport,
                 notes: tuple[str, ...] = ()):
        self.spec = spec
        self.validation = validation
        self.signature = signature
        self.euler = euler
        self.breakdown = breakdown
        self.meyer_path_signature = meyer_path_signature
        self.two_paths_agree = two_paths_agree
        self.homeomorphism = homeomorphism
        self.notes = notes

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "euler_characteristic": self.euler,
            "sigma_terms": [[k, str(v)] for k, v in self.breakdown.sigma_terms],
            "h_terms": [[k, str(v)] for k, v in self.breakdown.h_terms],
            "meyer_path_signature": self.meyer_path_signature,
            "two_paths_agree": self.two_paths_agree,
            "validation": {
                "ok": self.validation.ok,
                "issues": [str(i) for i in self.validation.issues],
                "notes": list(self.validation.notes),
            },
            "homeomorphism": {
                "status": self.homeomorphism.status,
                "summands": [[k, b] for k, b in self.homeomorphism.summands],
                "display": self.homeomorphism.display,
            },
            "flags": {"spin": self.spec.spin,
                      "simply_connected": self.spec.simply_connected},
            "notes": list(self.notes),
        }


def compute_report(spec: FibrationSpec) -> InvariantReport:
    validation = validate(spec)
    if not validation.ok:
        raise ValidationError(validation)
    breakdown = signature_breakdown(spec)
    sig = _as_integer(breakdown.total, "total signature")
    euler = euler_characteristic(spec)
    meyer_sig = signature_meyer_path(spec, validation.hurwitz)
    homeo = homeomorphism_report(sig, euler, spec.spin, spec.simply_connected)
    notes = []
    if (sig - euler) % 2:
        notes.append("signature and Euler characteristic have opposite parity; "
                     "check the simply-connected flag")
    touched = {r.component for r in spec.rounds} | {spec.active_component()}
    idle = [c for c in range(len(spec.higher_fiber)) if c not in touched]
    if idle:
        notes.append(f"components {idle} carry no folds or Lefschetz data: "
                     "assumed trivial bundles, contributing only to the Euler "
                     "characteristic")
    notes.append("spin and simply-connected flags are caller-asserted inputs")
    return InvariantReport(spec=spec, validation=validation, signature=sig,
                           euler=euler, breakdown=breakdown,
                           meyer_path_signature=meyer_sig,
                           two_paths_agree=(meyer_sig == sig),
                           homeomorphism=homeo, notes=tuple(notes))


# -- JSON serialization -------------------------------------------------------

def _cycle_to_json(cycle: CurveDescriptor) -> dict:
    if isinstance(cycle, TypeI):
        return {"type": "I"}
    return {"type": "II", "h": cycle.h}


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", bool: "a boolean", float: "a number",
               type(None): "null"}
_REQUIRED = object()


def _json_value(value, kind, path: str):
    """value itself when it has the JSON type ``kind``; otherwise a
    ValueError naming its path in the document."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{path}: expected {_JSON_TYPES[kind]}, "
                         f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")
    return value


def _json_member(doc: dict, key: str, kind, path: str, default=_REQUIRED):
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where}: required key is missing")
        return default
    return _json_value(doc[key], kind, where)


def _json_items(doc: dict, key: str):
    """(path, entry) for each object in the optional top-level array doc[key]."""
    for j, entry in enumerate(_json_member(doc, key, list, "", [])):
        yield f"{key}[{j}]", _json_value(entry, dict, f"{key}[{j}]")


def _cycle_from_json(doc: dict, path: str) -> CurveDescriptor:
    kind = _json_member(doc, "type", str, path)
    if kind == "I":
        return TypeI()
    if kind == "II":
        return TypeII(_json_member(doc, "h", int, path))
    raise ValueError(f"{path}.type: unknown cycle type {kind!r} (use \"I\" or \"II\")")


def _word_from_json(text: str, genus: int, path: str) -> Word:
    try:
        return parse_word(text, genus)
    except WordError as e:
        raise WordError(f"{path}: {e}") from None


def spec_to_json(spec: FibrationSpec) -> dict:
    rounds = []
    for r in spec.rounds:
        rounds.append({"component": r.component,
                       "cycle": _cycle_to_json(r.cycle),
                       "monodromy": format_word(r.monodromy)})
    lefschetz = []
    for d in spec.lefschetz:
        doc = _cycle_to_json(d.cycle)
        if d.conjugator.items:
            doc["conjugator"] = format_word(d.conjugator)
        lefschetz.append(doc)
    return {
        "spec_version": SPEC_VERSION,
        "higher_fiber": [{"genus": n} for n in spec.higher_fiber],
        "lefschetz": lefschetz,
        "rounds": rounds,
        "flags": {"spin": spec.spin, "simply_connected": spec.simply_connected},
    }


def spec_from_json(doc) -> FibrationSpec:
    """Build a spec from its JSON document.  A document of the wrong shape
    raises ValueError naming the offending path, e.g. ``lefschetz[3].type``.
    Every entry is checked, and the entries with one cycle type and one
    conjugator text share one ``LefschetzDatum``, parsed once."""
    _json_value(doc, dict, "spec")
    version = doc.get("spec_version")
    if version != SPEC_VERSION:
        raise ValueError(f"unsupported spec_version {version!r}")
    higher = []
    for j, entry in enumerate(_json_member(doc, "higher_fiber", list, "")):
        where = f"higher_fiber[{j}]"
        genus = _json_member(_json_value(entry, dict, where), "genus", int, where)
        if genus < 0:
            raise ValueError(f"{where}.genus: must be >= 0, got {genus}")
        higher.append(genus)
    rounds_doc = list(_json_items(doc, "rounds"))
    components = [_json_member(entry, "component", int, where)
                  for where, entry in rounds_doc]
    active = components[0] if components else 0
    if not 0 <= active < len(higher):
        raise ValueError(f"active component {active} does not exist")
    g_active = higher[active]
    lefschetz = []
    data: dict = {}  # one datum per distinct (cycle, conjugator text)
    for where, entry in _json_items(doc, "lefschetz"):
        cycle = _cycle_from_json(entry, where)
        text = _json_member(entry, "conjugator", str, where, "")
        d = data.get((cycle, text))
        if d is None:
            conj = _word_from_json(text, g_active, f"{where}.conjugator")
            d = data[cycle, text] = LefschetzDatum(cycle, conj)
        lefschetz.append(d)
    # genera evolve as rounds are applied; parse each monodromy at the genus
    # of its component at that stage
    genera = list(higher)
    rounds = []
    for (where, entry), comp in zip(rounds_doc, components):
        if not 0 <= comp < len(genera):
            raise ValueError(f"{where}.component: component {comp} does not exist")
        cycle = _cycle_from_json(_json_member(entry, "cycle", dict, where),
                                 f"{where}.cycle")
        text = _json_member(entry, "monodromy", str, where)
        genus = genera[comp]
        try:
            _fold_genera(genera, comp, cycle)
        except ValueError as e:
            raise ValueError(f"{where}.cycle: {e}") from None
        mono = _word_from_json(text, genus, f"{where}.monodromy")
        rounds.append(RoundRegion(comp, cycle, mono))
    flags = _json_member(doc, "flags", dict, "", {})
    return FibrationSpec(tuple(higher), tuple(lefschetz), tuple(rounds),
                         spin=_json_member(flags, "spin", bool, "flags", False),
                         simply_connected=_json_member(flags, "simply_connected",
                                                       bool, "flags", False))


def load_spec(path: str) -> FibrationSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))
