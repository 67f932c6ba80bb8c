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
A spec's Hurwitz system is folded once, in ``meyer``'s tau-corrected
states (c, P), by ``_hurwitz_state``, which keeps the fold on the spec:
``validate`` reads the Hurwitz product H from it and the Meyer path reads
c = -sum_k tau(P_{k-1}, D_k), so a report folds once.  The fold
takes each type I datum as its vanishing class, never as a matrix, raises a
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

One walk over the folds (``_walk``), kept on the spec beside the fold,
is the one reader of a spec's Lefschetz data and the one judge of what the
pipelines refuse.  It gives the component genera at each stage, each
fold's ``CycleContext`` (from ``_fold_genera``), the distinct data objects
(id -> datum, in order of first entry), their issues, and each fold's
pushforward or the ContextError that refuses its monodromy.  Validation,
both signature pipelines and the Euler characteristic read it, so a report
walks once, checks each distinct datum once and pushes each fold forward
once; it refuses an impossible fold with one ConsistencyError for all of
them, and both pipelines refuse bad data or a bad fold through one
``_refuse``.  Work on the Lefschetz data is done per distinct datum object,
and the entries are only counted and mapped by identity: a spec repeats
its data objects, as ``family_spec`` and ``spec_from_json`` build them.

Validation (``validate``) checks that each Lefschetz datum is an essential
twist at the active genus, a rule both pipelines enforce as well (they
raise ConsistencyError naming the datum); that each fold monodromy is a
word in its stabiliser's generators, so that it fixes its vanishing cycle
up to sign; that it equals the incoming monodromy of its component exactly
on homology; and that the south disk is trivial on homology.  A faulty fold
ends the checks on its component.  Monodromies are compared as symplectic
matrices, exactly, and iota is -1 there, so a mapping class and its
product with iota differ.  At genus 1 this decides equality in the
mapping class group, SL(2, Z); from genus 2 on the Torelli group is
invisible.  Combinatorially consistent but geometrically impossible input
may still be caught by the integrality of the total signature.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import locsig, meyer, surface
from .locsig import CycleContext
from .surface import CurveDescriptor, TypeI, TypeII
from .words import (IOTA, ChainTwist, Frozen, Word, WordError, _is_int, chain_word,
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
    if not _is_int(i):
        raise ValueError(f"chain index must be an integer, got {i!r}")
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
    """The fibration data.  Two values are kept on the object on first use
    and are no fields: ``_walk``, the walk over the folds and the one
    reading of the data (``_walk``), and ``_fold``, the fold of the Hurwitz
    system (``_hurwitz_state``)."""
    __slots__ = ("higher_fiber", "lefschetz", "rounds", "spin", "simply_connected", "_key",
                 "_fold", "_walk")

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


def _fold_genera(genera: list[int], comp: int, cycle: CurveDescriptor) -> CycleContext:
    """The context of a fold on component ``comp`` of genus g, whose cut
    (``CycleContext.sides``) is applied to the genera in place: side 0 stays
    on the component and a II_h fold's side 1 is appended.  A fold that
    genus g does not admit (any fold at g = 0, II_h outside 0..g) raises
    ValueError saying so, and leaves the genera as they were."""
    g = genera[comp]
    if isinstance(cycle, TypeI):
        if g < 1:
            raise ValueError("type I fold on a genus-0 component")
    elif g < 1 or not 0 <= cycle.h <= g:
        raise ValueError(f"II_{cycle.h} fold on a genus-{g} component")
    ctx = CycleContext(g, cycle)
    genera[comp], *new = ctx.sides()
    genera += new
    return ctx


# the component genera before each round region and at the south disk, each
# fold's context, the distinct Lefschetz data (id(d) -> d in order of first
# entry: the one place that reads the entries by identity), their issues
# (``_data_issues``), and each fold's pushforward or the ContextError that
# refused its monodromy, which is the one ``locsig.validate_word`` raises
Walk = namedtuple("Walk", "stages contexts data data_issues pushes")


def _walk(spec: FibrationSpec) -> Walk:
    """The spec's ``Walk``, made on first use and kept on the spec object,
    so that validation, both signature pipelines and the Euler
    characteristic read one walk.  II_h in round k puts side 1 on component
    len(stages[k]).  A fold on a missing component, or one its genus does
    not admit (``_fold_genera``), raises ConsistencyError naming its round,
    so every context has genus >= 1; a refused walk is not kept."""
    try:
        return spec._walk
    except AttributeError:
        pass
    genera = list(spec.higher_fiber)
    stages = [tuple(genera)]
    contexts = []
    pushes = []
    for k, r in enumerate(spec.rounds):
        if not 0 <= r.component < len(genera):
            raise ConsistencyError(f"round {k}: component {r.component} does not exist")
        try:
            ctx = _fold_genera(genera, r.component, r.cycle)
        except ValueError as e:
            raise ConsistencyError(f"round {k}: {e}") from None
        contexts.append(ctx)
        stages.append(tuple(genera))
        try:
            pushes.append(locsig.push_forward(r.monodromy, ctx))
        except locsig.ContextError as e:  # raised by each consumer in turn
            pushes.append(e.with_traceback(None))
    if not spec.higher_fiber:  # no round names a component: the active one is 0
        raise ConsistencyError("active component 0 does not exist")
    data = dict(zip(map(id, spec.lefschetz), spec.lefschetz))
    walk = Walk(tuple(stages), tuple(contexts), data, _data_issues(spec, data),
                tuple(pushes))
    object.__setattr__(spec, "_walk", walk)
    return walk


def component_stages(spec: FibrationSpec) -> list[list[int]]:
    """Component genera before each round region and at the south disk (``_walk``)."""
    return [list(stage) for stage in _walk(spec).stages]


def hurwitz_word(spec: FibrationSpec) -> Word:
    """Product of all Lefschetz twists, the boundary monodromy of the
    north disk."""
    g = spec.active_genus()
    w = Word(g)
    for d in spec.lefschetz:
        w = w * d.word()
    return w


# -- validation ---------------------------------------------------------------

def _data_issues(spec: FibrationSpec, data: dict) -> list[tuple[int | None, str]]:
    """Rule (a') on the Lefschetz data, as (j, message) for each datum j that
    breaks it, in order: a datum has the active genus g, and a II_h datum
    has 1 <= h <= g - 1 (II_0 and II_g twists act trivially, so they are no
    singular fibers).  Data on a genus-0 active component are one issue,
    with j None.  ``validate`` reports these and both signature pipelines
    refuse them (``_refuse``); each reads them off the spec's walk.  Each
    distinct datum object of ``data``, the walk's id map, is checked once,
    and the entries are read again only to place the data that fail."""
    g = spec.active_genus()
    if g < 1 and spec.lefschetz:
        return [(None, "active component must have genus >= 1")]
    bad = {}
    for key, d in data.items():
        if d.genus != g:
            bad[key] = f"word genus {d.genus} != fiber genus {g}"
        elif isinstance(d.cycle, TypeII) and not 1 <= d.cycle.h <= g - 1:
            bad[key] = f"II_{d.cycle.h} is not essential at genus {g}"
    if not bad:
        return []
    return [(j, bad[id(d)]) for j, d in enumerate(spec.lefschetz) if id(d) in bad]


def _refuse(walk: Walk) -> None:
    """What both signature pipelines refuse, as ``validate`` reports it: a
    ConsistencyError naming the first datum that breaks rule (a'), else the
    walk's ContextError for the first fold monodromy outside its
    stabiliser."""
    if walk.data_issues:
        j, message = walk.data_issues[0]
        raise ConsistencyError(message if j is None else f"lefschetz[{j}]: {message}")
    for push in walk.pushes:
        if isinstance(push, locsig.ContextError):
            raise push.with_traceback(None)


class ValidationIssue(namedtuple("ValidationIssue", "where message")):
    __slots__ = ()

    def __str__(self):
        return f"{self.where}: {self.message}"


class ValidationReport(namedtuple("ValidationReport", "issues notes")):
    """The itemised outcome of ``validate``, which builds it with two fresh
    lists and appends to them."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, where: str, message: str):
        self.issues.append(ValidationIssue(where, message))


def validate(spec: FibrationSpec) -> ValidationReport:
    """Homological consistency checks, every failure itemized: (a') the
    Lefschetz data are essential twists at the active genus
    (``_data_issues``, which both signature pipelines enforce too); (a) each
    fold monodromy is a word in its stabiliser's generators, so it fixes its
    cycle up to sign; (b) it equals its component's incoming monodromy
    exactly on homology; (c) the south disk is trivial on homology.  A fold
    that fails (b) ends the checks on its component (on both sides of a II_h
    fold)."""
    report = ValidationReport([], [])
    try:
        walk = _walk(spec)
    except ConsistencyError as e:
        report.add("components", str(e))
        return report
    stages = walk.stages

    # (a') Lefschetz data are essential twists at the active genus, g >= 1
    g_active = spec.active_genus()
    for j, message in walk.data_issues:
        report.add("components" if j is None else f"lefschetz[{j}]", message)
    bad_genus = any(j is None or spec.lefschetz[j].genus != g_active
                    for j, _ in walk.data_issues)

    # (a) round monodromies are words in the stabiliser generators: the walk
    # kept the error of each one that is not
    for k, push in enumerate(walk.pushes):
        if isinstance(push, locsig.ContextError):
            report.add(f"rounds[{k}]", str(push))
            return report  # later checks need well-formed monodromies
    if bad_genus:
        return report  # check (b) needs the whole Hurwitz product

    # (b) match each fold against its component's incoming monodromy, the
    # Hurwitz product for the active one, then push forward; a fold that does
    # not match leaves its sides unknown (None), which no later check reads
    tracked = {spec.active_component(): _hurwitz_state(spec)[1]}
    for k, (r, ctx, push) in enumerate(zip(spec.rounds, walk.contexts, walk.pushes)):
        where = f"rounds[{k}]"
        if isinstance(r.cycle, TypeII):
            report.notes.append(
                f"{where}: separating cycle is invisible to homology; orientation "
                "preservation is enforced by the generating set")
        expected = tracked.pop(r.component, surface.sp_identity(ctx.genus))
        if expected is not None and surface.word_matrix(r.monodromy) != expected:
            report.add(where, "monodromy does not match the incoming boundary "
                              "monodromy on homology")
            expected = None
        # side 0 stays on the component; a II_h fold's side 1 is a new one
        for comp, w in zip((r.component, len(stages[k])), push):
            if w.genus >= 1:
                tracked[comp] = None if expected is None else surface.word_matrix(w)
    # (c) south disk: whatever monodromy survives must bound a trivial
    # bundle (for a pure Lefschetz fibration this is the Hurwitz product
    # itself)
    for comp, M in tracked.items():
        if M is not None and M != surface.sp_identity(stages[-1][comp]):
            report.add("south disk",
                       f"component {comp}: residual monodromy is not homologically "
                       "trivial, the south-side bundle cannot be trivial")
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


# the localized formula's (label, value) terms and their total
SignatureBreakdown = namedtuple("SignatureBreakdown", "sigma_terms h_terms total")


def signature_breakdown(spec: FibrationSpec) -> SignatureBreakdown:
    """The localized formula term by term; ConsistencyError for data that
    ``validate`` refuses (rule (a')), and the walk's ContextError for a fold
    monodromy outside its stabiliser (``_refuse``).  The label text and
    sigma_loc are made once per distinct datum object, the total is taken
    over the distinct data with their numbers of entries, and sigma_loc is
    one value object per cycle type, which the terms share."""
    g = spec.active_genus()
    walk = _walk(spec)
    _refuse(walk)
    sigma = {}  # cycle -> sigma_loc: one value object per cycle type
    table = {key: (str(d.cycle), sigma.setdefault(d.cycle, locsig.sigma_loc(d.cycle, g)))
             for key, d in walk.data.items()}  # id(datum) -> (cycle text, sigma_loc)
    ids = list(map(id, spec.lefschetz))
    sigma_terms = [(f"sigma_loc[{j}]({text})", value)
                   for j, (text, value) in enumerate(map(table.__getitem__, ids))]
    h_terms = [(f"h[{k}](g={ctx.genus}, {r.cycle})", locsig.h_word(r.monodromy, ctx))
               for k, (r, ctx) in enumerate(zip(spec.rounds, walk.contexts))]
    total = sum((k * table[key][1] for key, k in Counter(ids).items()), Fraction(0))
    total += sum((v for _, v in h_terms), Fraction(0))
    return SignatureBreakdown(tuple(sigma_terms), tuple(h_terms), total)


def total_signature(spec: FibrationSpec) -> int:
    """Signature by the localized formula; raises ConsistencyError when the
    rational total is not an integer (unrealizable input)."""
    return _as_integer(signature_breakdown(spec).total, "total signature")


def _hurwitz_state(spec: FibrationSpec) -> tuple[int, surface.Matrix]:
    """The spec's Hurwitz system folded in ``meyer``'s tau-corrected
    states: (c, H) with H = D_1 ... D_n, the Hurwitz product that
    validation compares, and c = -Sum_k tau(P_{k-1}, D_k), the Meyer-path
    sum; (0, 1) for no data.  The fold is computed on first use and kept on
    the spec object, so validation and the Meyer path share it.  Each type I
    datum enters the fold as its vanishing class, the pair (v, 1) for t_v;
    a type II datum has class 0 and the identity matrix, so it would add
    tau(P, 1) = 0 and leave P as it is, and is no factor.  Each distinct
    datum object of the spec's walk reads its class once, and the factors
    are read off by identity, so a spec that repeats its data hashes no word
    per datum.  ``meyer.sequence_state`` raises a repeated block of data as
    one power and folds windows of 2g classes as one form each."""
    try:
        return spec._fold
    except AttributeError:
        pass
    pairs = {key: (d.vector(), 1) for key, d in _walk(spec).data.items()
             if isinstance(d.cycle, TypeI)}
    factors = list(filter(None, map(pairs.get, map(id, spec.lefschetz))))
    fold = meyer.sequence_state(factors) or (0, surface.sp_identity(spec.active_genus()))
    object.__setattr__(spec, "_fold", fold)
    return fold


def signature_meyer_path(spec: FibrationSpec) -> int:
    """Signature assembled from the Meyer cocycle, the round-cobordism
    signatures, and the fiber-neighborhood signatures (0 for type I, -1 for
    type II); an independent route that must agree with total_signature.
    The Lefschetz part is read off the spec's Hurwitz fold
    (``_hurwitz_state``), which a validated spec already holds.

    With D_k the symplectic image of Lefschetz datum k and
    P_k = D_1 ... D_k (Endo, Math. Ann. 316, 2000):

        Sign = sum s(rounds) - sum_k tau(P_{k-1}, D_k) - #II,

    which is the cobounding-function assembly
    sum s(rounds) - phi(H^-1) - sum_k phi(D_k) - #II for H = P_n telescoped
    exactly: phi(H^-1) = tau(H, H^-1) - phi(H), and tau(A, A^-1) = 0 for
    every symplectic A.  Every term is an integer.  Data that ``validate``
    refuses (rule (a')) raise ConsistencyError, and a monodromy outside its
    stabiliser the walk's ContextError, before the fold (``_refuse``).  s of
    a round is ``locsig._s_value`` on the pushforward that the spec's walk
    holds, as ``locsig.s_word`` would fold it.
    """
    walk = _walk(spec)
    _refuse(walk)
    total = 0
    for r, ctx, push in zip(spec.rounds, walk.contexts, walk.pushes):
        if isinstance(r.cycle, TypeI):  # s vanishes on a separating fold
            total += locsig._s_value(r.monodromy, ctx, meyer.correction(r.monodromy),
                                     meyer.correction(push[0]))
    total += _hurwitz_state(spec)[0]  # c = -Sum_k tau(P_{k-1}, D_k)
    separating = {key for key, d in walk.data.items() if isinstance(d.cycle, TypeII)}
    return total - sum(map(separating.__contains__, map(id, spec.lefschetz)))


def euler_characteristic(spec: FibrationSpec) -> int:
    """chi = chi(north fiber) + #Lefschetz + chi(south fiber); round regions
    contribute zero."""
    stages = _walk(spec).stages
    return sum(2 - 2 * n for n in stages[0] + stages[-1]) + len(spec.lefschetz)


# -- homeomorphism type -------------------------------------------------------

# display names of the standard building blocks
_DISPLAY = {
    "CP2": "CP²",
    "CP2bar": "CP̄²",
    "S2xS2": "S²×S²",
    "E2": "E(2)",
}
_PAREN_IN_SUMS = {"S2xS2"}


# status is "ok" or "indeterminate"; summands are (count, block) pairs
HomeoReport = namedtuple("HomeoReport", "status summands display", defaults=((), ""))


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
        blocks = ((b2p, "CP2"), (b2m, "CP2bar"))
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
        blocks = ((a, "E2"), (rem // 2, "S2xS2"))
    summands = tuple((k, block) for k, block in blocks if k)
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
    if not (_is_int(g) and _is_int(n)):
        raise ValueError(f"g and n must be integers, got {g!r} and {n!r}")
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
    """Torsion order of H_1 of the stabiliser of a type II_h curve: the
    presentation (Z + Z) / <(4h(2h+1), -4(g-h)(2(g-h)+1))> is Z + Z/d, with
    d the gcd of the relation's two entries."""
    if not (_is_int(g) and _is_int(h)):
        raise ValueError(f"g and h must be integers, got {g!r} and {h!r}")
    if not (g >= 2 and 1 <= h <= g - 1):
        raise ValueError(f"type II_h abelianization needs g >= 2, 1 <= h <= g-1")
    return gcd(4 * h * (2 * h + 1), 4 * (g - h) * (2 * (g - h) + 1))


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

def _terms_to_json(terms) -> list[list[str]]:
    """[label, str(value)] per term, with one str per distinct value object:
    the sigma_loc terms of one datum share theirs (``signature_breakdown``)."""
    text = {}  # id(value) -> str(value)
    out = []
    for label, value in terms:
        s = text.get(id(value))
        if s is None:
            s = text[id(value)] = str(value)
        out.append([label, s])
    return out


class InvariantReport(namedtuple(
        "InvariantReport", "spec validation signature euler breakdown meyer_path_signature "
        "two_paths_agree homeomorphism notes", defaults=((),))):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "euler_characteristic": self.euler,
            "sigma_terms": _terms_to_json(self.breakdown.sigma_terms),
            "h_terms": _terms_to_json(self.breakdown.h_terms),
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
    meyer_sig = signature_meyer_path(spec)
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
# the keys each object of a spec document may have; "h" only on type II
_SPEC_KEYS = frozenset({"spec_version", "higher_fiber", "lefschetz", "rounds", "flags"})
_HIGHER_KEYS = frozenset({"genus"})
_LEFSCHETZ_KEYS = frozenset({"type", "h", "conjugator"})
_ROUND_KEYS = frozenset({"component", "cycle", "monodromy"})
_CYCLE_KEYS = frozenset({"type", "h"})
_FLAG_KEYS = frozenset({"spin", "simply_connected"})


def _json_value(value, kind, path: str):
    """value itself when it has the JSON type ``kind``, or, when ``kind`` is a
    set of keys, when it is an object with no other key; otherwise a
    ValueError naming its path in the document."""
    if isinstance(kind, frozenset):
        unknown = _json_value(value, dict, path).keys() - kind
        if unknown:
            key = next(k for k in value if k in unknown)
            raise ValueError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
        return value
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


def _json_items(doc: dict, key: str, keys: frozenset):
    """(path, entry) for each object in the optional top-level array doc[key]."""
    for j, entry in enumerate(_json_member(doc, key, list, "", [])):
        yield f"{key}[{j}]", _json_value(entry, keys, f"{key}[{j}]")


def _cycle_from_json(doc: dict, path: str) -> CurveDescriptor:
    kind = _json_member(doc, "type", str, path)
    if kind == "I":
        if "h" in doc:
            raise ValueError(f"{path}.h: unknown key")
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
    """Build a spec from its JSON document.  A document of the wrong shape,
    or with a key the format does not define, raises ValueError naming the
    offending path, e.g. ``lefschetz[3].type``.  Each distinct Lefschetz
    entry is checked once: an entry with the same keys, values and value
    types as one that passed is read off it, and any other entry, one that
    fails included, is checked in full.  The entries with one cycle type and
    one conjugator text share one ``LefschetzDatum``, parsed once."""
    _json_value(doc, dict, "spec")
    version = doc.get("spec_version")
    if version.__class__ is not int or version != SPEC_VERSION:  # not true, not 1.0
        raise ValueError(f"unsupported spec_version {version!r}")
    _json_value(doc, _SPEC_KEYS, "")
    higher = []
    for j, entry in enumerate(_json_member(doc, "higher_fiber", list, "")):
        where = f"higher_fiber[{j}]"
        genus = _json_member(_json_value(entry, _HIGHER_KEYS, where), "genus", int, where)
        if genus < 0:
            raise ValueError(f"{where}.genus: must be >= 0, got {genus}")
        higher.append(genus)
    rounds_doc = list(_json_items(doc, "rounds", _ROUND_KEYS))
    components = [_json_member(entry, "component", int, where)
                  for where, entry in rounds_doc]
    active = components[0] if components else 0
    if not 0 <= active < len(higher):
        raise ValueError(f"active component {active} does not exist")
    g_active = higher[active]
    lefschetz = []
    data: dict = {}  # one datum per distinct (cycle, conjugator text)
    checked: dict = {}  # (items, value types) of an entry that passed -> its datum
    for j, entry in enumerate(_json_member(doc, "lefschetz", list, "", [])):
        try:  # True == 1 == 1.0, so the key holds the values' types
            key = (*entry.items(), *map(type, entry.values()))
            d = checked.get(key)
        except (AttributeError, TypeError):  # no object, or an unhashable value
            key = d = None
        if d is None:
            where = f"lefschetz[{j}]"
            cycle = _cycle_from_json(_json_value(entry, _LEFSCHETZ_KEYS, where), where)
            text = _json_member(entry, "conjugator", str, where, "")
            d = data.get((cycle, text))
            if d is None:
                conj = _word_from_json(text, g_active, f"{where}.conjugator")
                d = data[cycle, text] = LefschetzDatum(cycle, conj)
            if key is not None:
                checked[key] = d
        lefschetz.append(d)
    # genera evolve as rounds are applied; parse each monodromy at the genus
    # of its component at that stage
    genera = list(higher)
    rounds = []
    for (where, entry), comp in zip(rounds_doc, components):
        if not 0 <= comp < len(genera):
            raise ValueError(f"{where}.component: component {comp} does not exist")
        cycle = _cycle_from_json(_json_member(entry, "cycle", _CYCLE_KEYS, where),
                                 f"{where}.cycle")
        text = _json_member(entry, "monodromy", str, where)
        try:
            ctx = _fold_genera(genera, comp, cycle)
        except ValueError as e:
            raise ValueError(f"{where}.cycle: {e}") from None
        mono = _word_from_json(text, ctx.genus, f"{where}.monodromy")
        rounds.append(RoundRegion(comp, cycle, mono))
    flags = _json_member(doc, "flags", _FLAG_KEYS, "", {})
    return FibrationSpec(tuple(higher), tuple(lefschetz), tuple(rounds),
                         spin=_json_member(flags, "spin", bool, "flags", False),
                         simply_connected=_json_member(flags, "simply_connected",
                                                       bool, "flags", False))


def load_spec(path: str) -> FibrationSpec:
    """The spec of a JSON file; ValueError for a document nested deeper than
    the parser's recursion limit."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    return spec_from_json(doc)
