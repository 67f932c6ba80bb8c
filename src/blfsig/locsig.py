"""Local signatures of singular fibers and the rational homomorphism
attached to a fold circle.

A Lefschetz singular fiber contributes the local signature

    sigma_loc(I)    = -(g+1)/(2g+1)
    sigma_loc(II_h) = 4h(g-h)/(2g+1) - 1            (1 <= h <= g-1),

and a fold circle with vanishing cycle of type c and monodromy w (a word
in the generators of the subgroup preserving c) contributes h(w), where h
is the homomorphism with generator values

    type I:    h(iota) = 0,  h(t_i) = -1/(4g^2-1) for i <= 2g-1,
               h(t_{2g+1}) = -g/(2g+1)
    type II_h: h(t_i) = (g+1)/(2g+1) - (h+1)/(2h+1)          for i <= 2h,
               h(t_i) = (g+1)/(2g+1) - (g-h+1)/(2(g-h)+1)    for i >= 2h+2
    type II_0, II_g: h(t_i) = 0 for every i.

h decomposes as h = s + phi - (pushforward phi), where s is the signature
of the glued round-handle piece (s takes values in {-1, 0, +1} on single
generators and obeys s(uv) = s(u) + s(v) + tau(u, v) - tau(push u, push v));
the decomposition is an exact identity and is exposed as a cross-check.
h is the generator sum ``words.homomorphism``.  Unrolling the law for s
over a word gives s(w) = sum s(gen) - c(w) + c(push w), with c the cocycle
correction ``meyer.correction``, the same fold that evaluates phi.

The generators listed above are the whole generating set of each
stabiliser.  ``_generator`` is its one description, with each generator's
h and s values and its image on the cut surface: a case analysis on the
chain index, O(1) at every genus, that every other function here reads.
"""

from __future__ import annotations

from fractions import Fraction

from . import meyer, surface
from .surface import CurveDescriptor, TypeI, TypeII
from .words import IOTA, ChainTwist, Frozen, Iota, Word, homomorphism


class ContextError(ValueError):
    """A generator outside the generating set of the curve stabiliser."""


class CycleContext(Frozen):
    """A vanishing-cycle type together with the ambient genus."""
    __slots__ = ("genus", "cycle", "_key")

    def __init__(self, genus: int, cycle: CurveDescriptor):
        surface.check_genus(genus)
        if isinstance(cycle, TypeII) and not 0 <= cycle.h <= genus:
            raise ValueError(f"II_{cycle.h} invalid at genus {genus}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "_key", (genus, cycle))

    def __str__(self):
        return f"(g={self.genus}, {self.cycle})"


def _generator(gen, ctx: CycleContext) -> tuple[Fraction, int, tuple | None]:
    """The one description of the stabiliser's generating set: for a
    generator of it, its h value, its s value and its image (side, generator)
    on the cut surface, None when it dies there.  Any other generator raises
    ContextError.  A case analysis on the index, O(1) at every genus."""
    g = ctx.genus
    i = gen.index if isinstance(gen, ChainTwist) else None
    if isinstance(ctx.cycle, TypeI):
        if isinstance(gen, Iota):
            # reverses the orientation of the cycle; survives one genus down
            return Fraction(0), 0, (0, gen)
        if i == 2 * g + 1:
            return Fraction(-g, 2 * g + 1), -1, None  # the top twist dies
        if i is not None and 1 <= i <= 2 * g - 1:
            # at genus 1 the chain curve t_1 is isotopic to the top curve,
            # and dies with it
            h = Fraction(-1, 4 * g * g - 1)
            return (h, -1, None) if g == 1 else (h, 0, (0, gen))
    elif i is not None and 1 <= i <= 2 * g + 1:
        # separating cycle: s vanishes, since the correction space does
        h = ctx.cycle.h
        if h in (0, g):
            # the whole surface lies on one side: the genus-g side 1 for h = 0
            return Fraction(0), 0, (1 if h == 0 else 0, gen)
        if i <= 2 * h:
            return Fraction(g + 1, 2 * g + 1) - Fraction(h + 1, 2 * h + 1), 0, (0, gen)
        if i >= 2 * h + 2:
            # the top chain curve lies on the genus g-h side, so i = 2g+1
            # takes the same value as the rest of that side
            return (Fraction(g + 1, 2 * g + 1) - Fraction(g - h + 1, 2 * (g - h) + 1),
                    0, (1, ChainTwist(i - 2 * h - 1)))
    raise ContextError(f"{gen} is not a generator of the stabiliser for {ctx}")


def _admits(gen, ctx: CycleContext) -> bool:
    try:
        _generator(gen, ctx)
    except ContextError:
        return False
    return True


def allowed_chain_indices(ctx: CycleContext) -> frozenset[int]:
    return frozenset(i for i in range(1, 2 * ctx.genus + 2)
                     if _admits(ChainTwist(i), ctx))


def iota_allowed(ctx: CycleContext) -> bool:
    return _admits(IOTA, ctx)


def validate_word(w: Word, ctx: CycleContext) -> None:
    """Check that every generator of the word lies in the generating set of
    the context; the cost is the size of the word as written, whatever its
    exponents or the genus."""
    if w.genus != ctx.genus:
        raise ContextError(f"word genus {w.genus} != context genus {ctx.genus}")
    for gen in w.generators():
        _generator(gen, ctx)


def sigma_loc(cycle: CurveDescriptor, g: int) -> Fraction:
    """Local signature of a Lefschetz singular fiber of the given type."""
    surface.check_genus(g)
    if isinstance(cycle, TypeI):
        return Fraction(-(g + 1), 2 * g + 1)
    h = cycle.h
    if not 1 <= h <= g - 1:
        raise ValueError(
            f"a Lefschetz vanishing cycle of type II needs 1 <= h <= g-1, got h={h}")
    return Fraction(4 * h * (g - h), 2 * g + 1) - 1


def h_generator(gen, ctx: CycleContext) -> Fraction:
    return _generator(gen, ctx)[0]


def h_word(w: Word, ctx: CycleContext) -> Fraction:
    """Evaluate the homomorphism by additivity over the word."""
    validate_word(w, ctx)
    return homomorphism(w, lambda gen: h_generator(gen, ctx))


def s_generator(gen, ctx: CycleContext) -> int:
    """Round-cobordism signature of a single generator: in {-1, 0, +1}."""
    return _generator(gen, ctx)[1]


# -- pushforward to the cut surface ------------------------------------------

def push_forward(w: Word, ctx: CycleContext):
    """Image of a stabiliser word under cutting along the cycle.

    Type I: a word at genus g-1 (the top twist dies, and so does t_1 at
    genus 1, where the cut surface is a sphere; iota survives).
    Type II_h: a pair of words at genus h and g-h (for h in {0, g} the
    nontrivial side is the word itself).
    """
    images = {gen: _generator(gen, ctx)[2] for gen in w.generators()}

    def side(k: int, genus: int) -> Word:
        def fn(gen):
            image = images[gen]
            return image[1] if image is not None and image[0] == k else None
        return w.substitute(fn, genus)

    g = ctx.genus
    if isinstance(ctx.cycle, TypeI):
        return side(0, g - 1)
    h = ctx.cycle.h
    return side(0, h), side(1, g - h)


def s_word(w: Word, ctx: CycleContext) -> int:
    """Round-cobordism signature of a word: its generator sum corrected by
    the Meyer cocycle upstairs and on the cut surface."""
    validate_word(w, ctx)
    if not isinstance(ctx.cycle, TypeI):
        return 0
    return _s_value(w, ctx, meyer.correction(w), meyer.correction(push_forward(w, ctx)))


def _s_value(w: Word, ctx: CycleContext, c: int, c_push: int) -> int:
    """s(w) of a type I context from the corrections of w and of its
    pushforward."""
    return int(homomorphism(w, lambda gen: s_generator(gen, ctx))) - c + c_push


class DecompositionReport:
    """Both sides of the identity h = s + phi - (pushforward phi)."""
    __slots__ = ("context", "homomorphism", "s_term", "phi_term", "pushed_phi_term")

    def __init__(self, context: CycleContext, homomorphism: Fraction, s_term: int,
                 phi_term: Fraction, pushed_phi_term: Fraction):
        self.context = context
        self.homomorphism = homomorphism
        self.s_term = s_term
        self.phi_term = phi_term
        self.pushed_phi_term = pushed_phi_term

    @property
    def assembled(self) -> Fraction:
        return self.s_term + self.phi_term - self.pushed_phi_term

    @property
    def agrees(self) -> bool:
        return self.homomorphism == self.assembled


def decomposition_check(w: Word, ctx: CycleContext) -> DecompositionReport:
    """Evaluate the homomorphism two ways and report the comparison.  The
    pushforward and the cocycle correction of each distinct word are
    computed once and shared by s, phi and the pushed phi."""
    h = h_word(w, ctx)
    image = push_forward(w, ctx)
    sides = (image,) if isinstance(ctx.cycle, TypeI) else image
    corrections = {}
    for x in (w, *sides):
        if x not in corrections:
            corrections[x] = meyer.correction(x)
    s_term = _s_value(w, ctx, corrections[w], corrections[image]) \
        if isinstance(ctx.cycle, TypeI) else 0
    return DecompositionReport(
        context=ctx,
        homomorphism=h,
        s_term=s_term,
        phi_term=meyer.generator_sum(w) + corrections[w],
        pushed_phi_term=sum((meyer.generator_sum(x) + corrections[x] for x in sides),
                            Fraction(0)),
    )
