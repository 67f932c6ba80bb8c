"""Meyer's signature cocycle on Sp(2g, Z) and its rational cobounding
function on the hyperelliptic mapping class group.

The cocycle tau(A, B) is the signature of an explicit rational bilinear
form: on V_{A,B} = {(x, y) : (A^-1 - 1)x + (B - 1)y = 0} pair

    <(x1, y1), (x2, y2)> = (x1 + y1)^T J (1 - B) y2,

which is symmetric on V_{A,B}.  The overall sign is calibrated once so
that the cobounding function takes the value (g+1)/(2g+1) on a chain
twist (equivalently, tau of a right-handed transvection with itself is
+1); the calibration is pinned by the class-function tests, which fail
loudly for the flipped convention.

V_{A,B} has dimension between 2g and 4g, but the form lives on a smaller
space.  It depends on its second argument only through w2 = (B - 1)y2,
so by symmetry ker(A^-1 - 1) x ker(B - 1) lies in its radical, and the
form descends to the quotient, which (x, y) -> (B - 1)y identifies with

    W = Im(A^-1 - 1) ∩ Im(B - 1),   dim W <= min(rank(A - 1), rank(B - 1)).

For w_i = (B - 1)y_i = -(A^-1 - 1)x_i it reads <w1, w2> = -(x1 + y1)^T J w2.
This is well defined because Im(M - 1) is omega-orthogonal to ker(M - 1)
for every symplectic M (omega(Mu - u, v) = omega(Mu, Mv) - omega(u, v) = 0
when Mv = v), applied to M = A^-1 and M = B.  A form and its quotient by
part of its radical have the same signature, so tau is unchanged.
``_gram`` takes a lattice basis E of Im(B - 1) with integer preimages Y,
solves (A^-1 - 1)x + E alpha = 0 over the integers, and keeps the basis
solutions with alpha != 0.  Their images E alpha span W (rarely with a
dependent one, which only adds radical), so the Gram matrix has at most 2g
rows, the kernel has dimension at most 2g instead of up to 4g, and tau
with an identity argument builds no form at all.  E and Y depend on B
alone, so ``_image`` column-reduces B - 1 once per matrix; B = 1 has
empty E and Y.

B = -1 takes a form of its own, on V itself: B - 1 = -2 is invertible, so
V = {(x, (A^-1 - 1) x / 2)}, W = Im(A^-1 - 1), and the pairing is
x1^T (J A^-1 - A^-T J) x2 / 2.  On the vectors (2A e_i, (1 - A) e_i) its
Gram matrix is 2(A^T J - J A), with no reduction and no kernel:
tau(A, -1) = -sig(A^T J - J A), the form x -> <Ax, x> on Q^2g.

The cobounding function phi obeys phi(uv) = phi(u) + phi(v) - tau(u, v)
and has the base values

    phi(chain twist)             = (g+1)/(2g+1)
    phi(iota)                    = tau(-1, -1)/2 = 0

on the two generator kinds.  The separating twist of genus h is the chain
word (t_1 ... t_{2h})^{4h+2}, so its value -4h(g-h)/(2g+1) (Endo) follows
from these two; the tests check it against that closed form.  phi(w) is
the generator sum ``words.homomorphism(w, phi_base)`` plus the Z-valued
correction c(w) of the word's letter matrices.  ``correction``
folds a word by ``words.evaluate`` in the states (c, M), with

    (c1, M1)(c2, M2) = (c1 + c2 - tau(M1, M2), M1 M2),   (c, M)^-1 = (-c, M^-1),

starting from (0, M) on each generator.  The cocycle identity makes this
law associative, so repeated squaring is sound.  The inverse needs no tau
call because tau(M, M^-1) = 0 for every symplectic M (forced by phi(1) = 0
and phi(w^-1) = -phi(w), and checked on the form by the tests).  A
generator power needs no fold at all: tau(T^j, T) = 1 for a right-handed
transvection T and j >= 1, so t_i^e is the state (sign(e) - e, T^e), one
scaled transvection, and iota^e is (0, +-1) as tau(-1, -1) = 0.

A run of transvection powers T_k = t_{v_k}^{e_k} (v_k != 0) needs no
cocycle evaluation per factor either.  Over a window of n factors, from
P_0 = 1, the sum -Sum_k tau(P_{k-1}, T_k) is the signature of the integer
form Q(x, y) = x^T L y on the relations ker(v_1 ... v_n) in Z^n among the
classes, with

    L_kk = -D/e_k,   L_kl = -D <v_k, v_l> for k < l,   L_lk = 0,   D = lcm |e_k|

(B. Ozbagci, "Signatures of Lefschetz fibrations", Pacific J. Math. 202,
2002, for e_k = 1).  Q is symmetric on the kernel, where
x^T (L - L^T) y = -D <Sum x_k v_k, Sum y_l v_l> = 0; D > 0 keeps the
signature; and t_{mv}^e = t_v^{m^2 e} gives the same form up to a positive
factor, so v need not be primitive.  The sign of the pairing term is the
convention to keep: flipped, it disagreed with the fold of one cocycle call
per factor on 133 of 600 random runs.  A null class is no factor (the form
would count it -1).  ``_window_state`` takes at most 2g factors, so the
form has at most 2g rows, like every other Meyer form, and costs one
integer kernel of a 2g x n matrix and one signature; the windows of a run
are joined by the law pairwise, as a balanced tree (``_run_state``), so
that most joins multiply short products.  So n factors cost about n/2g
cocycle evaluations and O(n g^2) work, where one unbounded form would cost
O(n^3).

``correction`` folds the word that ``words.reduce_word`` makes of w.  The
reduction merges equal neighbouring chain twists, also across iota, which
is central, and across twists along disjoint chain curves (|i - j| >= 2);
keeps only iota's parity, at the end of each stretch of generators; turns a
nested power whose reduced body is one letter into a power of that letter,
so (t5^-2 iota)^2 becomes t5^-4; and cancels or merges the two ends
cyclically, at the top level only, since inside a nested power that would
conjugate the one factor.  Each move keeps the element's conjugacy class
and the generator sum, so c(w) = phi(w) - (generator sum) is unchanged, phi
being a class function.  No other relation of the group may be used: the
generator sum is not a homomorphism on the hyperelliptic mapping class
group, since iota = (t_1 ... t_{2g+1})(t_{2g+1} ... t_1) has sum 0 on the
left and 2g + 2 times (g+1)/(2g+1) on the right, so c depends on the word
and not only on the element.  A round monodromy written u x u^-1, as a
global conjugation of the fibration writes it, so costs what x costs.

The fold takes each maximal stretch of generator letters of a word
(``words.stretches``, which ``surface.word_matrix`` folds too) so: the
chain twists as one run, plus their letter corrections sign(e) - e, with
the stretch's iotas moved to its end, which is exact because iota is
central; an odd number of them costs one tau(P, -1) and an even number
nothing.  A flat word of n letters thus asks for at most ceil(n/2g)
cocycle evaluations, plus one for an odd number of iotas.  The same fold
gives the two other tau sums of the package: a round piece's
s(w) = sum s(gen) - c(w) + c(push w) (see ``locsig``), and the Meyer-path
sum sum_k tau(P_{k-1}, D_k) = -c(D_1 ... D_n) of ``sequence_state``.  That
fold takes the Lefschetz data as their vanishing classes, the pairs
(v_k, 1), never as matrices; it factors the sequence into runs
(``words.runs``) and folds each block as one run in windows.

A nested power s^N (a power of a subword, or a repeated block of data) is
raised by ``_power``.  When |N| <= 2(4g+2) that is repeated squaring, about
1.5 log2 |N| cocycle evaluations.  A larger power is raised at its period
when it has one.  Multiply M, M^2, ..., M^k, for k up to 4g + 2 (Wiman's
bound on the order of a periodic mapping class), and stop at the first k
with (U - 1)^2 = 0, U = M^k.  Such a U is the identity, a transvection
power or a multitwist along pairwise orthogonal classes.  Only then fold
s, s^2, ..., s^k, from c_(j+1) = c_j + c_1 - tau(M^j, M), and take

    s^N = (s^k)^q s^r,   q = N div k, r = N mod k,
    (c_k, U)^q = (q c_k - (q - 1) tau(U, U), 1 + q (U - 1)),

which costs the k - 1 steps of the fold, one tau(U, U) and one join, and
nothing past the fold when U = 1.  When U = 1, half of the steps are read
off the other half.  tau(u, v) = phi(u) + phi(v) - phi(uv), with
phi(w^-1) = -phi(w) and phi(uv) = phi(vu), gives tau(A^-1, B^-1) =
-tau(A, B) on word matrices; and the cocycle identity at (M^j, M^-1, M),
tau(M^j, M^-1) + tau(M^(j-1), M) = tau(M^j, 1) + tau(M^-1, M) = 0, gives
tau(M^j, M^-1) = -tau(M^(j-1), M).  So for M^k = 1

    tau(M^(k-j), M) = tau(M^-j, M) = -tau(M^j, M^-1) = tau(M^(j-1), M),

and the steps M^j M with 1 <= j <= (k - 1)/2 are the only ones that ask
for the cocycle: floor((k - 1)/2) evaluations.  The step that closes the
period, j = k - 1, asks for none, as tau(1, M) = 0.  The closed form
follows by induction on q from tau(U^j, U) = tau(U, U) for j >= 1, and
U^q = 1 + q(U - 1).  Proof of the lemma: write N = U - 1 and A = U^j =
1 + jN, so A^-1 - 1 = -jN and V_{A,U} = {(x, y) : N(y - jx) = 0}, that is
y = jx + z with z in ker N.  There (U - 1)y2 = jNx2, and the pairing is

    (x1 + y1)^T J (1 - U) y2 = -j ((1 + j) x1 + z1)^T J N x2
                             = -j (1 + j) x1^T J N x2,

because ker N is omega-orthogonal to Im N, as above.  So the form is
-j(1 + j) < 0 times the form x1^T J N x2 pulled back along the projection
(x, y) -> x, which is onto with kernel in the radical, and its signature
does not depend on j >= 1.  The search gives up, for squaring, as soon as
|tr M^k| > 2g, since some eigenvalue of M is then off the unit circle and
no power of M is unipotent, or when k reaches 4g + 2 with no period found;
having asked for no tau, it spends none before squaring.  (U - 1)^2 = 0 is
tested, as U^2 = 2U - 1 with the sparse products of ``surface``, only when
tr U = 2g.

M^k = -1 is no period.  The powers of (c_k, -1) are (q c_k, +-1), as
tau(-1, -1) = 0, but joining s^r then asks for tau(-1, M^r) =
-sig(A^T J - J A), A = M^r, which is not 0 in general: taking -1 for a
central element that costs nothing, like 1, gave a wrong phi on 110 of
4,500 random powers, all at g <= 2.  (U - 1)^2 = 4 rules it out, and the
search goes on to M^2k = 1.  So a periodic power, such as
(t1 t2 t3 t4)^N with its tenth power the identity on homology, costs at
most floor((4g + 1)/2) = 2g cocycle evaluations whatever N (four for that
one), and a multitwist such as (t1 t3 t5)^N costs one.

Matrices are the tuple matrices of ``surface``.  The public ``tau`` and
``meyer_form`` also take any sequence of integer rows, normalise it to
that form and check that it is symplectic; the internal callers hold
``surface.word_matrix`` values and call ``_tau_cached`` directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul, neg

from . import ratlin, surface
from .words import (ChainTwist, Iota, Word, WordError, evaluate, homomorphism,
                    pow_by_squaring, reduce_word, runs, stretches)


def _symplectic_pair(A, B) -> tuple:
    """Two matrices, each any sequence of integer rows, as tuple matrices
    (see ``surface``), after checking that they are symplectic of one
    size."""
    pair = []
    for M, name in ((A, "first"), (B, "second")):
        rows = ratlin._rows(M)
        M = tuple(tuple(map(int, row)) for row in rows)
        if list(map(list, M)) != rows:
            raise ValueError(f"{name} argument is not an integer matrix")
        if not surface.is_symplectic(M):
            raise ValueError(f"{name} argument is not symplectic")
        pair.append(M)
    A, B = pair
    if len(A) != len(B):
        raise ratlin.ShapeError(f"dimension mismatch: {len(A)} vs {len(B)}")
    return A, B


def meyer_form(A, B) -> surface.Matrix:
    """Integer Gram matrix of the Meyer pairing on vectors of V_{A,B}
    whose images span W = Im(A^-1 - 1) ∩ Im(B - 1) (see the module
    docstring); its signature is -tau(A, B).  It has at most 2g rows and
    is () when A or B is the identity."""
    return tuple(map(tuple, _gram(*_symplectic_pair(A, B))))


def _gram(A: tuple, B: tuple) -> list[list[int]]:
    n = len(A)
    g = n // 2
    if A == surface.sp_identity(g):
        return []  # Im(A^-1 - 1) = 0
    if B == surface.iota_matrix(g):
        return _gram_minus_one(A)
    E, Y = _image(B)
    if not E:
        return []
    us = []
    zs = []
    for v in ratlin.kernel_basis_int(_kernel_rows(A, E)):
        alpha = v[n:]
        if not any(alpha):
            continue  # in ker(A^-1 - 1) x 0, the radical
        u = v[:n]  # u = x + Y alpha
        w = [0] * n  # w = E alpha = (B - 1) Y alpha
        for a, y, e in zip(alpha, Y, E):
            if a:
                u = [p + a * q for p, q in zip(u, y)]
                w = [p + a * q for p, q in zip(w, e)]
        us.append(u)
        # z = -J w: entry i is -s(i) w[i^1]
        zs.append([-w[i ^ 1] if i % 2 == 0 else w[i ^ 1] for i in range(n)])
    G = [[sum(map(mul, u, z)) for z in zs] for u in us]
    d = len(G)
    for i in range(d):
        for j in range(i + 1, d):
            if G[i][j] != G[j][i]:
                raise AssertionError("Meyer form came out asymmetric; convention bug")
    return G


@lru_cache(maxsize=1 << 10)
def _image(B: tuple) -> tuple[tuple, tuple]:
    """(E, Y): a lattice basis E of Im(B - 1), as columns, and preimages
    with (B - 1) Y[k] = E[k], from one column reduction per matrix B;
    empty for B = 1."""
    n = len(B)
    if B == surface.sp_identity(n // 2):
        return (), ()
    E, Y, _ = ratlin.column_reduce([[B[i][j] - (i == j) for j in range(n)]
                                    for i in range(n)])
    return tuple(map(tuple, E)), tuple(map(tuple, Y))


def _kernel_rows(A: tuple, E) -> list[list[int]]:
    """K = (A^-1 - 1 | E): row i of A^-1 is s(i) times the J-shuffle
    (entry j is s(j) c[j^1]) of column c = i^1 of A."""
    n = len(A)
    cols = list(zip(*A))
    K = []
    for i, tail in enumerate(zip(*E)):
        c = cols[i ^ 1]
        row = [0] * n
        if i % 2 == 0:
            row[0::2] = c[1::2]
            row[1::2] = map(neg, c[0::2])
        else:
            row[0::2] = map(neg, c[1::2])
            row[1::2] = c[0::2]
        row[i] -= 1
        row += tail
        K.append(row)
    return K


def _gram_minus_one(A: tuple) -> list[list[int]]:
    """The form for B = -1: V = {(x, (A^-1 - 1)x / 2)} and on the vectors
    (2A e_i, (1 - A) e_i) its Gram matrix is 2(A^T J - J A) = -2(P + P^T)
    with P = J A, whose row i is s(i) A[i^1]."""
    P = [A[i ^ 1] if i % 2 == 0 else tuple(map(neg, A[i ^ 1])) for i in range(len(A))]
    return [[-2 * (a + b) for a, b in zip(row, col)] for row, col in zip(P, zip(*P))]


@lru_cache(maxsize=1 << 16)
def _tau_cached(At: tuple, Bt: tuple) -> int:
    """tau of two symplectic tuple matrices of one size, unchecked; 0 at
    genus 0."""
    return -ratlin._signature_int(_gram(At, Bt)) if At else 0


def tau(A, B) -> int:
    """Meyer cocycle of two symplectic matrices; |tau| <= 2g and
    tau(1, .) = tau(., 1) = 0."""
    return _tau_cached(*_symplectic_pair(A, B))


# -- the cobounding function -------------------------------------------------

def phi_base(gen, g: int) -> Fraction:
    """Base value of the cobounding function on a single generator."""
    surface.check_genus(g)
    if isinstance(gen, ChainTwist):
        if not 1 <= gen.index <= 2 * g + 1:
            raise WordError(f"t{gen.index} out of range for genus {g}")
        return Fraction(g + 1, 2 * g + 1)
    if isinstance(gen, Iota):
        # phi(iota) = tau(-1, -1) / 2, and tau(-1, -1) = -sig 2(A^T J - J A)
        # at A = -1, where A^T J - J A = -J + J = 0
        return Fraction(0)
    raise WordError(f"unknown generator {gen!r}")


# the cocycle correction: states (c, tuple matrix) under the tau-corrected law

def _combine(s1, s2):
    c1, M1 = s1
    c2, M2 = s2
    return (c1 + c2 - _tau_cached(M1, M2), surface.mat_mul(M1, M2))


def _invert(s):
    c, M = s
    return (-c, surface.sp_inverse(M))  # tau(M, M^-1) = 0


def _power(s, N: int):
    """s ** N for a state s = (c, M) and a nonzero int N.  For |N| > 2(4g+2)
    it finds the first k <= 4g + 2 with (U - 1)^2 = 0, U = M^k, by matrix
    products alone, then folds s, s^2, ..., s^k and returns s^N =
    (s^k)^q s^r, q = N div k and r = N mod k, with (s^k)^q in closed form
    (see the module docstring); when U = 1, half of the fold's cocycle
    values are read off the other half.  It falls back to squaring, with no
    cocycle call spent, once |tr M^k| > 2g, as no power of M is then
    unipotent, or when k would pass 4g + 2.  Every other power is
    ``pow_by_squaring``."""
    n = len(s[1])
    bound = 2 * n + 2  # 4g + 2, Wiman's bound on the order of a periodic class
    if abs(N) <= 2 * bound:
        return pow_by_squaring(s, N, _combine, _invert)
    if N < 0:
        s, N = _invert(s), -N
    c, M = s
    Ms = [surface.sp_identity(n // 2), M]  # Ms[j] = M^j
    for k in range(1, bound + 1):
        U = Ms[k]
        trace = sum(U[i][i] for i in range(n))
        # (U - 1)^2 = 0 as U^2 = 2U - 1, tested only when tr U = 2g
        if trace == n and surface.mat_mul(U, U) == _affine(U, 2):
            break
        if abs(trace) > n or k == bound:
            return pow_by_squaring(s, N, _combine, _invert)
        Ms.append(surface.mat_mul(U, M))
    periodic = U == Ms[0]
    taus = [0] * k  # taus[j] = tau(M^j, M), and tau(1, M) = 0
    cs = [0, c]  # cs[j] = c_j, the correction of s^j
    for j in range(1, k):
        # when M^k = 1, tau(M^j, M) = tau(M^(k-1-j), M)
        taus[j] = taus[k - 1 - j] if periodic and 2 * j >= k else _tau_cached(Ms[j], M)
        cs.append(cs[-1] + c - taus[j])
    q, r = divmod(N, k)
    if periodic:  # s^N = (q c_k + c_r, M^r), no further cocycle call
        return (q * cs[k] + cs[r], Ms[r])
    state = (q * cs[k] - (q - 1) * _tau_cached(U, U), _affine(U, q))
    return _combine(state, (cs[r], Ms[r])) if r else state


def _affine(U: tuple, q: int) -> tuple:
    """1 + q (U - 1), which is U^q when (U - 1)^2 = 0."""
    return tuple(tuple(q * x - (q - 1) * (i == j) for j, x in enumerate(row))
                 for i, row in enumerate(U))


@lru_cache(maxsize=1 << 10)
def _window_state(factors: tuple):
    """The state of a window of at most 2g transvection powers
    T_k = t_{v_k}^{e_k}, given as ((v_k, e_k), ...) with v_k != 0, folded
    from (0, T_k) each: (-Sum_k tau(P_{k-1}, T_k), T_1 ... T_n).  The sum is
    the signature of the form x^T L y on ker(v_1 ... v_n) in Z^n, with
    L_kk = -D/e_k and L_kl = -D <v_k, v_l> for k < l, D = lcm |e_k| (see the
    module docstring): one integer kernel and one signature, no cocycle."""
    vs = [v for v, _ in factors]
    P = surface.sp_identity(len(vs[0]) // 2)
    for v, e in factors:
        P = surface.times_transvection(P, v, e)
    if len(factors) < 2:
        return 0, P
    K = ratlin.kernel_basis_int([list(row) for row in zip(*vs)])
    if not K:
        return 0, P
    D = lcm(*(abs(e) for _, e in factors))
    n = len(vs)
    L = [[0] * n for _ in range(n)]
    for k, (v, e) in enumerate(factors):
        L[k][k] = -D // e
        for l in range(k + 1, n):
            L[k][l] = -D * surface.pairing(v, vs[l])
    LK = [[sum(map(mul, row, y)) for row in L] for y in K]
    return ratlin._signature_int([[sum(map(mul, x, Ly)) for Ly in LK] for x in K]), P


def _run_state(factors):
    """The state of a run of transvection powers ((v_k, e_k), ...), v_k != 0,
    cut into windows of at most 2g consecutive factors (``_window_state``)
    and joined pairwise by the law, as a balanced tree: k windows still cost
    k - 1 joins, but most joins see the products of few windows, not the
    whole accumulated product."""
    w = len(factors[0][0])  # 2g
    states = [_window_state(tuple(factors[k:k + w])) for k in range(0, len(factors), w)]
    while len(states) > 1:
        states = [_combine(*states[k:k + 2]) if k + 1 < len(states) else states[k]
                  for k in range(0, len(states), 2)]
    return states[0]


def _stretch_state(letters: tuple, g: int):
    """The state of a stretch of generator letters (gen, e), each from its
    closed form (sign(e) - e, t_i^e) or (0, iota^e): the chain twists
    folded as one run (``_run_state``), their letter corrections added, and
    the iotas moved to the end, where an odd number of them costs one
    tau(P, -1) and an even number nothing; exact because iota is central."""
    twists = [(surface.chain_class(gen.index, g), e)
              for gen, e in letters if isinstance(gen, ChainTwist)]
    odd = sum(e for gen, e in letters if isinstance(gen, Iota)) % 2
    iotas = (0, surface.iota_matrix(g) if odd else surface.sp_identity(g))
    if not twists:
        return iotas
    c, P = _run_state(twists)
    state = (c + sum((1 if e > 0 else -1) - e for _, e in twists), P)
    return _combine(state, iotas) if odd else state


def _state(w: Word):
    """The state (c(w), matrix of w) of w as written; a nested word shared
    by several items (``reduce_word`` keeps it shared) is folded once."""
    g = w.genus
    one = (0, surface.sp_identity(g))
    states: dict = {}  # id of a word -> its state

    def state(u: Word):
        if id(u) not in states:
            states[id(u)] = evaluate(stretches(u), state, _combine, _invert, one,
                                     lambda letters, _: _stretch_state(letters, g), _power)
        return states[id(u)]

    return state(w)


def correction(w: Word) -> int:
    """phi(w) minus the sum of its generators' base values: the tau
    corrections of folding the word's letter matrices (see the module
    docstring), folded on ``words.reduce_word(w)``; 0 at genus 0."""
    return _state(reduce_word(w))[0] if w.genus else 0


def generator_sum(w: Word) -> Fraction:
    """Sum of the base values of the word's generators, phi(w) minus
    ``correction(w)``; 0 at genus 0."""
    if w.genus == 0:
        return Fraction(0)  # trivial mapping class group
    return homomorphism(w, lambda gen: phi_base(gen, w.genus))


def phi(w: Word) -> Fraction:
    """The cobounding function evaluated on a word; independent of the
    chosen word for a fixed group element."""
    return generator_sum(w) + correction(w)


def sequence_state(factors):
    """The state (c, P) of a sequence of transvection powers
    T_k = t_{v_k}^{e_k}, given as ((v_k, e_k), ...) with v_k != 0, folded
    under the tau-corrected law from (0, T_k) each: the product
    P = T_1 ... T_n and c = -Sum_k tau(P_{k-1}, T_k), with P_k = T_1 ... T_k;
    None for an empty sequence.  By phi(uv) = phi(u) + phi(v) - tau(u, v),
    -c is Sum_k phi(w_k) - phi(w_1 ... w_n) for any words w_k evaluating to
    T_k (Endo, "Meyer's signature cocycle and hyperelliptic fibrations",
    Math. Ann. 316, 2000).

    The sequence is factored into runs (``words.runs``, which compares the
    pairs with ``==``), each run's block is folded by ``_run_state``, in
    windows of 2g factors joined pairwise, and ``words.evaluate`` raises the
    block by ``_power``, which is exact because the law is associative.  So
    a block of m factors repeated k times costs about m/2g + O(log k)
    cocycle evaluations instead of mk - 1, and about m/2g + p + 1 when
    k > 2(4g+2) and the block's product has a period p <= 4g + 2 (see the
    module docstring).
    """
    parts = [(factors[start:start + period], count) for start, period, count in runs(factors)]
    return evaluate(parts, _run_state, _combine, _invert, None, raise_value=_power)
