"""The Meyer signature cocycle and its cobounding function.

tau(A, B) is the signature of an explicit rational bilinear form attached
to two symplectic matrices; phi coboundss it on the hyperelliptic mapping
class group and is the engine behind the signature formulas.
"""

import random
from fractions import Fraction as F

from blfsig import meyer, surface
from blfsig.verify import random_symplectic, random_word
from blfsig.words import ChainTwist, chain_word, gen_word

rng = random.Random(0)

# %% the cocycle: normalisation and the cocycle identity
g = 2
T = surface.word_to_matrix(gen_word(g, ChainTwist(5)))
I = surface.sp_identity(g)
print("tau(1, T) =", meyer.tau(I, T), "  tau(T, T) =", meyer.tau(T, T))
a, b, c = (random_symplectic(rng, g) for _ in range(3))
print("cocycle identity:",
      meyer.tau(a, b) + meyer.tau(surface.mat_mul(a, b), c)
      == meyer.tau(b, c) + meyer.tau(a, surface.mat_mul(b, c)))

# %% base values of the cobounding function; the separating twist is the
# chain word (t_1 t_2)^6, so its value follows from the chain twist's
for g in (1, 2, 3):
    print(f"g={g}: phi(chain) = {meyer.phi_base(ChainTwist(1), g)},  "
          f"phi(sep h=1) = {meyer.phi(chain_word(g, [1, 2], 6))}")

# %% phi is a class function: conjugates of a twist keep its value
g = 2
u = random_word(rng, g, 5)
w = u * gen_word(g, ChainTwist(5)) * u.inverse()
print("\nphi(conjugated twist) =", meyer.phi(w), "= (g+1)/(2g+1) =", F(3, 5))

# %% the separating value emerges from the chain relation
# (t_1 ... t_{2h})^{4h+2} is the twist along the standard separating curve,
# and phi of it is Endo's -4h(g-h)/(2g+1)
for g, h in [(2, 1), (3, 1), (3, 2)]:
    w = chain_word(g, range(1, 2 * h + 1), 4 * h + 2)
    print(f"g={g}, h={h}: phi of the boundary word = {meyer.phi(w)} "
          f"(base value {F(-4 * h * (g - h), 2 * g + 1)})")

# %% antisymmetry and the denominator bound
w = random_word(rng, 2, 8)
print("\nphi(w) =", meyer.phi(w), " phi(w^-1) =", meyer.phi(w.inverse()))
print("(2g+1) phi(w) is an integer:", (5 * meyer.phi(w)).denominator == 1)
