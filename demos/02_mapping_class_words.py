"""Mapping-class words and their symplectic representation.

Words in the chain twists t_1 .. t_{2g+1} and the involution iota act on
first homology; the standard relations all hold exactly at the matrix
level.
"""

from blfsig import surface
from blfsig.words import ChainTwist, IOTA, chain_word, gen_word, parse_word

g = 2

# %% chain curve homology classes and the intersection pattern
for i in range(1, 2 * g + 2):
    print(f"[c_{i}] =", surface.chain_class(i, g))
print("consecutive classes pair to +-1, others to 0:")
print([[surface.pairing(surface.chain_class(i, g), surface.chain_class(j, g))
        for j in range(1, 2 * g + 2)] for i in range(1, 2 * g + 2)])

# %% twists are transvections; iota is -identity
T1 = surface.transvection(surface.chain_class(1, g))
print("\ntwist along [c_1]:\n", T1)
print("symplectic:", len(T1) == 2 * g and surface.is_symplectic(T1))

# %% words: parse, multiply, invert, evaluate
w = parse_word("(t4 t3 t2 t1^2 t2 t3 t4)^2", g)
print("\nHurwitz word:", w)
print("letters:", sum(1 for _ in w.letters()))
M = surface.word_to_matrix(w)
print("its matrix equals that of t5^-4:",
      M == surface.word_to_matrix(parse_word("t5^-4", g)))

# %% the chain relation (t_1 ... t_{2g-1})^{2g} = t_{2g+1}^2, exactly
lhs = chain_word(g, range(1, 2 * g), 2 * g)
rhs = gen_word(g, ChainTwist(2 * g + 1), 2)
print("\nchain relation on matrices:",
      surface.word_to_matrix(lhs) == surface.word_to_matrix(rhs))

# %% the involution is central and squares to the identity
iota = surface.word_to_matrix(gen_word(g, IOTA))
minus_one = tuple(tuple(-int(i == j) for j in range(2 * g)) for i in range(2 * g))
print("iota acts as -identity:", iota == minus_one)
