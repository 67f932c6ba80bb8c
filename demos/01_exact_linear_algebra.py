"""Exact linear algebra: signatures, Smith normal forms, kernels.

Everything runs over Python ints and fractions.Fraction: a matrix is
any sequence of rows going in and a tuple of row tuples coming out, so
all outputs below are exact.  The integer kernels are the ones the Meyer
cocycle calls: ``column_reduce`` and ``kernel_basis_int`` take integer
rows as they are and return lists.
"""

from fractions import Fraction as F

from blfsig import ratlin


def product(X, Y):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*Y)) for row in X)


def det2(X):
    return X[0][0] * X[1][1] - X[0][1] * X[1][0]


# %% signatures of symmetric forms by congruence diagonalisation
print("signature [[2]]              =", ratlin.signature_of_symmetric([[2]]))
print("signature diag(1, -3)        =", ratlin.signature_of_symmetric([[1, 0], [0, -3]]))
print("signature hyperbolic [[0,1],[1,0]] =",
      ratlin.signature_of_symmetric([[0, 1], [1, 0]]))

M = [[F(1, 2), F(2, 3), 1],
     [F(2, 3), 0, F(-1, 5)],
     [1, F(-1, 5), -2]]
print("signature of a rational form =", ratlin.signature_of_symmetric(M))

# %% Smith normal form with its unimodular transforms
A = [[4, 0], [0, 6]]
U, D, V = ratlin.smith_normal_form(A)
print("\nSNF of diag(4, 6):")
print("  D =", D)
print("  U A V == D:", product(product(U, A), V) == D)
print("  det U, det V:", det2(U), det2(V), "(unimodular: +-1)")

# the quotient Z^2 / <(12, -12)> = Z + Z/12, read off the diagonal
U, D, V = ratlin.smith_normal_form([[12], [-12]])
print("SNF of the column (12, -12)^T:", D)

# %% kernels of integer matrices, as lattice bases
print("\nkernel of [1 1]:", ratlin.kernel_basis_int([[1, 1]]))
print("kernel of the identity:", ratlin.kernel_basis_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
K = [[1, 2, 3, 4], [2, 4, 6, 8]]
image, preimages, basis = ratlin.column_reduce(K)
print("a 2x4 matrix of rank", len(image), "has a kernel of dimension", len(basis))
for v in basis:
    assert product(K, [[x] for x in v]) == ((0,), (0,))
print("all kernel vectors annihilated exactly")
