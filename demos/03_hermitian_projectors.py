"""Hermitian Young projectors: construction and the four key properties.

The Hermitian operator P_T is built recursively: strip the box holding n
from the tableau T, build P for the smaller tableau, embed it back on n
slots, and sandwich the conventional operator Y_T between two copies:

    P_T = P_T' Y_T P_T'      (P = Y for one or two boxes)

Run:  python3 demos/03_hermitian_projectors.py
"""
from fractions import Fraction

from youngops import (
    AlgebraElement,
    Polynomial,
    YoungTableau,
    enumerate_syt,
    hermitian_young,
    young_operator,
)

n = 4
tableaux = enumerate_syt(n)
ops = [hermitian_young(t) for t in tableaux]

# (i) transversality: P_T P_U = delta_TU P_T, in *both* product orders.
for i, pi in enumerate(ops):
    for j, pj in enumerate(ops):
        want = pi if i == j else AlgebraElement.zero(n)
        assert pi * pj == want
print(f"(i)   P_T P_U = delta_TU P_T across all {len(ops)}^2 ordered pairs")

# (ii) traces match the conventional family: f_shape / hook product,
#      times N^n when traced in N-dimensional slots -- here as the exact
#      polynomial tr P_T = dim_poly(N) / |T|.
for t, p in zip(tableaux, ops):
    shape = t.shape
    want = shape.dimension_polynomial() / shape.hook_product()
    assert p.trace_polynomial() == want
    assert young_operator(t).trace_polynomial() == want
print("(ii)  tr P_T = tr Y_T, an exact polynomial in N")

# (iii) completeness: the projectors resolve the identity.
total = AlgebraElement.zero(n)
for p in ops:
    total = total + p
assert total == AlgebraElement.one(n)
print("(iii) sum over all standard tableaux of P_T = identity")

# (iv) Hermiticity: invariance under the coefficient-preserving
#      involution sigma -> sigma^(-1).
for p in ops:
    assert p.involution() == p
print("(iv)  P_T is fixed by the adjoint involution")
print()

# At three boxes something special happens: the two mixed-symmetry
# operators differ between the families, but their *sums* agree.
p1 = hermitian_young(YoungTableau.from_string("12/3"))
p2 = hermitian_young(YoungTableau.from_string("13/2"))
y1 = young_operator(YoungTableau.from_string("12/3"))
y2 = young_operator(YoungTableau.from_string("13/2"))
assert p1 != y1 and p2 != y2 and p1 + p2 == y1 + y2
print("at n=3:  P_12/3 != Y_12/3,  yet  P_12/3 + P_13/2 = Y_12/3 + Y_13/2")
print()

# Tracing out the last slot reproduces the parent operator, scaled by
# (N + p - q) |T'| / |T| where the removed box sat in row q, column p.
# The partial trace returns the pair (A, B) with tr' P_T = N A + B, so
# the recursion reads A = r P_T' and B = (p - q) r P_T', r = |T'| / |T|.
t = YoungTableau.from_string("123/45")
parent, p_, q_ = t.parent()
r = Fraction(parent.shape.hook_product(), t.shape.hook_product())
looped, spliced = hermitian_young(t).partial_trace()
assert looped == hermitian_young(parent).scale(r)
assert spliced == hermitian_young(parent).scale((p_ - q_) * r)
factor = Polynomial([p_ - q_, 1]) * r
print(f"partial trace: tr' P_123/45 = ({factor}) P_123/4")
