"""Realizing the operators as exact matrices on n slots of dimension N.

Each permutation sigma acts on the tensor power (C^N)^(x n) by moving the
content of slot k to slot sigma(k); extending linearly realizes any group
algebra element as an N^n by N^n matrix with exact rational entries.

Run:  python3 demos/04_tensor_realization.py
"""
from fractions import Fraction

from youngops import (
    TensorOperator,
    enumerate_syt,
    hermitian_young,
    orthogonality_report,
    realize,
)

N, n = 3, 4
tableaux = enumerate_syt(n)
names = [t.to_string() for t in tableaux]
mats = [realize(hermitian_young(t), N) for t in tableaux]
print(f"realized {len(mats)} projectors as {N**n} x {N**n} exact matrices")
print()

# One orthogonality report covers symmetry of each matrix, all pairwise
# products, and the resolution of the identity.  It is a list of the
# CheckResult records that `youngops verify` prints (an API change: it
# used to be a report type of its own); a failing check's witness names
# the first wrong entry.
report = orthogonality_report(mats, names)
for check in report:
    status = "ok" if check.passed else "FAIL"
    print(f"  [{status}] {check.check_id}")
assert all(check.passed for check in report)
print()

# Trace and rank agree, and both equal the predicted dimension.
print(f"{'tableau':<8} {'trace':>6} {'rank':>5} {'predicted':>10}")
for t, m in zip(tableaux, mats):
    shape = t.shape
    predicted = Fraction(shape.dimension_polynomial()(N), shape.hook_product())
    assert m.trace() == predicted and m.rank() == predicted
    print(f"{t.to_string():<8} {str(m.trace()):>6} {m.rank():>5} "
          f"{str(predicted):>10}")
print()

# A column taller than N kills the projector outright.
tall = [t for t in enumerate_syt(4) if t.shape.row_count > N]
for t in tall:
    assert realize(hermitian_young(t), N).is_zero()
    print(f"{t.to_string()} has {t.shape.row_count} rows > N={N}: "
          f"its realization is the zero matrix")
print()

# The matrix partial trace commutes with the realization: tracing the
# last slot of the matrix equals realizing the algebraic partial trace.
t = tableaux[1]
p = hermitian_young(t)
lhs = realize(p, N).partial_trace()
looped, spliced = p.partial_trace()  # tr' P_T = N A + B
rhs = realize(looped.scale(N) + spliced, N)
assert lhs == rhs
print(f"matrix partial trace of P_{t.to_string()} at N={N} matches the "
      f"algebraic one: {N**(n-1)} x {N**(n-1)}, trace {lhs.trace()}")
