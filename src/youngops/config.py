"""Size limits shared across the package.

Everything here exists to make the library refuse loudly instead of
grinding through factorial-sized work: group-algebra elements grow like
n! and tensor realizations like N^(2n).  There are three caps:

- `ALGEBRA_MAX_N` bounds the degree of every group-algebra element, and
  so of every Young operator and every `verify` run.  It is fixed.
- `TABLEAU_MAX_N` bounds tableau enumeration.  It is fixed, and
  `enumerate_syt` meets it in `check_tableau_size` before it grows
  anything.
- `TENSOR_MAX_DIM` bounds N**n, the dimension of (C^N)^(x n).  It is
  fixed, and every tensor entry point meets it in `check_tensor_size`
  before it allocates anything.

Each gate reads its degree and dimension by the integer rule
(`exact._integer`) first, so a non-integer raises TypeError here.
"""
from __future__ import annotations

from .exact import _integer

# Largest n for tableau enumeration: 9,496 standard tableaux at n = 10,
# the dimension table CI pins, against 35,696 at n = 11.
TABLEAU_MAX_N = 10

# Largest degree of a group-algebra element.  Elements are stored over
# all n! permutations and multiplied through an n! x n! composition
# table: 50 MB of int16 at n = 7, but 6.5 GB of int32 at n = 8.
ALGEBRA_MAX_N = 7

# Largest N**n for tensor operators (243*16 headroom over N=3, n=5).
TENSOR_MAX_DIM = 4096


class SizeLimitError(ValueError):
    """Raised when a requested computation exceeds a configured size cap."""


def check_algebra_size(n: int) -> None:
    """Reject non-integers and degrees outside 1..ALGEBRA_MAX_N."""
    if not 1 <= _integer(n) <= ALGEBRA_MAX_N:
        raise SizeLimitError(
            f"A(S_{n}) is outside the supported degrees 1..{ALGEBRA_MAX_N}: "
            f"elements are stored over all n! permutations")


def check_tableau_size(n: int) -> None:
    """Reject non-integers and n outside 1..TABLEAU_MAX_N."""
    if not 1 <= _integer(n) <= TABLEAU_MAX_N:
        raise SizeLimitError(
            f"n={n} is outside the supported tableau sizes "
            f"1..{TABLEAU_MAX_N}")


def check_tensor_size(n: int, N: int) -> int:
    """N**n, the dimension of (C^N)^(x n); reject non-integers, n < 0,
    N < 1 and N**n beyond TENSOR_MAX_DIM."""
    n, N = _integer(n), _integer(N)
    if n < 0 or N < 1:
        raise ValueError(f"need n >= 0 and N >= 1, got n={n}, N={N}")
    dim = N ** n
    if dim > TENSOR_MAX_DIM:
        raise SizeLimitError(
            f"N^n = {N}^{n} = {dim} exceeds the tensor cap "
            f"{TENSOR_MAX_DIM}: operators are N^n x N^n matrices")
    return dim
