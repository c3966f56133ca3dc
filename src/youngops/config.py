"""Size limits shared across the package.

Everything here exists to make the library refuse loudly instead of
grinding through factorial-sized work: group-algebra elements grow like
n! and tensor realizations like N^(2n).  There are three fixed caps,
each applied by the one structure it guards, after the integer rule
(`exact._integer`) has read its degree or dimension:

- `ALGEBRA_MAX_N` bounds the degree of every group-algebra element, and
  so of every Young operator and every `verify` run: the S_n table
  (`sn_algebra.sn_table`) refuses to build past it.
- `TABLEAU_MAX_N` bounds tableau enumeration: `enumerate_syt` refuses
  past it before it grows anything.
- `TENSOR_MAX_DIM` bounds N**n, the dimension of (C^N)^(x n): the basis
  table (`tensor_rep.basis_table`), which every tensor entry point
  reaches first, refuses past it before it allocates anything.
"""
from __future__ import annotations

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
