"""Size limits shared across the package.

Everything here exists to make the library refuse loudly instead of
grinding through factorial-sized work: group-algebra elements grow like
n! and tensor realizations like N^(2n).  There are three caps:

- `ALGEBRA_MAX_N` bounds the degree of every group-algebra element, and
  so of every Young operator and every `verify` run.  It is fixed.
- `DEFAULT_MAX_N` bounds tableau enumeration; `enumerate_syt(max_n=...)`
  and the `--max-n` flag of `tableaux` and `dims` raise it.
- `DEFAULT_SIZE_CAP` bounds N**n for tensor realizations; the
  `size_cap` keyword of `realize` and `permutation_matrix` raises it.
"""
from __future__ import annotations

# Largest n for tableau enumeration unless raised per call.
DEFAULT_MAX_N = 7

# Largest degree of a group-algebra element.  Elements are stored over
# all n! permutations and multiplied through an n! x n! composition
# table: 50 MB of int16 at n = 7, but 6.5 GB of int32 at n = 8.
ALGEBRA_MAX_N = 7

# Largest N**n for tensor realizations (243*16 headroom over N=3, n=5).
DEFAULT_SIZE_CAP = 4096


class SizeLimitError(ValueError):
    """Raised when a requested computation exceeds a configured size cap."""


def check_algebra_size(n: int) -> None:
    """Reject degrees outside 1..ALGEBRA_MAX_N."""
    if not 1 <= n <= ALGEBRA_MAX_N:
        raise SizeLimitError(
            f"A(S_{n}) is outside the supported degrees 1..{ALGEBRA_MAX_N}: "
            f"elements are stored over all n! permutations")


def check_tableau_size(n: int, max_n: int | None = None) -> None:
    """Reject n beyond max_n, or beyond DEFAULT_MAX_N when it is None."""
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if cap < 1:
        raise ValueError(f"max_n must be positive, got {cap}")
    if n > cap:
        raise SizeLimitError(
            f"n={n} exceeds the tableau cap {cap}; "
            "raise it with max_n=... (CLI: --max-n)")
