"""Size limits shared across the package.

Everything here exists to make the library refuse loudly instead of
grinding through factorial-sized work: group-algebra scans grow like n!
and tensor realizations like N^(2n).
"""
from __future__ import annotations

import os

# Largest n for tableau enumeration and operator construction unless
# overridden per call or via the environment.
DEFAULT_MAX_N = 7

# Environment override for DEFAULT_MAX_N (used by the CLI as well).
MAX_N_ENV = "HY_MAX_N"

# Largest n for the exhaustive n!-permutation scans
# (primitivity / inequivalence checks).
DEFAULT_SCAN_MAX_N = 5

# Largest degree of a group-algebra element.  Elements are stored over
# all n! permutations and multiplied through an n! x n! composition
# table: 50 MB of int16 at n = 7, but 6.5 GB of int32 at n = 8.
ALGEBRA_MAX_N = 7

# Largest N**n for tensor realizations (243*16 headroom over N=3, n=5).
DEFAULT_SIZE_CAP = 4096


class SizeLimitError(ValueError):
    """Raised when a requested computation exceeds a configured size cap."""


def max_tableau_size(override: int | None = None) -> int:
    """Effective n-cap: explicit override, else HY_MAX_N, else the default."""
    if override is not None:
        if override < 1:
            raise ValueError(f"max_n must be positive, got {override}")
        return override
    env = os.environ.get(MAX_N_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{MAX_N_ENV} must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"{MAX_N_ENV} must be positive, got {value}")
        return value
    return DEFAULT_MAX_N


def check_tableau_size(n: int, max_n: int | None = None) -> None:
    """Reject n beyond the effective cap."""
    cap = max_tableau_size(max_n)
    if n > cap:
        raise SizeLimitError(
            f"n={n} exceeds the configured maximum {cap}; "
            f"raise it explicitly (max_n=... or {MAX_N_ENV}) if you mean it"
        )
