"""Exact-arithmetic Young projection operators.

Young diagrams and standard tableaux, the group algebra of S_n over the
rationals, conventional Young operators Y_T and their Hermitian
counterparts P_T, trace and partial-trace calculus in the tensor
dimension N, and an exact matrix realization on (C^N)^(x n) for
independent cross-validation.  Everything is computed in exact rational
arithmetic; every identity either holds on the nose or fails loudly.
"""
from .config import TABLEAU_MAX_N, TENSOR_MAX_DIM, SizeLimitError
from .polynomial import Polynomial
from .permutations import (
    Perm,
    all_permutations,
    compose,
    cycle_count,
    cycle_type,
    cycles,
    identity,
    inverse,
    sign,
    transposition,
)
from .tableaux import YoungDiagram, YoungTableau, enumerate_syt, partitions
from .sn_algebra import (
    AlgebraElement,
    antisymmetrizer,
    embed_element,
    hermitian_young,
    inequivalence_check,
    primitivity_check,
    symmetrizer,
    young_operator,
)
from .tensor_rep import (
    TensorOperator,
    decode,
    encode,
    permutation_matrix,
    realize,
)
from .verify import (
    CheckResult,
    SuiteReport,
    VerificationReport,
    orthogonality_report,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "TABLEAU_MAX_N",
    "TENSOR_MAX_DIM",
    "SizeLimitError",
    "Polynomial",
    "Perm",
    "all_permutations",
    "compose",
    "cycle_count",
    "cycle_type",
    "cycles",
    "identity",
    "inverse",
    "sign",
    "transposition",
    "YoungDiagram",
    "YoungTableau",
    "enumerate_syt",
    "partitions",
    "AlgebraElement",
    "antisymmetrizer",
    "embed_element",
    "hermitian_young",
    "inequivalence_check",
    "primitivity_check",
    "symmetrizer",
    "young_operator",
    "TensorOperator",
    "decode",
    "encode",
    "orthogonality_report",
    "permutation_matrix",
    "realize",
    "CheckResult",
    "SuiteReport",
    "VerificationReport",
    "run_verification",
    "__version__",
]
