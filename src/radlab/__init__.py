"""Solvable-radical membership criteria for finite permutation groups.

The package decides whether an element x of a finite group G lies in the
solvable radical R(G) by testing solvability of two-generated subgroups
<x, y> for restricted families of y (all elements; p-elements for odd
primes; 2-elements against odd-order primary parts), cross-checks every
criterion against an independent derived-series oracle, and re-verifies the
recorded witness claims for a catalog of small almost-simple groups.
"""

from .arith import Factorization, factorize, is_prime, p_part, primitive_prime_divisor
from .catalog import (
    CORPUS,
    CVL_LISTS,
    build_named,
    cvl_realization,
    load_group_file,
    save_group_file,
)
from .criteria import (
    MembershipVerdict,
    Witness,
    find_witness,
    member_b1,
    member_combined,
    member_oddp,
    member_two_element,
    witness_is_valid,
)
from .errors import (
    CapExceededError,
    CycleParseError,
    DegreeMismatchError,
    GroupFileError,
    MembershipError,
    OrderMismatchError,
    PreconditionError,
    RadlabError,
    UnfactorableError,
)
from .gf import GF, FiniteField
from .group import ConjugacyClass, PermutationGroup, group_from_cycles
from .perm import Perm, format_cycles, parse_cycles
from .structure import (
    DerivedSeries,
    PrimaryDecomposition,
    TwoPartSplit,
    derived_series,
    derived_subgroup,
    p_elements,
    primary_decomposition,
    solvability,
    solvable_radical,
    two_part_split,
)
from .verify import (
    VerificationReport,
    generating_triple,
    verify_corpus,
    verify_cvl,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "CORPUS",
    "CVL_LISTS",
    "CapExceededError",
    "ConjugacyClass",
    "CycleParseError",
    "DegreeMismatchError",
    "DerivedSeries",
    "Factorization",
    "FiniteField",
    "GF",
    "GroupFileError",
    "MembershipError",
    "MembershipVerdict",
    "OrderMismatchError",
    "Perm",
    "PermutationGroup",
    "PreconditionError",
    "PrimaryDecomposition",
    "RadlabError",
    "TwoPartSplit",
    "UnfactorableError",
    "VerificationReport",
    "Witness",
    "build_named",
    "cvl_realization",
    "derived_series",
    "derived_subgroup",
    "factorize",
    "find_witness",
    "format_cycles",
    "generating_triple",
    "group_from_cycles",
    "is_prime",
    "load_group_file",
    "member_b1",
    "member_combined",
    "member_oddp",
    "member_two_element",
    "p_elements",
    "p_part",
    "parse_cycles",
    "primary_decomposition",
    "primitive_prime_divisor",
    "save_group_file",
    "solvability",
    "solvable_radical",
    "two_part_split",
    "verify_corpus",
    "verify_cvl",
    "verify_equivalence",
    "witness_is_valid",
]
