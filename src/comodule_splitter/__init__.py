"""Exact linear algebra for splitting comodules over pointed coalgebras.

The package takes finite-dimensional coalgebras over a prime field, given by
integer structure constants, and certifies structural facts about them and
their comodules: coassociativity, the socle filtration computed two
independent ways, grouplike detection, primitive decompositions, cotensor
products, and, as the headline act, an explicit comodule isomorphism
M = P_1(M) (x) Sigma built whenever a graded surjectivity hypothesis holds.
Everything is computed over F_p with no floating point anywhere, so every
certificate can be re-verified from scratch bit for bit.
"""

from .coalgebra import (
    Coalgebra,
    Filtration,
    GroupLikeSet,
    check_pointed_exhaustive,
    coradical_filtration_direct,
    coradical_filtration_wedge,
    f1_decomposition,
    find_grouplikes,
    is_grouplike,
    primitives_at,
    validate_coalgebra,
)
from .comodule import (
    Comodule,
    ComoduleAlgebra,
    ComoduleMap,
    LeftComodule,
    check_star_surjective,
    comodule_filtration,
    comodule_primitives_at,
    comodule_primitives_total,
    cotensor,
    validate_comodule,
    validate_comodule_algebra,
)
from .errors import (
    ActionNotInvertible,
    CapExceeded,
    DeclaredNotGrouplike,
    DecompositionFails,
    DimensionMismatch,
    GeneratedObjectInvalid,
    HypothesisNotMet,
    NotAComoduleMap,
    NotASubcoalgebra,
    NotGrouplike,
    ParseError,
    SearchSpaceTooLarge,
    ShapeError,
    SplitterError,
    StructureMismatch,
    UnsupportedLevel,
)
from .field_linalg import FieldMatrix, Subspace
from .generators import (
    ExampleBundle,
    SigmaTruncation,
    gen_binomial_truncation,
    gen_extended_comodule,
    gen_group_algebra,
    gen_non_pointed,
    gen_random_pointed,
    gen_sigma_truncation,
    shipped_corpus,
)
from .reporting import (
    CorpusReport,
    F1DecompositionReport,
    PrimitivesReport,
    StarReport,
    ValidationReport,
)
from .splitting import (
    SplittingCertificate,
    build_h,
    recheck_certificate,
    verify_theorem_on_corpus,
)

__all__ = [
    "ActionNotInvertible",
    "CapExceeded",
    "Coalgebra",
    "Comodule",
    "ComoduleAlgebra",
    "ComoduleMap",
    "CorpusReport",
    "DeclaredNotGrouplike",
    "DecompositionFails",
    "DimensionMismatch",
    "ExampleBundle",
    "F1DecompositionReport",
    "FieldMatrix",
    "Filtration",
    "GeneratedObjectInvalid",
    "GroupLikeSet",
    "HypothesisNotMet",
    "LeftComodule",
    "NotAComoduleMap",
    "NotASubcoalgebra",
    "NotGrouplike",
    "ParseError",
    "PrimitivesReport",
    "SearchSpaceTooLarge",
    "ShapeError",
    "SigmaTruncation",
    "SplitterError",
    "SplittingCertificate",
    "StarReport",
    "StructureMismatch",
    "Subspace",
    "UnsupportedLevel",
    "ValidationReport",
    "build_h",
    "check_pointed_exhaustive",
    "check_star_surjective",
    "comodule_filtration",
    "comodule_primitives_at",
    "comodule_primitives_total",
    "coradical_filtration_direct",
    "coradical_filtration_wedge",
    "cotensor",
    "f1_decomposition",
    "find_grouplikes",
    "gen_binomial_truncation",
    "gen_extended_comodule",
    "gen_group_algebra",
    "gen_non_pointed",
    "gen_random_pointed",
    "gen_sigma_truncation",
    "is_grouplike",
    "primitives_at",
    "recheck_certificate",
    "shipped_corpus",
    "validate_coalgebra",
    "validate_comodule",
    "validate_comodule_algebra",
    "verify_theorem_on_corpus",
]

__version__ = "0.1.0"
