"""The package's public surface: the exact ``__all__``, the fields of the
structure dataclasses, and no tensor-sum routine left in ``src/``.

The literal tensor-sum routines are test oracles (``tests/oracles.py``);
the pipeline reads every filtration layer off ``AdaptedCoaction`` instead.
So is the product tier: no structure carries a multiplication table.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import comodule_splitter

PUBLIC_NAMES = [
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

ORACLE_NAMES = ("StaircaseMembership", "intersect", "tensor")


def test_public_surface_is_pinned():
    """``__all__`` is exactly the pinned list, sorted, and every name in it
    resolves; no module or class of the package defines a tensor-sum
    oracle."""
    assert len(PUBLIC_NAMES) == 58
    assert comodule_splitter.__all__ == sorted(PUBLIC_NAMES)
    for name in comodule_splitter.__all__:
        assert getattr(comodule_splitter, name) is not None, name
    names = [info.name for info in pkgutil.iter_modules(comodule_splitter.__path__)]
    assert {"comodule", "field_linalg", "splitting"} <= set(names)
    modules = [comodule_splitter] + [importlib.import_module(f"comodule_splitter.{n}") for n in names]
    for module in modules:
        classes = [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__.startswith("comodule_splitter")
        ]
        for owner in [module] + classes:
            found = [name for name in ORACLE_NAMES if hasattr(owner, name)]
            assert not found, (owner, found)


FIELD_NAMES = {
    "Coalgebra": ("p", "dim", "labels", "delta", "counit", "declared_grouplikes"),
    "ComoduleAlgebra": ("base", "grouplikes", "action", "unit", "augmentation", "sigma_action"),
    "SigmaTruncation": ("level", "coalgebra", "grouplikes", "monomials", "left_mults"),
}


def test_structure_fields_are_pinned():
    """No structure carries a product table; a Sigma truncation carries
    left multiplication by its grouplikes."""
    for name, fields in FIELD_NAMES.items():
        cls = getattr(comodule_splitter, name)
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields, name
