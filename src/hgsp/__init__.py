"""Exact-arithmetic census of symplectic hypergeometric pairs.

The package enumerates qualified pairs of cyclotomic-product polynomials,
builds the companion-matrix generators and the invariant symplectic form,
searches for witness words certifying arithmeticity, and verifies full
certificates, all over the integers and rationals.
"""

__version__ = "0.1.0"

from .certify import CertificateReport, verify_witness
from .cyclotomic import (
    CycloFactorization,
    NotCyclotomicProduct,
    cyclotomic_poly,
    factorization_from_parameters,
    factorization_from_poly,
    parse_parameters,
)
from .hgroup import (
    GeneratorPair,
    InvariantFormError,
    SymplecticForm,
    build_generators,
    invariant_symplectic_form,
    transvection_vector,
)
from .pairs import (
    NotQualifiedError,
    PairClassification,
    QualifiedPair,
    canonical_representative,
    enumerate_qualified_pairs,
    initial_classification,
    make_pair,
)
from .poly import IntPoly
from .report import ReproductionReport, build_report
from .search import SearchConfig, SearchOutcome, gcd_obstruction, search_witness
from .words import Word, WordSyntaxError

__all__ = [
    "CertificateReport",
    "CycloFactorization",
    "GeneratorPair",
    "IntPoly",
    "InvariantFormError",
    "NotCyclotomicProduct",
    "NotQualifiedError",
    "PairClassification",
    "QualifiedPair",
    "ReproductionReport",
    "SearchConfig",
    "SearchOutcome",
    "SymplecticForm",
    "Word",
    "WordSyntaxError",
    "build_generators",
    "build_report",
    "canonical_representative",
    "cyclotomic_poly",
    "enumerate_qualified_pairs",
    "factorization_from_parameters",
    "factorization_from_poly",
    "gcd_obstruction",
    "initial_classification",
    "invariant_symplectic_form",
    "make_pair",
    "parse_parameters",
    "search_witness",
    "transvection_vector",
    "verify_witness",
    "__version__",
]
