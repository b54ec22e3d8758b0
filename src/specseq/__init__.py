"""Exact spectral sequences of bounded filtered chain complexes."""

from .errors import (
    AmbientMismatch,
    ComparisonFailure,
    DivisionByZero,
    MixedFields,
    NotAComplex,
    NotASubcomplex,
    NotASubspace,
    NotFiniteDimensional,
    NotNested,
    NotWellDefined,
    ParseError,
    SpecseqError,
)
from .fields import QQ, PrimeField, Rationals, parse_field_token
from .linalg import (
    Matrix,
    QuotientPresentation,
    Subspace,
    apply_to_subspace,
    image,
    induced_map,
    intersect,
    kernel,
    preimage,
    quotient,
    rank,
    subspace_sum,
)
from .complexes import (
    ChainComplex,
    ChainMap,
    hom_complex,
    homology,
    homology_rank,
    parse_complex,
    render_complex,
    shift,
    tensor,
)
from .simplicial import (
    SimplicialComplex,
    inclusion_map,
    parse_simplicial,
    reduced_chain_complex,
    render_simplicial,
)
from .filtration import (
    FilteredComplex,
    from_basis_levels,
    from_chain_maps,
    from_simplicial,
    hom_filtration,
    parse_filtered,
    render_filtered,
    tensor_filtration,
    truncation_filtration,
)
from .spectral import LimitReport, Page, PageMap, SpectralSequence
from .graded import (
    GradedAlgebra,
    GradedComplex,
    GradedFreeModule,
    GradedModuleMap,
    build_quotient_algebra,
    class_degrees,
    degree_breakdown,
    expand,
    factor_filtration,
    image_degree_breakdown,
    internal_degrees,
    koszul_complex,
    minimal_free_resolution,
    parse_poly,
    render_poly,
    tensor_complex,
)
from .randomized import random_chain_complex, random_filtered_complex

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
