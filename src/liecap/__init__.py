"""liecap: exact exterior squares, Schur multipliers and capability of
finite-dimensional Lie algebras over the rationals."""

from .capability import ClassVerdict, MultiplierReport, catalog, classified_multiplier, classify, decide_capability
from .decompose import AbelianAlgebraError, Decomposition, heisenberg_decompose
from .exterior import (
    ConstructionError,
    ExteriorSquare,
    exterior_center,
    exterior_square,
    exterior_square_dim,
    ideal_in_exterior_center,
    ideal_wedge_image,
    is_capable,
    multiplier_dim,
    quotient_exterior_dim,
)
from .lie import (
    DerivedBasisError,
    InvalidAlgebraError,
    LieAlgebra,
    abelian,
    direct_sum,
    heisenberg,
    scramble,
)
from .linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    kernel_basis,
)
from .multiplier import (
    abelian_multiplier_dim,
    direct_sum_multiplier_dim,
    heisenberg_exterior_square_dim,
    heisenberg_multiplier_dim,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianAlgebraError",
    "ClassVerdict",
    "ConstructionError",
    "Decomposition",
    "DerivedBasisError",
    "ExteriorSquare",
    "InvalidAlgebraError",
    "LieAlgebra",
    "Matrix",
    "MultiplierReport",
    "SpanBuilder",
    "Subspace",
    "abelian",
    "abelian_multiplier_dim",
    "catalog",
    "classified_multiplier",
    "classify",
    "decide_capability",
    "direct_sum",
    "direct_sum_multiplier_dim",
    "exterior_center",
    "exterior_square",
    "exterior_square_dim",
    "heisenberg",
    "heisenberg_decompose",
    "heisenberg_exterior_square_dim",
    "heisenberg_multiplier_dim",
    "ideal_in_exterior_center",
    "ideal_wedge_image",
    "is_capable",
    "kernel_basis",
    "multiplier_dim",
    "quotient_exterior_dim",
    "scramble",
]
