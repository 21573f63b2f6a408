"""Structure of subset sums of lattice point sets: oracles, thin cone
generators, dyadic-grid geometry, and GAP/dense-rectangle constructions."""

from .core import (
    Box,
    DensityError,
    DepthError,
    DomainError,
    GeneratorSet,
    Point,
    Representation,
    ResourceLimitError,
    ValidationError,
    validate_representation,
)
from .oracle import fs_enumerate, fs_membership, trm

__all__ = [
    "Box",
    "DensityError",
    "DepthError",
    "DomainError",
    "GeneratorSet",
    "Point",
    "Representation",
    "ResourceLimitError",
    "ValidationError",
    "fs_enumerate",
    "fs_membership",
    "trm",
    "validate_representation",
]

__version__ = "0.1.0"
