"""Derandomization toolkit: small-bias spaces, restriction-based
generators for read-once formulas and combinatorial rectangles, a
width-3 branching-program hitting generator, and the exact-measurement
harness that verifies all of it at enumerable scale."""

from .models import CombRect, Literal, ReadOnceCnf, Robp, Term, XorCnf
from .signs import SignVector
from .smallbias import BiasedSpaceSpec, SubsetSamplerSpec

__version__ = "0.1.0"

__all__ = [
    "BiasedSpaceSpec",
    "CombRect",
    "Literal",
    "ReadOnceCnf",
    "Robp",
    "SignVector",
    "SubsetSamplerSpec",
    "Term",
    "XorCnf",
    "__version__",
]
