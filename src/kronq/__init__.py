"""Exact submodule counts for Kronecker quiver representations.

The number of submodules with a fixed dimension vector of a module over the
Kronecker algebra over F_q is a polynomial in q; this package computes those
polynomials exactly for arbitrary modules given by their decomposition into
indecomposables, and can verify any of them against brute-force enumeration
over small prime fields.
"""

from .closed_form import (
    count_preinjective,
    count_preprojective,
    count_regular_deg1,
    euler_char_formula,
)
from .engine import CountingEngine, count
from .hall import hall_polynomial, hall_vanishes, regular_diagonal_count, subpartitions
from .laurent import ONE, Q, ZERO, LaurentPoly, PolyParseError, parse_poly
from .model import (
    DimVector,
    KroneckerDescriptor,
    ModuleParseError,
    Summand,
    ext_dim,
    euler_form,
    hom_dim,
    parse_module,
    preinjective,
    preprojective,
    regular,
)
from .oracle import (
    MatrixRep,
    PointCapacityError,
    build_rep,
    count_submodules,
    count_submodules_naive,
    hom_dim_numeric,
    submodule_table,
)
from .qbinom import gauss, gauss_int

__version__ = "0.1.0"
