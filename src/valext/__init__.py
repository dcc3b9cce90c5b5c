"""Exact computation of every extension of a p-adic valuation to a number
field L = Q[x]/(f), together with executable forms of weak approximation,
the approximation lemma, and the fundamental inequality.
"""

from .errors import (
    GammaNotInValueGroup,
    NegativeValue,
    NotIrreducible,
    ValExtError,
    ZeroElement,
)
from .events import recording
from .extensions import (
    ExtensionValuation,
    Position,
    PositionKind,
    decide_position,
    extensions_of,
    residue,
    value,
    value_by_count,
)
from .fpalgebra import (
    Component,
    Decomposition,
    FpAlgebra,
    nilradical,
    quotient_mod_p,
    split_reduced,
)
from .numberfield import NFElem, NumberField
from .orders import (
    Order,
    discriminant,
    equation_order,
    p_maximal_order,
    p_radical,
    ring_of_multipliers,
)
from .padic import is_prime
from .theorems import (
    CheckReport,
    EfBasis,
    approx_element,
    build_ef_basis,
    check_fundamental,
    weak_approx,
)
from .values import INFINITY

__all__ = [
    "CheckReport",
    "Component",
    "Decomposition",
    "EfBasis",
    "ExtensionValuation",
    "FpAlgebra",
    "GammaNotInValueGroup",
    "INFINITY",
    "NFElem",
    "NegativeValue",
    "NotIrreducible",
    "NumberField",
    "Order",
    "Position",
    "PositionKind",
    "ValExtError",
    "ZeroElement",
    "approx_element",
    "build_ef_basis",
    "check_fundamental",
    "decide_position",
    "discriminant",
    "equation_order",
    "extensions_of",
    "is_prime",
    "nilradical",
    "p_maximal_order",
    "p_radical",
    "quotient_mod_p",
    "recording",
    "residue",
    "ring_of_multipliers",
    "split_reduced",
    "value",
    "value_by_count",
    "weak_approx",
]

__version__ = "0.1.0"
