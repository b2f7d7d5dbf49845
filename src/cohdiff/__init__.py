"""A first-order coherent differential calculus, checked exactly.

The package has three layers: a typed term language with a syntactic
differential and a multiset reduction (syntax, parser, rewrite); an abstract
contract for cartesian coherent differential categories with a law-checking
harness (ccdc); and two exact-rational backends, finite probabilistic
coherence spaces (pcs) and total-sum polynomial maps (poly), interpreted
through a shared semantics module.
"""

from .ccdc import Instance, LawConfig, LawReport, check_axioms
from .objects import Ground, Prod, DPair, d_space, product, web
from .parser import ParseError, parse_program
from .pcs import PcsInstance, membership
from .poly import PolyInstance
from .polymap import PolyMap, is_multilinear
from .rewrite import (
    FuelExhausted,
    ReductionTrace,
    TermMultiset,
    normalize,
)
from .semantics import (
    Model,
    check_diff_theorem,
    check_invariance,
    interp_ctx,
    interp_multiset,
    interp_term,
    interp_type,
)
from .syntax import (
    App,
    Context,
    DInj,
    DProj,
    FunctionType,
    GroundType,
    Pair,
    ProdProj,
    ProductType,
    Signature,
    Term,
    Theta,
    Type,
    TypeCheckError,
    UserFn,
    Var,
    d_type,
    differentiate,
    term_str,
    type_str,
    typecheck,
)

__version__ = "0.1.0"

__all__ = [
    "App",
    "Context",
    "DInj",
    "DPair",
    "DProj",
    "FuelExhausted",
    "FunctionType",
    "Ground",
    "GroundType",
    "Instance",
    "LawConfig",
    "LawReport",
    "Model",
    "Pair",
    "ParseError",
    "PcsInstance",
    "PolyInstance",
    "PolyMap",
    "Prod",
    "ProdProj",
    "ProductType",
    "ReductionTrace",
    "Signature",
    "Term",
    "TermMultiset",
    "Theta",
    "Type",
    "TypeCheckError",
    "UserFn",
    "Var",
    "check_axioms",
    "check_diff_theorem",
    "check_invariance",
    "d_space",
    "d_type",
    "differentiate",
    "interp_ctx",
    "interp_multiset",
    "interp_term",
    "interp_type",
    "is_multilinear",
    "membership",
    "normalize",
    "parse_program",
    "product",
    "term_str",
    "type_str",
    "typecheck",
    "web",
]
