"""Exact-arithmetic toolkit for pseudo MV-algebras and their square roots.

Finite lookup-table algebras, group-interval algebras over computable
lattice-ordered groups, square-root verification and closed forms, the
Boolean × strict decomposition, ideals and quotients, and two numeric
algebras whose weak square roots fail to be square roots.
"""

__version__ = "0.1.0"

from .core import (
    UNDEFINED,
    AlgebraError,
    AxiomReport,
    BackendMismatch,
    CheckResult,
    IntervalPMV,
    ProductPMV,
    PseudoMV,
    SamplerConfig,
    UnsupportedBackend,
)
from .finite import (
    CatalogueSpec,
    FinitePMV,
    FiniteTable,
    boolean,
    brute_force_weak_sqrt,
    build_catalogue,
    chain,
    interval,
    product,
    search_square_rootable,
    tabulate,
)
from .lgroups import (
    DyadicGroup,
    ExpSemidirect,
    GammaPMV,
    HeisenbergGroup,
    IntegerGroup,
    LexProduct,
    DirectProductGroup,
    PowerDenominatorGroup,
    RationalGroup,
    ScalingSemidirect,
    gamma,
)
from .counterexamples import (
    exp_action_algebra,
    exp_action_verdicts,
    scaling_action_algebra,
    scaling_action_verdicts,
)
from .roots import (
    SquareRootMap,
    SquareRootReport,
    boolean_witness,
    closed_form,
    decompose,
    detect_square_root,
    dyadic_ladder,
    identity_map,
    induced_interval_algebra,
    iterate,
    power_check,
    product_map,
    square_root_properties,
    table_map,
    variety_identities,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
