"""Limit-cycle replication via separable Chebyshev pullbacks.

Exact polynomial layer (rationals throughout), branch structure of the
cover, pullback construction with symbolic verification, numerical cycle
location and lifting, and the replication lower-bound tables.
"""

from .polynomials import (
    BiPoly,
    NEG_INF,
    UniPoly,
    VectorField2,
    chebyshev,
    compose_separable,
)
from .branches import (
    BranchInterval,
    BranchSet,
    branch_inverse,
    cheb_branches,
    cheb_nodes,
    cheb_preimage,
    full_branch_intervals,
)
from .pullback import (
    PullbackResult,
    build_pullback,
    check_exact_degree,
    verify_conjugacy,
)
from .dynamics import (
    DynamicsConfig,
    LimitCycleRecord,
    Section,
    find_cycle,
    implicit_lift_curve,
    integrate,
    lift_cycles,
    poincare_return,
    radial_cubic_field,
)
from .bounds import (
    BoundEntry,
    Schedule,
    SeedTable,
    best_cheb_bound,
    builtin_seed_table,
    quadratic_ceiling,
    replication_bound,
    schedule_bound,
)

__version__ = "0.1.0"
