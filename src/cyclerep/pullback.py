"""Pullback constructions for planar polynomial vector fields.

Given a field X = (P, Q) and a univariate p of degree m, the separable
pullback through (u, v) -> (p(u), p(v)) is

    du/dt = p'(v) P(p(u), p(v)),    dv/dt = p'(u) Q(p(u), p(v)),

which satisfies the conjugacy identity DPhi . Y = lambda . X o Phi with
lambda(u, v) = p'(u) p'(v).  Both the identity and the degree law
deg(Y) = m deg(X) + (m - 1) are checked here as exact polynomial
statements (zero residual), never numerically.  As DPhi = diag(p'(u),
p'(v)), the identity's first component is p'(u) Y_1 = p'(u) p'(v) P o Phi;
Q[u, v] is an integral domain and p' is not zero, so it holds exactly when
Y_1 = p'(v) P o Phi, and the second exactly when Y_2 = p'(u) Q o Phi.
`build_pullback` builds these cancelled forms, which skips the products
with lambda, m**2 terms times those of X o Phi.  It builds each component
in one integer pass, with no intermediate P o Phi: p'(v) is folded into
the sum over the powers of p(v) that meets each power of p(u) (p'(u)
likewise for Q), and the two components share the powers of p.
`verify_conjugacy` still reruns it from X and compares exactly, and
lambda is derived from the cover.  The replication theorem concerns these
separable pullbacks only.

Pullbacks compose, for any covers p and q: pulling X back by p and the
result by q is the one pullback of X by p o q, as the chain rule gives
q'(v) p'(q(v)) = (p o q)'(v).  Its degree is (d + 1) deg(p) deg(q) - 1
for a degree-d field X.  For Chebyshev covers T_a o T_b = T_ab, so
iterated replication is one replication (see `cyclerep.bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .polynomials import (
    BiPoly,
    NEG_INF,
    UniPoly,
    VectorField2,
    _separable_pullback,
    bipoly_to_json,
    field_to_json,
    unipoly_to_json,
)


@dataclass(frozen=True)
class PullbackResult:
    """A separable pullback field together with its construction data.

    `field` is the expanded polynomial Y; `source` and `cover_poly` are
    its factors, Y = (p'(v) P(p(u), p(v)), p'(u) Q(p(u), p(v))) with
    X = (P, Q) = source.
    """

    field: VectorField2
    cover_poly: UniPoly
    source: VectorField2  # the seed field X

    @cached_property
    def lam(self) -> BiPoly:  # p'(u) p'(v), the time-change factor
        dp = self.cover_poly.derivative()
        return BiPoly.from_uni(dp, 0) * BiPoly.from_uni(dp, 1)


def build_pullback(X: VectorField2, p: UniPoly) -> PullbackResult:
    """Separable pullback of X through (u, v) -> (p(u), p(v)).

    Requires deg(p) >= 2 and X nonzero.  The resulting degree is
    deg(Y) = m deg(X) + (m - 1), a constant X included (see
    check_exact_degree).
    """
    m = p.degree()
    if m == NEG_INF or m < 2:
        raise ValueError(f"cover polynomial must have degree >= 2, got degree {m}")
    if X.degree() == NEG_INF:
        raise ValueError("cannot pull back the zero field")
    return PullbackResult(field=_separable_pullback(X, p), cover_poly=p, source=X)


def verify_conjugacy(r: PullbackResult, X: VectorField2) -> bool:
    """Exact check of DPhi . Y = lambda . X o Phi, component by component.

    Reruns `build_pullback` from X and r's cover and compares the fields
    exactly, which checks the identity's components with the nonzero factor
    p'(u) or p'(v) cancelled (see the module docstring).  Each BiPoly has
    one stored form, integer numerators over a reduced denominator, so
    the compare is of int tuples.  A False return means the pullback was
    not built from X.
    """
    return r.field == build_pullback(X, r.cover_poly).field


def check_exact_degree(r: PullbackResult, X: VectorField2) -> bool:
    """True iff deg(Y) == m * deg(X) + (m - 1) exactly, as holds for every
    nonzero X, a constant one included: the top homogeneous part of X's
    degree-d component is nonzero, of degree m d in (p(u), p(v)), and p'
    has degree m - 1.  ValueError for the zero field, which has no degree.
    """
    d = X.degree()
    if d == NEG_INF:
        raise ValueError("cannot check the degree law of the zero field")
    m = r.cover_poly.degree()
    return r.field.degree() == m * d + (m - 1)


def pullback_result_to_json(r: PullbackResult) -> dict:
    return {
        "m": r.cover_poly.degree(),
        "d": r.source.degree(),
        "deg_Y": int(r.field.degree()),
        "cover_poly": unipoly_to_json(r.cover_poly),
        "field": field_to_json(r.field),
        "lambda": bipoly_to_json(r.lam),
    }
