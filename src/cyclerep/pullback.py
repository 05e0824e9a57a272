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
`verify_conjugacy` checks these cancelled forms, which skips the products
with lambda, m**2 terms times those of X o Phi.  The replication
theorem concerns these separable pullbacks only, so no other covering
map is built here.

Pullbacks compose, for any covers p and q: pulling X back by p and the
result by q is the one pullback of X by p o q, as the chain rule gives
q'(v) p'(q(v)) = (p o q)'(v).  Its degree is (d + 1) deg(p) deg(q) - 1
for a degree-d field X.  For Chebyshev covers T_a o T_b = T_ab, so
iterated replication is one replication (see `cyclerep.bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import (
    BiPoly,
    NEG_INF,
    UniPoly,
    VectorField2,
    bipoly_to_json,
    compose_separable,
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
    lam: BiPoly  # p'(u) p'(v), the time-change factor
    source: VectorField2  # the seed field X


def build_pullback(X: VectorField2, p: UniPoly) -> PullbackResult:
    """Separable pullback of X through (u, v) -> (p(u), p(v)).

    Requires deg(p) >= 2.  The resulting degree satisfies
    deg(Y) <= m deg(X) + (m - 1), with equality for genuinely
    degree-d fields (see check_exact_degree).
    """
    m = p.degree()
    if m == NEG_INF or m < 2:
        raise ValueError(f"cover polynomial must have degree >= 2, got degree {m}")
    if X.degree() == NEG_INF:
        raise ValueError("cannot pull back the zero field")
    dpu = BiPoly.from_uni(p.derivative(), 0)
    dpv = BiPoly.from_uni(p.derivative(), 1)
    P_phi = compose_separable(X.p_comp, p)
    Q_phi = compose_separable(X.q_comp, p)
    return PullbackResult(
        field=VectorField2(dpv * P_phi, dpu * Q_phi),
        cover_poly=p,
        lam=dpu * dpv,
        source=X,
    )


def verify_conjugacy(r: PullbackResult, X: VectorField2) -> bool:
    """Exact check of DPhi . Y = lambda . X o Phi, component by component.

    True iff r.lam == p'(u) p'(v), r.field.p_comp == p'(v) P o Phi and
    r.field.q_comp == p'(u) Q o Phi, with X o Phi recomputed from X: the
    identity's components p'(u) Y_1 = lambda P o Phi and p'(v) Y_2 =
    lambda Q o Phi with the nonzero factor p'(u) or p'(v) cancelled, which
    the integral domain Q[u, v] allows.  A False return means the pullback
    was not built from X (or a construction bug).
    """
    p = r.cover_poly
    dpu = BiPoly.from_uni(p.derivative(), 0)
    dpv = BiPoly.from_uni(p.derivative(), 1)
    return (
        r.lam == dpu * dpv
        and r.field.p_comp == dpv * compose_separable(X.p_comp, p)
        and r.field.q_comp == dpu * compose_separable(X.q_comp, p)
    )


def check_exact_degree(r: PullbackResult, X: VectorField2) -> bool:
    """True iff deg(Y) == m * deg(X) + (m - 1) exactly.

    Holds whenever X is genuinely of its degree, i.e. the top homogeneous
    part of its max-degree component is nonzero, which the degree
    definition guarantees for nonzero fields.
    """
    d = X.degree()
    if d == NEG_INF or d < 1:
        raise ValueError("need deg(X) >= 1")
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
