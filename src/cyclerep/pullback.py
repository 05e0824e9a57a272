"""Pullback constructions for planar polynomial vector fields.

Given a field X = (P, Q) and a univariate p of degree m, the separable
pullback through (u, v) -> (p(u), p(v)) is

    du/dt = p'(v) P(p(u), p(v)),    dv/dt = p'(u) Q(p(u), p(v)),

which satisfies the conjugacy identity DPhi . Y = lambda . X o Phi with
lambda(u, v) = p'(u) p'(v).  Both the identity and the degree law
deg(Y) = m deg(X) + (m - 1) are checked here as exact polynomial
statements (zero residual), never numerically.

Affine normalization utilities move all cycles of a field into a target
square before pulling back.  A non-separable variant builds
Y = adj(DPhi) X o Phi for a general polynomial map Phi = (p, q); only
the symbolic construction and its identity check are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import (
    BiPoly,
    NEG_INF,
    Scalar,
    UniPoly,
    VectorField2,
    bipoly_to_json,
    compose_pair,
    compose_separable,
    field_to_json,
    unipoly_to_json,
    _as_fraction,
)


@dataclass(frozen=True)
class AffineMap2:
    """Invertible affine map w -> matrix . w + offset with exact entries."""

    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    offset: tuple[Fraction, Fraction]

    def __post_init__(self) -> None:
        m = tuple(tuple(_as_fraction(e) for e in row) for row in self.matrix)
        b = tuple(_as_fraction(e) for e in self.offset)
        if len(m) != 2 or any(len(row) != 2 for row in m) or len(b) != 2:
            raise ValueError("affine map needs a 2x2 matrix and a 2-vector")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)
        if self.determinant() == 0:
            raise ValueError("affine map matrix is singular")

    @classmethod
    def identity(cls) -> "AffineMap2":
        return cls(((1, 0), (0, 1)), (0, 0))

    @classmethod
    def scaling(cls, sx: Scalar, sy: Scalar, offset: tuple[Scalar, Scalar] = (0, 0)) -> "AffineMap2":
        return cls(((sx, 0), (0, sy)), offset)

    def determinant(self) -> Fraction:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    def inverse(self) -> "AffineMap2":
        (a, b), (c, d) = self.matrix
        det = self.determinant()
        inv = ((d / det, -b / det), (-c / det, a / det))
        e, f = self.offset
        return AffineMap2(inv, (-(inv[0][0] * e + inv[0][1] * f), -(inv[1][0] * e + inv[1][1] * f)))

    def apply(self, pt: tuple[Scalar, Scalar]) -> tuple[Fraction, Fraction]:
        x, y = _as_fraction(pt[0]), _as_fraction(pt[1])
        (a, b), (c, d) = self.matrix
        e, f = self.offset
        return (a * x + b * y + e, c * x + d * y + f)

    def is_identity(self) -> bool:
        return self.matrix == ((1, 0), (0, 1)) and self.offset == (0, 0)


def affine_transform(X: VectorField2, A: AffineMap2) -> VectorField2:
    """Field in the new coordinates w, where z = A(w): returns M^-1 X(Mw + b).

    Exact; the degree never increases, and is preserved for invertible A.
    """
    (a, b), (c, d) = A.matrix
    e, f = A.offset
    lin_x = BiPoly({(1, 0): a, (0, 1): b, (0, 0): e})
    lin_y = BiPoly({(1, 0): c, (0, 1): d, (0, 0): f})
    Pa = compose_pair(X.p_comp, lin_x, lin_y)
    Qa = compose_pair(X.q_comp, lin_x, lin_y)
    inv = A.inverse().matrix
    return VectorField2(
        Pa * inv[0][0] + Qa * inv[0][1],
        Pa * inv[1][0] + Qa * inv[1][1],
    )


BBox = tuple[Scalar, Scalar, Scalar, Scalar]  # (xmin, xmax, ymin, ymax)


def normalize_into_box(
    X: VectorField2, bbox: BBox, rho: Scalar = Fraction(1, 2)
) -> tuple[VectorField2, AffineMap2]:
    """Diagonal-plus-translation map g sending bbox into (-rho, rho)^2,
    together with X expressed in the new coordinates.

    If bbox already sits inside [-rho, rho]^2 the identity is returned.
    Otherwise each axis is scaled by rho / (2 * half-extent) about the
    bbox center, so the image is the closed square of half-side rho/2.
    The inverse of g maps results back to the original coordinates.
    """
    rho = _as_fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    xmin, xmax, ymin, ymax = (_as_fraction(c) for c in bbox)
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("bbox must have positive width and height")
    if xmin >= -rho and xmax <= rho and ymin >= -rho and ymax <= rho:
        return X, AffineMap2.identity()
    hx, hy = (xmax - xmin) / 2, (ymax - ymin) / 2
    cx, cy = (xmax + xmin) / 2, (ymax + ymin) / 2
    sx, sy = rho / (2 * hx), rho / (2 * hy)
    g = AffineMap2(((sx, 0), (0, sy)), (-sx * cx, -sy * cy))
    return affine_transform(X, g.inverse()), g


@dataclass(frozen=True)
class PullbackResult:
    """A separable pullback field together with its construction data.

    `field` is the expanded polynomial Y; `source` and `cover_poly` are
    its factors, Y = (p'(v) P(p(u), p(v)), p'(u) Q(p(u), p(v))) with
    X = (P, Q) = source.
    """

    field: VectorField2
    cover_poly: UniPoly
    source_degree: int
    cover_degree: int
    lam: BiPoly  # p'(u) p'(v), the time-change factor
    source: VectorField2  # the seed field X

    def degree(self):
        return self.field.degree()


def build_pullback(X: VectorField2, p: UniPoly) -> PullbackResult:
    """Separable pullback of X through (u, v) -> (p(u), p(v)).

    Requires deg(p) >= 2.  The resulting degree satisfies
    deg(Y) <= m deg(X) + (m - 1), with equality for genuinely
    degree-d fields (see check_exact_degree).
    """
    m = p.degree()
    if m == NEG_INF or m < 2:
        raise ValueError(f"cover polynomial must have degree >= 2, got degree {m}")
    d = X.degree()
    if d == NEG_INF:
        raise ValueError("cannot pull back the zero field")
    dp = p.derivative()
    dpu = BiPoly.from_uni(dp, 0)
    dpv = BiPoly.from_uni(dp, 1)
    P_phi = compose_separable(X.p_comp, p)
    Q_phi = compose_separable(X.q_comp, p)
    return PullbackResult(
        field=VectorField2(dpv * P_phi, dpu * Q_phi),
        cover_poly=p,
        source_degree=int(d),
        cover_degree=int(m),
        lam=dpu * dpv,
        source=X,
    )


def verify_conjugacy(r: PullbackResult, X: VectorField2) -> bool:
    """Exact check of DPhi . Y = lambda . X o Phi, component by component.

    True iff both residuals are the zero polynomial.  A False return
    means the pullback was not built from X (or a construction bug).
    """
    p = r.cover_poly
    dp = p.derivative()
    dpu = BiPoly.from_uni(dp, 0)
    dpv = BiPoly.from_uni(dp, 1)
    res_u = dpu * r.field.p_comp - r.lam * compose_separable(X.p_comp, p)
    res_v = dpv * r.field.q_comp - r.lam * compose_separable(X.q_comp, p)
    return res_u.is_zero and res_v.is_zero


def check_exact_degree(r: PullbackResult, X: VectorField2) -> bool:
    """True iff deg(Y) == m * deg(X) + (m - 1) exactly.

    Holds whenever X is genuinely of its degree, i.e. the top homogeneous
    part of its max-degree component is nonzero, which the degree
    definition guarantees for nonzero fields.
    """
    d = X.degree()
    if d == NEG_INF or d < 1:
        raise ValueError("need deg(X) >= 1")
    return r.field.degree() == r.cover_degree * d + (r.cover_degree - 1)


def build_adjugate_pullback(X: VectorField2, p: BiPoly, q: BiPoly) -> VectorField2:
    """Pullback through a general polynomial map Phi = (p, q):

        Y = adj(DPhi) . X o Phi,

    i.e. du/dt = q_v P(Phi) - p_v Q(Phi), dv/dt = -q_u P(Phi) + p_u Q(Phi).
    Satisfies DPhi . Y = det(DPhi) . X o Phi; on a separable Phi this
    coincides term for term with build_pullback.  Only the symbolic field
    is constructed here; no branch geometry is attempted.
    """
    if p.total_degree() == NEG_INF or p.total_degree() < 1:
        raise ValueError("first coordinate of the covering map must be nonconstant")
    if q.total_degree() == NEG_INF or q.total_degree() < 1:
        raise ValueError("second coordinate of the covering map must be nonconstant")
    P_phi = compose_pair(X.p_comp, p, q)
    Q_phi = compose_pair(X.q_comp, p, q)
    return VectorField2(
        q.partial_v() * P_phi - p.partial_v() * Q_phi,
        -(q.partial_u() * P_phi) + p.partial_u() * Q_phi,
    )


def verify_conjugacy_adjugate(Y: VectorField2, X: VectorField2, p: BiPoly, q: BiPoly) -> bool:
    """Exact check of DPhi . Y = det(DPhi) . X o Phi for Phi = (p, q)."""
    pu, pv = p.partial_u(), p.partial_v()
    qu, qv = q.partial_u(), q.partial_v()
    det = pu * qv - pv * qu
    res_1 = pu * Y.p_comp + pv * Y.q_comp - det * compose_pair(X.p_comp, p, q)
    res_2 = qu * Y.p_comp + qv * Y.q_comp - det * compose_pair(X.q_comp, p, q)
    return res_1.is_zero and res_2.is_zero


def pullback_result_to_json(r: PullbackResult) -> dict:
    return {
        "m": r.cover_degree,
        "d": r.source_degree,
        "deg_Y": int(r.field.degree()),
        "cover_poly": unipoly_to_json(r.cover_poly),
        "field": field_to_json(r.field),
        "lambda": bipoly_to_json(r.lam),
    }
