"""Exact scalar rings with involutions.

Rationals (``fractions.Fraction``), complex-over-rational, split-complex
and dual numbers, plus the indefinite para-geometry of the split-complex
plane: polar branches, the signed seminorm, the reversed triangle
inequality, and the minimizer non-uniqueness witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import PreconditionViolated

Rational = Fraction
RationalLike = Union[int, Fraction]


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class _Pair:
    """Common machinery for two-component scalar extensions of Q."""

    __slots__ = ("re", "im")
    # subclass sets: _unit_sq = j*j as a Fraction
    _unit_sq: Fraction
    _symbol: str

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("immutable scalar")

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        f = _as_fraction(other)
        if f is not None:
            return type(self)(f, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return type(self)(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(
            self.re * o.re + self._unit_sq * self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = type(self)(1, 0)
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, other):
        f = _as_fraction(other)
        if f is not None:
            return type(self)(self.re / f, self.im / f)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.re == other.re and self.im == other.im
        f = _as_fraction(other)
        if f is not None:
            return self.im == 0 and self.re == f
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((type(self).__name__, self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conj(self):
        return type(self)(self.re, -self.im)

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}{self._symbol})"


class SplitComplex(_Pair):
    """re + j*im with j*j = +1."""

    _unit_sq = Fraction(1)
    _symbol = "j"


class DualNumber(_Pair):
    """re + eps*im with eps*eps = 0."""

    _unit_sq = Fraction(0)
    _symbol = "eps"

    @property
    def eps(self):
        return self.im


class ComplexRational(_Pair):
    """re + i*im with i*i = -1."""

    _unit_sq = Fraction(-1)
    _symbol = "i"

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im


J_SPLIT = SplitComplex(0, 1)
EPS_DUAL = DualNumber(0, 1)
I_COMPLEX = ComplexRational(0, 1)


def para_square(z: SplitComplex) -> Fraction:
    """Signed square z* z = re^2 - im^2 (exact)."""
    return z.re * z.re - z.im * z.im


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def para_seminorm(z: SplitComplex) -> float:
    """Indefinite seminorm sign(z*z) * sqrt(|z*z|); sign(0) := 0."""
    n = para_square(z)
    return _sign(n) * math.sqrt(abs(n))


class Branch(Enum):
    POS_REAL = "pos-real"
    POS_IMAG = "pos-imag"
    NEG_REAL = "neg-real"
    NEG_IMAG = "neg-imag"
    NULL_CONE = "null-cone"


@dataclass(frozen=True)
class PolarBranch:
    branch: Branch
    rho: float
    theta: float


def quadrant_of(z: SplitComplex) -> Branch:
    """Which polar branch z lies in; the null cone when |re| = |im|."""
    x, y = z.re, z.im
    if abs(x) == abs(y):
        return Branch.NULL_CONE
    if abs(x) > abs(y):
        return Branch.POS_REAL if x > 0 else Branch.NEG_REAL
    return Branch.POS_IMAG if y > 0 else Branch.NEG_IMAG


def hyperbolic_polar(z: SplitComplex) -> PolarBranch:
    """Four-branch hyperbolic polar decomposition.

    pos-real:  z = +rho (cosh t + j sinh t)
    pos-imag:  z = +rho (sinh t + j cosh t)
    neg-real:  z = -rho (cosh t + j sinh t)
    neg-imag:  z = -rho (sinh t + j cosh t)
    Null-cone inputs get rho = 0 and theta = 0.
    """
    branch = quadrant_of(z)
    if branch is Branch.NULL_CONE:
        return PolarBranch(branch, 0.0, 0.0)
    x, y = float(z.re), float(z.im)
    rho = math.sqrt(abs(x * x - y * y))
    if branch is Branch.POS_REAL:
        theta = math.atanh(y / x)
    elif branch is Branch.NEG_REAL:
        theta = math.atanh(y / x)
    elif branch is Branch.POS_IMAG:
        theta = math.atanh(x / y)
    else:
        theta = math.atanh(x / y)
    return PolarBranch(branch, rho, theta)


def polar_reconstruct(pb: PolarBranch) -> tuple[float, float]:
    """(re, im) of the split-complex number a PolarBranch describes."""
    c, s = math.cosh(pb.theta), math.sinh(pb.theta)
    if pb.branch is Branch.POS_REAL:
        return pb.rho * c, pb.rho * s
    if pb.branch is Branch.NEG_REAL:
        return -pb.rho * c, -pb.rho * s
    if pb.branch is Branch.POS_IMAG:
        return pb.rho * s, pb.rho * c
    if pb.branch is Branch.NEG_IMAG:
        return -pb.rho * s, -pb.rho * c
    return 0.0, 0.0


def check_polarization_parallelogram(
    x: SplitComplex, y: SplitComplex
) -> tuple[bool, bool]:
    """Exact verdicts for the polarization and parallelogram identities."""
    j = J_SPLIT
    lhs_pol = x.conj() * y
    rhs_pol = (
        ((x + y).conj() * (x + y) - (x - y).conj() * (x - y)) / 4
        + j * ((x + j * y).conj() * (x + j * y) - (x - j * y).conj() * (x - j * y)) / 4
    )
    lhs_par = (x + y).conj() * (x + y) + (x - y).conj() * (x - y)
    rhs_par = 2 * (x.conj() * x + y.conj() * y)
    return lhs_pol == rhs_pol, lhs_par == rhs_par


def _sqrt_geq_sum(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact test of sqrt(a) >= sqrt(b) + sqrt(c) for non-negative rationals."""
    d = a - b - c
    if d < 0:
        return False
    return d * d >= 4 * b * c


def check_reversed_triangle(z: SplitComplex, w: SplitComplex) -> bool:
    """|‖z+w‖| >= |‖z‖| + |‖w‖|, exact, for same-quadrant inputs.

    Raises PreconditionViolated when z, w, z+w are not all strictly inside
    one quadrant: that is the domain restriction of the inequality, not a
    failure of it.
    """
    s = z + w
    qs = {quadrant_of(z), quadrant_of(w), quadrant_of(s)}
    if Branch.NULL_CONE in qs or len(qs) != 1:
        raise PreconditionViolated(
            "reversed triangle inequality needs all of z, w, z+w strictly "
            "inside one quadrant"
        )
    return _sqrt_geq_sum(abs(para_square(s)), abs(para_square(z)), abs(para_square(w)))


def para_cauchy_schwarz_holds(x: SplitComplex, y: SplitComplex) -> bool:
    """|<x,y>| >= ‖x‖‖y‖ when ‖x‖‖y‖ >= 0, checked exactly via squares.

    Raises PreconditionViolated when the sign condition ‖x‖·‖y‖ >= 0 fails.
    """
    nx, ny = para_square(x), para_square(y)
    sx, sy = _sign(nx), _sign(ny)
    if sx * sy < 0:
        raise PreconditionViolated("para-Cauchy-Schwarz requires ‖x‖·‖y‖ >= 0")
    # |<x,y>|^2 = |N(x) N(y)|, (‖x‖‖y‖)^2 = |N(x)||N(y)| with sign +
    lhs_sq = abs(para_square(x.conj() * y))
    rhs_sq = abs(nx) * abs(ny)
    return lhs_sq >= rhs_sq


# ---------------------------------------------------------------------------
# Minimizer non-uniqueness witness in D^2
# ---------------------------------------------------------------------------

Vec2 = tuple[SplitComplex, SplitComplex]


def vec2_para_square(v: Vec2) -> Fraction:
    """Signed square of the indefinite norm on D^2."""
    return para_square(v[0]) + para_square(v[1])


def _seg_point(t: Fraction) -> Vec2:
    # M = {(1, t(1+j)) : t in [-1/2, 1/2]}, a segment parallel to the null cone
    return (SplitComplex(1, 0), SplitComplex(t, t))


@dataclass(frozen=True)
class MinimizerWitness:
    """A point, a convex segment, and two distinct minimizers in D^2."""

    point: Vec2
    segment: tuple[Fraction, Fraction]  # parameter range of t
    y: Vec2
    y0: Vec2

    def distance_square(self, t: Fraction) -> Fraction:
        d = _seg_point(t)
        return vec2_para_square(
            (d[0] - self.point[0], d[1] - self.point[1])
        )


def minimizer_nonuniqueness_witness() -> MinimizerWitness:
    """Concrete no-go instance: indefinite distance minimizers need not be unique.

    x = origin, M the segment (1, t(1+j)) with t in [-1/2, 1/2].  Every point
    of M is at signed distance-square 1 from x, so the minimizer degenerates
    along the null direction; y - y0 is null.
    """
    x = (SplitComplex(0, 0), SplitComplex(0, 0))
    w = MinimizerWitness(
        point=x,
        segment=(Fraction(-1, 2), Fraction(1, 2)),
        y=_seg_point(Fraction(0)),
        y0=_seg_point(Fraction(1, 2)),
    )
    revalidate_witness(w)
    return w


def revalidate_witness(w: MinimizerWitness, lattice: int = 101) -> None:
    """Brute-force re-check of the witness over a fine lattice on M."""
    lo, hi = w.segment
    dy = w.distance_square(Fraction(0))
    dy0 = vec2_para_square((w.y0[0] - w.point[0], w.y0[1] - w.point[1]))
    assert dy == dy0, "the two claimed minimizers are not equidistant"
    for k in range(lattice):
        t = lo + (hi - lo) * Fraction(k, lattice - 1)
        assert w.distance_square(t) == dy, "segment is not uniformly minimal"
    diff = (w.y[0] - w.y0[0], w.y[1] - w.y0[1])
    n = vec2_para_square(diff)
    assert _sign(n) * abs(n) <= 0, "separation of minimizers is not null"
    assert w.y != w.y0
