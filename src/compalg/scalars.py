"""Exact scalar rings with involutions.

Rationals (``fractions.Fraction``), complex-over-rational, split-complex
and dual numbers, plus the indefinite para-geometry of the split-complex
plane: the signed square and its quadrants, the polarization and
parallelogram identities, para-Cauchy-Schwarz, the reversed triangle
inequality, and the minimizer non-uniqueness witness.

The three J-scalar classes speak Python's number protocol (PEP 3141): like
``int``, ``Fraction``, ``float`` and ``complex``, each answers ``real``,
``imag`` and ``conjugate()``, so every exact coefficient is read the same
way and no caller dispatches on its type.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import PreconditionViolated


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class _Pair:
    """Common machinery for two-component scalar extensions of Q."""

    __slots__ = ("real", "imag")
    # subclass sets: _unit_sq = j*j as a Fraction
    _unit_sq: Fraction
    _symbol: str

    def __init__(self, real=0, imag=0):
        # a Fraction is kept as it is; re-wrapping it would build a copy
        object.__setattr__(self, "real", real if isinstance(real, Fraction) else Fraction(real))
        object.__setattr__(self, "imag", imag if isinstance(imag, Fraction) else Fraction(imag))

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
        return type(self)(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.real - o.real, self.imag - o.imag)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return type(self)(-self.real, -self.imag)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(
            self.real * o.real + self._unit_sq * self.imag * o.imag,
            self.real * o.imag + self.imag * o.real,
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
            return type(self)(self.real / f, self.imag / f)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.real == other.real and self.imag == other.imag
        f = _as_fraction(other)
        if f is not None:
            return self.imag == 0 and self.real == f
        return NotImplemented

    def __hash__(self):
        if self.imag == 0:
            return hash(self.real)
        return hash((type(self).__name__, self.real, self.imag))

    def __bool__(self):
        return self.real != 0 or self.imag != 0

    def conjugate(self):
        return type(self)(self.real, -self.imag)

    def __repr__(self):
        return f"({self.real}{'+' if self.imag >= 0 else ''}{self.imag}{self._symbol})"


class SplitComplex(_Pair):
    """real + j*imag with j*j = +1."""

    _unit_sq = Fraction(1)
    _symbol = "j"


class DualNumber(_Pair):
    """real + eps*imag with eps*eps = 0."""

    _unit_sq = Fraction(0)
    _symbol = "eps"


class ComplexRational(_Pair):
    """real + i*imag with i*i = -1."""

    _unit_sq = Fraction(-1)
    _symbol = "i"


J_SPLIT = SplitComplex(0, 1)
EPS_DUAL = DualNumber(0, 1)
I_COMPLEX = ComplexRational(0, 1)


def para_square(z: SplitComplex) -> Fraction:
    """Signed square z* z = real^2 - imag^2 (exact)."""
    return z.real * z.real - z.imag * z.imag


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Branch(Enum):
    POS_REAL = "pos-real"
    POS_IMAG = "pos-imag"
    NEG_REAL = "neg-real"
    NEG_IMAG = "neg-imag"
    NULL_CONE = "null-cone"


def quadrant_of(z: SplitComplex) -> Branch:
    """Which quadrant z lies in; the null cone when |real| = |imag|."""
    x, y = z.real, z.imag
    if abs(x) == abs(y):
        return Branch.NULL_CONE
    if abs(x) > abs(y):
        return Branch.POS_REAL if x > 0 else Branch.NEG_REAL
    return Branch.POS_IMAG if y > 0 else Branch.NEG_IMAG


def check_polarization_parallelogram(
    x: SplitComplex, y: SplitComplex
) -> tuple[bool, bool]:
    """Exact verdicts for the polarization and parallelogram identities."""
    j = J_SPLIT
    lhs_pol = x.conjugate() * y
    rhs_pol = (
        ((x + y).conjugate() * (x + y) - (x - y).conjugate() * (x - y)) / 4
        + j * ((x + j * y).conjugate() * (x + j * y) - (x - j * y).conjugate() * (x - j * y)) / 4
    )
    lhs_par = (x + y).conjugate() * (x + y) + (x - y).conjugate() * (x - y)
    rhs_par = 2 * (x.conjugate() * x + y.conjugate() * y)
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
    lhs_sq = abs(para_square(x.conjugate() * y))
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
    return MinimizerWitness(
        point=x,
        segment=(Fraction(-1, 2), Fraction(1, 2)),
        y=_seg_point(Fraction(0)),
        y0=_seg_point(Fraction(1, 2)),
    )


def revalidate_witness(w: MinimizerWitness, lattice: int = 101) -> int:
    """Brute-force re-check of the witness over a fine lattice on M.

    Returns the number of lattice points checked.
    """
    lo, hi = w.segment
    dy = w.distance_square(Fraction(0))
    dy0 = vec2_para_square((w.y0[0] - w.point[0], w.y0[1] - w.point[1]))
    if dy != dy0:
        raise AssertionError("the two claimed minimizers are not equidistant")
    for k in range(lattice):
        t = lo + (hi - lo) * Fraction(k, lattice - 1)
        if w.distance_square(t) != dy:
            raise AssertionError("segment is not uniformly minimal")
    diff = (w.y[0] - w.y0[0], w.y[1] - w.y0[1])
    n = vec2_para_square(diff)
    if _sign(n) * abs(n) > 0:
        raise AssertionError("separation of minimizers is not null")
    if w.y == w.y0:
        raise AssertionError("the two claimed minimizers coincide")
    return lattice
