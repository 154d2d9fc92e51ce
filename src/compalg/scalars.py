"""Exact scalar rings with involutions.

Rationals (``fractions.Fraction``), complex-over-rational, split-complex
and dual numbers, plus the indefinite para-geometry of the split-complex
plane: the signed square and its quadrants, the polarization and
parallelogram identities, para-Cauchy-Schwarz, the reversed triangle
inequality, and the minimizer non-uniqueness witness.

The three J-scalar classes speak Python's number protocol (PEP 3141): like
``int``, ``Fraction``, ``float`` and ``complex``, each answers ``real``,
``imag`` and ``conjugate()``, so every exact coefficient is read the same
way and no caller dispatches on its type.  ``complex(z)`` is the float
value of a complex-rational z; a split-complex or dual z has none and
raises ValueError.  Inside, a J-scalar is one canonical integer triple
(den, re, im) for (re + J im) / den, with den > 0 and gcd(den, re, im) = 1:
arithmetic stays on the integers, with one gcd per result, and the
para-geometry reads the numerators directly, as the polynomial kernel does
when it takes a J-valued coefficient apart into an integer J-scalar
numerator and a denominator (``phasepoly._split``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionViolated


def _make(cls, den: int, re: int, im: int):
    """The canonical (den, re, im) of cls: one gcd, den > 0 on entry."""
    g = gcd(den, re, im)
    if g != 1:
        den //= g
        re //= g
        im //= g
    z = object.__new__(cls)
    z._den = den
    z._re = re
    z._im = im
    return z


class _Pair:
    """Common machinery for two-component scalar extensions of Q.

    A value (re + J im) / den is stored as one integer triple with den > 0
    and gcd(den, re, im) = 1, so equal values are equal triples.  Arithmetic
    stays on the integers, with one gcd per result; ``real`` and ``imag``
    are read-only and build their Fractions only when asked.
    """

    __slots__ = ("_den", "_re", "_im")
    # subclass sets: _unit_sq = J*J as an int
    _unit_sq: int
    _symbol: str

    def __init__(self, real=0, imag=0):
        # an int or a Fraction is read through its numerator and denominator
        if not isinstance(real, (int, Fraction)):
            real = Fraction(real)
        if not isinstance(imag, (int, Fraction)):
            imag = Fraction(imag)
        a, b = real.numerator, real.denominator
        c, d = imag.numerator, imag.denominator
        if b != d:
            den = lcm(b, d)
            a, c, b = a * (den // b), c * (den // d), den
        # both parts in lowest terms over their lcm: the triple is canonical
        self._den, self._re, self._im = b, a, c

    @property
    def real(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def imag(self) -> Fraction:
        return Fraction(self._im, self._den)

    def _triple(self, other):
        """other as (den, re, im) in this class, or None if it does not coerce."""
        if isinstance(other, type(self)):
            return other._den, other._re, other._im
        if isinstance(other, int):
            return 1, other, 0
        if isinstance(other, Fraction):
            return other.denominator, other.numerator, 0
        return None

    def __add__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        d, a, b = t
        e = self._den
        return _make(type(self), e * d, self._re * d + a * e, self._im * d + b * e)

    __radd__ = __add__

    def __sub__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        d, a, b = t
        e = self._den
        return _make(type(self), e * d, self._re * d - a * e, self._im * d - b * e)

    def __rsub__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        d, a, b = t
        e = self._den
        return _make(type(self), e * d, a * e - self._re * d, b * e - self._im * d)

    def __neg__(self):
        return _make(type(self), self._den, -self._re, -self._im)

    def __mul__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        d, a, b = t
        re, im = self._re, self._im
        return _make(
            type(self), self._den * d, re * a + self._unit_sq * im * b, re * b + im * a
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        a, b = 1, 0
        u, re, im = self._unit_sq, self._re, self._im
        for _ in range(k):
            a, b = a * re + u * b * im, a * im + b * re
        return _make(type(self), self._den**k, a, b)

    def __truediv__(self, other):
        if isinstance(other, int):
            n, m = other, 1
        elif isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
        else:
            return NotImplemented
        if n == 0:
            raise ZeroDivisionError(f"{self!r} / 0")
        if n < 0:
            n, m = -n, -m
        return _make(type(self), self._den * n, self._re * m, self._im * m)

    def __eq__(self, other):
        t = self._triple(other)
        if t is None:
            return NotImplemented
        # canonical triples on both sides: equal values are equal triples
        return (self._den, self._re, self._im) == t

    def __hash__(self):
        if self._im == 0:
            return hash(self.real)
        return hash((type(self).__name__, self.real, self.imag))

    def __bool__(self):
        return self._re != 0 or self._im != 0

    def conjugate(self):
        return _make(type(self), self._den, self._re, -self._im)

    def __complex__(self):
        # only J*J = -1 puts (re + J im) in the complex numbers; reading a
        # split-complex j or a dual eps as i would quantize a different ring
        if self._unit_sq != -1:
            raise ValueError(f"{type(self).__name__} {self!r} has no complex value "
                             f"(J*J = {self._unit_sq})")
        return complex(self.real, self.imag)

    def __repr__(self):
        return f"({self.real}{'+' if self._im >= 0 else ''}{self.imag}{self._symbol})"


class SplitComplex(_Pair):
    """real + j*imag with j*j = +1."""

    _unit_sq = 1
    _symbol = "j"


class DualNumber(_Pair):
    """real + eps*imag with eps*eps = 0."""

    _unit_sq = 0
    _symbol = "eps"


class ComplexRational(_Pair):
    """real + i*imag with i*i = -1."""

    _unit_sq = -1
    _symbol = "i"


J_SPLIT = SplitComplex(0, 1)
EPS_DUAL = DualNumber(0, 1)
I_COMPLEX = ComplexRational(0, 1)


def _norm_num(z: SplitComplex) -> int:
    """Numerator of the signed square over z's den**2: re^2 - im^2."""
    return z._re * z._re - z._im * z._im


def para_square(z: SplitComplex) -> Fraction:
    """Signed square z* z = real^2 - imag^2 (exact)."""
    return Fraction(_norm_num(z), z._den * z._den)


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
    # the numerators over den > 0 lie in the same quadrant as the value
    x, y = z._re, z._im
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


def _sqrt_geq_sum(a, b, c) -> bool:
    """Exact test of sqrt(a) >= sqrt(b) + sqrt(c) for non-negative rationals."""
    d = a - b - c
    if d < 0:
        return False
    return d * d >= 4 * b * c


def check_reversed_triangle(z: SplitComplex, w: SplitComplex) -> bool:
    """|‖z+w‖| >= |‖z‖| + |‖w‖|, exact, for same-quadrant inputs.

    Raises PreconditionViolated when z, w, z+w are not all strictly inside
    one quadrant: that is the domain restriction of the inequality, not a
    failure of it.  Every seminorm is scaled by one common denominator D
    (that of z + w divides it), so the test runs on integers.
    """
    s = z + w
    qs = {quadrant_of(z), quadrant_of(w), quadrant_of(s)}
    if Branch.NULL_CONE in qs or len(qs) != 1:
        raise PreconditionViolated(
            "reversed triangle inequality needs all of z, w, z+w strictly "
            "inside one quadrant"
        )
    den = lcm(z._den, w._den)
    # D^2 N(v) = |re^2 - im^2| (D / den_v)^2 for v = z + w, z, w
    return _sqrt_geq_sum(*(abs(_norm_num(v)) * (den // v._den) ** 2 for v in (s, z, w)))


def para_cauchy_schwarz_holds(x: SplitComplex, y: SplitComplex) -> bool:
    """|<x,y>| >= ‖x‖‖y‖ when ‖x‖‖y‖ >= 0, checked exactly via squares.

    Raises PreconditionViolated when the sign condition ‖x‖·‖y‖ >= 0 fails.
    """
    nx, ny = _norm_num(x), _norm_num(y)
    if _sign(nx) * _sign(ny) < 0:
        raise PreconditionViolated("para-Cauchy-Schwarz requires ‖x‖·‖y‖ >= 0")
    # |<x,y>|^2 = |N(x) N(y)|, (‖x‖‖y‖)^2 = |N(x)||N(y)| with sign +; both
    # sides over (den_x den_y den_<x,y>)^2, so their numerators compare
    xy = x.conjugate() * y
    lhs_sq = abs(_norm_num(xy)) * (x._den * y._den) ** 2
    rhs_sq = abs(nx) * abs(ny) * xy._den**2
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
