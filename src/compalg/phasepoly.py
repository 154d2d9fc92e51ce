"""Exact polynomial algebra on flat phase space R^2n.

Coordinates are ordered q^1..q^n, p_1..p_n.  A polynomial is integer
numerators over one shared denominator (the representation of FLINT's
fmpq_poly): the canonical pair (den, {exponents: numerator}) with den > 0
coprime to the numerators and zero terms dropped, so equal values are
equal pairs.  A J-valued coefficient (a scalar from
:mod:`compalg.scalars`) has an integer J-scalar as its numerator, and one
rule fixes every coefficient's ring whatever the order of summation: a
coefficient is rational exactly when its J part is 0.  Sums, scalings,
products and derivatives stay on the numerators with one gcd per result,
in ``_lowest``.  That canonicalizer, the pair sum ``_add`` and the pair
scaling ``_scale`` are shared with the composite elements of
:mod:`compalg.algebra`.  ``terms`` builds the Fractions and J-scalars on
demand for the readers at the boundary, and each of them answers
``real``, ``imag`` and ``conjugate()``.

The bidifferential f (<->nabla)^k g of two monomials is an integer times a
monomial that depends on neither the class nor hbar (Groenewold, Physica
12, 1946).  Per degree of freedom it is the cached table ``_table``, the
tables of the degrees of freedom combine with the multinomial
k!/prod k_i!, and ``series`` multiplies numerators through them to sum
sum_k w_k f (<->nabla)^k g for given weights, with no derivative taken
and no Fraction built.  The three classes differ only in J^2 (-1, 0, +1)
inside the one series sum_k (J hbar/2)^k/k! nabla^k, whose even half is
``sigma``, whose odd half (J factored out) is ``alpha``, and whose whole,
on J-valued weights, is ``star``.  Every product goes through the
tables in one contraction: the plain product ``*`` is level 0 of the
series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, perm

from .errors import DofMismatch
from .scalars import EPS_DUAL, I_COMPLEX, J_SPLIT, _make, _Pair

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
CLASSES = (ELLIPTIC, PARABOLIC, HYPERBOLIC)

J_UNIT = {ELLIPTIC: I_COMPLEX, PARABOLIC: EPS_DUAL, HYPERBOLIC: J_SPLIT}
J_SQUARED = {ELLIPTIC: -1, PARABOLIC: 0, HYPERBOLIC: 1}

DEFAULT_HBAR = Fraction(2)


class PhasePoly:
    """Multivariate polynomial in (q^1..q^n, p_1..p_n), exact coefficients.

    The coefficient of x^e is nums[e] / den, a canonical pair (see the
    module docstring); ``terms`` is the coefficient view.
    """

    __slots__ = ("dof", "den", "nums")

    def __init__(self, dof: int, terms=None):
        if dof < 0:
            raise ValueError("dof must be non-negative")
        coeffs = {}
        for exps, c in (terms or {}).items():
            if len(exps) != 2 * dof:
                raise ValueError("exponent vector length must be 2*dof")
            coeffs[tuple(exps)] = c
        object.__setattr__(self, "dof", dof)
        den, nums = _lowest(*_over_lcm(coeffs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    @classmethod
    def _canonical(cls, dof: int, den: int, nums: dict) -> "PhasePoly":
        """nums / den as a polynomial, brought to the canonical pair by ``_lowest``."""
        return cls._of(dof, *_lowest(den, nums))

    @classmethod
    def _of(cls, dof: int, den: int, nums: dict) -> "PhasePoly":
        """The polynomial of a canonical pair.

        The keys are exponent tuples of length 2*dof that the package built,
        so the checks of __init__ are skipped.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "dof", dof)
        object.__setattr__(poly, "den", den)
        object.__setattr__(poly, "nums", nums)
        return poly

    def __setattr__(self, *a):
        raise AttributeError("immutable polynomial")

    @property
    def terms(self) -> dict:
        """{exponents: coefficient}: a Fraction, or a J-scalar where the J part
        is not 0.  Built from the pair on every read, so changing it leaves
        the polynomial alone."""
        den = self.den
        return {e: _ratio(n, den) for e, n in self.nums.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c, dof: int) -> "PhasePoly":
        return cls(dof, {(0,) * (2 * dof): c})

    @classmethod
    def q(cls, i: int = 1, dof: int = 1) -> "PhasePoly":
        e = [0] * (2 * dof)
        e[i - 1] = 1
        return cls(dof, {tuple(e): 1})

    @classmethod
    def p(cls, i: int = 1, dof: int = 1) -> "PhasePoly":
        e = [0] * (2 * dof)
        e[dof + i - 1] = 1
        return cls(dof, {tuple(e): 1})

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "PhasePoly"):
        if self.dof != other.dof:
            raise DofMismatch(f"dof {self.dof} vs {other.dof}")

    def __add__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        self._check(other)
        # immutable, so an empty side can hand back the other operand
        if not other.nums:
            return self
        if not self.nums:
            return other
        return PhasePoly._of(self.dof, *_add((self.den, self.nums), (other.den, other.nums)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PhasePoly._canonical(self.dof, self.den, {e: -n for e, n in self.nums.items()})

    def __mul__(self, other):
        if not isinstance(other, PhasePoly):
            return self.scale(other)
        # level 0 of the series: the plain product
        return _contract(self, other, 1, {0: 1})

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "PhasePoly":
        return PhasePoly._of(self.dof, *_scale((self.den, self.nums), s))

    def __eq__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        # canonical pairs on both sides: equal values are equal pairs
        return self.dof == other.dof and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.dof, self.den, frozenset(self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    # -- calculus -----------------------------------------------------------

    def deriv(self, axis: int) -> "PhasePoly":
        """Partial derivative along coordinate axis (0..2n-1, q's first).

        Distinct terms stay distinct and k * n is nonzero for k >= 1, so the
        numerators need no merging; the factors k may share one with den.
        """
        t = {}
        for e, n in self.nums.items():
            k = e[axis]
            if k == 0:
                continue
            ne = list(e)
            ne[axis] = k - 1
            t[tuple(ne)] = k * n
        return PhasePoly._canonical(self.dof, self.den, t)

    @property
    def degree(self) -> int:
        return max(map(sum, self.nums), default=0)

    def eval_float(self, coords) -> complex:
        """Numeric evaluation at real coordinates (floats).

        Coefficients must have a complex value: a split-complex or dual
        coefficient raises ValueError.
        """
        total = 0j
        for e, c in self.terms.items():
            m = 1.0
            for x, k in zip(coords, e):
                m *= x**k
            total += complex(c) * m
        return total

    def canonical_str(self) -> str:
        """Terms sorted lexicographically by exponent vector."""
        terms = self.terms
        if not terms:
            return "0"
        names = [f"q{i+1}" for i in range(self.dof)] + [
            f"p{i+1}" for i in range(self.dof)
        ]
        parts = []
        for e in sorted(terms):
            factors = [str(terms[e])]
            for name, k in zip(names, e):
                if k:
                    factors.append(f"{name}^{k}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"PhasePoly({self.canonical_str()})"


def _split(v) -> tuple:
    """v as (numerator, denominator), the denominator a positive int.

    A rational gives its integers.  A J-scalar (re + J im) / den gives den
    and the integer J-scalar re + J im, or the int re when im is 0 (the ring
    rule).  Any other value (a float carrier's entry) is its own numerator
    over 1.
    """
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    if isinstance(v, _Pair):
        # the J-scalar's own canonical integer triple
        if not v._im:
            return v._re, v._den
        return (v if v._den == 1 else _make(type(v), 1, v._re, v._im)), v._den
    return v, 1


def _over_lcm(d: dict) -> tuple:
    """(D, {k: numerator}) with D the lcm of d's denominators, so d[k] = numerator / D."""
    split = {k: _split(v) for k, v in d.items()}
    den = lcm(*(dv for _, dv in split.values()))
    return den, {k: n * (den // dv) for k, (n, dv) in split.items()}


def _lowest(den: int, nums: dict) -> tuple:
    """(den, nums) as a canonical pair: zeros dropped, den > 0 coprime to the numerators.

    Numerators are ints or integer J-scalars (den 1).  A J-valued one
    shares a factor through both of its parts, and one whose J part is 0
    becomes its int: the ring rule, by which a coefficient is rational
    exactly when its J part is 0, whatever order its terms were summed in.
    A value that is not exact (a float carrier's entry) has no integer
    factor to share with den, so it is divided through and the pair is left
    over 1.  nums is taken over: the result may be nums itself.
    """
    if 0 in nums.values():
        nums = {k: n for k, n in nums.items() if n}
    if set(map(type, nums.values())) <= {int}:
        g = gcd(den, *nums.values())
    else:
        g = den
        for k, n in nums.items():
            if isinstance(n, _Pair):
                if n._im:
                    g = gcd(g, n._re, n._im)
                    continue
                nums[k] = n = n._re
            elif not isinstance(n, int):
                return 1, {k: n / den for k, n in nums.items()}
            g = gcd(g, n)
    if g == 1:
        return den, nums
    return den // g, {k: n // g if isinstance(n, int) else n / g for k, n in nums.items()}


def _add(x: tuple, y: tuple) -> tuple:
    """The canonical pair of the sum of the pairs x and y, over lcm of their dens."""
    (dx, nx), (dy, ny) = x, y
    den = lcm(dx, dy)
    mx, my = den // dx, den // dy
    out = {k: n * mx for k, n in nx.items()}
    for k, n in ny.items():
        out[k] = out.get(k, 0) + n * my
    return _lowest(den, out)


def _scale(x: tuple, s) -> tuple:
    """The canonical pair of s times the pair x; s is split by ``_split``."""
    ns, ds = _split(s)
    den, nums = x
    return _lowest(den * ds, {k: n * ns for k, n in nums.items()})


def _ratio(n, d):
    """n / d, exact (one Fraction) for an integer numerator."""
    return Fraction(n, d) if isinstance(n, int) else n / d


@cache
def _table(aq: int, ap: int, bq: int, bp: int) -> tuple:
    """The levels of q^aq p^ap (<->nabla)^k q^bq p^bp on one degree of freedom.

    There nabla = d_q (x) d_p - d_p (x) d_q, whose two terms commute, so
    level k is T[k] q^(aq+bq-k) p^(ap+bp-k) with

        T[k] = sum_j C(k, j) (-1)^(k-j) (aq)_j (ap)_(k-j) (bp)_j (bq)_(k-j),

    (x)_j the falling factorial: j of the k factors nabla take d_q on the
    left and d_p on the right, the other k - j the reverse.  An integer
    that depends on neither the class nor hbar.  Returns
    (k, T[k], (aq+bq-k,), (ap+bp-k,)) for each k with T[k] != 0, the
    exponents as 1-tuples ready to concatenate; T[k] = 0 once
    k > min(aq, bp) + min(ap, bq).
    """
    out = []
    for k in range(min(aq, bp) + min(ap, bq) + 1):
        t = sum(
            comb(k, j) * (-1) ** (k - j) * perm(aq, j) * perm(ap, k - j) * perm(bp, j) * perm(bq, k - j)
            for j in range(k + 1)
        )
        if t:
            out.append((k, t, (aq + bq - k,), (ap + bp - k,)))
    return tuple(out)


def _contract(f: PhasePoly, g: PhasePoly, dw: int, nw: dict) -> PhasePoly:
    """sum_k (nw[k] / dw) f (<->nabla)^k g, for nw = {0: n_0, 1: n_1, ...}.

    nabla is the sum of the commuting nablas of the degrees of freedom,
    so a monomial pair's level k is the sum over k_1 + ... + k_n = k of
    k!/prod k_i! prod_i T_i[k_i], each T_i read from ``_table``; the
    multinomial is built up as prod_i C(k_1 + ... + k_i, k_i).  Levels at
    or above len(nw) add nothing and are pruned as the degrees of freedom
    combine.  The numerators of f, g and the weights
    multiply into one dict, and the result is one ``_lowest`` over
    dw * f.den * g.den.
    """
    f._check(g)
    n, top = g.dof, len(nw)
    acc = {}
    right = list(g.nums.items())
    for e1, c1 in f.nums.items():
        for e2, c2 in right:
            # (k, integer, q exponents, p exponents) over the first i + 1 dofs
            levels = _table(e1[0], e1[n], e2[0], e2[n]) if n else ((0, 1, (), ()),)
            for i in range(1, n):
                table = _table(e1[i], e1[n + i], e2[i], e2[n + i])
                levels = [
                    (k + ki, t * comb(k + ki, ki) * ti, qs + q, ps + p)
                    for k, t, qs, ps in levels
                    for ki, ti, q, p in table
                    if k + ki < top
                ]
            c12 = c1 * c2
            for k, t, qs, ps in levels:
                if w := nw.get(k):
                    e = qs + ps
                    acc[e] = acc.get(e, 0) + w * t * c12
    return PhasePoly._canonical(n, dw * f.den * g.den, acc)


def series(f: PhasePoly, g: PhasePoly, weights) -> PhasePoly:
    """sum_k weights[k] f (<->nabla)^k g; the weights are split once by ``_over_lcm``."""
    return _contract(f, g, *_over_lcm(dict(enumerate(weights))))


def nabla_power(f: PhasePoly, g: PhasePoly, k: int) -> PhasePoly:
    """k-fold bidifferential power f (<->nabla)^k g, expanded exactly."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return series(f, g, [0] * k + [1])


def poisson(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical bracket: single bidifferential contraction."""
    return series(f, g, [0, 1])


@cache
def _weights(cls: str, hbar: Fraction, parity: int | None, top: int) -> tuple:
    """Weights up to level top of sum_k u^k/k! nabla^k, u = J hbar/2.

    Parity None takes all of them, J-valued (``star``); parity 0 or 1 the
    even or odd half with u^parity factored out, whose k-th weight
    u^(k - parity)/k! is rational.  Once a weight is zero (k >= 2 when
    J^2 = 0, or hbar = 0) it stays zero, which ends them.  Returned split
    once, as (den, {k: numerator}), and cached, so a product with known
    weights does no Fraction arithmetic.
    """
    u, p, weights = J_UNIT[cls] * (Fraction(hbar) / 2), parity or 0, []
    for k in range(p, top + 1, 1 if parity is None else 2):
        c = u ** (k - p) / factorial(k)
        if not c:
            break
        weights += [0] * (k - len(weights)) + [c]
    return _over_lcm(dict(enumerate(weights)))


def _series(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction, parity: int | None) -> PhasePoly:
    """The whole (parity None), even (0) or odd (1) half of sum_k (J hbar/2)^k/k! nabla^k.

    nabla^k vanishes once k exceeds either factor's degree, so the weights
    stop there.
    """
    return _contract(f, g, *_weights(cls, hbar, parity, min(f.degree, g.degree)))


def alpha(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction = DEFAULT_HBAR) -> PhasePoly:
    """Skew product: sine series (elliptic), sinh (hyperbolic), bracket (parabolic)."""
    return _series(f, g, cls, hbar, 1)


def sigma(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction = DEFAULT_HBAR) -> PhasePoly:
    """Symmetric product: cosine series (elliptic), cosh (hyperbolic), product (parabolic)."""
    return _series(f, g, cls, hbar, 0)


def star(f: PhasePoly, g: PhasePoly, cls: str, hbar: Fraction = DEFAULT_HBAR) -> PhasePoly:
    """Associative product sigma + (J hbar / 2) alpha over the extended ring:
    the whole series sum_k (J hbar/2)^k/k! f (<->nabla)^k g as one contraction
    over J-valued weights."""
    return _series(f, g, cls, hbar, None)


def hbar_zero_limit(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Elliptic skew product extrapolated to hbar = 0 from hbar = 1..m.

    Its k-th term carries hbar^(k-1) with k <= m = max(1, min(deg f, deg g)),
    so alpha is a polynomial in hbar of degree below m, its m-th finite
    difference vanishes, and its value at 0 is exactly
    sum_{j=1..m} (-1)^(j-1) C(m, j) alpha(f, g, ELLIPTIC, j).  That should
    be the canonical bracket; callers compare it with ``poisson``.
    """
    m = max(1, min(f.degree, g.degree))
    total = PhasePoly(g.dof)
    for j in range(1, m + 1):
        weight = (-1) ** (j - 1) * comb(m, j)
        total = total + _series(f, g, ELLIPTIC, Fraction(j), 1).scale(weight)
    return total
