import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from compalg.errors import PreconditionViolated
from compalg.moyalpos import poly_conj
from compalg.phasepoly import CLASSES, J_UNIT, PhasePoly
from compalg.scalars import (
    Branch,
    ComplexRational,
    DualNumber,
    SplitComplex,
    check_polarization_parallelogram,
    check_reversed_triangle,
    minimizer_nonuniqueness_witness,
    para_cauchy_schwarz_holds,
    para_square,
    quadrant_of,
    revalidate_witness,
    vec2_para_square,
)


def _seminorm(z):
    """Float oracle: the signed seminorm sign(z*z) * sqrt(|z*z|)."""
    n = float(para_square(z))
    return math.copysign(math.sqrt(abs(n)), n)


def test_split_product_frozen_value():
    # (2+j)(3+2j) = (6+2) + (4+3)j
    z = SplitComplex(2, 1) * SplitComplex(3, 2)
    assert z == SplitComplex(8, 7)


def test_dual_number_nilpotent():
    e = DualNumber(0, 1)
    assert e * e == DualNumber(0, 0)
    assert (DualNumber(3, 2) * DualNumber(1, 5)).imag == 17


def test_complex_rational_square():
    i = ComplexRational(0, 1)
    assert i * i == -1
    z = ComplexRational(3, 4)
    assert z * z.conjugate() == 25


@pytest.mark.parametrize("cls", CLASSES)
def test_j_scalars_speak_the_number_protocol(cls):
    # the names int, Fraction, float and complex share (PEP 3141)
    J = J_UNIT[cls]
    rng = random.Random(11)
    for _ in range(50):
        a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4))
        z, w = a + J * b, c + J * d
        assert (z.real, z.imag) == (a, b)
        assert z.conjugate() == a - J * b
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()
        assert type(z)(z.real, z.imag) == z
    # a polynomial mixing rational and J-valued coefficients
    q, p = PhasePoly.q(), PhasePoly.p()
    f = PhasePoly.const(Fraction(3, 2), 1) + q.scale(Fraction(1, 3) + J * 2) + p.scale(J * Fraction(-5, 7))
    bar = PhasePoly.const(Fraction(3, 2), 1) + q.scale(Fraction(1, 3) - J * 2) + p.scale(J * Fraction(5, 7))
    assert poly_conj(f) == bar
    assert poly_conj(bar) == f


def test_pair_keeps_fraction_components(monkeypatch):
    # components are read as integer numerators over one denominator, and
    # arithmetic stays on them: a Fraction is built only when real or imag is read
    a, b, c = Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)
    calls = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kw):
        calls.append(args)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    z = SplitComplex(a, b)
    w = SplitComplex(a, 2)
    out = ((z + w) * z - w / c + 2 * z.conjugate()) ** 2 / 5 - a
    assert out != z and out == out * 1
    assert calls == []
    assert z.real == a and z.imag == b
    assert type(z.real) is Fraction and type(z.imag) is Fraction
    assert type(SplitComplex(1, 2).real) is Fraction


class _FractionPair:
    """The Fraction-pair representation the integer triple replaced, kept as
    its oracle: each component a Fraction, one Fraction per operation."""

    __slots__ = ("real", "imag")
    _unit_sq: Fraction
    _symbol: str

    def __init__(self, real=0, imag=0):
        object.__setattr__(self, "real", real if isinstance(real, Fraction) else Fraction(real))
        object.__setattr__(self, "imag", imag if isinstance(imag, Fraction) else Fraction(imag))

    def __setattr__(self, *a):
        raise AttributeError("immutable scalar")

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return type(self)(other, 0)
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
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return type(self)(self.real / f, self.imag / f)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, (int, Fraction)):
            return self.imag == 0 and self.real == other
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


# the oracle classes carry the same names, so the tuple hashes agree too
_ORACLE = {
    cls: type(cls.__name__, (_FractionPair,), {"_unit_sq": Fraction(u), "_symbol": sym})
    for cls, u, sym in ((SplitComplex, 1, "j"), (DualNumber, 0, "eps"), (ComplexRational, -1, "i"))
}


def _assert_same(z, ref):
    assert type(z).__name__ == type(ref).__name__
    for part in ("real", "imag"):
        got, want = getattr(z, part), getattr(ref, part)
        assert got == want and type(got) is type(want) is Fraction, (part, z, ref)
    assert repr(z) == repr(ref)
    assert hash(z) == hash(ref)
    assert bool(z) == bool(ref)


@pytest.mark.parametrize("cls", [SplitComplex, DualNumber, ComplexRational])
def test_integer_pair_matches_fraction_pair_oracle(cls):
    oracle = _ORACLE[cls]
    rng = random.Random(16)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))

    def operand():
        """(new, oracle) views of one int, Fraction or same-class value."""
        kind = rng.randrange(3)
        if kind == 0:
            x = rng.randint(-6, 6)
            return x, x
        if kind == 1:
            x = rational()
            return x, x
        a, b = rational(), rational() if rng.random() < 0.8 else 0
        return cls(a, b), oracle(a, b)

    ops = ("+", "r+", "-", "r-", "*", "r*", "/", "**", "neg", "conj")
    for _ in range(300):
        a, b = rational(), rational()
        z, ref = cls(a, b), oracle(a, b)
        _assert_same(z, ref)
        for _ in range(6):
            op = rng.choice(ops)
            x, xr = operand()
            if op == "+":
                z, ref = z + x, ref + xr
            elif op == "r+":
                z, ref = x + z, xr + ref
            elif op == "-":
                z, ref = z - x, ref - xr
            elif op == "r-":
                z, ref = x - z, xr - ref
            elif op == "*":
                z, ref = z * x, ref * xr
            elif op == "r*":
                z, ref = x * z, xr * ref
            elif op == "/":
                d = rng.choice((rng.randint(1, 6), -rng.randint(1, 6), rational() or Fraction(-2, 3)))
                z, ref = z / d, ref / d
            elif op == "**":
                k = rng.randint(0, 3)
                z, ref = z**k, ref**k
            elif op == "neg":
                z, ref = -z, -ref
            else:
                z, ref = z.conjugate(), ref.conjugate()
            _assert_same(z, ref)
            # equality against another operand and against z's own real part
            assert (z == x) == (ref == xr)
            assert (z == z.real) == (ref == ref.real)
            assert (z != x) == (ref != xr)


def _fraction_quadrant(x, y):
    if abs(x) == abs(y):
        return Branch.NULL_CONE
    if abs(x) > abs(y):
        return Branch.POS_REAL if x > 0 else Branch.NEG_REAL
    return Branch.POS_IMAG if y > 0 else Branch.NEG_IMAG


def test_geometry_on_numerators_matches_fraction_formulas():
    # the helpers read integer numerators; the Fraction formulas they replaced
    # (on real and imag) are the oracle, here on non-integer inputs
    def norm(v):
        return v.real * v.real - v.imag * v.imag

    rng = random.Random(12)

    def z():
        return SplitComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    verdicts = set()
    for _ in range(2000):
        x, y = z(), z()
        assert para_square(x) == norm(x)
        assert quadrant_of(x) is _fraction_quadrant(x.real, x.imag)
        s = x + y
        qs = {_fraction_quadrant(v.real, v.imag) for v in (x, y, s)}
        if Branch.NULL_CONE in qs or len(qs) != 1:
            with pytest.raises(PreconditionViolated):
                check_reversed_triangle(x, y)
        else:
            a, b, c = abs(norm(s)), abs(norm(x)), abs(norm(y))
            want = a - b - c >= 0 and (a - b - c) ** 2 >= 4 * b * c
            assert check_reversed_triangle(x, y) == want
            verdicts.add(want)
        if norm(x) * norm(y) < 0:
            with pytest.raises(PreconditionViolated):
                para_cauchy_schwarz_holds(x, y)
        else:
            want = abs(norm(x.conjugate() * y)) >= abs(norm(x)) * abs(norm(y))
            assert para_cauchy_schwarz_holds(x, y) == want
    assert verdicts == {True}


@pytest.mark.parametrize("cls", CLASSES)
def test_real_pair_equals_and_hashes_as_its_fraction(cls):
    # a real-valued J-scalar compares and hashes as the Fraction it equals,
    # so a whole scalar can stand where a Fraction is expected
    U = type(J_UNIT[cls])
    for x in (Fraction(0), Fraction(3), Fraction(-5, 4), Fraction(7, 9)):
        z = U(x, 0)
        assert z == x and x == z
        assert hash(z) == hash(x)
        assert U(x, 1) != x
        # also when the value becomes real through arithmetic
        w = (U(x, 1) + U(0, -1)) * 1
        assert w == x and hash(w) == hash(x)
    assert {U(Fraction(1, 2), 0): "a"}[Fraction(1, 2)] == "a"


def test_mixed_arithmetic_with_fractions():
    z = SplitComplex(1, 2)
    assert Fraction(1, 2) * z == SplitComplex(Fraction(1, 2), 1)
    assert z + 1 == SplitComplex(2, 2)
    assert (z / 2) * 2 == z
    assert z**3 == z * z * z


def test_para_square_signs():
    assert para_square(SplitComplex(3, 1)) == 8
    assert para_square(SplitComplex(1, 3)) == -8
    assert para_square(SplitComplex(2, 2)) == 0


def test_quadrants():
    assert quadrant_of(SplitComplex(3, 1)) is Branch.POS_REAL
    assert quadrant_of(SplitComplex(-3, 1)) is Branch.NEG_REAL
    assert quadrant_of(SplitComplex(1, 3)) is Branch.POS_IMAG
    assert quadrant_of(SplitComplex(1, -3)) is Branch.NEG_IMAG
    assert quadrant_of(SplitComplex(2, -2)) is Branch.NULL_CONE


def test_polarization_and_parallelogram_exact():
    import random

    rng = random.Random(11)
    for _ in range(500):
        x = SplitComplex(Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
                         Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        y = SplitComplex(Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
                         Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        pol, par = check_polarization_parallelogram(x, y)
        assert pol and par


def test_reversed_triangle_same_quadrant():
    # frozen: z = 2+j, w = 3+j, z+w = 5+2j; 21 >= 3 + 8 + 2*sqrt(24)
    assert check_reversed_triangle(SplitComplex(2, 1), SplitComplex(3, 1))
    # float oracle agreement
    z, w = SplitComplex(2, 1), SplitComplex(3, 1)
    lhs = abs(_seminorm(z + w))
    rhs = abs(_seminorm(z)) + abs(_seminorm(w))
    assert lhs >= rhs - 1e-12


def test_reversed_triangle_sweep_against_float_oracle():
    import random

    rng = random.Random(5)
    tried = 0
    while tried < 200:
        z = SplitComplex(rng.randint(-9, 9), rng.randint(-9, 9))
        w = SplitComplex(rng.randint(-9, 9), rng.randint(-9, 9))
        try:
            verdict = check_reversed_triangle(z, w)
        except PreconditionViolated:
            continue
        tried += 1
        assert verdict, (z, w)


def test_reversed_triangle_precondition():
    with pytest.raises(PreconditionViolated):
        check_reversed_triangle(SplitComplex(2, 1), SplitComplex(1, 2))
    with pytest.raises(PreconditionViolated):
        check_reversed_triangle(SplitComplex(1, 1), SplitComplex(3, 1))


def test_para_cauchy_schwarz():
    import random

    rng = random.Random(3)
    admissible = 0
    while admissible < 500:
        x = SplitComplex(rng.randint(-9, 9), rng.randint(-9, 9))
        y = SplitComplex(rng.randint(-9, 9), rng.randint(-9, 9))
        try:
            assert para_cauchy_schwarz_holds(x, y)
            admissible += 1
        except PreconditionViolated:
            assert para_square(x) * para_square(y) < 0


def test_para_cauchy_schwarz_precondition():
    with pytest.raises(PreconditionViolated):
        para_cauchy_schwarz_holds(SplitComplex(2, 1), SplitComplex(1, 2))


def test_minimizer_witness():
    w = minimizer_nonuniqueness_witness()
    assert w.y != w.y0
    assert w.distance_square(Fraction(0)) == 1
    assert w.distance_square(Fraction(1, 2)) == 1
    diff = (w.y[0] - w.y0[0], w.y[1] - w.y0[1])
    assert vec2_para_square(diff) == 0  # separation along the null cone
    revalidate_witness(w, lattice=257)


def test_revalidate_witness_counts_the_lattice_it_ran():
    w = minimizer_nonuniqueness_witness()
    assert revalidate_witness(w) == 101
    assert revalidate_witness(w, lattice=257) == 257


def test_doctored_witness_is_refused_under_python_O():
    # y0 = (2, 0) is not on the segment and not equidistant with y
    code = (
        "from dataclasses import replace\n"
        "from compalg.scalars import SplitComplex, minimizer_nonuniqueness_witness, "
        "revalidate_witness\n"
        "w = minimizer_nonuniqueness_witness()\n"
        "bad = replace(w, y0=(SplitComplex(2, 0), SplitComplex(0, 0)))\n"
        "try:\n"
        "    revalidate_witness(bad)\n"
        "except AssertionError:\n"
        "    print('refused')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "refused"


def test_euclidean_analogue_is_unique():
    # same segment in the definite-metric plane has a strict unique minimum
    def euclid_dist_sq(t):
        return 1 + 2 * t * t  # |(1, t(1+i))|^2 with |1+i|^2 = 2

    vals = [euclid_dist_sq(Fraction(k, 50) - Fraction(1, 2)) for k in range(51)]
    assert min(vals) == euclid_dist_sq(Fraction(0))
    assert vals.count(min(vals)) == 1


def test_immutability():
    z = SplitComplex(1, 2)
    with pytest.raises(AttributeError):
        z.real = Fraction(5)
