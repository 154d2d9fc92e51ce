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
    a, b = Fraction(1, 3), Fraction(-2, 5)
    calls = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kw):
        calls.append(args)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    z = SplitComplex(a, b)
    assert calls == []
    assert z.real is a and z.imag is b
    w = SplitComplex(1, 2)  # any other argument is converted as before
    assert type(w.real) is Fraction and len(calls) == 2


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
