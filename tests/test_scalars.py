import math
from fractions import Fraction

import pytest

from compalg.errors import PreconditionViolated
from compalg.scalars import (
    Branch,
    ComplexRational,
    DualNumber,
    J_SPLIT,
    SplitComplex,
    check_polarization_parallelogram,
    check_reversed_triangle,
    hyperbolic_polar,
    minimizer_nonuniqueness_witness,
    para_cauchy_schwarz_holds,
    para_seminorm,
    para_square,
    polar_reconstruct,
    quadrant_of,
    revalidate_witness,
    vec2_para_square,
)


def test_split_product_frozen_value():
    # (2+j)(3+2j) = (6+2) + (4+3)j
    z = SplitComplex(2, 1) * SplitComplex(3, 2)
    assert z == SplitComplex(8, 7)


def test_dual_number_nilpotent():
    e = DualNumber(0, 1)
    assert e * e == DualNumber(0, 0)
    assert (DualNumber(3, 2) * DualNumber(1, 5)).eps == 17


def test_complex_rational_square():
    i = ComplexRational(0, 1)
    assert i * i == -1
    assert ComplexRational(3, 4).abs_sq() == 25


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


def test_para_seminorm_sign_zero_convention():
    assert para_seminorm(SplitComplex(2, 2)) == 0.0
    assert para_seminorm(SplitComplex(2, 1)) == pytest.approx(math.sqrt(3))
    assert para_seminorm(SplitComplex(1, 2)) == pytest.approx(-math.sqrt(3))


def test_quadrants():
    assert quadrant_of(SplitComplex(3, 1)) is Branch.POS_REAL
    assert quadrant_of(SplitComplex(-3, 1)) is Branch.NEG_REAL
    assert quadrant_of(SplitComplex(1, 3)) is Branch.POS_IMAG
    assert quadrant_of(SplitComplex(1, -3)) is Branch.NEG_IMAG
    assert quadrant_of(SplitComplex(2, -2)) is Branch.NULL_CONE


@pytest.mark.parametrize(
    "z",
    [
        SplitComplex(3, 1),
        SplitComplex(-5, 2),
        SplitComplex(1, 4),
        SplitComplex(Fraction(1, 2), -3),
        SplitComplex(-1, -7),
    ],
)
def test_polar_roundtrip(z):
    pb = hyperbolic_polar(z)
    re, im = polar_reconstruct(pb)
    assert re == pytest.approx(float(z.re), abs=1e-12)
    assert im == pytest.approx(float(z.im), abs=1e-12)
    assert pb.rho**2 == pytest.approx(abs(float(para_square(z))))


def test_polar_null_cone_degenerate():
    pb = hyperbolic_polar(SplitComplex(1, 1))
    assert pb.branch is Branch.NULL_CONE and pb.rho == 0.0


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
    lhs = abs(para_seminorm(z + w))
    rhs = abs(para_seminorm(z)) + abs(para_seminorm(w))
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
        z.re = Fraction(5)
