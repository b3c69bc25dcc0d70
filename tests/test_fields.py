import random
from fractions import Fraction

from pvakit.fields import Coefficient, _pgcd, _pmul


def C(q, nvars=2):
    return Coefficient.from_fraction(Fraction(q), nvars)


def P(j, nvars=2):
    return Coefficient.parameter(j, nvars)


def test_rational_fast_path():
    a = C("3/2")
    b = C("-1/2")
    assert (a + b).as_fraction() == 1
    assert (a * b).as_fraction() == Fraction(-3, 4)
    assert (a / b).as_fraction() == -3
    assert (-a).as_fraction() == Fraction(-3, 2)
    assert a.scale(2).as_fraction() == 3
    assert C(0).is_zero() and C(1).is_one()


def test_parameter_arithmetic():
    c = P(0)
    one = C(1)
    assert (c * c + c).render(("c", "t")) == "c^2 + c"
    assert ((c + one) - c).is_one()
    assert (c - c).is_zero()
    assert (c ** 3).render(("c", "t")) == "c^3"


def test_fraction_cancellation():
    c = P(0)
    one = C(1)
    # (c^2 - 1) / (c + 1) = c - 1
    num = c * c - one
    den = c + one
    q = num / den
    assert q == c - one
    # (1/c) * c = 1
    assert ((one / c) * c).is_one()
    # cross cancellation keeps products reduced
    t = P(1)
    r = ((c + one) / (t + one)) * ((t + one) / (c + one))
    assert r.is_one()


def test_denominator_monic():
    c = P(0)
    q = C(1) / (c.scale(2))
    # denominator normalized to c, factor folded into the numerator
    assert q.render(("c", "t")) == "1/2/c"
    assert (q * c.scale(2)).is_one()


def test_gcd_multivariate():
    c, t = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    one = {(0, 0): Fraction(1)}
    # gcd((c+t)^2, (c+t)) = c+t up to normalization
    s = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    s2 = _pmul(s, s)
    g = _pgcd(s2, s)
    assert g == s
    assert _pgcd(one, s) == one
    assert _pgcd(c, t) == one


def test_field_axioms_random():
    rng = random.Random(3)

    def rand_coeff():
        out = C(rng.randint(-3, 3), 2)
        for _ in range(rng.randint(0, 2)):
            out = out * P(rng.randrange(2)) + C(rng.randint(-2, 2), 2)
        if rng.random() < 0.3:
            d = P(rng.randrange(2)) + C(rng.randint(1, 3), 2)
            out = out / d
        return out

    for _ in range(150):
        a, b, c = rand_coeff(), rand_coeff(), rand_coeff()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        if not c.is_zero():
            assert (a / c) * c == a
