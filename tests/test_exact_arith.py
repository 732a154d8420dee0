from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ealie.exact_arith import GaussianRational, SqrtFieldElement, is_square_free, sqrt_pairing

from conftest import assert_int_first

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, fracs, fracs)
# integer-valued operands as plain ints and as Fractions with denominator 1
rationals = st.one_of(st.integers(-20, 20), fracs, st.integers(-20, 20).map(Fraction))
mixed_gaussians = st.builds(GaussianRational, rationals, rationals)

# square-free products of 2, 3, 5
LABELS = (1, 2, 3, 5, 6, 10, 15, 30)
sqrts = st.builds(
    SqrtFieldElement,
    st.dictionaries(st.sampled_from(LABELS), fracs, max_size=4),
)
mixed_sqrts = st.builds(
    SqrtFieldElement,
    st.dictionaries(st.sampled_from(LABELS), rationals, max_size=4),
)


@settings(max_examples=100)
@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def _norm2(z):
    return z.re * z.re + z.im * z.im


@settings(max_examples=100)
@given(gaussians, gaussians)
def test_gaussian_conjugate_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert _norm2(x * y) == _norm2(x) * _norm2(y)


@settings(max_examples=100)
@given(gaussians, gaussians)
def test_gaussian_division_roundtrip(x, y):
    if y.is_zero():
        return
    assert (x / y) * y == x


@settings(max_examples=100)
@given(mixed_gaussians, st.one_of(mixed_gaussians, rationals))
def test_gaussian_components_int_or_fraction_never_float(x, y):
    assert_int_first(x.re)
    assert_int_first(x.im)
    results = [x + y, y + x, x - y, y - x, x * y, y * x, -x, x.conjugate()]
    if y:
        results.append(x / y)
    if x:
        results.append(y / x)
    for z in results:
        assert isinstance(z, GaussianRational)
        assert_int_first(z.re)
        assert_int_first(z.im)


def test_gaussian_integer_division_is_exact():
    z = GaussianRational(1) / 2
    assert z.re == Fraction(1, 2) and type(z.re) is Fraction
    assert (GaussianRational(4, 2) / 2) == GaussianRational(2, 1)
    assert type((GaussianRational(4, 2) / 2).re) is int
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_gaussian_repr_renders_fractions():
    assert repr(GaussianRational(1, 0)) == "GaussianRational(Fraction(1, 1), Fraction(0, 1))"
    assert repr(GaussianRational(Fraction(1, 2), -3)) == "GaussianRational(Fraction(1, 2), Fraction(-3, 1))"


def test_gaussian_scalar_coercion():
    assert GaussianRational(2, 3) * 2 == GaussianRational(4, 6)
    assert GaussianRational(1) + Fraction(1, 2) == GaussianRational(Fraction(3, 2))
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)


def test_is_square_free():
    for n in (1, 2, 3, 5, 6, 7, 10, 15, 30, 105):
        assert is_square_free(n)
    for n in (0, -2, 4, 8, 9, 12, 18, 50):
        assert not is_square_free(n)


def test_sqrt_multiplication_table():
    r2 = SqrtFieldElement.sqrt(2)
    r3 = SqrtFieldElement.sqrt(3)
    r6 = SqrtFieldElement.sqrt(6)
    r10 = SqrtFieldElement.sqrt(10)
    r15 = SqrtFieldElement.sqrt(15)
    assert r2 * r3 == r6
    assert r2 * r2 == SqrtFieldElement.from_rational(2)
    assert r6 * r10 == 2 * r15
    assert r6 * r6 == SqrtFieldElement.from_rational(6)


@settings(max_examples=100)
@given(sqrts, sqrts, sqrts)
def test_sqrt_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=40)
@given(sqrts)
def test_sqrt_inverse_roundtrip(x):
    if x.is_zero():
        return
    assert x * x.inverse() == SqrtFieldElement.from_rational(1)


def test_sqrt_inverse_known_value():
    # 1/(1 + sqrt 2) = sqrt 2 - 1
    x = SqrtFieldElement({1: 1, 2: 1})
    assert x.inverse() == SqrtFieldElement({1: -1, 2: 1})


@settings(max_examples=100)
@given(sqrts, sqrts)
def test_sqrt_pairing_symmetric(u, v):
    assert sqrt_pairing(u, v) == sqrt_pairing(v, u)


@settings(max_examples=100)
@given(mixed_sqrts, mixed_sqrts)
def test_sqrt_pairing_is_rational_part_of_product(u, v):
    got = sqrt_pairing(u, v)
    assert got == (u * v).rational_part()
    assert_int_first(got)


@settings(max_examples=60)
@given(mixed_sqrts, st.one_of(mixed_sqrts, rationals))
def test_sqrt_coefficients_int_or_fraction_never_float(x, y):
    for c in x.coeffs.values():
        assert_int_first(c)
    results = [x + y, y + x, x - y, y - x, x * y, y * x, -x]
    if y:
        results.append(x / y)
    if x:
        results += [y / x, x.inverse()]
    for z in results:
        assert isinstance(z, SqrtFieldElement)
        for c in z.coeffs.values():
            assert_int_first(c)


def test_sqrt_integral_values_are_ints():
    assert type(SqrtFieldElement.sqrt(2).coeffs[2]) is int
    assert type(SqrtFieldElement.from_rational(Fraction(4, 2)).coeffs[1]) is int
    half = SqrtFieldElement.from_rational(Fraction(1, 2))
    assert type((half + half).coeffs[1]) is int
    inv = SqrtFieldElement.from_rational(2).inverse()
    assert inv.coeffs == {1: Fraction(1, 2)} and type(inv.coeffs[1]) is Fraction
    assert type(SqrtFieldElement.from_rational(Fraction(1, 2)).inverse().coeffs[1]) is int


def test_sqrt_pairing_on_labels():
    for a in LABELS:
        for b in LABELS:
            got = sqrt_pairing(SqrtFieldElement.sqrt(a), SqrtFieldElement.sqrt(b))
            assert got == (a if a == b else 0)


def test_sqrt_rejects_non_square_free_labels():
    import pytest

    with pytest.raises(ValueError):
        SqrtFieldElement({4: 1})
    with pytest.raises(ValueError):
        SqrtFieldElement.sqrt(12)
