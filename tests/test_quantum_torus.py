"""Torus coefficient algebra: display identities, conjugation, trace pairing."""

import random

import pytest

from ealie.quantum_torus import (
    SignMatrix,
    TorusElement,
    cocycles,
    epsilon,
    kappa,
    lattice_box,
    structure_constant,
    torus_form,
)

from oracles import oracle_g

Q2 = SignMatrix.from_upper(2, [-1])
Q3 = SignMatrix.from_upper(3, [-1, 1, -1])


def _draws(nu, count, bound=6, seed=3):
    rng = random.Random(seed)
    return [tuple(rng.randint(-bound, bound) for _ in range(nu)) for _ in range(count)]


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        SignMatrix(2, (1, 2, 2, 1))
    with pytest.raises(ValueError):
        SignMatrix(2, (1, 1, -1, 1))  # not symmetric
    with pytest.raises(ValueError):
        SignMatrix(2, (-1, 1, 1, 1))  # diagonal must be 1
    with pytest.raises(ValueError):
        SignMatrix.from_upper(2, [])
    with pytest.raises(ValueError):
        SignMatrix.from_upper(2, [5])


def test_sign_matrix_upper_roundtrip():
    q = SignMatrix.from_upper(3, [-1, 1, -1])
    assert (q.entry(0, 1), q.entry(0, 2), q.entry(1, 2)) == (-1, 1, -1)
    assert q.entry(0, 1) == q.entry(1, 0) == -1
    assert q.entry(1, 2) == -1


def test_cocycle_display_identities():
    for q in (Q2, Q3):
        sigmas = _draws(q.nu, 25)
        taus = _draws(q.nu, 25, seed=4)
        gammas = _draws(q.nu, 25, seed=5)
        for s, t, g in zip(sigmas, taus, gammas):
            gv, fv = cocycles(s, t, q)
            assert gv == oracle_g(s, t, q)
            # kappa is the diagonal of g
            assert kappa(s, q) == cocycles(s, s, q)[0]
            # the commutation factor twists kappa additively
            st = tuple(a + b for a, b in zip(s, t))
            assert fv * kappa(s, q) * kappa(t, q) == kappa(st, q)
            # bilinearity in each slot
            sg = tuple(a + b for a, b in zip(s, g))
            assert cocycles(sg, t, q)[0] == cocycles(s, t, q)[0] * cocycles(g, t, q)[0]
            assert cocycles(t, sg, q)[0] == cocycles(t, s, q)[0] * cocycles(t, g, q)[0]


def test_structure_constant_realizes_monomial_product():
    for q in (Q2, Q3):
        for s, t in zip(_draws(q.nu, 30), _draws(q.nu, 30, seed=6)):
            prod = TorusElement.monomial(q, s) * TorusElement.monomial(q, t)
            st = tuple(a + b for a, b in zip(s, t))
            assert prod == TorusElement.monomial(q, st, structure_constant(s, t, q))


def test_commutation_factor():
    q = Q3
    for s, t in zip(_draws(3, 40), _draws(3, 40, seed=7)):
        _, f = cocycles(s, t, q)
        a = TorusElement.monomial(q, s)
        b = TorusElement.monomial(q, t)
        assert a * b == (b * a) * f


def test_monomial_inverse_is_kappa():
    q = Q2
    for s in _draws(2, 40):
        a = TorusElement.monomial(q, s)
        ainv = TorusElement.monomial(q, tuple(-v for v in s))
        assert a * ainv == TorusElement.one(q) * kappa(s, q)


def test_bar_semilinear_antiautomorphism():
    q = Q2
    rng = random.Random(9)
    box = lattice_box(2, 2)

    def rand_elem():
        coeffs = {}
        for _ in range(3):
            from ealie.exact_arith import GaussianRational

            coeffs[box[rng.randrange(len(box))]] = GaussianRational(
                rng.randint(-3, 3), rng.randint(-3, 3)
            )
        return TorusElement(q, coeffs)

    for _ in range(40):
        a, b = rand_elem(), rand_elem()
        assert (a * b).bar() == b.bar() * a.bar()
        assert a.bar().bar() == a
    for s in _draws(2, 30, seed=10):
        assert TorusElement.monomial(q, s).bar() == TorusElement.monomial(q, s, kappa(s, q))


def test_epsilon_and_form():
    q = Q2
    one = TorusElement.one(q)
    assert epsilon(one) == 1
    assert epsilon(TorusElement.monomial(q, (1, 0))) == 0
    rng = random.Random(21)
    box = lattice_box(2, 2)

    def rand_elem():
        from ealie.exact_arith import GaussianRational

        return TorusElement(
            q,
            {
                box[rng.randrange(len(box))]: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(3)
            },
        )

    for _ in range(40):
        a, b = rand_elem(), rand_elem()
        assert torus_form(a, b) == epsilon(a * b)
        assert torus_form(a, b) == torus_form(b, a)


def test_torus_element_basics():
    q = Q2
    a = TorusElement.monomial(q, (1, 0), 2)
    assert (a - a).is_zero()
    assert a.support() == ((1, 0),)
    with pytest.raises(ValueError):
        a + TorusElement.one(Q3)


def test_lattice_box():
    assert lattice_box(0, 3) == [()]
    box = lattice_box(2, 1)
    assert len(box) == 9
    assert box == sorted(box)
    assert lattice_box(1, 2) == [(-2,), (-1,), (0,), (1,), (2,)]
