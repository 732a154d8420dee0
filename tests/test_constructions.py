"""The four algebra families: brackets, forms, extensions, division witnesses."""

import random
from fractions import Fraction

import pytest

from ealie.constructions import (
    AffinizedElement,
    CocycleExtensionAlgebra,
    ExtensionSpec,
    SqrtExtensionAlgebra,
    SqrtMatrix,
    TorusMatrixAlgebra,
    affinize,
    build_extension_by_cocycle,
    check_extension_conditions,
    degree_derivation,
    degree_derivation_spec,
)
from ealie.decomp import graded_pieces
from ealie.exact_arith import SqrtFieldElement
from ealie.finroot import Root
from ealie.quantum_torus import SignMatrix, lattice_box

from conftest import assert_int_first

Q2 = SignMatrix.from_upper(2, [-1])


def _random_homogeneous(rng, alg, w=1):
    degrees = lattice_box(alg.nu, w)
    while True:
        sigma = degrees[rng.randrange(len(degrees))]
        pieces = graded_pieces(alg, sigma)
        weight = sorted(pieces)[rng.randrange(len(pieces))]
        basis = pieces[weight]
        if basis:
            out = alg.zero()
            for b in basis:
                out = out + b * rng.randint(-2, 2)
            if not out.is_zero():
                return out


def test_matrix_rank_validation():
    with pytest.raises(ValueError):
        TorusMatrixAlgebra(1, Q2)


def test_construction_tags():
    assert TorusMatrixAlgebra(2, Q2).construction == "quantum-torus"
    assert affinize(TorusMatrixAlgebra(2, Q2)).construction == "affinized"
    assert SqrtExtensionAlgebra(2, (2, 3)).construction == "sqrt-extension"


def test_jacobi_in_matrix_algebra():
    alg = TorusMatrixAlgebra(2, Q2, derived=False)
    rng = random.Random(17)
    for _ in range(30):
        x, y, z = (_random_homogeneous(rng, alg) for _ in range(3))
        acc = (
            alg.bracket(alg.bracket(x, y), z)
            + alg.bracket(alg.bracket(y, z), x)
            + alg.bracket(alg.bracket(z, x), y)
        )
        assert acc.is_zero()


def test_degree_derivation_is_derivation():
    alg = TorusMatrixAlgebra(2, Q2, derived=False)
    rng = random.Random(19)
    for _ in range(20):
        x, y = _random_homogeneous(rng, alg), _random_homogeneous(rng, alg)
        for i in range(2):
            lhs = degree_derivation(alg.bracket(x, y), i)
            rhs = alg.bracket(degree_derivation(x, i), y) + alg.bracket(x, degree_derivation(y, i))
            assert (lhs - rhs).is_zero()


def test_degree_derivation_eigenvalues():
    alg = TorusMatrixAlgebra(2, Q2)
    for sigma in ((1, 0), (2, -1), (0, 0)):
        piece = alg.root_piece(Root(finite=(1, 1), lattice=sigma))
        for x in piece:
            for i in range(2):
                assert degree_derivation(x, i) == x * sigma[i]


def test_affinized_form_pairs_central_and_derivation_parts():
    aff = affinize(TorusMatrixAlgebra(2, Q2))
    for i in range(2):
        for j in range(2):
            assert aff.form(aff.c_gen(i), aff.d_gen(j)) == (1 if i == j else 0)
            assert aff.form(aff.c_gen(i), aff.c_gen(j)) == 0
            assert aff.form(aff.d_gen(i), aff.d_gen(j)) == 0
            assert aff.bracket(aff.d_gen(i), aff.c_gen(j)).is_zero()


def test_affinized_derivations_act_by_degree():
    aff = affinize(TorusMatrixAlgebra(2, Q2))
    base = aff.base
    for sigma in ((1, 0), (-1, 1)):
        for x in base.root_piece(Root(finite=(2, 0), lattice=sigma)):
            lifted = aff.lift(x)
            for i in range(2):
                got = aff.bracket(aff.d_gen(i), lifted)
                assert got == aff.lift(x * sigma[i])


def test_affinized_bracket_central_term():
    # [x, y]' picks up sum_i (d_i x, y) c_i on opposite degrees
    aff = affinize(TorusMatrixAlgebra(2, Q2))
    base = aff.base
    sigma = (1, 0)
    root = Root(finite=(2, 0), lattice=sigma)
    opp = Root(finite=(-2, 0), lattice=(-1, 0))
    for x in base.root_piece(root):
        for y in base.root_piece(opp):
            br = aff.bracket(aff.lift(x), aff.lift(y))
            expected_c = tuple(
                sigma[i] * base.form(x, y) for i in range(2)
            )
            assert br.c == expected_c


def test_affinized_antisymmetry_and_invariance():
    aff = affinize(TorusMatrixAlgebra(2, Q2))
    rng = random.Random(23)

    def rand_elem():
        g = _random_homogeneous(rng, aff.base)
        c = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
        d = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
        return AffinizedElement(g, c, d)

    for _ in range(20):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (aff.bracket(x, y) + aff.bracket(y, x)).is_zero()
        assert aff.form(x, y) == aff.form(y, x)
        assert aff.form(aff.bracket(x, y), z) == aff.form(x, aff.bracket(y, z))


def test_affinized_jacobi_with_central_and_derivation_parts():
    aff = affinize(TorusMatrixAlgebra(2, Q2))
    rng = random.Random(29)

    def rand_elem():
        g = _random_homogeneous(rng, aff.base)
        c = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
        d = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
        return AffinizedElement(g, c, d)

    for _ in range(25):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        acc = (
            aff.bracket(aff.bracket(x, y), z)
            + aff.bracket(aff.bracket(y, z), x)
            + aff.bracket(aff.bracket(z, x), y)
        )
        assert acc.is_zero()


def test_degree_derivation_spec_conditions():
    spec = degree_derivation_spec(2, Q2)
    base = spec.base
    samples = [
        base.root_piece(Root(finite=(1, -1), lattice=(0, 0)))[0],
        base.root_piece(Root(finite=(2, 0), lattice=(1, 0)))[0],
        base.root_piece(Root(finite=(0, 0), lattice=(0, 1)))[0],
    ]
    results = check_extension_conditions(spec, samples)
    assert [name for name, passed, _ in results if not passed] == []
    alg = build_extension_by_cocycle(spec, samples)
    assert isinstance(alg, CocycleExtensionAlgebra)
    # the built bracket realizes the derivation action
    x = alg.lift(samples[1])
    got = alg.bracket(alg.e_gen(0), x)
    assert got == alg.lift(samples[1] * 1)


def test_central_cochain_extension_passes():
    aff = affinize(TorusMatrixAlgebra(2, Q2))
    c0 = aff.c_gen(0)

    def tau(i, j):
        if (i, j) == (0, 1):
            return c0
        if (i, j) == (1, 0):
            return -c0
        return aff.zero()

    spec = ExtensionSpec(aff, 2, tau=tau, name="central-cochain")
    samples = [
        aff.lift(aff.base.root_piece(Root(finite=(1, 1), lattice=(0, 0)))[0]),
        aff.lift(aff.base.root_piece(Root(finite=(-1, -1), lattice=(0, 0)))[0]),
        aff.c_gen(1),
    ]
    results = check_extension_conditions(spec, samples)
    assert all(passed for _, passed, _ in results)
    alg = build_extension_by_cocycle(spec, samples)
    e01 = alg.bracket(alg.e_gen(0), alg.e_gen(1))
    assert e01 == alg.lift(c0)


def test_non_antisymmetric_cochain_fails():
    aff = affinize(TorusMatrixAlgebra(2, Q2))
    c0 = aff.c_gen(0)

    def tau(i, j):
        return c0 if i != j else aff.zero()

    spec = ExtensionSpec(aff, 2, tau=tau, name="bad")
    samples = [aff.c_gen(1)]
    results = dict((name, passed) for name, passed, _ in check_extension_conditions(spec, samples))
    assert results["tau-antisymmetric"] is False
    with pytest.raises(ValueError, match="tau-antisymmetric"):
        build_extension_by_cocycle(spec, samples)


def test_non_central_cochain_fails_curvature():
    aff = affinize(TorusMatrixAlgebra(2, Q2))
    h = aff.lift(aff.base.toral_basis()[0])

    def tau(i, j):
        if (i, j) == (0, 1):
            return h
        if (i, j) == (1, 0):
            return -h
        return aff.zero()

    spec = ExtensionSpec(aff, 2, tau=tau, name="bad-curvature")
    samples = [aff.lift(aff.base.root_piece(Root(finite=(2, 0), lattice=(0, 0)))[0])]
    results = dict((name, passed) for name, passed, _ in check_extension_conditions(spec, samples))
    assert results["curvature-identity"] is False


def test_extension_detail_names_first_failure():
    base = TorusMatrixAlgebra(2, Q2)
    # the identity map is no derivation: rho([a, b]) = [a, b], not 2 [a, b]
    spec = ExtensionSpec(base, 2, rho=lambda i, a: a, name="identity-rho")
    samples = [
        base.root_piece(Root(finite=(1, 1), lattice=(0, 0)))[0],
        base.root_piece(Root(finite=(-1, -1), lattice=(0, 0)))[0],
    ]
    results = {name: (passed, detail) for name, passed, detail in check_extension_conditions(spec, samples)}
    # rho(0) and rho(1) both fail; the detail names the first
    assert results["rho-derivations"] == (False, "rho(0) fails the derivation rule")
    assert results["tau-antisymmetric"] == (True, "")


def test_sqrt_matrix_arithmetic():
    r2 = SqrtFieldElement.sqrt(2)
    a = SqrtMatrix(2, {(0, 1): r2})
    b = SqrtMatrix(2, {(1, 0): r2})
    prod = a @ b
    assert prod.entries[(0, 0)] == SqrtFieldElement.from_rational(2)
    assert (a * Fraction(1, 2)) + (a * Fraction(1, 2)) == a
    assert (a - a).is_zero()


def test_sqrt_extension_validation():
    with pytest.raises(ValueError):
        SqrtExtensionAlgebra(2, (4, 3))
    with pytest.raises(ValueError):
        SqrtExtensionAlgebra(2, (3, 3))
    with pytest.raises(ValueError):
        SqrtExtensionAlgebra(1, (2,))


def test_sqrt_extension_shape(sqrt_alg, sqrt_win):
    assert sqrt_alg.keys == (1, 2, 3, 6)
    assert sqrt_alg.nu == 0
    assert len(sqrt_win.roots()) == 9
    for root in sqrt_win.nonisotropic_roots():
        assert sqrt_win.dim(root) == 4


def test_sqrt_extension_jacobi(sqrt_alg):
    rng = random.Random(31)
    pieces = [sqrt_alg.root_piece(Root(finite=w, lattice=())) for w in sqrt_alg.fin.nonzero_roots]

    def rand_elem():
        basis = pieces[rng.randrange(len(pieces))]
        out = sqrt_alg.zero()
        for b in basis:
            out = out + b * Fraction(rng.randint(-2, 2))
        return out

    for _ in range(15):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        acc = (
            sqrt_alg.bracket(sqrt_alg.bracket(x, y), z)
            + sqrt_alg.bracket(sqrt_alg.bracket(y, z), x)
            + sqrt_alg.bracket(sqrt_alg.bracket(z, x), y)
        )
        assert acc.is_zero()


def test_sqrt_division_witness_every_root(sqrt_alg, sqrt_win):
    for root in sqrt_win.nonisotropic_roots():
        t = sqrt_win.rep_t(root)
        for x in sqrt_win.basis(root):
            y = sqrt_alg.division_witness(root, x, t)
            assert sqrt_alg.bracket(x, y) == t


def test_sqrt_division_witness_on_combinations(sqrt_alg, sqrt_win):
    rng = random.Random(37)
    for root in sqrt_win.nonisotropic_roots()[:3]:
        t = sqrt_win.rep_t(root)
        basis = sqrt_win.basis(root)
        for _ in range(5):
            x = sqrt_alg.zero()
            while x.is_zero():
                x = sqrt_alg.zero()
                for b in basis:
                    x = x + b * Fraction(rng.randint(-2, 2))
            y = sqrt_alg.division_witness(root, x, t)
            assert sqrt_alg.bracket(x, y) == t


def test_sqrt_division_witness_errors(sqrt_alg, sqrt_win):
    root = sqrt_win.nonisotropic_roots()[0]
    t = sqrt_win.rep_t(root)
    with pytest.raises(ValueError, match="zero vector"):
        sqrt_alg.division_witness(root, sqrt_alg.zero(), t)
    wrong = sqrt_win.basis(sqrt_win.nonisotropic_roots()[1])[0]
    with pytest.raises(ValueError):
        sqrt_alg.division_witness(root, wrong, t)


def _assert_int_first_element(el):
    for val in el.g.entries.values():
        for c in val.coeffs.values():
            assert_int_first(c.re)
            assert_int_first(c.im)
    for v in el.c + el.d:
        assert_int_first(v)


def test_affinized_window_has_no_float_and_no_integral_fraction(aff_win):
    """Coordinates, brackets and forms of every basis vector stay exact and int-first."""
    for root, x in aff_win.all_basis():
        _assert_int_first_element(x)
        for v in aff_win.coords(x).values():
            assert_int_first(v)
        opp = -root
        for y in aff_win.basis(opp) if opp in aff_win.pieces else ():
            assert_int_first(aff_win.form(x, y))
            b = aff_win.bracket(x, y)
            _assert_int_first_element(b)
            for v in aff_win.coords(b).values():
                assert_int_first(v)


def test_sqrt_window_has_no_float_and_no_integral_fraction(sqrt_win):
    """Field coefficients, coordinates, brackets and forms of every basis vector stay int-first."""
    for root, x in sqrt_win.all_basis():
        for v in list(sqrt_win.coords(x).values()) + [c for val in x.entries.values() for c in val.coeffs.values()]:
            assert_int_first(v)
        opp = -root
        for y in sqrt_win.basis(opp) if opp in sqrt_win.pieces else ():
            assert_int_first(sqrt_win.form(x, y))
            b = sqrt_win.bracket(x, y)
            for v in list(sqrt_win.coords(b).values()) + [c for val in b.entries.values() for c in val.coeffs.values()]:
                assert_int_first(v)


def test_affinized_central_term_is_literal_degree_derivation_form(aff_alg, aff_win):
    # The bracket's c-part, taken in one pass, against (d_i x.g, y.g) built literally.
    base = aff_alg.base
    basis = [x for _, x in aff_win.all_basis()]
    rng = random.Random(11)
    extra = [aff_alg.lift(degree_derivation(x.g, i)) for x in rng.sample(basis, 12) for i in range(2)]
    extra += [sum(rng.sample(basis, 5), aff_alg.zero()) for _ in range(12)]
    elements = basis + extra
    assert any(x.c != (0, 0) for x in elements) and any(x.d != (0, 0) for x in elements)
    nonzero = 0
    for x in elements:
        for y in elements:
            literal = tuple(base.form(degree_derivation(x.g, i), y.g) for i in range(2))
            assert aff_alg.bracket(x, y).c == literal
            nonzero += any(literal)
    assert nonzero
