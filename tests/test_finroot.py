from fractions import Fraction

import pytest

from ealie.finroot import Root, RootStringError, build_finite_root_system, components, root_string

EXPECTED_COUNTS = {
    ("A", 3): 12,
    ("B", 2): 8,
    ("B", 3): 18,
    ("C", 2): 8,
    ("C", 3): 18,
    ("D", 4): 24,
    ("BC", 2): 12,
    ("G", 2): 12,
    ("F", 4): 48,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
}


@pytest.mark.parametrize("label,rank", sorted(EXPECTED_COUNTS))
def test_root_counts(label, rank):
    fin = build_finite_root_system(label, rank)
    assert len(fin.nonzero_roots) == EXPECTED_COUNTS[(label, rank)]
    assert fin.rank == rank


@pytest.mark.parametrize("label,rank", sorted(EXPECTED_COUNTS))
def test_reflection_closure_and_irreducibility(label, rank):
    fin = build_finite_root_system(label, rank)
    assert fin.is_closed_under_reflections()
    assert fin.is_irreducible()
    assert len(fin.simple_roots) == rank


def test_components_order_and_membership():
    comps = components([5, 1, 4, 2, 3], lambda a, b: (a + b) % 2 == 0)
    # components come in the order of their smallest node
    assert comps == [[1, 3, 5], [2, 4]]
    assert components([], lambda a, b: True) == []


def test_cartan_matrix_c2():
    fin = build_finite_root_system("C", 2)
    assert fin.cartan_matrix() == [[2, -1], [-2, 2]]


def test_cartan_matrix_c3():
    fin = build_finite_root_system("C", 3)
    assert fin.cartan_matrix() == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]


def test_cartan_matrix_g2():
    fin = build_finite_root_system("G", 2)
    m = fin.cartan_matrix()
    assert sorted((m[0][1], m[1][0])) == [-3, -1]
    assert m[0][0] == m[1][1] == 2


def test_c2_norms_and_cartan_integers():
    fin = build_finite_root_system("C", 2)
    short = [a for a in fin.nonzero_roots if fin.norm(a) == 1]
    long_ = [a for a in fin.nonzero_roots if fin.norm(a) == 2]
    assert len(short) == 4 and len(long_) == 4
    for beta in fin.nonzero_roots:
        for alpha in fin.nonzero_roots:
            c = fin.cartan_integer(beta, alpha)
            assert c == int(c)
            assert abs(c) <= 2


def test_bc_reduced_and_extra():
    fin = build_finite_root_system("BC", 2)
    assert len(fin.extra_roots()) == 4
    assert len(fin.reduced_roots()) == 8
    assert set(fin.extra_roots()) | set(fin.reduced_roots()) == set(fin.nonzero_roots)


def test_invalid_labels():
    with pytest.raises(ValueError):
        build_finite_root_system("H", 2)
    with pytest.raises(ValueError):
        build_finite_root_system("E", 5)
    with pytest.raises(ValueError):
        build_finite_root_system("G", 3)


def test_root_string_values_in_c2():
    fin = build_finite_root_system("C", 2)
    # alpha short, beta long: the string beta, beta+alpha, beta+2alpha
    alpha = (1, -1)
    beta = (0, 2)
    d, u = fin.root_string(beta, alpha)
    assert (d, u) == (0, 2)
    assert d - u == fin.cartan_integer(beta, alpha)
    # through itself: beta, 0, -beta counts 0 as a member
    d, u = fin.root_string(alpha, alpha)
    assert (d, u) == (2, 0)


def _dot_pairing(a, b):
    return Fraction(sum(x * y for x, y in zip(a, b)))


def test_root_string_detects_broken_string():
    members = {(0, 2), (2, 0)}  # gap where (1, 1) should be

    def member(v):
        return tuple(v) in members or not any(v)

    with pytest.raises(RootStringError):
        root_string((0, 2), (1, -1), member, _dot_pairing)


def test_root_string_rejects_unbounded():
    with pytest.raises(RootStringError):
        root_string((0, 1), (1, 0), lambda v: True, _dot_pairing)


def test_root_dataclass_arithmetic():
    a = Root(finite=(1, 0), lattice=(2,))
    b = Root(finite=(0, 1), lattice=(-1,))
    assert a + b == Root(finite=(1, 1), lattice=(1,))
    assert a - b == Root(finite=(1, -1), lattice=(3,))
    assert -a == Root(finite=(-1, 0), lattice=(-2,))
    assert a.scale_add(2, b) == Root(finite=(1, 2), lattice=(0,))
    assert not a.is_zero
    assert Root(finite=(0, 0), lattice=(0,)).is_zero
    assert sorted([b, a]) == [b, a]


def test_all_roots_includes_zero():
    fin = build_finite_root_system("A", 2)
    assert fin.zero in fin.all_roots()
    assert fin.contains((1, -1, 0))
    assert not fin.contains((2, 0, 0))
