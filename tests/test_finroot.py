from fractions import Fraction

import pytest

from ealie.finroot import (
    STRING_SCAN,
    FiniteRootSystem,
    Root,
    RootStringError,
    components,
    reflect_weight,
    root_string,
)

from oracles import probe_flags

RANKS = pytest.mark.parametrize("rank", [2, 3, 4], ids=lambda rank: f"C-{rank}")


@RANKS
def test_root_counts(rank):
    fin = FiniteRootSystem(rank)
    assert len(fin.nonzero_roots) == 2 * rank**2
    assert fin.rank == rank and fin.label == "C"
    assert fin.short_roots() | fin.long_roots() == fin.nonzero_roots
    assert {fin.norm(a) for a in fin.short_roots()} == {1}
    assert {fin.norm(a) for a in fin.long_roots()} == {2}
    assert len(fin.long_roots()) == 2 * rank


@RANKS
def test_reflection_closure_and_irreducibility(rank):
    fin = FiniteRootSystem(rank)
    roots = fin.nonzero_roots
    assert all(fin.reflect(alpha, beta) in roots for alpha in roots for beta in roots)
    assert len(components(roots, lambda a, b: bool(fin.pairing(a, b)))) == 1
    assert len(fin.simple_roots) == rank


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_simple_reflection_table_acts_on_weights_as_reflect(rank):
    """Each entry is a signed permutation of the 2l matrix indices, one per
    simple root, and the weight action read off it is ``reflect``."""
    fin = FiniteRootSystem(rank)
    table = fin.simple_reflections()
    assert table is FiniteRootSystem(rank).simple_reflections()  # built once per rank
    assert len(table) == rank
    for alpha, moves in zip(fin.simple_roots, table):
        assert sorted(p for p, _ in moves) == list(range(2 * rank))
        assert {s for _, s in moves} <= {1, -1}
        for beta in fin.nonzero_roots | {fin.zero}:
            assert reflect_weight(moves, beta) == fin.reflect(alpha, beta)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_simple_roots_are_the_lexicographic_base(rank):
    """The base is the positive roots that are not a sum of two positive roots,
    positivity read off a functional weighting earlier coordinates heaviest,
    listed heaviest first: e1-e2, ..., e_{l-1}-e_l, 2e_l."""
    fin = FiniteRootSystem(rank)
    weights = [1000 ** (rank - 1 - i) for i in range(rank)]
    phi = lambda v: sum(x * w for x, w in zip(v, weights))
    positive = {a for a in fin.nonzero_roots if phi(a) > 0}
    indecomposable = [
        a for a in positive if not any(tuple(x - y for x, y in zip(a, b)) in positive for b in positive)
    ]
    assert fin.simple_roots == tuple(sorted(indecomposable, key=phi, reverse=True))


def test_invalid_rank():
    for rank in (1, 0):
        with pytest.raises(ValueError, match="rank must be >= 2"):
            FiniteRootSystem(rank)


def test_components_order_and_membership():
    comps = components([5, 1, 4, 2, 3], lambda a, b: (a + b) % 2 == 0)
    # components come in the order of their smallest node
    assert comps == [[1, 3, 5], [2, 4]]
    assert components([], lambda a, b: True) == []


def _cartan_matrix(fin):
    """M[i][j] = 2(a_i, a_j)/(a_j, a_j) over the simple roots, as SERRE reads it."""
    return [[fin.cartan_integer(a, b) for b in fin.simple_roots] for a in fin.simple_roots]


def test_cartan_matrix_c2():
    assert _cartan_matrix(FiniteRootSystem(2)) == [[2, -1], [-2, 2]]


def test_cartan_matrix_c3():
    assert _cartan_matrix(FiniteRootSystem(3)) == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]


def test_c2_norms_and_cartan_integers():
    fin = FiniteRootSystem(2)
    short = [a for a in fin.nonzero_roots if fin.norm(a) == 1]
    long_ = [a for a in fin.nonzero_roots if fin.norm(a) == 2]
    assert len(short) == 4 and len(long_) == 4
    for beta in fin.nonzero_roots:
        for alpha in fin.nonzero_roots:
            c = fin.cartan_integer(beta, alpha)
            assert c == int(c)
            assert abs(c) <= 2


def _flags(members):
    """The flag list of a string whose members sit at the given offsets."""
    return [n in members for n in range(-STRING_SCAN, STRING_SCAN + 1)]


def test_root_string_values_in_c2():
    fin = FiniteRootSystem(2)
    # alpha short, beta long: the string beta, beta+alpha, beta+2alpha
    alpha = (1, -1)
    beta = (0, 2)
    flags = _flags({0, 1, 2})
    assert flags == probe_flags(fin.contains, beta, alpha, STRING_SCAN)
    d, u = root_string(beta, alpha, flags, fin.cartan_integer(beta, alpha))
    assert (d, u) == (0, 2)
    assert d - u == fin.cartan_integer(beta, alpha)
    # through itself: beta, 0, -beta counts 0 as a member
    flags = _flags({-2, -1, 0})
    assert flags == probe_flags(fin.contains, alpha, alpha, STRING_SCAN)
    d, u = root_string(alpha, alpha, flags, fin.cartan_integer(alpha, alpha))
    assert (d, u) == (2, 0)


def _dot_cartan(beta, alpha):
    """2(beta,alpha)/(alpha,alpha) under the dot product."""
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))
    return Fraction(2 * dot(beta, alpha), dot(alpha, alpha))


def test_root_string_detects_broken_string():
    # members (0, 2) and (2, 0) at offsets 0 and 2, a gap where (1, 1) should be
    with pytest.raises(RootStringError, match="re-enters at offset 2"):
        root_string((0, 2), (1, -1), _flags({0, 2}), _dot_cartan((0, 2), (1, -1)))


def test_root_string_rejects_unbounded():
    everything = _flags(range(-STRING_SCAN, STRING_SCAN + 1))
    with pytest.raises(RootStringError, match="reaches the scan bound"):
        root_string((0, 1), (1, 0), everything, _dot_cartan((0, 1), (1, 0)))


def test_root_string_rejects_an_isotropic_direction():
    # along alpha = 0 every offset is beta itself, a member, so the string
    # never ends; the Cartan number 2(beta,0)/(0,0) is undefined and never read
    fin = FiniteRootSystem(2)
    flags = _flags(range(-STRING_SCAN, STRING_SCAN + 1))
    assert flags == probe_flags(fin.contains, (0, 2), fin.zero, STRING_SCAN)
    with pytest.raises(RootStringError, match="reaches the scan bound"):
        root_string((0, 2), fin.zero, flags, Fraction(0))


def test_root_dataclass_arithmetic():
    a = Root(finite=(1, 0), lattice=(2,))
    b = Root(finite=(0, 1), lattice=(-1,))
    assert a + b == Root(finite=(1, 1), lattice=(1,))
    assert a - b == Root(finite=(1, -1), lattice=(3,))
    assert -a == Root(finite=(-1, 0), lattice=(-2,))
    assert not a.is_zero
    assert Root(finite=(0, 0), lattice=(0,)).is_zero
    assert sorted([b, a]) == [b, a]


def test_zero_and_containment():
    fin = FiniteRootSystem(2)
    assert fin.zero == (0, 0) and fin.zero not in fin.nonzero_roots
    assert fin.contains(fin.zero)
    assert fin.contains((1, -1)) and fin.contains((0, -2))
    assert not fin.contains((1, 0))
    assert not fin.contains((2, 2))
