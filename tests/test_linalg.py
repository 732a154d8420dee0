import random
from fractions import Fraction

from ealie.finroot import FiniteRootSystem
from ealie.linalg import (
    SpanDict,
    gram_nonsingular,
    gram_positive_definite,
    integer_lattice_basis,
    integer_lattice_member,
    nullspace_dense,
    solve_combination,
    solve_dense,
    span_equal,
    sparse_nullspace,
)

from oracles import LiteralSpanDict, literal_relations, literal_solve


def test_solve_dense_square():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve_dense(a, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_dense_inconsistent_returns_none():
    a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_dense(a, [Fraction(1), Fraction(3)]) is None


def test_solve_dense_underdetermined_picks_solution():
    a = [[Fraction(1), Fraction(1)]]
    x = solve_dense(a, [Fraction(4)])
    assert x is not None and x[0] + x[1] == 4


def test_nullspace_dense():
    a = [[Fraction(1), Fraction(2), Fraction(3)]]
    basis = nullspace_dense(a, 3)
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_span_dict_add_and_dim():
    s = SpanDict()
    assert s.add({"a": Fraction(1)})
    assert s.add({"b": Fraction(1)})
    # dependent vector must be rejected
    assert s.add({"a": Fraction(2), "b": Fraction(3)}) is False
    assert s.dim == 2


def test_span_equal():
    a = SpanDict([{"x": Fraction(1)}, {"y": Fraction(1)}])
    b = SpanDict([{"x": Fraction(1), "y": Fraction(1)}, {"x": Fraction(1), "y": Fraction(-1)}])
    assert span_equal(a, b)
    c = SpanDict([{"x": Fraction(1)}])
    assert not span_equal(a, c)


def _key_rows(vecs):
    """One sparse row {vector index: value} per key of the union of supports,
    in sorted key order: the rows whose nullspace is the relations of ``vecs``."""
    keys = sorted({k for v in vecs for k in v})
    return [{j: v[k] for j, v in enumerate(vecs) if k in v} for k in keys]


def test_solve_combination_and_relations():
    vecs = [{"x": Fraction(1)}, {"y": Fraction(1)}, {"x": Fraction(1), "y": Fraction(1)}]
    sol = solve_combination(vecs, {"x": Fraction(2), "y": Fraction(1)})
    assert sol is not None
    got = {}
    for c, v in zip(sol, vecs):
        for k, val in v.items():
            got[k] = got.get(k, 0) + c * val
    assert got == {"x": 2, "y": 1}
    rels = sparse_nullspace(_key_rows(vecs), len(vecs))
    assert len(rels) == 1
    r = rels[0]
    assert r[0] + r[2] == 0 and r[1] + r[2] == 0


def _random_solves():
    """Seeded systems (A, b, kind), half with int and half with Fraction
    entries: square, underdetermined, consistent overdetermined,
    inconsistent, all-zero, and one with no rows at all."""
    rng = random.Random(41)
    systems = []
    for frac in (False, True):
        def entry():
            v = rng.choice([-3, -2, -1, 0, 0, 1, 2, 3])
            return Fraction(v, rng.randint(1, 4)) if frac else v

        def matrix(m, n):
            return [[entry() for _ in range(n)] for _ in range(m)]

        def image(a):
            x = [entry() for _ in a[0]]
            return [sum(c * v for c, v in zip(row, x)) for row in a]

        for _ in range(12):
            n = rng.randint(1, 5)
            a = matrix(n, n)
            systems.append((a, [entry() for _ in a], "square"))
            a = matrix(rng.randint(1, n), n + 1)
            systems.append((a, image(a), "underdetermined"))
            a = matrix(n + rng.randint(1, 3), n)
            systems.append((a, image(a), "overdetermined"))
            a = matrix(rng.randint(1, 4), n)
            b = image(a)
            i, j = rng.randrange(len(a)), rng.randrange(len(a))
            a.append([u + 2 * v for u, v in zip(a[i], a[j])])
            b.append(b[i] + 2 * b[j] + 1)
            systems.append((a, b, "inconsistent"))
            m = rng.randint(1, 4)
            systems.append(([[0 * entry()] * n for _ in range(m)], [0] * m, "all-zero"))
            systems.append(([[0 * entry()] * n for _ in range(m)], [0] * (m - 1) + [1], "all-zero"))
    systems.append(([], [], "no rows"))
    return systems


def test_solves_match_literal_solve_on_random_systems():
    """solve_dense and solve_combination (the columns of A as sparse vectors)
    return exactly the oracle's solution, free columns 0, all Fractions."""
    kinds = {}
    for a, b, kind in _random_solves():
        want = literal_solve(a, b)
        n = len(a[0]) if a else 0
        vecs = [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(n)]
        target = {i: v for i, v in enumerate(b) if v}
        for got in (solve_dense(a, b), solve_combination(vecs, target)):
            assert got == want, (a, b)
            if got is not None:
                assert all(type(x) is Fraction for x in got)
                assert [sum(c * x for c, x in zip(row, got)) for row in a] == b
        kinds.setdefault(kind, set()).add(want is None)
    assert kinds["inconsistent"] == {True}
    assert kinds["underdetermined"] == kinds["overdetermined"] == {False}
    assert kinds["all-zero"] == {True, False}
    assert set(kinds) == {"square", "underdetermined", "overdetermined", "inconsistent", "all-zero", "no rows"}


def _random_systems():
    """Seeded sparse systems (rows, ncols): rank-deficient with zero and
    duplicate rows mixed in, full rank, no rows, and no columns."""
    rng = random.Random(23)

    def sparse_row(ncols):
        cols = rng.sample(range(ncols), rng.randint(1, ncols))
        return {j: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for j in cols}

    systems = []
    for _ in range(40):
        ncols = rng.randint(1, 6)
        seeds = [sparse_row(ncols) for _ in range(rng.randint(1, ncols))]
        rows = []
        for _ in range(rng.randint(1, 8)):
            combo = {}
            for row in rng.sample(seeds, rng.randint(1, len(seeds))):
                c = rng.randint(-2, 2)
                for j, v in row.items():
                    combo[j] = combo.get(j, 0) + c * v
            rows.append(combo)
        rows.insert(rng.randint(0, len(rows)), {})
        rows.insert(rng.randint(0, len(rows)), {rng.randrange(ncols): 0})
        rows.insert(rng.randint(0, len(rows)), dict(rng.choice(rows)))
        systems.append((rows, ncols))
    systems.append(([{0: 2, 1: 1}, {1: Fraction(1, 2)}, {0: 1}], 2))
    systems.append(([], 3))
    systems.append(([], 0))
    systems.append(([{}, {}], 0))
    return systems


def test_streamed_nullspace_matches_literal_relations_on_random_systems():
    """Equal vectors, all Fractions, in column order: the streamed SpanDict
    route and the dense route against the whole matrix reduced at once."""
    systems = _random_systems()
    deficient = 0
    for rows, ncols in systems:
        vecs = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(ncols)]
        want = literal_relations(vecs)
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        for got in (sparse_nullspace(rows, ncols), nullspace_dense(dense, ncols)):
            assert got == want, (rows, ncols)
            assert all(type(x) is Fraction for v in got for x in v)
        deficient += bool(want)
    assert 0 < deficient < len(systems)


def test_streamed_nullspace_stops_at_full_rank():
    rows = iter([{0: 1, 1: 1}, {}, {1: 2}, {0: 5}, {2: 1}])
    assert sparse_nullspace(rows, 2) == []
    assert next(rows) == {0: 5}
    rows = iter([{0: 1}])
    assert sparse_nullspace(rows, 0) == []
    assert next(rows) == {0: 1}


def test_gram_predicates():
    assert gram_nonsingular([[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]])
    assert not gram_nonsingular([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert not gram_nonsingular([[1, 2], [2, 4]])
    assert gram_nonsingular([[1, 0], [0, 1]])
    assert gram_positive_definite([[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]])
    assert not gram_positive_definite([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert not gram_positive_definite([[Fraction(0)]])
    for rank in (2, 3, 4):
        fin = FiniteRootSystem(rank)
        simple = fin.simple_roots
        assert gram_positive_definite([[fin.pairing(a, b) for b in simple] for a in simple])
    # leading minors 2 and 3, determinant -5
    assert not gram_positive_definite([[2, 1, 1], [1, 2, 1], [1, 1, -1]])
    # the second pivot is zero; the determinant is -1
    assert not gram_positive_definite([[1, 1, 0], [1, 1, 1], [0, 1, 1]])


def test_integer_lattice_even_sum():
    basis = integer_lattice_basis([(2, 0), (0, 2), (1, 1)])
    # lattice {(a, b): a + b even}
    assert integer_lattice_member(basis, (1, 1))
    assert integer_lattice_member(basis, (2, 0))
    assert integer_lattice_member(basis, (-3, 5))
    assert not integer_lattice_member(basis, (1, 0))
    assert not integer_lattice_member(basis, (0, 3))


def test_integer_lattice_line():
    basis = integer_lattice_basis([(2, 4), (3, 6)])
    assert len(basis) == 1
    assert integer_lattice_member(basis, (1, 2))
    assert integer_lattice_member(basis, (-5, -10))
    assert not integer_lattice_member(basis, (1, 1))
    assert not integer_lattice_member(basis, (2, 5))


def test_integer_lattice_empty():
    basis = integer_lattice_basis([])
    assert basis == []
    assert integer_lattice_member(basis, (0, 0))
    assert not integer_lattice_member(basis, (1, 0))


def test_integer_lattice_random_consistency():
    rng = random.Random(7)
    for _ in range(40):
        rows = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        basis = integer_lattice_basis(rows)
        # generators belong to their own lattice
        for r in rows:
            assert integer_lattice_member(basis, r)
        # integer combinations of the basis belong too
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            v = [0, 0, 0]
            for c, b in zip(coeffs, basis):
                for k in range(3):
                    v[k] += c * b[k]
            assert integer_lattice_member(basis, tuple(v))
        # the basis spans the same rational space
        assert SpanDict(dict(enumerate(r)) for r in rows).dim == len(basis)


def _random_entry(rng):
    value = rng.randint(-6, 6)
    return Fraction(value, rng.choice([1, 2, 3, 4, 6, 9])) if rng.random() < 0.4 else value


def test_spandict_elimination_matches_the_literal_step():
    """Rows, growth and membership equal those of the elimination that
    scales by the pivot and cancels it, on random int and Fraction vectors,
    a third of them combinations of earlier ones."""
    rng = random.Random(53)
    for _ in range(60):
        span, literal = SpanDict(), LiteralSpanDict()
        vecs = []
        for _ in range(rng.randint(1, 9)):
            if vecs and rng.random() < 0.35:
                picks = rng.sample(vecs, min(len(vecs), rng.randint(1, 3)))
                v = {}
                for u in picks:
                    c = _random_entry(rng)
                    for k, x in u.items():
                        v[k] = v.get(k, 0) + c * x
            else:
                v = {k: _random_entry(rng) for k in rng.sample(range(7), rng.randint(0, 5))}
            vecs.append(v)
            before = dict(v)
            assert span.add(v) == literal.add(v)
            assert v == before  # the caller's vector is not changed
            assert span._rows == literal.rows
        for _ in range(5):
            probe = {k: _random_entry(rng) for k in rng.sample(range(7), rng.randint(0, 4))}
            assert span.contains(probe) == literal.contains(probe)
            assert all(span.contains(u) for u in vecs)
