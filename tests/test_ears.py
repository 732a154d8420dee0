"""Root-system axioms, support sets, semilattice conditions."""

from fractions import Fraction
from types import SimpleNamespace

from ealie.ears import check_ears_axioms, check_semilattice, support_checks, support_sets
from ealie.finroot import Root
from ealie.quantum_torus import lattice_box


def _by_name(results):
    return {r.name: r for r in results}


def test_ears_axioms_pass_on_torus_window(torus_win):
    results = _by_name(check_ears_axioms(torus_win))
    assert len(results) == 7
    for name, r in results.items():
        assert r.passed, (name, r.detail)


def test_ears_axioms_pass_on_affinized_window(aff_win):
    assert all(r.passed for r in check_ears_axioms(aff_win))


def test_ears_axioms_pass_at_nullity_zero(sp4_win):
    assert all(r.passed for r in check_ears_axioms(sp4_win))


class _FakeWindow:
    """Two orthogonal rank-1 systems: everything holds except connectedness."""

    def __init__(self):
        self.fin = SimpleNamespace(rank=2, ambient_dim=2)
        self.alg = SimpleNamespace(nu=0)
        self._nonzero = [
            Root(finite=(1, 0), lattice=()),
            Root(finite=(-1, 0), lattice=()),
            Root(finite=(0, 1), lattice=()),
            Root(finite=(0, -1), lattice=()),
        ]
        self._zero = Root(finite=(0, 0), lattice=())
        self._set = set(self._nonzero) | {self._zero}

    def roots(self):
        return sorted(self._set)

    def nonisotropic_roots(self):
        return list(self._nonzero)

    def isotropic_roots(self):
        return [self._zero]

    def member(self, root):
        return root in self._set

    def pairing(self, a, b):
        return Fraction(sum(x * y for x, y in zip(a.finite, b.finite)))

    def is_isotropic(self, root):
        return not self.pairing(root, root)


def test_orthogonal_components_fail_connectedness():
    results = _by_name(check_ears_axioms(_FakeWindow()))
    assert not results["R5a-connected"].passed
    assert results["R5a-connected"].witness == {
        "component": [(-1, 0), (1, 0)],
        "complement": [(0, -1), (0, 1)],
    }
    for name in ("R1-negation-closed", "R2-spans", "R3-discrete", "R4-root-strings",
                 "R5b-isotropic-not-isolated", "R6-reduced"):
        assert results[name].passed, name


def test_semilattice_full_box_passes():
    members = lattice_box(2, 1)
    res = check_semilattice(members, 2, 1)
    assert res.passed


def test_semilattice_missing_zero():
    members = [m for m in lattice_box(2, 1) if any(m)]
    res = check_semilattice(members, 2, 1)
    assert not res.passed
    assert "0 is missing" in res.detail


def test_semilattice_asymmetric():
    res = check_semilattice([(0,), (1,)], 1, 1)
    assert not res.passed
    assert "symmetric" in res.detail
    assert res.witness == {"sigma": (1,), "missing": (-1,)}


def test_semilattice_closure_violation():
    members = [m for m in lattice_box(2, 1) if m not in ((1, 1), (-1, -1))]
    res = check_semilattice(members, 2, 1)
    assert not res.passed
    assert "sigma + 2 tau" in res.detail
    assert res.witness["missing"] in ((1, 1), (-1, -1))


def test_semilattice_rank_deficient():
    res = check_semilattice([(0, 0), (1, 0), (-1, 0)], 2, 1)
    assert not res.passed
    assert "rank" in res.detail


def test_semilattice_even_sublattice():
    # 2Z^2 plus the odd-diagonal coset is a semilattice that is not a lattice
    members = [m for m in lattice_box(2, 2) if (m[0] % 2 == 0 and m[1] % 2 == 0)
               or (m[0] % 2 == 1 and m[1] % 2 == 1)]
    res = check_semilattice(members, 2, 2)
    assert res.passed


def test_support_sets_are_full_interior(torus_win):
    sup = support_sets(torus_win)
    box = frozenset(lattice_box(2, 1))
    assert sup.s_set == box
    assert sup.l_set == box
    assert sup.e_set is None
    for a, deltas in sup.per_root.items():
        assert deltas == box


def test_support_checks_pass(torus_win):
    sup, results = support_checks(torus_win)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert names == [
        "support-partition",
        "support-sums-isotropic",
        "isotropic-span-rank",
        "semilattice-S",
        "semilattice-L",
    ]


def test_support_checks_nullity_zero(sp4_win):
    sup, results = support_checks(sp4_win)
    assert all(r.passed for r in results)
    assert sup.s_set == frozenset([()])
