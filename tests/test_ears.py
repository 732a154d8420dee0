"""Root-system axioms, support sets, semilattice conditions."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

import ealie.ears
from ealie import cli
from ealie.decomp import GradedPiece, RootSystemWindow
from ealie.ears import (
    STRING_SCAN,
    check_ears_axioms,
    check_semilattice,
    first_broken_string,
    support_checks,
    support_sets,
)
from ealie.finroot import Root, root_string
from ealie.quantum_torus import lattice_box

from oracles import literal_first_broken_string, probe_flags


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
    """A finite root set at nullity 0 with the dot product as its form.

    By default two orthogonal rank-1 systems: everything holds except
    connectedness.
    """

    def __init__(self, finite=((1, 0), (-1, 0), (0, 1), (0, -1))):
        dim = len(finite[0])
        # at nullity 0 a flat vector is its finite part
        self.fin = SimpleNamespace(rank=dim, contains=self.member)
        self.alg = SimpleNamespace(nu=0)
        self.w = 0
        self._nonzero = [Root(finite=a, lattice=()) for a in finite]
        self._zero = Root(finite=(0,) * dim, lattice=())
        self._set = set(self._nonzero) | {self._zero}
        self.pieces = dict.fromkeys(self._set)
        self.vectors = frozenset(r.finite + r.lattice for r in self._set)

    def roots(self):
        return sorted(self._set)

    def nonisotropic_roots(self):
        return list(self._nonzero)

    def isotropic_roots(self):
        return [self._zero]

    def member(self, v):
        return Root(finite=tuple(v), lattice=()) in self._set

    def pairing(self, a, b):
        return Fraction(sum(x * y for x, y in zip(a.finite, b.finite)))

    def is_isotropic(self, root):
        return not self.pairing(root, root)

    def broken_string(self):
        return first_broken_string(self)


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


# A1 on the first coordinate, orthogonal to A2 on the other three with the
# root e1 - e2 removed: +-a passes against every beta, the A2 strings that
# reach the removed root break, and -(e1 - e2) is left without a negative.
_A1 = ((1, 0, 0, 0), (-1, 0, 0, 0))
_A2_BROKEN = ((0, 1, 0, -1), (0, 0, 1, -1), (0, -1, 1, 0), (0, -1, 0, 1), (0, 0, -1, 1))


def _counting_root_string(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)  # (beta, alpha, flags, c)
        return root_string(*args, **kwargs)

    monkeypatch.setattr(ealie.ears, "root_string", counted)
    return calls


def _perturbed(win, removed=(), added=()):
    pieces = {r: p for r, p in win.pieces.items() if r not in removed}
    pieces.update((r, GradedPiece(root=r, basis=())) for r in added)
    return RootSystemWindow(win.alg, win.w, pieces)


# (fixture, roots removed, vectors added); torus_win has w = 1
_R4_WINDOWS = {
    "torus": ("torus_win", (), ()),
    "affinized": ("aff_win", (), ()),
    "nullity-0": ("sp4_win", (), ()),
    "removed-interior": ("torus_win", (Root(finite=(1, 1), lattice=(0, 0)),), ()),
    "removed-edge": ("torus_win", (Root(finite=(0, 2), lattice=(-1, 1)),), ()),
    "added-interior": ("torus_win", (), (Root(finite=(1, 0), lattice=(0, 0)),)),
    "added-edge": ("torus_win", (), (Root(finite=(3, 1), lattice=(1, -1)),)),
}


@pytest.mark.parametrize("finite", [_A1 + _A2_BROKEN, _A2_BROKEN + _A1],
                         ids=["passing-pair-first", "broken-first"])
def test_first_broken_string_matches_literal_double_loop(finite):
    win = _FakeWindow(finite)
    expected = literal_first_broken_string(win, STRING_SCAN)
    assert expected is not None
    alpha, beta, err = first_broken_string(win)
    assert (alpha, beta, str(err)) == expected


def test_first_broken_string_non_integral_cartan_number():
    # the string through -(1,1) along (3,0) would need 2(-3)/9 = -2/3 as d - u
    win = _FakeWindow(((3, 0), (-3, 0), (1, 1), (-1, -1)))
    expected = literal_first_broken_string(win, STRING_SCAN)
    assert expected is not None
    assert expected[2].endswith("along (3, 0): non-integral length difference -2/3")
    alpha, beta, err = first_broken_string(win)
    assert (alpha, beta, str(err)) == expected


def test_first_broken_string_matches_literal_double_loop_at_nullity_two(torus_win):
    win = _perturbed(torus_win, removed=(Root(finite=(1, 1), lattice=(1, 0)),))
    expected = literal_first_broken_string(win, STRING_SCAN)
    assert expected is not None
    alpha, beta, err = first_broken_string(win)
    assert (alpha, beta, str(err)) == expected


@pytest.mark.parametrize("name", sorted(_R4_WINDOWS))
def test_first_broken_string_matches_literal_oracle(request, name):
    fixture, removed, added = _R4_WINDOWS[name]
    win = _perturbed(request.getfixturevalue(fixture), removed, added)
    expected = literal_first_broken_string(win, STRING_SCAN)
    assert (expected is None) == (not removed and not added)
    got = first_broken_string(win)
    if got is not None:
        got = (got[0], got[1], str(got[2]))
    assert got == expected


@pytest.mark.parametrize("name", sorted(_R4_WINDOWS))
def test_string_flags_are_the_member_probes(monkeypatch, request, name):
    # the literal loop, forced on the full windows too, with a string rule
    # that never fails, so every (alpha, beta) is scanned even where strings
    # break: each nonisotropic alpha against each beta in root order, every
    # flag list copied when the rule reads it
    fixture, removed, added = _R4_WINDOWS[name]
    win = _perturbed(request.getfixturevalue(fixture), removed, added)
    monkeypatch.setattr(ealie.ears, "_finite_strings_hold", lambda win: False)
    seen = []
    monkeypatch.setattr(ealie.ears, "root_string",
                        lambda beta, alpha, flags, c: seen.append((beta, alpha, list(flags))))
    assert first_broken_string(win) is None
    assert [(beta, alpha) for beta, alpha, _ in seen] == [
        (b.finite + b.lattice, a.finite + a.lattice)
        for a in win.nonisotropic_roots() for b in win.roots()
    ]
    for beta, alpha, flags in seen:
        assert flags == probe_flags(win.member, beta, alpha, STRING_SCAN), (beta, alpha)


@pytest.mark.parametrize("fixture", ["aff_win", "sp4_win", "sqrt_win"])
def test_literal_loop_agrees_with_finite_pairs_on_full_windows(monkeypatch, request, fixture):
    # decompose_window builds only full windows, so only a forced fallback
    # runs the literal loop there
    win = request.getfixturevalue(fixture)
    assert ealie.ears._finite_strings_hold(win)
    monkeypatch.setattr(ealie.ears, "_finite_strings_hold", lambda win: False)
    assert first_broken_string(win) is None


@pytest.mark.parametrize("fixture", ["torus_win", "aff_win", "sp4_win", "sqrt_win"])
def test_decomposed_windows_are_full(request, fixture):
    """The premise of the finite-pair route, pinned without it: the window
    holds every finite part at every degree of its box, and the member probes
    of each root string are the finite-part mask of its pair."""
    win = request.getfixturevalue(fixture)
    finite = {r.finite for r in win.roots()}
    assert win.vectors == {f + l for f in finite for l in lattice_box(win.alg.nu, win.w)}
    offsets = range(-STRING_SCAN, STRING_SCAN + 1)
    for alpha in win.nonisotropic_roots():
        for beta in win.roots():
            mask = [tuple(b + n * a for b, a in zip(beta.finite, alpha.finite)) in finite
                    for n in offsets]
            flags = probe_flags(win.member, beta.finite + beta.lattice,
                                alpha.finite + alpha.lattice, STRING_SCAN)
            assert flags == mask, (alpha, beta)


@pytest.mark.parametrize("fixture", ["torus_win", "torus_win2"])
def test_full_window_scans_one_string_per_finite_pair(monkeypatch, request, fixture):
    # C2 at nullity 2: 4 ±classes of nonzero finite parts against 9 finite
    # parts, at w 1 (81 roots) and at w 2 (225 roots) alike
    win = request.getfixturevalue(fixture)
    calls = _counting_root_string(monkeypatch)
    assert first_broken_string(win) is None
    finite = {r.finite for r in win.roots()}
    classes = {frozenset({a.finite, (-a).finite}) for a in win.nonisotropic_roots()}
    assert len(calls) == len(classes) * len(finite) == 4 * 9


def test_first_broken_string_where_fin_has_roots_the_window_lacks(torus_win):
    # every long root removed at every degree: the window is the full product
    # of the short roots and 0 with the box, and those strings are unbroken
    # among themselves, but beyond the box fin still holds (-2, 0): the
    # string of (-1, -1) + (-1, -1) through (-1, 1) + (-1, -1) reaches it
    # there and breaks the length formula
    long_roots = torus_win.fin.long_roots()
    win = _perturbed(torus_win, [r for r in torus_win.roots() if r.finite in long_roots])
    expected = literal_first_broken_string(win, STRING_SCAN)
    assert expected is not None
    alpha, beta, err = first_broken_string(win)
    assert (alpha, beta, str(err)) == expected


def test_r4_and_prop_root_strings_share_one_scan(monkeypatch, capsys, sp4_win):
    calls = _counting_root_string(monkeypatch)
    argv = ["check", "--construction", "sp-classical", "--ell", "2", "--suites", "EARS,PROPS"]
    assert cli.main(argv) == 0
    results = {r["name"]: r["passed"] for suite in json.loads(capsys.readouterr().out)["suite_results"].values()
               for r in suite["results"]}
    assert results["R4-root-strings"] and results["prop-root-strings"]
    assert len(calls) == len(sp4_win.nonisotropic_roots()) // 2 * len(sp4_win.roots())


def test_support_sum_witness_with_a_missing_isotropic_piece(torus_win):
    missing = Root(finite=(0, 0), lattice=(1, 0))
    pieces = {r: p for r, p in torus_win.pieces.items() if r != missing}
    win = RootSystemWindow(torus_win.alg, torus_win.w, pieces)
    _, results = support_checks(win)
    sums = _by_name(results)["support-sums-isotropic"]
    assert not sums.passed
    assert sums.witness == {"first": (0, -1), "second": (1, 1), "sum": (1, 0)}


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
