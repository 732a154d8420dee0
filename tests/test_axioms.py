"""Axiom suites: invariant-form checks, gradings, tameness, Serre relations."""

import pytest

from ealie.axioms import check_D, check_props, check_T, serre_check, tameness_check
from ealie.constructions import (
    CocycleExtensionAlgebra,
    ExtensionSpec,
    TorusMatrixAlgebra,
    affinize,
)
from ealie.decomp import core_and_center_window, decompose_window, sl2_triple
from ealie.finroot import Root
from ealie.quantum_torus import SignMatrix

from conftest import Q_MIXED


def _failed(report):
    return [r.name for r in report.results if not r.passed]


# -- passing runs ----------------------------------------------------------------


def test_check_T_passes_on_affinized(aff_win):
    report = check_T(aff_win, seed=1)
    assert report.passed, _failed(report)
    assert report.suite == "T"


def test_check_T_passes_on_classical(sp4_win):
    report = check_T(sp4_win, seed=1)
    assert report.passed, _failed(report)


def test_check_D_passes_on_torus(torus_win):
    report = check_D(torus_win, seed=1)
    assert report.passed, _failed(report)
    assert len(report.results) == 15


def test_check_D_passes_at_nullity_one():
    alg = TorusMatrixAlgebra(2, SignMatrix.from_upper(1, []))
    win = decompose_window(alg, 1)
    report = check_D(win, seed=2)
    assert report.passed, _failed(report)


def test_props_pass_on_affinized_core(aff_win, aff_core):
    report = check_props(aff_win, aff_core, seed=1)
    assert report.passed, _failed(report)


def test_tameness_passes_on_affinized_core(aff_win, aff_core):
    report = tameness_check(aff_win, aff_core)
    assert report.passed, _failed(report)
    assert [r.name for r in report.results] == [
        "tame-centralizer-in-core",
        "tame-core-perp-equals-center",
        "tame-routes-agree",
    ]


# -- the full matrix algebra is not graded-simple --------------------------------


def test_underived_algebra_fails_exactly_zero_weight_span():
    alg = TorusMatrixAlgebra(2, Q_MIXED, derived=False)
    win = decompose_window(alg, 1)
    report = check_D(win, seed=1)
    assert _failed(report) == ["D8-zero-weight-spanned"]
    bad = next(r for r in report.results if r.name == "D8-zero-weight-spanned")
    assert bad.witness is not None


# -- a perturbed form breaks symmetry --------------------------------------------


class _AsymmetricForm:
    """Window wrapper whose form gains a one-sided c-d term."""

    def __init__(self, win):
        self._win = win

    def __getattr__(self, name):
        return getattr(self._win, name)

    def form(self, x, y):
        return self._win.form(x, y) + x.c[0] * y.d[0]


def test_asymmetric_form_detected(aff_win):
    report = check_T(_AsymmetricForm(aff_win), seed=1)
    assert not report.passed
    sym = next(r for r in report.results if r.name == "T1-form-symmetric")
    assert not sym.passed


class _TwoAsymmetricRoots:
    """Window wrapper whose form gains 1 on (x, y), in that order only, where x and
    y are the first basis vectors of a root and of its opposite."""

    def __init__(self, win, roots):
        self._win = win
        self._pairs = {(id(win.basis(r)[0]), id(win.basis(-r)[0])) for r in roots}

    def __getattr__(self, name):
        return getattr(self._win, name)

    def form(self, x, y):
        val = self._win.form(x, y)
        return val + 1 if (id(x), id(y)) in self._pairs else val


def test_form_symmetry_witness_is_first_root(sp4_win):
    a = Root(finite=(1, 1), lattice=())
    b = Root(finite=(2, 0), lattice=())
    report = check_T(_TwoAsymmetricRoots(sp4_win, [a, b]), seed=1)
    sym = next(r for r in report.results if r.name == "T1-form-symmetric")
    assert not sym.passed
    # a, -a, b and -b all pair asymmetrically; the earliest window root is named
    assert sym.witness == {"root": Root(finite=(-2, 0), lattice=())}


def test_T4_enforces_nilpotency_bound(sp4_win):
    t4 = next(r for r in check_T(sp4_win, seed=1).results if r.name == "T4-locally-nilpotent")
    assert t4.passed
    assert "longest chain 3 (bound 9, cap 17)" in t4.detail
    report = check_T(sp4_win, seed=1, nilpotency_bound=2)
    t4 = next(r for r in report.results if r.name == "T4-locally-nilpotent")
    assert not t4.passed
    assert t4.witness["chain_length"] == 3
    assert t4.witness["bound"] == 2
    assert _failed(report) == ["T4-locally-nilpotent"]


# -- padding the center with a hyperbolic plane breaks tameness ------------------


class _CenterPadded(CocycleExtensionAlgebra):
    """Affinized algebra plus two central generators pairing only each other.

    The extra plane never meets any bracket, so the core ignores it, yet it
    centralizes the core and is perpendicular to it.  Both tameness routes
    must flag it.
    """

    def __init__(self, base):
        super().__init__(ExtensionSpec(base, 2, name="padding"))
        self.nu = base.nu
        self.fin = base.fin

    def form(self, x, y):
        return self.base.form(x.a, y.a) + x.e[0] * y.e[1] + x.e[1] * y.e[0]

    def toral_basis(self):
        return [self.lift(h) for h in self.base.toral_basis()]

    def window_degrees(self, w):
        return self.base.window_degrees(w)

    def graded_pieces(self, sigma):
        out = {
            weight: [self.lift(x) for x in basis]
            for weight, basis in self.base.graded_pieces(sigma).items()
        }
        if not any(sigma):
            zero = self.fin.zero
            out[zero] = list(out.get(zero, ())) + [self.e_gen(0), self.e_gen(1)]
        return out

    def root_piece(self, root):
        return self.graded_pieces(root.lattice).get(root.finite, [])

    def root_functional(self, root):
        return self.base.root_functional(root)

    def member_oracle(self, root):
        return self.base.member_oracle(root)


def test_padded_center_fails_both_tameness_routes():
    alg = _CenterPadded(affinize(TorusMatrixAlgebra(2, Q_MIXED)))
    win = decompose_window(alg, 1)
    core = core_and_center_window(win)
    byname = {r.name: r for r in tameness_check(win, core).results}
    assert not byname["tame-centralizer-in-core"].passed
    assert not byname["tame-core-perp-equals-center"].passed
    assert byname["tame-routes-agree"].passed


# -- Serre relations -------------------------------------------------------------


def test_serre_rank_two(torus_win):
    report = serre_check(torus_win)
    assert report.passed, _failed(report)
    assert report.cartan == [[2, -1], [-2, 2]]
    assert report.degree_zero is True


def test_serre_rank_three():
    alg = TorusMatrixAlgebra(3, SignMatrix(0), real_only=True)
    win = decompose_window(alg, 0)
    report = serre_check(win)
    assert report.passed, _failed(report)
    assert report.cartan == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]


def test_serre_shifted_preimages(torus_win):
    report = serre_check(torus_win, lattice_shifts=[(1, 0), (0, 0)])
    byname = {r.name: r for r in report.results}
    for name in ("serre-h-commute", "serre-h-action", "serre-e-f-pairing",
                 "serre-theta-relations", "serre-cartan-diagonal"):
        assert byname[name].passed, name
    assert not byname["serre-degree-zero-grading"].passed
    assert report.degree_zero is False
    assert list(report.shifts) == [(1, 0), (0, 0)]


def test_serre_shift_count_validated(torus_win):
    with pytest.raises(ValueError):
        serre_check(torus_win, lattice_shifts=[(1, 0)])


class _CartansDoNotCommute:
    """Window wrapper whose bracket of two different Serre Cartan elements h_i, h_j
    returns h_i instead of 0."""

    def __init__(self, win):
        self._win = win
        self._hs = [
            sl2_triple(win, Root(finite=a, lattice=(0,) * win.alg.nu))[1]
            for a in win.fin.simple_roots
        ]

    def __getattr__(self, name):
        return getattr(self._win, name)

    def _index(self, x):
        return next((k for k, h in enumerate(self._hs) if x == h), None)

    def bracket(self, x, y):
        i, j = self._index(x), self._index(y)
        if i is not None and j is not None and i != j:
            return x
        return self._win.bracket(x, y)


def test_serre_witness_is_first_failing_pair(torus_win):
    report = serre_check(_CartansDoNotCommute(torus_win))
    byname = {r.name: r for r in report.results}
    assert _failed(report) == ["serre-h-commute"]
    # (0, 1) and (1, 0) both fail; the first one in (i, j) order is named
    assert byname["serre-h-commute"].witness == {"i": 0, "j": 1}
