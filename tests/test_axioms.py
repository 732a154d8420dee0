"""Axiom suites: invariant-form checks, gradings, tameness, Serre relations."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ealie import axioms, decomp
from ealie.axioms import (
    _form_checks,
    check_D,
    check_props,
    check_T,
    newp_pair,
    serre_check,
    tameness_check,
)
from ealie.constructions import (
    AffinizedElement,
    CocycleExtensionAlgebra,
    ExtensionSpec,
    SqrtExtensionAlgebra,
    SqrtMatrix,
    TorusMatrixAlgebra,
    _degree_pairings,
    affinize,
)
from ealie.decomp import (
    DecompositionError,
    GradedPiece,
    RootSystemWindow,
    combine,
    core_and_center_window,
    decompose_window,
    isotropic_pair,
    sl2_triple,
)
from ealie.exact_arith import GaussianRational
from ealie.finroot import Root
from ealie.linalg import SpanDict, span_equal
from ealie.matlie import LieElement
from ealie.quantum_torus import SignMatrix, TorusElement, lattice_box, torus_form, unit_degrees

from conftest import Q_MIXED
from oracles import (
    literal_cartan_scan,
    literal_core_center,
    literal_core_radical,
    literal_first_asymmetric_root,
    literal_first_non_additive_pair,
    literal_first_non_invariant_triple,
    literal_first_noncentral_delta,
    literal_first_nonorthogonal_isotropic,
    literal_first_undivided_root,
    literal_first_unsolvable_root,
    literal_first_unequal_pairing,
    literal_first_ungraded_pair,
    literal_invariance_classes,
    literal_invariance_record,
    literal_longest_ad_chain,
    literal_zero_sum_triples,
    literal_zero_weight_spanned,
)


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


_D_REPORTS = {}


def _d_report(name, win):
    """check_D(win, seed=1) of a fixture's window, run once per fixture and
    shared by the tests that read it."""
    if name not in _D_REPORTS:
        _D_REPORTS[name] = check_D(win, seed=1)
    return _D_REPORTS[name]


@pytest.fixture(scope="module")
def underived_torus_win():
    """The window of the pinned ``check --construction quantum-torus --nu 2
    --q -1 --underived --suites D,EARS`` report."""
    return decompose_window(TorusMatrixAlgebra(2, Q_MIXED, derived=False), 1)


def test_check_D_passes_on_torus(torus_win):
    report = _d_report("torus_win", torus_win)
    assert report.passed, _failed(report)
    assert len(report.results) == 15


def test_check_D_passes_at_nullity_one():
    alg = TorusMatrixAlgebra(2, SignMatrix.from_upper(1, []))
    win = decompose_window(alg, 1)
    report = check_D(win, seed=2)
    assert report.passed, _failed(report)


def test_D8_builds_each_slice_once(torus_win, monkeypatch):
    alg = torus_win.alg
    calls = Counter()
    root_piece = alg.root_piece

    def counted(root):
        calls[root] += 1
        return root_piece(root)

    monkeypatch.setattr(alg, "root_piece", counted)
    d8 = next(r for r in check_D(torus_win, seed=1).results if r.name == "D8-zero-weight-spanned")
    assert d8.passed
    assert calls and max(calls.values()) == 1


def test_props_pass_on_affinized_core(aff_win, aff_core):
    report = check_props(aff_win, aff_core)
    assert report.passed, _failed(report)


def test_normalized_pairs(torus_win, aff_win, aff_core):
    # D12b and prop-central-image-pairs share one solve; check what each returns
    for delta in torus_win.isotropic_roots():
        x, y = isotropic_pair(torus_win, delta, require_zero_bracket=True)
        assert torus_win.bracket(x, y).is_zero() and torus_win.form(x, y) == 1
    center = SpanDict(aff_win.coords(z) for z in aff_core.center)
    assert center.dim
    for delta in aff_win.isotropic_roots():
        x, y = newp_pair(aff_win, aff_core, delta)
        assert center.contains(aff_win.coords(aff_win.bracket(x, y)))
        assert aff_win.form(x, y) == 1


def test_tameness_passes_on_affinized_core(aff_win, aff_core):
    report = tameness_check(aff_win, aff_core)
    assert report.passed, _failed(report)
    assert [r.name for r in report.results] == [
        "tame-centralizer-in-core",
        "tame-core-perp-equals-center",
        "tame-routes-agree",
    ]


def test_tameness_brackets_and_forms_nothing(aff_win, aff_core):
    """The core solved the centralizer and the perpendicular; TAME compares spans."""
    scan = _Counting(aff_win)
    assert tameness_check(scan, aff_core).passed
    assert (scan.brackets, scan.forms) == (0, 0)


def test_only_check_T_brackets_opposite_nonisotropic_basis_pairs(aff_win):
    """Over a counted algebra, core_and_center_window brackets no pair of
    opposite nonisotropic basis vectors.  check_T brackets each of the 90
    such +-alpha basis pairs once for the window's bracket table, which T3
    builds.  T1's invariance scan, which keeps the (alpha, -alpha) block as
    elements to form them with the zero slice, brackets 25 of them again:
    those of the classes it decides, the others being Weyl images.
    serre_check and check_props then bracket none: SERRE's sl2 triples and
    PROPS' prop-h-alpha-sum and prop-bracket-form-normalization read the
    tables.  PROPS forms no opposite basis pair that T1's Gram tables
    formed."""
    alg = _CountingAlgebra(aff_win.alg)
    win = RootSystemWindow(alg, aff_win.w, aff_win.pieces)
    root_of = {id(x): root for root, x in aff_win.all_basis()}

    def opposite(calls, unordered):
        pairs = Counter()
        for x, y in calls:
            rx, ry = root_of.get(id(x)), root_of.get(id(y))
            if rx is not None and ry == -rx and not (unordered and win.is_isotropic(rx)):
                pairs[frozenset((id(x), id(y))) if unordered else (id(x), id(y))] += 1
        calls.clear()
        return pairs

    core = core_and_center_window(win)
    assert opposite(alg.bracketed, True) == Counter()
    alg.formed.clear()
    assert check_T(win, seed=1).passed
    pairs, t_formed = opposite(alg.bracketed, True), opposite(alg.formed, False)
    nonisotropic = win.nonisotropic_roots()
    assert len(pairs) == sum(win.dim(a) * win.dim(-a) for a in nonisotropic) // 2 == 90
    assert Counter(pairs.values()) == Counter({1: 65, 2: 25})
    assert serre_check(win).passed
    props = check_props(win, core)
    assert props.passed, _failed(props)
    assert opposite(alg.bracketed, True) == Counter()
    assert t_formed and not opposite(alg.formed, False).keys() & t_formed.keys()


# -- form invariance by cyclic classes --------------------------------------------


class _CountingAlgebra:
    """Algebra wrapper recording each bracketed and each formed pair (x, y)."""

    def __init__(self, alg):
        self._alg = alg
        self.bracketed = []
        self.formed = []

    def __getattr__(self, name):
        return getattr(self._alg, name)

    def bracket(self, x, y):
        self.bracketed.append((x, y))
        return self._alg.bracket(x, y)

    def form(self, x, y):
        self.formed.append((x, y))
        return self._alg.form(x, y)


class _Rebuilt(RootSystemWindow):
    """A fixture window's slices, (alg, w, pieces), as a window of its own:
    a subclass's bracket, form, basis or rep_t override then reaches the
    bracket and Gram tables the window builds, which a wrapper forwarding
    to the fixture window (and to its cached tables) would miss."""

    def __init__(self, win):
        super().__init__(win.alg, win.w, win.pieces)


class _Recording:
    """Mixin recording each bracket (x, y, [x, y]) and counting form calls."""

    def __init__(self, *args):
        self.bracketed = []
        self.forms = 0
        super().__init__(*args)

    @property
    def brackets(self):
        return len(self.bracketed)

    def bracket(self, x, y):
        out = super().bracket(x, y)
        self.bracketed.append((x, y, out))
        return out

    def form(self, x, y):
        self.forms += 1
        return super().form(x, y)


class _Counting(_Recording, _Rebuilt):
    """A fixture window rebuilt to record its brackets and count its forms."""


def _scanned(scan):
    """``scan`` after its invariance scan, its record kept as ``record``, with
    the brackets and forms of the scan alone: those of the Gram tables
    ``asymmetric_root`` reads are cleared first."""
    scan.asymmetric_root()
    scan.bracketed.clear()
    scan.forms = 0
    scan.record = scan.invariance()
    return scan


_LEAN_SCANS = {}


def _lean_scan(fixture, win):
    """The invariance scan of a session window, counted, with its record;
    run once per fixture and shared by the tests that read its brackets.
    The form is symmetric, so the scan takes the mirror rule; the counting
    window overrides ``bracket`` and ``form``, so it merges no Weyl images."""
    if fixture not in _LEAN_SCANS:
        scan = _scanned(_Counting(win))
        assert scan.asymmetric_root() is None and not scan.weyl_maps()
        assert scan.record == {}
        _LEAN_SCANS[fixture] = scan
    return _LEAN_SCANS[fixture]


def _t1_witness(win):
    """The roots of T1's invariance witness on ``win``, or None."""
    witness = _form_check(win, "T1-form-invariant").witness
    return witness and witness["roots"]


@pytest.mark.parametrize("fixture, brackets, forms, two_sided", [
    ("aff_win", 5263, 8306, 33224),
    ("torus_win", 4663, 7402, 29608),
    ("sp4_win", 36, 32, 128),
], ids=["aff_win", "torus_win", "sp4_win"])
def test_invariance_scan_halves_brackets_and_forms(fixture, brackets, forms, two_sided, request):
    """The scan of a window whose form is found asymmetric forms both
    sides; the form there differs only on two basis vectors, which no
    invariance form value reads, so the scan passes as the literal loop does.
    Neither scan forms a zero bracket, which the literal loop does."""
    win = request.getfixturevalue(fixture)
    literal = _Counting(win)
    assert literal_first_non_invariant_triple(literal, literal_zero_sum_triples(win)) is None
    lean = _lean_scan(fixture, win)
    both_sides = _scanned(_CountingOneSided(win, win.nonisotropic_roots()[:1]))
    assert both_sides.asymmetric_root() is not None and both_sides.record == {}
    # without symmetry: one bracket per ordered block of a cyclic class, both sides
    assert 2 * both_sides.brackets == literal.brackets
    assert both_sides.forms == two_sided < literal.forms
    # with symmetry: one form value per basis triple, and each class decided with
    # its mirror class; classes with a repeated root are their own mirror
    assert (lean.brackets, lean.forms) == (brackets, forms)


@pytest.mark.parametrize("fixture", ["torus_win", "aff_win"])
def test_bracket_antisymmetric_on_every_invariance_block(fixture, request):
    # the mirror rule's premise, on every pair the symmetric scan brackets
    win = request.getfixturevalue(fixture)
    scan = _lean_scan(fixture, win)
    assert scan.bracketed
    for x, y, xy in scan.bracketed:
        assert (win.bracket(y, x) + xy).is_zero()


@pytest.mark.parametrize("fixture", ["sp4_win", "sqrt_win"])
def test_bracket_antisymmetric_on_every_basis_pair(fixture, request):
    win = request.getfixturevalue(fixture)
    flat = [x for _, x in win.all_basis()]
    for i, x in enumerate(flat):
        for y in flat[i:]:
            assert (win.bracket(x, y) + win.bracket(y, x)).is_zero()


class _PerturbedBracket(_Rebuilt):
    """A fixture window whose bracket adds v to [x, y] and -v to [y, x], where
    x, y, v are the i-th, j-th and k-th basis vectors of the slices a, b and
    a + b.  The bracket stays antisymmetric and graded, but the form is no
    longer invariant."""

    def __init__(self, win, a, b, i=0, j=0, k=0):
        super().__init__(win)
        x, y = win.basis(a)[i], win.basis(b)[j]
        v = win.basis(a + b)[k]
        self._delta = {(id(x), id(y)): v, (id(y), id(x)): -v}

    def bracket(self, x, y):
        out = super().bracket(x, y)
        delta = self._delta.get((id(x), id(y)))
        return out if delta is None else out + delta


class _PerturbedOneSided(_PerturbedBracket):
    """A ``_PerturbedBracket`` window whose form gains 1 on (x, y), in that
    order only, x and y the first basis vectors of the slices of the first
    nonisotropic root and of its opposite."""

    def __init__(self, win, a, b, i=0, j=0, k=0):
        super().__init__(win, a, b, i, j, k)
        root = win.nonisotropic_roots()[0]
        self._pair = id(win.basis(root)[0]), id(win.basis(-root)[0])

    def form(self, x, y):
        val = super().form(x, y)
        return val + 1 if (id(x), id(y)) == self._pair else val


def _root(finite, lattice):
    return Root(finite=finite, lattice=lattice)


_ZERO2 = _root((0, 0), (0, 0))


@pytest.mark.parametrize("fixture, a, b, ijk, first", [
    # inside the Cartan slice: only the class (0, 0, 0) breaks, halfway down the list
    ("aff_win", _ZERO2, _ZERO2, (0, 1, 1), 1200),
    ("sp4_win", _root((0, 0), ()), _root((0, 0), ()), (0, 1, 0), 24),
    ("torus_win", _root((0, 0), (0, -1)), _root((0, 0), (0, 1)), (0, 0, 0), 1133),
    ("aff_win", _root((2, 0), (0, 1)), _root((-1, -1), (1, 0)), (0, 0, 0), 465),
    ("torus_win", _root((-1, 1), (-1, 1)), _root((-1, -1), (0, -1)), (0, 0, 0), 281),
    ("sp4_win", _root((1, -1), ()), _root((0, 2), ()), (0, 0, 0), 6),
])
def test_invariance_witness_matches_literal_loop_on_perturbed_windows(
    fixture, a, b, ijk, first, request
):
    """With the mirror rule, and without it on the same window with a form
    found asymmetric on two basis vectors, which no invariance form value
    reads."""
    fixture_win = request.getfixturevalue(fixture)
    win = _PerturbedBracket(fixture_win, a, b, *ijk)
    one_sided = _PerturbedOneSided(fixture_win, a, b, *ijk)
    assert win.asymmetric_root() is None and one_sided.asymmetric_root() is not None
    triples = literal_zero_sum_triples(win)
    witness = literal_first_non_invariant_triple(win, triples)
    assert triples.index(tuple(witness)) == first
    assert _t1_witness(win) == _t1_witness(one_sided) == witness


# -- form invariance by Weyl classes --------------------------------------------


class _TableAlgebra:
    """Algebra wrapper whose ``simple_reflections()`` is the given table."""

    def __init__(self, alg, table):
        self._alg = alg
        self._table = table

    def __getattr__(self, name):
        return getattr(self._alg, name)

    def simple_reflections(self):
        return self._table


def _wrong_sign(moves):
    """``moves`` with the sign of index 0 flipped: the matrix is no longer symplectic."""
    (p, s), *rest = moves
    return ((p, -s), *rest)


def _scan_counts(alg, fixture_win):
    """The invariance record of ``fixture_win``'s slices over ``alg``, and
    the brackets and forms of that scan alone, counted through the algebra:
    the window keeps its own ``bracket`` and ``form``, so the scan merges
    the Weyl images of every reflection the window keeps."""
    counted = _CountingAlgebra(alg)
    win = RootSystemWindow(counted, fixture_win.w, fixture_win.pieces)
    win.asymmetric_root()
    counted.bracketed.clear()
    counted.formed.clear()
    record = win.invariance()
    return record, len(counted.bracketed), len(counted.formed)


@pytest.mark.parametrize("fixture, brackets, forms, classes, members", [
    ("aff_win", 1544, 2383, 84, 2401),
    ("torus_win", 1256, 1919, 84, 2401),
    ("sp4_win", 17, 13, 4, 49),
], ids=["aff_win", "torus_win", "sp4_win"])
def test_weyl_classes_cut_brackets_and_forms(fixture, brackets, forms, classes, members, request):
    """Beside the counts of the scan without Weyl images: each
    <W, rotation, mirror> class is bracketed and formed once."""
    win = request.getfixturevalue(fixture)
    assert _scan_counts(win.alg, win) == ({}, brackets, forms)
    assert len(win.weyl_classes()) == classes
    assert sum(n for _, n in win.weyl_classes()) == len(literal_zero_sum_triples(win)) == members


@pytest.mark.parametrize("fixture", ["sp4_win", "torus_win", "aff_win"])
def test_bracket_and_form_are_weyl_equivariant(fixture, request):
    """The Weyl rule's premise, [sx, sy] = s[x, y] and (sx, sy) = (x, y) for
    each simple reflection s: on every basis pair of ``sp4_win``, on every
    pair the invariance scans of ``torus_win`` and ``aff_win`` bracket, and
    for the form on every pair of opposite basis vectors, the only pairs it
    can pair to nonzero."""
    win = request.getfixturevalue(fixture)
    alg = win.alg
    if fixture == "sp4_win":
        flat = [x for _, x in win.all_basis()]
        pairs = [(x, y, alg.bracket(x, y)) for x in flat for y in flat]
    else:
        pairs = _lean_scan(fixture, win).bracketed
    opposite = [(x, y) for root, x in win.all_basis() if -root in win.pieces for y in win.basis(-root)]
    for moves in alg.simple_reflections():
        for x, y, xy in pairs:
            sx, sy = x.reflect(moves), y.reflect(moves)
            assert alg.bracket(sx, sy) == xy.reflect(moves)
            assert alg.form(sx, sy) == alg.form(x, y)
        for x, y in opposite:
            assert alg.form(x.reflect(moves), y.reflect(moves)) == alg.form(x, y)


@pytest.mark.parametrize("fixture", [
    "torus_win", "torus_win2", "aff_win", "aff_win2", "sp4_win", "sqrt_win", "underived_win",
])
def test_every_fixture_window_keeps_every_simple_reflection(fixture, request):
    """The runtime slice map holds on every fixture window and on the base
    view of each affinized one, and each kept map is ``fin.reflect`` in the
    simple root on finite parts, degrees kept."""
    win = request.getfixturevalue(fixture)
    for w in [win, win.base_view()] if hasattr(win.alg, "base") else [win]:
        maps = w.weyl_maps()
        assert len(maps) == w.fin.rank
        for alpha, roots in zip(w.fin.simple_roots, maps):
            assert roots == {r: Root(finite=w.fin.reflect(alpha, r.finite), lattice=r.lattice)
                             for r in w.roots()}


def test_slice_map_reads_spans_not_basis_vectors():
    """At l = 3 a reflection maps i(hddot_r - hddot_(r+1)) in the zero slice
    to a sum of two basis vectors, which is no basis vector up to sign; the
    reflection is kept, since the image lies in the slice's span."""
    win = decompose_window(TorusMatrixAlgebra(3, Q_MIXED), 0)
    assert len(win.weyl_maps()) == 3
    zero = Root(finite=(0, 0, 0), lattice=(0, 0))
    basis = [win.coords(x) for x in win.basis(zero)]
    images = [win.coords(x.reflect(moves)) for moves in win.alg.simple_reflections()
              for x in win.basis(zero)]
    assert any(c not in basis and {k: -v for k, v in c.items()} not in basis for c in images)


def test_a_reflection_with_a_wrong_sign_is_dropped(aff_win):
    """Mutation: a reflection with one wrong sign fails the slice check, and
    a table holding it keeps no reflection at all.  A table holding only
    that entry leaves the scan without Weyl images: its record and counts
    are those of the scan without them."""
    table = aff_win.alg.simple_reflections()
    for i in range(len(table)):
        assert aff_win._slice_map(_wrong_sign(table[i])) is None
        mutated = table[:i] + (_wrong_sign(table[i]),) + table[i + 1:]
        win = RootSystemWindow(_TableAlgebra(aff_win.alg, mutated), aff_win.w, aff_win.pieces)
        assert win.weyl_maps() == ()
    lean = _lean_scan("aff_win", aff_win)
    alone = _TableAlgebra(aff_win.alg, (_wrong_sign(table[0]),))
    assert _scan_counts(alone, aff_win) == (lean.record, lean.brackets, lean.forms) == ({}, 5263, 8306)


class _LiftsCutAcrossAnOrbit(_Rebuilt):
    """A fixture window whose zero slice holds hdot_0, the imaginary lift,
    c_0, then hdot_1 and the other c and d vectors: the slice spans what it
    spanned, but its leading vectors, those ``lifted_dims`` counts as
    lifted, hold c_0 and not hdot_1."""

    def __init__(self, win):
        super().__init__(win)
        h0, h1, imaginary, c0, *rest = win.basis(_ZERO2)
        self.pieces = {**win.pieces, _ZERO2: GradedPiece(root=_ZERO2, basis=(h0, imaginary, c0, h1, *rest))}


def test_a_reflection_that_moves_lifted_vectors_off_the_lifts_is_dropped(aff_win):
    """The reflection in e_1 - e_2 maps hdot_0 to hdot_1, which is no longer
    among the lifted vectors, so it fails the slice check and no reflection
    is kept; the one in 2e_2 keeps them."""
    win = _LiftsCutAcrossAnOrbit(aff_win)
    assert win.lifted_dims() == aff_win.lifted_dims()
    first, second = win.alg.simple_reflections()
    assert win._slice_map(first) is None and win._slice_map(second) == aff_win.weyl_maps()[1]
    assert win.weyl_maps() == ()


@pytest.mark.parametrize("fixture", ["aff_win", "torus_win", "sp4_win", "sqrt_win", "aff_view"])
def test_weyl_record_is_the_record_without_weyl_images(fixture, request):
    """On the fixture windows and on the base view of ``aff_win``, which
    scans itself when its parent has not scanned."""
    if fixture == "aff_view":
        win = request.getfixturevalue("aff_win").base_view()
    else:
        win = request.getfixturevalue(fixture)
    fresh = RootSystemWindow(win.alg, win.w, win.pieces)
    assert fresh.weyl_maps() and fresh.invariance() == _lean_scan(fixture, win).record


def _fresh(fixture, request):
    """A fixture window rebuilt with no record, or, for ``aff_view``, the base
    view of a rebuilt ``aff_win`` that has not scanned, so the view scans
    itself."""
    name = "aff_win" if fixture == "aff_view" else fixture
    win = request.getfixturevalue(name)
    fresh = RootSystemWindow(win.alg, win.w, win.pieces)
    return fresh.base_view() if fixture == "aff_view" else fresh


@pytest.mark.parametrize("fixture", ["torus_win", "aff_win", "sp4_win", "sqrt_win", "aff_view", "torus_win2"])
def test_weyl_classes_are_the_listed_scan_classes(fixture, request):
    """The enumerated classes are those of the literal listed scan: the same
    first members, in list order, and member counts.  The record is the
    literal loop's (``torus_win2``'s, 17,689 root triples, is left to the
    other windows), and the count of basis triples is the literal sum."""
    win = _fresh(fixture, request)
    triples = literal_zero_sum_triples(win)
    symmetric = win.asymmetric_root() is None
    assert win.weyl_classes() == list(literal_invariance_classes(win, triples, symmetric).items())
    literal = {} if fixture == "torus_win2" else literal_invariance_record(win, triples, win.lifted_dims())
    assert win.invariance() == literal == {}
    assert win.basis_triple_count() == sum(win.dim(a) * win.dim(b) * win.dim(c) for a, b, c in triples)


class _WithoutDegree(RootSystemWindow):
    """A fixture window without the slices of one lattice degree: every
    reflection still maps its roots onto its roots, but it is not full."""

    def __init__(self, win, degree):
        super().__init__(win.alg, win.w, {r: p for r, p in win.pieces.items() if r.lattice != degree})


class _WithoutRoot(RootSystemWindow):
    """A fixture window without the slice of one root: a reflection maps a
    window root onto it, so no reflection is kept."""

    def __init__(self, win, root):
        super().__init__(win.alg, win.w, {r: p for r, p in win.pieces.items() if r != root})


def _irregular(name, request):
    """A window off the full-window route: not full with every reflection
    kept, missing one root, or with a table one of whose signs is wrong."""
    if name == "without-degree":
        return _WithoutDegree(request.getfixturevalue("torus_win"), (1, 1))
    if name == "without-root":
        return _WithoutRoot(request.getfixturevalue("torus_win"), _root((1, 1), (1, 0)))
    aff_win = request.getfixturevalue("aff_win")
    table = aff_win.alg.simple_reflections()
    alg = _TableAlgebra(aff_win.alg, (_wrong_sign(table[0]),) + table[1:])
    return RootSystemWindow(alg, aff_win.w, aff_win.pieces)


@pytest.mark.parametrize("name", ["without-degree", "without-root", "wrong-sign"])
def test_classes_of_irregular_windows_are_the_literal_classes(name, request):
    """Classes that lie outside the window are left out, and a window that
    keeps no reflection has the classes of rotations and mirrors alone;
    record and count of basis triples are the literal loop's."""
    win = _irregular(name, request)
    assert bool(win.weyl_maps()) == (name == "without-degree")
    triples = literal_zero_sum_triples(win)
    assert win.asymmetric_root() is None
    assert win.weyl_classes() == list(literal_invariance_classes(win, triples, True).items())
    assert win.invariance() == literal_invariance_record(win, triples, win.lifted_dims()) == {}
    assert win.basis_triple_count() == sum(win.dim(a) * win.dim(b) * win.dim(c) for a, b, c in triples)


@pytest.mark.parametrize("fixture", ["torus_win", "aff_win"])
@pytest.mark.parametrize("gone", [(1, 1), (0, 0), (-1, 0), _root((1, 1), (1, 0))],
                         ids=["degree-1-1", "degree-0-0", "degree-m1-0", "root"])
def test_invariance_witness_matches_literal_loop_on_perturbed_windows_that_are_not_full(
    fixture, gone, request
):
    """The perturbed slices (2, 0)@(-1, 1), (-1, -1)@(1, 0), their sum and its
    opposite all stay in the window."""
    win = request.getfixturevalue(fixture)
    partial = _WithoutRoot(win, gone) if isinstance(gone, Root) else _WithoutDegree(win, gone)
    perturbed = _PerturbedBracket(partial, _root((2, 0), (-1, 1)), _root((-1, -1), (1, 0)))
    witness = literal_first_non_invariant_triple(perturbed, literal_zero_sum_triples(perturbed))
    assert witness is not None
    assert _t1_witness(perturbed) == witness


def _up_to_sign(alg, x):
    """x's coordinates scaled by the sign that makes the first one positive, and that sign."""
    c = alg.coords(x)
    sign = 1 if not c or c[min(c)] > 0 else -1
    return frozenset((k, sign * v) for k, v in c.items()), sign


class _OrbitPerturbed:
    """Algebra wrapper whose bracket adds s(v) to [s(x), s(y)] and -s(v) to
    [s(y), s(x)] over the whole orbit of (x, y, v) under the table's
    reflections, x, y and v basis vectors of slices a, b and a + b; operands
    are matched up to sign.  Where the orbit meets the window's basis
    vectors up to sign, the bracket stays antisymmetric, graded and
    W-equivariant on them, and the form is no longer invariant."""

    def __init__(self, alg, x, y, v):
        self._alg = alg
        self._delta = {}
        orbit = [(x, y, v)]
        for x, y, v in orbit:
            (kx, sx), (ky, sy) = _up_to_sign(alg, x), _up_to_sign(alg, y)
            signed = v * (sx * sy)
            if (kx, ky) in self._delta:
                assert self._delta[kx, ky] == signed  # one perturbation per pair
                continue
            self._delta[kx, ky], self._delta[ky, kx] = signed, -signed
            orbit.extend((x.reflect(m), y.reflect(m), v.reflect(m)) for m in alg.simple_reflections())

    def __getattr__(self, name):
        return getattr(self._alg, name)

    def bracket(self, x, y):
        out = self._alg.bracket(x, y)
        (kx, sx), (ky, sy) = _up_to_sign(self._alg, x), _up_to_sign(self._alg, y)
        delta = self._delta.get((kx, ky))
        return out if delta is None else out + delta * (sx * sy)


@pytest.mark.parametrize("fixture, a, b", [
    ("sp4_win", _root((2, 0), ()), _root((-1, -1), ())),
    ("aff_win", _root((2, 0), (0, 1)), _root((-1, -1), (1, 0))),
])
def test_weyl_scan_names_the_literal_witness_of_an_equivariant_perturbation(fixture, a, b, request):
    """A perturbation of the algebra's bracket over a whole Weyl orbit keeps
    the Weyl rule's premises, so the window keeps every reflection; the
    failing classes closed under the reflections give the literal loop's
    record, which is that of the scan without Weyl images, and T1 names the
    first failing triple of the literal loop.  With a table whose one entry
    has a wrong sign, the scan merges nothing and counts what the scan
    without Weyl images counts."""
    base = request.getfixturevalue(fixture)
    alg = _OrbitPerturbed(base.alg, base.basis(a)[0], base.basis(b)[0], base.basis(a + b)[0])
    win = RootSystemWindow(alg, base.w, base.pieces)
    assert len(win.weyl_maps()) == win.fin.rank
    triples = literal_zero_sum_triples(win)
    witness = literal_first_non_invariant_triple(win, triples)
    assert witness is not None
    assert _t1_witness(win) == witness
    assert win.invariance() == literal_invariance_record(win, triples, win.lifted_dims())
    plain = _scanned(_Counting(win))
    assert plain.record == win.invariance()
    wrong = _TableAlgebra(alg, (_wrong_sign(alg.simple_reflections()[0]),))
    assert _scan_counts(wrong, base) == (win.invariance(), plain.brackets, plain.forms)


def test_weyl_scan_names_the_literal_witness_on_a_window_that_is_not_full(aff_win):
    """The equivariant perturbation of ``aff_win`` on a window without the
    degree (0, -1), which none of its slices uses: every reflection is kept,
    the classes through that degree are left out, and T1 names the first
    failing triple of the literal loop."""
    a, b = _root((2, 0), (0, 1)), _root((-1, -1), (1, 0))
    alg = _OrbitPerturbed(aff_win.alg, aff_win.basis(a)[0], aff_win.basis(b)[0], aff_win.basis(a + b)[0])
    win = _WithoutDegree(RootSystemWindow(alg, aff_win.w, aff_win.pieces), (0, -1))
    assert len(win.weyl_maps()) == win.fin.rank
    witness = literal_first_non_invariant_triple(win, literal_zero_sum_triples(win))
    assert witness is not None
    assert _t1_witness(win) == witness


# -- D on the base view of an affinized window ----------------------------------


def test_bracket_on_lifts_is_the_lifted_bracket_plus_a_central_part(aff_win):
    """The base view's first premise, on every pair of lifted vectors the
    invariance scan of ``aff_win`` brackets: [x, y] has the g part
    [x.g, y.g] of the base algebra and no d part."""
    alg = aff_win.alg
    lifted = [(x, y, xy) for x, y, xy in _lean_scan("aff_win", aff_win).bracketed
              if alg.base_part(x) is not None and alg.base_part(y) is not None]
    assert len(lifted) > 4000
    for x, y, xy in lifted:
        assert xy.g == alg.base.bracket(x.g, y.g) and not any(xy.d)


def test_form_on_lifts_is_the_base_form(aff_win):
    """The base view's second premise: lifted vectors of opposite slices pair
    as their base parts do, and a central vector pairs to 0 with every lift,
    so a lift plus a central part pairs with a lift as the base form says."""
    alg = aff_win.alg
    central = [alg.c_gen(i) for i in range(alg.nu)]
    for root, x in aff_win.all_basis():
        if alg.base_part(x) is None:
            continue
        for y in aff_win.basis(-root):
            if alg.base_part(y) is not None:
                assert alg.form(x, y) == alg.base.form(x.g, y.g)
        assert all(alg.form(c, x) == alg.form(x, c) == 0 for c in central)


def test_base_view_slices_are_the_lifted_parts(aff_win, torus_win):
    """The view keeps the roots and their order, drops the c and d vectors of
    the zero slice, and holds the base parts of the rest.  Once the parent
    has scanned, the view counts its basis triples by the parent's classes."""
    view = aff_win.base_view()
    assert view.alg is aff_win.alg.base and view.roots() == aff_win.roots()
    aff_win.invariance()
    assert view.weyl_classes() is aff_win.weyl_classes()
    for root in view.roots():
        lifted = aff_win.basis(root)[:aff_win.lifted_dims().get(root, aff_win.dim(root))]
        assert view.basis(root) == tuple(x.g for x in lifted)
        assert view.dim(root) == torus_win.dim(root)
    assert aff_win.dim(_ZERO2) - view.dim(_ZERO2) == 2 * aff_win.alg.nu


class _ExtraLiftedVector(_Rebuilt):
    """A fixture window whose zero slice gains a vector after its c and d
    vectors: the slice is no longer lifts followed by ``extension_basis()``."""

    def __init__(self, win):
        super().__init__(win)
        self.pieces = dict(win.pieces)
        basis = win.basis(_ZERO2)
        self.pieces[_ZERO2] = GradedPiece(root=_ZERO2, basis=basis + basis[:1])


def test_base_view_refuses_a_slice_that_is_no_lift(aff_win):
    with pytest.raises(DecompositionError, match=r"slice at .* is not the lift of a base slice"):
        _ExtraLiftedVector(aff_win).base_view()


@pytest.mark.parametrize("name", ["aff_win", "underived_win"])
def test_D_on_the_base_view_is_D_on_the_decomposed_base_window(request, torus_win, name):
    """check_D on the view reports what it reports on the base algebra
    decomposed on its own; ``torus_win`` decomposes the algebra ``aff_win``
    affinizes, with the same parameters."""
    win = request.getfixturevalue(name)
    base = win.alg.base
    if name == "aff_win":
        assert (torus_win.alg.ell, torus_win.alg.q, torus_win.alg.derived, torus_win.w) == (
            base.ell, base.q, base.derived, win.w)
        separate = _d_report("torus_win", torus_win)
    else:
        separate = check_D(decompose_window(base, win.w), seed=1)
    assert _d_report(name, win.base_view()).as_json() == separate.as_json()


def _cd_perturbed(aff_win):
    """``aff_win`` with c_0 added to [d_0, d_1]: invariance breaks only on
    triples through c and d vectors."""
    n, nu = aff_win.dim(_ZERO2), aff_win.alg.nu
    return _PerturbedBracket(aff_win, _ZERO2, _ZERO2, n - nu, n - nu + 1, n - 2 * nu)


def _form_check(win, name):
    prefix = name.split("-")[0]
    return {r.name: r for r in _form_checks(win, prefix)}[name]


def test_invariance_broken_off_the_lifts_fails_T1_only(aff_win):
    win = _cd_perturbed(aff_win)
    assert win.invariance() == {(_ZERO2, _ZERO2, _ZERO2): False}
    t1 = _form_check(win, "T1-form-invariant")
    assert t1.witness == {"roots": [_ZERO2, _ZERO2, _ZERO2]}
    assert _form_check(win.base_view(), "D1-form-invariant").passed


@pytest.mark.parametrize("a, b, ijk", [
    # lifted vectors of the zero slice, whose c and d vectors the record cuts off
    (_ZERO2, _ZERO2, (0, 1, 1)),
    (_root((2, 0), (0, 1)), _root((-1, -1), (1, 0)), (0, 0, 0)),
], ids=["zero-slice", "root-slices"])
def test_invariance_broken_on_the_lifts_names_the_literal_base_witness(aff_win, torus_win, a, b, ijk):
    """D1 on the view of a perturbed affinized window, read from the
    parent's record once T1's scan has run, names the first failing triple
    of the literal loop on the base window perturbed alike.  The parent's
    record and the view's are the literal loop's, on lifted indices for the
    view."""
    parent = _PerturbedBracket(aff_win, a, b, *ijk)
    triples = literal_zero_sum_triples(parent)
    assert parent.invariance() == literal_invariance_record(parent, triples, parent.lifted_dims())
    view = parent.base_view()
    base = _PerturbedBracket(torus_win, a, b, *ijk)
    witness = literal_first_non_invariant_triple(base, triples)
    assert witness is not None
    assert _form_check(view, "D1-form-invariant").witness == {"roots": witness}
    assert view.invariance() == literal_invariance_record(base, triples, {})


class _ToyWindow:
    """Duck-typed window with integer roots and 1-dimensional slices.

    An element is (root, coefficient) and the slice of r is spanned by (r, 1).
    [(r, s), (t, u)] = (r + t, s u C[r, t]) and ((r, s), (t, u)) = s u F[r, t],
    with missing table entries 0.  By default F[r, -r] = 1 for every r.
    """

    def __init__(self, brackets, forms=None):
        self._c = brackets
        self._f = forms

    def basis(self, root):
        return ((root, 1),)

    def bracket(self, x, y):
        return (x[0] + y[0], x[1] * y[1] * self._c.get((x[0], y[0]), 0))

    def form(self, x, y):
        if self._f is None:
            value = 1 if x[0] + y[0] == 0 else 0
        else:
            value = self._f.get((x[0], y[0]), 0)
        return x[1] * y[1] * value


class _CountingToy(_Recording, _ToyWindow):
    """A toy window recording its brackets and counting its forms."""


def _rotations(a, b, c):
    return [(a, b, c), (b, c, a), (c, a, b)]


def _toy_record(win, triples, symmetric):
    """The record ``RootSystemWindow.invariance`` keeps, on a toy window whose
    zero-sum triples are ``triples``: each class not yet met is decided at
    its least member by ``decomp._class_failures``, with the mirror rule
    when ``symmetric``; failing triples outside ``triples`` are dropped."""
    met, failed = set(), {}
    for triple in sorted(triples):
        if triple not in met:
            members, fails = decomp._class_failures(win, triple, symmetric, {})
            met.update(members)
            failed.update(fails)
    return {t: v for t, v in failed.items() if t in triples}


def _all_variants(win, triples):
    """The least failing triple of the literal loop, which ``_form_checks``
    names from the record, with and without the mirror rule."""
    witness = literal_first_non_invariant_triple(win, sorted(triples))
    for symmetric in (True, False):
        failed = _toy_record(win, triples, symmetric)
        assert (list(min(failed)) if failed else None) == witness
    return witness


def test_invariance_witness_when_earliest_rotation_passes():
    # a, b, c = 1, 2, -3: T_abc = C[1, 2], T_bca = C[2, -3], T_cab = C[-3, 1]
    win = _ToyWindow({(1, 2): 1, (2, -3): 2, (-3, 1): 1})
    triples = [(-3, 1, 2), (1, 2, -3), (2, -3, 1)]
    # T_abc = T_cab != T_bca: the least rotation (c, a, b), where the class is decided, passes
    assert _all_variants(win, triples) == [1, 2, -3]


def test_invariance_witness_finishes_earlier_classes():
    # class Q = (-9, 4, 5) is decided first, at its least member q3, which
    # passes; it fails at q1 and q2 only.  Class P, decided later at p2, fails
    # there and at p3: p2 precedes q1 and q2, so the witness waits for P
    win = _ToyWindow({
        (1, 2): 1, (2, -3): 2, (-3, 1): 2,
        (4, 5): 1, (5, -9): 2, (-9, 4): 1,
    })
    p1, p2, p3 = _rotations(2, -3, 1)
    q1, q2, q3 = _rotations(4, 5, -9)
    triples = [p1, q1, q2, p2, p3, q3]
    assert literal_first_non_invariant_triple(win, [q3, p1]) is None
    assert _all_variants(win, triples) == list(p2)
    assert _all_variants(win, [q1, q2, q3]) == list(q1)


def _antisymmetric(table):
    """A toy bracket table completed by C[t, r] = -C[r, t]."""
    out = dict(table)
    out.update({(t, r): -c for (r, t), c in table.items()})
    return out


# the class of (1, 2, -3) and its mirror class, the class of (-3, 2, 1)
_P1, _P2, _P3 = _rotations(1, 2, -3)
_M1, _M2, _M3 = _rotations(-3, 2, 1)
# (r, s, t) holds when C[r, s] = C[s, t]: P1 and P2 fail, so do their mirrors M1, M3
_P_FAILS_TWICE = _antisymmetric({(1, 2): 1, (2, -3): 2, (-3, 1): 1})


def test_invariance_mirror_class_decided_with_its_class():
    # the symmetric scan decides P at P3, its least member, which passes; P1 and
    # P2 fail, so their mirrors M1 and M3 are recorded too and M is decided
    # unbracketed; M1 is the least recorded triple
    win = _ToyWindow(_P_FAILS_TWICE)
    triples = [_P3, _M1, _P1, _P2, _M2, _M3]
    witness = literal_first_non_invariant_triple(win, sorted(triples))
    assert witness == list(_M1)
    lean, both_sides = _CountingToy(_P_FAILS_TWICE), _CountingToy(_P_FAILS_TWICE)
    literal = literal_invariance_record(win, triples, {})
    assert _toy_record(lean, triples, True) == _toy_record(both_sides, triples, False) == literal
    assert set(literal) == {_P1, _P2, _M1, _M3}
    # the symmetric scan brackets the three blocks of P only, the asymmetric one M's too
    assert (lean.brackets, both_sides.brackets) == (3, 6)
    assert _all_variants(win, triples) == witness


def test_invariance_mirror_rule_off_without_the_mirror():
    # M is absent, so the recorded mirrors M1 and M3 are not among the toy's
    # triples: P1 is the least recorded triple there
    assert _all_variants(_ToyWindow(_P_FAILS_TWICE), [_P3, _P1, _P2]) == list(_P1)


def test_invariance_mirror_rule_off_without_symmetry():
    # an asymmetric form F[a, -a] = f(a) breaks the mirror rule: P holds and M fails
    f = {1: 1, 3: 1, -1: 2, 2: 2, -2: 3, -3: 3}
    win = _ToyWindow(_antisymmetric({(1, 2): 1, (2, -3): 1, (-3, 1): 1}),
                     {(a, -a): v for a, v in f.items()})
    triples = [_P1, _P2, _P3, _M1, _M2, _M3]
    assert literal_first_non_invariant_triple(win, [_P1, _P2, _P3]) is None
    # M is decided after its mirror class P, which holds: skipping M would miss M1
    assert literal_first_non_invariant_triple(win, sorted(triples)) == list(_M1)
    assert min(_toy_record(win, triples, False)) == _M1


def test_invariance_asymmetric_form_takes_both_literal_sides():
    # every literal triple holds, but T_abc = 2 != 1 = T_bca = T_cab for (1, 2, -3)
    win = _ToyWindow(
        {(1, 2): 1, (2, -3): 1, (-3, 1): 1},
        {(3, -3): 2, (-3, 3): 1, (1, -1): 2, (-1, 1): 1, (2, -2): 1, (-2, 2): 1},
    )
    triples = _rotations(-3, 1, 2)
    assert literal_first_non_invariant_triple(win, triples) is None
    assert _toy_record(win, triples, False) == {}
    # the symmetric variant's precondition fails here, and so does its verdict
    assert min(_toy_record(win, triples, True)) == (-3, 1, 2)


def _t1_form_checks(win):
    """``_form_checks`` results under the prefix T1, by name."""
    return {r.name: r for r in _form_checks(win, "T1")}


def test_form_checks_pass_the_symmetry_verdict_to_invariance(sp4_win, monkeypatch):
    """The rebuilt window decides its classes with the mirror rule; the
    asymmetric one, whose form differs only on two basis vectors, without."""
    seen = []
    class_failures = decomp._class_failures

    def spy(win, triple, symmetric, cut):
        seen.append(symmetric)
        return class_failures(win, triple, symmetric, cut)

    monkeypatch.setattr(decomp, "_class_failures", spy)
    asymmetric = _TwoAsymmetricRoots(sp4_win, [_root((1, 1), ())])
    # rebuilt, so that no record the session window keeps is read instead
    for win, symmetric in ((_Rebuilt(sp4_win), True), (asymmetric, False)):
        seen.clear()
        expected = literal_first_non_invariant_triple(win, literal_zero_sum_triples(win))
        assert _t1_witness(win) == expected
        assert seen and set(seen) == {symmetric}


# -- the full matrix algebra is not graded-simple --------------------------------


def test_underived_algebra_fails_exactly_zero_weight_span(underived_torus_win):
    report = _d_report("underived_torus_win", underived_torus_win)
    assert _failed(report) == ["D8-zero-weight-spanned"]
    bad = next(r for r in report.results if r.name == "D8-zero-weight-spanned")
    assert bad.witness is not None


@pytest.mark.parametrize("name", ["torus_win", "sp4_win", "underived_win", "underived_torus_win"])
def test_D8_verdict_and_witness_are_the_literal_loops(request, name):
    """D8 (mirror skip, slice memo) says what the literal double loop says,
    on passing windows and on two underived ones that fail."""
    win = request.getfixturevalue(name)
    if name == "underived_win":  # D runs on the base view of an affinized algebra
        win = win.base_view()
    d8 = next(r for r in _d_report(name, win).results if r.name == "D8-zero-weight-spanned")
    witness = literal_zero_weight_spanned(win, axioms.SPAN_MARGIN)
    assert (d8.passed, d8.witness) == (witness is None, witness)
    assert (witness is None) == (name in ("torus_win", "sp4_win"))
    if name == "underived_torus_win":
        # the witness in the pinned check-underived-D-EARS report
        assert witness == {"degree": [0, 0], "slice_dim": 4, "bracket_span_dim": 3}


def test_D8_brackets_stop_where_the_slice_fills_the_ceiling(torus_win, monkeypatch):
    """At the 8 degrees of ``torus_win`` whose weight-0 slice has the
    dimension of B's, D8 stops once its span is the ceiling; at (0, 0), where
    the derived slice is smaller, the brackets never fill the ceiling and
    every one is read.  1,690 brackets in the full scan, 510 read."""
    alg = torus_win.alg
    smaller = [s for s in lattice_box(alg.nu, torus_win.w)
               if torus_win.dim(_root((0, 0), s)) < len(alg.zero_weight_ceiling(s))]
    assert smaller == [(0, 0)]
    count = []
    bracket = alg.bracket
    monkeypatch.setattr(alg, "bracket", lambda x, y: count.append(1) or bracket(x, y))
    assert axioms._first_unspanned_zero_weight(torus_win) is None
    assert len(count) == 510


def test_D8_reads_every_bracket_where_the_slice_is_below_the_ceiling(torus_win):
    """The derived slice at (0, 0), 3 of B's 4 dimensions, without its last
    vector: the brackets fill the first two vectors' span before they leave
    it, so a D8 that stopped at the claim's own dimension would pass.  D8
    reads every bracket there and names the literal loop's witness."""
    zero = _root((0, 0), (0, 0))
    pieces = dict(torus_win.pieces)
    pieces[zero] = GradedPiece(root=zero, basis=torus_win.basis(zero)[:-1])
    win = RootSystemWindow(torus_win.alg, torus_win.w, pieces)
    witness = literal_zero_weight_spanned(win, axioms.SPAN_MARGIN)
    assert witness == {"degree": [0, 0], "slice_dim": 2, "bracket_span_dim": 3}
    assert axioms._first_unspanned_zero_weight(win) == witness


def test_D6_fails_when_a_slice_holds_another_degree(torus_win):
    # Each swapped basis vector is still homogeneous, but at the other slice's
    # degree, so it is not bihomogeneous of its own slice's degree.
    alpha = torus_win.fin.simple_roots[0]
    a, b = Root(finite=alpha, lattice=(1, 0)), Root(finite=alpha, lattice=(0, 1))
    pieces = dict(torus_win.pieces)
    pieces[a] = GradedPiece(root=a, basis=torus_win.basis(b))
    pieces[b] = GradedPiece(root=b, basis=torus_win.basis(a))
    swapped = RootSystemWindow(torus_win.alg, torus_win.w, pieces)
    d6 = next(r for r in check_D(swapped, seed=1).results if r.name == "D6-bihomogeneous")
    assert not d6.passed
    assert d6.witness == {"root": min(a, b)}
    assert d6.detail == "every basis vector is homogeneous in weight and lattice degree at once"


# -- a perturbed form breaks symmetry --------------------------------------------


class _AsymmetricForm(_Rebuilt):
    """A fixture window whose form gains a one-sided c-d term."""

    def form(self, x, y):
        return super().form(x, y) + x.c[0] * y.d[0]


def test_asymmetric_form_detected(aff_win):
    report = check_T(_AsymmetricForm(aff_win), seed=1)
    assert not report.passed
    sym = next(r for r in report.results if r.name == "T1-form-symmetric")
    assert not sym.passed


class _TwoAsymmetricRoots(_Rebuilt):
    """A fixture window whose form gains 1 on (x, y), in that order only, where
    x and y are the first basis vectors of a root and of its opposite."""

    def __init__(self, win, roots):
        super().__init__(win)
        self._pairs = {(id(win.basis(r)[0]), id(win.basis(-r)[0])) for r in roots}

    def form(self, x, y):
        val = super().form(x, y)
        return val + 1 if (id(x), id(y)) in self._pairs else val


class _CountingOneSided(_Recording, _TwoAsymmetricRoots):
    """A ``_TwoAsymmetricRoots`` window recording its brackets and counting its forms."""


def test_form_symmetry_witness_is_first_root(sp4_win):
    a = Root(finite=(1, 1), lattice=())
    b = Root(finite=(2, 0), lattice=())
    report = check_T(_TwoAsymmetricRoots(sp4_win, [a, b]), seed=1)
    sym = next(r for r in report.results if r.name == "T1-form-symmetric")
    assert not sym.passed
    # a, -a, b and -b all pair asymmetrically; the earliest window root is named
    assert sym.witness == {"root": Root(finite=(-2, 0), lattice=())}


@pytest.mark.parametrize("fixture, roots", [
    ("sp4_win", []),
    ("sp4_win", [_root((1, 1), ())]),
    ("sp4_win", [_root((1, 1), ()), _root((2, 0), ())]),
    ("sp4_win", [_root((-1, 1), ()), _root((0, -2), ())]),
    ("aff_win", [_root((1, -1), (0, 1))]),
    ("aff_win", [_root((0, 2), (1, -1)), _root((-2, 0), (0, 0))]),
])
def test_form_symmetry_witness_matches_the_literal_loop(fixture, roots, request):
    win = _TwoAsymmetricRoots(request.getfixturevalue(fixture), roots)
    sym = _t1_form_checks(win)["T1-form-symmetric"]
    expected = literal_first_asymmetric_root(win)
    assert (expected is None) == (not roots)
    assert sym.witness == (None if expected is None else {"root": expected})


def test_form_nondegeneracy_names_a_slice_without_its_opposite(sp4_win):
    gone = _root((1, 1), ())
    pieces = {r: p for r, p in sp4_win.pieces.items() if r != gone}
    win = RootSystemWindow(sp4_win.alg, sp4_win.w, pieces)
    result = _t1_form_checks(win)["T1-form-nondegenerate"]
    assert not result.passed
    assert result.witness == {"root": -gone, "dim": 1, "opposite_dim": 0}


class _VanishingPair(_Rebuilt):
    """A fixture window whose form is 0 between the slices of a root and of
    its opposite, in both orders."""

    def __init__(self, win, root):
        super().__init__(win)
        self._ids = {id(x): side for side in (root, -root) for x in win.basis(side)}

    def form(self, x, y):
        sides = self._ids.get(id(x)), self._ids.get(id(y))
        if None not in sides and sides[0] != sides[1]:
            return 0
        return super().form(x, y)


def test_form_nondegeneracy_names_a_vanishing_opposite_pair(sp4_win):
    root = _root((0, 2), ())
    byname = _t1_form_checks(_VanishingPair(sp4_win, root))
    assert byname["T1-form-symmetric"].passed
    result = byname["T1-form-nondegenerate"]
    assert not result.passed
    assert result.witness == {"root": -root, "gram": [[0]]}


def test_T4_enforces_nilpotency_bound(monkeypatch, sp4_win):
    t4 = next(r for r in check_T(sp4_win, seed=1).results if r.name == "T4-locally-nilpotent")
    assert t4.passed
    assert "longest chain 3 (bound 9, cap 17)" in t4.detail
    monkeypatch.setattr(axioms, "NILPOTENCY_BOUND", 2)
    report = check_T(sp4_win, seed=1)
    t4 = next(r for r in report.results if r.name == "T4-locally-nilpotent")
    assert not t4.passed
    assert t4.witness["chain_length"] == 3
    assert t4.witness["bound"] == 2
    assert _failed(report) == ["T4-locally-nilpotent"]


# -- T4 ad-chains stop by weight ---------------------------------------------------

CHAIN_WINDOWS = ["aff_win", "sqrt_win", "sp4_win"]


def _t4_probes(win):
    """T4's probes: (root, basis vector) on the degree-0 and unit-degree slices."""
    units = set(unit_degrees(win.alg.nu))
    return [(root, x) for root, x in win.all_basis() if tuple(root.lattice) in units]


_LITERAL_CHAINS = {}


def _literal_chain(fixture, win, bound, cap):
    """``literal_longest_ad_chain`` on a session window's T4 probes, computed
    once per (fixture, bound, cap)."""
    key = fixture, bound, cap
    if key not in _LITERAL_CHAINS:
        probes = [z for _, z in _t4_probes(win)]
        _LITERAL_CHAINS[key] = literal_longest_ad_chain(win, probes, bound, cap)
    return _LITERAL_CHAINS[key]


@pytest.mark.parametrize("bound, cap, shape", [
    (axioms.NILPOTENCY_BOUND, axioms.NILPOTENCY_CAP, None),
    (2, axioms.NILPOTENCY_CAP, "chain_length"),
    (axioms.NILPOTENCY_BOUND, 1, "cap"),
], ids=["default", "bound-2", "cap-1"])
@pytest.mark.parametrize("fixture", CHAIN_WINDOWS)
def test_longest_ad_chain_matches_literal_loop(request, monkeypatch, fixture, bound, cap, shape):
    win = request.getfixturevalue(fixture)
    monkeypatch.setattr(axioms, "NILPOTENCY_BOUND", bound)
    monkeypatch.setattr(axioms, "NILPOTENCY_CAP", cap)
    probes = _t4_probes(win)
    worst, witness = axioms._longest_ad_chain(win, probes)
    assert (worst, witness) == _literal_chain(fixture, win, bound, cap)
    if shape is None:
        assert witness is None
    elif shape == "chain_length":
        assert witness["chain_length"] > bound == witness["bound"]
    else:
        assert set(witness) == {"root", "bound"} and witness["bound"] == cap


@pytest.mark.parametrize("fixture", CHAIN_WINDOWS)
def test_weight_rule_skips_only_zero_brackets(request, fixture):
    """The premise of T4's weight stop: ad_x^k z is zero whenever the finite
    part of its weight beta + k*alpha is neither 0 nor a finite root."""
    win = request.getfixturevalue(fixture)
    fin = win.fin
    skipped = 0
    for alpha in win.nonisotropic_roots():
        for x in win.basis(alpha):
            for beta, z in _t4_probes(win):
                acc, k = z, 0
                while not acc.is_zero() and k < axioms.NILPOTENCY_CAP:
                    acc = win.bracket(x, acc)
                    k += 1
                    if not fin.contains(tuple(b + k * a for b, a in zip(beta.finite, alpha.finite))):
                        assert acc.is_zero(), (alpha, beta, k)
                        skipped += 1
    assert skipped


@pytest.mark.parametrize("fixture", CHAIN_WINDOWS)
def test_longest_ad_chain_brackets_only_chains_that_can_beat_the_longest(request, monkeypatch, fixture):
    """Few brackets, and one stop table per finite part of alpha: each
    (beta, alpha) pair of finite parts is stepped exactly once."""
    stepped = []
    first_non_root_step = axioms._first_non_root_step

    def counted(fin, b, a):
        stepped.append((b, a))
        return first_non_root_step(fin, b, a)

    monkeypatch.setattr(axioms, "_first_non_root_step", counted)
    win = _Counting(request.getfixturevalue(fixture))
    probes = _t4_probes(win)
    worst, witness = axioms._longest_ad_chain(win, probes)
    assert (worst, witness) == (3, None)
    assert 0 < win.brackets <= 10
    pairs = {(r.finite, a.finite) for r, _ in probes for a in win.nonisotropic_roots()}
    assert sorted(stepped) == sorted(pairs)


@pytest.mark.parametrize("fixture", CHAIN_WINDOWS)
def test_longest_ad_chain_brackets_pairs_whose_stop_is_inflated(request, monkeypatch, fixture):
    """One finite pair's stop raised above every chain: those pairs are
    bracketed, and the result is still the literal loop's."""
    win = request.getfixturevalue(fixture)
    probes = _t4_probes(win)
    alpha = win.nonisotropic_roots()[-1].finite
    beta = probes[-1][0].finite
    first_non_root_step = axioms._first_non_root_step

    def inflated(fin, b, a):
        step = first_non_root_step(fin, b, a)
        return step + 3 if (b, a) == (beta, alpha) else step

    monkeypatch.setattr(axioms, "_first_non_root_step", inflated)
    counting = _Counting(win)
    result = axioms._longest_ad_chain(counting, probes)
    assert result == _literal_chain(fixture, win, axioms.NILPOTENCY_BOUND, axioms.NILPOTENCY_CAP)
    xs = {id(x) for r in win.nonisotropic_roots() if r.finite == alpha for x in win.basis(r)}
    zs = {id(z) for r, z in probes if r.finite == beta}
    assert any(id(x) in xs and id(z) in zs for x, z, _ in counting.bracketed)


# -- T3 and D12a: one bracket table per +-alpha pair ------------------------------

DIVISION_WINDOWS = ["torus_win", "aff_win", "sp4_win", "sqrt_win", "underived_win"]


@pytest.mark.parametrize("combos", [1, 2])
@pytest.mark.parametrize("fixture", DIVISION_WINDOWS)
def test_first_unsolvable_root_matches_the_literal_loop(request, fixture, combos):
    win = request.getfixturevalue(fixture)
    rng, literal_rng = random.Random(combos), random.Random(combos)
    assert axioms._first_unsolvable_root(win, rng, combos) is None
    assert literal_first_unsolvable_root(win, literal_rng, combos) is None
    # every root passes, so both made every draw, and the same ones
    assert rng.getstate() == literal_rng.getstate()


class _ShiftedTargets(_Rebuilt):
    """A fixture window whose t_r gains the first basis vector of slice r at
    each of ``roots``.  That vector has a nonzero weight, and [x, y] for x in
    slice r and y in slice -r has weight 0, so every probe at r fails."""

    def __init__(self, win, roots):
        super().__init__(win)
        self._roots = set(roots)

    def rep_t(self, root):
        t = super().rep_t(root)
        return t + self.basis(root)[0] if root in self._roots else t


def _met_second_before_a_later_pair(win):
    """Roots x, y with -y < -x < x < y in root order: x is the second root of
    its pair to be met, and the pair of y is decided first."""
    roots = win.nonisotropic_roots()
    pos = {r: i for i, r in enumerate(roots)}
    return next((x, y) for x in roots for y in roots if pos[-y] < pos[-x] < pos[x] < pos[y])


@pytest.mark.parametrize("combos", [1, 2])
@pytest.mark.parametrize("fixture", DIVISION_WINDOWS)
def test_first_unsolvable_root_is_first_in_root_order(request, fixture, combos):
    """Both failures are recorded when their pairs are decided, y's pair first;
    the witness is still x, the first failing root in root order."""
    x, y = _met_second_before_a_later_pair(request.getfixturevalue(fixture))
    win = _ShiftedTargets(request.getfixturevalue(fixture), [x, y])
    assert literal_first_unsolvable_root(win, random.Random(combos), combos) == x
    assert axioms._first_unsolvable_root(win, random.Random(combos), combos) == x


class _Toy:
    """A toy algebra element: sparse coordinates {key: value}."""

    def __init__(self, coords):
        self.c = {k: v for k, v in coords.items() if v}

    def __add__(self, other):
        return _Toy({k: self.c.get(k, 0) + other.c.get(k, 0) for k in {**self.c, **other.c}})

    def __mul__(self, scalar):
        return _Toy({k: v * scalar for k, v in self.c.items()})


class _ToyDivisionWindow:
    """Slices at the roots 1 and -1 with bases x0, x1 and y0, y1, t_1 = h = -t_-1,
    and [x0, y0] = [x1, y1] = h, [x0, y1] = k, [x1, y0] = m, extended
    bilinearly and antisymmetrically.  Every basis vector solves, but
    c0 x0 + c1 x1 brackets y0 and y1 to c0 h + c1 m and c0 k + c1 h, whose
    span misses h when c0 c1 != 0; the same holds at -1.  The window's
    bracket table and line predicate are ``RootSystemWindow``'s own; its
    algebra has no scalar basis, so no slice is a line."""

    _table = {("x0", "y0"): "h", ("x1", "y1"): "h", ("x0", "y1"): "k", ("x1", "y0"): "m"}
    bracket_table = RootSystemWindow.bracket_table
    scalar_line = RootSystemWindow.scalar_line

    def __init__(self):
        self.pieces = {r: tuple(_Toy({f"{v}{i}": 1}) for i in range(2)) for r, v in ((1, "x"), (-1, "y"))}
        self.alg = self
        self._tables = {}
        self._lines = {}

    def zero(self):
        return _Toy({})

    def nonisotropic_roots(self):
        return [1, -1]

    def basis(self, root):
        return self.pieces[root]

    def dim(self, root):
        return len(self.pieces[root])

    def coords(self, x):
        return dict(x.c)

    def rep_t(self, root):
        return _Toy({"h": root})

    def bracket(self, x, y):
        out = {}
        for a, u in x.c.items():
            for b, v in y.c.items():
                key, sign = self._table.get((a, b)), 1
                if key is None:
                    key, sign = self._table.get((b, a)), -1
                if key is not None:
                    out[key] = out.get(key, 0) + sign * u * v
        return _Toy(out)


@pytest.mark.parametrize("seed, combos, witness", [
    (0, 1, None), (1, 1, 1), (9, 1, -1), (0, 2, -1), (1, 2, 1),
])
def test_first_unsolvable_root_fails_on_combinations_alone(seed, combos, witness):
    """Only a combination can fail on the toy window; the drawn coefficients
    decide which side fails first, in the table route as in the literal loop."""
    win = _ToyDivisionWindow()
    assert literal_first_unsolvable_root(win, random.Random(seed), 0) is None
    assert literal_first_unsolvable_root(win, random.Random(seed), combos) == witness
    assert axioms._first_unsolvable_root(win, random.Random(seed), combos) == witness


@pytest.mark.parametrize("fixture, brackets", [
    ("torus_win", 90), ("aff_win", 90), ("sp4_win", 4), ("sqrt_win", 64), ("underived_win", 30),
])
def test_first_unsolvable_root_brackets_each_basis_pair_once(request, fixture, brackets):
    """One bracket per basis pair of each +-alpha pair, sum dim(alpha) dim(-alpha)
    over the pairs, and no combination is bracketed."""
    win = request.getfixturevalue(fixture)
    roots = win.nonisotropic_roots()
    pairs = [(id(x), id(y)) for a in roots if roots.index(a) < roots.index(-a)
             for x in win.basis(a) for y in win.basis(-a)]
    scan = _Counting(win)
    assert axioms._first_unsolvable_root(scan, random.Random(1), 2) is None
    assert [(id(x), id(y)) for x, y, _ in scan.bracketed] == pairs
    assert len(pairs) == brackets


# -- T3 and D12a on slices that are lines over the scalar field ------------------


def _probes_read(monkeypatch, win, combos):
    """``_first_unsolvable_root(win)`` with its draws seeded by ``combos``,
    and the number of probes it read: one ``SpanDict`` per probe."""
    made = []

    class Spans(SpanDict):
        __slots__ = ()

        def __init__(self, vecs=()):
            made.append(1)
            super().__init__(vecs)

    monkeypatch.setattr(axioms, "SpanDict", Spans)
    return axioms._first_unsolvable_root(win, random.Random(combos), combos), len(made)


LINE_T3 = ("window-verified: every nonzero nonisotropic vector solves [x, y] = t, each slice a line"
           " over the scalar field decided by its first basis vector; every isotropic window root"
           " has a normalized pair")


def _t3(win):
    (t3,) = (r for r in check_T(win).results if r.name == "T3-bracket-representatives")
    return t3


@pytest.fixture(scope="session")
def sqrt5_win():
    """Rank 2 over Q(sqrt2, sqrt3, sqrt5): slices of rational dimension 8."""
    return decompose_window(SqrtExtensionAlgebra(2, [2, 3, 5]), 0)


@pytest.mark.parametrize("fixture, probes", [
    ("sqrt_win", 8), ("sqrt5_win", 8), ("torus_win", 180), ("aff_win", 180), ("underived_win", 60),
])
def test_t3_reads_one_probe_per_root_whose_slices_are_lines(request, monkeypatch, fixture, probes):
    """A root whose slice and opposite slice are lines over the scalar field
    is read at its first basis vector alone; every other root reads its
    rows and its drawn combinations, as before."""
    win = request.getfixturevalue(fixture)
    roots = win.nonisotropic_roots()
    lines = [r for r in roots if win.scalar_line(r)]
    assert lines == (roots if fixture.startswith("sqrt") else [])
    assert probes == sum(1 if r in lines else win.dim(r) + 2 * (win.dim(r) > 1) for r in roots)
    assert _probes_read(monkeypatch, win, 2) == (None, probes)


@pytest.mark.parametrize("fixture", ["sqrt_win", "sqrt5_win"])
def test_t3_on_line_slices_matches_the_probe_loop_and_the_division_oracle(request, fixture):
    """Every nonisotropic slice of a square-root window is its first vector
    times ``scalar_basis()``; T3 passes, as the literal probe loop and the
    K-line division oracle do, and its detail names the rule."""
    win = request.getfixturevalue(fixture)
    for r in win.nonisotropic_roots():
        basis = win.basis(r)
        assert win.scalar_line(r) and list(basis) == [basis[0] * s for s in win.alg.scalar_basis()]
    t3 = _t3(win)
    assert t3.passed and t3.detail == LINE_T3
    assert literal_first_unsolvable_root(win, random.Random(2), 2) is None
    assert literal_first_undivided_root(win) is None


def _resliced(win, change):
    """``win``'s slices with each basis changed by ``change(root, basis)``, as a window of its own."""
    pieces = {r: GradedPiece(root=r, basis=tuple(change(r, p.basis))) for r, p in win.pieces.items()}
    return RootSystemWindow(win.alg, win.w, pieces)


SQRT_RESLICES = {
    "reordered": lambda root, basis: basis[::-1],
    "rescaled": lambda root, basis: (basis[0] * 2,) + basis[1:],
    # one slice of each +-alpha pair stays a line
    "half-reordered": lambda root, basis: basis[::-1] if root < -root else basis,
}


@pytest.fixture(scope="session", params=sorted(SQRT_RESLICES))
def resliced_sqrt(request, sqrt_win):
    """The name of a change in ``SQRT_RESLICES``, ``sqrt_win`` with its
    slices so changed, and the literal probe loop's verdict on it, computed once."""
    win = _resliced(sqrt_win, SQRT_RESLICES[request.param])
    return request.param, win, literal_first_unsolvable_root(win, random.Random(2), 2)


def test_a_slice_that_is_no_scaled_first_vector_takes_every_probe(monkeypatch, resliced_sqrt):
    """A reordered or rescaled basis spans the same line, but the predicate
    checks the basis itself: a root with such a slice at alpha or at -alpha
    reads every row and drawn combination, and the verdict is the probe
    loop's, a pass."""
    name, win, literal = resliced_sqrt
    roots = win.nonisotropic_roots()
    lines = [r for r in roots if win.scalar_line(r)]
    assert lines == ([r for r in roots if r > -r] if name == "half-reordered" else [])
    assert _t3(win).detail.startswith("window-verified: every nonisotropic basis vector and sampled")
    assert literal is None
    assert _probes_read(monkeypatch, win, 2) == (None, sum(win.dim(r) + 2 for r in roots))


class _DeadFirstVector(_Rebuilt):
    """A fixture window whose bracket is 0 whenever an argument is the first
    basis vector x_0 of slice ``root``.  Both slices of the pair stay lines,
    x_0 has no partner, and neither has the first vector of slice -root:
    its brackets with the other x_i are irrational multiples of t."""

    def __init__(self, win, root):
        super().__init__(win)
        self._dead = self.basis(root)[0]

    def bracket(self, x, y):
        return self.alg.zero() if x is self._dead or y is self._dead else super().bracket(x, y)


@pytest.fixture(scope="session", params=[1, 4], ids=["met-before-its-opposite", "met-after-its-opposite"])
def dead_sqrt(request, sqrt_win):
    """A ``_DeadFirstVector`` window of ``sqrt_win`` at its root of that
    index, the root, and the literal probe loop's and the division
    oracle's witnesses, computed once."""
    root = sqrt_win.nonisotropic_roots()[request.param]
    win = _DeadFirstVector(sqrt_win, root)
    return win, root, literal_first_unsolvable_root(win, random.Random(2), 2), literal_first_undivided_root(win)


def test_an_unsolvable_first_vector_is_the_literal_loops_witness(monkeypatch, dead_sqrt):
    """T3 reads one probe a root, and fails at the first root of the dead
    pair in root order, as the probe loop and the division oracle do."""
    win, root, literal, undivided = dead_sqrt
    roots = win.nonisotropic_roots()
    first = min(root, -root, key=roots.index)
    assert (first == root) == (roots.index(root) == 1)
    assert win.scalar_line(root) and win.scalar_line(-root)
    assert literal == undivided == first
    assert _probes_read(monkeypatch, win, 2) == (first, roots.index(first) + 1)
    t3 = _t3(win)
    assert (t3.passed, t3.witness, t3.detail) == (False, {"root": first}, LINE_T3)


@pytest.mark.parametrize("fixture", DIVISION_WINDOWS)
def test_bracket_table_premises_hold_on_every_pair_and_drawn_combination(request, fixture):
    """The table's premises as T3 uses them, on a fresh window: the second
    root of each +-alpha pair reads the first one's table transposed and
    negated, which equals the literal coords([y_j, x_i]) on every basis pair
    (exact antisymmetry), and bilinearity on every drawn combination,
    [sum c_i x_i, y_j] = sum c_i M[i][j] at either root of the pair."""
    win = _Rebuilt(request.getfixturevalue(fixture))
    rng = random.Random(1)
    zero = win.alg.zero()
    roots = win.nonisotropic_roots()
    draws = {r: [axioms._coefficients(rng, win.dim(r)) for _ in range(2)] if win.dim(r) > 1 else []
             for r in roots}
    for alpha in roots:
        if roots.index(alpha) > roots.index(-alpha):
            continue
        table, view = win.bracket_table(alpha), win.bracket_table(-alpha)
        for i, x in enumerate(win.basis(alpha)):
            for j, y in enumerate(win.basis(-alpha)):
                assert view[j][i] == win.coords(win.bracket(y, x))
        for side, rows in ((alpha, table), (-alpha, view)):
            for coeffs in draws[side]:
                combo = combine(win.basis(side), [Fraction(c) for c in coeffs], zero)
                for z, col in zip(win.basis(-side), zip(*rows)):
                    assert win.coords(win.bracket(combo, z)) == axioms._combined(coeffs, col)


# -- graded form checks by support degrees ----------------------------------------


class _MixedVector(_Rebuilt):
    """A fixture window whose i-th basis vector of slice ``root`` gains
    ``extra``, a component at another lattice degree."""

    def __init__(self, win, root, i, extra):
        super().__init__(win)
        self._root = root
        basis = list(win.basis(root))
        basis[i] = self.vector = basis[i] + extra
        self._basis = tuple(basis)

    def basis(self, root):
        return self._basis if root == self._root else super().basis(root)

    def all_basis(self):
        for root in self.roots():
            for x in self.basis(root):
                yield root, x


def _mixed_windows(aff_win, torus_win):
    """A d-carrying vector off degree 0 on the affinized window (T1) and a
    vector at two lattice degrees on the torus window (D10)."""
    return [
        _MixedVector(aff_win, _root((2, 0), (0, 1)), 0, aff_win.alg.d_gen(0)),
        _MixedVector(torus_win, _root((0, 2), (1, 0)), 0, torus_win.basis(_root((0, 2), (0, 1)))[0]),
    ]


@pytest.mark.parametrize("fixture", ["aff_win", "torus_win", "sqrt_win", "sp4_win"])
def test_graded_form_check_forms_nothing_on_homogeneous_windows(request, fixture):
    win = _Counting(request.getfixturevalue(fixture))
    result = axioms._graded_form_check(win, axioms._Supports(win), "T1-form-graded")
    assert win.forms == 0
    assert result.passed and result.witness is None
    assert result.detail == "exhaustive on all window basis pairs"
    assert literal_first_ungraded_pair(win) is None


def test_graded_form_witness_matches_the_literal_loop_on_mixed_vectors(aff_win, torus_win):
    for win, name in zip(_mixed_windows(aff_win, torus_win), ["T1-form-graded", "D10-form-graded"]):
        expected = literal_first_ungraded_pair(win)
        assert expected is not None
        result = axioms._graded_form_check(win, axioms._Supports(win), name)
        assert (result.name, result.passed, result.witness) == (name, False, expected)
        assert result.detail == "form value survives between non-opposite lattice degrees"


@pytest.mark.parametrize("fixture", ["aff_win", "torus_win", "sqrt_win", "sp4_win"])
def test_degree_additivity_brackets_nothing_on_homogeneous_windows(request, fixture):
    win = _Counting(request.getfixturevalue(fixture))
    assert axioms._first_non_additive_pair(win, axioms._Supports(win)) is None
    assert win.brackets == 0


def test_degree_additivity_witness_matches_the_literal_loop_on_mixed_vectors(aff_win, torus_win):
    for win in _mixed_windows(aff_win, torus_win):
        expected = literal_first_non_additive_pair(win)
        assert expected is not None
        assert axioms._first_non_additive_pair(win, axioms._Supports(win)) == expected


def _coord_degrees(win, x):
    """The lattice degrees read from the coordinate keys of x: (degree, ...) on
    torus matrices, ("g", degree, ...) or ("c" | "d", i) at degree 0 on the
    affinized algebra, and () throughout at nullity 0."""
    keys = win.coords(x)
    if isinstance(x, AffinizedElement):
        return {key[1] if key[0] == "g" else (0,) * win.alg.nu for key in keys}
    if isinstance(x, SqrtMatrix):
        return {() for _ in keys}
    return {key[0] for key in keys}


@pytest.mark.parametrize("fixture", ["aff_win", "torus_win", "sqrt_win", "sp4_win"])
def test_support_degrees_are_the_coordinate_degrees(request, fixture, aff_win, torus_win):
    win = request.getfixturevalue(fixture)
    vectors = [x for _, x in win.all_basis()]
    vectors += [mixed.vector for mixed in _mixed_windows(aff_win, torus_win)
                if mixed.alg is win.alg]
    for x in vectors:
        assert x.support_degrees() == _coord_degrees(win, x)


def test_torus_form_pairs_only_opposite_degrees():
    """The premise of the support rule: eps(t^s a t^t b) vanishes unless s + t = 0."""
    a, b = GaussianRational(2, 1), GaussianRational(1, 1)
    box = lattice_box(Q_MIXED.nu, 2)
    for s in box:
        x = TorusElement.monomial(Q_MIXED, s, a)
        for t in box:
            value = torus_form(x, TorusElement.monomial(Q_MIXED, t, b))
            assert (value != 0) == all(u + v == 0 for u, v in zip(s, t)), (s, t)


def test_affinized_form_adds_only_degree_zero_terms(aff_win):
    """(x, y) - (x.g, y.g) is the c/d pairing, and it is nonzero only when
    both supports hold degree 0."""
    alg = aff_win.alg
    zero = (0,) * alg.nu
    flat = [x for _, x in aff_win.all_basis()]
    partners = [y for y in flat if any(y.c) or any(y.d)]
    partners += [flat[k] + alg.d_gen(0) + alg.c_gen(1) for k in (0, len(flat) // 2)]
    assert len(partners) == 2 * alg.nu + 2
    for x in flat + partners:
        for y in partners:
            extra = alg.form(x, y) - alg.base.form(x.g, y.g)
            assert extra == sum(x.c[i] * y.d[i] + x.d[i] * y.c[i] for i in range(alg.nu))
            if extra:
                assert zero in x.support_degrees() & y.support_degrees()


def test_affinized_bracket_adds_degrees(aff_win):
    """P1's degree half on the affinized bracket: the d-action keeps degree, so
    a c or d generator brackets each basis vector into that vector's own
    degree, and the c-part of [t^s a E, t^t b E'] is nonzero only when the
    g-degrees cancel (and s != 0, since d_i weighs t^s by s_i)."""
    alg = aff_win.alg
    gens = [alg.c_gen(i) for i in range(alg.nu)] + [alg.d_gen(i) for i in range(alg.nu)]
    for root, y in aff_win.all_basis():
        for z in gens:
            for b in (alg.bracket(z, y), alg.bracket(y, z)):
                assert b.support_degrees() <= {root.lattice}
    ell, q = alg.ell, alg.q
    a, b = GaussianRational(2, 1), GaussianRational(1, -1)
    box = lattice_box(alg.nu, 2)
    for s in box:
        g = LieElement(ell, q, {(0, 2): TorusElement.monomial(q, s, a)})
        for t in box:
            h = LieElement(ell, q, {(2, 0): TorusElement.monomial(q, t, b)})
            cancel = all(u + v == 0 for u, v in zip(s, t))
            assert any(_degree_pairings(g, h)) == (cancel and any(s)), (s, t)


@pytest.mark.parametrize("fixture, pairs", [
    ("aff_win", 2052), ("torus_win", 1956), ("sqrt_win", 1408), ("sp4_win", 88),
])
def test_form_pairs_only_opposite_roots(request, fixture, pairs):
    """P2's weight half: basis vectors of non-opposite slices whose degrees
    cancel have form 0 in both orders, so symmetry needs only opposite slices."""
    win = request.getfixturevalue(fixture)
    flat = list(win.all_basis())
    seen = 0
    for r1, x in flat:
        for r2, y in flat:
            if r2 != -r1 and not any(u + v for u, v in zip(r1.lattice, r2.lattice)):
                seen += 1
                assert win.form(x, y) == 0, (r1, r2)
    assert seen == pairs


@pytest.mark.parametrize("fixture", ["aff_win", "torus_win", "sqrt_win"])
def test_zero_sum_triples_match_root_sums(request, fixture):
    """The classes cover the root triples (r1, r2, -(r1 + r2)) of the window,
    each once, and count their basis triples."""
    win = request.getfixturevalue(fixture)
    triples = literal_zero_sum_triples(win)
    assert sum(n for _, n in win.weyl_classes()) == len(triples)
    assert win.basis_triple_count() == sum(win.dim(a) * win.dim(b) * win.dim(c) for a, b, c in triples)


# -- PROPS root-pair checks by bilinearity and finite parts -------------------------


@pytest.mark.parametrize("fixture", ["torus_win", "aff_win", "sqrt_win"])
def test_form_is_bilinear(request, fixture):
    """The premise of prop-pairings-rational by bilinearity, on toral
    representatives and on opposite slices."""
    win = request.getfixturevalue(fixture)
    rng = random.Random(5)
    zero = win.alg.zero()
    roots = win.nonisotropic_roots()
    elements = [win.rep_t(r) for r in roots[:6]] + list(win.toral)
    for r in roots[:3]:
        elements += list(win.basis(r)) + list(win.basis(-r))
    for _ in range(30):
        xs, ys = rng.sample(elements, 3), rng.sample(elements, 3)
        cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in xs]
        ds = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in ys]
        expected = sum(c * d * win.form(x, y) for x, c in zip(xs, cs) for y, d in zip(ys, ds))
        assert win.form(combine(xs, cs, zero), combine(ys, ds, zero)) == expected


def _props_byname(win, core):
    return {r.name: r for r in check_props(win, core).results}


def _assert_finite_part_checks_literal(win, byname):
    """prop-isotropic-orthogonal and prop-cartan-integers-bounded say what
    their literal loops say, witness and maximum included."""
    bad = literal_first_nonorthogonal_isotropic(win)
    iso = byname["prop-isotropic-orthogonal"]
    assert iso.passed == (bad is None)
    assert iso.witness == (None if bad is None else {"delta": bad[0], "beta": bad[1]})
    biggest, cartan = literal_cartan_scan(win)
    result = byname["prop-cartan-integers-bounded"]
    assert (result.passed, result.witness) == (cartan is None, cartan)
    assert result.detail.endswith(f"(max {biggest})")


def _assert_pairings_rational_literal(win, byname):
    rational = literal_first_unequal_pairing(win)
    assert byname["prop-pairings-rational"].passed == (rational is None)
    assert byname["prop-pairings-rational"].witness == rational


def test_props_root_pair_checks_match_literal_loops(aff_win, aff_core):
    byname = _props_byname(aff_win, aff_core)
    assert all(byname[n].passed for n in (
        "prop-isotropic-orthogonal", "prop-pairings-rational", "prop-cartan-integers-bounded"))
    _assert_finite_part_checks_literal(aff_win, byname)
    _assert_pairings_rational_literal(aff_win, byname)


def test_pairings_rational_witness_is_literal_first_pair(aff_win, aff_core, monkeypatch):
    """One cached t_r changed, at the last root pairing nonzero with the first
    one, which is not a basis root: only the linearity check sees it, and the
    literal loop names the first failing ordered pair."""
    roots = aff_win.roots()
    r = next(r for r in reversed(roots) if aff_win.pairing(roots[0], r))
    span = SpanDict()
    basis = [v for v in roots if span.add(dict(enumerate(v.finite + v.lattice)))]
    assert r not in basis
    monkeypatch.setitem(aff_win._t_cache, r, aff_win.rep_t(r) * 2)
    byname = _props_byname(aff_win, aff_core)
    assert byname["prop-pairings-rational"].witness == {"first": roots[0], "second": r}
    _assert_pairings_rational_literal(aff_win, byname)


class _RepShifted(_Rebuilt):
    """A fixture window whose representative at ``delta`` gains the first
    basis vector of the nonisotropic slice at ``root``, so it no longer
    commutes with the window."""

    def __init__(self, win, delta, root):
        super().__init__(win)
        self._shift = delta, win.basis(root)[0]

    def rep_t(self, root):
        t = super().rep_t(root)
        delta, x = self._shift
        return t + x if root == delta else t


@pytest.mark.parametrize("lattice", [(-1, 0), (1, 1)], ids=["second-basis-delta", "combination-delta"])
def test_t_delta_central_witness_is_literal(aff_win, aff_core, lattice):
    """The representatives at (-1, -1) and (-1, 0) span those of every
    isotropic root of ``aff_win``, so only they are bracketed against the
    window.  Perturbed at the second of them, or at (1, 1), whose
    representative was a combination of theirs, the check names the literal
    loop's first failing delta."""
    zero = (0,) * aff_win.fin.rank
    span = SpanDict()
    grew = [d.lattice for d in aff_win.isotropic_roots() if span.add(aff_win.coords(aff_win.rep_t(d)))]
    assert grew == [(-1, -1), (-1, 0)]
    assert _props_byname(aff_win, aff_core)["prop-t-delta-central"].passed
    win = _RepShifted(aff_win, _root(zero, lattice), _root((2, 0), (0, 0)))
    witness = literal_first_noncentral_delta(win)
    assert witness == _root(zero, lattice)
    assert _props_byname(win, aff_core)["prop-t-delta-central"].witness == {"delta": witness}


class _PairingShifted(_Rebuilt):
    """A fixture window adding 1/3 to (r1, r2) wherever ``shifted(r1, r2)`` holds."""

    def __init__(self, win, shifted):
        super().__init__(win)
        self._shifted = shifted

    def pairing(self, r1, r2):
        val = super().pairing(r1, r2)
        return val + Fraction(1, 3) if self._shifted(r1, r2) else val


def test_finite_part_pairing_witnesses_are_literal(aff_win, aff_core):
    """(0, f) changed for one finite root f: orthogonality and the Cartan
    integers fail, each naming the literal loop's first pair.  (The changed
    pairing is not bilinear, so prop-pairings-rational, which rests on
    bilinearity, is not compared here.)"""
    zero, f = aff_win.fin.zero, (1, 1)
    win = _PairingShifted(aff_win, lambda r1, r2: (r1.finite, r2.finite) == (zero, f))
    byname = _props_byname(win, aff_core)
    assert not byname["prop-isotropic-orthogonal"].passed
    assert not byname["prop-cartan-integers-bounded"].passed
    _assert_finite_part_checks_literal(win, byname)


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

    def root_piece(self, root):
        basis = tuple(self.lift(x) for x in self.base.root_piece(root))
        if not any(root.finite) and not any(root.lattice):
            basis += (self.e_gen(0), self.e_gen(1))
        return basis

    def root_functional(self, root):
        return self.base.root_functional(root)


@pytest.fixture(scope="module")
def padded_win():
    return decompose_window(_CenterPadded(affinize(TorusMatrixAlgebra(2, Q_MIXED))), 1)


@pytest.fixture(scope="module")
def padded_core(padded_win):
    return core_and_center_window(padded_win)


def test_padded_center_fails_both_tameness_routes(padded_win, padded_core):
    byname = {r.name: r for r in tameness_check(padded_win, padded_core).results}
    assert not byname["tame-centralizer-in-core"].passed
    assert not byname["tame-core-perp-equals-center"].passed
    assert byname["tame-routes-agree"].passed


@pytest.mark.parametrize("name", ["aff", "sp4", "sqrt", "underived", "padded"])
def test_core_center_and_radical_match_the_literal_loops(request, name):
    """The center and the radical cut from the window centralizer and
    perpendicular are those the literal loops find on core bases alone, in
    span and in count: also where the centralizer leaves the core
    (underived) and where the perpendicular holds the padding plane."""
    win = request.getfixturevalue(f"{name}_win")
    core = request.getfixturevalue(f"{name}_core")

    def span(vectors):
        return SpanDict(win.coords(z) for z in vectors)

    for got, want in ((core.center, literal_core_center(win, core)),
                      (core.radical, literal_core_radical(win, core))):
        assert len(got) == len(want) == span(want).dim
        assert span_equal(span(got), span(want))


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


class _CartansDoNotCommute(_Rebuilt):
    """A fixture window whose bracket of two different Serre Cartan elements
    h_i, h_j returns h_i instead of 0."""

    def __init__(self, win):
        super().__init__(win)
        self._hs = [
            sl2_triple(win, Root(finite=a, lattice=(0,) * win.alg.nu))[1]
            for a in win.fin.simple_roots
        ]

    def _index(self, x):
        return next((k for k, h in enumerate(self._hs) if x == h), None)

    def bracket(self, x, y):
        i, j = self._index(x), self._index(y)
        if i is not None and j is not None and i != j:
            return x
        return super().bracket(x, y)


def test_serre_witness_is_first_failing_pair(torus_win):
    report = serre_check(_CartansDoNotCommute(torus_win))
    byname = {r.name: r for r in report.results}
    assert _failed(report) == ["serre-h-commute"]
    # (0, 1) and (1, 0) both fail; the first one in (i, j) order is named
    assert byname["serre-h-commute"].witness == {"i": 0, "j": 1}
