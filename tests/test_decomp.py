"""Window decomposition, sl2 structure, inner automorphisms, core extraction."""

from fractions import Fraction

import pytest

from ealie import decomp
from ealie.axioms import check_props
from ealie.constructions import AffinizedAlgebra, AffinizedElement, TorusMatrixAlgebra
from ealie.decomp import (
    EXTRA_MARGIN,
    DecompositionError,
    GradedPiece,
    NilpotencyError,
    RootSystemWindow,
    SL2Error,
    _core_basis,
    _small_generators,
    centralizer_candidates,
    combine,
    core_and_center_window,
    decompose_window,
    exp_ad,
    fill_span,
    graded_pieces,
    isotropic_pair,
    opposite_brackets,
    sl2_triple,
    theta_automorphism,
)
from ealie.finroot import Root
from ealie.linalg import SpanDict, span_equal
from ealie.matlie import hdot
from ealie.quantum_torus import SignMatrix, lattice_box, unit_degrees

from conftest import Q_MIXED
from oracles import literal_centralizer_candidates, literal_member


def test_sp4_window_shape(sp4_win):
    roots = sp4_win.roots()
    assert len(roots) == 9
    zero = Root(finite=(0, 0), lattice=())
    assert sp4_win.dim(zero) == 2
    for r in roots:
        if r != zero:
            assert sp4_win.dim(r) == 1
    assert sorted({sp4_win.norm(r) for r in roots}) == [0, 1, 2]


def test_sp4_representatives(sp4_win):
    q = SignMatrix(0)
    h1 = hdot(2, q, 0)
    h2 = hdot(2, q, 1)
    t_long = sp4_win.rep_t(Root(finite=(2, 0), lattice=()))
    assert t_long == h1
    t_short = sp4_win.rep_t(Root(finite=(1, -1), lattice=()))
    assert t_short == (h1 - h2) * Fraction(1, 2)


def test_toral_eigenvalues_from_representatives(torus_win):
    # [t_alpha, x_beta] = (alpha, beta) x_beta on every window slice
    alpha = Root(finite=(1, 1), lattice=(0, 0))
    t = torus_win.rep_t(alpha)
    for beta, x in torus_win.all_basis():
        lam = torus_win.pairing(alpha, beta)
        assert (torus_win.bracket(t, x) - x * lam).is_zero()


def test_sl2_triples(sp4_win, torus_win):
    for win in (sp4_win, torus_win):
        for root in win.nonisotropic_roots()[:6]:
            e, h, f = sl2_triple(win, root)
            assert (win.bracket(e, f) - h).is_zero()
            assert (win.bracket(h, e) - e * 2).is_zero()
            assert (win.bracket(h, f) + f * 2).is_zero()


def test_sl2_triple_rejects_isotropic(torus_win):
    with pytest.raises(SL2Error):
        sl2_triple(torus_win, Root(finite=(0, 0), lattice=(1, 0)))


def test_isotropic_pair(aff_win):
    delta = Root(finite=(0, 0), lattice=(1, 0))
    pair = isotropic_pair(aff_win, delta)
    assert pair is not None
    x, y = pair
    assert (aff_win.bracket(x, y) - aff_win.rep_t(delta)).is_zero()
    assert aff_win.form(x, y) == 1


def test_exp_ad_requires_nilpotency(sp4_alg, sp4_win):
    e, h, f = sl2_triple(sp4_win, Root(finite=(2, 0), lattice=()))
    # exp(ad e) terminates; ad h does not act nilpotently on e
    out = exp_ad(sp4_alg, e, f)
    assert not out.is_zero()
    with pytest.raises(NilpotencyError):
        exp_ad(sp4_alg, h, e)


def test_theta_reflects_representatives(sp4_win):
    q = SignMatrix(0)
    alpha = Root(finite=(1, -1), lattice=())
    theta = theta_automorphism(sp4_win, alpha)
    assert theta(sp4_win.rep_t(alpha)) == sp4_win.rep_t(alpha) * -1
    assert theta(hdot(2, q, 0)) == hdot(2, q, 1)


def test_theta_maps_slices_to_reflected_slices(sp4_win):
    alpha = Root(finite=(2, 0), lattice=())
    theta = theta_automorphism(sp4_win, alpha)
    beta = Root(finite=(1, 1), lattice=())
    image = [theta(x) for x in sp4_win.basis(beta)]
    reflected = Root(finite=sp4_win.fin.reflect(alpha.finite, beta.finite), lattice=())
    got = SpanDict(sp4_win.coords(x) for x in image)
    want = SpanDict(sp4_win.coords(x) for x in sp4_win.basis(reflected))
    assert span_equal(got, want)


def test_combine():
    alg = TorusMatrixAlgebra(2, SignMatrix(0), real_only=True)
    win = decompose_window(alg, 1)
    basis = win.basis(Root(finite=(0, 0), lattice=()))
    out = combine(basis, [Fraction(2), Fraction(-1)], alg.zero())
    assert out == basis[0] * 2 - basis[1]


def test_affinized_window_dimensions(aff_win):
    zero = Root(finite=(0, 0), lattice=(0, 0))
    # base slice dim 3 plus nu central and nu derivation generators
    assert aff_win.dim(zero) == 7
    other = Root(finite=(0, 0), lattice=(1, 1))
    assert aff_win.dim(other) == 4


def test_core_structure(aff_win, aff_core):
    zero = Root(finite=(0, 0), lattice=(0, 0))
    # core keeps the base zero slice and the central line, drops derivations
    assert len(aff_core.piece_basis(zero)) == 5
    assert len(aff_core.center) == 2
    # PROPS decides both claims; the failing case is the pinned
    # check-affinized-underived report, where prop-h-alpha-sum fails
    byname = {r.name: r.passed for r in check_props(aff_win, aff_core).results}
    assert byname["prop-center-equals-radical"]
    assert byname["prop-h-alpha-sum"]
    center_span = SpanDict(aff_win.coords(z) for z in aff_core.center)
    c_span = SpanDict(
        aff_win.coords(aff_win.alg.c_gen(i)) for i in range(aff_win.alg.nu)
    )
    assert span_equal(center_span, c_span)


def test_core_nonisotropic_pieces_are_full_slices(aff_win, aff_core):
    for root in aff_win.nonisotropic_roots():
        assert aff_core.piece_basis(root) == aff_win.basis(root)


def test_window_member_and_oracle(torus_win, aff_win, sqrt_win):
    for win in (torus_win, aff_win):
        assert win.member((1, 1, 0, 0))
        assert not win.member((1, 0, 0, 0))
        # outside the window a root is a member when its finite part is
        assert win.member((1, 1, 5, 0))
        assert win.member((0, 0, 0, 7))
        assert not win.member((1, 0, 5, 0))
    # at nullity 0 every root lies inside the window
    assert sqrt_win.member((1, 1))
    assert sqrt_win.member((0, 0))
    assert not sqrt_win.member((1, 0))


@pytest.mark.parametrize("name", ["torus_win", "aff_win", "sqrt_win", "torus_win-missing"])
def test_window_member_is_the_literal_rule(request, name):
    if name == "torus_win-missing":
        # inside the box the slices alone decide, even where fin has the root
        full = request.getfixturevalue("torus_win")
        missing = Root(finite=(1, 1), lattice=(1, 0))
        win = RootSystemWindow(full.alg, full.w, {r: p for r, p in full.pieces.items() if r != missing})
        assert not win.member((1, 1, 1, 0))
    else:
        win = request.getfixturevalue(name)
    finites = sorted(win.fin.nonzero_roots) + [win.fin.zero, (1, 0)]
    seen = set()
    for finite in finites:
        for lattice in lattice_box(win.alg.nu, win.w + 2):
            expected = literal_member(win, Root(finite=finite, lattice=lattice))
            assert win.member(finite + lattice) == expected, (finite, lattice)
            seen.add(expected)
    assert seen == {True, False}


def test_in_box_is_the_window_box(torus_win, sqrt_win):
    box = set(lattice_box(2, torus_win.w))
    for lattice in lattice_box(2, torus_win.w + 2):
        assert torus_win.in_box(lattice) == (lattice in box)
    assert sqrt_win.in_box(())


def test_window_rejects_a_slice_outside_its_box(torus_win):
    # member would call (1, 0, 2, 0) a root from the slice, the beyond-box rule would not
    outside = Root(finite=(1, 0), lattice=(2, 0))
    pieces = dict(torus_win.pieces)
    pieces[outside] = GradedPiece(root=outside, basis=())
    with pytest.raises(DecompositionError, match=r"slice at .* lies outside the window box of max-norm 1"):
        RootSystemWindow(torus_win.alg, torus_win.w, pieces)


@pytest.mark.parametrize("name", ["torus_win", "aff_win", "sqrt_win"])
def test_opposite_representatives_are_exact_negatives(request, name):
    # t_-alpha = -t_alpha, so with a symmetric form the coroot-complement span
    # gets from (y, x) only the negative of the (x, y) vector
    win = request.getfixturevalue(name)
    for root in win.nonisotropic_roots():
        assert (win.rep_t(root) + win.rep_t(-root)).is_zero(), root


class _MissingSlice(TorusMatrixAlgebra):
    """A torus algebra whose slice at one finite root inside the window is empty."""

    def __init__(self, missing):
        super().__init__(2, Q_MIXED)
        self.missing = missing

    def root_piece(self, root):
        return () if root == self.missing else super().root_piece(root)


@pytest.mark.parametrize("weight", [(1, 1), (0, 0)])
def test_decompose_window_rejects_an_empty_slice_at_a_finite_root(weight):
    missing = Root(finite=weight, lattice=(1, 0))
    with pytest.raises(DecompositionError, match="membership rule disagrees"):
        decompose_window(_MissingSlice(missing), 1)


class _OffFunctional(TorusMatrixAlgebra):
    """sp4 whose root functional is off by 1 in its first entry at one root."""

    def __init__(self, off):
        super().__init__(2, SignMatrix(0), real_only=True)
        self.off = off

    def root_functional(self, root):
        lams = super().root_functional(root)
        return [lams[0] + 1, *lams[1:]] if root == self.off else lams


def test_decompose_window_rejects_a_vector_that_is_no_exact_eigenvector():
    # T2 and T4's weight rule rest on this check; T2 does not repeat it
    off = Root(finite=(1, 1), lattice=())
    with pytest.raises(DecompositionError, match=r"basis vector at .* is not an exact eigenvector"):
        decompose_window(_OffFunctional(off), 1)


def _per_class_pieces(alg, sigma):
    """Oracle: the graded_pieces each construction class carried before decomp
    derived them; the affinized one took its weights from the base algebra."""
    base = getattr(alg, "base", alg)
    out = {base.fin.zero: base.root_piece(Root(finite=base.fin.zero, lattice=sigma))}
    for weight in sorted(base.fin.nonzero_roots):
        out[weight] = base.root_piece(Root(finite=weight, lattice=sigma))
    if base is alg:
        return out
    return {weight: alg.root_piece(Root(finite=weight, lattice=sigma)) for weight in out}


@pytest.mark.parametrize("name", ["torus_alg", "underived", "real_only", "sp4_alg",
                                  "aff_alg", "sqrt_alg"])
def test_graded_pieces_match_per_class_enumeration(request, name):
    if name == "underived":
        alg = TorusMatrixAlgebra(2, Q_MIXED, derived=False)
    elif name == "real_only":
        alg = TorusMatrixAlgebra(2, Q_MIXED, real_only=True)
    else:
        alg = request.getfixturevalue(name)
    for sigma in lattice_box(alg.nu, 1):
        got = graded_pieces(alg, sigma)
        expected = _per_class_pieces(alg, sigma)
        assert list(got) == list(expected)
        for weight, basis in expected.items():
            assert [alg.coords(x) for x in got[weight]] == [alg.coords(x) for x in basis]


@pytest.mark.parametrize("w", [0, 1])
def test_small_generators_are_the_unit_degree_slices(aff_alg, monkeypatch, w):
    win = decompose_window(aff_alg, w)
    expected = [x for sigma in unit_degrees(aff_alg.nu)
                for weight, basis in sorted(graded_pieces(aff_alg, sigma).items()) if any(weight)
                for x in basis]
    calls = []
    build = aff_alg.root_piece
    monkeypatch.setattr(aff_alg, "root_piece", lambda root: calls.append(root) or build(root))
    got = _small_generators(win)
    assert [aff_alg.coords(x) for x in got] == [aff_alg.coords(x) for x in expected]
    # only the slices beyond the window are built again
    assert all(root not in win.pieces for root in calls)
    assert len(calls) == (0 if w else 2 * aff_alg.nu * len(aff_alg.fin.nonzero_roots))


def _box_pairs(win, delta, distinct=False):
    """The bracket pairs of the core scan at delta, in box order: opposite
    nonzero-weight slices with degrees sigma and delta - sigma over the box.
    With ``distinct``, a slice pair is dropped when its mirror came earlier."""
    alg = win.alg
    weights = sorted({r.finite for r in win.nonisotropic_roots()})
    seen = set()
    for sigma in lattice_box(alg.nu, win.w + EXTRA_MARGIN):
        tau = tuple(d - s for d, s in zip(delta.lattice, sigma))
        for weight in weights:
            pair = (Root(finite=weight, lattice=sigma), Root(finite=tuple(-v for v in weight), lattice=tau))
            if distinct and pair[::-1] in seen:
                continue
            seen.add(pair)
            for x in alg.root_piece(pair[0]):
                for y in alg.root_piece(pair[1]):
                    yield x, y


def _full_box_core(win, delta):
    """Oracle: the greedy basis of every bracket in the box, with no early stop."""
    span = SpanDict()
    greedy = []
    for x, y in _box_pairs(win, delta):
        b = win.alg.bracket(x, y)
        if not b.is_zero() and span.add(win.coords(b)):
            greedy.append(b)
    return greedy


def _layout(win, basis):
    return [list(win.coords(b).items()) for b in basis]


def _counting_brackets(monkeypatch, alg):
    calls = []
    bracket = type(alg).bracket

    def counted(self, x, y):
        calls.append(1)
        return bracket(self, x, y)

    monkeypatch.setattr(type(alg), "bracket", counted)
    return calls


@pytest.mark.parametrize("name", ["aff_win", "sp4_win", "sqrt_win"])
def test_core_pieces_match_full_box_oracle(request, name):
    win = request.getfixturevalue(name)
    core = request.getfixturevalue(name.replace("_win", "_core"))
    for delta in win.isotropic_roots():
        expected = _full_box_core(win, delta)
        got = core.piece_basis(delta)
        assert list(got) == expected
        assert _layout(win, got) == _layout(win, expected)


_ZERO = Root(finite=(0, 0), lattice=(0, 0))


def test_core_scan_stops_when_each_span_is_full(monkeypatch, aff_win):
    calls = _counting_brackets(monkeypatch, aff_win.alg)
    read = {}
    for delta in aff_win.isotropic_roots():
        calls.clear()
        _core_basis(aff_win, delta)
        box = sum(1 for _ in _box_pairs(aff_win, delta, distinct=True))
        assert len(calls) < box, delta
        read[delta] = (len(calls), box)
    # degree 0 too: its ceiling leaves out d_0 and d_1, which no bracket reaches
    assert read[_ZERO] == (21, 490)


def test_no_bracket_of_the_degree_zero_core_box_has_a_derivation_part(aff_win):
    """The premise of the degree-0 ceiling, on every bracket the scan may read."""
    alg = aff_win.alg
    brackets = [alg.bracket(x, y) for x, y in _box_pairs(aff_win, _ZERO, distinct=True)]
    assert len(brackets) == 490
    assert not any(any(b.d) for b in brackets)
    # the central part is there, so the brackets do leave the lifts
    assert any(any(b.c) for b in brackets)


class _BracketWithDerivationPart(AffinizedAlgebra):
    """Mutation: every bracket also carries its central part as a d part."""

    def bracket(self, x, y):
        b = super().bracket(x, y)
        return AffinizedElement(b.g, b.c, b.c)


def test_core_scan_reads_the_whole_box_when_a_bracket_has_a_derivation_part(monkeypatch, aff_win):
    win = RootSystemWindow(_BracketWithDerivationPart(aff_win.alg.base), aff_win.w, aff_win.pieces)
    calls = _counting_brackets(monkeypatch, win.alg)
    got = _core_basis(win, _ZERO)
    assert len(calls) == sum(1 for _ in _box_pairs(win, _ZERO, distinct=True)) == 490
    expected = _full_box_core(win, _ZERO)
    assert any(any(b.d) for b in expected)
    assert list(got) == expected
    assert _layout(win, got) == _layout(win, expected)


def _reading():
    """Identity coordinates that record each vector read."""
    read = []

    def coords(v):
        read.append(v)
        return v

    return read, coords


def test_fill_span_stops_at_the_vector_that_fills_the_ceiling_from_inside():
    ceiling = SpanDict([{"a": 1}, {"b": 1}])
    vectors = [{"b": 2}, {"b": 1}, {"a": 1, "b": 1}, {"c": 1}]
    read, coords = _reading()
    span, grown = fill_span(vectors, coords, ceiling)
    # the third vector fills the ceiling, so the fourth is never read
    assert read == vectors[:3]
    assert grown == [{"b": 2}, {"a": 1, "b": 1}]
    assert span_equal(span, ceiling)


def test_fill_span_reads_every_vector_after_one_from_outside_the_ceiling():
    ceiling = SpanDict([{"a": 1}, {"b": 1}])
    vectors = [{"c": 1}, {"a": 1}, {"b": 1}, {"a": 1, "b": 1}, {"d": 1}]
    read, coords = _reading()
    span, grown = fill_span(vectors, coords, ceiling)
    # after {"a": 1} the span has the ceiling's dimension, but it is not the ceiling
    assert read == vectors
    assert grown == [{"c": 1}, {"a": 1}, {"b": 1}, {"d": 1}]
    assert span.dim == 4


def _layout_types(alg, z):
    return [(k, type(v), v) for k, v in alg.coords(z).items()]


@pytest.mark.parametrize("name", ["torus_win", "aff_win", "sqrt_win"])
def test_centralizer_candidates_match_the_literal_solve(request, name):
    """The streamed, early-stopped solve gives the same combinations, with the
    same Fraction coordinates, as the whole key x candidate matrix reduced at
    once, on the window slices the core solves; on the affinized window
    central survivors remain."""
    win = request.getfixturevalue(name)
    alg = win.alg
    generators = _small_generators(win)
    survivors = 0
    for delta in win.isotropic_roots():
        candidates = win.basis(delta)
        got = centralizer_candidates(alg, candidates, generators)
        want = literal_centralizer_candidates(alg, candidates, generators)
        assert got == want
        assert [_layout_types(alg, z) for z in got] == [_layout_types(alg, z) for z in want]
        survivors += len(got)
    assert survivors == {"torus_win": 0, "aff_win": 2, "sqrt_win": 0}[name]


def test_core_solves_the_centralizer_once_per_isotropic_root_on_window_bases(monkeypatch, underived_win):
    """One solve per isotropic degree, over the window slice; the center is
    cut from it by the core slice, so no second solve runs on core bases."""
    seen = []

    def counted(alg, candidates, generators):
        seen.append(candidates)
        return centralizer_candidates(alg, candidates, generators)

    monkeypatch.setattr(decomp, "centralizer_candidates", counted)
    core = core_and_center_window(underived_win)
    assert seen == [underived_win.basis(delta) for delta in underived_win.isotropic_roots()]
    assert len(core.centralizer) > len(core.center)


def test_centralizer_brackets_stop_once_the_candidates_are_independent(monkeypatch, sqrt_win, aff_win):
    """Independent candidates stop the generator stream early; a surviving
    relation needs every bracket, since no prefix of the rows has full rank."""
    surviving = []
    for win in (sqrt_win, aff_win):
        calls = _counting_brackets(monkeypatch, win.alg)
        generators = _small_generators(win)
        for delta in win.isotropic_roots():
            candidates = win.basis(delta)
            calls.clear()
            survivors = centralizer_candidates(win.alg, candidates, generators)
            full = len(candidates) * len(generators)
            if survivors:
                surviving.append(win)
                assert len(calls) == full, delta
            else:
                assert len(calls) < full, delta
        monkeypatch.undo()
    assert surviving and all(win is aff_win for win in surviving)


def test_core_scan_runs_the_whole_box_past_a_bracket_outside_the_window_slice(monkeypatch, aff_win):
    delta = Root(finite=(0, 0), lattice=(1, 0))
    expected = _full_box_core(aff_win, delta)
    # A window slice missing the first spanning bracket: that bracket grows the
    # span from outside the slice, so a span of the slice's dimension is not it.
    pieces = dict(aff_win.pieces)
    pieces[delta] = GradedPiece(root=delta, basis=tuple(expected[1:]))
    broken = RootSystemWindow(aff_win.alg, aff_win.w, pieces)
    assert not SpanDict(broken.coords(b) for b in expected[1:]).contains(broken.coords(expected[0]))
    calls = _counting_brackets(monkeypatch, aff_win.alg)
    got = _core_basis(broken, delta)
    # each mirror pair of slices once: 560 of the literal box's 980 brackets
    assert sum(1 for _ in _box_pairs(aff_win, delta)) == 980
    assert len(calls) == sum(1 for _ in _box_pairs(aff_win, delta, distinct=True)) == 560
    assert list(got) == expected
    assert _layout(broken, got) == _layout(broken, expected)


def _literal_pairs(alg, weights, total, degrees):
    """Oracle: every element pair of the double loop, both orientations, slices rebuilt."""
    for s in degrees:
        t = tuple(g - v for g, v in zip(total, s))
        for w in weights:
            for x in alg.root_piece(Root(finite=w, lattice=s)):
                for y in alg.root_piece(Root(finite=tuple(-v for v in w), lattice=t)):
                    yield x, y


def _literal_opposite_brackets(alg, weights, total, degrees):
    for x, y in _literal_pairs(alg, weights, total, degrees):
        b = alg.bracket(x, y)
        if not b.is_zero():
            yield b


def _greedy(alg, brackets):
    span = SpanDict()
    return [b for b in brackets if span.add(alg.coords(b))]


@pytest.mark.parametrize("zero_weight", [False, True])
def test_opposite_brackets_matches_the_literal_double_loop(torus_alg, zero_weight):
    alg = torus_alg
    weights = [alg.fin.zero] if zero_weight else sorted(alg.fin.nonzero_roots)
    # (0, 0; 0, 0) is its own mirror; at total (1, 0) the degrees s with
    # s_0 = -2 have their partner outside the box, so no mirror to skip
    total = (0, 0) if zero_weight else (1, 0)
    degrees = lattice_box(alg.nu, 2)
    origin = {}  # id of a slice element -> its slice root
    built = []

    def piece(root):
        built.append(root)
        basis = alg.root_piece(root)
        origin.update((id(x), root) for x in basis)
        return basis

    pairs = []

    def bracket(x, y):
        pairs.append((origin[id(x)], origin[id(y)]))
        return alg.bracket(x, y)

    got = list(opposite_brackets(piece, bracket, weights, total, degrees))
    expected = list(_literal_opposite_brackets(alg, weights, total, degrees))

    assert len(built) == len(set(built))
    # each unordered mirror pair of nonempty slices comes once, with all its brackets
    literal = set()
    for s in degrees:
        t = tuple(g - v for g, v in zip(total, s))
        for w in weights:
            literal.add(frozenset((Root(finite=w, lattice=s), Root(finite=tuple(-v for v in w), lattice=t))))
    assert {frozenset(p) for p in pairs} == literal
    assert len(pairs) == sum(len(alg.root_piece(min(p))) * len(alg.root_piece(max(p))) for p in literal)
    assert len(pairs) < sum(1 for _ in _literal_pairs(alg, weights, total, degrees))
    # the spans are equal, and so are the greedy bases
    assert span_equal(SpanDict(alg.coords(b) for b in got), SpanDict(alg.coords(b) for b in expected))
    layout = [[list(alg.coords(b).items()) for b in _greedy(alg, bs)] for bs in (got, expected)]
    assert layout[0] == layout[1]
