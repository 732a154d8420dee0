"""Matrix layer: involution, skew slices, weight grading, zero-weight spans."""

import random
import re
from collections import defaultdict
from fractions import Fraction

import pytest

from ealie.constructions import TorusMatrixAlgebra
from ealie.decomp import DecompositionError, decompose_window, opposite_brackets
from ealie.exact_arith import GaussianRational
from ealie.finroot import FiniteRootSystem
from ealie import matlie
from ealie.linalg import SpanDict, span_equal
from ealie.matlie import (
    LieElement,
    big_e,
    e_mat,
    hddot,
    hdot,
    mat_bracket,
    skew_root_basis,
    star,
    trace_form,
    zero_root_component,
    zero_root_component_by_class,
)
from ealie.quantum_torus import SignMatrix, kappa, lattice_box

from oracles import literal_zero_span

Q2 = SignMatrix.from_upper(2, [-1])
Q3 = SignMatrix.from_upper(3, [-1, 1, -1])
Q0 = SignMatrix(0)


def _identity(ell, q):
    out = LieElement.zero(ell, q)
    for p in range(2 * ell):
        out = out + e_mat(ell, q, p, p)
    return out


def _bar_transpose(x):
    return LieElement(x.ell, x.q, {(r, p): val.bar() for (p, r), val in x.entries.items()})


def _star_literal(x):
    e = big_e(x.ell, x.q)
    return (-e) @ _bar_transpose(x) @ e


def _random_element(rng, ell, q, box):
    out = LieElement.zero(ell, q)
    for _ in range(4):
        p = rng.randrange(2 * ell)
        r = rng.randrange(2 * ell)
        sigma = box[rng.randrange(len(box))]
        coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        out = out + e_mat(ell, q, p, r, sigma, coeff)
    return out


def test_big_e_squares_to_minus_identity():
    for ell, q in ((2, Q2), (3, Q0)):
        e = big_e(ell, q)
        assert e @ e == -_identity(ell, q)


def test_star_matches_literal_conjugation():
    rng = random.Random(2)
    box = lattice_box(2, 1)
    for _ in range(50):
        x = _random_element(rng, 2, Q2, box)
        assert star(x) == _star_literal(x)


def test_star_involutive_antiautomorphism():
    rng = random.Random(3)
    box = lattice_box(2, 1)
    for _ in range(30):
        x = _random_element(rng, 2, Q2, box)
        y = _random_element(rng, 2, Q2, box)
        assert star(star(x)) == x
        assert star(x @ y) == star(y) @ star(x)


@pytest.mark.parametrize("ell, q", [(2, Q2), (3, Q3)])
def test_simple_reflections_are_symplectic_and_commute_with_star(ell, q):
    """Conjugation by each signed permutation of the table fixes E, so the
    matrix lies in Sp(2l); it then commutes with the involution and with
    products, so it maps B to itself and preserves the bracket."""
    rng = random.Random(4)
    box = lattice_box(q.nu, 1)
    for moves in FiniteRootSystem(ell).simple_reflections():
        assert big_e(ell, q).reflect(moves) == big_e(ell, q)
        for _ in range(10):
            x, y = (_random_element(rng, ell, q, box) for _ in range(2))
            assert star(x.reflect(moves)) == star(x).reflect(moves)
            assert (x @ y).reflect(moves) == x.reflect(moves) @ y.reflect(moves)
            assert trace_form(x.reflect(moves), y.reflect(moves)) == trace_form(x, y)


def _degree_slice(ell, q, sigma, real_only=False):
    """skew_root_basis joined over weight 0 and the sorted type-C roots."""
    weights = [(0,) * ell] + sorted(FiniteRootSystem(ell).nonzero_roots)
    return [x for w in weights for x in skew_root_basis(ell, q, w, sigma, real_only)]


def test_symplectic_eigenbasis_dimensions():
    # The real skew part of a degree-sigma slice is the -1 (kappa > 0) or +1
    # (kappa < 0) eigenspace of the symplectic transpose: 2l^2+l or 2l^2-l.
    for ell in (2, 3):
        assert len(_degree_slice(ell, Q2, (0, 0), real_only=True)) == 2 * ell * ell + ell
        assert len(_degree_slice(ell, Q2, (1, 1), real_only=True)) == 2 * ell * ell - ell


def test_skew_basis_is_skew_and_independent():
    for ell, q, degrees in (
        (2, Q2, ((0, 0), (1, 0), (1, 1))),  # kappa +1, +1, -1
        (3, Q0, ((),)),
    ):
        for sigma in degrees:
            basis = _degree_slice(ell, q, sigma)
            assert len(basis) == 4 * ell * ell  # 4 l^2 rational dimensions per degree
            span = SpanDict()
            for x in basis:
                assert (star(x) + x).is_zero()
                assert span.add(x.coords())
            real = _degree_slice(ell, q, sigma, real_only=True)
            k = kappa(sigma, q)
            assert len(real) == (2 * ell * ell + ell if k > 0 else 2 * ell * ell - ell)
            assert all(not c.im for x in real for val in x.entries.values() for c in val.coeffs.values())


def test_skew_root_basis_weights_and_dims():
    ell, q = 2, Q2
    hs = [hdot(ell, q, r) for r in range(ell)]
    for sigma in ((0, 0), (0, 1), (1, 1)):
        for weight in sorted(FiniteRootSystem(ell).nonzero_roots):
            basis = skew_root_basis(ell, q, weight, sigma)
            long_root = any(abs(v) == 2 for v in weight)
            assert len(basis) == (1 if long_root else 2)
            for x in basis:
                assert (star(x) + x).is_zero()
                for r, h in enumerate(hs):
                    assert mat_bracket(h, x) == x * weight[r]


def test_skew_root_basis_unknown_weight_empty():
    assert skew_root_basis(2, Q2, (3, 0), (0, 0)) == []
    assert skew_root_basis(2, Q2, (1, 1, 1), (0, 0)) == []


def test_trace_form_symmetric_invariant():
    rng = random.Random(4)
    box = lattice_box(2, 1)
    for _ in range(25):
        x = _random_element(rng, 2, Q2, box)
        y = _random_element(rng, 2, Q2, box)
        z = _random_element(rng, 2, Q2, box)
        assert trace_form(x, y) == trace_form(y, x)
        assert trace_form(mat_bracket(x, y), z) == trace_form(x, mat_bracket(y, z))


def test_hdot_form_normalization():
    for r in range(2):
        for s in range(2):
            assert trace_form(hdot(2, Q2, r), hdot(2, Q2, s)) == (2 if r == s else 0)


def _spans(elements):
    return SpanDict(b.coords() for b in elements)


def test_zero_root_component_cases_mixed_sign_matrix():
    # q12 = -1: dimension pattern 3 at 0, 4 at every other window degree
    expected = {
        (0, 0): (3, "even degree, no odd-product property"),
        (1, 0): (4, "even degree, odd-product property"),
        (0, 1): (4, "even degree, odd-product property"),
        (1, 1): (4, "odd degree, even-product property"),
    }
    for gamma, (dim, case) in expected.items():
        basis = zero_root_component(2, Q2, gamma)
        closed_case, real, imag = matlie._closed_form_case(2, Q2, gamma)
        span, _, nonzero_pair_dim = literal_zero_span(2, Q2, gamma, 1)
        assert closed_case == case
        assert list(basis) == real + imag
        assert span_equal(span, _spans(basis))
        assert len(basis) == span.dim == nonzero_pair_dim == dim


def test_zero_root_component_trivial_sign_matrix():
    q = SignMatrix(2)
    for gamma in ((0, 0), (1, 0), (1, 1)):
        basis = zero_root_component(2, q, gamma)
        span, _, _ = literal_zero_span(2, q, gamma, 1)
        assert span_equal(span, _spans(basis))
        assert len(basis) == span.dim == 3
        assert matlie._closed_form_case(2, q, gamma)[0] == "even degree, no odd-product property"


def test_zero_root_component_real_only():
    basis = zero_root_component(2, Q0, (), real_only=True)
    span, _, _ = literal_zero_span(2, Q0, (), 1, real_only=True)
    assert len(basis) == span.dim == 2
    assert span_equal(span, _spans(basis))
    target = SpanDict(hdot(2, Q0, r).coords() for r in range(2))
    assert span_equal(_spans(basis), target)


def test_zero_root_component_refuses_a_wrong_closed_form(wrong_closed_form):
    for q, gamma, real_only in ((Q2, (0, 0), False), (Q2, (1, 1), False), (Q0, (), True)):
        with pytest.raises(DecompositionError, match=re.escape(f"weight-0 derived slice at {gamma} is not spanned")):
            zero_root_component(2, q, gamma, real_only=real_only)


def test_zero_root_component_margin_one_saturates():
    # the bracket signs depend only on parities, so a wider box spans no more
    for gamma in ((0, 0), (1, 0), (1, 1)):
        span, _, _ = literal_zero_span(2, Q2, gamma, 2)
        assert span_equal(span, _spans(zero_root_component(2, Q2, gamma)))


def _weight_zero_feeds(ell, q, gamma, real_only):
    """zero_root_component's two feeds, run to exhaustion: the brackets through
    nonzero weights, then those of weight 0, through ``matlie.skew_root_basis``
    and ``matlie.mat_bracket``."""

    def piece(root):
        return matlie.skew_root_basis(ell, q, root.finite, root.lattice, real_only)

    box = lattice_box(q.nu, matlie.ZERO_MARGIN)
    for weights in (sorted(FiniteRootSystem(ell).nonzero_roots), [(0,) * ell]):
        yield opposite_brackets(piece, matlie.mat_bracket, weights, gamma, box)


def _counting_mat_bracket(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append(None)
        return mat_bracket(x, y)

    monkeypatch.setattr(matlie, "mat_bracket", counted)
    return calls


def _unstopped_bracket_counts(calls, ell, q, gamma, real_only):
    """The counted brackets of the unstopped scan: after the nonzero feed, and in all."""
    calls.clear()
    counts = []
    for feed in _weight_zero_feeds(ell, q, gamma, real_only):
        for _ in feed:
            pass
        counts.append(len(calls))
    return counts


def test_zero_root_component_stops_when_the_span_fills_the_b_slice(monkeypatch):
    # Stopping changes no result (a span cut short would not match the closed
    # form); it saves brackets exactly where the derived slice is the whole
    # weight-0 slice of B.
    calls = _counting_mat_bracket(monkeypatch)
    cases = [(Q2, gamma, False) for gamma in lattice_box(2, 2)] + [(Q0, (), True)]
    fewer = 0
    for q, gamma, real_only in cases:
        span, _, _ = literal_zero_span(2, q, gamma, 1, real_only)
        nonzero_feed, full = _unstopped_bracket_counts(calls, 2, q, gamma, real_only)
        calls.clear()
        basis = zero_root_component(2, q, gamma, real_only=real_only)
        assert span_equal(span, _spans(basis))
        ceiling = len(skew_root_basis(2, q, (0, 0), gamma, real_only))
        if span.dim == ceiling:
            # the nonzero feed fills the span, and the weight-0 feed is skipped
            assert len(calls) <= nonzero_feed < full, gamma
            fewer += 1
        else:
            assert len(calls) == full, gamma
    # all but the 9 even-degree slices of dimension 2l - 1
    assert fewer == len(cases) - 9


def test_zero_root_component_scans_everything_past_a_bracket_outside_the_ceiling(monkeypatch):
    gamma = (1, 0)
    _, expected, nonzero_pair_dim = literal_zero_span(2, Q2, gamma, 1)
    assert len(expected) == nonzero_pair_dim == 4
    # A ceiling missing the first spanning bracket: that bracket grows the span
    # from outside it, so a span of the ceiling's dimension is not the slice.
    broken = expected[1:]
    assert not _spans(broken).contains(expected[0].coords())

    def patched(ell, q, weight, sigma, real_only=False):
        if not any(weight) and tuple(sigma) == gamma:
            return list(broken)
        return skew_root_basis(ell, q, weight, sigma, real_only)

    monkeypatch.setattr(matlie, "skew_root_basis", patched)
    calls = _counting_mat_bracket(monkeypatch)
    # counted through the same broken slices (which also meet the weight-0 feed)
    _, full = _unstopped_bracket_counts(calls, 2, Q2, gamma, False)
    calls.clear()
    basis = zero_root_component(2, Q2, gamma)
    assert len(calls) == full
    assert len(basis) == 4
    assert span_equal(_spans(expected), _spans(basis))


def test_weight_zero_brackets_lie_in_the_b_slice():
    # The premise of the stop rule, on every bracket either feed yields.
    cases = [(Q2, gamma) for gamma in lattice_box(2, 1)] + [(Q3, (1, 0, 0)), (Q3, (1, 0, 1))]
    for q, gamma in cases:
        ceiling = SpanDict(x.coords() for x in skew_root_basis(2, q, (0, 0), gamma))
        for feed in _weight_zero_feeds(2, q, gamma, False):
            for b in feed:
                assert ceiling.contains(b.coords()), gamma


# -- weight-0 slices once per parity class of degrees -------------------------


def _parity(gamma):
    return tuple(g % 2 for g in gamma)


def _by_class(degrees):
    """The degrees of each parity class, in box order."""
    classes = defaultdict(list)
    for gamma in degrees:
        classes[_parity(gamma)].append(gamma)
    return classes


@pytest.mark.parametrize("ell, q, w, real_only", [
    (2, Q2, 3, False),
    (2, Q3, 1, False),
    (2, SignMatrix(2), 2, False),
    (3, Q2, 1, False),
    (2, Q0, 0, True),
], ids=["nu2-w3", "nu3-mixed-w1", "nu2-trivial-w2", "ell3-nu2-w1", "real-only-nu0"])
def test_class_route_matches_per_degree_scan_and_literal_oracle(ell, q, w, real_only):
    degrees = lattice_box(q.nu, w)
    classes = {}
    route = {gamma: zero_root_component_by_class(ell, q, gamma, classes, real_only) for gamma in degrees}
    assert len(classes) == 2 ** q.nu
    for gamma in degrees:
        assert route[gamma] == zero_root_component(ell, q, gamma, real_only), gamma
    # the literal loops at the last degree of each class, which the class
    # route matched without a scan whenever the class has two degrees or more
    for members in _by_class(degrees).values():
        gamma = members[-1]
        span, _, _ = literal_zero_span(ell, q, gamma, matlie.ZERO_MARGIN, real_only)
        assert span_equal(span, _spans(route[gamma])), gamma


def _scanned_degrees(monkeypatch):
    """Degrees at which zero_root_component brackets, in call order."""
    scanned = []
    current = []

    def scan(ell, q, gamma, real_only=False):
        current.append(tuple(gamma))
        try:
            return zero_root_component(ell, q, gamma, real_only)
        finally:
            current.pop()

    def counted(x, y):
        if not scanned or scanned[-1] != current[-1]:
            scanned.append(current[-1])
        return mat_bracket(x, y)

    monkeypatch.setattr(matlie, "zero_root_component", scan)
    monkeypatch.setattr(matlie, "mat_bracket", counted)
    return scanned


def test_window_scans_once_per_parity_class(monkeypatch):
    # the ears-torus-w3 window: 49 degrees, 4 classes, each scanned at its
    # first degree in box order
    scanned = _scanned_degrees(monkeypatch)
    decompose_window(TorusMatrixAlgebra(2, Q2), 3)
    firsts = [members[0] for members in _by_class(lattice_box(2, 3)).values()]
    assert len(firsts) == 4
    assert scanned == firsts


def test_wrong_closed_form_past_the_first_of_its_class_is_refused(monkeypatch):
    gamma = (1, 1)
    assert _by_class(lattice_box(2, 1))[_parity(gamma)][0] != gamma
    closed_form_case = matlie._closed_form_case

    def wrong_at_gamma(ell, q, degree):
        case, real, imag = closed_form_case(ell, q, degree)
        return (case, real[:-1], imag) if tuple(degree) == gamma else (case, real, imag)

    monkeypatch.setattr(matlie, "_closed_form_case", wrong_at_gamma)
    with pytest.raises(DecompositionError, match=re.escape(f"weight-0 derived slice at {gamma} is not spanned")):
        decompose_window(TorusMatrixAlgebra(2, Q2), 1)


def test_signs_beyond_parity_send_every_degree_to_its_scan(monkeypatch):
    # A cocycle that reads s[0] mod 4 differs from its parity-reduced value at
    # s = (-1, *) for some s in the margin box of every degree.
    g_cocycle = matlie.g_cocycle

    def mod_four(sigma, tau, q):
        flip = sigma[0] % 4 == 3 and tau[1] % 2
        return -g_cocycle(sigma, tau, q) if flip else g_cocycle(sigma, tau, q)

    monkeypatch.setattr(matlie, "g_cocycle", mod_four)
    scanned = _scanned_degrees(monkeypatch)
    degrees = lattice_box(2, 1)
    classes = {}
    for gamma in degrees:
        basis = zero_root_component_by_class(2, Q2, gamma, classes)
        span, _, _ = literal_zero_span(2, Q2, gamma, matlie.ZERO_MARGIN)
        assert span_equal(span, _spans(basis)), gamma
    assert classes == {}
    assert scanned == degrees


def test_hddot_definition():
    h = hddot(2, Q2, 0)
    assert h.entries[(0, 0)].coefficient((0, 0)) == GaussianRational(1)
    assert h.entries[(2, 2)].coefficient((0, 0)) == GaussianRational(1)
    d = hdot(2, Q2, 0) * Fraction(1, 2)
    assert (d + d) == hdot(2, Q2, 0)


def _entry_layout(x):
    """Entries and their coefficients, in dict order: report bytes follow this order."""
    return [(pos, list(val.coeffs.items())) for pos, val in x.entries.items()]


def _assert_fused_bracket_is_literal(bracket, x, y):
    fused = bracket(x, y)
    literal = (x @ y) - (y @ x)
    assert fused == literal
    assert _entry_layout(fused) == _entry_layout(literal)
    return fused


def test_fused_bracket_is_literal_commutator_on_window_bases(torus_win, aff_win, sqrt_alg, sqrt_win):
    # The torus ring (mat_bracket) and the square-root ring share one kernel.
    for win, part, bracket in ((torus_win, lambda v: v, mat_bracket),
                               (aff_win, lambda v: v.g, mat_bracket),
                               (sqrt_win, lambda v: v, sqrt_alg.bracket)):
        basis = [part(x) for _, x in win.all_basis()]
        for x in basis:
            for y in basis:
                _assert_fused_bracket_is_literal(bracket, x, y)


def test_fused_bracket_is_literal_commutator_with_cancellations(torus_win, sqrt_alg, sqrt_win):
    # Sums of basis vectors over several degrees: entry and coefficient sums
    # vanish and re-appear mid-product, which moves them in dict order.
    rng = random.Random(6)
    basis = [x for _, x in torus_win.all_basis()]
    for _ in range(300):
        x, y = (sum(rng.sample(basis, 4), LieElement.zero(2, Q2)) for _ in range(2))
        _assert_fused_bracket_is_literal(mat_bracket, x, y)
        _assert_fused_bracket_is_literal(mat_bracket, x, x + y)
    # Signed sums over several square-root labels: sqrt6 arises as sqrt2 sqrt3
    # and as sqrt3 sqrt2, so coefficients cancel inside one product as well as
    # between x y and y x.
    basis = [x for _, x in sqrt_win.all_basis()]
    cancelled = 0
    for _ in range(300):
        x, y = (sum((b * rng.choice((1, -1, 2)) for b in rng.sample(basis, 5)), sqrt_alg.zero())
                for _ in range(2))
        for u, v in ((x, y), (x, x + y)):
            fused = _assert_fused_bracket_is_literal(sqrt_alg.bracket, u, v)
            cancelled += len(fused.entries) < len((u @ v).entries.keys() | (v @ u).entries.keys())
    assert cancelled > 50
