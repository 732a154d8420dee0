"""Skew matrix algebras over the twisted torus under a symplectic involution.

Square matrices of size 2l over the torus algebra carry the involution
X -> E^{-1} bar(X)^t E, where E is the standard symplectic structure matrix
(E = sum_r e_{r, l+r} - e_{l+r, r}, E^{-1} = -E) and bar conjugates entries.
Its -1 eigenspace B is a Lie algebra under the commutator; with real (nu = 0)
coefficients B is the rational symplectic algebra sp_{2l}.

The diagonal coefficient subalgebra spanned by h_r = e_rr - e_{l+r,l+r} acts
diagonally; nonzero weights form the type-C root system of rank l, and each
nonzero-weight, fixed-degree slice of B is at most 2-dimensional with an
explicit basis (one real, one imaginary generator).  Weight-0 slices of the
derived algebra need an actual spanning computation; zero_root_component does
it and cross-checks a closed-form four-case description.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import GaussianRational
from .linalg import SpanDict, span_equal
from .quantum_torus import TorusElement, kappa, lattice_box, torus_form
from .sparse import SparseMatrix, sparse_trace_pairing

__all__ = [
    "LieElement",
    "e_mat",
    "hdot",
    "hddot",
    "big_e",
    "star",
    "mat_bracket",
    "trace_form",
    "symplectic_eigenbasis",
    "skew_basis",
    "skew_root_basis",
    "nonzero_weights",
    "GradedPiece",
    "ZeroWeightComponent",
    "zero_root_component",
]

_I = GaussianRational(0, 1)


class LieElement(SparseMatrix):
    """Sparse 2l x 2l matrix with torus-algebra entries."""

    __slots__ = ("ell", "q")

    def __init__(self, ell, q, entries=None):
        self.ell = ell
        self.q = q
        self.shape = (ell, q)
        self.entries = self._nonzero(entries)

    @classmethod
    def zero(cls, ell, q):
        return cls(ell, q)

    def _with(self, entries):
        r = object.__new__(LieElement)
        r.ell = self.ell
        r.q = self.q
        r.shape = self.shape
        r.entries = entries
        return r

    @staticmethod
    def _scalar(x):
        return x if isinstance(x, (int, Fraction, GaussianRational)) else None

    # Bound here rather than inherited, so that a per-layer tracer can wrap the
    # torus-matrix product without touching other SparseMatrix types.
    __matmul__ = SparseMatrix.__matmul__

    def coords(self):
        """Sparse rational coordinates keyed (degree, row, col, part) with part 0=re, 1=im."""
        out = {}
        for (p, r_), val in self.entries.items():
            for sigma, c in val.coeffs.items():
                if c.re:
                    out[(sigma, p, r_, 0)] = c.re
                if c.im:
                    out[(sigma, p, r_, 1)] = c.im
        return out

    def support_degrees(self):
        degs = set()
        for val in self.entries.values():
            degs.update(val.coeffs)
        return degs

    def is_real(self):
        return all(not c.im for val in self.entries.values() for c in val.coeffs.values())


def e_mat(ell, q, p, r, sigma=None, coeff=1):
    """Matrix unit e_{p,r} times the monomial t^sigma times a scalar."""
    if sigma is None:
        sigma = q.zero()
    val = TorusElement.monomial(q, sigma, coeff)
    return LieElement(ell, q, {(p, r): val})


def hdot(ell, q, r, sigma=None, coeff=1):
    """Diagonal weight generator e_rr - e_{l+r,l+r} (times t^sigma)."""
    return e_mat(ell, q, r, r, sigma, coeff) + e_mat(ell, q, ell + r, ell + r, sigma, -1 * _as_gauss(coeff))


def hddot(ell, q, r, sigma=None, coeff=1):
    """Diagonal trace-type generator e_rr + e_{l+r,l+r} (times t^sigma)."""
    return e_mat(ell, q, r, r, sigma, coeff) + e_mat(ell, q, ell + r, ell + r, sigma, coeff)


def _as_gauss(c):
    return c if isinstance(c, GaussianRational) else GaussianRational(c)


def big_e(ell, q):
    """The symplectic structure matrix E."""
    out = LieElement.zero(ell, q)
    for r in range(ell):
        out = out + e_mat(ell, q, r, ell + r) + e_mat(ell, q, ell + r, r, sigma=None, coeff=-1)
    return out


def star(x):
    """The involution X -> E^{-1} bar(X)^t E, computed by index bookkeeping.

    For a target entry (p, r): star(X)[p, r] = sp * sr * bar(X[b, a]) with
    a = p +- l and b = r +- l the symplectic mates, sp = -1 for p < l else +1,
    sr = -1 for r < l else +1.  Tests compare against the literal product
    (-E) @ bar(X)^t @ E.
    """
    ell = x.ell
    out = {}
    for (b, a), val in x.entries.items():
        p, sp = (a - ell, 1) if a >= ell else (a + ell, -1)
        r_, sr = (b + ell, -1) if b < ell else (b - ell, 1)
        v = val.bar()
        if sp * sr < 0:
            v = -v
        out[(p, r_)] = v
    return LieElement(ell, x.q, out)


def mat_bracket(x, y):
    """Commutator [x, y] = x y - y x."""
    return (x @ y) - (y @ x)


def trace_form(x, y):
    """Symmetric pairing eps(tr(x y)), accumulated sparsely."""
    x._check_compat(y)
    return sparse_trace_pairing(x.entries, y.entries, torus_form)


def _row_weight(ell, p):
    w = [0] * ell
    if p < ell:
        w[p] = 1
    else:
        w[p - ell] = -1
    return w


def _unit_weight(ell, terms):
    (p, r_), _ = terms[0]
    a = _row_weight(ell, p)
    b = _row_weight(ell, r_)
    return tuple(x - y for x, y in zip(a, b))


def symplectic_eigenbasis(ell):
    """Eigenbasis specs of the real involution M -> E^{-1} M^t E on 2l x 2l matrices.

    Returns (minus, plus); each item is (terms, weight) where terms is a list
    of ((row, col), sign) and weight the diagonal weight tuple.  The -1
    eigenspace is sp_{2l} (dimension 2l^2 + l), the +1 eigenspace has
    dimension 2l^2 - l.  All listed matrices are weight-homogeneous.
    """
    minus = []
    plus = []
    for r in range(ell):
        minus.append(([((r, r), 1), ((ell + r, ell + r), -1)], (0,) * ell))
        plus.append(([((r, r), 1), ((ell + r, ell + r), 1)], (0,) * ell))
    for r in range(ell):
        for s in range(ell):
            if r != s:
                terms_m = [((r, s), 1), ((ell + s, ell + r), -1)]
                terms_p = [((r, s), 1), ((ell + s, ell + r), 1)]
                minus.append((terms_m, _unit_weight(ell, [terms_m[0]])))
                plus.append((terms_p, _unit_weight(ell, [terms_p[0]])))
    for r in range(ell):
        for s in range(r, ell):
            if r == s:
                t_up = [((r, ell + r), 1)]
                t_dn = [((ell + r, r), 1)]
                minus.append((t_up, _unit_weight(ell, t_up)))
                minus.append((t_dn, _unit_weight(ell, t_dn)))
            else:
                up_m = [((r, ell + s), 1), ((s, ell + r), 1)]
                up_p = [((r, ell + s), 1), ((s, ell + r), -1)]
                dn_m = [((ell + r, s), 1), ((ell + s, r), 1)]
                dn_p = [((ell + r, s), 1), ((ell + s, r), -1)]
                minus.append((up_m, _unit_weight(ell, [up_m[0]])))
                plus.append((up_p, _unit_weight(ell, [up_p[0]])))
                minus.append((dn_m, _unit_weight(ell, [dn_m[0]])))
                plus.append((dn_p, _unit_weight(ell, [dn_p[0]])))
    return minus, plus


def _spec_to_element(ell, q, terms, sigma, imaginary):
    coeff = _I if imaginary else GaussianRational(1)
    out = LieElement.zero(ell, q)
    for (p, r_), sign in terms:
        out = out + e_mat(ell, q, p, r_, sigma, coeff if sign > 0 else -coeff)
    return out


def skew_basis(ell, q, sigma, real_only=False):
    """Basis of the degree-sigma slice of the skew algebra B.

    An element t^sigma (P + iQ) is skew exactly when the real matrices satisfy
    J(P) = -kappa(sigma) P and J(Q) = +kappa(sigma) Q for the real involution
    J; the slice has real dimension 4l^2 (2l^2 + l real generators and
    2l^2 - l imaginary ones, swapped between eigenspaces when kappa = -1).
    With real_only, just the real generators are returned.
    """
    k = kappa(sigma, q)
    minus, plus = symplectic_eigenbasis(ell)
    p_list = minus if k > 0 else plus
    q_list = plus if k > 0 else minus
    out = [_spec_to_element(ell, q, terms, sigma, False) for terms, _ in p_list]
    if not real_only:
        out += [_spec_to_element(ell, q, terms, sigma, True) for terms, _ in q_list]
    return out


def nonzero_weights(ell):
    """All nonzero diagonal weights (the type-C root system of rank l)."""
    out = []
    for r in range(ell):
        for s in range(ell):
            if r != s:
                w = [0] * ell
                w[r], w[s] = 1, -1
                out.append(tuple(w))
    for r in range(ell):
        for s in range(r, ell):
            w = [0] * ell
            w[r] += 1
            w[s] += 1
            out.append(tuple(w))
            out.append(tuple(-x for x in w))
    return out


def skew_root_basis(ell, q, weight, sigma, real_only=False):
    """Basis of the weight/degree slice of B for a nonzero or zero weight.

    Nonzero weights get the explicit one-real-one-imaginary basis; the zero
    weight gets the full diagonal-block slice of B (not of the derived
    algebra; see zero_root_component for that).  Unknown weights yield [].
    """
    k = kappa(sigma, q)
    pos = [r for r, v in enumerate(weight) if v > 0]
    neg = [r for r, v in enumerate(weight) if v < 0]
    tot = sum(abs(v) for v in weight)
    elems = None
    if tot == 0:
        if k > 0:
            elems = [(hdot(ell, q, r, sigma), False) for r in range(ell)] + [
                (hddot(ell, q, r, sigma, _I), True) for r in range(ell)
            ]
        else:
            elems = [(hddot(ell, q, r, sigma), False) for r in range(ell)] + [
                (hdot(ell, q, r, sigma, _I), True) for r in range(ell)
            ]
    elif tot == 2 and len(pos) == 1 and len(neg) == 1 and weight[pos[0]] == 1:
        r, s = pos[0], neg[0]
        re_el = e_mat(ell, q, r, s, sigma) + e_mat(ell, q, ell + s, ell + r, sigma, -k)
        im_el = e_mat(ell, q, r, s, sigma, _I) + e_mat(ell, q, ell + s, ell + r, sigma, _I * k)
        elems = [(re_el, False), (im_el, True)]
    elif tot == 2 and len(pos) == 2:
        r, s = pos
        re_el = e_mat(ell, q, r, ell + s, sigma) + e_mat(ell, q, s, ell + r, sigma, k)
        im_el = e_mat(ell, q, r, ell + s, sigma, _I) + e_mat(ell, q, s, ell + r, sigma, -_I * k)
        elems = [(re_el, False), (im_el, True)]
    elif tot == 2 and len(neg) == 2:
        r, s = neg
        re_el = e_mat(ell, q, ell + r, s, sigma) + e_mat(ell, q, ell + s, r, sigma, k)
        im_el = e_mat(ell, q, ell + r, s, sigma, _I) + e_mat(ell, q, ell + s, r, sigma, -_I * k)
        elems = [(re_el, False), (im_el, True)]
    elif tot == 2 and len(pos) == 1 and weight[pos[0]] == 2:
        r = pos[0]
        el = e_mat(ell, q, r, ell + r, sigma, GaussianRational(1) if k > 0 else _I)
        elems = [(el, k < 0)]
    elif tot == 2 and len(neg) == 1 and weight[neg[0]] == -2:
        r = neg[0]
        el = e_mat(ell, q, ell + r, r, sigma, GaussianRational(1) if k > 0 else _I)
        elems = [(el, k < 0)]
    if elems is None:
        return []
    if real_only:
        return [el for el, imag in elems if not imag]
    return [el for el, _ in elems]


@dataclass(frozen=True)
class GradedPiece:
    """A verified weight/degree slice: its root label, basis and dimension."""

    root: object
    basis: tuple
    closed_form_match: bool = True

    @property
    def dim(self):
        return len(self.basis)


@dataclass(frozen=True)
class ZeroWeightComponent:
    """Weight-0 slice of the derived algebra at a fixed degree.

    ``dim``/``basis`` come from the authoritative spanning computation;
    ``closed_form_match`` records whether the four-case closed form agrees
    exactly.  ``full_dim`` (computed when diagonal pairs are included) spans
    all degree-compatible bracket pairs, ``nonzero_pair_dim`` only those
    through nonzero weights.
    """

    gamma: tuple
    basis: tuple
    dim: int
    case: str
    closed_form_match: bool
    nonzero_pair_dim: int
    full_dim: int | None


def _closed_form_case(ell, q, gamma):
    """Four-case description of the weight-0 derived slice at degree gamma."""
    nu = q.nu
    k_gamma = kappa(gamma, q)
    seen = set()
    for p in lattice_box(nu, 1):
        if any(v < 0 for v in p):
            continue
        rest = tuple(g - x for g, x in zip(gamma, p))
        seen.add(kappa(p, q) * kappa(rest, q))
    even_prop = 1 in seen
    odd_prop = -1 in seen
    if k_gamma > 0:
        if odd_prop:
            case = "even degree, odd-product property"
            real = [hdot(ell, q, r, gamma) for r in range(ell)]
            imag = [hddot(ell, q, r, gamma, _I) for r in range(ell)]
        else:
            case = "even degree, no odd-product property"
            real = [hdot(ell, q, r, gamma) for r in range(ell)]
            imag = [hddot(ell, q, r, gamma, _I) - hddot(ell, q, r + 1, gamma, _I) for r in range(ell - 1)]
    else:
        if even_prop:
            case = "odd degree, even-product property"
            real = [hddot(ell, q, r, gamma) for r in range(ell)]
            imag = [hdot(ell, q, r, gamma, _I) for r in range(ell)]
        else:
            case = "odd degree, no even-product property"
            real = [hddot(ell, q, r, gamma) - hddot(ell, q, r + 1, gamma) for r in range(ell - 1)]
            imag = [hdot(ell, q, r, gamma, _I) for r in range(ell)]
    return case, real, imag


def zero_root_component(ell, q, gamma, margin=3, include_diagonal_pairs=False, real_only=False):
    """Weight-0 slice of the derived algebra at degree gamma, by exact spanning.

    Spans brackets [B_w^s, B_{-w}^{gamma-s}] over all nonzero weights w and
    all s in the margin box (the bracket signs only depend on parities, so any
    margin >= 1 already saturates the span; larger margins re-verify that).
    With include_diagonal_pairs the weight-0 x weight-0 brackets are added,
    which is the honest derived-algebra slice; its equality with the
    nonzero-pair span is a checked theorem, not an assumption.  The spanning
    result is authoritative; the four-case closed form is cross-checked and
    any mismatch is reported through closed_form_match.
    """
    gamma = tuple(gamma)
    nu = q.nu
    span = SpanDict()
    greedy = []

    def feed(x, y):
        b = mat_bracket(x, y)
        if b and span.add(b.coords()):
            greedy.append(b)

    box = lattice_box(nu, margin)
    weights = nonzero_weights(ell)
    for s in box:
        t = tuple(g - v for g, v in zip(gamma, s))
        for w in weights:
            nw = tuple(-v for v in w)
            for x in skew_root_basis(ell, q, w, s, real_only):
                for y in skew_root_basis(ell, q, nw, t, real_only):
                    feed(x, y)
    nonzero_pair_dim = span.dim
    full_dim = None
    if include_diagonal_pairs:
        zero_w = (0,) * ell
        for s in box:
            t = tuple(g - v for g, v in zip(gamma, s))
            for x in skew_root_basis(ell, q, zero_w, s, real_only):
                for y in skew_root_basis(ell, q, zero_w, t, real_only):
                    feed(x, y)
        full_dim = span.dim

    case, real, imag = _closed_form_case(ell, q, gamma)
    closed = real if real_only else real + imag
    closed_span = SpanDict(el.coords() for el in closed)
    match = span_equal(span, closed_span)
    basis = tuple(closed) if match else tuple(greedy)
    return ZeroWeightComponent(
        gamma=gamma,
        basis=basis,
        dim=span.dim,
        case=case,
        closed_form_match=match,
        nonzero_pair_dim=nonzero_pair_dim,
        full_dim=full_dim,
    )
