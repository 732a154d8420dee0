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
derived algebra have a four-case closed form; zero_root_component returns it
once an exact spanning computation agrees with it, and raises
DecompositionError otherwise.  That computation spans the opposite-weight
brackets (``decomp.opposite_brackets``) over the box of max-norm ZERO_MARGIN,
nonzero weights first and then weight 0, with B's weight-0 slice as the
ceiling of ``decomp.fill_span``.  With q entries +-1 the scan reads degrees
only mod 2, so zero_root_component_by_class runs it once per parity class of
degrees and matches every later degree of the class to that class's checked
basis.
"""

from fractions import Fraction
from itertools import chain

from .decomp import DecompositionError, fill_span, opposite_brackets
from .exact_arith import GaussianRational
from .finroot import FiniteRootSystem
from .kernel import g_cocycle
from .linalg import SpanDict, span_equal
from .quantum_torus import TorusElement, coeff_product, kappa, lattice_box, torus_form
from .sparse import SparseMatrix, sparse_commutator, sparse_trace_pairing

__all__ = [
    "LieElement",
    "e_mat",
    "hdot",
    "hddot",
    "big_e",
    "star",
    "mat_bracket",
    "trace_form",
    "skew_root_basis",
    "zero_root_component",
    "zero_root_component_by_class",
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
    # torus-matrix product without touching other SparseMatrix types.  The
    # commutator does not go through it (see mat_bracket).
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


def e_mat(ell, q, p, r, sigma=None, coeff=1):
    """Matrix unit e_{p,r} times the monomial t^sigma times a scalar."""
    if sigma is None:
        sigma = q.zero()
    val = TorusElement.monomial(q, sigma, coeff)
    return LieElement(ell, q, {(p, r): val})


def hdot(ell, q, r, sigma=None, coeff=1):
    """Diagonal weight generator e_rr - e_{l+r,l+r} (times t^sigma)."""
    return e_mat(ell, q, r, r, sigma, coeff) + e_mat(ell, q, ell + r, ell + r, sigma, -coeff)


def hddot(ell, q, r, sigma=None, coeff=1):
    """Diagonal trace-type generator e_rr + e_{l+r,l+r} (times t^sigma)."""
    return e_mat(ell, q, r, r, sigma, coeff) + e_mat(ell, q, ell + r, ell + r, sigma, coeff)


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
    """Commutator [x, y] = x y - y x, fused on the torus coefficient dicts.

    Entries and coefficients come out in exactly the order of
    ``(x @ y) - (y @ x)`` (see ``sparse_commutator``).
    """
    x._check_compat(y)
    q = x.q
    out = sparse_commutator(x.entries, y.entries, coeff_product, q)
    return x._with({pos: TorusElement.wrap(q, coeffs) for pos, coeffs in out.items()})


def trace_form(x, y):
    """Symmetric pairing eps(tr(x y)), accumulated sparsely."""
    x._check_compat(y)
    return sparse_trace_pairing(x.entries, y.entries, torus_form)


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


# Lattice margin of the spanning computation behind each derived weight-0 slice:
# the bracket signs depend only on parities, so margin 1 already saturates it.
ZERO_MARGIN = 1


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


def zero_root_component(ell, q, gamma, real_only=False):
    """Basis of the weight-0 slice of the derived algebra at degree gamma.

    The basis is the four-case closed form (``_closed_form_case``), checked by
    exact spanning before it is returned.  The scan spans the brackets
    [B_w^s, B_{-w}^{gamma-s}] over all nonzero weights w and all s in the box
    of max-norm ZERO_MARGIN, then the weight-0 x weight-0 brackets, which make
    it the honest derived-algebra slice.  Every such bracket lies in B's
    weight-0 slice at gamma, so that slice is the ceiling of
    ``decomp.fill_span``; when the span fills it early, the weight-0 x
    weight-0 brackets are never formed.  A closed form whose span differs
    from the scanned span raises DecompositionError.
    Each call scans; zero_root_component_by_class scans once per parity
    class of degrees.
    """
    gamma = tuple(gamma)
    zero = (0,) * ell
    ceiling = SpanDict(x.coords() for x in skew_root_basis(ell, q, zero, gamma, real_only))

    def piece(root):
        return skew_root_basis(ell, q, root.finite, root.lattice, real_only)

    box = lattice_box(q.nu, ZERO_MARGIN)
    feeds = (sorted(FiniteRootSystem(ell).nonzero_roots), [zero])
    brackets = chain.from_iterable(opposite_brackets(piece, mat_bracket, weights, gamma, box)
                                   for weights in feeds)
    span = fill_span(brackets, LieElement.coords, ceiling)[0]

    case, closed = _closed_form(ell, q, gamma, real_only)
    if not span_equal(span, SpanDict(el.coords() for el in closed)):
        raise DecompositionError(f"weight-0 derived slice at {gamma} is not spanned by its closed form ({case})")
    return closed


def _closed_form(ell, q, gamma, real_only):
    case, real, imag = _closed_form_case(ell, q, gamma)
    return case, tuple(real if real_only else real + imag)


def _reads_parity(q, gamma):
    """Whether every sign the scan at gamma reads equals its value at degrees
    mod 2: kappa at s and gamma - s, and g_cocycle at (s, gamma - s) and
    (gamma - s, s), for each s in the box of max-norm ZERO_MARGIN."""
    for s in lattice_box(q.nu, ZERO_MARGIN):
        t = tuple(g - v for g, v in zip(gamma, s))
        s2 = tuple(v % 2 for v in s)
        t2 = tuple(v % 2 for v in t)
        if (kappa(s, q) != kappa(s2, q) or kappa(t, q) != kappa(t2, q)
                or g_cocycle(s, t, q) != g_cocycle(s2, t2, q)
                or g_cocycle(t, s, q) != g_cocycle(t2, s2, q)):
            return False
    return True


def _stripped(basis, gamma):
    """Each vector's coordinates with the degree key dropped where it is gamma."""
    return tuple({(key[1:] if key[0] == gamma else key): c for key, c in el.coords().items()}
                 for el in basis)


def zero_root_component_by_class(ell, q, gamma, classes, real_only=False):
    """zero_root_component, with the spanning scan run once per class gamma mod 2.

    ``classes`` is the caller's memo from gamma mod 2 to the degree-stripped
    coordinates of a basis zero_root_component returned in that class.  The
    scan at gamma brackets slices at s and gamma - s, whose bases depend on
    their degrees only through kappa and the monomial, and whose products
    only through g_cocycle.  So when those signs read degrees only mod 2
    (``_reads_parity``, checked at gamma), the scan at gamma is the class's
    scan with its degree key moved, and a closed form at gamma whose stripped
    coordinates are the class's is the one the scan would accept.  Any other
    gamma, and the first of each class, gets zero_root_component's scan,
    which names gamma in its DecompositionError.  A class is recorded only
    from a degree whose signs read parity.
    """
    gamma = tuple(gamma)
    key = tuple(g % 2 for g in gamma)
    known = classes.get(key)
    if known is not None and _reads_parity(q, gamma):
        closed = _closed_form(ell, q, gamma, real_only)[1]
        if _stripped(closed, gamma) == known:
            return closed
    closed = zero_root_component(ell, q, gamma, real_only)
    if known is None and _reads_parity(q, gamma):
        classes[key] = _stripped(closed, gamma)
    return closed
