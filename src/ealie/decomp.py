"""Windowed root-space decomposition and sl2 machinery over any graded algebra.

An algebra object must provide:

- ``nu``, ``fin`` (a FiniteRootSystem), ``window_degrees(w)``;
- ``graded_pieces(sigma)`` mapping weight tuples to basis element tuples, and
  ``root_piece(root)`` for a single slice (usable beyond the window);
- ``toral_basis()``, ``root_functional(root)`` with the expected bracket
  eigenvalue of each toral generator on the given slice;
- ``bracket``, ``form``, ``coords``, ``zero``, ``member_oracle(root)``;
- elements supporting +, -, and scalar multiplication by Fraction.

decompose_window builds the slices for all lattice degrees of max-norm <= w
and verifies, entry by entry, that every claimed basis vector is an exact
simultaneous eigenvector of the toral generators, that slices of a common
degree are linearly independent, and that the membership oracle agrees with
the computed slices inside the window.  Everything downstream (sl2 triples,
reflections, core/center/radical extraction) works through the verified
window object.
"""

from dataclasses import dataclass
from fractions import Fraction

from .finroot import Root
from .linalg import SpanDict, nullspace_dense, relations, solve_combination, solve_dense, span_equal
from .matlie import GradedPiece
from .quantum_torus import lattice_box, unit_degrees

__all__ = [
    "DecompositionError",
    "SL2Error",
    "NilpotencyError",
    "RootSystemWindow",
    "decompose_window",
    "toral_commute",
    "combine",
    "sl2_search",
    "sl2_triple",
    "isotropic_pair",
    "exp_ad",
    "theta_automorphism",
    "CoreData",
    "core_and_center_window",
    "centralizer_candidates",
]


class DecompositionError(AssertionError):
    """A claimed graded slice failed exact verification."""


class SL2Error(ValueError):
    """No partner with [x, y] = t was found in the opposite slice."""


class NilpotencyError(ValueError):
    """An ad-exponential did not terminate within the step cap."""


def combine(elements, coeffs, zero):
    """Exact linear combination sum(c * el), starting from the given zero."""
    acc = zero
    for el, c in zip(elements, coeffs):
        if c:
            acc = acc + el * c
    return acc


class RootSystemWindow:
    """Verified root decomposition of an algebra inside a lattice window."""

    def __init__(self, alg, w, pieces):
        self.alg = alg
        self.w = w
        self.fin = alg.fin
        self.pieces = pieces
        self._roots = sorted(pieces)
        self._t_cache = {}
        self._toral = tuple(alg.toral_basis())
        self._gram = [[alg.form(h1, h2) for h2 in self._toral] for h1 in self._toral]

    # -- root lists --------------------------------------------------------

    def roots(self):
        return list(self._roots)

    def basis(self, root):
        return self.pieces[root].basis

    def dim(self, root):
        return len(self.pieces[root].basis)

    def norm(self, root):
        return self.fin.pairing(root.finite, root.finite)

    def pairing(self, r1, r2):
        """Form value (r1, r2); lattice directions are isotropic and orthogonal to weights."""
        return self.fin.pairing(r1.finite, r2.finite)

    def is_isotropic(self, root):
        return not self.norm(root)

    def nonisotropic_roots(self):
        return [r for r in self._roots if not self.is_isotropic(r)]

    def isotropic_roots(self):
        return [r for r in self._roots if self.is_isotropic(r)]

    def member(self, root):
        if root in self.pieces:
            return True
        if all(abs(v) <= self.w for v in root.lattice):
            return False
        return self.alg.member_oracle(root)

    def all_basis(self):
        for root in self._roots:
            for x in self.pieces[root].basis:
                yield root, x

    # -- toral data ----------------------------------------------------------

    @property
    def toral(self):
        return self._toral

    @property
    def toral_gram(self):
        return [row[:] for row in self._gram]

    def rep_t(self, root):
        """The form representative t with (t, h) = root(h) for all toral h."""
        cached = self._t_cache.get(root)
        if cached is None:
            rhs = self.alg.root_functional(root)
            sol = solve_dense(self._gram, rhs)
            if sol is None:
                raise DecompositionError(f"toral form is degenerate against {root}")
            cached = combine(self._toral, sol, self.alg.zero())
            self._t_cache[root] = cached
        return cached

    def bracket(self, x, y):
        return self.alg.bracket(x, y)

    def form(self, x, y):
        return self.alg.form(x, y)

    def coords(self, x):
        return self.alg.coords(x)


def toral_commute(alg, toral):
    """True when the toral generators commute pairwise under ``alg.bracket``."""
    return all(
        alg.bracket(h1, h2).is_zero()
        for i, h1 in enumerate(toral) for h2 in toral[i + 1:]
    )


def decompose_window(alg, w):
    """Decompose all lattice degrees with max-norm <= w and verify exactness."""
    toral = tuple(alg.toral_basis())
    if not toral_commute(alg, toral):
        raise DecompositionError("toral generators do not commute")
    pieces = {}
    for sigma in alg.window_degrees(w):
        degree_span = SpanDict()
        total = 0
        for weight, basis in sorted(alg.graded_pieces(sigma).items()):
            if not basis:
                continue
            root = Root(finite=weight, lattice=sigma)
            lams = alg.root_functional(root)
            for x in basis:
                for lam, h in zip(lams, toral):
                    if not (alg.bracket(h, x) - x * lam).is_zero():
                        raise DecompositionError(
                            f"basis vector at {root} is not an exact eigenvector of toral generator"
                        )
                if not degree_span.add(alg.coords(x)):
                    raise DecompositionError(f"dependent basis vector at {root}")
                total += 1
            pieces[root] = GradedPiece(root=root, basis=tuple(basis))
        if degree_span.dim != total:  # unreachable: add() counted each vector
            raise DecompositionError("slice dimensions do not add up")
        for weight in list(alg.graded_pieces(sigma)) + [alg.fin.zero]:
            root = Root(finite=weight, lattice=sigma)
            present = root in pieces and bool(pieces[root].basis)
            if alg.member_oracle(root) != present:
                raise DecompositionError(f"membership oracle disagrees with window at {root}")
    return RootSystemWindow(alg, w, pieces)


def sl2_search(win, root, x):
    """Solve [x, y] = t_root for y in the opposite slice; None when unsolvable."""
    opp = -root
    if opp not in win.pieces:
        return None
    ys = win.basis(opp)
    vecs = [win.coords(win.bracket(x, b)) for b in ys]
    target = win.coords(win.rep_t(root))
    sol = solve_combination(vecs, target)
    if sol is None:
        return None
    return combine(ys, sol, win.alg.zero())


def sl2_triple(win, root, x=None):
    """An exact sl2 triple (e, h, f) through the slice at a nonisotropic root.

    e = x (default: first basis vector), h = 2 t_root/(root, root), f the
    solved partner rescaled; the defining relations are re-verified exactly.
    """
    nn = win.norm(root)
    if not nn:
        raise SL2Error(f"{root} is isotropic")
    if x is None:
        x = win.basis(root)[0]
    y = sl2_search(win, root, x)
    if y is None:
        raise SL2Error(f"no partner for the chosen vector at {root}")
    e = x
    h = win.rep_t(root) * Fraction(2, 1) * (1 / nn)
    f = y * Fraction(2, 1) * (1 / nn)
    checks = (
        (win.bracket(e, f) - h),
        (win.bracket(h, e) - e * Fraction(2)),
        (win.bracket(h, f) + f * Fraction(2)),
    )
    for c in checks:
        if not c.is_zero():
            raise SL2Error(f"solved triple at {root} fails an sl2 relation")
    return e, h, f


def isotropic_pair(win, delta, require_zero_bracket=False):
    """A pair (x, y) in opposite isotropic slices with [x, y] = t_delta, (x, y) = 1.

    With require_zero_bracket the bracket condition becomes [x, y] = 0 instead
    (and (x, y) = 1 still), which is the centerless-quotient variant.  Returns
    None when no basis vector x admits a partner.
    """
    opp = -delta
    if delta not in win.pieces or opp not in win.pieces:
        return None
    ys = win.basis(opp)
    if require_zero_bracket:
        target_elem = win.alg.zero()
    else:
        target_elem = win.rep_t(delta)
    tgt_coords = win.coords(target_elem)
    for x in win.basis(delta):
        vecs = [win.coords(win.bracket(x, b)) for b in ys]
        all_keys = sorted(set().union(tgt_coords, *vecs))
        a_rows = [[v.get(k, 0) for v in vecs] for k in all_keys]
        a_rows.append([win.form(x, b) for b in ys])
        rhs = [tgt_coords.get(k, 0) for k in all_keys] + [Fraction(1)]
        sol = solve_dense(a_rows, rhs)
        if sol is not None:
            y = combine(ys, sol, win.alg.zero())
            return x, y
    return None


def exp_ad(alg, u, z, cap=24):
    """exp(ad u) applied to z, with exact factorials; u must act nilpotently."""
    acc = z
    term = z
    k = 0
    while True:
        k += 1
        term = alg.bracket(u, term) * Fraction(1, k)
        if term.is_zero():
            return acc
        if k > cap:
            raise NilpotencyError(f"ad-exponential did not terminate within {cap} steps")
        acc = acc + term


def theta_automorphism(win, root, t=Fraction(1), x=None):
    """The inner automorphism exp(ad t e) exp(ad -t^{-1} f) exp(ad t e).

    Built on an exact sl2 triple at the given nonisotropic root; returns a
    callable on algebra elements.  It maps each slice onto the slice at the
    reflected root, which the axiom checks verify exactly.
    """
    t = Fraction(t)
    if not t:
        raise ValueError("parameter must be invertible")
    e, _, f = sl2_triple(win, root, x=x)
    alg = win.alg
    te = e * t
    tf = f * (-1 / t)

    def theta(z):
        return exp_ad(alg, te, exp_ad(alg, tf, exp_ad(alg, te, z)))

    return theta


@dataclass
class CoreData:
    """Windowed core structure: pieces, center, radical and toral complements."""

    pieces: dict
    center: tuple
    radical: tuple
    center_equals_radical: bool
    h_alpha: dict
    h_alpha_sum: object
    h_perp: tuple
    h_alpha_sum_equals_h_perp: bool

    def piece_basis(self, root):
        piece = self.pieces.get(root)
        return piece.basis if piece is not None else ()


def centralizer_candidates(alg, candidates, generators):
    """Vectors among ``candidates`` killing every generator, by one exact solve."""
    vecs = []
    for b in candidates:
        merged = {}
        for k, s in enumerate(generators):
            for key, val in alg.coords(alg.bracket(b, s)).items():
                merged[(k, key)] = val
        vecs.append(merged)
    out = []
    for rel in relations(vecs):
        out.append(combine(candidates, rel, alg.zero()))
    return out


def _small_generators(win):
    """Nonzero-weight slices at degree 0 and at the unit lattice degrees.

    Together with repeated brackets these generate every nonzero-weight slice
    (unit degrees generate the lattice), so killing them decides centrality;
    survivors are re-verified against the whole window basis anyway.
    """
    gens = []
    for sigma in unit_degrees(win.alg.nu):
        for weight, basis in sorted(win.alg.graded_pieces(sigma).items()):
            if any(weight):
                gens.extend(basis)
    return gens


# Lattice degrees beyond the window whose brackets span the isotropic core slices.
EXTRA_MARGIN = 2


def core_and_center_window(win):
    """Core, center and form radical of the core, within the window.

    The core piece at a nonisotropic root is the full slice; at an isotropic
    root it is the exact span of all brackets of opposite nonzero-weight
    slices whose lattice degrees stay within w + EXTRA_MARGIN.  The center is
    found per isotropic degree by solving the commutation equations against a
    small generating set and re-verifying survivors against the entire window
    core basis; nonisotropic slices cannot meet the center because a toral
    generator already acts there by a nonzero exact eigenvalue.
    """
    alg = win.alg
    fin = win.fin
    pieces = {}
    for root in win.nonisotropic_roots():
        pieces[root] = GradedPiece(root=root, basis=tuple(win.basis(root)))

    weights = sorted(w for w in {r.finite for r in win.nonisotropic_roots()})
    box = lattice_box(alg.nu, win.w + EXTRA_MARGIN)
    for delta in win.isotropic_roots():
        span = SpanDict()
        greedy = []
        for sigma in box:
            tau = tuple(d - s for d, s in zip(delta.lattice, sigma))
            for weight in weights:
                xs = alg.root_piece(Root(finite=weight, lattice=sigma))
                if not xs:
                    continue
                nw = tuple(-v for v in weight)
                ys = alg.root_piece(Root(finite=nw, lattice=tau))
                for x in xs:
                    for y in ys:
                        b = alg.bracket(x, y)
                        if not b.is_zero() and span.add(alg.coords(b)):
                            greedy.append(b)
        pieces[delta] = GradedPiece(root=delta, basis=tuple(greedy))

    generators = _small_generators(win)
    all_core_basis = [x for p in pieces.values() for x in p.basis]
    center = []
    for delta in win.isotropic_roots():
        for z in centralizer_candidates(alg, pieces[delta].basis, generators):
            if all(alg.bracket(z, x).is_zero() for x in all_core_basis):
                center.append(z)

    radical = []
    for root, piece in sorted(pieces.items()):
        opp = pieces.get(-root)
        if opp is None or not piece.basis:
            continue
        gram = [[alg.form(b, b2) for b2 in opp.basis] for b in piece.basis]
        cols = len(gram[0]) if opp.basis else 0
        if not cols:
            radical.extend(piece.basis)
            continue
        a_rows = [[gram[i][j] for i in range(len(piece.basis))] for j in range(cols)]
        for vec in nullspace_dense(a_rows, len(piece.basis)):
            radical.append(combine(piece.basis, vec, alg.zero()))

    center_span = SpanDict(alg.coords(z) for z in center)
    radical_span = SpanDict(alg.coords(z) for z in radical)
    center_eq_rad = span_equal(center_span, radical_span)

    h_alpha = {}
    h_sum = SpanDict()
    for root in win.nonisotropic_roots():
        opp = -root
        if opp not in win.pieces:
            continue
        t_root = win.rep_t(root)
        collected = []
        local = SpanDict()
        for x in win.basis(root):
            for y in win.basis(opp):
                v = alg.bracket(x, y) - t_root * alg.form(x, y)
                if not v.is_zero() and local.add(alg.coords(v)):
                    collected.append(v)
                h_sum.add(alg.coords(v))
        h_alpha[root] = tuple(collected)

    zero_root = Root(finite=fin.zero, lattice=(0,) * alg.nu)
    h_perp = []
    if zero_root in win.pieces:
        basis0 = win.basis(zero_root)
        toral = win.toral
        a_rows = [[alg.form(b, h) for b in basis0] for h in toral]
        for vec in nullspace_dense(a_rows, len(basis0)):
            h_perp.append(combine(basis0, vec, alg.zero()))
    h_perp_span = SpanDict(alg.coords(z) for z in h_perp)

    return CoreData(
        pieces=pieces,
        center=tuple(center),
        radical=tuple(radical),
        center_equals_radical=center_eq_rad,
        h_alpha=h_alpha,
        h_alpha_sum=h_sum,
        h_perp=tuple(h_perp),
        h_alpha_sum_equals_h_perp=span_equal(h_sum, h_perp_span),
    )
