"""Windowed root-space decomposition and sl2 machinery over any graded algebra.

An algebra object must provide nine members:

- ``nu`` (the lattice rank) and ``fin`` (a FiniteRootSystem);
- ``root_piece(root)``, the basis tuple of one slice (usable beyond the window);
- ``toral_basis()`` and ``root_functional(root)``, the expected bracket
  eigenvalue of each toral generator on the given slice;
- ``bracket``, ``form``, ``coords`` and ``zero``;
- elements supporting +, -, and scalar multiplication by Fraction.

Every construction has one slice per (finite root, lattice degree) pair, and
every finite root occurs at every degree.  So the rest is derived here, once:
the window degrees are ``lattice_box(nu, w)``, ``graded_pieces(alg, sigma)``
lists the slices of one degree, and beyond the window a root is a member
exactly when its finite part lies in ``fin``.

decompose_window builds the slices for all lattice degrees of max-norm <= w
and verifies, entry by entry, that every claimed basis vector is an exact
simultaneous eigenvector of the toral generators, that slices of a common
degree are linearly independent, and that the membership rule agrees with
the computed slices inside the window.  Everything downstream (sl2 triples,
reflections, core/center/radical extraction) works through the verified
window object.  The window brackets and forms opposite slices once, on
first use: ``bracket_table`` per +-root pair, read by T3, D12a, the sl2
triples and PROPS, and ``gram`` per root, read by the form checks of T1 and
D1 and by PROPS.

``fill_span`` is the one stop rule for spans of brackets known to lie in a
given slice: the isotropic core slices here and the derived weight-0 slices
of the matrix algebras read opposite-weight brackets through it.  The core
layer only computes spans; the suites decide every claim about them.
"""

from dataclasses import dataclass
from fractions import Fraction

from .ears import first_broken_string
from .finroot import Root
from .linalg import (
    SpanDict,
    nullspace_dense,
    rows_by_key,
    solve_combination,
    solve_dense,
    sparse_nullspace,
)
from .quantum_torus import lattice_box, unit_degrees

__all__ = [
    "DecompositionError",
    "SL2Error",
    "NilpotencyError",
    "GradedPiece",
    "RootSystemWindow",
    "decompose_window",
    "graded_pieces",
    "toral_commute",
    "combine",
    "sl2_search",
    "sl2_triple",
    "isotropic_pair",
    "normalized_pair",
    "exp_ad",
    "theta_automorphism",
    "CoreData",
    "opposite_brackets",
    "fill_span",
    "core_and_center_window",
    "centralizer_candidates",
]

# Terms of exp(ad u) after which a still-nonzero term raises NilpotencyError.
EXP_AD_CAP = 24


class DecompositionError(AssertionError):
    """A claimed graded slice failed exact verification."""


class SL2Error(ValueError):
    """No partner with [x, y] = t was found in the opposite slice."""


class NilpotencyError(ValueError):
    """An ad-exponential did not terminate within the step cap."""


@dataclass(frozen=True)
class GradedPiece:
    """A verified weight/degree slice: its root label, basis and dimension."""

    root: object
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)


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
        outside = next((r for r in self._roots if not self.in_box(r.lattice)), None)
        if outside is not None:
            raise DecompositionError(f"slice at {outside} lies outside the window box of max-norm {w}")
        self.vectors = frozenset(r.finite + r.lattice for r in pieces)
        split = ([], [])
        for r in self._roots:
            split[self.is_isotropic(r)].append(r)
        self._nonisotropic, self._isotropic = map(tuple, split)
        self._t_cache = {}
        self._tables = {}  # root -> bracket_table(root), first root of each +-root pair
        self._grams = {}  # root -> gram(root)
        self._strings = None  # (first_broken_string(self),) once scanned
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
        return list(self._nonisotropic)

    def isotropic_roots(self):
        return list(self._isotropic)

    def in_box(self, lattice):
        """True when the lattice degree has max-norm <= w, i.e. lies in the window."""
        w = self.w
        for x in lattice:
            if x > w or x < -w:
                return False
        return True

    def member(self, v):
        """Root membership of the flat vector ``finite + lattice``.

        Inside the window's box the computed slices decide; beyond it a vector
        is a root exactly when its finite part lies in ``fin`` (or is zero).
        Every slice lies in the box (``__init__`` checks it), so a vector in
        ``vectors`` is always in the box.  R4's literal loop
        (``ears.first_broken_string`` on a window that is not full) reads
        every string flag here.
        """
        if v in self.vectors:
            return True
        k = self.fin.rank
        if self.in_box(v[k:]):
            return False
        return self.fin.contains(v[:k])

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

    def bracket_table(self, root):
        """M[i][j] = coords([x_i, y_j]) over the bases x of slice ``root`` and
        y of slice -root, built once per +-root pair.

        The first root of the pair asked for brackets its basis pairs and
        keeps the table; the other reads it transposed and negated, a view
        made on each read and not kept, since [y_j, x_i] = -[x_i, y_j] by
        exact antisymmetry.  T3, D12a, ``sl2_search`` (SERRE's sl2 triples,
        theta, prop-bracket-form-normalization) and prop-h-alpha-sum read
        these tables and assume antisymmetry nowhere else.
        """
        mirror = self._tables.get(-root)
        if mirror is not None:
            return [[{k: -v for k, v in xy.items()} for xy in col] for col in zip(*mirror)]
        if root not in self._tables:
            self._tables[root] = [[self.coords(self.bracket(x, y)) for y in self.basis(-root)]
                                  for x in self.basis(root)]
        return self._tables[root]

    def gram(self, root):
        """G[i][j] = (x_i, y_j) over the bases x of slice ``root`` and y of
        slice -root, formed once per root: the form's symmetry is checked
        on these tables, so neither root of a pair reads the other's."""
        if root not in self._grams:
            self._grams[root] = [[self.form(x, y) for y in self.basis(-root)] for x in self.basis(root)]
        return self._grams[root]

    def broken_string(self):
        """``ears.first_broken_string`` of this window, scanned once: R4 and PROPS share it."""
        if self._strings is None:
            self._strings = (first_broken_string(self),)
        return self._strings[0]

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


def graded_pieces(alg, sigma):
    """The slices of one lattice degree: weight 0, then the sorted nonzero roots."""
    weights = [alg.fin.zero] + sorted(alg.fin.nonzero_roots)
    return {weight: alg.root_piece(Root(finite=weight, lattice=sigma)) for weight in weights}


def decompose_window(alg, w):
    """Decompose all lattice degrees with max-norm <= w and verify exactness."""
    toral = tuple(alg.toral_basis())
    if not toral_commute(alg, toral):
        raise DecompositionError("toral generators do not commute")
    pieces = {}
    for sigma in lattice_box(alg.nu, w):
        degree_span = SpanDict()
        total = 0
        for weight, basis in sorted(graded_pieces(alg, sigma).items()):
            root = Root(finite=weight, lattice=sigma)
            if not basis:  # every finite root is a member at every degree
                raise DecompositionError(f"membership rule disagrees with window at {root}")
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
    return RootSystemWindow(alg, w, pieces)


def sl2_search(win, root):
    """Solve [x, y] = t_root for y in the opposite slice, x the slice's first
    basis vector, from row 0 of ``win.bracket_table(root)``; None when
    unsolvable."""
    if -root not in win.pieces:
        return None
    sol = solve_combination(win.bracket_table(root)[0], win.coords(win.rep_t(root)))
    if sol is None:
        return None
    return combine(win.basis(-root), sol, win.alg.zero())


def sl2_triple(win, root):
    """An exact sl2 triple (e, h, f) through the slice at a nonisotropic root.

    e is the slice's first basis vector, h = 2 t_root/(root, root), f the
    solved partner rescaled; the defining relations are re-verified exactly.
    """
    nn = win.norm(root)
    if not nn:
        raise SL2Error(f"{root} is isotropic")
    e = win.basis(root)[0]
    y = sl2_search(win, root)
    if y is None:
        raise SL2Error(f"no partner for the chosen vector at {root}")
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
    target = win.alg.zero() if require_zero_bracket else win.rep_t(delta)
    return normalized_pair(win, win.basis(delta), win.basis(opp), target)


def normalized_pair(win, xs, ys, target, free=()):
    """The first x in xs with a y in the span of ys: (x, y) = 1 and [x, y] =
    target plus some combination of the ``free`` elements.

    One exact solve per x: its unknowns are the coefficients of the brackets
    [x, b] for b in ys and of the free elements, with one equation per
    coordinate key and one more, under a key of its own, for the form.
    Returns (x, y), or None when no x admits a partner.
    """
    form = object()  # the form row's key, distinct from every coordinate key
    tgt = {**win.coords(target), form: 1}
    free = [win.coords(z) for z in free]
    for x in xs:
        vecs = [{**win.coords(win.bracket(x, b)), form: win.form(x, b)} for b in ys]
        sol = solve_combination(vecs + free, tgt)
        if sol is not None:
            return x, combine(ys, sol[:len(ys)], win.alg.zero())
    return None


def exp_ad(alg, u, z):
    """exp(ad u) applied to z, with exact factorials; u must act nilpotently."""
    acc = z
    term = z
    k = 0
    while True:
        k += 1
        term = alg.bracket(u, term) * Fraction(1, k)
        if term.is_zero():
            return acc
        if k > EXP_AD_CAP:
            raise NilpotencyError(f"ad-exponential did not terminate within {EXP_AD_CAP} steps")
        acc = acc + term


def theta_automorphism(win, root):
    """The inner automorphism exp(ad e) exp(ad -f) exp(ad e).

    Built on the exact sl2 triple ``sl2_triple(win, root)`` at the given
    nonisotropic root; returns a callable on algebra elements.  It maps each
    slice onto the slice at the reflected root.  No suite calls it; acceptance
    criterion 10 (``tests/test_acceptance.py``) checks that mapping exactly.
    """
    e, _, f = sl2_triple(win, root)
    alg = win.alg
    minus_f = f * -1

    def theta(z):
        return exp_ad(alg, e, exp_ad(alg, minus_f, exp_ad(alg, e, z)))

    return theta


@dataclass
class CoreData:
    """Windowed core structure, solved once by ``core_and_center_window``.

    ``pieces`` holds the core slices.  ``centralizer`` and ``perp`` are the
    window centralizer (isotropic slices) and form perpendicular of the
    core; ``center`` and ``radical`` are their intersections with the core.
    Nothing here is a verdict: TAME and PROPS compare these spans.
    """

    pieces: dict
    centralizer: tuple
    center: tuple
    perp: tuple
    radical: tuple

    def piece_basis(self, root):
        piece = self.pieces.get(root)
        return piece.basis if piece is not None else ()


def centralizer_candidates(alg, candidates, generators):
    """Combinations of ``candidates`` killing every generator, one per free candidate.

    The coefficients c with sum_j c_j [b_j, s] = 0 for every generator s are
    the nullspace of one row per generator and coordinate key.  Generators are
    bracketed one at a time and each one's rows go to ``sparse_nullspace`` in
    sorted key order; once the rows read have rank len(candidates), no
    combination survives, reading stops and later generators are never
    bracketed.
    """
    def rows():
        for s in generators:
            by_key = rows_by_key([alg.coords(alg.bracket(b, s)) for b in candidates])
            for key in sorted(by_key):
                yield by_key[key]

    return [combine(candidates, rel, alg.zero()) for rel in sparse_nullspace(rows(), len(candidates))]


def _small_generators(win):
    """Nonzero-weight slices at degree 0 and at the unit lattice degrees.

    Together with repeated brackets these generate every nonzero-weight slice
    (unit degrees generate the lattice), so killing them decides centrality;
    survivors are re-verified against the whole window basis anyway.  Slices
    inside the window are read from it; only beyond it (window 0) are they
    built again.
    """
    gens = []
    weights = sorted(win.fin.nonzero_roots)
    for sigma in unit_degrees(win.alg.nu):
        for weight in weights:
            root = Root(finite=weight, lattice=sigma)
            piece = win.pieces.get(root)
            gens.extend(piece.basis if piece is not None else win.alg.root_piece(root))
    return gens


def opposite_brackets(piece, bracket, weights, total, degrees):
    """The nonzero brackets [x, y], x in piece(Root(w, s)), y in piece(Root(-w, total - s)).

    ``s`` runs over ``degrees`` (outer loop) and ``w`` over ``weights`` (inner
    loop).  A pair is skipped when its mirror (-w, total - s; w, s) came
    earlier: the mirror's brackets are the negatives of this pair's, so they
    were already offered to any span and this pair cannot grow it.  Greedy
    bases and span dimensions built from the yielded brackets are those of
    the literal double loop.  A slice then belongs to one scanned pair only,
    so each slice is built once per scan.
    """
    done = set()
    for s in degrees:
        t = tuple(g - v for g, v in zip(total, s))
        for w in weights:
            root = Root(finite=w, lattice=s)
            mirror = Root(finite=tuple(-v for v in w), lattice=t)
            if mirror in done:
                continue
            done.add(root)
            xs = piece(root)
            if not xs:
                continue
            ys = xs if mirror == root else piece(mirror)
            for x in xs:
                for y in ys:
                    b = bracket(x, y)
                    if not b.is_zero():
                        yield b


def fill_span(vectors, coords, ceiling):
    """The span of ``vectors`` read in order, and the vectors that grew it.

    Returns ``(span, grown)``: a ``SpanDict`` of each ``coords(v)`` read, and
    the vectors v that grew it, in reading order.  ``ceiling`` is a
    ``SpanDict`` of the space the caller expects to hold every vector.  Once
    every vector that grew the span lies in the ceiling and the span has the
    ceiling's dimension, the span is the whole ceiling, no later vector can
    grow it, and reading stops.  After a vector from outside the ceiling,
    every vector is read.
    """
    span = SpanDict()
    grown = []
    inside = True
    for v in vectors:
        c = coords(v)
        if span.add(c):
            grown.append(v)
            inside = inside and ceiling.contains(c)
            if inside and span.dim == ceiling.dim:
                break
    return span, grown


# Lattice degrees beyond the window whose brackets span the isotropic core slices.
EXTRA_MARGIN = 2


def _core_basis(win, delta):
    """Greedy basis of the core slice at the isotropic root delta.

    Brackets [x, y] of opposite nonzero-weight slices with lattice degrees
    sigma and delta - sigma, sigma in the box of max-norm w + EXTRA_MARGIN, in
    box order; each one that grows the span joins the basis.  Every bracket
    lies in the algebra's slice at delta, which the window built from the
    same graded pieces, so that slice is the ceiling of ``fill_span``.
    """
    alg = win.alg
    ceiling = SpanDict(alg.coords(v) for v in win.basis(delta))
    weights = sorted({r.finite for r in win.nonisotropic_roots()})
    degrees = lattice_box(alg.nu, win.w + EXTRA_MARGIN)
    brackets = opposite_brackets(alg.root_piece, alg.bracket, weights, delta.lattice, degrees)
    return tuple(fill_span(brackets, alg.coords, ceiling)[1])


def _intersection(alg, us, vs):
    """A basis of span(us) & span(vs), for independent us and vs: the u-parts
    of a basis of the relations sum a u = sum b v.  An empty side meets
    nothing, so the other side is not reduced."""
    if not us or not vs:
        return []
    rows = rows_by_key([alg.coords(u) for u in us] + [alg.coords(-v) for v in vs])
    return [combine(us, rel[:len(us)], alg.zero())
            for rel in sparse_nullspace(rows.values(), len(us) + len(vs))]


def core_and_center_window(win):
    """Core, centralizer, form perpendicular, center and radical, within the window.

    The core piece at a nonisotropic root is the full slice; at an isotropic
    root it is the exact span of all brackets of opposite nonzero-weight
    slices whose lattice degrees stay within w + EXTRA_MARGIN.  The
    centralizer is solved per isotropic degree on the window slice against a
    small generating set, survivors re-verified against every core vector;
    nonisotropic slices cannot meet it because a toral generator already acts
    there by a nonzero exact eigenvalue.  The perpendicular at r is the part
    of the window slice that pairs to zero with the core piece at -r (all of
    it where that piece is empty or missing).  Core slices lie in window
    slices, so the center and the radical are these intersected with the core.
    """
    alg = win.alg
    pieces = {}
    for root in win.nonisotropic_roots():
        pieces[root] = GradedPiece(root=root, basis=tuple(win.basis(root)))

    for delta in win.isotropic_roots():
        pieces[delta] = GradedPiece(root=delta, basis=_core_basis(win, delta))

    generators = _small_generators(win)
    core_basis = [x for root in sorted(pieces) for x in pieces[root].basis]
    centralizer, center = [], []
    for delta in win.isotropic_roots():
        central = [
            z for z in centralizer_candidates(alg, win.basis(delta), generators)
            if all(alg.bracket(z, x).is_zero() for x in core_basis)
        ]
        centralizer.extend(central)
        center.extend(_intersection(alg, central, pieces[delta].basis))

    perp, radical = [], []
    for root in sorted(win.pieces):
        basis = win.basis(root)
        opposite = pieces[-root].basis if -root in pieces else ()
        orthogonal = basis
        if opposite:
            rows = [[alg.form(b, x) for b in basis] for x in opposite]
            orthogonal = [combine(basis, vec, alg.zero()) for vec in nullspace_dense(rows, len(basis))]
        perp.extend(orthogonal)
        radical.extend(_intersection(alg, orthogonal, pieces[root].basis))

    return CoreData(
        pieces=pieces,
        centralizer=tuple(centralizer),
        center=tuple(center),
        perp=tuple(perp),
        radical=tuple(radical),
    )
