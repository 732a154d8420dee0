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

An algebra that extends a base algebra (the affinized one) also provides
``base``, ``base_part(x)`` (the base element x lifts, or None) and
``extension_basis()``, the vectors that close its weight-0 degree-0 slice
after the lifts; one whose slices hold vectors that no bracket reaches
(the affinized degree derivations) names them in ``derivation_basis()``.
An algebra whose elements carry ``reflect(moves)``, the action of a simple
reflection of W(C_l), provides ``simple_reflections()``, the table
``FiniteRootSystem.simple_reflections`` those moves come from; the
invariance scan then merges the Weyl images of its classes.

decompose_window builds the slices for all lattice degrees of max-norm <= w
and verifies, entry by entry, that every claimed basis vector is an exact
simultaneous eigenvector of the toral generators, that slices of a common
degree are linearly independent, and that the membership rule agrees with
the computed slices inside the window.  ``RootSystemWindow.base_view`` makes
the window of the base algebra from the window of an extension, without
building its slices again, and runs the same checks on it.  Everything
downstream (sl2 triples, reflections, core/center/radical extraction) works
through the verified window object.  The window brackets and forms opposite
slices once, on first use: ``bracket_table`` per +-root pair, read by T3,
D12a, the sl2 triples and PROPS, and ``gram`` per root, read by the form
checks of T1 and D1 and by PROPS.  It scans form invariance once too
(``invariance``), for T1 and D1 on the window and for D1 on its base view.

``fill_span`` is the one stop rule for spans of brackets known to lie in a
given slice: the isotropic core slices here and the derived weight-0 slices
of the matrix algebras read opposite-weight brackets through it.  The core
layer only computes spans; the suites decide every claim about them.
"""

from dataclasses import dataclass
from fractions import Fraction

from .ears import first_broken_string
from .finroot import Root, reflect_weight
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
    "BaseView",
    "decompose_window",
    "graded_pieces",
    "invariance_failures",
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
        self._triples = None  # zero_sum_triples(), once built
        self._invariance = None  # invariance(), once scanned
        self._weyl = None  # weyl_maps(), once checked
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

    def asymmetric_root(self):
        """The first root r whose ``gram(r)`` is not the transpose of
        ``gram(-r)``, over the roots whose opposite is in the window; None
        when the form is symmetric on every pair of opposite slices."""
        return next(
            (r for r in self._roots
             if -r in self.pieces and self.gram(r) != [list(col) for col in zip(*self.gram(-r))]),
            None,
        )

    def zero_sum_triples(self):
        """Root triples summing to zero, built once; only these can carry a
        nonzero form value.

        Roots are matched by their flat vectors ``finite + lattice``, as
        ``member`` reads them, so no ``Root`` sum is built; the list is that
        of the loop over ``Root`` pairs, in the same order.
        """
        if self._triples is None:
            flat = [(r, r.finite + r.lattice) for r in self._roots]
            by_vector = {v: r for r, v in flat}
            out = []
            for r1, v1 in flat:
                for r2, v2 in flat:
                    r3 = by_vector.get(tuple(-a - b for a, b in zip(v1, v2)))
                    if r3 is not None:
                        out.append((r1, r2, r3))
            self._triples = out
        return self._triples

    def lifted_dims(self):
        """{root: n} for each slice whose first n basis vectors alone lift
        slices of the base algebra: the weight-0 degree-0 slice of an
        algebra that extends a base, which ends with ``extension_basis()``.
        Empty for any other algebra, where no slice is cut."""
        extension = getattr(self.alg, "extension_basis", None)
        zero = Root(finite=self.fin.zero, lattice=(0,) * self.alg.nu)
        if extension is None or zero not in self.pieces:
            return {}
        return {zero: self.dim(zero) - len(extension())}

    def invariance(self):
        """``invariance_failures`` of this window's zero-sum triples, scanned
        once: {failing triple: whether it fails on lifted indices}.

        The scan takes the mirror rule exactly when ``asymmetric_root`` finds
        no asymmetric pair of opposite slices, the Weyl rule for the
        reflections ``weyl_maps`` keeps, and cuts slices by
        ``lifted_dims``.  T1 and D1 on this window, and D1 on its base view
        once this window has scanned, read this one record.
        """
        if self._invariance is None:
            self._invariance = invariance_failures(
                self, self.zero_sum_triples(), self.asymmetric_root() is None, self.lifted_dims())
        return self._invariance

    def weyl_maps(self):
        """The simple reflections the invariance scan may merge classes by,
        each as its map {root: reflected root} on this window's roots;
        checked once, at the first scan.

        A reflection s of ``alg.simple_reflections()`` acts on a root's
        finite part (``reflect_weight``) and keeps its lattice degree.  It is
        kept when, for every root r, s(r) is a window root, each basis
        vector's image ``x.reflect(s)`` lies in the span of slice s(r), and
        each lifted vector's image (``lifted_dims``) in the span of the
        lifted vectors of s(r).  Spans are ``SpanDict`` memberships, not
        equalities: at l = 3, i(hddot_r - hddot_(r+1)) maps to a sum of two
        basis vectors.  s then permutes the window's roots and, being
        invertible and of finite order, maps each slice, and its lifted
        part, onto those of s(r).  A reflection that fails is dropped,
        which leaves the scan more classes to decide.

        The scan's Weyl rule rests on the algebra's bracket and form being
        W-equivariant, which tests pin for every algebra with a table.  An
        algebra without a table, or a window whose class overrides
        ``bracket`` or ``form``, gets no reflection.
        """
        if self._weyl is None:
            table = getattr(self.alg, "simple_reflections", None)
            own = type(self).bracket is RootSystemWindow.bracket and type(self).form is RootSystemWindow.form
            self._weyl = tuple(filter(None, map(self._slice_map, table()))) if table and own else ()
        return self._weyl

    def _slice_map(self, moves):
        """``weyl_maps``' map for one reflection, or None when it fails the slice check."""
        cut = self.lifted_dims()
        spans = {}
        # each image is the window's own Root object: the scan's lookups of
        # image triples then match roots by identity, without Root.__eq__
        own = {r: r for r in self._roots}
        roots = {r: own.get(Root(finite=reflect_weight(moves, r.finite), lattice=r.lattice)) for r in self._roots}
        for r, image in roots.items():
            if image is None:
                return None
            lifted = cut.get(r, self.dim(r))
            for i, x in enumerate(self.basis(r)):
                key = image, (cut.get(image, self.dim(image)) if i < lifted else self.dim(image))
                if key not in spans:
                    spans[key] = SpanDict(self.coords(y) for y in self.basis(image)[:key[1]])
                if not spans[key].contains(self.coords(x.reflect(moves))):
                    return None
        return roots

    def base_view(self):
        """The window of the base algebra ``alg.base`` under this window of
        an extension of it, made from this window's slices.

        Each view slice holds the base parts of the slice's lifted basis
        vectors, in order (``lifted_dims``: every vector but the trailing
        ``extension_basis()`` of the zero slice).  A slice whose lifted part
        holds a vector that is no lift, or whose remaining vectors are not
        exactly ``extension_basis()`` at the zero slice and none elsewhere,
        raises DecompositionError; that check is O(n) per slice.  The view
        is then verified as ``decompose_window`` verifies a window: its
        toral generators commute, every basis vector is an exact eigenvector
        of them, and each degree's vectors are independent.  The view
        shares this window's zero-sum triples and reads its invariance
        record restricted to lifted indices (``BaseView``).
        """
        alg = self.alg
        base = alg.base
        cut = self.lifted_dims()
        extension = alg.extension_basis()
        degrees = {}
        for root in self._roots:
            basis = self.basis(root)
            n = cut.get(root, len(basis))
            parts = tuple(alg.base_part(x) for x in basis[:n])
            if any(x is None for x in parts) or basis[n:] != (extension if root in cut else ()):
                raise DecompositionError(f"slice at {root} is not the lift of a base slice")
            degrees.setdefault(root.lattice, []).append(GradedPiece(root=root, basis=parts))
        toral = _commuting_toral(base)
        for degree in degrees.values():
            _verify_degree(base, toral, degree)
        return BaseView(self, {p.root: p for degree in degrees.values() for p in degree})

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


def _commuting_toral(alg):
    """``alg.toral_basis()`` as a tuple, once its generators are seen to commute."""
    toral = tuple(alg.toral_basis())
    if not toral_commute(alg, toral):
        raise DecompositionError("toral generators do not commute")
    return toral


def _verify_degree(alg, toral, degree):
    """Raise DecompositionError unless the slices of one lattice degree,
    ``degree`` a list of GradedPiece, are nonempty, hold exact eigenvectors
    of the toral generators with the slice's eigenvalues, and together are
    linearly independent."""
    degree_span = SpanDict()
    for piece in degree:
        root = piece.root
        if not piece.basis:  # every finite root is a member at every degree
            raise DecompositionError(f"membership rule disagrees with window at {root}")
        lams = alg.root_functional(root)
        for x in piece.basis:
            for lam, h in zip(lams, toral):
                if alg.bracket(h, x) != x * lam:
                    raise DecompositionError(
                        f"basis vector at {root} is not an exact eigenvector of toral generator"
                    )
            if not degree_span.add(alg.coords(x)):
                raise DecompositionError(f"dependent basis vector at {root}")


def decompose_window(alg, w):
    """Decompose all lattice degrees with max-norm <= w and verify exactness:
    each degree's slices are built, then checked by ``_verify_degree``."""
    toral = _commuting_toral(alg)
    pieces = {}
    for sigma in lattice_box(alg.nu, w):
        degree = [GradedPiece(root=Root(finite=weight, lattice=sigma), basis=tuple(basis))
                  for weight, basis in sorted(graded_pieces(alg, sigma).items())]
        _verify_degree(alg, toral, degree)
        pieces.update((piece.root, piece) for piece in degree)
    return RootSystemWindow(alg, w, pieces)


class BaseView(RootSystemWindow):
    """``RootSystemWindow.base_view`` of ``parent``: a verified window of
    ``parent.alg.base`` with the same roots, in the same order.

    On lifted vectors the parent's bracket is the lifted base bracket plus a
    central part, and its form is the base form; the tests pin both.  So
    ([x, y], z) and (x, [y, z]) agree on lifted triples in both algebras,
    and this window's invariance record is the parent's restricted to the
    triples that fail on lifted indices, once the parent has scanned.  If
    it has not (D alone), the view scans itself, the base window being the
    smaller of the two.  Its zero-sum triples are the parent's list.
    """

    def __init__(self, parent, pieces):
        super().__init__(parent.alg.base, parent.w, pieces)
        self.parent = parent

    def zero_sum_triples(self):
        return self.parent.zero_sum_triples()

    def invariance(self):
        if self._invariance is None and self.parent._invariance is not None:
            self._invariance = {
                rot: True for rot, on_lifts in self.parent._invariance.items() if on_lifts}
        return super().invariance()


def invariance_failures(win, triples, symmetric, cut=None):
    """The triples of ``triples`` carrying basis vectors with ([x, y], z)
    != (x, [y, z]), each mapped to whether it fails on lifted indices.

    ``triples`` is closed under rotation.  The rotations (a, b, c), (b, c, a)
    and (c, a, b) form a cyclic class, and (a, a, a) is a class of one.  Each
    class is decided once, at the first of its triples the loop meets: the
    blocks [a, b], [b, c] and [c, a] are bracketed once each, and every
    rotation (r, s, t) gets L_rst[i][j][k] = ([x_i, y_j], z_k) and R_rst[i][j][k]
    = (z_k, [x_i, y_j]) over the bases x, y, z of slices r, s and t.  Since
    R_str[j][k][i] = (x_i, [y_j, z_k]), the rotation (r, s, t) fails exactly
    when L_rst[i][j][k] != R_str[j][k][i] somewhere.

    With ``symmetric`` the form is symmetric on slice a x slice -a for every
    root a, and [x, y] lies in slice -c, so R = L and one form value per basis
    triple suffices.  Such a class is also decided together with its mirror
    class, the rotations of (c, b, a).  This assumes the bracket is exactly
    antisymmetric, [y, x] = -[x, y], as the matrix commutator x y - y x and
    the affinized central and derivation terms are (``opposite_brackets``
    rests on the same premise).  Then ([z, y], x) = -(x, [y, z]) and
    (z, [y, x]) = -([x, y], z), so the mirror (t, s, r) on (z, y, x) fails
    exactly when (r, s, t) fails on (x, y, z).  Without ``symmetric`` there is
    no mirror rule, since it needs the symmetry that was not found.

    ``win.weyl_maps()`` adds the Weyl rule; a window without that method
    has none.  A kept simple reflection s maps each slice onto the slice of
    the reflected root, and its lifted part onto that slice's lifted part,
    and the algebra's bracket and form are W-equivariant (the tests pin
    this), so ([sx, sy], sz) = ([x, y], z) and (sx, [sy, sz]) = (x, [y, z]).
    So (s(r), s(u), s(t)) fails exactly when (r, u, t) fails, and on lifted
    indices exactly when (r, u, t) does.  The class of a triple is then
    closed under the kept reflections too, and each Weyl image takes the
    verdict of the member it is the image of.  Only the first triple of a
    class, in list order, is bracketed and formed.

    Every failing member of a class is recorded.
    ``cut`` (``RootSystemWindow.lifted_dims``) maps a root to the number of
    leading basis vectors of its slice that are lifted; a failing rotation
    through such a slice is compared again on lifted indices alone, and any
    other failure lies on lifted indices.  A passing rotation costs nothing
    more.  The mirror of a rotation fails on the same indices, reversed.
    """
    cut = cut or {}
    weyl = win.weyl_maps() if hasattr(win, "weyl_maps") else ()
    decided = set()
    failed = {}
    for triple in triples:
        if triple in decided:
            continue
        a, b, c = triple
        rotations = [triple] if a == b == c else [triple, (b, c, a), (c, a, b)]
        members = rotations + ([rot[::-1] for rot in rotations] if symmetric else [])
        blocks = {
            (r, s): [[win.bracket(x, y) for y in win.basis(s)] for x in win.basis(r)]
            for r, s, _ in rotations
        }
        lhs = {
            (r, s, t): [[[win.form(xy, z) for z in win.basis(t)] for xy in row]
                        for row in blocks[r, s]]
            for r, s, t in rotations
        }
        rhs = lhs if symmetric else {
            (r, s, t): [[[win.form(z, xy) for z in win.basis(t)] for xy in row]
                        for row in blocks[r, s]]
            for r, s, t in rotations
        }
        fails = {}
        for r, s, t in rotations:
            if _tensors_differ(lhs[r, s, t], rhs[s, t, r]):
                n = [cut.get(r), cut.get(s), cut.get(t)]
                on_lifts = n == [None] * 3 or _tensors_differ(
                    _cut(lhs[r, s, t], n), _cut(rhs[s, t, r], n[1:] + n[:1]))
                fails[r, s, t] = on_lifts
                if symmetric:
                    fails[t, s, r] = on_lifts
        verdicts = {m: fails.get(m) for m in members}
        for m in members:  # grows with each new Weyl image, until the class is closed
            for roots in weyl:
                image = (roots[m[0]], roots[m[1]], roots[m[2]])
                if image not in verdicts:
                    verdicts[image] = verdicts[m]
                    members.append(image)
        decided.update(verdicts)
        failed.update((m, v) for m, v in verdicts.items() if v is not None)
    return failed


def _tensors_differ(lhs, rhs):
    """Whether lhs[i][j][k] != rhs[j][k][i] for some i, j, k."""
    for i, plane in enumerate(lhs):
        for row, rhs_row in zip(plane, rhs):
            for value, rhs_col in zip(row, rhs_row):
                if value != rhs_col[i]:
                    return True
    return False


def _cut(tensor, dims):
    """tensor[i][j][k] over i, j, k below the bounds ``dims``; None keeps an axis whole."""
    ni, nj, nk = dims
    return [[row[:nk] for row in plane[:nj]] for plane in tensor[:ni]]


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
    lies in [L, L] and in the algebra's slice at delta, which the window
    built from the same graded pieces.  So the ceiling of ``fill_span`` is
    that slice without the vectors of ``alg.derivation_basis()``, which no
    bracket reaches: on the affinized algebra the d_i of the degree-0 slice,
    which a full ceiling would keep the span from ever filling.  A bracket
    with a d part would leave this ceiling, and the scan would then read
    its whole box.
    """
    alg = win.alg
    outside = getattr(alg, "derivation_basis", tuple)()
    ceiling = SpanDict(alg.coords(v) for v in win.basis(delta) if v not in outside)
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
    slices whose lattice degrees stay within w + EXTRA_MARGIN, read until the
    span fills the part of the window slice in [L, L] (``_core_basis``: the
    slice without the affinized d_i).  The
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
