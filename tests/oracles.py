"""Independent oracles for the sign kernel, for window root membership, for
unbroken root strings and for form invariance.

The kernel computes normal-ordering signs by a crossing-count formula; the
oracle here knows nothing about that.  It writes t^sigma as a literal word of
generator letters and bubble-sorts, picking up one q entry per adjacent swap
of distinct letters.  Inverse generators commute by the same sign because the
q entries square to 1, so only the letter index matters.

The invariance oracle is the literal double loop over triples and basis
vectors: it brackets [x, y] and [y, z] for every triple and evaluates both
sides of ([x, y], z) = (x, [y, z]), with no cyclic classes and no appeal to
symmetry of the form.

The root-string oracle is the literal double loop of the EARS R4 axiom:
every nonisotropic alpha against every root beta, each offset of the string
probed through ``literal_member``, with no finite pairs or skipped
negatives; only the string rule itself,
``finroot.root_string``, is shared.  ``probe_flags`` builds the flag list
that rule reads from any membership callable.

The weight-0 span oracle is the literal spanning loop behind
``matlie.zero_root_component``: every slice pair in both orientations, each
slice rebuilt, with no mirror skip and no early stop.  The D8 oracle is the
same loop over a window's weight-0 slices: every nonzero weight and every
pair of degrees in the margin box, both orientations, each slice rebuilt
for each pair, with no mirror skip and no slice memo.

The root-pair oracles are the literal loops of T4, of the zero-sum triple
list and of three PROPS checks: every ad-chain bracket is computed, triples
come from ``Root`` sums, and every ordered root pair gets its own pairing or
form, with no weight rule, stop bound, flat vectors, finite-part
representatives or bilinearity.

The graded-form oracle forms every basis pair whose slice degrees do not
cancel, with no support degrees.  The degree-additivity oracle brackets every
ordered basis pair, with no skip of homogeneous pairs.

The relations and centralizer oracles write out the whole coordinate-key x
candidate matrix at once, every candidate bracketed with every generator,
and reduce it with ``kernel.int_echelon``, with no streamed rows and no
early stop.  The solve oracle reduces the augmented matrix [A | b] the same
way, over all of its columns.

The core center and radical oracles work on core bases alone, with no
window slice and no intersection: the center at each isotropic degree is
the literal centralizer solve of that core piece, its survivors bracketed
with every core vector, and the radical at each root is the literal
nullspace of the core piece's Gram matrix against the opposite core piece.

The division oracle is T3/D12a's per-probe loop: root by root, each basis
vector and each seeded combination, built as an element, is bracketed with
the opposite basis here and solved for [x, y] = t_alpha by ``literal_solve``,
with no bracket table, no antisymmetry and no bilinearity.

``tests/test_layering.py`` checks that this file imports neither
``ealie.axioms`` nor ``ealie.ears``, no nullspace or solve route of
``ealie.linalg``, and neither ``decomp.sl2_search`` nor the window's bracket
table.
"""

from fractions import Fraction
from math import lcm

from ealie.decomp import combine
from ealie.finroot import FiniteRootSystem, Root, RootStringError, root_string
from ealie.kernel import int_echelon
from ealie.linalg import SpanDict
from ealie.matlie import mat_bracket, skew_root_basis
from ealie.quantum_torus import lattice_box


def word_of(sigma):
    out = []
    for i, e in enumerate(sigma):
        out.extend([i] * abs(e))
    return out


def bubble_sign(word, q):
    sign = 1
    w = list(word)
    n = len(w)
    for _ in range(n):
        for j in range(n - 1):
            if w[j] > w[j + 1]:
                sign *= q.entry(w[j], w[j + 1])
                w[j], w[j + 1] = w[j + 1], w[j]
    return sign


def oracle_structure_constant(sigma, tau, q):
    """Sign c with t^sigma t^tau = c t^{sigma+tau}, by literal word rewriting."""
    return bubble_sign(word_of(sigma) + word_of(tau), q)


def oracle_kappa(sigma, q):
    """t^sigma t^{-sigma} = kappa(sigma)."""
    return oracle_structure_constant(sigma, tuple(-v for v in sigma), q)


def oracle_g(sigma, tau, q):
    """The displayed bilinear sign: product of q[i][j]^(sigma_i tau_j) over i <= j."""
    sign = 1
    for i in range(q.nu):
        for j in range(i, q.nu):
            if (sigma[i] * tau[j]) % 2:
                sign *= q.entry(i, j)
    return sign


def literal_member(win, root):
    """Window membership written out on a Root: in ``pieces``, else ``False``
    inside the box of max-norm ``w``, else the finite part is zero or a root."""
    if root in win.pieces:
        return True
    if all(abs(v) <= win.w for v in root.lattice):
        return False
    return root.finite == win.fin.zero or root.finite in win.fin.nonzero_roots


def probe_flags(member, beta, alpha, scan):
    """The flag list ``root_string`` reads: ``member(beta + n*alpha)`` for
    -scan <= n <= scan, in that order, on integer vectors."""
    return [member(tuple(b + n * a for b, a in zip(beta, alpha))) for n in range(-scan, scan + 1)]


def literal_first_broken_string(win, scan):
    """The first (alpha, beta, error text) whose alpha-string through beta,
    probed at every offset -scan..scan, ``root_string`` rejects; None if none."""
    roots = win.roots()
    for alpha in win.nonisotropic_roots():
        for beta in roots:
            flags = [
                literal_member(win, Root(
                    finite=tuple(b + n * a for b, a in zip(beta.finite, alpha.finite)),
                    lattice=tuple(b + n * a for b, a in zip(beta.lattice, alpha.lattice)),
                ))
                for n in range(-scan, scan + 1)
            ]
            c = 2 * win.pairing(beta, alpha) / win.pairing(alpha, alpha)
            try:
                root_string(beta.finite + beta.lattice, alpha.finite + alpha.lattice, flags, c)
            except RootStringError as err:
                return alpha, beta, str(err)
    return None


def literal_first_asymmetric_root(win):
    """The first window root r with basis vectors x of slice r and y of slice
    -r such that (x, y) != (y, x); None if there is none."""
    for root in win.roots():
        opp = -root
        if opp not in win.pieces:
            continue
        for x in win.basis(root):
            for y in win.basis(opp):
                if win.form(x, y) != win.form(y, x):
                    return root
    return None


def literal_first_ungraded_pair(win):
    """The first basis pair (x, y), in (i, j >= i) order over ``all_basis``,
    whose slice degrees do not cancel and whose form is nonzero, as
    ``{"first": root of x, "second": root of y}``; None if there is none."""
    flat = list(win.all_basis())
    for i, (r1, x) in enumerate(flat):
        for r2, y in flat[i:]:
            if any(a + b for a, b in zip(r1.lattice, r2.lattice)) and win.form(x, y):
                return {"first": r1, "second": r2}
    return None


def literal_first_non_additive_pair(win):
    """The first ordered basis pair (x, y), row-major over ``all_basis``, whose
    bracket carries a lattice degree other than the sum of their slice
    degrees, as ``{"first": root of x, "second": root of y}``; None if there
    is none."""
    flat = list(win.all_basis())
    for r1, x in flat:
        for r2, y in flat:
            b = win.bracket(x, y)
            target = tuple(a + c for a, c in zip(r1.lattice, r2.lattice))
            if not b.is_zero() and b.support_degrees() - {target}:
                return {"first": r1, "second": r2}
    return None


def literal_first_non_invariant_triple(win, triples):
    """The first triple, in the order of ``triples``, carrying basis vectors
    with ([x, y], z) != (x, [y, z]), as a list of roots; None if there is none."""
    for r1, r2, r3 in triples:
        xs, ys, zs = win.basis(r1), win.basis(r2), win.basis(r3)
        yz = [[win.bracket(y, z) for z in zs] for y in ys]
        for x in xs:
            for y, y_zs in zip(ys, yz):
                xy = win.bracket(x, y)
                for z, y_z in zip(zs, y_zs):
                    if win.form(xy, z) != win.form(x, y_z):
                        return [r1, r2, r3]
    return None


def literal_zero_span(ell, q, gamma, margin, real_only=False):
    """The span, greedy basis and nonzero-weight span dimension of the weight-0
    spanning loops written out, each slice pair in both orientations: nonzero
    weights, then weight 0."""
    span = SpanDict()
    greedy = []
    box = lattice_box(q.nu, margin)

    def feed(weights):
        for s in box:
            t = tuple(g - v for g, v in zip(gamma, s))
            for w in weights:
                for x in skew_root_basis(ell, q, w, s, real_only):
                    for y in skew_root_basis(ell, q, tuple(-v for v in w), t, real_only):
                        b = mat_bracket(x, y)
                        if b and span.add(b.coords()):
                            greedy.append(b)

    feed(sorted(FiniteRootSystem(ell).nonzero_roots))
    nonzero_pair_dim = span.dim
    feed([(0,) * ell])
    return span, greedy, nonzero_pair_dim


def literal_zero_weight_spanned(win, margin):
    """D8 written out: the first window degree sigma whose weight-0 slice is
    not the span of the brackets [x, y], x at (w, tau) and y at (-w, sigma -
    tau), over every nonzero weight w and every tau with tau and sigma - tau
    in the box of max-norm w + margin.  Returns None, or the degree with the
    slice's dimension and the bracket span's."""
    alg = win.alg
    fin = alg.fin
    box = lattice_box(alg.nu, win.w + margin)
    in_box = set(box)
    for sigma in lattice_box(alg.nu, win.w):
        claim = [alg.coords(x) for x in win.basis(Root(finite=fin.zero, lattice=sigma))]
        span = SpanDict()
        for tau in box:
            rest = tuple(s - t for s, t in zip(sigma, tau))
            if rest not in in_box:
                continue
            for w in sorted(fin.nonzero_roots):
                ys = alg.root_piece(Root(finite=tuple(-v for v in w), lattice=rest))
                for x in alg.root_piece(Root(finite=w, lattice=tau)):
                    for y in ys:
                        span.add(alg.coords(alg.bracket(x, y)))
        slice_dim = SpanDict(claim).dim
        if span.dim != slice_dim or not all(span.contains(c) for c in claim):
            return {"degree": list(sigma), "slice_dim": slice_dim, "bracket_span_dim": span.dim}
    return None


def literal_zero_sum_triples(win):
    """Root triples (r1, r2, -(r1 + r2)) with all three in the window, r1 and r2
    in root order, built from ``Root`` sums."""
    rset = set(win.roots())
    return [
        (r1, r2, -(r1 + r2))
        for r1 in win.roots() for r2 in win.roots()
        if -(r1 + r2) in rset
    ]


def literal_longest_ad_chain(win, probes, bound, cap):
    """T4's loop with every bracket computed: the longest chain of ad x on a
    probe z (x in a nonisotropic slice), and a witness at the first chain
    longer than ``bound`` or still nonzero after ``cap`` brackets."""
    worst = 0
    for alpha in win.nonisotropic_roots():
        for x in win.basis(alpha):
            for z in probes:
                acc = z
                steps = 0
                while not acc.is_zero() and steps < cap:
                    acc = win.bracket(x, acc)
                    steps += 1
                if not acc.is_zero():
                    return worst, {"root": alpha, "bound": cap}
                worst = max(worst, steps)
                if steps > bound:
                    return worst, {"root": alpha, "chain_length": steps, "bound": bound}
    return worst, None


def literal_first_unsolvable_root(win, rng, combos):
    """The first nonisotropic root with a probe x for which [x, y] = t_alpha
    has no solution y in the opposite slice; None if there is none.  The
    probes are the slice basis plus, when it has more than one vector,
    ``combos`` combinations with coefficients drawn from -3..3 (one set to 1
    when all are 0), drawn root by root."""
    for alpha in win.nonisotropic_roots():
        basis = win.basis(alpha)
        probes = list(basis)
        if len(basis) > 1:
            for _ in range(combos):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                if not any(coeffs):
                    coeffs[rng.randrange(len(basis))] = 1
                probes.append(combine(basis, [Fraction(c) for c in coeffs], win.alg.zero()))
        if -alpha not in win.pieces:
            return alpha
        opposite, target = win.basis(-alpha), win.coords(win.rep_t(alpha))
        for x in probes:
            vecs = [win.coords(win.bracket(x, y)) for y in opposite]
            keys = sorted({k for v in (*vecs, target) for k in v})
            if literal_solve([[v.get(k, 0) for v in vecs] for k in keys],
                             [target.get(k, 0) for k in keys]) is None:
                return alpha
    return None


def literal_first_nonorthogonal_isotropic(win):
    """The first (delta, beta), delta isotropic, with (delta, beta) != 0; None if none."""
    for d in win.isotropic_roots():
        for b in win.roots():
            if win.pairing(d, b):
                return d, b
    return None


def literal_cartan_scan(win):
    """(max |c|, witness) over c = 2(beta, alpha)/(alpha, alpha) for every
    nonisotropic alpha and every beta, stopping at the first c that is not an
    integer of absolute value at most 4."""
    biggest = 0
    for alpha in win.nonisotropic_roots():
        for beta in win.roots():
            val = 2 * win.pairing(beta, alpha) / win.norm(alpha)
            if val.denominator != 1 or abs(val) > 4:
                return biggest, {"alpha": alpha, "beta": beta, "value": val}
            biggest = max(biggest, abs(int(val)))
    return biggest, None


def literal_first_unequal_pairing(win):
    """The first ordered root pair with (r1, r2) not a Fraction or not equal
    to the form of their toral representatives, as a witness dict; None if none."""
    for r1 in win.roots():
        for r2 in win.roots():
            lhs = win.pairing(r1, r2)
            if not isinstance(lhs, Fraction) or lhs != win.form(win.rep_t(r1), win.rep_t(r2)):
                return {"first": r1, "second": r2}
    return None


def _integer_row(row):
    """A Fraction/int row scaled by the lcm of its denominators."""
    row = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


def literal_relations(vecs):
    """Basis of {c : sum(c_j * vecs[j]) == 0} for sparse dict vectors: one row
    per key of the union of supports, in sorted order, reduced by
    ``int_echelon``; one Fraction vector per free column, that column 1 and
    the other free columns 0."""
    n = len(vecs)
    rows = [_integer_row([v.get(key, 0) for v in vecs]) for key in sorted({k for v in vecs for k in v})]
    work, pivots = int_echelon(rows, n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            acc = sum((work[r][j] * x[j] for j in range(pc + 1, n)), Fraction(0))
            x[pc] = -acc / work[r][pc]
        basis.append(x)
    return basis


def literal_solve(a_rows, b):
    """x with A x = b and every free column 0, or None when there is none:
    [A | b] reduced by ``int_echelon`` over all n + 1 columns, inconsistent
    when a pivot lands in column n, then each pivot column solved from its
    row, last pivot first."""
    n = len(a_rows[0]) if a_rows else 0
    work, pivots = int_echelon([_integer_row([*row, rhs]) for row, rhs in zip(a_rows, b)], n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        acc = sum((work[r][j] * x[j] for j in range(pc + 1, n)), Fraction(0))
        x[pc] = (work[r][n] - acc) / work[r][pc]
    return x


def literal_centralizer_candidates(alg, candidates, generators):
    """Every candidate bracketed with every generator, merged into one vector
    per candidate keyed by (generator index, coordinate key); each relation
    among those vectors gives one combination of the candidates."""
    vecs = []
    for b in candidates:
        merged = {}
        for k, s in enumerate(generators):
            for key, val in alg.coords(alg.bracket(b, s)).items():
                merged[(k, key)] = val
        vecs.append(merged)
    out = []
    for rel in literal_relations(vecs):
        acc = alg.zero()
        for b, c in zip(candidates, rel):
            if c:
                acc = acc + b * c
        out.append(acc)
    return out


def literal_core_center(win, core):
    """The combinations of each isotropic core piece that bracket every core
    vector to zero.  ``literal_centralizer_candidates`` solves each piece
    against the nonzero-weight slices at lattice degree 0 and +-e_i, which
    generate every nonzero-weight slice; each survivor is then bracketed
    with every core vector.  A toral core element acts on a nonisotropic
    slice by a nonzero eigenvalue, so only isotropic pieces are solved."""
    alg = win.alg
    nu = alg.nu
    degrees = [(0,) * nu] + [
        tuple(s if j == i else 0 for j in range(nu)) for i in range(nu) for s in (1, -1)
    ]
    generators = [
        x for sigma in degrees for weight in sorted(win.fin.nonzero_roots)
        for x in alg.root_piece(Root(finite=weight, lattice=sigma))
    ]
    core_basis = [x for root in sorted(core.pieces) for x in core.piece_basis(root)]
    return [
        z for delta in win.isotropic_roots()
        for z in literal_centralizer_candidates(alg, core.piece_basis(delta), generators)
        if all(alg.bracket(z, x).is_zero() for x in core_basis)
    ]


def literal_core_radical(win, core):
    """Per core piece, the combinations that pair to zero with every vector
    of the opposite core piece: one Gram column per basis vector, related by
    ``literal_relations``; with no opposite vectors, the whole piece."""
    alg = win.alg
    out = []
    for root in sorted(core.pieces):
        basis = core.piece_basis(root)
        opposite = core.piece_basis(-root)
        if not opposite:
            out.extend(basis)
            continue
        columns = [{i: alg.form(b, k) for i, k in enumerate(opposite)} for b in basis]
        for rel in literal_relations(columns):
            acc = alg.zero()
            for b, c in zip(basis, rel):
                if c:
                    acc = acc + b * c
            out.append(acc)
    return out
