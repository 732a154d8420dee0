"""The axiom suites run against a windowed root decomposition.

Four families of checks:

- check_T: the six defining conditions of the tame-style class: an invariant
  nondegenerate graded form, a finite toral subalgebra with exact eigenspaces,
  solvable bracket equations [x, y] = t at every root, local nilpotency of
  nonisotropic root vectors, indecomposability plus nonisolation, and the
  free-abelian isotropic root lattice.
- check_D: the twelve conditions of the graded-core class, including the
  weight-zero spanning identity and the per-degree division properties.
- serre_check: the defining relations of the split simple subalgebra attached
  to a fixed choice of simple-root preimages, with the recovered Cartan
  matrix.
- tameness_check and check_props: the tameness verdict via two independent
  routes, both read from the centralizer and the form perpendicular that
  ``core_and_center_window`` solves once, and the structural properties
  tied to the decomposition (rational pairings, toral representatives
  inside the core, bounded Cartan integers, unbroken root strings,
  perfectness, the center/radical identities).

Every universally quantified statement is truncated to the window basis, as
each detail string says.  Two checks also draw, from one seeded stream per
suite: T3 and D12a draw coefficient lists for their combinations (two and
one per slice of dimension above 1), all before deciding any root.  A root
whose opposite slices are lines over the scalar field reads no combination:
its first basis vector decides it, and every draw is still made.  All
arithmetic is exact.
"""

import random
from fractions import Fraction
from itertools import chain

from .decomp import (
    combine,
    fill_span,
    isotropic_pair,
    normalized_pair,
    opposite_brackets,
    sl2_search,
    sl2_triple,
    toral_commute,
)
from .ears import first_by_finite, first_isolated, isotropic_rank, nonisotropic_classes
from .finroot import Root, components
from .kernel import int_rank
from .linalg import (
    SpanDict,
    gram_nonsingular,
    gram_positive_definite,
    nullspace_dense,
    span_equal,
)
from .quantum_torus import lattice_box, unit_degrees
from .reporting import AxiomReport, CheckResult

__all__ = [
    "check_T",
    "check_D",
    "serre_check",
    "SerreReport",
    "tameness_check",
    "newp_pair",
    "check_props",
]

# Longest ad-chain T4 accepts; a longer one fails T4 with its length.
NILPOTENCY_BOUND = 9
# Brackets after which an ad-chain that is still nonzero fails T4.
NILPOTENCY_CAP = 17
# Lattice degrees beyond the window that D8 brackets into each weight-0 slice.
SPAN_MARGIN = 1


# -- shared helpers -----------------------------------------------------------


def _metadata(win):
    alg = win.alg
    return {
        "construction": getattr(alg, "construction", type(alg).__name__),
        "window": win.w,
        "nullity": alg.nu,
        "finite_type": f"{win.fin.label}{win.fin.rank}",
    }


def _form_checks(win, prefix):
    """Symmetry, per-root nondegeneracy and invariance of the form, under two
    premises: P1, the bracket adds roots; P2, the form pairs only opposite roots.

    By P2 the form is 0 in both orders off opposite slices, so symmetry and
    nondegeneracy read the window's opposite-slice Gram matrices,
    ``win.gram(r)[i][j]`` = (x_i, y_j) for x in slice r and y in slice -r,
    over the roots whose opposite is in the window, formed once per window.
    The form is symmetric exactly when each gram(r) is the transpose of
    gram(-r); the witness is the first root where it is not
    (``win.asymmetric_root``).  By P1 and P2 invariance scans only zero-sum
    triples, exhaustively.  It reads the window's invariance record,
    scanned once per window by one loop over the classes of rotations,
    mirrors and Weyl images (``win.invariance``): T1 and D1 on one window
    share it, and D1 on a base view reads its parent's, restricted to
    lifted indices, once the parent has scanned.  Its witness is the least
    triple in the record, the first that the literal loop over root pairs
    (r1, r2) in root order meets; the count of basis triples comes from the
    window's classes (``win.basis_triple_count``).  Witnesses name the
    first failure found.
    """
    results = []
    roots = win.roots()
    bad_root = win.asymmetric_root()
    sym_ok = bad_root is None
    results.append(CheckResult(
        f"{prefix}-form-symmetric",
        sym_ok,
        "exhaustive on opposite slices; every other slice pair has form 0 by the grading",
        None if sym_ok else {"root": bad_root},
    ))

    nondeg_witness = None
    for root in roots:
        dim, opp_dim = win.dim(root), (win.dim(-root) if -root in win.pieces else 0)
        if dim != opp_dim:
            nondeg_witness = {"root": root, "dim": dim, "opposite_dim": opp_dim}
            break
        if dim and not gram_nonsingular(win.gram(root)):
            nondeg_witness = {"root": root, "gram": win.gram(root)}
            break
    results.append(CheckResult(
        f"{prefix}-form-nondegenerate",
        nondeg_witness is None,
        "opposite-slice Gram matrices are nonsingular for every window root",
        nondeg_witness,
    ))

    failed = win.invariance()
    inv_witness = None
    if failed:
        inv_witness = {"roots": list(min(failed))}
    mode = f"exhaustive on all {win.basis_triple_count()} zero-sum basis triples"
    results.append(CheckResult(f"{prefix}-form-invariant", inv_witness is None, mode, inv_witness))
    return results


class _Supports:
    """``all_basis()`` as ``flat``, each vector's ``support_degrees()``, the
    indices of ``mixed`` vectors (support other than {slice degree}) and the
    indices carrying each support degree; built once per suite call."""

    def __init__(self, win):
        self.flat = list(win.all_basis())
        self.supports = [x.support_degrees() for _, x in self.flat]
        self.mixed = [i for i, ((root, _), sup) in enumerate(zip(self.flat, self.supports))
                      if sup != {root.lattice}]
        self.by_degree = {}
        for i, sup in enumerate(self.supports):
            for s in sup:
                self.by_degree.setdefault(s, []).append(i)


def _graded_form_check(win, table, name):
    """Form vanishes on slice pairs whose degrees do not cancel; exhaustive.

    The verdict is decided by supports.  ``torus_form`` pairs only the
    coefficients at degrees s and -s, the trace form sums those entry by
    entry, and the affinized form adds only the c/d terms of degree 0, which
    ``support_degrees`` counts as degree 0.  So (x, y) can be nonzero only if
    some support degree of x is minus one of y's.  A vector whose support is
    exactly its slice's degree can cancel a vector of the same kind only
    across opposite degrees, and those pairs are exempt.  The pairs formed are
    therefore those with a mixed vector (support other than its slice degree)
    whose supports cancel, in the literal loop's (i, j >= i) order over
    ``all_basis``; every other pair has form 0, so the witness is the literal
    loop's first failing pair (``tests/oracles.py`` keeps that loop).  On a
    window of homogeneous vectors nothing is formed.
    """
    flat, supports = table.flat, table.supports
    pairs = {
        (min(i, j), max(i, j))
        for i in table.mixed for s in supports[i]
        for j in table.by_degree.get(tuple(-v for v in s), ())
    }
    for i, j in sorted(pairs):
        (r1, x), (r2, y) = flat[i], flat[j]
        if all(a + b == 0 for a, b in zip(r1.lattice, r2.lattice)):
            continue
        if win.form(x, y):
            return CheckResult(
                name, False,
                "form value survives between non-opposite lattice degrees",
                {"first": r1, "second": r2},
            )
    return CheckResult(name, True, "exhaustive on all window basis pairs")


def _first_non_additive_pair(win, table):
    """The first ordered basis pair, row-major over ``all_basis``, whose bracket
    leaves the sum of the slice degrees, as ``{"first": r1, "second": r2}``.

    By P1's degree half, vectors at single degrees s and t bracket into degree
    s + t: t^s t^t is a multiple of t^(s+t), the affinized c-part is nonzero
    only when the g-degrees cancel, and the d-action keeps degree.  So only
    pairs with a mixed vector are bracketed, in the literal loop's order
    (``tests/oracles.py``), and its first failing pair is the witness.
    """
    flat, mixed = table.flat, table.mixed
    is_mixed = set(mixed)
    for i, (r1, x) in enumerate(flat):
        for j in range(len(flat)) if i in is_mixed else mixed:
            r2, y = flat[j]
            b = win.bracket(x, y)
            target = tuple(a + c for a, c in zip(r1.lattice, r2.lattice))
            if not b.is_zero() and b.support_degrees() - {target}:
                return {"first": r1, "second": r2}
    return None


def _first_non_root_step(fin, beta, alpha):
    """The first k >= 1 with ``beta + k*alpha`` neither 0 nor a root of ``fin``.

    ``alpha`` is nonzero and ``fin`` finite, so the walk ends.
    """
    k = 1
    while fin.contains(tuple(b + k * a for b, a in zip(beta, alpha))):
        k += 1
    return k


def _longest_ad_chain(win, probes):
    """Longest chain seen, and a witness at the first chain longer than ``NILPOTENCY_BOUND``.

    ``probes`` are (root, z) pairs.  The chain of a nonisotropic basis vector
    x at alpha on a probe z at beta is the number of brackets with x that take
    z to zero.  A chain still nonzero after ``NILPOTENCY_CAP`` brackets is
    reported with the cap as its bound.

    The verdict is decided by weights.  ad_x^k z has toral weight
    beta + k*alpha, because window basis vectors are exact toral eigenvectors
    (verified entry by entry during decomposition) and ad h is a derivation.
    Every weight of the algebra has a finite part that is 0 or a root of
    ``fin``, so at the first k where beta + k*alpha has another finite part,
    ad_x^k z is zero: that step, ``stop``, counts toward the chain and is not
    computed.  ``stop`` depends only on the finite parts of alpha and beta and
    is read from a table built once per finite part of alpha.

    So a chain is at most its ``stop``, and only pairs whose ``stop`` exceeds
    the longest chain seen so far, ``worst``, are bracketed; an alpha whose
    whole table is at most ``worst`` is skipped.  A skipped chain cannot raise
    ``worst``, cannot exceed the bound (the loop has already returned if
    ``worst`` did) and cannot reach the cap (it is zero by step
    ``stop <= worst <= NILPOTENCY_CAP``).  Chain lengths, the longest chain
    and both witness shapes are therefore those of the literal loop, which
    ``tests/oracles.py`` keeps.
    """
    zero = win.alg.zero()
    finites = {beta.finite for beta, _ in probes}
    tables = {}
    worst = 0
    for alpha in win.nonisotropic_roots():
        stops = tables.get(alpha.finite)
        if stops is None:
            stops = {f: _first_non_root_step(win.fin, f, alpha.finite) for f in finites}
            tables[alpha.finite] = stops
        if max(stops.values(), default=0) <= worst:
            continue
        for x in win.basis(alpha):
            for beta, z in probes:
                stop = stops[beta.finite]
                if stop <= worst:
                    continue
                acc = z
                steps = 0
                while not acc.is_zero() and steps < NILPOTENCY_CAP:
                    steps += 1
                    acc = zero if steps == stop else win.bracket(x, acc)
                if not acc.is_zero():
                    return worst, {"root": alpha, "bound": NILPOTENCY_CAP}
                worst = max(worst, steps)
                if steps > NILPOTENCY_BOUND:
                    return worst, {"root": alpha, "chain_length": steps, "bound": NILPOTENCY_BOUND}
    return worst, None


def _coefficients(rng, n):
    """One seeded combination of n slice vectors: n draws from -3..3, and one
    more draw to set a coefficient to 1 when all n are 0."""
    coeffs = [rng.randint(-3, 3) for _ in range(n)]
    if not any(coeffs):
        coeffs[rng.randrange(n)] = 1
    return coeffs


def _combined(coeffs, vecs):
    """sum(c * v) over sparse coordinate dicts, without zero entries."""
    out = {}
    for c, v in zip(coeffs, vecs):
        if c:
            for key, val in v.items():
                out[key] = out.get(key, 0) + c * val
    return {key: val for key, val in out.items() if val}


def _misses(rows, draws, target):
    """Whether some probe's bracket vectors fail to span ``target``: the probes
    are the rows, then one combination of the rows per coefficient list."""
    probes = chain(rows, ([_combined(c, col) for col in zip(*rows)] for c in draws))
    return any(not SpanDict(vecs).contains(target) for vecs in probes)


def _first_unsolvable_root(win, rng, combos):
    """The first nonisotropic root with a probe x for which [x, y] = t_alpha has no solution.

    The probes of a root are its slice basis plus, when the slice has more than
    one vector, ``combos`` seeded random combinations of it; every coefficient
    list is drawn first, in root order.  A root whose slices at alpha and
    -alpha are both lines over the scalar field (``win.scalar_line``) has
    one probe, the first basis vector x_0, and no combination: every nonzero
    vector of the slice solves exactly when x_0 does.  Each root is decided, in root order,
    from ``win.bracket_table(alpha)``, M[i][j] = coords([x_i, y_j]) over the
    bases x of slice alpha and y of slice -alpha, which the window brackets
    once per +-alpha pair.  By bilinearity a combination sum c_i x_i brackets
    y_j to sum c_i M[i][j], so no combination is bracketed; the premise is
    pinned by tests on every fixture window.

    A probe is solvable exactly when coords(t) lies in the span of its
    bracket vectors, one ``SpanDict`` membership; no y is solved for.
    """
    roots = win.nonisotropic_roots()
    draws = {r: [_coefficients(rng, win.dim(r)) for _ in range(combos)] if win.dim(r) > 1 else []
             for r in roots}
    for alpha in roots:
        if -alpha not in win.pieces:
            return alpha
        rows, combined = win.bracket_table(alpha), draws[alpha]
        if win.scalar_line(alpha) and win.scalar_line(-alpha):
            rows, combined = rows[:1], ()
        if _misses(rows, combined, win.coords(win.rep_t(alpha))):
            return alpha
    return None


# -- the T suite ---------------------------------------------------------------


def check_T(win, seed=0):
    """The six-axiom suite on a windowed algebra with form and toral basis."""
    rng = random.Random(seed)
    results = list(_form_checks(win, "T1"))
    results.append(_graded_form_check(win, _Supports(win), "T1-form-graded"))

    toral = win.toral
    t2_ok = toral_commute(win, toral)
    t2_gram = gram_nonsingular(win.toral_gram)
    t2_passed = t2_ok and t2_gram
    if t2_passed:
        t2_detail = (f"{len(toral)} commuting generators, nonsingular Gram, exact eigenvectors"
                     " (all window vectors verified during decomposition)")
    else:
        t2_detail = f"{len(toral)} generators: " + "; ".join(part for part, ok in (
            ("they do not commute", t2_ok),
            ("their Gram matrix is singular", t2_gram),
        ) if not ok)
    results.append(CheckResult(
        "T2-toral-subalgebra",
        t2_passed,
        t2_detail,
        None if t2_passed else {"commuting": t2_ok, "gram": t2_gram},
    ))

    t3_root = _first_unsolvable_root(win, rng, 2)
    if t3_root is None:
        t3_root = next((d for d in win.isotropic_roots() if isotropic_pair(win, d) is None), None)
    if all(win.scalar_line(r) for r in win.nonisotropic_roots()):
        probed = ("every nonzero nonisotropic vector solves [x, y] = t, each slice a line"
                  " over the scalar field decided by its first basis vector")
    else:
        probed = "every nonisotropic basis vector and sampled combinations solve [x, y] = t"
    results.append(CheckResult(
        "T3-bracket-representatives",
        t3_root is None,
        f"window-verified: {probed}; every isotropic window root has a normalized pair",
        None if t3_root is None else {"root": t3_root},
    ))

    probe_set = set(unit_degrees(win.alg.nu))
    probes = [(root, x) for root, x in win.all_basis() if tuple(root.lattice) in probe_set]
    worst, t4_witness = _longest_ad_chain(win, probes)
    results.append(CheckResult(
        "T4-locally-nilpotent",
        t4_witness is None,
        f"window-verified on degree-0 and unit-degree slices; longest chain {worst}"
        f" (bound {NILPOTENCY_BOUND}, cap {NILPOTENCY_CAP})",
        t4_witness,
    ))

    comps = nonisotropic_classes(win)
    connected = len(comps) <= 1
    results.append(CheckResult(
        "T5a-indecomposable",
        connected,
        "nonisotropic roots form one non-orthogonality class"
        if connected else "nonisotropic roots split into orthogonal classes",
        None if connected else {"components": comps},
    ))
    delta = first_isolated(win)
    results.append(CheckResult(
        "T5b-isotropic-not-isolated",
        delta is None,
        "every isotropic root shifts into the set by a nonisotropic one"
        if delta is None else "an isotropic root cannot be shifted into the root set",
        None if delta is None else {"delta": delta},
    ))
    rank = isotropic_rank(win)
    results.append(CheckResult(
        "T6-free-abelian-rank",
        rank == win.alg.nu,
        f"isotropic roots generate a free abelian group of rank {rank} (nullity {win.alg.nu})",
        None if rank == win.alg.nu else {"rank": rank},
    ))
    return AxiomReport("T", results, _metadata(win))


# -- the D suite ---------------------------------------------------------------


def _first_unspanned_zero_weight(win):
    """D8's witness: the first window degree sigma whose weight-0 slice, the
    claim, is not the span of the brackets [x, y], x at (w, tau) and y at
    (-w, sigma - tau), over the nonzero weights w and every tau with tau and
    sigma - tau in the box of max-norm w + SPAN_MARGIN; None if there is none.

    The brackets come from ``opposite_brackets``, which builds each slice once
    per scan and skips a slice pair whose mirror came earlier.  Every bracket
    lies in the algebra's weight-0 slice at sigma, the ceiling
    (``alg.zero_weight_ceiling(sigma)``; ``zero_root_component``'s stop rests
    on the same premise).  The brackets are read through ``fill_span``, which
    stops once the span is the whole ceiling: later brackets cannot change
    the span, so the verdict and both dimensions are those of
    ``tests/oracles.py``'s literal loop, which reads every bracket.  Where
    the brackets never fill the ceiling, each is read.
    """
    alg, fin = win.alg, win.fin
    margin_box = lattice_box(alg.nu, win.w + SPAN_MARGIN)
    margin_set = set(margin_box)
    weights = sorted(fin.nonzero_roots)
    slices = {}

    def piece(root):
        # The scans of neighbouring degrees share most slices; build each once.
        if root not in slices:
            slices[root] = alg.root_piece(root)
        return slices[root]

    for sigma in lattice_box(alg.nu, win.w):
        claim = SpanDict(
            win.coords(x) for x in win.basis(Root(finite=fin.zero, lattice=sigma))
        )
        degrees = [
            tau for tau in margin_box
            if tuple(s - t for s, t in zip(sigma, tau)) in margin_set
        ]
        brackets = opposite_brackets(piece, alg.bracket, weights, sigma, degrees)
        ceiling = SpanDict(alg.coords(x) for x in alg.zero_weight_ceiling(sigma))
        bracketed = fill_span(brackets, alg.coords, ceiling)[0]
        if not span_equal(claim, bracketed):
            return {"degree": list(sigma), "slice_dim": claim.dim, "bracket_span_dim": bracketed.dim}
    return None


def check_D(win, seed=0):
    """The twelve-axiom suite on a graded algebra window.

    ``win`` is a window of the graded torus algebra: decomposed on its own,
    or the ``base_view()`` of an affinized window.  D1's exhaustive
    invariance verdict reads ``win.invariance()``, which a view takes from
    its parent's record, restricted to lifted indices, once T1 has scanned
    the parent, so T1 and D1 share one scan.  D8 stops where its brackets fill the ceiling
    (``_first_unspanned_zero_weight``).
    """
    rng = random.Random(seed)
    alg = win.alg
    fin = win.fin
    results = list(_form_checks(win, "D1"))
    table = _Supports(win)

    toral = win.toral
    results.append(CheckResult(
        "D2-toral-subalgebra",
        toral_commute(win, toral),
        f"{len(toral)} commuting generators; eigenvector property verified during decomposition",
    ))

    d3_gram = gram_nonsingular(win.toral_gram)
    simple = list(fin.simple_roots)
    rational = True
    for a in simple:
        for b in simple:
            ra = win.rep_t(Root(finite=a, lattice=(0,) * alg.nu))
            rb = win.rep_t(Root(finite=b, lattice=(0,) * alg.nu))
            val = win.form(ra, rb)
            if not isinstance(val, (int, Fraction)):
                rational = False
            if val != fin.pairing(a, b):
                rational = False
    results.append(CheckResult(
        "D3-toral-form-rational",
        d3_gram and rational,
        "toral Gram nonsingular; representative pairings rational and matching the root form",
    ))

    gram = [[fin.pairing(a, b) for b in simple] for a in simple]
    posdef = gram_positive_definite(gram)
    comps = components(
        list(range(len(simple))),
        lambda i, j: bool(fin.pairing(simple[i], simple[j])),
    )
    weights = {tuple(r.finite) for r in win.nonisotropic_roots()}
    system_match = weights == set(fin.nonzero_roots)
    d4_ok = posdef and len(comps) <= 1 and system_match
    results.append(CheckResult(
        "D4-positive-definite-irreducible",
        d4_ok,
        "simple-root Gram positive definite, Cartan graph connected,"
        " realized weights equal the finite root system",
        None if d4_ok else {
            "positive_definite": posdef,
            "components": comps,
            "weights_match": system_match,
        },
    ))

    d5_witness = _first_non_additive_pair(win, table)
    results.append(CheckResult(
        "D5-degree-additive",
        d5_witness is None,
        "exhaustive on all ordered window basis pairs: brackets stay in the summed lattice degree",
        d5_witness,
    ))

    # The lattice half: each basis vector lives at exactly its slice's degree.
    # The weight half rests on decompose_window, which checks every basis
    # vector as an exact eigenvector of the toral generators.
    d6_witness = {"root": table.flat[table.mixed[0]][0]} if table.mixed else None
    results.append(CheckResult(
        "D6-bihomogeneous",
        d6_witness is None,
        "every basis vector is homogeneous in weight and lattice degree at once",
        d6_witness,
    ))

    zero_root = Root(finite=fin.zero, lattice=(0,) * alg.nu)
    zero_span = SpanDict(win.coords(x) for x in win.basis(zero_root))
    d7_ok = all(zero_span.contains(win.coords(h)) for h in toral)
    results.append(CheckResult(
        "D7-toral-inside-zero-slice",
        d7_ok,
        "toral generators lie in the weight-0 degree-0 slice",
    ))

    d8_witness = _first_unspanned_zero_weight(win)
    results.append(CheckResult(
        "D8-zero-weight-spanned",
        d8_witness is None,
        f"weight-0 slices equal the span of opposite-weight brackets (margin {SPAN_MARGIN})",
        d8_witness,
    ))

    degrees = sorted({tuple(r.lattice) for r in win.roots()})
    rank = int_rank([list(d) for d in degrees], alg.nu)
    results.append(CheckResult(
        "D9-support-rank",
        rank == alg.nu,
        f"support degrees generate rank {rank} of {alg.nu}",
    ))

    results.append(_graded_form_check(win, table, "D10-form-graded"))

    missing = [
        a for a in sorted(fin.nonzero_roots)
        if Root(finite=a, lattice=(0,) * alg.nu) not in win.pieces
    ]
    results.append(CheckResult(
        "D11-degree-zero-slices",
        not missing,
        "every reduced finite root appears at lattice degree 0",
        None if not missing else {"missing": missing},
    ))

    d12a_root = _first_unsolvable_root(win, rng, 1)
    results.append(CheckResult(
        "D12a-division",
        d12a_root is None,
        "window-verified: basis vectors and sampled combinations solve [x, y] = t",
        None if d12a_root is None else {"root": d12a_root},
    ))

    d12b_ok = True
    d12b_witness = None
    for delta in win.isotropic_roots():
        if isotropic_pair(win, delta, require_zero_bracket=True) is None:
            d12b_ok = False
            d12b_witness = {"degree": list(delta.lattice)}
            break
    results.append(CheckResult(
        "D12b-isotropic-pairs",
        d12b_ok,
        "each isotropic window degree has a commuting pair with (x, y) = 1",
        d12b_witness,
    ))
    return AxiomReport("D", results, _metadata(win))


# -- the Serre relations -------------------------------------------------------


class SerreReport:
    """Relation results plus the recovered Cartan matrix.

    The generators sit at lattice degree 0, so the report's grading flag is
    always true and its lattice shifts are zeros.
    """

    degree_zero = True

    def __init__(self, results, cartan, nu):
        self.results = results
        self.cartan = cartan
        self.nu = nu

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def as_json(self):
        return {
            "suite": "SERRE",
            "passed": self.passed,
            "cartan_matrix": self.cartan,
            "degree_zero_grading": self.degree_zero,
            "lattice_shifts": [[0] * self.nu for _ in self.cartan],
            "results": [r.as_json() for r in self.results],
        }


def serre_check(win):
    """Verify the defining relations on simple-root preimages.

    e_i is the first basis vector of the slice at the i-th simple root at
    lattice degree 0, f_i its exact sl2 partner.
    With c_{i,j} = 2(alpha_j, alpha_i)/(alpha_i, alpha_i) the verified
    relations are [h_i, h_j] = 0, [h_i, e_j] = c_{i,j} e_j, [h_i, f_j] =
    -c_{i,j} f_j, [e_i, f_j] = delta_{ij} h_i, and the two Serre relations
    (ad e_i)^{1-c_{i,j}} e_j = 0, (ad f_i)^{1-c_{i,j}} f_j = 0 for i != j.
    The reported Cartan matrix is M[i][j] = 2(alpha_i, alpha_j)/(alpha_j,
    alpha_j).
    """
    fin = win.fin
    nu = win.alg.nu
    simple = list(fin.simple_roots)
    n = len(simple)

    e, h, f = zip(*(sl2_triple(win, Root(finite=a, lattice=(0,) * nu)) for a in simple))
    c = [[int(fin.cartan_integer(simple[j], simple[i])) for j in range(n)] for i in range(n)]

    def h_commute(i, j):
        if not win.bracket(h[i], h[j]).is_zero():
            return {"i": i, "j": j}
        return None

    def h_action(i, j):
        if win.bracket(h[i], e[j]) != e[j] * c[i][j]:
            return {"relation": "h-e", "i": i, "j": j}
        if win.bracket(h[i], f[j]) != f[j] * -c[i][j]:
            return {"relation": "h-f", "i": i, "j": j}
        return None

    def e_f_pairing(i, j):
        if win.bracket(e[i], f[j]) != (h[i] if i == j else win.alg.zero()):
            return {"i": i, "j": j}
        return None

    def theta(i, j):
        if i == j:
            return None
        acc_e, acc_f = e[j], f[j]
        for _ in range(1 - c[i][j]):
            acc_e = win.bracket(e[i], acc_e)
            acc_f = win.bracket(f[i], acc_f)
        if not acc_e.is_zero():
            return {"relation": "theta-plus", "i": i, "j": j}
        if not acc_f.is_zero():
            return {"relation": "theta-minus", "i": i, "j": j}
        return None

    results = []
    for name, relation in (
        ("serre-h-commute", h_commute),
        ("serre-h-action", h_action),
        ("serre-e-f-pairing", e_f_pairing),
        ("serre-theta-relations", theta),
    ):
        witness = next(
            (w for w in (relation(i, j) for i in range(n) for j in range(n)) if w is not None),
            None,
        )
        results.append(CheckResult(name, witness is None, "", witness))

    reported = [
        [int(fin.cartan_integer(simple[i], simple[j])) for j in range(n)]
        for i in range(n)
    ]
    diag_ok = all(reported[i][i] == 2 for i in range(n))
    results.append(CheckResult(
        "serre-cartan-diagonal", diag_ok, "diagonal entries equal 2",
    ))

    results.append(CheckResult(
        "serre-degree-zero-grading", True, "generators sit at lattice degree 0",
    ))
    return SerreReport(results, reported, nu)


# -- tameness ------------------------------------------------------------------


def tameness_check(win, core):
    """Two independent tameness routes plus their agreement, read from the core.

    ``core_and_center_window`` solves the window centralizer of the core and
    its form perpendicular once; this check only compares spans.  Route one
    asks that the centralizer, found from brackets alone, lie in the core.
    Route two asks that the perpendicular, found from the form, equal the
    center of the core, found from brackets.
    """
    results = []
    core_span = SpanDict(win.coords(x) for root in sorted(core.pieces) for x in core.piece_basis(root))
    outside = [z for z in core.centralizer if not core_span.contains(win.coords(z))]
    results.append(CheckResult(
        "tame-centralizer-in-core",
        not outside,
        f"window centralizer of the core has dimension {len(core.centralizer)}",
        None if not outside else {"outside_dim": len(outside)},
    ))

    perp_span = SpanDict(win.coords(z) for z in core.perp)
    center_span = SpanDict(win.coords(z) for z in core.center)
    perp_matches = span_equal(perp_span, center_span)
    results.append(CheckResult(
        "tame-core-perp-equals-center",
        perp_matches,
        f"core perpendicular dimension {perp_span.dim}, center dimension {center_span.dim}",
        None if perp_matches else {
            "perp_dim": perp_span.dim,
            "center_dim": center_span.dim,
        },
    ))

    agree = (not outside) == perp_matches
    results.append(CheckResult(
        "tame-routes-agree", agree,
        "centralizer route and perpendicular route reach the same verdict",
    ))
    return AxiomReport("TAME", results, _metadata(win))


# -- structural properties -------------------------------------------------------


def newp_pair(win, core, delta):
    """x, y in opposite core zero-weight slices: [x, y] central, (x, y) = 1."""
    xs = core.piece_basis(delta)
    ys = core.piece_basis(-delta)
    if not xs or not ys:
        return None
    return normalized_pair(win, xs, ys, win.alg.zero(), free=core.center)


def _first_nonorthogonal(win, isotropic, roots):
    """The first (delta, beta) of isotropic x roots with (delta, beta) != 0, or None."""
    return next(((d, b) for d in isotropic for b in roots if win.pairing(d, b)), None)


def _cartan_scan(win, alphas, betas):
    """(max |c|, witness) over c = 2(beta, alpha)/(alpha, alpha), alphas x betas.

    Stops at the first c that is not an integer of absolute value <= 4 and
    names it; the maximum is then that of the pairs before it.
    """
    biggest = 0
    for alpha in alphas:
        nn = win.norm(alpha)
        for beta in betas:
            val = 2 * win.pairing(beta, alpha) / nn
            if val.denominator != 1 or abs(val) > 4:
                return biggest, {"alpha": alpha, "beta": beta, "value": val}
            biggest = max(biggest, abs(int(val)))
    return biggest, None


def _first_unequal_pairing(win, roots):
    """The first (r1, r2) with (r1, r2) not rational or not (t_r1, t_r2), or None."""
    for r1 in roots:
        for r2 in roots:
            lhs = win.pairing(r1, r2)
            if not isinstance(lhs, Fraction) or lhs != win.form(win.rep_t(r1), win.rep_t(r2)):
                return {"first": r1, "second": r2}
    return None


def _pairings_rational_by_basis(win, roots):
    """Whether (r1, r2) is rational and equals (t_r1, t_r2) for all root pairs,
    shown by bilinearity; False means only that this route did not show it.

    (r1, r2) reads the finite parts alone, so rationality is checked once per
    pair of distinct finite parts.  It is bilinear in the flat vector
    ``finite + lattice``, and so is (t_r1, t_r2) once r -> t_r extends to a
    linear map on the roots' span, since the form is bilinear.  It extends
    exactly when the joint vectors (flat(r), coords(t_r)) span a space of
    the same dimension as the flat vectors.  Then the identity holds for all
    pairs when it holds on the m^2 pairs of a greedy basis b_1..b_m of the
    roots' span.
    """
    reps = first_by_finite(roots).values()
    if not all(isinstance(win.pairing(a, b), Fraction) for a in reps for b in reps):
        return False
    flat, joint, basis = SpanDict(), SpanDict(), []
    for r in roots:
        v = {(0, i): c for i, c in enumerate(r.finite + r.lattice)}
        if flat.add(v):
            basis.append(r)
        v.update(((1, k), c) for k, c in win.coords(win.rep_t(r)).items())
        joint.add(v)
    if joint.dim != flat.dim:
        return False
    return not any(
        win.pairing(a, b) != win.form(win.rep_t(a), win.rep_t(b))
        for a in basis for b in basis
    )


def _coroot_sum_is_toral_perp(win):
    """Whether the vectors [x, y] - (x, y) t_alpha, x and y in the slices at
    alpha and -alpha over the nonisotropic roots alpha, span the toral
    perpendicular of the degree-0 zero slice: its elements that pair to zero
    with every toral generator.

    Each +-alpha pair is read once, at its first root, from the window's
    tables: ``bracket_table`` for [x, y], ``gram`` of both roots for (x, y)
    and (y, x).  [y, x] = -[x, y] and t_-alpha = -t_alpha (the same solve,
    negated), so when (y, x) = (x, y) the (y, x) vector is the negative of
    the (x, y) one and cannot grow the span.  Only the toral perpendicular
    forms anything: the zero slice against the toral generators.
    """
    alg = win.alg
    h_sum = SpanDict()
    visited = set()
    for root in win.nonisotropic_roots():
        opp = -root
        if opp not in win.pieces or opp in visited:
            continue
        visited.add(root)
        t_root, t_opp = win.coords(win.rep_t(root)), win.coords(win.rep_t(opp))
        gram, gram_opp = win.gram(root), win.gram(opp)
        for i, row in enumerate(win.bracket_table(root)):
            for j, xy in enumerate(row):
                f_xy, f_yx = gram[i][j], gram_opp[j][i]
                h_sum.add(_combined((1, -f_xy), (xy, t_root)))
                if f_yx != f_xy:
                    h_sum.add(_combined((-1, -f_yx), (xy, t_opp)))

    zero_root = Root(finite=win.fin.zero, lattice=(0,) * alg.nu)
    h_perp = SpanDict()
    if zero_root in win.pieces:
        basis0 = win.basis(zero_root)
        a_rows = [[alg.form(b, h) for b in basis0] for h in win.toral]
        for vec in nullspace_dense(a_rows, len(basis0)):
            h_perp.add(alg.coords(combine(basis0, vec, alg.zero())))
    return span_equal(h_sum, h_perp)


def check_props(win, core):
    """Structural claims tied to the decomposition and the core.

    Three root-pair claims do not loop over all ordered root pairs.
    ``RootSystemWindow.pairing`` and ``norm`` read only finite parts, so
    prop-isotropic-orthogonal and prop-cartan-integers-bounded scan the
    first root of each distinct finite part (9 for C2).  Their first failing
    pair is then the first failing pair in root order, and the ``max`` in
    the detail covers the same values.  prop-pairings-rational is shown by
    bilinearity over a basis of the roots' span
    (``_pairings_rational_by_basis``): one linearity test on ``rep_t`` and
    m^2 forms instead of one form per pair.  That route returns only a bool,
    so when it cannot show the claim the literal loop runs and names the
    first failing pair.  The center/radical comparison and
    prop-h-alpha-sum (``_coroot_sum_is_toral_perp``) are decided here, from
    the spans the core layer computed.  prop-h-alpha-sum and
    prop-bracket-form-normalization (``sl2_search``) read the window's
    bracket and Gram tables, which T3 and T1 have built when ``check_T``
    ran first on the same window, and bracket or form no opposite slice
    pair themselves.  prop-t-delta-central brackets t_delta against the
    window only when coords(t_delta) grows the span of the earlier ones: any
    other t_delta is a combination of earlier representatives that commute
    with the window, and the bracket is bilinear, so the first failing delta
    grows the span and the witness is the literal loop's.
    """
    alg = win.alg
    results = []

    roots, isotropic, nonisotropic = win.roots(), win.isotropic_roots(), win.nonisotropic_roots()
    reps = first_by_finite(roots).values()
    bad = _first_nonorthogonal(win, first_by_finite(isotropic).values(), reps)
    results.append(CheckResult(
        "prop-isotropic-orthogonal",
        bad is None,
        "isotropic roots pair to zero with every root",
        None if bad is None else {"delta": bad[0], "beta": bad[1]},
    ))

    rational_witness = None
    if not _pairings_rational_by_basis(win, roots):
        rational_witness = _first_unequal_pairing(win, roots)
    results.append(CheckResult(
        "prop-pairings-rational",
        rational_witness is None,
        "(alpha, beta) is rational and equals (t_alpha, t_beta) for all window pairs",
        rational_witness,
    ))

    zero_root = Root(finite=win.fin.zero, lattice=(0,) * alg.nu)
    core_zero = SpanDict(win.coords(x) for x in core.piece_basis(zero_root))
    t_core_ok = True
    t_core_witness = None
    for alpha in nonisotropic:
        if zero_root not in core.pieces or not core_zero.contains(win.coords(win.rep_t(alpha))):
            t_core_ok = False
            t_core_witness = {"root": alpha}
            break
    results.append(CheckResult(
        "prop-t-alpha-in-core",
        t_core_ok,
        "form representatives of nonisotropic roots lie in the core",
        t_core_witness,
    ))

    flat = [x for _, x in win.all_basis()]
    spanned = SpanDict()
    t_central_witness = None
    for delta in isotropic:
        t = win.rep_t(delta)
        if spanned.add(win.coords(t)) and not all(win.bracket(t, z).is_zero() for z in flat):
            t_central_witness = {"delta": delta}
            break
    results.append(CheckResult(
        "prop-t-delta-central",
        t_central_witness is None,
        "isotropic representatives commute with the whole window",
        t_central_witness,
    ))

    biggest, cartan_witness = _cartan_scan(win, first_by_finite(nonisotropic).values(), reps)
    results.append(CheckResult(
        "prop-cartan-integers-bounded",
        cartan_witness is None,
        f"all 2(beta,alpha)/(alpha,alpha) integral with |value| <= 4 (max {biggest})",
        cartan_witness,
    ))

    broken = win.broken_string()
    results.append(CheckResult(
        "prop-root-strings",
        broken is None,
        "exhaustive: every string through the window is an unbroken interval"
        " with d - u = 2(beta,alpha)/(alpha,alpha)",
        None if broken is None else {"alpha": broken[0], "beta": broken[1], "error": str(broken[2])},
    ))

    results.append(CheckResult(
        "prop-core-perfect",
        t_core_ok,
        "isotropic core slices are brackets by construction; nonisotropic slices"
        " are recovered from [t_alpha, x] = (alpha, alpha) x with t_alpha in the core",
    ))

    results.append(CheckResult(
        "prop-center-equals-radical",
        span_equal(SpanDict(win.coords(z) for z in core.center),
                   SpanDict(win.coords(z) for z in core.radical)),
        f"center dimension {len(core.center)}, radical dimension {len(core.radical)}",
    ))

    center_support_ok = all(
        not any(_weight_support(win, z)) for z in core.center
    )
    results.append(CheckResult(
        "prop-center-isotropic-support",
        center_support_ok,
        "central elements live entirely in weight-0 (isotropic) slices",
    ))

    weights = {tuple(r.finite) for r in nonisotropic}
    image_ok = weights == set(win.fin.nonzero_roots)
    results.append(CheckResult(
        "prop-finite-image",
        image_ok,
        "finite parts of the nonisotropic roots give the whole finite system",
    ))

    results.append(CheckResult(
        "prop-h-alpha-sum",
        _coroot_sum_is_toral_perp(win),
        "sum of the coroot complements equals the toral perpendicular of the zero slice",
    ))

    compat_ok = True
    compat_witness = None
    for alpha in nonisotropic:
        y = sl2_search(win, alpha)
        if y is None or win.form(win.basis(alpha)[0], y) != 1:
            compat_ok = False
            compat_witness = {"root": alpha}
            break
    results.append(CheckResult(
        "prop-bracket-form-normalization",
        compat_ok,
        "[x, y] = t_alpha forces (x, y) = 1 on the solved witnesses",
        compat_witness,
    ))

    newp_ok = True
    newp_witness = None
    for delta in win.isotropic_roots():
        if not core.piece_basis(delta):
            continue
        if newp_pair(win, core, delta) is None:
            newp_ok = False
            newp_witness = {"delta": delta}
            break
    results.append(CheckResult(
        "prop-central-image-pairs",
        newp_ok,
        "each realized isotropic core degree has x, y with central [x, y] and (x, y) = 1",
        newp_witness,
    ))
    return AxiomReport("PROPS", results, _metadata(win))


def _weight_support(win, z):
    """Finite-weight labels carrying a nonzero coordinate of z, if detectable."""
    coords = win.coords(z)
    out = set()
    for root, x in win.all_basis():
        if not any(root.finite):
            continue
        xc = win.coords(x)
        if any(k in coords for k in xc):
            out.add(tuple(root.finite))
    return out
