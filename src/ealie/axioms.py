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
  routes, and the structural properties tied to the decomposition (rational
  pairings, toral representatives inside the core, bounded Cartan integers,
  unbroken root strings, perfectness, the center/radical identities).

Every universally quantified statement is truncated to the window basis plus
seeded random combinations; each result says so in its detail string.  All
arithmetic is exact.
"""

import random
from fractions import Fraction

from .decomp import (
    _small_generators,
    centralizer_candidates,
    combine,
    isotropic_pair,
    sl2_search,
    sl2_triple,
    toral_commute,
)
from .ears import first_broken_string, first_isolated, nonisotropic_classes
from .finroot import Root, components
from .kernel import int_rank
from .linalg import (
    SpanDict,
    gram_nonsingular,
    gram_positive_definite,
    nullspace_dense,
    solve_dense,
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
    "check_props",
    "newp_pair",
]

_F1 = Fraction(1)

# Zero-sum basis triples up to which form invariance is checked exhaustively;
# above it, a seeded sample of 2000 is checked.
EXHAUSTIVE_LIMIT = 100_000
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


def _random_combo(rng, basis, zero):
    coeffs = [rng.randint(-3, 3) for _ in basis]
    if not any(coeffs):
        coeffs[rng.randrange(len(basis))] = 1
    return combine(basis, [Fraction(c) for c in coeffs], zero)


def _zero_sum_triples(win):
    """Root triples summing to zero; only these can carry a nonzero form value."""
    rset = set(win.roots())
    out = []
    for r1 in win.roots():
        for r2 in win.roots():
            r3 = -(r1 + r2)
            if r3 in rset:
                out.append((r1, r2, r3))
    return out


def _first_asymmetric_root(win):
    """The first window root whose slice pairs asymmetrically with its opposite."""
    for root in win.roots():
        opp = -root
        if opp not in win.pieces:
            continue
        for x in win.basis(root):
            for y in win.basis(opp):
                if win.form(x, y) != win.form(y, x):
                    return root
    return None


def _first_non_invariant_triple(win, triples):
    """The first zero-sum root triple carrying basis vectors with ([x, y], z) != (x, [y, z]).

    [y, z] is bracketed once per (y, z) and [x, y] once per (x, y) of the triple.
    """
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


def _form_checks(win, prefix, seed):
    """Symmetry, per-root nondegeneracy and invariance of the form.

    Witnesses name the first failure found.  Sampled loops always make all of
    their draws, so the random stream that follows them does not depend on
    where (or whether) a failure was found.
    """
    rng = random.Random(seed)
    results = []
    flat = [(root, x) for root, x in win.all_basis()]

    sym_witness = None
    bad_root = _first_asymmetric_root(win)
    if bad_root is not None:
        sym_witness = {"root": bad_root}
    for _ in range(200):
        _, x = flat[rng.randrange(len(flat))]
        _, y = flat[rng.randrange(len(flat))]
        if sym_witness is None and win.form(x, y) != win.form(y, x):
            sym_witness = {"root": "sampled pair"}
    sym_ok = sym_witness is None
    results.append(CheckResult(
        f"{prefix}-form-symmetric",
        sym_ok,
        "exhaustive on opposite slices plus 200 sampled pairs",
        sym_witness,
    ))

    nondeg_ok = True
    nondeg_witness = None
    for root in sorted(win.pieces):
        opp = -root
        basis = win.basis(root)
        opp_basis = win.basis(opp) if opp in win.pieces else ()
        if len(basis) != len(opp_basis):
            nondeg_ok = False
            nondeg_witness = {"root": root, "dim": len(basis), "opposite_dim": len(opp_basis)}
            break
        gram = [[win.form(x, y) for y in opp_basis] for x in basis]
        if gram and not gram_nonsingular(gram):
            nondeg_ok = False
            nondeg_witness = {"root": root, "gram": gram}
            break
    results.append(CheckResult(
        f"{prefix}-form-nondegenerate",
        nondeg_ok,
        "opposite-slice Gram matrices are nonsingular for every window root",
        nondeg_witness,
    ))

    triples = _zero_sum_triples(win)
    total = sum(
        win.dim(r1) * win.dim(r2) * win.dim(r3) for r1, r2, r3 in triples
    )
    inv_witness = None
    if total <= EXHAUSTIVE_LIMIT:
        mode = f"exhaustive on all {total} zero-sum basis triples"
        bad_roots = _first_non_invariant_triple(win, triples)
        if bad_roots is not None:
            inv_witness = {"roots": bad_roots}
    else:
        n = 2000
        mode = f"sampled: {n} of {total} zero-sum basis triples (seed {seed})"
        for _ in range(n):
            r1, r2, r3 = triples[rng.randrange(len(triples))]
            x = win.basis(r1)[rng.randrange(win.dim(r1))]
            y = win.basis(r2)[rng.randrange(win.dim(r2))]
            z = win.basis(r3)[rng.randrange(win.dim(r3))]
            if inv_witness is None and (
                win.form(win.bracket(x, y), z) != win.form(x, win.bracket(y, z))
            ):
                inv_witness = {"roots": [r1, r2, r3]}
    results.append(CheckResult(f"{prefix}-form-invariant", inv_witness is None, mode, inv_witness))
    return results


def _graded_form_check(win, name):
    """Form vanishes on slice pairs whose degrees do not cancel; exhaustive."""
    flat = [(root, x) for root, x in win.all_basis()]
    for i, (r1, x) in enumerate(flat):
        for r2, y in flat[i:]:
            if all(a + b == 0 for a, b in zip(r1.lattice, r2.lattice)):
                continue
            if win.form(x, y):
                return CheckResult(
                    name, False,
                    "form value survives between non-opposite lattice degrees",
                    {"first": r1, "second": r2},
                )
    return CheckResult(name, True, "exhaustive on all window basis pairs")


def _isotropic_rank_check(win, name):
    vecs = [list(r.lattice) for r in win.isotropic_roots()]
    rank = int_rank(vecs, win.alg.nu)
    ok = rank == win.alg.nu
    return CheckResult(
        name,
        ok,
        f"isotropic roots generate a free abelian group of rank {rank} (nullity {win.alg.nu})",
        None if ok else {"rank": rank},
    )


def _longest_ad_chain(win, probes, bound, cap):
    """Longest chain seen, and a witness at the first chain longer than ``bound``.

    The chain of a nonisotropic basis vector x on a probe z is the number of
    brackets with x that take z to zero.  A chain still nonzero after ``cap``
    brackets is reported with the cap as its bound.
    """
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


def _first_unsolvable_root(win, rng, combos):
    """The first nonisotropic root with a probe x for which [x, y] = t_alpha has no solution.

    The probes of a root are its slice basis plus, when the slice has more than
    one vector, ``combos`` seeded random combinations of it.
    """
    for alpha in win.nonisotropic_roots():
        basis = win.basis(alpha)
        probes = list(basis)
        if len(basis) > 1:
            probes.extend(_random_combo(rng, basis, win.alg.zero()) for _ in range(combos))
        if any(sl2_search(win, alpha, x) is None for x in probes):
            return alpha
    return None


# -- the T suite ---------------------------------------------------------------


def check_T(win, seed=0, nilpotency_bound=9):
    """The six-axiom suite on a windowed algebra with form and toral basis."""
    rng = random.Random(seed)
    results = list(_form_checks(win, "T1", seed))
    results.append(_graded_form_check(win, "T1-form-graded"))

    toral = win.toral
    t2_ok = toral_commute(win, toral)
    t2_gram = gram_nonsingular(win.toral_gram)
    spot = True
    flat = [(root, x) for root, x in win.all_basis()]
    for _ in range(10):
        root, x = flat[rng.randrange(len(flat))]
        lams = win.alg.root_functional(root)
        for lam, h in zip(lams, toral):
            if not (win.bracket(h, x) - x * lam).is_zero():
                spot = False
    results.append(CheckResult(
        "T2-toral-subalgebra",
        t2_ok and t2_gram and spot,
        f"{len(toral)} commuting generators, nonsingular Gram, exact eigenvectors"
        " (all window vectors verified during decomposition)",
        None if (t2_ok and t2_gram and spot) else {"commuting": t2_ok, "gram": t2_gram},
    ))

    t3_root = _first_unsolvable_root(win, rng, 2)
    if t3_root is None:
        t3_root = next((d for d in win.isotropic_roots() if isotropic_pair(win, d) is None), None)
    results.append(CheckResult(
        "T3-bracket-representatives",
        t3_root is None,
        "window-verified: every nonisotropic basis vector and sampled combinations"
        " solve [x, y] = t; every isotropic window root has a normalized pair",
        None if t3_root is None else {"root": t3_root},
    ))

    probe_set = set(unit_degrees(win.alg.nu))
    probes = [x for root, x in win.all_basis() if tuple(root.lattice) in probe_set]
    worst, t4_witness = _longest_ad_chain(win, probes, nilpotency_bound, NILPOTENCY_CAP)
    results.append(CheckResult(
        "T4-locally-nilpotent",
        t4_witness is None,
        f"window-verified on degree-0 and unit-degree slices; longest chain {worst}"
        f" (bound {nilpotency_bound}, cap {NILPOTENCY_CAP})",
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
    results.append(_isotropic_rank_check(win, "T6-free-abelian-rank"))
    return AxiomReport("T", results, _metadata(win))


# -- the D suite ---------------------------------------------------------------


def check_D(win, seed=0):
    """The twelve-axiom suite on a graded algebra window."""
    rng = random.Random(seed)
    alg = win.alg
    fin = win.fin
    results = list(_form_checks(win, "D1", seed))

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
            if not isinstance(val, Fraction):
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

    flat = [(root, x) for root, x in win.all_basis()]
    d5_ok = True
    d5_witness = None
    for _ in range(1500):
        r1, x = flat[rng.randrange(len(flat))]
        r2, y = flat[rng.randrange(len(flat))]
        b = win.bracket(x, y)
        target = tuple(a + c for a, c in zip(r1.lattice, r2.lattice))
        if not b.is_zero() and set(_support_degrees(alg, b)) - {target}:
            d5_ok = False
            d5_witness = {"first": r1, "second": r2}
            break
    results.append(CheckResult(
        "D5-degree-additive",
        d5_ok,
        f"1500 sampled bracket pairs stay in the summed lattice degree (seed {seed})",
        d5_witness,
    ))

    d6_ok = True
    d6_witness = None
    for root, x in flat:
        degs = _support_degrees(alg, x)
        if len(set(degs)) > 1:
            d6_ok = False
            d6_witness = {"root": root}
            break
    results.append(CheckResult(
        "D6-bihomogeneous",
        d6_ok,
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

    d8_ok = True
    d8_witness = None
    margin_box = lattice_box(alg.nu, win.w + SPAN_MARGIN)
    margin_set = set(margin_box)
    for sigma in alg.window_degrees(win.w):
        claim = SpanDict(
            win.coords(x) for x in win.basis(Root(finite=fin.zero, lattice=sigma))
        )
        bracketed = SpanDict()
        for weight in sorted(fin.nonzero_roots):
            nw = tuple(-v for v in weight)
            for tau in margin_box:
                rem = tuple(s - t for s, t in zip(sigma, tau))
                if rem not in margin_set:
                    continue
                xs = alg.root_piece(Root(finite=weight, lattice=tau))
                ys = alg.root_piece(Root(finite=nw, lattice=rem))
                for x in xs:
                    for y in ys:
                        b = alg.bracket(x, y)
                        if not b.is_zero():
                            bracketed.add(alg.coords(b))
        if not span_equal(claim, bracketed):
            d8_ok = False
            d8_witness = {
                "degree": list(sigma),
                "slice_dim": claim.dim,
                "bracket_span_dim": bracketed.dim,
            }
            break
    results.append(CheckResult(
        "D8-zero-weight-spanned",
        d8_ok,
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

    results.append(_graded_form_check(win, "D10-form-graded"))

    missing = [
        a for a in sorted(fin.reduced_roots())
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


def _support_degrees(alg, x):
    base = getattr(x, "g", x)
    if hasattr(base, "support_degrees"):
        return base.support_degrees()
    return []


# -- the Serre relations -------------------------------------------------------


class SerreReport:
    """Relation results plus the recovered Cartan matrix and grading flag."""

    def __init__(self, results, cartan, degree_zero, shifts):
        self.results = results
        self.cartan = cartan
        self.degree_zero = degree_zero
        self.shifts = shifts

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def as_json(self):
        return {
            "suite": "SERRE",
            "passed": self.passed,
            "cartan_matrix": self.cartan,
            "degree_zero_grading": self.degree_zero,
            "lattice_shifts": [list(s) for s in self.shifts],
            "results": [r.as_json() for r in self.results],
        }


def serre_check(win, lattice_shifts=None):
    """Verify the defining relations on simple-root preimages.

    e_i is the first basis vector of the slice at the i-th simple root
    (shifted by lattice_shifts[i] when given), f_i its exact sl2 partner.
    With c_{i,j} = 2(alpha_j, alpha_i)/(alpha_i, alpha_i) the verified
    relations are [h_i, h_j] = 0, [h_i, e_j] = c_{i,j} e_j, [h_i, f_j] =
    -c_{i,j} f_j, [e_i, f_j] = delta_{ij} h_i, and the two Serre relations
    (ad e_i)^{1-c_{i,j}} e_j = 0, (ad f_i)^{1-c_{i,j}} f_j = 0 for i != j.
    The reported Cartan matrix is M[i][j] = 2(alpha_i, alpha_j)/(alpha_j,
    alpha_j).  A nonzero shift keeps the relations valid but clears the
    degree-zero grading flag.
    """
    fin = win.fin
    nu = win.alg.nu
    simple = list(fin.simple_roots)
    n = len(simple)
    if lattice_shifts is None:
        lattice_shifts = [(0,) * nu] * n
    shifts = [tuple(s) for s in lattice_shifts]
    if len(shifts) != n:
        raise ValueError(f"expected {n} lattice shifts, got {len(shifts)}")

    e, h, f = zip(*(
        sl2_triple(win, Root(finite=a, lattice=shift)) for a, shift in zip(simple, shifts)
    ))
    c = [[int(fin.cartan_integer(simple[j], simple[i])) for j in range(n)] for i in range(n)]

    def h_commute(i, j):
        if not win.bracket(h[i], h[j]).is_zero():
            return {"i": i, "j": j}
        return None

    def h_action(i, j):
        if not (win.bracket(h[i], e[j]) - e[j] * Fraction(c[i][j])).is_zero():
            return {"relation": "h-e", "i": i, "j": j}
        if not (win.bracket(h[i], f[j]) + f[j] * Fraction(c[i][j])).is_zero():
            return {"relation": "h-f", "i": i, "j": j}
        return None

    def e_f_pairing(i, j):
        b = win.bracket(e[i], f[j])
        if not (b - h[i] if i == j else b).is_zero():
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

    degree_zero = all(not any(s) for s in shifts)
    results.append(CheckResult(
        "serre-degree-zero-grading",
        degree_zero,
        "generators sit at lattice degree 0"
        if degree_zero else "generators mix nonzero lattice degrees",
        None if degree_zero else {"shifts": [list(s) for s in shifts]},
    ))
    return SerreReport(results, reported, degree_zero, shifts)


# -- tameness ------------------------------------------------------------------


def tameness_check(win, core):
    """Two independent tameness routes plus their agreement.

    Route one computes the window centralizer of the core among the isotropic
    slices (nonisotropic slices are excluded exactly: a toral element of the
    core already acts there by a nonzero eigenvalue) and checks containment
    in the core.  Route two computes the perpendicular of the core per degree
    and compares it with the center of the core.
    """
    alg = win.alg
    results = []
    core_basis = [x for root in sorted(core.pieces) for x in core.piece_basis(root)]
    core_span = SpanDict(win.coords(x) for x in core_basis)
    center_span = SpanDict(win.coords(z) for z in core.center)

    generators = _small_generators(win)
    centralizer = []
    for delta in win.isotropic_roots():
        for cand in centralizer_candidates(alg, win.basis(delta), generators):
            if all(win.bracket(cand, g).is_zero() for g in core_basis):
                centralizer.append(cand)
    outside = [z for z in centralizer if not core_span.contains(win.coords(z))]
    results.append(CheckResult(
        "tame-centralizer-in-core",
        not outside,
        f"window centralizer of the core has dimension {len(centralizer)}",
        None if not outside else {"outside_dim": len(outside)},
    ))

    perp = []
    for root in sorted(win.pieces):
        basis = win.basis(root)
        constraints = core.piece_basis(-root)
        if not basis:
            continue
        if not constraints:
            perp.extend(basis)
            continue
        rows = [[win.form(b, x) for b in basis] for x in constraints]
        for vec in nullspace_dense(rows, len(basis)):
            perp.append(combine(basis, vec, alg.zero()))
    perp_span = SpanDict(win.coords(z) for z in perp)
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


def newp_pair(win, core, delta, center_basis):
    """x, y in opposite core zero-weight slices: [x, y] central, (x, y) = 1."""
    xs = core.piece_basis(delta)
    ys = core.piece_basis(-delta)
    if not xs or not ys:
        return None
    z_coords = [win.coords(z) for z in center_basis]
    for x in xs:
        vecs = [win.coords(win.bracket(x, b)) for b in ys]
        keys = sorted(set().union(*vecs, *z_coords)) if (vecs or z_coords) else []
        rows = [
            [v.get(k, 0) for v in vecs] + [-z.get(k, 0) for z in z_coords]
            for k in keys
        ]
        rows.append([win.form(x, b) for b in ys] + [0] * len(z_coords))
        rhs = [Fraction(0)] * len(keys) + [_F1]
        sol = solve_dense(rows, rhs)
        if sol is not None:
            y = combine(ys, sol[:len(ys)], win.alg.zero())
            return x, y
    return None


def check_props(win, core, seed=0):
    """Structural claims tied to the decomposition and the core."""
    rng = random.Random(seed)
    alg = win.alg
    results = []

    bad = next(
        (
            (d, b)
            for d in win.isotropic_roots()
            for b in win.roots()
            if win.pairing(d, b)
        ),
        None,
    )
    results.append(CheckResult(
        "prop-isotropic-orthogonal",
        bad is None,
        "isotropic roots pair to zero with every root",
        None if bad is None else {"delta": bad[0], "beta": bad[1]},
    ))

    rational_ok = True
    rational_witness = None
    for r1 in win.roots():
        for r2 in win.roots():
            lhs = win.pairing(r1, r2)
            rhs = win.form(win.rep_t(r1), win.rep_t(r2))
            if not isinstance(lhs, Fraction) or lhs != rhs:
                rational_ok = False
                rational_witness = {"first": r1, "second": r2}
                break
        if not rational_ok:
            break
    results.append(CheckResult(
        "prop-pairings-rational",
        rational_ok,
        "(alpha, beta) is rational and equals (t_alpha, t_beta) for all window pairs",
        rational_witness,
    ))

    core_zero = {}
    for root in sorted(core.pieces):
        if not any(root.finite):
            core_zero[tuple(root.lattice)] = SpanDict(
                win.coords(x) for x in core.piece_basis(root)
            )
    t_core_ok = True
    t_core_witness = None
    for alpha in win.nonisotropic_roots():
        span = core_zero.get((0,) * alg.nu)
        if span is None or not span.contains(win.coords(win.rep_t(alpha))):
            t_core_ok = False
            t_core_witness = {"root": alpha}
            break
    results.append(CheckResult(
        "prop-t-alpha-in-core",
        t_core_ok,
        "form representatives of nonisotropic roots lie in the core",
        t_core_witness,
    ))

    flat = [(root, x) for root, x in win.all_basis()]
    t_central_ok = True
    t_central_witness = None
    for delta in win.isotropic_roots():
        t = win.rep_t(delta)
        if t.is_zero():
            continue
        for _, z in flat:
            if not win.bracket(t, z).is_zero():
                t_central_ok = False
                t_central_witness = {"delta": delta}
                break
        if not t_central_ok:
            break
    results.append(CheckResult(
        "prop-t-delta-central",
        t_central_ok,
        "isotropic representatives commute with the whole window",
        t_central_witness,
    ))

    cartan_ok = True
    cartan_witness = None
    biggest = 0
    for alpha in win.nonisotropic_roots():
        nn = win.norm(alpha)
        for beta in win.roots():
            val = 2 * win.pairing(beta, alpha) / nn
            if val.denominator != 1 or abs(val) > 4:
                cartan_ok = False
                cartan_witness = {"alpha": alpha, "beta": beta, "value": val}
                break
            biggest = max(biggest, abs(int(val)))
        if not cartan_ok:
            break
    results.append(CheckResult(
        "prop-cartan-integers-bounded",
        cartan_ok,
        f"all 2(beta,alpha)/(alpha,alpha) integral with |value| <= 4 (max {biggest})",
        cartan_witness,
    ))

    broken = first_broken_string(win)
    results.append(CheckResult(
        "prop-root-strings",
        broken is None,
        "exhaustive: every string through the window is an unbroken interval"
        " with d - u = 2(beta,alpha)/(alpha,alpha)",
        None if broken is None else {"alpha": broken[0], "beta": broken[1], "error": str(broken[2])},
    ))

    perfect_ok = True
    perfect_witness = None
    for alpha in win.nonisotropic_roots():
        if not win.norm(alpha):
            perfect_ok = False
            perfect_witness = {"root": alpha}
    results.append(CheckResult(
        "prop-core-perfect",
        perfect_ok and t_core_ok,
        "isotropic core slices are brackets by construction; nonisotropic slices"
        " are recovered from [t_alpha, x] = (alpha, alpha) x with t_alpha in the core",
        perfect_witness,
    ))

    results.append(CheckResult(
        "prop-center-equals-radical",
        core.center_equals_radical,
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

    weights = {tuple(r.finite) for r in win.nonisotropic_roots()}
    image_ok = weights == set(win.fin.nonzero_roots)
    results.append(CheckResult(
        "prop-finite-image",
        image_ok,
        "finite parts of the nonisotropic roots give the whole finite system",
    ))

    results.append(CheckResult(
        "prop-h-alpha-sum",
        core.h_alpha_sum_equals_h_perp,
        "sum of the coroot complements equals the toral perpendicular of the zero slice",
    ))

    compat_ok = True
    compat_witness = None
    for alpha in win.nonisotropic_roots():
        x = win.basis(alpha)[0]
        y = sl2_search(win, alpha, x)
        if y is None or win.form(x, y) != 1:
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
        if newp_pair(win, core, delta, list(core.center)) is None:
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
