"""Extended affine root system checks on a windowed root decomposition.

The realized root set of a window, together with the induced rational form
and the beyond-window membership oracle, is tested against the defining
axioms of an extended affine root system: negation closure, spanning,
discreteness (certified by integral lattice containment rather than a metric
argument), unbroken root strings with the exact length formula, connectedness
of the nonisotropic part, nonisolation of isotropic roots, and reducedness.
The isotropic support sets of the finite roots are extracted and checked
against the semilattice conditions and the partition/span identities they
must satisfy.
"""

from dataclasses import dataclass
from operator import add

from .finroot import STRING_SCAN, Root, RootStringError, components, root_string
from .kernel import int_rank
from .linalg import integer_lattice_basis, integer_lattice_member
from .quantum_torus import lattice_box
from .reporting import CheckResult

__all__ = [
    "check_ears_axioms",
    "first_broken_string",
    "first_by_finite",
    "nonisotropic_classes",
    "first_isolated",
    "isotropic_rank",
    "SupportSets",
    "support_sets",
    "support_checks",
    "check_semilattice",
]


def _vec(root):
    return tuple(root.finite) + tuple(root.lattice)


def first_by_finite(roots):
    """The first root of ``roots`` for each distinct finite part, keyed by it, in order."""
    first = {}
    for r in roots:
        first.setdefault(r.finite, r)
    return first


def _finite_strings_hold(win):
    """True when the window is full and the alpha-string through beta is
    unbroken for every pair of finite parts (fa, fb); False otherwise.

    F is the set of finite parts of the window's roots and B the lattice box
    ``lattice_box(nu, w)``.  The window is full when ``win.vectors`` is
    exactly {f + l : f in F, l in B} and ``fin.contains`` agrees with
    membership in F at every point fb + n*fa a finite-pair string probes.
    Then each window string's flags are ``member``'s answers: inside the box
    the vector set holds fb + n*fa + (lb + n*la) exactly when fb + n*fa is in
    F, and beyond it ``fin.contains`` gives the same answer.  So every flag
    list of a root pair (alpha, beta) is the mask [fb + n*fa in F], and the
    Cartan number reads only finite parts: the pair's verdict is that of
    (fa, fb).  fa runs over one finite part per ±pair, since the -fa-string
    through fb is the fa-string read backwards.
    """
    reps = first_by_finite(win.roots())
    box = lattice_box(win.alg.nu, win.w)
    vectors = win.vectors
    if len(vectors) != len(reps) * len(box) or any(f + l not in vectors for f in reps for l in box):
        return False
    in_f = reps.__contains__
    offsets = range(-STRING_SCAN, STRING_SCAN + 1)
    probed = set()
    scanned = set()
    for fa in dict.fromkeys(r.finite for r in win.nonisotropic_roots()):
        if tuple(-a for a in fa) in scanned:
            continue
        scanned.add(fa)
        alpha = reps[fa]
        nn = win.pairing(alpha, alpha)
        steps = [tuple(n * a for a in fa) for n in offsets]
        for fb, beta in reps.items():
            points = [tuple(map(add, fb, step)) for step in steps]
            probed.update(points)
            try:
                root_string(fb, fa, list(map(in_f, points)), 2 * win.pairing(beta, alpha) / nn)
            except RootStringError:
                return False
    return set(filter(win.fin.contains, probed)) == probed.intersection(reps)


def first_broken_string(win):
    """The first (alpha, beta, error) whose alpha-string through beta is broken, else None.

    alpha runs over the nonisotropic window roots and beta over all window
    roots.  On a full window (``_finite_strings_hold``: the vector set is
    every finite part at every degree of the box, and ``fin.contains``
    agrees with the finite parts wherever a string probes it) a string's
    verdict depends only on the finite parts of alpha and beta, so one
    ``root_string`` call per finite pair decides every root pair.
    ``decompose_window`` builds only full windows.  On a window that is not
    full, or when some finite pair breaks, the literal loop runs: every
    string's flags are ``member``'s answers at beta + n*alpha, and the first
    broken string is the witness.
    """
    if _finite_strings_hold(win):
        return None
    offsets = range(-STRING_SCAN, STRING_SCAN + 1)
    roots = [(_vec(r), r) for r in win.roots()]
    for alpha in win.nonisotropic_roots():
        va = _vec(alpha)
        nn = win.pairing(alpha, alpha)
        for vb, beta in roots:
            flags = [win.member(tuple(b + n * a for b, a in zip(vb, va))) for n in offsets]
            try:
                root_string(vb, va, flags, 2 * win.pairing(beta, alpha) / nn)
            except RootStringError as err:
                return alpha, beta, err
    return None


def nonisotropic_classes(win):
    """Non-orthogonality classes of the finite parts of the nonisotropic roots."""
    reps = first_by_finite(win.nonisotropic_roots())
    return components(sorted(reps), lambda a, b: bool(win.pairing(reps[a], reps[b])))


def first_isolated(win):
    """The first isotropic root no nonisotropic root shifts into the root set, else None."""
    nonzero = win.nonisotropic_roots()
    for delta in win.isotropic_roots():
        if not any(win.member(_vec(alpha + delta)) for alpha in nonzero):
            return delta
    return None


def isotropic_rank(win):
    """Rank of the free abelian group the isotropic window roots' degrees generate."""
    return int_rank([list(r.lattice) for r in win.isotropic_roots()], win.alg.nu)


def check_ears_axioms(win):
    """The axiom report for the window root system; one result per axiom."""
    results = []
    roots = win.roots()
    rset = set(roots)
    nonzero = win.nonisotropic_roots()
    isotropic = win.isotropic_roots()

    bad = next((r for r in sorted(rset) if -r not in rset), None)
    results.append(CheckResult(
        "R1-negation-closed",
        bad is None,
        "" if bad is None else "a root has no negative in the set",
        None if bad is None else {"root": bad},
    ))

    vectors = [list(_vec(r)) for r in roots]
    expected = win.fin.rank + win.alg.nu
    rank = int_rank(vectors, expected)
    results.append(CheckResult(
        "R2-spans",
        rank == expected,
        f"root span has rank {rank}, ambient dimension {expected}",
    ))

    integral = all(all(int(x) == x for x in _vec(r)) for r in roots)
    iso_lattice = integer_lattice_basis([list(r.lattice) for r in isotropic])
    contained = True
    witness = None
    for r in roots:
        if not integer_lattice_member(iso_lattice, r.lattice):
            contained = False
            witness = {"root": r}
            break
    results.append(CheckResult(
        "R3-discrete",
        integral and contained,
        "all roots lie in the integral span of the simple roots and the isotropic lattice"
        if integral and contained
        else "a root escapes the integral lattice generated by the isotropic roots",
        witness,
    ))

    broken = win.broken_string()
    results.append(CheckResult(
        "R4-root-strings",
        broken is None,
        "" if broken is None else str(broken[2]),
        None if broken is None else {"alpha": broken[0], "beta": broken[1]},
    ))

    classes = nonisotropic_classes(win)
    connected = len(classes) <= 1
    results.append(CheckResult(
        "R5a-connected",
        connected,
        "" if connected else "the nonisotropic part splits into orthogonal components",
        None if connected else {
            "component": classes[0],
            "complement": sorted(n for c in classes[1:] for n in c),
        },
    ))

    delta = first_isolated(win)
    results.append(CheckResult(
        "R5b-isotropic-not-isolated",
        delta is None,
        "" if delta is None else "an isotropic root cannot be shifted into the set by any nonisotropic root",
        None if delta is None else {"delta": delta},
    ))

    doubled = next(
        (a for a in sorted(nonzero) if win.member(tuple(2 * v for v in _vec(a)))),
        None,
    )
    results.append(CheckResult(
        "R6-reduced",
        doubled is None,
        "no nonisotropic root doubles into the set" if doubled is None
        else "a nonisotropic root doubles into the set (non-reduced)",
        None if doubled is None else {"root": doubled},
    ))
    return results


@dataclass
class SupportSets:
    """Isotropic supports: global per length class and per finite root."""

    s_set: frozenset
    l_set: frozenset
    per_root: dict


def support_sets(win):
    """Support sets S (short roots), L (long roots) and every S_alpha.

    A lattice vector delta is only tested when every translate it is paired
    with stays inside the window, so membership here never relies on the
    beyond-window oracle.
    """
    fin = win.fin
    box = list(lattice_box(win.alg.nu, win.w))

    def translate_set(finite_class):
        out = []
        for delta in box:
            if all(Root(finite=a, lattice=delta) in win.pieces for a in finite_class):
                out.append(delta)
        return frozenset(out)

    s_set = translate_set(sorted(fin.short_roots()))
    l_set = translate_set(sorted(fin.long_roots()))
    per_root = {}
    for a in sorted(fin.nonzero_roots):
        per_root[a] = frozenset(
            delta for delta in box if Root(finite=a, lattice=delta) in win.pieces
        )
    return SupportSets(s_set=s_set, l_set=l_set, per_root=per_root)


def check_semilattice(members, nu, bound):
    """The semilattice conditions on a member set inside a max-norm window.

    Checked exactly: 0 is a member, the set is symmetric, sigma + 2 tau stays
    in the set whenever it stays in the window, and the integer span has full
    rank nu.  The first violated condition is reported with a witness.
    """
    members = set(tuple(m) for m in members)
    ordered = sorted(members)
    zero = (0,) * nu
    if zero not in members:
        return CheckResult("semilattice", False, "0 is missing", {"missing": zero})
    for sigma in ordered:
        neg = tuple(-v for v in sigma)
        if neg not in members:
            return CheckResult(
                "semilattice", False, "set is not symmetric", {"sigma": sigma, "missing": neg}
            )
    for sigma in ordered:
        for tau in ordered:
            out = tuple(s + 2 * t for s, t in zip(sigma, tau))
            if out not in members and all(abs(v) <= bound for v in out):
                return CheckResult(
                    "semilattice",
                    False,
                    "sigma + 2 tau escapes the set inside the window",
                    {"sigma": sigma, "tau": tau, "missing": out},
                )
    rank = int_rank([list(m) for m in ordered], nu)
    if rank != nu:
        return CheckResult(
            "semilattice", False, f"span rank {rank} is less than the ambient rank {nu}", None
        )
    return CheckResult("semilattice", True, "0-membership, symmetry, closure and full rank hold")


def _first_escaping_sum(win, da, db):
    """The first s + t (s in da, t in db) inside the window that is not an isotropic root."""
    zero = win.fin.zero
    isotropic = {r.lattice for r in win.pieces if r.finite == zero}
    db = sorted(db)
    for s in sorted(da):
        for t in db:
            tot = tuple(x + y for x, y in zip(s, t))
            if tot not in isotropic and win.in_box(tot):
                return {"first": s, "second": t, "sum": tot}
    return None


def support_checks(win):
    """Support-set validation: partition, pairwise sums, span rank, semilattices."""
    sup = support_sets(win)
    results = []

    rebuilt = set()
    for delta in win.isotropic_roots():
        rebuilt.add(delta)
    overlap = None
    for a, deltas in sorted(sup.per_root.items()):
        for delta in sorted(deltas):
            root = Root(finite=a, lattice=delta)
            if root in rebuilt:
                overlap = root
            rebuilt.add(root)
    window_roots = set(win.roots())
    partition_ok = overlap is None and rebuilt == window_roots
    diff = sorted(window_roots.symmetric_difference(rebuilt))
    results.append(CheckResult(
        "support-partition",
        partition_ok,
        "window roots = isotropic roots plus translated finite roots, disjointly"
        if partition_ok else "support translates do not partition the window roots",
        None if partition_ok else {"overlap": overlap, "difference": diff[:5]},
    ))

    # The check depends only on the two support sets, so each distinct pair
    # of sets is checked once, in the order its first (a, b) comes.
    sets = [deltas for _, deltas in sorted(sup.per_root.items())]
    pairs = dict.fromkeys((da, db) for da in sets for db in sets)
    sums_witness = None
    for da, db in pairs:
        sums_witness = _first_escaping_sum(win, da, db)
        if sums_witness is not None:
            break
    sums_ok = sums_witness is None
    results.append(CheckResult(
        "support-sums-isotropic",
        sums_ok,
        "pairwise sums of support vectors stay isotropic roots",
        sums_witness,
    ))

    rank = isotropic_rank(win)
    results.append(CheckResult(
        "isotropic-span-rank",
        rank == win.alg.nu,
        f"isotropic roots span rank {rank} of {win.alg.nu}",
    ))

    s_res = check_semilattice(sup.s_set, win.alg.nu, win.w)
    results.append(CheckResult("semilattice-S", s_res.passed, s_res.detail, s_res.witness))
    l_res = check_semilattice(sup.l_set, win.alg.nu, win.w)
    results.append(CheckResult("semilattice-L", l_res.passed, l_res.detail, l_res.witness))
    return sup, results
