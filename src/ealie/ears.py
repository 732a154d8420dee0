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

from .finroot import Root, RootStringError, components, root_string
from .kernel import int_rank
from .linalg import integer_lattice_basis, integer_lattice_member
from .quantum_torus import lattice_box
from .reporting import CheckResult

__all__ = [
    "check_ears_axioms",
    "first_broken_string",
    "nonisotropic_classes",
    "first_isolated",
    "SupportSets",
    "support_sets",
    "support_checks",
    "check_semilattice",
]


def _vec(root):
    return tuple(root.finite) + tuple(root.lattice)


def _split(win, v):
    k = win.fin.ambient_dim
    return Root(finite=tuple(v[:k]), lattice=tuple(v[k:]))


# Offsets scanned on each side of the base point of a root string.
STRING_SCAN = 6


def first_broken_string(win):
    """The first (alpha, beta, error) whose alpha-string through beta is broken, else None.

    alpha runs over the nonisotropic window roots and beta over all window
    roots; membership beyond the window goes through the oracle.
    """

    def member(v):
        return win.member(_split(win, v))

    def pairing(a, b):
        return win.pairing(_split(win, a), _split(win, b))

    for alpha in win.nonisotropic_roots():
        va = _vec(alpha)
        for beta in win.roots():
            try:
                root_string(_vec(beta), va, member, pairing, scan=STRING_SCAN)
            except RootStringError as err:
                return alpha, beta, err
    return None


def nonisotropic_classes(win):
    """Non-orthogonality classes of the finite parts of the nonisotropic roots."""
    reps = {}
    for r in win.nonisotropic_roots():
        reps.setdefault(tuple(r.finite), r)
    return components(sorted(reps), lambda a, b: bool(win.pairing(reps[a], reps[b])))


def first_isolated(win):
    """The first isotropic root no nonisotropic root shifts into the root set, else None."""
    nonzero = win.nonisotropic_roots()
    for delta in win.isotropic_roots():
        if not any(win.member(alpha + delta) for alpha in nonzero):
            return delta
    return None


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
    rank = int_rank(vectors, win.fin.ambient_dim + win.alg.nu)
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

    broken = first_broken_string(win)
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
        (a for a in sorted(nonzero) if win.member(Root(
            finite=tuple(2 * v for v in a.finite),
            lattice=tuple(2 * v for v in a.lattice),
        ))),
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
    e_set: frozenset | None
    per_root: dict
    window: int


def support_sets(win):
    """Support sets S, L (E when extra-long roots exist) and every S_alpha.

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

    short = sorted(fin.short_roots())
    long_ = sorted(fin.long_roots())
    extra = sorted(fin.extra_roots())
    s_set = translate_set(short)
    l_set = translate_set(long_) if long_ else frozenset()
    e_set = translate_set(extra) if extra else None
    per_root = {}
    for a in sorted(fin.nonzero_roots):
        per_root[a] = frozenset(
            delta for delta in box if Root(finite=a, lattice=delta) in win.pieces
        )
    return SupportSets(s_set=s_set, l_set=l_set, e_set=e_set, per_root=per_root, window=win.w)


def check_semilattice(members, nu, bound):
    """The semilattice conditions on a member set inside a max-norm window.

    Checked exactly: 0 is a member, the set is symmetric, sigma + 2 tau stays
    in the set whenever it stays in the window, and the integer span has full
    rank nu.  The first violated condition is reported with a witness.
    """
    members = set(tuple(m) for m in members)
    zero = (0,) * nu
    if zero not in members:
        return CheckResult("semilattice", False, "0 is missing", {"missing": zero})
    for sigma in sorted(members):
        neg = tuple(-v for v in sigma)
        if neg not in members:
            return CheckResult(
                "semilattice", False, "set is not symmetric", {"sigma": sigma, "missing": neg}
            )
    for sigma in sorted(members):
        for tau in sorted(members):
            out = tuple(s + 2 * t for s, t in zip(sigma, tau))
            if all(abs(v) <= bound for v in out) and out not in members:
                return CheckResult(
                    "semilattice",
                    False,
                    "sigma + 2 tau escapes the set inside the window",
                    {"sigma": sigma, "tau": tau, "missing": out},
                )
    rank = int_rank([list(m) for m in sorted(members)], nu)
    if rank != nu:
        return CheckResult(
            "semilattice", False, f"span rank {rank} is less than the ambient rank {nu}", None
        )
    return CheckResult("semilattice", True, "0-membership, symmetry, closure and full rank hold")


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

    sums_ok = True
    sums_witness = None
    supports = sorted(sup.per_root.items())
    for a, da in supports:
        for b, db in supports:
            for s in sorted(da):
                for t in sorted(db):
                    tot = tuple(x + y for x, y in zip(s, t))
                    if not all(abs(v) <= win.w for v in tot):
                        continue
                    if Root(finite=win.fin.zero, lattice=tot) not in win.pieces:
                        sums_ok = False
                        sums_witness = {"first": s, "second": t, "sum": tot}
                        break
                if not sums_ok:
                    break
            if not sums_ok:
                break
        if not sums_ok:
            break
    results.append(CheckResult(
        "support-sums-isotropic",
        sums_ok,
        "pairwise sums of support vectors stay isotropic roots",
        sums_witness,
    ))

    iso = [list(r.lattice) for r in win.isotropic_roots()]
    rank = int_rank(iso, win.alg.nu)
    results.append(CheckResult(
        "isotropic-span-rank",
        rank == win.alg.nu,
        f"isotropic roots span rank {rank} of {win.alg.nu}",
    ))

    s_res = check_semilattice(sup.s_set, win.alg.nu, win.w)
    results.append(CheckResult("semilattice-S", s_res.passed, s_res.detail, s_res.witness))
    if win.fin.long_roots():
        l_res = check_semilattice(sup.l_set, win.alg.nu, win.w)
        results.append(CheckResult("semilattice-L", l_res.passed, l_res.detail, l_res.witness))
    return sup, results
