"""Concrete graded Lie algebras fed to the window decomposition and the suites.

Four families:

- TorusMatrixAlgebra: the skew algebra B of 2l x 2l matrices over the twisted
  torus (or its derived algebra G = [B, B], the default), type C_l, graded by
  Z^nu; with nu = 0 and real coefficients this is rational sp_{2l}.
- AffinizedAlgebra: G extended by nu central generators c_i and nu degree
  derivations d_i, with the cocycle-corrected bracket and the extended form;
  this is the tame algebra of nullity nu.
- CocycleExtensionAlgebra: a generic ideal-plus-acting-space extension A + E
  determined by derivations rho and an A-valued 2-cochain tau, with the
  compatibility conditions turned into explicit checks.
- SqrtExtensionAlgebra: sp_{2l}(Q) tensored with the field generated by square
  roots of a finite list of primes; strictly division-graded with nullity 0.
"""

from fractions import Fraction

from .exact_arith import (
    SqrtFieldElement,
    prime_factors,
    rational,
    sqrt_coeff_product,
    sqrt_pairing,
    square_free_products,
)
from .finroot import FiniteRootSystem
from .matlie import (
    LieElement,
    hdot,
    mat_bracket,
    skew_root_basis,
    trace_form,
    zero_root_component_by_class,
)
from .quantum_torus import SignMatrix, TorusElement, kappa
from .sparse import SparseMatrix, sparse_commutator, sparse_trace_pairing

__all__ = [
    "TorusMatrixAlgebra",
    "AffinizedElement",
    "AffinizedAlgebra",
    "affinize",
    "degree_derivation",
    "ExtensionSpec",
    "ExtensionElement",
    "CocycleExtensionAlgebra",
    "check_extension_conditions",
    "build_extension_by_cocycle",
    "degree_derivation_spec",
    "SqrtMatrix",
    "SqrtExtensionAlgebra",
]

_F0 = Fraction(0)


def degree_derivation(g, i):
    """The i-th degree derivation: t^sigma M -> sigma_i t^sigma M."""
    out = {}
    for pos, val in g.entries.items():
        acc = {sigma: c * sigma[i] for sigma, c in val.coeffs.items() if sigma[i]}
        if acc:
            out[pos] = TorusElement.wrap(g.q, acc)
    return g._with(out)


def _degree_pairings(g, h):
    """[(d_i g, h) for each direction i], in one pass and without building d_i g.

    (d_i g, h) is the sum over entries (p, k) of g and (k, p) of h, and over
    degrees sigma, of sigma_i eps(g_sigma t^sigma h_{-sigma} t^{-sigma}), where
    t^sigma t^{-sigma} = kappa(sigma).
    """
    q = g.q
    out = [0] * q.nu
    other = h.entries
    for (p, k), a in g.entries.items():
        b = other.get((k, p))
        if b is None:
            continue
        bc = b.coeffs
        for sigma, u in a.coeffs.items():
            if not any(sigma):
                continue
            v = bc.get(tuple(-s for s in sigma))
            if v is None:
                continue
            term = u.re * v.re - u.im * v.im
            if term:
                if kappa(sigma, q) < 0:
                    term = -term
                for i, s in enumerate(sigma):
                    if s:
                        out[i] += s * term
    return out


class TorusMatrixAlgebra:
    """Skew matrices over the twisted torus, or their derived algebra.

    ``derived`` selects G = [B, B] (only the weight-0 slices shrink);
    ``real_only`` restricts coefficients to the rationals, which at nu = 0
    yields sp_{2l}(Q) exactly.  Weight-0 derived slices are the closed forms
    zero_root_component checks by exact spanning, scanned once per parity
    class of degrees (zero_root_component_by_class) and kept per degree.
    """

    construction = "quantum-torus"

    def __init__(self, ell, q, derived=True, real_only=False):
        self.ell = ell
        self.q = q
        self.nu = q.nu
        self.derived = derived
        self.real_only = real_only
        self.fin = FiniteRootSystem(ell)
        self._zero_bases = {}
        self._zero_classes = {}

    # -- element basics ------------------------------------------------------

    def zero(self):
        return LieElement.zero(self.ell, self.q)

    def bracket(self, x, y):
        return mat_bracket(x, y)

    def form(self, x, y):
        return trace_form(x, y)

    def coords(self, x):
        return x.coords()

    def simple_reflections(self):
        return self.fin.simple_reflections()

    # -- grading -------------------------------------------------------------

    def zero_weight_ceiling(self, sigma):
        """B's weight-0 slice at degree sigma, which holds every bracket of
        opposite-weight slices whose degrees sum to sigma: the ceiling of D8's
        span at sigma."""
        return skew_root_basis(self.ell, self.q, self.fin.zero, tuple(sigma), self.real_only)

    def root_piece(self, root):
        weight = tuple(root.finite)
        sigma = tuple(root.lattice)
        if not any(weight):
            if self.derived:
                basis = self._zero_bases.get(sigma)
                if basis is None:
                    basis = self._zero_bases[sigma] = zero_root_component_by_class(
                        self.ell, self.q, sigma, self._zero_classes, real_only=self.real_only)
                return basis
            return tuple(skew_root_basis(self.ell, self.q, weight, sigma, self.real_only))
        if weight not in self.fin.nonzero_roots:
            return ()
        return tuple(skew_root_basis(self.ell, self.q, weight, sigma, self.real_only))

    # -- toral data ------------------------------------------------------------

    def toral_basis(self):
        return tuple(hdot(self.ell, self.q, r) for r in range(self.ell))

    def root_functional(self, root):
        return [Fraction(v) for v in root.finite]


class AffinizedElement:
    """Element g + sum mu_i c_i + sum lam_i d_i of the affinized algebra.

    The rational coefficients mu_i, lam_i are ints when integral, else Fractions.
    """

    __slots__ = ("g", "c", "d")

    def __init__(self, g, c, d):
        self.g = g
        self.c = tuple(map(rational, c))
        self.d = tuple(map(rational, d))

    def __add__(self, other):
        if not isinstance(other, AffinizedElement):
            return NotImplemented
        return AffinizedElement(
            self.g + other.g,
            tuple(a + b for a, b in zip(self.c, other.c)),
            tuple(a + b for a, b in zip(self.d, other.d)),
        )

    def __sub__(self, other):
        if not isinstance(other, AffinizedElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AffinizedElement(-self.g, tuple(-a for a in self.c), tuple(-a for a in self.d))

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return AffinizedElement(
            self.g * scalar,
            tuple(a * scalar for a in self.c),
            tuple(a * scalar for a in self.d),
        )

    __rmul__ = __mul__

    def is_zero(self):
        return self.g.is_zero() and not any(self.c) and not any(self.d)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, AffinizedElement):
            return NotImplemented
        return self.g == other.g and self.c == other.c and self.d == other.d

    def __repr__(self):
        return f"AffinizedElement(g={self.g!r}, c={self.c}, d={self.d})"

    def reflect(self, moves):
        """The simple reflection ``moves`` applied to ``g``; c and d are fixed."""
        return AffinizedElement(self.g.reflect(moves), self.c, self.d)

    def support_degrees(self):
        """The lattice degrees of ``g``, plus degree 0 when a c or d entry is nonzero."""
        degs = self.g.support_degrees()
        if any(self.c) or any(self.d):
            degs.add((0,) * len(self.c))
        return degs


class AffinizedAlgebra:
    """The base algebra extended by central c_i and degree derivations d_i.

    Bracket: [x, y] = [x.g, y.g] + sum_i x.d_i (d_i y.g) - sum_i y.d_i (d_i x.g)
    + sum_i (d_i x.g, y.g) c_i.  Form: (x, y) = (x.g, y.g) + sum_i (x.c_i y.d_i
    + x.d_i y.c_i).  The toral space grows by C + D, the weight-0 degree-0
    slice by the same 2 nu dimensions, and every other slice is just a lift.
    """

    construction = "affinized"

    def __init__(self, base):
        self.base = base
        self.nu = base.nu
        self.ell = base.ell
        self.q = base.q
        self.fin = base.fin

    # -- element builders ------------------------------------------------------

    def lift(self, g):
        return AffinizedElement(g, (0,) * self.nu, (0,) * self.nu)

    def c_gen(self, i):
        c = [0] * self.nu
        c[i] = 1
        return AffinizedElement(self.base.zero(), tuple(c), (0,) * self.nu)

    def d_gen(self, i):
        d = [0] * self.nu
        d[i] = 1
        return AffinizedElement(self.base.zero(), (0,) * self.nu, tuple(d))

    def zero(self):
        return self.lift(self.base.zero())

    def base_part(self, x):
        """The base element that x lifts, or None when x has a c or d part."""
        return None if any(x.c) or any(x.d) else x.g

    def extension_basis(self):
        """c_0, ..., c_(nu-1), then d_0, ..., d_(nu-1): the vectors that follow
        the lifts in the weight-0 degree-0 slice and in the toral basis."""
        return tuple(self.c_gen(i) for i in range(self.nu)) + self.derivation_basis()

    def derivation_basis(self):
        """d_0, ..., d_(nu-1): the slice vectors outside [L, L], since no
        bracket has a d part."""
        return tuple(self.d_gen(i) for i in range(self.nu))

    # -- structure ------------------------------------------------------------

    def bracket(self, x, y):
        g = self.base.bracket(x.g, y.g)
        for i in range(self.nu):
            if x.d[i]:
                g = g + degree_derivation(y.g, i) * x.d[i]
            if y.d[i]:
                g = g - degree_derivation(x.g, i) * y.d[i]
        return AffinizedElement(g, _degree_pairings(x.g, y.g), (0,) * self.nu)

    def form(self, x, y):
        acc = self.base.form(x.g, y.g)
        extra = 0
        for i in range(self.nu):
            extra += x.c[i] * y.d[i] + x.d[i] * y.c[i]
        return acc + extra if extra else acc

    def coords(self, x):
        out = {}
        for key, val in self.base.coords(x.g).items():
            out[("g",) + key] = val
        for i, v in enumerate(x.c):
            if v:
                out[("c", i)] = v
        for i, v in enumerate(x.d):
            if v:
                out[("d", i)] = v
        return out

    def simple_reflections(self):
        return self.fin.simple_reflections()

    # -- grading ---------------------------------------------------------------

    def root_piece(self, root):
        basis = tuple(self.lift(g) for g in self.base.root_piece(root))
        if not any(root.finite) and not any(root.lattice):
            basis += self.extension_basis()
        return basis

    # -- toral data --------------------------------------------------------------

    def toral_basis(self):
        return tuple(self.lift(h) for h in self.base.toral_basis()) + self.extension_basis()

    def root_functional(self, root):
        vals = [Fraction(v) for v in root.finite]
        vals += [_F0] * self.nu
        vals += [Fraction(v) for v in root.lattice]
        return vals


def affinize(base):
    """Wrap a torus matrix algebra with its central/derivation extension."""
    return AffinizedAlgebra(base)


class ExtensionElement:
    """Element (a, e) of a cocycle extension: ideal part a, acting part e."""

    __slots__ = ("a", "e")

    def __init__(self, a, e):
        self.a = a
        self.e = tuple(Fraction(v) for v in e)

    def __add__(self, other):
        if not isinstance(other, ExtensionElement):
            return NotImplemented
        return ExtensionElement(self.a + other.a, tuple(x + y for x, y in zip(self.e, other.e)))

    def __sub__(self, other):
        if not isinstance(other, ExtensionElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExtensionElement(-self.a, tuple(-x for x in self.e))

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return ExtensionElement(self.a * Fraction(scalar), tuple(x * scalar for x in self.e))

    __rmul__ = __mul__

    def is_zero(self):
        return self.a.is_zero() and not any(self.e)

    def __eq__(self, other):
        if not isinstance(other, ExtensionElement):
            return NotImplemented
        return self.a == other.a and self.e == other.e

    def __repr__(self):
        return f"ExtensionElement(a={self.a!r}, e={self.e})"


class ExtensionSpec:
    """Data of an extension: base algebra A, dim E, rho and tau; E is abelian.

    ``rho(i)`` is the derivation of A attached to the i-th E generator;
    ``tau(i, j)`` the A-valued 2-cochain.  Defaults give E acting trivially
    with zero cochain.
    """

    def __init__(self, base, e_dim, rho=None, tau=None, name="custom"):
        self.base = base
        self.e_dim = e_dim
        self._rho = rho
        self._tau = tau
        self.name = name

    def rho(self, i, a):
        return self._rho(i, a) if self._rho is not None else self.base.zero()

    def tau(self, i, j):
        return self._tau(i, j) if self._tau is not None else self.base.zero()


class CocycleExtensionAlgebra:
    """A + E with [a + x, b + y] = [a,b] + rho(x)b - rho(y)a + tau(x,y), E abelian."""

    construction = "cocycle-extension"

    def __init__(self, spec):
        self.spec = spec
        self.base = spec.base
        self.e_dim = spec.e_dim

    def zero(self):
        return ExtensionElement(self.base.zero(), (0,) * self.e_dim)

    def lift(self, a):
        return ExtensionElement(a, (0,) * self.e_dim)

    def e_gen(self, i):
        e = [0] * self.e_dim
        e[i] = 1
        return ExtensionElement(self.base.zero(), tuple(e))

    def _rho_of(self, coeffs, a):
        out = self.base.zero()
        for i, c in enumerate(coeffs):
            if c:
                out = out + self.spec.rho(i, a) * c
        return out

    def bracket(self, x, y):
        a = self.base.bracket(x.a, y.a)
        a = a + self._rho_of(x.e, y.a) - self._rho_of(y.e, x.a)
        for i, ci in enumerate(x.e):
            if not ci:
                continue
            for j, cj in enumerate(y.e):
                if cj:
                    a = a + self.spec.tau(i, j) * (ci * cj)
        return ExtensionElement(a, (_F0,) * self.e_dim)

    def coords(self, x):
        out = {("a",) + key: val for key, val in self.base.coords(x.a).items()}
        for i, v in enumerate(x.e):
            if v:
                out[("e", i)] = v
        return out


def check_extension_conditions(spec, sample_elements):
    """Exact checks of the extension compatibility conditions.

    Returns a list of (name, passed, detail) triples covering: tau
    antisymmetry, the derivation property of each rho, the curvature identity
    ad(tau(x,y)) = [rho x, rho y] applied to the samples (E is abelian), the
    cyclic cochain identity, and Jacobi on mixed samples in the built algebra.
    """
    base = spec.base
    alg = CocycleExtensionAlgebra(spec)
    dims = range(spec.e_dim)

    def derivation_defect(i, a, b):
        lhs = spec.rho(i, base.bracket(a, b))
        return lhs - (base.bracket(spec.rho(i, a), b) + base.bracket(a, spec.rho(i, b)))

    def curvature_defect(i, j, a):
        lhs = base.bracket(spec.tau(i, j), a)
        return lhs - (spec.rho(i, spec.rho(j, a)) - spec.rho(j, spec.rho(i, a)))

    def cyclic_defect(i, j, k):
        return spec.rho(i, spec.tau(j, k)) + spec.rho(k, spec.tau(i, j)) + spec.rho(j, spec.tau(k, i))

    def jacobi_sum(x, y, z):
        return (
            alg.bracket(alg.bracket(x, y), z)
            + alg.bracket(alg.bracket(y, z), x)
            + alg.bracket(alg.bracket(z, x), y)
        )

    mixed = [alg.lift(a) for a in sample_elements] + [alg.e_gen(i) for i in dims]
    # Each check is a lazy stream of failure details; only its first item is drawn.
    checks = (
        ("tau-antisymmetric", (
            f"tau({i},{j}) + tau({j},{i}) != 0"
            for i in dims for j in dims
            if not (spec.tau(i, j) + spec.tau(j, i)).is_zero()
        )),
        ("rho-derivations", (
            f"rho({i}) fails the derivation rule"
            for i in dims for a in sample_elements for b in sample_elements
            if not derivation_defect(i, a, b).is_zero()
        )),
        ("curvature-identity", (
            f"curvature identity fails at ({i},{j})"
            for i in dims for j in dims for a in sample_elements
            if not curvature_defect(i, j, a).is_zero()
        )),
        ("cyclic-cochain-identity", (
            f"cyclic cochain identity fails at ({i},{j},{k})"
            for i in dims for j in dims for k in dims
            if not cyclic_defect(i, j, k).is_zero()
        )),
        ("jacobi", (
            "Jacobi identity fails on a mixed triple"
            for x in mixed for y in mixed for z in mixed
            if not jacobi_sum(x, y, z).is_zero()
        )),
        ("ideal-and-quotient", (
            "bracketing with the ideal leaks into E"
            for x in mixed for a in sample_elements
            if any(alg.bracket(x, alg.lift(a)).e)
        )),
    )
    results = []
    for name, failures in checks:
        detail = next(failures, "")
        results.append((name, not detail, detail))
    return results


def build_extension_by_cocycle(spec, sample_elements):
    """Validate the compatibility conditions, then return the built algebra.

    Raises ValueError carrying the first failed condition; the point of the
    construction is that validity is checked, not assumed.
    """
    results = check_extension_conditions(spec, sample_elements)
    for name, passed, detail in results:
        if not passed:
            raise ValueError(f"extension condition {name} fails: {detail}")
    return CocycleExtensionAlgebra(spec)


def degree_derivation_spec(ell, q):
    """Abelian E of the lattice rank acting by degree derivations, zero cochain."""
    base = TorusMatrixAlgebra(ell, q, derived=False)
    return ExtensionSpec(
        base,
        q.nu,
        rho=lambda i, a: degree_derivation(a, i),
        name="degree-derivations",
    )


class SqrtMatrix(SparseMatrix):
    """Sparse 2l x 2l matrix with square-root-field entries."""

    __slots__ = ("ell",)

    def __init__(self, ell, entries=None):
        self.ell = ell
        self.shape = ell
        self.entries = self._nonzero(entries)

    @classmethod
    def zero(cls, ell):
        return cls(ell)

    def _with(self, entries):
        r = object.__new__(SqrtMatrix)
        r.ell = r.shape = self.ell
        r.entries = entries
        return r

    @staticmethod
    def _scalar(x):
        if isinstance(x, (int, Fraction)):
            return SqrtFieldElement.from_rational(x)
        return x if isinstance(x, SqrtFieldElement) else None

    def coords(self):
        out = {}
        for (p, r_), val in self.entries.items():
            for a, c in val.coeffs.items():
                out[(a, p, r_)] = c
        return out

    def support_degrees(self):
        """Nullity 0: every element sits at the one lattice degree ()."""
        return {()}


class SqrtExtensionAlgebra:
    """sp_{2l}(Q) tensored with Q(sqrt p : p in primes); nullity 0, type C_l.

    Each root slice is a line over the field K: its basis is b s for s in
    ``scalar_basis()``, b the base matrix of the root, so its rational
    dimension is 2^len(primes).  The bracket is K-bilinear, so a nonzero
    slice vector x = b c solves [x, y] = t_alpha as soon as b does, with
    y = y_b / c for the partner y_b of b: the strictly-division property.
    T3 decides such a root from b alone (``RootSystemWindow.scalar_line``).
    """

    construction = "sqrt-extension"

    def __init__(self, ell, primes):
        primes = tuple(sorted(primes))
        # p is prime exactly when it is its only prime factor
        if len(set(primes)) != len(primes) or not all(prime_factors(p) == [p] for p in primes):
            raise ValueError("primes must be distinct prime numbers")
        self.ell = ell
        self.primes = primes
        self.keys = tuple(square_free_products(primes))
        self.nu = 0
        self.fin = FiniteRootSystem(ell)
        self._trivial_q = SignMatrix(0)

    # -- element basics --------------------------------------------------------

    def zero(self):
        return SqrtMatrix.zero(self.ell)

    def bracket(self, x, y):
        x._check_compat(y)
        out = sparse_commutator(x.entries, y.entries, sqrt_coeff_product)
        return x._with({pos: SqrtFieldElement.wrap(coeffs) for pos, coeffs in out.items()})

    def form(self, x, y):
        return sparse_trace_pairing(x.entries, y.entries, sqrt_pairing)

    def coords(self, x):
        return x.coords()

    def simple_reflections(self):
        return self.fin.simple_reflections()

    def scalar_basis(self):
        """The field's rational basis sqrt(a), a in ``keys``: each root slice
        is its base matrix times these, in this order."""
        return tuple(SqrtFieldElement.sqrt(a) for a in self.keys)

    # -- grading -----------------------------------------------------------------

    def _base_matrix(self, weight):
        lies = skew_root_basis(self.ell, self._trivial_q, weight, (), real_only=True)
        out = []
        for lie in lies:
            entries = {}
            for pos, val in lie.entries.items():
                c = val.coefficient(())
                entries[pos] = SqrtFieldElement.from_rational(c.re)
            out.append(SqrtMatrix(self.ell, entries))
        return out

    def root_piece(self, root):
        weight = tuple(root.finite)
        if any(root.lattice) or (any(weight) and weight not in self.fin.nonzero_roots):
            return ()
        return tuple(m * s for m in self._base_matrix(weight) for s in self.scalar_basis())

    # -- toral data -----------------------------------------------------------------

    def toral_basis(self):
        return tuple(self._base_matrix((0,) * self.ell))

    def root_functional(self, root):
        return [Fraction(v) for v in root.finite]
