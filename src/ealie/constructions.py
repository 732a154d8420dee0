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

from .exact_arith import SqrtFieldElement, rational, sqrt_pairing
from .finroot import Root, build_finite_root_system
from .matlie import (
    LieElement,
    hdot,
    mat_bracket,
    skew_root_basis,
    trace_form,
    zero_root_component,
)
from .quantum_torus import SignMatrix, TorusElement, lattice_box
from .sparse import SparseMatrix, sparse_trace_pairing

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
    "build_extension_example",
]

_F0 = Fraction(0)


def degree_derivation(g, i):
    """The i-th degree derivation: t^sigma M -> sigma_i t^sigma M."""
    out = {}
    for pos, val in g.entries.items():
        acc = {sigma: c * sigma[i] for sigma, c in val.coeffs.items() if sigma[i]}
        if acc:
            t = TorusElement(g.q)
            t.coeffs = acc
            out[pos] = t
    return g._with(out)


# Lattice margin of the spanning computation behind each derived weight-0 slice.
ZERO_MARGIN = 1


class TorusMatrixAlgebra:
    """Skew matrices over the twisted torus, or their derived algebra.

    ``derived`` selects G = [B, B] (only the weight-0 slices shrink);
    ``real_only`` restricts coefficients to the rationals, which at nu = 0
    yields sp_{2l}(Q) exactly.  Weight-0 derived slices are produced by the
    exact spanning computation of zero_root_component (margin ``ZERO_MARGIN``,
    diagonal pairs included) and carry its closed-form cross-check flag.
    """

    construction = "quantum-torus"

    def __init__(self, ell, q, derived=True, real_only=False):
        if ell < 2:
            raise ValueError("matrix rank l must be >= 2")
        self.ell = ell
        self.q = q
        self.nu = q.nu
        self.derived = derived
        self.real_only = real_only
        self.fin = build_finite_root_system("C", ell)
        self._pieces = {}
        self._zero_components = {}

    # -- element basics ------------------------------------------------------

    def zero(self):
        return LieElement.zero(self.ell, self.q)

    def bracket(self, x, y):
        return mat_bracket(x, y)

    def form(self, x, y):
        return trace_form(x, y)

    def coords(self, x):
        return x.coords()

    # -- grading -------------------------------------------------------------

    def window_degrees(self, w):
        return lattice_box(self.nu, w)

    def zero_component(self, sigma):
        comp = self._zero_components.get(sigma)
        if comp is None:
            comp = zero_root_component(
                self.ell,
                self.q,
                sigma,
                margin=ZERO_MARGIN,
                include_diagonal_pairs=True,
                real_only=self.real_only,
            )
            self._zero_components[sigma] = comp
        return comp

    def root_piece(self, root):
        weight = tuple(root.finite)
        sigma = tuple(root.lattice)
        if not any(weight):
            if self.derived:
                return tuple(self.zero_component(sigma).basis)
            return tuple(skew_root_basis(self.ell, self.q, weight, sigma, self.real_only))
        if weight not in self.fin.nonzero_roots:
            return ()
        return tuple(skew_root_basis(self.ell, self.q, weight, sigma, self.real_only))

    def graded_pieces(self, sigma):
        sigma = tuple(sigma)
        got = self._pieces.get(sigma)
        if got is None:
            got = {}
            zero_w = self.fin.zero
            got[zero_w] = self.root_piece(Root(finite=zero_w, lattice=sigma))
            for weight in sorted(self.fin.nonzero_roots):
                got[weight] = self.root_piece(Root(finite=weight, lattice=sigma))
            self._pieces[sigma] = got
        return got

    def member_oracle(self, root):
        """Nonzero weights in the type-C system always carry a 2-real-dimension
        (or 1, for long roots) slice at every degree; the weight-0 slice is
        never empty either (its dimension is at least l - 1 in every case of
        the verified closed form).  Inside the window this oracle is checked
        against the actual slices by decompose_window."""
        weight = tuple(root.finite)
        if not any(weight):
            return True
        return weight in self.fin.nonzero_roots

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

    # -- structure ------------------------------------------------------------

    def bracket(self, x, y):
        g = self.base.bracket(x.g, y.g)
        for i in range(self.nu):
            if x.d[i]:
                g = g + degree_derivation(y.g, i) * x.d[i]
            if y.d[i]:
                g = g - degree_derivation(x.g, i) * y.d[i]
        c = []
        for i in range(self.nu):
            dx = degree_derivation(x.g, i)
            c.append(self.base.form(dx, y.g) if dx else 0)
        return AffinizedElement(g, c, (0,) * self.nu)

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

    # -- grading ---------------------------------------------------------------

    def window_degrees(self, w):
        return self.base.window_degrees(w)

    def root_piece(self, root):
        basis = [self.lift(g) for g in self.base.root_piece(root)]
        if not any(root.finite) and not any(root.lattice):
            basis += [self.c_gen(i) for i in range(self.nu)]
            basis += [self.d_gen(i) for i in range(self.nu)]
        return tuple(basis)

    def graded_pieces(self, sigma):
        sigma = tuple(sigma)
        out = {}
        for weight in self.base.graded_pieces(sigma):
            out[weight] = self.root_piece(Root(finite=weight, lattice=sigma))
        return out

    def member_oracle(self, root):
        return self.base.member_oracle(root)

    # -- toral data --------------------------------------------------------------

    def toral_basis(self):
        out = [self.lift(h) for h in self.base.toral_basis()]
        out += [self.c_gen(i) for i in range(self.nu)]
        out += [self.d_gen(i) for i in range(self.nu)]
        return tuple(out)

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
    """Data of an extension: base algebra A, dim E, rho, tau and the E bracket.

    ``rho(i)`` is the derivation of A attached to the i-th E generator;
    ``tau(i, j)`` the A-valued 2-cochain; ``e_bracket(i, j)`` the E-part of
    [E_i, E_j] as a coefficient tuple.  Defaults give an abelian E acting
    trivially with zero cochain.
    """

    def __init__(self, base, e_dim, rho=None, tau=None, e_bracket=None, name="custom"):
        self.base = base
        self.e_dim = e_dim
        self._rho = rho
        self._tau = tau
        self._e_bracket = e_bracket
        self.name = name

    def rho(self, i, a):
        return self._rho(i, a) if self._rho is not None else self.base.zero()

    def tau(self, i, j):
        return self._tau(i, j) if self._tau is not None else self.base.zero()

    def e_bracket(self, i, j):
        if self._e_bracket is not None:
            return tuple(Fraction(v) for v in self._e_bracket(i, j))
        return (_F0,) * self.e_dim


class CocycleExtensionAlgebra:
    """A + E with [a + x, b + y] = [a,b] + rho(x)b - rho(y)a + tau(x,y) + [x,y]_E."""

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
        e_out = [_F0] * self.e_dim
        for i, ci in enumerate(x.e):
            if not ci:
                continue
            for j, cj in enumerate(y.e):
                if not cj:
                    continue
                a = a + self.spec.tau(i, j) * (ci * cj)
                for k, v in enumerate(self.spec.e_bracket(i, j)):
                    e_out[k] += ci * cj * v
        return ExtensionElement(a, tuple(e_out))

    def coords(self, x):
        out = {("a",) + key: val for key, val in self.base.coords(x.a).items()}
        for i, v in enumerate(x.e):
            if v:
                out[("e", i)] = v
        return out


def check_extension_conditions(spec, sample_elements, triples=None):
    """Exact checks of the extension compatibility conditions.

    Returns a list of (name, passed, detail) triples covering: tau
    antisymmetry, the derivation property of each rho, the curvature identity
    ad(tau(x,y)) = [rho x, rho y] - rho([x,y]_E) applied to the samples, the
    cyclic cochain identity, and Jacobi on mixed samples in the built algebra.
    """
    base = spec.base
    alg = CocycleExtensionAlgebra(spec)
    dims = range(spec.e_dim)

    def e_combination(coeffs, term):
        """sum_m coeffs[m] * term(m) in the base algebra, over nonzero coefficients."""
        acc = base.zero()
        for m, v in enumerate(coeffs):
            if v:
                acc = acc + term(m) * v
        return acc

    def derivation_defect(i, a, b):
        lhs = spec.rho(i, base.bracket(a, b))
        return lhs - (base.bracket(spec.rho(i, a), b) + base.bracket(a, spec.rho(i, b)))

    def curvature_defect(i, j, a):
        lhs = base.bracket(spec.tau(i, j), a)
        rhs = spec.rho(i, spec.rho(j, a)) - spec.rho(j, spec.rho(i, a))
        return lhs - (rhs - e_combination(spec.e_bracket(i, j), lambda k: spec.rho(k, a)))

    def cyclic_defect(i, j, k):
        lhs = (
            e_combination(spec.e_bracket(i, j), lambda m: spec.tau(m, k))
            + e_combination(spec.e_bracket(k, i), lambda m: spec.tau(m, j))
            + e_combination(spec.e_bracket(j, k), lambda m: spec.tau(m, i))
        )
        rhs = spec.rho(i, spec.tau(j, k)) + spec.rho(k, spec.tau(i, j)) + spec.rho(j, spec.tau(k, i))
        return lhs - rhs

    def jacobi_sum(x, y, z):
        return (
            alg.bracket(alg.bracket(x, y), z)
            + alg.bracket(alg.bracket(y, z), x)
            + alg.bracket(alg.bracket(z, x), y)
        )

    mixed = [alg.lift(a) for a in sample_elements] + [alg.e_gen(i) for i in dims]
    picked = triples if triples is not None else [
        (x, y, z) for x in mixed for y in mixed for z in mixed
    ]
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
            for x, y, z in picked
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


def _is_prime(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


class SqrtExtensionAlgebra:
    """sp_{2l}(Q) tensored with Q(sqrt p : p in primes); nullity 0, type C_l.

    Root slices are one-dimensional over the field, hence of rational
    dimension 2^len(primes); every nonzero slice vector has an explicit
    inverse-based partner realizing [x, y] = t, which is the strictly-division
    property made constructive.
    """

    construction = "sqrt-extension"

    def __init__(self, ell, primes):
        if ell < 2:
            raise ValueError("matrix rank l must be >= 2")
        primes = tuple(sorted(primes))
        if len(set(primes)) != len(primes) or not all(_is_prime(p) for p in primes):
            raise ValueError("primes must be distinct prime numbers")
        self.ell = ell
        self.primes = primes
        keys = [1]
        for p in primes:
            keys = keys + [k * p for k in keys]
        self.keys = tuple(sorted(keys))
        self.nu = 0
        self.fin = build_finite_root_system("C", ell)
        self._trivial_q = SignMatrix(0)

    # -- element basics --------------------------------------------------------

    def zero(self):
        return SqrtMatrix.zero(self.ell)

    def bracket(self, x, y):
        return (x @ y) - (y @ x)

    def form(self, x, y):
        return sparse_trace_pairing(x.entries, y.entries, sqrt_pairing)

    def coords(self, x):
        return x.coords()

    # -- grading -----------------------------------------------------------------

    def window_degrees(self, w):
        return [()]

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
        if any(root.lattice):
            return ()
        if not any(weight):
            mats = [self._base_matrix((0,) * self.ell)[r] for r in range(self.ell)]
        elif weight in self.fin.nonzero_roots:
            mats = self._base_matrix(weight)
        else:
            return ()
        out = []
        for m in mats:
            for a in self.keys:
                out.append(m * SqrtFieldElement.sqrt(a))
        return tuple(out)

    def graded_pieces(self, sigma):
        out = {self.fin.zero: self.root_piece(Root(finite=self.fin.zero, lattice=()))}
        for weight in sorted(self.fin.nonzero_roots):
            out[weight] = self.root_piece(Root(finite=weight, lattice=()))
        return out

    def member_oracle(self, root):
        if any(root.lattice):
            return False
        weight = tuple(root.finite)
        return not any(weight) or weight in self.fin.nonzero_roots

    # -- toral data -----------------------------------------------------------------

    def toral_basis(self):
        return tuple(self._base_matrix((0,) * self.ell))

    def root_functional(self, root):
        return [Fraction(v) for v in root.finite]

    # -- division structure ------------------------------------------------------------

    def _pure_decomposition(self, root, x):
        """Write x = b (x) u with b the base matrix of the slice and u in the field."""
        b = self._base_matrix(tuple(root.finite))[0]
        pos, cb = next(iter(sorted(b.entries.items())))
        u = x.entries.get(pos)
        if u is None:
            raise ValueError("element does not lie in the requested slice")
        u = u * cb.inverse()
        if x != b * u:
            raise ValueError("element does not lie in the requested slice")
        return b, u

    def division_witness(self, root, x, t_target):
        """The partner y with [x, y] = t_target, via a field inverse.

        The slice is one-dimensional over the field: x = b (x) u.  With
        [b, b_opp] = c * t_target (a rational multiple), y = b_opp (x)
        u^{-1}/c works, and the bracket is re-verified exactly.
        """
        if x.is_zero():
            raise ValueError("zero vector has no division partner")
        b, u = self._pure_decomposition(root, x)
        b_opp = self._base_matrix(tuple(-v for v in root.finite))[0]
        br = self.bracket(b, b_opp)
        pos, val = next(iter(sorted(t_target.entries.items())))
        c = br.entries.get(pos)
        if c is None:
            raise ValueError("bracket of base matrices misses the target support")
        ratio = c * val.inverse()
        if br != t_target * ratio:
            raise ValueError("bracket of base matrices is not a multiple of the target")
        y = b_opp * (u.inverse() * ratio.inverse())
        if self.bracket(x, y) != t_target:
            raise ValueError("division witness failed re-verification")
        return y


def build_extension_example(type_label, rank, primes):
    """The built-in strictly-division example: type C only (matrix realization)."""
    if type_label.upper() != "C":
        raise ValueError("only type C has a built-in matrix realization")
    return SqrtExtensionAlgebra(rank, primes)
