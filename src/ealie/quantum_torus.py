"""Sign-twisted Laurent coefficient algebra over the Gaussian rationals.

Generators t_1, ..., t_nu satisfy t_i t_j = q[i][j] t_j t_i with q[i][j] = +-1,
so monomials t^sigma = t_1^{s_1} ... t_nu^{s_nu} (sigma in Z^nu) form a basis
over Q(i) and products only pick up signs.  The normal-ordering sign c(sigma,
tau) with t^sigma t^tau = c(sigma, tau) t^{sigma+tau} is computed by the
crossing-count kernel; c(sigma, tau) = g(tau, sigma) for the bilinear sign g,
an identity exercised by the word-rewriting oracle in the test suite.

The conjugation ``bar`` fixes each generator and is semilinear over Q(i); on
monomials bar(t^sigma) = kappa(sigma) t^sigma with the self-commutation sign
kappa.  The trace functional eps picks the real part of the degree-0
coefficient and induces the symmetric pairing used by the matrix algebras.
"""

from fractions import Fraction
from operator import add

from .exact_arith import GaussianRational, rational
from .kernel import g_cocycle, kappa, structure_constant
from .sparse import sparse_add

__all__ = [
    "SignMatrix",
    "TorusElement",
    "coeff_product",
    "kappa",
    "cocycles",
    "structure_constant",
    "epsilon",
    "torus_form",
    "lattice_box",
    "unit_degrees",
]


class SignMatrix:
    """Symmetric nu x nu matrix of +-1 entries with unit diagonal."""

    __slots__ = ("nu", "flat")

    def __init__(self, nu, flat=None):
        if nu < 0:
            raise ValueError("nu must be >= 0")
        if flat is None:
            flat = (1,) * (nu * nu)
        flat = tuple(flat)
        if len(flat) != nu * nu:
            raise ValueError("flat entries must have length nu*nu")
        for i in range(nu):
            if flat[i * nu + i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(nu):
                v = flat[i * nu + j]
                if v not in (1, -1):
                    raise ValueError("entries must be +1 or -1")
                if v != flat[j * nu + i]:
                    raise ValueError("matrix must be symmetric")
        self.nu = nu
        self.flat = flat

    @classmethod
    def from_upper(cls, nu, upper):
        """Build from the strict upper triangle, row-major."""
        upper = tuple(upper)
        need = nu * (nu - 1) // 2
        if len(upper) != need:
            raise ValueError(f"expected {need} strict upper-triangle entries, got {len(upper)}")
        flat = [1] * (nu * nu)
        k = 0
        for i in range(nu):
            for j in range(i + 1, nu):
                v = upper[k]
                k += 1
                if v not in (1, -1):
                    raise ValueError("q entries must be +1 or -1")
                flat[i * nu + j] = v
                flat[j * nu + i] = v
        return cls(nu, flat)

    def entry(self, i, j):
        return self.flat[i * self.nu + j]

    def zero(self):
        return (0,) * self.nu

    def __eq__(self, other):
        return isinstance(other, SignMatrix) and self.nu == other.nu and self.flat == other.flat

    def __hash__(self):
        return hash((self.nu, self.flat))

    def __repr__(self):
        return f"SignMatrix({self.nu}, {self.flat})"


def cocycles(sigma, tau, q):
    """Pair (g, f): the bilinear sign g(sigma, tau) and f = g(sigma, tau)*g(tau, sigma)."""
    g = g_cocycle(sigma, tau, q)
    f = g * g_cocycle(tau, sigma, q)
    return g, f


def _neg(sigma):
    return tuple(-a for a in sigma)


def coeff_product(a, b, q, sign=1):
    """Coefficients of sign * (sum a[s] t^s)(sum b[t] t^t), as a new dict.

    ``a`` and ``b`` are coefficient dicts {degree: nonzero GaussianRational}.
    Each term a[s] b[t] c(s, t) t^{s+t} is merged in the order of ``a``, then
    ``b``, and a sum that vanishes is dropped; ``sign`` (+1 or -1) is folded
    into the normal-ordering sign c(s, t).  The torus product and the matrix
    commutator both multiply coefficients here.
    """
    out = {}
    for s, c in a.items():
        for t, d in b.items():
            cd = c * d
            if structure_constant(s, t, q) != sign:
                cd = -cd
            key = tuple(map(add, s, t))
            v = out.get(key)
            v = cd if v is None else v + cd
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


class TorusElement:
    """Finite Q(i)-combination of monomials t^sigma, sigma in Z^nu."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q, coeffs=None):
        self.q = q
        clean = {}
        if coeffs:
            for sigma, c in coeffs.items():
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c)
                if c:
                    clean[tuple(sigma)] = c
        self.coeffs = clean

    @classmethod
    def wrap(cls, q, coeffs):
        """The element whose coefficient dict is ``coeffs`` itself (tuple keys, nonzero values)."""
        r = object.__new__(cls)
        r.q = q
        r.coeffs = coeffs
        return r

    @classmethod
    def zero(cls, q):
        return cls(q)

    @classmethod
    def one(cls, q):
        return cls(q, {q.zero(): GaussianRational(1)})

    @classmethod
    def monomial(cls, q, sigma, coeff=1):
        return cls(q, {tuple(sigma): coeff if isinstance(coeff, GaussianRational) else GaussianRational(coeff)})

    def _check_compat(self, other):
        if self.q != other.q:
            raise ValueError("mixing elements over different sign matrices")

    def __add__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_compat(other)
        return TorusElement.wrap(self.q, sparse_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TorusElement.wrap(self.q, {s: -c for s, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, TorusElement):
            self._check_compat(other)
            return TorusElement.wrap(self.q, coeff_product(self.coeffs, other.coeffs, self.q))
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._scale(other)
        return NotImplemented

    def _scale(self, scalar):
        if not isinstance(scalar, GaussianRational):
            scalar = GaussianRational(scalar)
        out = {s: c * scalar for s, c in self.coeffs.items()} if scalar else {}
        return TorusElement.wrap(self.q, out)

    def bar(self):
        """Semilinear conjugation fixing the generators."""
        q = self.q
        out = {}
        for s, c in self.coeffs.items():
            c = c.conjugate()
            if kappa(s, q) < 0:
                c = -c
            out[s] = c
        return TorusElement.wrap(q, out)

    def support(self):
        return tuple(sorted(self.coeffs))

    def coefficient(self, sigma):
        return self.coeffs.get(tuple(sigma), GaussianRational(0))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "TorusElement(0)"
        parts = " + ".join(f"({c.re}{'+' if c.im >= 0 else '-'}{abs(c.im)}i)*t^{s}" for s, c in sorted(self.coeffs.items()))
        return f"TorusElement({parts})"


def lattice_box(nu, bound):
    """All lattice points of Z^nu with max-norm <= bound, in lexicographic order."""
    out = [()]
    for _ in range(nu):
        out = [t + (v,) for t in out for v in range(-bound, bound + 1)]
    return out


def unit_degrees(nu):
    """Degree 0, then +e_i and -e_i for each i: the degrees that generate Z^nu."""
    out = [(0,) * nu]
    for i in range(nu):
        for sgn in (1, -1):
            d = [0] * nu
            d[i] = sgn
            out.append(tuple(d))
    return out


def epsilon(a):
    """Trace functional: real part of the degree-0 coefficient."""
    c = a.coeffs.get(a.q.zero())
    return c.re if c is not None else 0


def torus_form(a, b):
    """Symmetric pairing eps(a*b), computed without assembling the product.

    The value is an int when it is integral, otherwise a Fraction.
    """
    q = a.q
    acc = 0
    other = b.coeffs
    for s, c in a.coeffs.items():
        d = other.get(_neg(s))
        if d is None:
            continue
        term = c.re * d.re - c.im * d.im
        if term:
            if kappa(s, q) < 0:  # t^s t^{-s} = kappa(s)
                term = -term
            acc += term
    return rational(acc)
