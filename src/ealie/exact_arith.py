"""Exact scalar domains: Gaussian rationals and real square-root extensions of Q.

GaussianRational is the coefficient field Q(i) used by the twisted-torus
coefficient algebra.  SqrtFieldElement models the subfield of R spanned over Q
by square roots of square-free positive integers; products never need integer
factorization beyond a gcd because square-free labels multiply by
sqrt(a)*sqrt(b) = g*sqrt((a/g)*(b/g)) with g = gcd(a, b).  Both store their
rationals int-first (see ``rational``).
"""

from fractions import Fraction
from math import gcd, prod

from .linalg import solve_dense
from .sparse import sparse_add

__all__ = [
    "GaussianRational",
    "SqrtFieldElement",
    "is_square_free",
    "prime_factors",
    "rational",
    "sqrt_coeff_product",
    "sqrt_pairing",
    "square_free_products",
]

def rational(v):
    """v as an int when it is integral, otherwise as a Fraction (never a float)."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class GaussianRational:
    """A number re + im*i with rational re, im.

    Each component is stored canonically: an ``int`` when it is integral,
    otherwise a ``Fraction``.  Almost every coefficient of the torus
    constructions is a Gaussian integer, so the common case stays in machine
    integers; ``/`` goes through ``Fraction`` so no component is ever a float.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else rational(re)
        self.im = im if type(im) is int else rational(im)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return None

    def __add__(self, other):
        if type(other) is int:
            return GaussianRational(self.re + other, self.im)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return GaussianRational(self.re - other, self.im)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        if type(other) is int:
            return GaussianRational(other - self.re, -self.im)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussianRational(a * c - b * d, a * d + b * c)
        if type(other) is int:
            return GaussianRational(self.re * other, self.im * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            Fraction(self.re * o.re + self.im * o.im, n),
            Fraction(self.im * o.re - self.re * o.im, n),
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def is_zero(self):
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if type(other) is int:
            return not self.im and self.re == other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({Fraction(self.re)!r}, {Fraction(self.im)!r})"


def is_square_free(n):
    """True when n >= 1 and no prime square divides n."""
    return n >= 1 and prod(prime_factors(n)) == n


def prime_factors(n):
    """The distinct prime factors of n, ascending; empty when n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        else:
            p += 1
    if n > 1:
        out.append(n)
    return out


def square_free_products(primes):
    """Every product of a subset of ``primes`` (distinct primes), ascending; 1 is the empty product."""
    out = [1]
    for p in primes:
        out = out + [b * p for b in out]
    return sorted(out)


def sqrt_coeff_product(a, b, sign=1):
    """Coefficients of sign * (sum a[x] sqrt(x))(sum b[y] sqrt(y)), as a new dict.

    ``a`` and ``b`` are coefficient dicts {square-free label: nonzero rational}.
    Each term a[x] b[y] g sqrt((x/g)(y/g)), g = gcd(x, y), is merged in the
    order of ``a``, then ``b``, and a sum that vanishes is dropped; ``sign``
    (+1 or -1) is folded into each term.  Values are exact but may be integral
    Fractions: ``SqrtFieldElement.wrap`` makes them int-first.  The field
    product and the matrix commutator both multiply coefficients here.
    """
    out = {}
    for x, c in a.items():
        if sign < 0:
            c = -c
        for y, d in b.items():
            g = gcd(x, y)
            key = (x // g) * (y // g)
            v = c * d * g
            cur = out.get(key)
            if cur is not None:
                v += cur
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


class SqrtFieldElement:
    """Element of Q(sqrt(p) : p prime), stored as {square-free label: coefficient}.

    The label a stands for sqrt(a); label 1 is the rational part.  Supports of
    all elements stay square-free under the gcd product rule, so no
    factorization is ever required for arithmetic (only for inverses, which
    factor the support labels to enumerate the subfield they generate).  Like
    ``GaussianRational``, each coefficient is stored int-first: an ``int`` when
    it is integral, otherwise a ``Fraction``; ``/`` goes through ``Fraction``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for a, c in coeffs.items():
                c = rational(c)
                if not c:
                    continue
                if not is_square_free(a):
                    raise ValueError(f"label {a} is not a square-free positive integer")
                clean[a] = c
        self.coeffs = clean

    @classmethod
    def wrap(cls, coeffs):
        """The element whose coefficient dict is ``coeffs`` itself (square-free labels, nonzero values).

        Integral ``Fraction`` values are made ``int`` in place, so the products and
        sums that build ``coeffs`` need not keep their values canonical.
        """
        for a, c in coeffs.items():
            if type(c) is not int and c.denominator == 1:
                coeffs[a] = c.numerator
        r = object.__new__(cls)
        r.coeffs = coeffs
        return r

    @classmethod
    def from_rational(cls, x):
        return cls({1: x})

    @classmethod
    def sqrt(cls, a):
        if not is_square_free(a):
            raise ValueError(f"sqrt label {a} must be a square-free positive integer")
        return cls.wrap({a: 1})

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, SqrtFieldElement):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtFieldElement.wrap(sparse_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return SqrtFieldElement.wrap({a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtFieldElement.wrap(sqrt_coeff_product(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via a multiplication-matrix solve.

        The support labels generate a finite-degree subfield with basis all
        square-free products of their prime factors; invert the "multiply by
        self" matrix on that basis.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero")
        if set(self.coeffs) == {1}:
            return SqrtFieldElement({1: Fraction(1) / self.coeffs[1]})
        basis = square_free_products({p for a in self.coeffs for p in prime_factors(a)})
        index = {a: i for i, a in enumerate(basis)}
        n = len(basis)
        cols = []
        for b in basis:
            col = [0] * n
            prod = self * SqrtFieldElement.sqrt(b)
            for a, c in prod.coeffs.items():
                col[index[a]] = c
            cols.append(col)
        a_rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        rhs = [0] * n
        rhs[index[1]] = 1
        x = solve_dense(a_rows, rhs)
        if x is None:  # unreachable: nonzero field elements are invertible
            raise ZeroDivisionError("singular multiplication matrix")
        return SqrtFieldElement({basis[j]: x[j] for j in range(n)})

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def rational_part(self):
        """Coefficient of the label 1."""
        return self.coeffs.get(1, 0)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "SqrtFieldElement({})"
        parts = ", ".join(f"{a}: {c}" for a, c in sorted(self.coeffs.items()))
        return f"SqrtFieldElement({{{parts}}})"


def sqrt_pairing(u, v):
    """Symmetric Q-bilinear pairing with sqrt(a) ~ sqrt(b) equal to a if a == b else 0.

    Equals the rational part of u*v, computed without assembling the product:
    distinct square-free labels multiply into a non-rational label, equal labels
    multiply to the integer a.  The value is an int when it is integral,
    otherwise a Fraction.
    """
    other = v.coeffs
    acc = 0
    for a, c in u.coeffs.items():
        d = other.get(a)
        if d is not None:
            acc += c * d * a
    return rational(acc)
