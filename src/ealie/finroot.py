"""Finite root systems in explicit integer coordinates, plus root-string tools.

Every system is realized so that all root coordinates are integers and the
shortest nonzero roots have norm 1 (the bilinear form is a fixed rational
multiple of the dot product).  Zero is always treated as a member alongside
the nonzero roots.  Types E and F use coordinates scaled by 2 so half-integer
entries never appear.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

__all__ = [
    "Root",
    "RootStringError",
    "FiniteRootSystem",
    "build_finite_root_system",
    "components",
    "reflect_vec",
    "root_string",
]


@dataclass(frozen=True, order=True)
class Root:
    """A root of a lattice-graded decomposition: finite part plus lattice degree."""

    finite: tuple
    lattice: tuple

    def __neg__(self):
        return Root(tuple(-x for x in self.finite), tuple(-x for x in self.lattice))

    def __add__(self, other):
        return Root(
            tuple(a + b for a, b in zip(self.finite, other.finite)),
            tuple(a + b for a, b in zip(self.lattice, other.lattice)),
        )

    def __sub__(self, other):
        return self + (-other)

    def scale_add(self, n, other):
        """self + n*other, exact in integers."""
        return Root(
            tuple(a + n * b for a, b in zip(self.finite, other.finite)),
            tuple(a + n * b for a, b in zip(self.lattice, other.lattice)),
        )

    @property
    def is_zero(self):
        return not any(self.finite) and not any(self.lattice)


class RootStringError(ValueError):
    """A root string is broken, unbounded, or violates the length formula."""

    def __init__(self, beta, alpha, detail):
        super().__init__(f"root string through {beta} along {alpha}: {detail}")
        self.beta = beta
        self.alpha = alpha
        self.detail = detail


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def components(nodes, adjacent):
    """Connected components of ``nodes`` under ``adjacent``, each sorted.

    Components come in the order of their smallest node, so the first one holds
    the smallest node of all.
    """
    remaining = set(nodes)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            a = stack.pop()
            for b in sorted(remaining - comp):
                if adjacent(a, b):
                    comp.add(b)
                    stack.append(b)
        comps.append(sorted(comp))
        remaining -= comp
    return comps


def reflect_vec(beta, alpha, pairing):
    """Reflection w_alpha(beta) = beta - (2(beta,alpha)/(alpha,alpha)) alpha."""
    c = 2 * pairing(beta, alpha) / pairing(alpha, alpha)
    if c.denominator != 1:
        raise ValueError(f"non-integral reflection coefficient {c}")
    n = int(c)
    return tuple(b - n * a for b, a in zip(beta, alpha))


def root_string(beta, alpha, member, pairing, scan=6):
    """Verify the alpha-string through beta and return (d, u).

    The string {beta + n*alpha : -d <= n <= u} must be an unbroken interval
    within the scan range, must not re-enter after leaving, must not touch the
    scan boundary, and must satisfy d - u = 2(beta,alpha)/(alpha,alpha).
    ``member`` decides membership (zero must count as a member); raises
    RootStringError otherwise.
    """
    nn = pairing(alpha, alpha)
    if not nn:
        raise ValueError("string direction must be nonisotropic")
    c = 2 * pairing(beta, alpha) / nn
    if c.denominator != 1:
        raise RootStringError(beta, alpha, f"non-integral length difference {c}")
    c = int(c)
    hits = {}
    for n in range(-scan, scan + 1):
        shifted = tuple(b + n * a for b, a in zip(beta, alpha))
        hits[n] = bool(member(shifted))
    if not hits[0]:
        raise RootStringError(beta, alpha, "base point is not a member")
    u = 0
    while u < scan and hits[u + 1]:
        u += 1
    d = 0
    while d < scan and hits[-(d + 1)]:
        d += 1
    if u == scan or d == scan:
        raise RootStringError(beta, alpha, f"string reaches the scan bound {scan}")
    for n in range(-scan, scan + 1):
        if hits[n] and not (-d <= n <= u):
            raise RootStringError(beta, alpha, f"string re-enters at offset {n}")
    if d - u != c:
        raise RootStringError(beta, alpha, f"d - u = {d - u} but 2(beta,alpha)/(alpha,alpha) = {c}")
    return d, u


class FiniteRootSystem:
    """A finite root system given by integer coordinates and a scaled dot form."""

    def __init__(self, label, rank, ambient_dim, scale, nonzero_roots):
        self.label = label
        self.rank = rank
        self.ambient_dim = ambient_dim
        self.scale = Fraction(scale)
        self.nonzero_roots = frozenset(nonzero_roots)
        self._zero = (0,) * ambient_dim
        self.simple_roots = self._extract_base()

    # -- form ------------------------------------------------------------

    def pairing(self, a, b):
        return self.scale * _dot(a, b)

    def norm(self, a):
        return self.pairing(a, a)

    def cartan_integer(self, beta, alpha):
        """2(beta,alpha)/(alpha,alpha), exact."""
        return 2 * self.pairing(beta, alpha) / self.norm(alpha)

    # -- membership ------------------------------------------------------

    @property
    def zero(self):
        return self._zero

    def contains(self, v):
        v = tuple(v)
        return v == self._zero or v in self.nonzero_roots

    def all_roots(self):
        return sorted(self.nonzero_roots) + [self._zero]

    # -- length classes ----------------------------------------------------

    def extra_roots(self):
        """Roots alpha with alpha/2 also a root (doubled class, empty unless type BC)."""
        out = set()
        for a in self.nonzero_roots:
            if all(x % 2 == 0 for x in a) and tuple(x // 2 for x in a) in self.nonzero_roots:
                out.add(a)
        return frozenset(out)

    def reduced_roots(self):
        """Nonzero roots alpha with alpha/2 not a root."""
        return self.nonzero_roots - self.extra_roots()

    def short_roots(self):
        red = self.reduced_roots()
        m = min(self.norm(a) for a in red)
        return frozenset(a for a in red if self.norm(a) == m)

    def long_roots(self):
        return self.reduced_roots() - self.short_roots()

    # -- reflections -------------------------------------------------------

    def reflect(self, alpha, beta):
        """w_alpha(beta)."""
        return reflect_vec(beta, alpha, self.pairing)

    def is_closed_under_reflections(self):
        for alpha in self.nonzero_roots:
            for beta in self.nonzero_roots:
                if self.reflect(alpha, beta) not in self.nonzero_roots:
                    return False
        return True

    def is_irreducible(self):
        return len(components(self.nonzero_roots, lambda a, b: bool(_dot(a, b)))) == 1

    def root_string(self, beta, alpha, scan=6):
        return root_string(beta, alpha, self.contains, self.pairing, scan=scan)

    # -- base and Cartan matrix ---------------------------------------------

    def _extract_base(self):
        """Simple roots of the reduced part: positives indecomposable into two positives.

        Positivity comes from a lexicographic-style functional that weights
        earlier coordinates heaviest; for the classical families this yields
        the standard base ordering (for type C: e1-e2, ..., e_{l-1}-e_l, 2e_l).
        """
        weights = [1000 ** (self.ambient_dim - 1 - i) for i in range(self.ambient_dim)]
        phi = lambda v: _dot(v, weights)
        reduced = self.reduced_roots()
        positive = {a for a in reduced if phi(a) > 0}
        simple = []
        for a in positive:
            if not any(tuple(x - y for x, y in zip(a, b)) in positive for b in positive if b != a):
                simple.append(a)
        simple.sort(key=phi, reverse=True)
        return tuple(simple)

    def cartan_matrix(self):
        """M[i][j] = 2(a_i, a_j)/(a_j, a_j) over the simple roots, integer entries."""
        out = []
        for a in self.simple_roots:
            row = []
            for b in self.simple_roots:
                c = self.cartan_integer(a, b)
                if c.denominator != 1:
                    raise ValueError("non-integral Cartan entry")
                row.append(int(c))
            out.append(row)
        return out

    def __repr__(self):
        return f"FiniteRootSystem({self.label}{self.rank}, {len(self.nonzero_roots)} nonzero roots)"


def _unit(dim, i, value=1):
    v = [0] * dim
    v[i] = value
    return tuple(v)


def _type_a(rank):
    dim = rank + 1
    roots = set()
    for i in range(dim):
        for j in range(dim):
            if i != j:
                v = [0] * dim
                v[i], v[j] = 1, -1
                roots.add(tuple(v))
    return dim, Fraction(1, 2), roots


def _pm_pairs(dim, i, j):
    out = []
    for si in (1, -1):
        for sj in (1, -1):
            v = [0] * dim
            v[i], v[j] = si, sj
            out.append(tuple(v))
    return out


def _type_b(rank):
    roots = set()
    for i in range(rank):
        roots.add(_unit(rank, i, 1))
        roots.add(_unit(rank, i, -1))
    for i, j in combinations(range(rank), 2):
        roots.update(_pm_pairs(rank, i, j))
    return rank, Fraction(1), roots


def _type_c(rank):
    roots = set()
    for i in range(rank):
        roots.add(_unit(rank, i, 2))
        roots.add(_unit(rank, i, -2))
    for i, j in combinations(range(rank), 2):
        roots.update(_pm_pairs(rank, i, j))
    return rank, Fraction(1, 2), roots


def _type_d(rank):
    roots = set()
    for i, j in combinations(range(rank), 2):
        roots.update(_pm_pairs(rank, i, j))
    return rank, Fraction(1, 2), roots


def _type_bc(rank):
    roots = set()
    for i in range(rank):
        for v in (1, -1, 2, -2):
            roots.add(_unit(rank, i, v))
    for i, j in combinations(range(rank), 2):
        roots.update(_pm_pairs(rank, i, j))
    return rank, Fraction(1), roots


def _type_g2():
    roots = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                v = [0, 0, 0]
                v[i], v[j] = 1, -1
                roots.add(tuple(v))
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        v = [0, 0, 0]
        v[i], v[j], v[k] = 2, -1, -1
        roots.add(tuple(v))
        roots.add(tuple(-x for x in v))
    return 3, Fraction(1, 2), roots


def _type_f4():
    roots = set()
    for i in range(4):
        roots.add(_unit(4, i, 2))
        roots.add(_unit(4, i, -2))
    for i, j in combinations(range(4), 2):
        for si in (2, -2):
            for sj in (2, -2):
                v = [0] * 4
                v[i], v[j] = si, sj
                roots.add(tuple(v))
    for signs in product((1, -1), repeat=4):
        roots.add(signs)
    return 4, Fraction(1, 4), roots


def _e8_roots():
    roots = set()
    for i, j in combinations(range(8), 2):
        for si in (2, -2):
            for sj in (2, -2):
                v = [0] * 8
                v[i], v[j] = si, sj
                roots.add(tuple(v))
    for signs in product((1, -1), repeat=8):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            roots.add(signs)
    return roots


def _type_e(rank):
    roots = _e8_roots()
    if rank == 8:
        return 8, Fraction(1, 8), roots
    if rank == 7:
        return 8, Fraction(1, 8), {a for a in roots if a[6] + a[7] == 0}
    if rank == 6:
        return 8, Fraction(1, 8), {a for a in roots if a[6] + a[7] == 0 and a[5] == a[6]}
    raise ValueError("type E rank must be 6, 7 or 8")


def build_finite_root_system(label, rank):
    """Construct the root system of the given type and rank."""
    label = label.upper()
    if label == "A" and rank >= 1:
        dim, scale, roots = _type_a(rank)
    elif label == "B" and rank >= 2:
        dim, scale, roots = _type_b(rank)
    elif label == "C" and rank >= 2:
        dim, scale, roots = _type_c(rank)
    elif label == "D" and rank >= 3:
        dim, scale, roots = _type_d(rank)
    elif label == "BC" and rank >= 1:
        dim, scale, roots = _type_bc(rank)
    elif label == "G":
        if rank != 2:
            raise ValueError("type G rank must be 2")
        dim, scale, roots = _type_g2()
    elif label == "F":
        if rank != 4:
            raise ValueError("type F rank must be 4")
        dim, scale, roots = _type_f4()
    elif label == "E":
        dim, scale, roots = _type_e(rank)
    else:
        raise ValueError(f"unsupported root system type {label}{rank}")
    return FiniteRootSystem(label, rank, dim, scale, roots)
