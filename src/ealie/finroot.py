"""The finite root system C_l in explicit integer coordinates, plus root-string tools.

Every construction is built from symplectic 2l x 2l matrices, so C_l is the
only finite type realized.  Its roots have integer coordinates and the
shortest nonzero roots have norm 1 (the bilinear form is half the dot
product).  Zero is always treated as a member alongside the nonzero roots.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import NamedTuple

# Offsets -STRING_SCAN..STRING_SCAN along alpha that a root string is probed at;
# a string reaching either end is reported as unbounded.
STRING_SCAN = 6

__all__ = [
    "Root",
    "RootStringError",
    "FiniteRootSystem",
    "components",
    "reflect_weight",
    "root_string",
]


class Root(NamedTuple):
    """A root of a lattice-graded decomposition: finite part plus lattice degree.

    A named pair, so hashing, equality and order run as the tuple's
    ``(finite, lattice)``.
    """

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


def root_string(beta, alpha, flags, c):
    """Verify the alpha-string through beta and return (d, u).

    ``flags[scan + n]`` is the membership of beta + n*alpha for -scan <= n <=
    scan, so a list of 2*scan + 1 flags (zero must count as a member).  The string
    {beta + n*alpha : -d <= n <= u} must be an unbroken interval within the
    scan range, must not re-enter after leaving, must not touch the scan
    boundary, and must satisfy d - u = c, where c is the exact Cartan number
    2(beta,alpha)/(alpha,alpha); raises RootStringError otherwise.
    """
    if c.denominator != 1:
        raise RootStringError(beta, alpha, f"non-integral length difference {c}")
    c = int(c)
    scan = len(flags) // 2
    if not flags[scan]:
        raise RootStringError(beta, alpha, "base point is not a member")
    u = 0
    while u < scan and flags[scan + u + 1]:
        u += 1
    d = 0
    while d < scan and flags[scan - d - 1]:
        d += 1
    if u == scan or d == scan:
        raise RootStringError(beta, alpha, f"string reaches the scan bound {scan}")
    for n in range(-scan, scan + 1):
        if flags[scan + n] and not (-d <= n <= u):
            raise RootStringError(beta, alpha, f"string re-enters at offset {n}")
    if d - u != c:
        raise RootStringError(beta, alpha, f"d - u = {d - u} but 2(beta,alpha)/(alpha,alpha) = {c}")
    return d, u


class FiniteRootSystem:
    """The root system C_rank: long roots +-2e_i, short roots +-e_i +- e_j.

    The form is half the dot product, so short roots have norm 1 and long
    roots norm 2.
    """

    label = "C"
    scale = Fraction(1, 2)

    def __init__(self, rank):
        if rank < 2:
            raise ValueError(f"type C rank must be >= 2, got {rank}")
        self.rank = rank
        self._zero = (0,) * rank
        self._long = frozenset(_vector(rank, {i: s}) for i in range(rank) for s in (2, -2))
        self._short = frozenset(
            _vector(rank, {i: si, j: sj})
            for i, j in combinations(range(rank), 2)
            for si in (1, -1)
            for sj in (1, -1)
        )
        self.nonzero_roots = self._long | self._short
        # the standard base e1-e2, ..., e_{l-1}-e_l, 2e_l; SERRE and the CON
        # samples read it in this order
        self.simple_roots = tuple(_vector(rank, {i: 1, i + 1: -1}) for i in range(rank - 1)) + (
            _vector(rank, {rank - 1: 2}),
        )

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

    # -- length classes ----------------------------------------------------

    def short_roots(self):
        return self._short

    def long_roots(self):
        return self._long

    # -- reflections -------------------------------------------------------

    def reflect(self, alpha, beta):
        """w_alpha(beta) = beta - (2(beta,alpha)/(alpha,alpha)) alpha."""
        c = self.cartan_integer(beta, alpha)
        if c.denominator != 1:
            raise ValueError(f"non-integral reflection coefficient {c}")
        n = int(c)
        return tuple(b - n * a for b, a in zip(beta, alpha))

    def simple_reflections(self):
        """The simple reflections of W(C_l), in the order of ``simple_roots``,
        as signed permutations of the 2l indices of the symplectic matrices:
        ``moves[j] = (pi(j), s_j)`` for the matrix P with P e_j = s_j e_pi(j).

        Index j < l carries the weight e_j and index l + j the weight -e_j.
        The reflection in e_i - e_(i+1) swaps i with i + 1 and l + i with
        l + i + 1; the one in 2e_l maps e_(l-1) to e_(2l-1) and e_(2l-1) to
        -e_(l-1), which keeps P symplectic.  Conjugation by P is the
        elements' ``reflect``; ``reflect_weight`` reads the weight action off
        the same table.  Built once per rank, at the first call.
        """
        return _simple_reflections(self.rank)

    def __repr__(self):
        return f"FiniteRootSystem({self.label}{self.rank}, {len(self.nonzero_roots)} nonzero roots)"


@cache
def _simple_reflections(ell):
    table = []
    for i in range(ell):
        moves = [(j, 1) for j in range(2 * ell)]
        if i < ell - 1:
            for a in (i, ell + i):
                moves[a], moves[a + 1] = (a + 1, 1), (a, 1)
        else:
            moves[i], moves[ell + i] = (ell + i, 1), (i, -1)
        table.append(tuple(moves))
    return tuple(table)


def reflect_weight(moves, weight):
    """The weight of P x P^-1 for x of the given weight, P the signed
    permutation ``moves`` (``FiniteRootSystem.simple_reflections``): the
    matrix unit e_ab has weight wt(a) - wt(b), and P moves it to e_pi(a)pi(b)."""
    ell = len(weight)
    out = [0] * ell
    for j, f in enumerate(weight):
        if f:
            target = moves[j][0]
            if target < ell:
                out[target] += f
            else:
                out[target - ell] -= f
    return tuple(out)


def _vector(dim, entries):
    """The integer vector of length ``dim`` with the given ``{index: value}`` entries."""
    v = [0] * dim
    for i, value in entries.items():
        v[i] = value
    return tuple(v)
