"""Exact linear algebra over the rationals, backed by the integer kernel.

Vectors come in two shapes here: dense rows (lists of Fraction/int) and sparse
dicts keyed by hashable, mutually comparable coordinate labels.  All routines
are deterministic: dict vectors are processed in sorted key order, pivots are
the first nonzero candidates.
"""

from fractions import Fraction
from math import gcd, lcm

from .kernel import int_echelon, int_rank

__all__ = [
    "clear_row",
    "rows_rank",
    "det",
    "solve_dense",
    "nullspace_dense",
    "solve_combination",
    "relations",
    "SpanDict",
    "span_equal",
    "gram_nonsingular",
    "gram_positive_definite",
    "integer_lattice_basis",
    "integer_lattice_member",
]


def clear_row(row):
    """Scale a row of Fractions/ints to a primitive integer row (sign kept)."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            den = lcm(den, x.denominator)
    out = []
    for x in row:
        v = x * den
        out.append(int(v))
    g = 0
    for v in out:
        if v:
            g = gcd(g, abs(v))
            if g == 1:
                return out
    if g > 1:
        out = [v // g for v in out]
    return out


def rows_rank(rows):
    """Rank of a matrix given as a list of Fraction/int rows."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    return int_rank([clear_row(r) for r in rows], ncols)


def det(rows):
    """Determinant by exact Gaussian elimination with partial pivoting."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if a[r][col]), None)
        if sel is None:
            return Fraction(0)
        if sel != col:
            a[col], a[sel] = a[sel], a[col]
            sign = -sign
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                for j in range(col, n):
                    a[r][j] -= f * a[col][j]
    return sign * result


def solve_dense(a_rows, b):
    """Solve A x = b exactly; returns x (free variables 0) or None if inconsistent.

    A is a list of m rows of length n; b has length m.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [clear_row(list(a_rows[i]) + [b[i]]) for i in range(m)]
    work, pivots = int_echelon(aug, n + 1, pivot_limit=n)
    for r in range(len(pivots), m):
        row = work[r]
        if any(row[:n]):  # unreachable: rows past the pivots are zero in A-columns
            raise AssertionError("echelon invariant violated")
        if row[n]:
            return None
    x = [Fraction(0)] * n
    for r in range(len(pivots) - 1, -1, -1):
        row = work[r]
        pc = pivots[r]
        acc = Fraction(row[n])
        for j in range(pc + 1, n):
            if row[j]:
                acc -= row[j] * x[j]
        x[pc] = acc / row[pc]
    return x


def nullspace_dense(a_rows, ncols):
    """Basis of the right nullspace {x : A x = 0}, one vector per free column."""
    rows = [clear_row(r) for r in a_rows if any(r)]
    work, pivots = int_echelon(rows, ncols) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            row = work[r]
            pc = pivots[r]
            acc = Fraction(0)
            for j in range(pc + 1, ncols):
                if row[j] and x[j]:
                    acc -= row[j] * x[j]
            x[pc] = acc / row[pc]
        basis.append(x)
    return basis


def _key_union(vecs, extra=()):
    keys = set()
    for v in vecs:
        keys.update(v)
    for v in extra:
        keys.update(v)
    return sorted(keys)


def solve_combination(vecs, target):
    """Coefficients c with sum(c_j * vecs[j]) == target, or None.

    Vectors are sparse dicts; the key set is the union of all supports.
    """
    if not vecs:
        return [] if not any(target.values()) else None
    keys = _key_union(vecs, extra=(target,))
    a_rows = [[v.get(k, 0) for v in vecs] for k in keys]
    b = [target.get(k, 0) for k in keys]
    return solve_dense(a_rows, b)


def relations(vecs):
    """Basis of {c : sum(c_j * vecs[j]) == 0} for sparse dict vectors."""
    if not vecs:
        return []
    keys = _key_union(vecs)
    if not keys:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(len(vecs))]
                for i in range(len(vecs))]
    a_rows = [[v.get(k, 0) for v in vecs] for k in keys]
    return nullspace_dense(a_rows, len(vecs))


class SpanDict:
    """Incremental exact span of sparse dict vectors.

    Maintains an integer echelon basis keyed by pivot (the smallest key of each
    stored row).  Supports membership tests, dimension queries and subspace
    comparison; all vectors must use mutually comparable keys.
    """

    __slots__ = ("_rows",)

    def __init__(self, vecs=()):
        self._rows = {}
        for v in vecs:
            self.add(v)

    @staticmethod
    def _to_int_row(v):
        den = 1
        for x in v.values():
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        w = {}
        for k, x in v.items():
            n = int(x * den)
            if n:
                w[k] = n
        return w

    @staticmethod
    def _primitive(w):
        g = 0
        for v in w.values():
            g = gcd(g, abs(v))
            if g == 1:
                return w
        if g > 1:
            return {k: v // g for k, v in w.items()}
        return w

    def _reduce(self, v):
        w = self._to_int_row(v)
        while w:
            k = min(w)
            row = self._rows.get(k)
            if row is None:
                return w
            p = row[k]
            c = w[k]
            new = {kk: vv * p for kk, vv in w.items()}
            for kk, vv in row.items():
                nv = new.get(kk, 0) - vv * c
                if nv:
                    new[kk] = nv
                elif kk in new:
                    del new[kk]
            w = self._primitive(new)
        return w

    def add(self, v):
        """Add a vector; True if the dimension grew."""
        w = self._reduce(v)
        if not w:
            return False
        k = min(w)
        if w[k] < 0:
            w = {kk: -vv for kk, vv in w.items()}
        self._rows[k] = w
        return True

    def contains(self, v):
        return not self._reduce(v)

    @property
    def dim(self):
        return len(self._rows)

    def issubspace_of(self, other):
        return all(other.contains(row) for row in self._rows.values())


def span_equal(a, b):
    """Exact equality of two SpanDict subspaces."""
    return a.dim == b.dim and a.issubspace_of(b)


def gram_nonsingular(gram):
    """True when a square Fraction matrix has full rank."""
    return rows_rank(gram) == len(gram)


def gram_positive_definite(gram):
    """Sylvester test: all leading principal minors strictly positive."""
    n = len(gram)
    for k in range(1, n + 1):
        if det([row[:k] for row in gram[:k]]) <= 0:
            return False
    return True


def integer_lattice_basis(rows):
    """Echelon basis of the subgroup of Z^n generated by integer rows.

    Unimodular row operations only (no gcd scaling), so the Z-span is
    preserved; rows come back in staircase form with positive pivots.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    fixed = 0
    for col in range(ncols):
        while True:
            piv = None
            for i in range(fixed, len(work)):
                if work[i][col] and (piv is None or abs(work[i][col]) < abs(work[piv][col])):
                    piv = i
            if piv is None:
                break
            work[fixed], work[piv] = work[piv], work[fixed]
            p = work[fixed][col]
            settled = True
            for i in range(fixed + 1, len(work)):
                if work[i][col]:
                    m = work[i][col] // p
                    work[i] = [a - m * b for a, b in zip(work[i], work[fixed])]
                    if work[i][col]:
                        settled = False
            if settled:
                if p < 0:
                    work[fixed] = [-a for a in work[fixed]]
                fixed += 1
                break
    return work[:fixed]


def integer_lattice_member(basis, v):
    """Whether integer vector v lies in the Z-span of a staircase basis."""
    v = list(v)
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)
        if v[col] % row[col]:
            return False
        m = v[col] // row[col]
        if m:
            v = [a - m * b for a, b in zip(v, row)]
    return not any(v)
