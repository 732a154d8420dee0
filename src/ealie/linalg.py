"""Exact linear algebra over the rationals, backed by the integer kernel.

Vectors come in two shapes here: dense rows (lists of Fraction/int) and sparse
dicts keyed by hashable, mutually comparable coordinate labels.  All routines
are deterministic.

Nullspaces are streamed: ``sparse_nullspace`` adds rows to a ``SpanDict``
echelon as they arrive and stops reading once it holds one pivot per column,
because the nullspace is then {0}.  Otherwise it returns, per free column, the
vector with that column 1 and every other free column 0.  Both the pivot
columns (the leading columns of the vectors in the row space) and each of these
vectors (the unique nullspace vector with the given free entries) are fixed by
the row space alone.  So the result does not depend on row order, and a
stopped read returns exactly what reading every row would.
"""

from fractions import Fraction
from math import gcd, lcm

from .kernel import int_echelon, int_rank

__all__ = [
    "clear_row",
    "rows_rank",
    "solve_dense",
    "nullspace_dense",
    "sparse_nullspace",
    "solve_combination",
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
    return _back_substitute(work, pivots, [Fraction(0)] * n, [row[n] for row in work])


def nullspace_dense(a_rows, ncols):
    """Basis of the right nullspace {x : A x = 0}, one vector per free column."""
    return sparse_nullspace(({j: v for j, v in enumerate(row) if v} for row in a_rows), ncols)


def sparse_nullspace(rows, ncols):
    """Basis of {x : sum_j row[j] * x[j] == 0 for every row}, x of length ``ncols``.

    ``rows`` is any iterable of sparse rows {column: value} with columns in
    range(ncols); it is read only until the rows read have rank ``ncols``.  One
    Fraction vector per free column, in column order: that column 1, the other
    free columns 0, the pivot columns back-substituted.
    """
    span = SpanDict()
    if ncols:
        for row in rows:
            if span.add(row) and span.dim == ncols:
                return []
    echelon = sorted(span._rows.items(), reverse=True)
    basis = []
    for free in range(ncols):
        if free in span._rows:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for pc, row in echelon:
            acc = Fraction(0)
            for j, v in row.items():
                if j != pc and x[j]:
                    acc -= v * x[j]
            x[pc] = acc / row[pc]
        basis.append(x)
    return basis


def _back_substitute(work, pivots, x, rhs):
    """Fill the pivot entries of x from the echelon rows ``work``, last pivot first.

    Row r reads sum_j work[r][j] * x[j] = rhs[r] over the len(x) columns; the
    entries of x at non-pivot columns are the caller's and stay as given.
    """
    n = len(x)
    for r in range(len(pivots) - 1, -1, -1):
        row = work[r]
        pc = pivots[r]
        acc = Fraction(rhs[r])
        for j in range(pc + 1, n):
            if row[j] and x[j]:
                acc -= row[j] * x[j]
        x[pc] = acc / row[pc]
    return x


def solve_combination(vecs, target):
    """Coefficients c with sum(c_j * vecs[j]) == target, or None.

    Vectors are sparse dicts; the key set is the union of all supports.
    """
    if not vecs:
        return [] if not any(target.values()) else None
    keys = sorted({k for v in (*vecs, target) for k in v})
    a_rows = [[v.get(k, 0) for v in vecs] for k in keys]
    b = [target.get(k, 0) for k in keys]
    return solve_dense(a_rows, b)


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
    """True when a symmetric Fraction matrix is positive definite.

    Symmetric elimination without row exchanges: the k-th pivot is the ratio
    of the k-th to the (k-1)-th leading principal minor, so every pivot is
    positive exactly when every leading minor is (Sylvester's criterion).
    """
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
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
