"""Exact linear algebra over the rationals on one sparse echelon, ``SpanDict``.

Vectors are sparse dicts keyed by hashable coordinate labels; a dense row is
read as the dict {column: value}.  ``SpanDict`` keeps an integer echelon whose
pivot is the smallest key of each row, and every rational rank, solve and
nullspace here is read off it.  All routines are deterministic.

The pivot columns (the leading columns of the vectors in the row space) are
fixed by the row space alone, and so is each vector ``_pinned`` builds: the
unique solution with one chosen column 1 and every other non-pivot column 0.
A solve pins the right-hand side column and a nullspace pins each free column
in turn, so neither depends on row order.  Nullspaces are streamed:
``sparse_nullspace`` stops reading rows once the echelon holds one pivot per
column, because the nullspace is then {0}, and a stopped read returns exactly
what reading every row would.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "solve_sparse",
    "solve_dense",
    "nullspace_dense",
    "sparse_nullspace",
    "rows_by_key",
    "solve_combination",
    "SpanDict",
    "span_equal",
    "gram_nonsingular",
    "gram_positive_definite",
    "integer_lattice_basis",
    "integer_lattice_member",
]


def _pinned(echelon, ncols, col):
    """The vector x of length ``ncols`` in the nullspace of the ``echelon``
    rows with x[col] = 1 and every other non-pivot column 0.

    ``echelon`` holds a ``SpanDict``'s (pivot, row) pairs, last pivot first,
    and ``col`` is not a pivot.  A row's other columns all exceed its pivot,
    so they are set before its pivot column is solved from it.
    """
    x = [Fraction(0)] * ncols
    x[col] = Fraction(1)
    for pc, row in echelon:
        acc = Fraction(0)  # x[pc] is still 0, so the pivot term drops out
        for j, v in row.items():
            if x[j]:
                acc -= v * x[j]
        x[pc] = acc / row[pc]
    return x


def solve_sparse(rows, n):
    """Solve sum_{j < n} row[j] * x[j] + row[n] == 0 for every sparse row.

    ``rows`` are dicts {column: value} with columns in range(n + 1); column n
    holds minus the right-hand side.  Returns x (free columns 0) as n
    Fractions, or None when the system is inconsistent, that is, when column
    n is a pivot.
    """
    span = SpanDict(rows)
    if n in span._rows:
        return None
    return _pinned(sorted(span._rows.items(), reverse=True), n + 1, n)[:n]


def solve_dense(a_rows, b):
    """Solve A x = b exactly; returns x (free variables 0) or None if inconsistent.

    A is a list of m rows of length n; b has length m.
    """
    n = len(a_rows[0]) if a_rows else 0
    return solve_sparse((dict(enumerate((*row, -rhs))) for row, rhs in zip(a_rows, b)), n)


def nullspace_dense(a_rows, ncols):
    """Basis of the right nullspace {x : A x = 0}, one vector per free column."""
    return sparse_nullspace((dict(enumerate(row)) for row in a_rows), ncols)


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
    return [_pinned(echelon, ncols, free) for free in range(ncols) if free not in span._rows]


def rows_by_key(vecs):
    """The rows {j: vecs[j][key]} of the key x vector matrix, keyed by key."""
    rows = {}
    for j, v in enumerate(vecs):
        for key, val in v.items():
            rows.setdefault(key, {})[j] = val
    return rows


def solve_combination(vecs, target):
    """Coefficients c with sum(c_j * vecs[j]) == target, or None.

    Vectors are sparse dicts; one equation per key of their supports.
    """
    return solve_sparse(rows_by_key([*vecs, {k: -v for k, v in target.items()}]).values(), len(vecs))


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
        """v's nonzero entries times the least common denominator, as a new dict."""
        dens = [x.denominator for x in v.values() if type(x) is not int]
        if not dens:
            return {k: x for k, x in v.items() if x}
        den = lcm(*dens)
        return {k: x * den if type(x) is int else x.numerator * (den // x.denominator)
                for k, x in v.items() if x}

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
        """v's integer row with every stored pivot eliminated, made primitive.

        One step against the row at pivot k, with p = row[k] and c = w[k]
        divided by gcd(p, c), replaces w by p w - c row, whose k entry is 0
        and is popped rather than computed; w is scaled only when p != 1.
        The old step's vector is gcd(p, c) times this one, so the primitive
        rows kept are the same.
        """
        w = self._to_int_row(v)
        while w:
            k = min(w)
            row = self._rows.get(k)
            if row is None:
                return w
            p = row[k]
            c = w.pop(k)
            g = gcd(p, c)
            if g != 1:
                p //= g
                c //= g
            if p != 1:
                w = {kk: vv * p for kk, vv in w.items()}
            for kk, vv in row.items():
                if kk != k:
                    nv = w.get(kk, 0) - vv * c
                    if nv:
                        w[kk] = nv
                    else:
                        del w[kk]
            w = self._primitive(w)
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
    return SpanDict(dict(enumerate(row)) for row in gram).dim == len(gram)


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
