"""Sparse coefficient dictionaries and the sparse 2l x 2l matrix built on them.

A sparse dictionary maps keys to nonzero coefficients of any ring type.
Every sum here keeps one insertion order: copy the left operand, merge the
right one in its own order, drop sums that vanish.  Coordinates and basis
choices follow that order, so report bytes depend on it.  The matrix
commutator of both matrix rings (torus and square-root entries) is one kernel
here, ``sparse_commutator``, parametrized by the ring's coefficient product.
"""

__all__ = ["SparseMatrix", "sparse_add", "sparse_commutator", "sparse_iadd", "sparse_trace_pairing"]


def sparse_iadd(out, b):
    """out += b in place: merge ``b`` in its order, drop zero sums; returns ``out``."""
    for key, val in b.items():
        cur = out.get(key)
        cur = val if cur is None else cur + val
        if cur:
            out[key] = cur
        elif key in out:
            del out[key]
    return out


def sparse_add(a, b):
    """a + b: copy ``a``, merge ``b`` in its order, drop zero sums."""
    return sparse_iadd(dict(a), b)


def _signed_product(a, b, product, ctx, sign):
    """sign * (a b) for matrix entry dicts, as {(row, col): coefficient dict}."""
    rows = {}
    for (k, col), val in b.items():
        rows.setdefault(k, []).append((col, val.coeffs))
    out = {}
    for (row, k), val in a.items():
        xc = val.coeffs
        for col, yc in rows.get(k, ()):
            v = product(xc, yc, sign) if ctx is None else product(xc, yc, ctx, sign)
            if v:
                key = (row, col)
                cur = out.get(key)
                if cur is None:
                    out[key] = v
                elif not sparse_iadd(cur, v):
                    del out[key]
    return out


def sparse_commutator(a, b, product, ctx=None):
    """a b - b a for matrix entry dicts, as {(row, col): coefficient dict}.

    Entries of ``a`` and ``b`` carry their coefficient dicts as ``.coeffs``.
    ``product(xc, yc, sign)``, or ``product(xc, yc, ctx, sign)`` when the ring
    passes a ``ctx`` (the torus passes its sign matrix), is the ring's
    coefficient product with the sign (+1 or -1) folded in, returning a new
    dict; ``ctx`` is passed through rather than bound in a closure, which would
    cost a call per product.

    No intermediate matrix, negated copy or per-product element is built, yet
    the entries and their coefficients come out in exactly the order of
    ``(x @ y) - (y @ x)``: b a is accumulated apart, then merged into a b in its
    own order.  The ring wraps each coefficient dict back into an element.
    """
    out = _signed_product(a, b, product, ctx, 1)
    for key, coeffs in _signed_product(b, a, product, ctx, -1).items():
        cur = out.get(key)
        if cur is None:
            out[key] = coeffs
        elif not sparse_iadd(cur, coeffs):
            del out[key]
    return out


def sparse_trace_pairing(a, b, pair):
    """Sum of pair(a[p, k], b[k, p]): the trace of ``a b`` under a rational coefficient pairing.

    Sums in whatever rationals ``pair`` returns, so a sum of ints stays an int.
    """
    acc = 0
    for (p, k), x in a.items():
        y = b.get((k, p))
        if y is not None:
            acc += pair(x, y)
    return acc


class SparseMatrix:
    """Sparse 2l x 2l matrix {(row, col): nonzero entry} over a coefficient ring.

    ``shape`` is what two operands must share (compared by ``==``).  Subclasses
    fix the ring, set ``shape`` and ``entries`` in their constructor, and define:

    - ``_with(entries)``: a matrix of the same shape holding zero-free ``entries``;
    - ``_scalar(x)``: ``x`` coerced to a scalar of the ring, or None to refuse it.
    """

    __slots__ = ("shape", "entries")

    @staticmethod
    def _nonzero(entries):
        return {pos: val for pos, val in entries.items() if val} if entries else {}

    def _check_compat(self, other):
        if self.shape != other.shape:
            raise ValueError("mixing matrices of different shapes or sign matrices")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compat(other)
        return self._with(sparse_add(self.entries, other.entries))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._with({pos: -val for pos, val in self.entries.items()})

    def __mul__(self, scalar):
        scalar = self._scalar(scalar)
        if scalar is None:
            return NotImplemented
        out = {}
        for pos, val in self.entries.items():
            v = val * scalar
            if v:
                out[pos] = v
        return self._with(out)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compat(other)
        rows = {}
        for (k, col), val in other.entries.items():
            rows.setdefault(k, []).append((col, val))
        out = {}
        for (row, k), x in self.entries.items():
            for col, y in rows.get(k, ()):
                v = x * y
                if not v:
                    continue
                key = (row, col)
                cur = out.get(key)
                cur = v if cur is None else cur + v
                if cur:
                    out[key] = cur
                elif key in out:
                    del out[key]
        return self._with(out)

    def reflect(self, moves):
        """P x P^-1 for the signed permutation P e_j = s_j e_pi(j) given as
        ``moves[j] = (pi(j), s_j)`` (``FiniteRootSystem.simple_reflections``):
        entry (a, b) moves to (pi(a), pi(b)), negated where s_a != s_b.  A
        reindex: no coefficient is multiplied."""
        out = {}
        for (a, b), val in self.entries.items():
            (pa, sa), (pb, sb) = moves[a], moves[b]
            out[pa, pb] = val if sa == sb else -val
        return self._with(out)

    def is_zero(self):
        return not self.entries

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __repr__(self):
        name = type(self).__name__
        if not self.entries:
            return f"{name}(0)"
        parts = ", ".join(f"{pos}: {val!r}" for pos, val in sorted(self.entries.items()))
        return f"{name}({{{parts}}})"
