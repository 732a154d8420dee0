"""Integer kernels: sign cocycles and fraction-free integer elimination.

Everything here is exact integer arithmetic.  The sign kernels take a
``SignMatrix`` q of rank ``nu``: symmetric, entries +-1, unit diagonal.
Exponents only matter mod 2 because every q entry squares to 1.
"""

from math import gcd

__all__ = ["g_cocycle", "kappa", "structure_constant", "int_echelon", "int_rank"]


def g_cocycle(sigma, tau, q):
    """Bilinear sign g(sigma, tau): product of q[i][j]**(sigma[i]*tau[j]) over i<j."""
    nu = q.nu
    flat = q.flat
    s = 1
    for i in range(nu - 1):
        if sigma[i] & 1 == 0:
            continue
        base = i * nu
        for j in range(i + 1, nu):
            if tau[j] & 1 and flat[base + j] < 0:
                s = -s
    return s


def kappa(sigma, q):
    """Self-commutation sign kappa(sigma) = g(sigma, sigma).

    t^sigma t^{-sigma} = kappa(sigma), and bar(t^sigma) = kappa(sigma) t^sigma.
    """
    return g_cocycle(sigma, sigma, q)


def structure_constant(sigma, tau, q):
    """Normal-ordering sign c(sigma, tau) = g(tau, sigma): t^sigma t^tau = c t^{sigma+tau}.

    Collecting t^sigma t^tau into the canonical generator order moves tau's i-th
    generator block past sigma's j-th block once per crossing pair (i < j), and
    each crossing contributes one factor q[i][j]: the product of
    q[i][j]**(tau[i]*sigma[j]) over i<j.
    """
    return g_cocycle(tau, sigma, q)


def _row_gcd(row, start, ncols):
    g = 0
    for j in range(start, ncols):
        v = row[j]
        if v:
            g = gcd(g, v if v > 0 else -v)
            if g == 1:
                return 1
    return g


def int_echelon(rows, ncols):
    """Fraction-free row echelon form of an integer matrix.

    Returns ``(work, pivots)`` where ``work`` is a new list of rows (input rows
    are not mutated) and ``pivots`` the pivot column indices in order.  Each
    row is divided by its content and pivot entries are normalized positive,
    which keeps entry growth polynomial.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots = []
    pr = 0
    for col in range(ncols):
        if pr == nrows:
            break
        sel = -1
        for r in range(pr, nrows):
            if work[r][col]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != pr:
            work[pr], work[sel] = work[sel], work[pr]
        piv = work[pr]
        if piv[col] < 0:
            for j in range(col, ncols):
                piv[j] = -piv[j]
        g = _row_gcd(piv, col, ncols)
        if g > 1:
            for j in range(col, ncols):
                piv[j] //= g
        p = piv[col]
        for r in range(pr + 1, nrows):
            row = work[r]
            v = row[col]
            if v:
                for j in range(col, ncols):
                    row[j] = row[j] * p - piv[j] * v
                g = _row_gcd(row, col, ncols)
                if g > 1:
                    for j in range(col, ncols):
                        row[j] //= g
        pivots.append(col)
        pr += 1
    return work, pivots


def int_rank(rows, ncols):
    """Rank of an integer matrix over the rationals."""
    return len(int_echelon(rows, ncols)[1])
