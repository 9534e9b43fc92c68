"""Small exact linear algebra over the rationals.

The solvers reduce their pole-order constraints to null spaces of modest
matrices (tens of rows/columns) with exact rational entries, so plain
Gauss–Jordan elimination over the coefficient field is both simplest and
fully rigorous.
"""

from __future__ import annotations

from .qseries import rational

_ZERO = rational(0)
_ONE = rational(1)


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def kernel_basis(rows: list[list], ncols: int) -> list[list]:
    """Basis of {x : A x = 0} for A given as a list of length-ncols rows."""
    if not rows:
        return [[_ONE if i == j else _ZERO for i in range(ncols)] for j in range(ncols)]
    m, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def primitive_integer_vector(v: list) -> list[int]:
    """Scale a rational vector to coprime integers, keeping its direction."""
    from math import gcd

    den = 1
    for x in v:
        d = int(rational(x).denominator)
        den = den // gcd(den, d) * d
    ints = [int(rational(x).numerator) * (den // int(rational(x).denominator)) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints
