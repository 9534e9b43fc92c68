"""Pole-order solver scaffold shared by the plus and minus families.

This module owns one decision: how a pole-order system is solved and
normalised.  A family writes its seed as three polynomials in j over Δ^ℓ,
stacks their coefficients into one vector and pins it by homogeneous rows,
one per Laurent coefficient that must vanish.  Shared here: slot degrees and
the work window, the slot split and column combinations, the tight kernel
(dimension 1, primitive integers, first nonzero slot leading positive), the
relaxed kernel (dimension 2) and its origin-constrained combination, Δ^{−ℓ}
and the output window guard.  ``plus.py`` and ``minus.py`` keep their params
formulas, offset tables, columns, row targets, b₀ functionals and
certificates.
"""

from __future__ import annotations

from .forms import gen
from .linalg import kernel_basis, primitive_integer_vector
from .qseries import QSeries, rational


class BadDimension(ValueError):
    """Dimension outside the d ≡ 0 (mod 4), d ≥ 4 range."""


class NoSolution(RuntimeError):
    """The constraint system has unexpected rank; indicates a bug upstream."""


class ConstraintUnavailable(ValueError):
    """Origin constraint requested without the extra degree of freedom."""


def check_dimension(d: int) -> None:
    if d < 4 or d % 4:
        raise BadDimension(f"need d ≡ 0 (mod 4) and d ≥ 4, got {d}")


def degrees(params, offsets) -> tuple[int, int, int]:
    """Slot degrees n + offset; a negative degree is an empty slot."""
    return tuple(params.n + off for off in offsets[params.k])


def work_order(params, degs, n_trunc: int) -> int:
    """Internal expansion order: pole depths (j-powers, Δ^{-ℓ}) each eat
    window, so pad the requested order by the total possible loss."""
    return n_trunc + 2 * max(*degs, 0) + 2 * params.ell + 8


def j_powers(top: int, n_work: int) -> tuple:
    """1, j, …, j^top on the work window."""
    j = gen("J", n_work)
    jpow = [QSeries.one(2 * n_work)]
    for _ in range(top):
        jpow.append(jpow[-1] * j)
    return tuple(jpow)


def split(vec, degs):
    """The three slot polynomials (ascending coefficients) of a vector."""
    nx, ny, nz = (max(deg + 1, 0) for deg in degs)
    return tuple(vec[:nx]), tuple(vec[nx : nx + ny]), tuple(vec[nx + ny : nx + ny + nz])


def lincomb(coeffs, cols, fallback_t2: int, step: int = 2) -> QSeries:
    """Σ c_i·col_i, or the zero series on ``fallback_t2`` if every c_i is 0."""
    out = None
    for c, s in zip(coeffs, cols):
        if c:
            term = s.scale(c)
            out = term if out is None else out + term
    return QSeries.zero(fallback_t2, step) if out is None else out


def rows_below(cols, target2: int, step: int) -> list[list]:
    """One row [col.coef2(e2) for col in cols] per exponent e2 (in half-steps,
    advancing by ``step``) from the lowest column valuation up to target2."""
    lows = [v for c in cols if (v := c.valuation2()) is not None]
    return [[c.coef2(e2) for c in cols] for e2 in range(min(lows, default=target2), target2, step)]


def normalize(vec, degs) -> list:
    """Primitive integers with the leading (highest-degree) coefficient of the
    first nonzero slot positive."""
    ints = primitive_integer_vector(list(vec))
    for slot in split(ints, degs):
        lead = next((c for c in reversed(slot) if c), None)
        if lead is not None:
            return [rational(-x if lead < 0 else x) for x in ints]
    raise NoSolution("zero vector escaped the kernel computation")


def solve_system(params, degs, fixed_rows, cols, step: int, tight2: int, relaxed2: int):
    """Kernel of ``fixed_rows`` plus rows_below(cols, target2, step), one
    unknown per column.  Returns the normalised generator of the tight kernel
    (target2 = tight2), and the basis of the relaxed kernel (target2 =
    relaxed2) when the dimension has the extra degree of freedom, else None."""
    kern = kernel_basis(fixed_rows + rows_below(cols, tight2, step), len(cols))
    if len(kern) != 1:
        raise NoSolution(
            f"d={params.d}: tight system has kernel dimension {len(kern)}, expected 1"
        )
    vec = normalize(kern[0], degs)
    if not params.extra_dof:
        return vec, None
    rk = kernel_basis(fixed_rows + rows_below(cols, relaxed2, step), len(cols))
    if len(rk) != 2:
        raise NoSolution(
            f"d={params.d}: relaxed system has kernel dimension {len(rk)}, expected 2"
        )
    return vec, tuple(tuple(v) for v in rk)


def require_relaxed(sol, solver: str) -> None:
    """Refuse the origin constraint where the relaxed space does not exist."""
    params = sol.params
    if not params.extra_dof:
        raise ConstraintUnavailable(
            f"d={params.d} has no extra degree of freedom (d mod 48 = {params.d % 48})"
        )
    if sol.relaxed_basis is None:
        raise ConstraintUnavailable(f"solution lacks the relaxed basis; re-run {solver}")


def origin_vector(sol, b0, degs) -> list:
    """The normalised element c₂·v₁ − c₁·v₂ of the relaxed space (v₁, v₂),
    c_i = b0(v_i), on which the functional b0 vanishes."""
    v1, v2 = sol.relaxed_basis
    c1, c2 = b0(v1), b0(v2)
    if not c1 and not c2:
        raise NoSolution(f"d={sol.params.d}: origin constraint is degenerate on the space")
    return normalize([c2 * a - c1 * b for a, b in zip(v1, v2)], degs)


def delta_inverse(ell: int, n_work: int) -> QSeries:
    """Δ^{−ℓ} on the work window."""
    if ell == 0:
        return QSeries.one(2 * n_work)
    return (gen("Delta", n_work) ** ell).invert()


def cut(d: int, s: QSeries, n_trunc: int) -> QSeries:
    """Restrict s to O(q^n_trunc); an internal window that fell short is a bug."""
    t2 = 2 * n_trunc
    if s.trunc2 < t2:
        raise NoSolution(f"d={d}: internal window {s.trunc2} fell below requested {t2}")
    return s.truncate2(t2)
