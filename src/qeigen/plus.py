"""Eigenfunctions for eigenvalue (−1)^{d/4} (the "plus" family).

For d ≡ 0 (mod 4) the S-image z^{d/2−2}ψ(Sz) is a weakly holomorphic
quasimodular form of weight 4−d/2 and depth 2, written as

    Φ = ψ1 − 2 E2 ψ2 + E2² ψ3,       ψ_m = ω_{k+m−3+2} · (poly in j) / Δ^ℓ

with ℓ = ⌈d/24⌉ and k = 6ℓ − d/4.  The polynomial coefficients are the
unknowns of a homogeneous linear system imposing two pole-order conditions:
the z-coefficient series ψ2 − E2 ψ3 must be O(q^{−n+1}), and Φ itself must
vanish to the maximal achievable order 2n + a(k) − 1 (one more than needed
when d falls in the extra-freedom congruence classes, which is what makes a
second, origin-constrained eigenfunction possible).  The shared scaffold in
``pole`` solves and normalises the system; this module supplies the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import pole
from .expansion import PsiExpansion, SymbolicScalar, TaggedSeries
from .forms import gen
from .pole import BadDimension, ConstraintUnavailable, NoSolution
from .qseries import QSeries, rational, rational_str

A_OF_K = (1, 1, 2, 2, 3, 3)
# polynomial degrees from Table of (deg P, deg Q, deg R) as offsets from n
DEG_OFFSETS = {
    0: (0, -1, 0),
    1: (0, 0, -1),
    2: (0, 0, 0),
    3: (0, 0, 0),
    4: (1, 0, 0),
    5: (0, 1, 0),
}
EXTRA_RESIDUES_PLUS = {0, 12, 16, 28, 32, 44}


@dataclass(frozen=True)
class PlusParams:
    d: int
    ell: int
    k: int
    a_k: int
    n: int
    n_plus: int
    extra_dof: bool


def plus_params(d: int) -> PlusParams:
    pole.check_dimension(d)
    ell = -(-d // 24)
    k = 6 * ell - d // 4
    a_k = A_OF_K[k]
    n = -(-(ell - a_k + 2) // 2)
    n_plus = (d + 4) // 16 + 1
    if n + ell != n_plus:
        raise NoSolution(f"bookkeeping mismatch for d={d}: n+ell={n+ell}, n_plus={n_plus}")
    return PlusParams(d, ell, k, a_k, n, n_plus, d % 48 in EXTRA_RESIDUES_PLUS)


@dataclass(frozen=True)
class PlusSolution:
    params: PlusParams
    P: tuple  # ascending rational coefficients in w = j
    Q: tuple
    R: tuple
    psi1: QSeries
    psi2: QSeries
    psi3: QSeries
    phi: QSeries  # psi1 − 2 E2 psi2 + E2² psi3
    relaxed_basis: tuple | None = None  # two (P,Q,R) triples when extra_dof


@dataclass(frozen=True)
class _Setup:
    """Columns shared by the solve and the origin constraint at one window:
    the slot blocks ω_{k+2}·j^i, ω_{k+1}·j^i, ω_k·j^i, and over P|Q|R the
    g-series ψ2 − E2·ψ3 and Φ in stuff space (before the division by Δ^ℓ)."""

    degs: tuple
    n_work: int
    basis: tuple
    g_cols: list
    phi_cols: list
    e2: QSeries
    dinv: QSeries


def _setup(params: PlusParams, n_trunc: int) -> _Setup:
    degs = pole.degrees(params, DEG_OFFSETS)
    n_work = pole.work_order(params, degs, n_trunc)
    jpow = pole.j_powers(max(*degs, 0), n_work)
    k = params.k
    omegas = [gen("Omega", n_work, m) for m in (k + 2, k + 1, k)]
    bp, bq, br = basis = tuple([om * jp for jp in jpow[: deg + 1]] for om, deg in zip(omegas, degs))
    e2 = gen("E2", n_work)
    e22 = e2 * e2
    return _Setup(
        degs,
        n_work,
        basis,
        [QSeries.zero(s.trunc2) for s in bp] + bq + [-(e2 * s) for s in br],
        bp + [-(e2 * s).scale(2) for s in bq] + [e22 * s for s in br],
        e2,
        pole.delta_inverse(params.ell, n_work),
    )


def solve_plus(d: int, n_trunc: int | None = None) -> PlusSolution:
    """Solve the pole-order system for dimension d; the representative is the
    primitive-integer, P-leading-positive generator of the tight solution
    line (``pole.normalize``).  When d has the extra degree of freedom, the
    relaxed two-dimensional space is retained for apply_origin_constraint."""
    params = plus_params(d)
    tight_target = 2 * params.n + params.a_k - 1
    if n_trunc is None:
        n_trunc = max(tight_target + params.ell + 8, 16)
    st = _setup(params, n_trunc)
    g_rows = pole.rows_below(st.g_cols, 2 * (1 - params.n), 2)
    vec, relaxed = pole.solve_system(
        params, st.degs, g_rows, st.phi_cols, 2, 2 * tight_target, 2 * (params.ell + 1)
    )
    return _build_solution(params, vec, st, n_trunc, relaxed, tight=True)


def _build_solution(params, vec, st: _Setup, n_trunc, relaxed, *, tight: bool) -> PlusSolution:
    t2w = 2 * st.n_work
    s1 = pole.lincomb(vec, st.g_cols, t2w)
    s2 = pole.lincomb(vec, st.phi_cols, t2w)

    # pole-order certificates in stuff space
    v1 = s1.valuation2()
    if v1 is not None and v1 // 2 < -params.n + 1:
        raise NoSolution(f"d={params.d}: g-series order violates O(q^{-params.n+1})")
    if tight:
        if v1 is None or v1 // 2 != -params.n + 1:
            raise NoSolution(
                f"d={params.d}: g-series valuation {v1} not exactly {-params.n + 1}"
            )
        target = 2 * params.n + params.a_k - 1
        v2 = s2.valuation2()
        if v2 is None or v2 // 2 != target:
            raise NoSolution(
                f"d={params.d}: Φ-series valuation {v2} not exactly q^{target}"
            )

    p, q, r = pole.split(vec, st.degs)
    slots = [pole.lincomb(c, b, t2w) for c, b in zip((p, q, r), st.basis)]
    psi1, psi2, psi3, phi = (pole.cut(params.d, s * st.dinv, n_trunc) for s in (*slots, s2))

    n_plus = params.n_plus
    a_deep = psi3.coef(-n_plus)
    if not a_deep:
        raise NoSolution(f"d={params.d}: ψ3 has zero coefficient at q^-{n_plus}")
    g = s1 * st.dinv
    if g.coef(-n_plus):
        raise NoSolution(f"d={params.d}: g-series has a pole of full depth {n_plus}")

    return PlusSolution(params, p, q, r, psi1, psi2, psi3, phi, relaxed)


def apply_origin_constraint(sol: PlusSolution, n_trunc: int | None = None) -> PlusSolution:
    """Within the relaxed two-dimensional space, return the unique (up to
    scalar) element whose eigenfunction vanishes at the origin (b_0 = 0, i.e.
    the constant coefficient of the z-coefficient series is zero)."""
    pole.require_relaxed(sol, "solve_plus")
    params = sol.params
    if n_trunc is None:
        n_trunc = max(2 * params.n + params.a_k + params.ell + 8, 16)
    st = _setup(params, n_trunc)

    def b0_functional(vec):
        return (pole.lincomb(vec, st.g_cols, 2 * st.n_work) * st.dinv).coef(0)

    vec = pole.origin_vector(sol, b0_functional, st.degs)
    out = _build_solution(params, vec, st, n_trunc, sol.relaxed_basis, tight=False)
    if (out.psi2 - st.e2 * out.psi3).coef(0):
        raise NoSolution(f"d={params.d}: constrained combination still has b_0 ≠ 0")
    return out


def assemble_psi_plus(sol: PlusSolution, n_trunc: int | None = None) -> PsiExpansion:
    """Expand the solved quasimodular data into the eigenfunction seed

        ψ(z) = z²·Φ + z·(12i/π)(ψ2 − E2 ψ3) − (36/π²)·ψ3,

    so that z^{d/2−2}ψ(Sz) = Φ.  The principal part then reads off as
    a_k = −36/π²·[q^{-k}]ψ3 and b_k = −12/π·[q^{-k}](ψ2 − E2 ψ3); the
    non-principal remainder decays like e^{iπz}.  ``n_trunc`` only trims the
    stored windows — re-solve at a larger order to extend them."""
    params = sol.params
    e2 = gen("E2", sol.psi2.trunc2 // 2)
    g = sol.psi2 - e2 * sol.psi3
    phi, psi3 = sol.phi, sol.psi3
    if n_trunc is not None:
        t2 = 2 * n_trunc
        g, phi, psi3 = g.truncate2(t2), phi.truncate2(t2), psi3.truncate2(t2)

    a = tuple(
        SymbolicScalar(pi_coeff=rational(-36) * psi3.coef(-m), pi_pow=-2)
        for m in range(params.n_plus + 1)
    )
    b = tuple(
        SymbolicScalar(pi_coeff=rational(-12) * g.coef(-m), pi_pow=-1)
        for m in range(params.n_plus + 1)
    )
    if not b[params.n_plus].is_zero():
        raise NoSolution(f"d={params.d}: deepest z-coefficient b_{params.n_plus} ≠ 0")
    return PsiExpansion(
        d=params.d,
        sign=1,
        z2_part=(TaggedSeries(phi),),
        z1_part=(TaggedSeries(g, r=12, pi_pow=-1, i_pow=1),),
        z0_part=(TaggedSeries(psi3, r=-36, pi_pow=-2),),
        principal_a=a,
        principal_b=b,
        S_series=phi,
        c_over_pi=Fraction(1),
    )


def to_record(sol: PlusSolution) -> dict:
    """JSON-ready record of a solved dimension."""
    p = sol.params
    return {
        "d": p.d,
        "ell": p.ell,
        "k": p.k,
        "n": p.n,
        "n_plus": p.n_plus,
        "P": [rational_str(c) for c in sol.P],
        "Q": [rational_str(c) for c in sol.Q],
        "R": [rational_str(c) for c in sol.R],
        "normalization": "primitive-int, P-leading-positive",
    }
