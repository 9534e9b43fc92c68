"""Eigenfunctions for eigenvalue (−1)^{d/4+1} (the "minus" family).

Here the seed has the shape ψ = f·log λ + ω with f = ω_k·X(j)/Δ^ℓ a weakly
holomorphic form of weight 2 − d/2 on the full modular group, and

    ω = (χ1·Y(j) + χ2·Z(j)) / Δ^ℓ,        ℓ = ⌈(d−4)/24⌉,  k = 6ℓ − (d−4)/4,

where χ1, χ2 are the catalogued weight-2k solutions of the level-two cocycle
equation χ(z) = z^{−2k}χ(Sz) + χ(Tz).  Two pole-order conditions pin the
polynomial coefficients: the direct side χ1·Y + χ2·Z must be O(q^{−n−1}),
and the S-transformed combination

    z^{−2k}·(X·ω_k(Sz)·log λ(Sz) + χ1(Sz)·Y + χ2(Sz)·Z)

— a series in half-integer powers of q only — must vanish to the maximal
achievable order 2n + b(k)/2.  Dimensions in the extra-freedom congruence
classes keep a second basis vector when only the required order ℓ + 1/2 is
imposed, which feeds the origin-constrained variant.  The shared scaffold in
``pole`` solves and normalises the system; this module supplies the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import pole
from .expansion import PsiExpansion, SymbolicScalar, TaggedSeries
from .forms import IdentityViolation, chi_fraction, eval_poly, gen, log_lambda, log_lambda_S
from .pole import BadDimension, ConstraintUnavailable, NoSolution
from .qseries import QSeries, rational, rational_str

B_OF_K = (3, 3, 5, 5, 7, 7)
# (deg X, deg Y, deg Z) as offsets from n; negative degree means a zero slot
DEG_OFFSETS_MINUS = {
    0: (0, 0, -1),
    1: (-1, 0, 0),
    2: (0, 1, 0),
    3: (0, 1, 0),
    4: (0, 2, 1),
    5: (0, 2, 1),
}
EXTRA_RESIDUES_MINUS = {0, 4, 16, 20, 32, 36}


@dataclass(frozen=True)
class MinusParams:
    d: int
    ell: int
    k: int
    b_k: int
    n: int
    n_minus: int
    extra_dof: bool


def minus_params(d: int) -> MinusParams:
    pole.check_dimension(d)
    ell = -(-(d - 4) // 24)
    k = 6 * ell - (d - 4) // 4
    b_k = B_OF_K[k]
    n = -(-(2 * ell - b_k) // 4)
    n_minus = d // 16 + 1
    if n + ell + 1 != n_minus:
        raise NoSolution(f"bookkeeping mismatch for d={d}: n+ell+1={n+ell+1}, n_minus={n_minus}")
    if not 4 * n + b_k > 2 * ell:
        raise NoSolution(f"d={d}: maximal order 2n+b/2 does not clear the cusp gap ℓ")
    return MinusParams(d, ell, k, b_k, n, n_minus, d % 48 in EXTRA_RESIDUES_MINUS)


@dataclass(frozen=True)
class MinusSolution:
    params: MinusParams
    X: tuple  # ascending rational coefficients in w = j, trailing zeros dropped
    Y: tuple
    Z: tuple
    f_series: QSeries  # ω_k X(j) / Δ^ℓ
    omega_series: QSeries  # (χ1 Y + χ2 Z) / Δ^ℓ
    psiS_series: QSeries  # z^{d/2−2} ψ(Sz), half-integer exponents only
    relaxed_basis: tuple | None = None


# ---------------------------------------------------------------------------
# series building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Pieces:
    """Shared series inputs for one (k, degree) configuration."""

    k: int
    chi1: QSeries
    chi2: QSeries
    chiS1: QSeries  # z^{−2k} χ1(Sz) = (−1)^k θ00^{4k} R1(1−λ)
    chiS2: QSeries
    omega_k: QSeries
    logS: QSeries  # log λ(Sz)
    jpow: tuple


def _pieces(k: int, top: int, n_work: int) -> _Pieces:
    m = n_work + 10
    th = gen("Theta00_4", m)
    lam = gen("Lambda", m)
    lam1 = QSeries.one(lam.trunc2) - lam
    thk = th**k if k else QSeries.one(2 * m)
    sgn = -1 if k % 2 else 1
    chis = []
    for i in (1, 2):
        num, a, b = chi_fraction(i, k)
        s = eval_poly(num, lam1)
        if a:
            s = s / lam1**a
        if b:
            s = s / lam**b
        chis.append((s * thk).scale(sgn))
    return _Pieces(
        k,
        gen("Chi", n_work, 1, k),
        gen("Chi", n_work, 2, k),
        chis[0],
        chis[1],
        gen("Omega", n_work, k),
        log_lambda_S(n_work),
        pole.j_powers(top, n_work),
    )


def _s_columns(pieces: _Pieces, degs) -> list:
    """S-side columns over X|Y|Z; each carries half-integer exponents only."""
    bases = (pieces.omega_k * pieces.logS, pieces.chiS1, pieces.chiS2)
    cols = [base * jp for base, deg in zip(bases, degs) for jp in pieces.jpow[: deg + 1]]
    for col in cols:
        if not col.even_part().is_zero():
            raise IdentityViolation(f"S-side column for k={pieces.k} has integer-exponent terms")
    return cols


@dataclass(frozen=True)
class _Setup:
    """Columns shared by the solve and the origin constraint at one window:
    the log-term form f over X, the direct side over Y|Z and the S side over
    X|Y|Z."""

    degs: tuple
    n_work: int
    f_cols: list
    direct_cols: list
    s_cols: list
    dinv: QSeries


def _setup(params: MinusParams, n_trunc: int) -> _Setup:
    degs = pole.degrees(params, DEG_OFFSETS_MINUS)
    n_work = pole.work_order(params, degs, n_trunc)
    pieces = _pieces(params.k, max(*degs, 0), n_work)
    jpow = pieces.jpow
    chis = (pieces.chi1, pieces.chi2)
    return _Setup(
        degs,
        n_work,
        [pieces.omega_k * jp for jp in jpow[: degs[0] + 1]],
        [chi * jp for chi, deg in zip(chis, degs[1:]) for jp in jpow[: deg + 1]],
        _s_columns(pieces, degs),
        pole.delta_inverse(params.ell, n_work),
    )


def _trim(poly) -> tuple:
    out = list(poly)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def _default_trunc(params: MinusParams) -> int:
    return max(2 * params.n + params.b_k + params.ell + 8, 16)


def solve_minus(d: int, n_trunc: int | None = None) -> MinusSolution:
    """Solve the pole-order system for dimension d; the representative is the
    primitive-integer generator with leading coefficient positive in the first
    nonzero slot among X, Y, Z (``pole.normalize``).  When d has the extra
    degree of freedom, the relaxed two-dimensional space is retained for
    apply_origin_constraint."""
    params = minus_params(d)
    if n_trunc is None:
        n_trunc = _default_trunc(params)
    st = _setup(params, n_trunc)
    nx = len(st.f_cols)
    direct_rows = [
        [rational(0)] * nx + row for row in pole.rows_below(st.direct_cols, -2 * params.n - 2, 1)
    ]
    vec, relaxed = pole.solve_system(
        params, st.degs, direct_rows, st.s_cols, 1, 4 * params.n + params.b_k, 2 * params.ell + 1
    )
    return _build_solution(params, vec, st, n_trunc, relaxed, tight=True)


def _build_solution(params, vec, st: _Setup, n_trunc, relaxed, *, tight: bool) -> MinusSolution:
    x, y, z = pole.split(vec, st.degs)
    t2w = 2 * st.n_work

    f_num = pole.lincomb(x, st.f_cols, t2w)
    w_num = pole.lincomb(y + z, st.direct_cols, t2w)
    s_num = pole.lincomb(vec, st.s_cols, t2w, 1)

    vw = w_num.valuation2()
    if vw is not None and vw < -2 * params.n - 2:
        raise NoSolution(f"d={params.d}: direct side violates O(q^{-params.n - 1})")
    vs = s_num.valuation2()
    if tight:
        target2 = 4 * params.n + params.b_k
        if vs is None or vs != target2:
            raise NoSolution(
                f"d={params.d}: S-side valuation {vs} ≠ maximal order {target2} (half-steps)"
            )
    else:
        if vs is not None and vs < 2 * params.ell + 1:
            raise NoSolution(f"d={params.d}: S-side violates the required order ℓ+1/2")

    f, omega, psiS = (pole.cut(params.d, s * st.dinv, n_trunc) for s in (f_num, w_num, s_num))

    if f.coef(-params.n_minus):
        raise NoSolution(f"d={params.d}: log-term form has a pole of full depth {params.n_minus}")
    if tight and not omega.coef(-params.n_minus):
        raise NoSolution(f"d={params.d}: ω has zero coefficient at q^-{params.n_minus}")

    return MinusSolution(params, _trim(x), _trim(y), _trim(z), f, omega, psiS, relaxed)


def apply_origin_constraint(sol: MinusSolution, n_trunc: int | None = None) -> MinusSolution:
    """Within the relaxed two-dimensional space, return the unique (up to
    scalar) element whose eigenfunction vanishes at the origin: b_0 = 0, i.e.
    the constant coefficient of the log-term form f is zero."""
    pole.require_relaxed(sol, "solve_minus")
    params = sol.params
    if n_trunc is None:
        n_trunc = _default_trunc(params)
    st = _setup(params, n_trunc)

    def b0_functional(vec):
        x, _, _ = pole.split(vec, st.degs)
        return (pole.lincomb(x, st.f_cols, 2 * st.n_work) * st.dinv).coef(0)

    vec = pole.origin_vector(sol, b0_functional, st.degs)
    out = _build_solution(params, vec, st, n_trunc, sol.relaxed_basis, tight=False)
    if out.f_series.coef(0):
        raise NoSolution(f"d={params.d}: constrained combination still has b_0 ≠ 0")
    return out


# ---------------------------------------------------------------------------
# assembly and checks
# ---------------------------------------------------------------------------


def assemble_psi_minus(sol: MinusSolution, n_trunc: int | None = None) -> PsiExpansion:
    """Expand the solved data into the eigenfunction seed

        ψ(z) = z·(πi·f) + (4 ln2·f + f·tail(log λ) + ω),

    splitting log λ = πiz + 4 ln2 + tail.  The principal part reads off as
    b_m = −π·[q^{-m}]f and a_m = [q^{-m}](f·tail + ω) + 4 ln2·[q^{-m}]f — the
    tail product feeds back into integer exponents above the pole of f, so the
    a-side must be read from the assembled constant part, not from ω alone;
    its half-integer exponents must all sit above q^0 or the seed is invalid.
    The non-principal remainder decays like e^{iπz/2}.  ``n_trunc`` only trims
    the stored windows."""
    params = sol.params
    f, omega, psiS = sol.f_series, sol.omega_series, sol.psiS_series
    if n_trunc is not None:
        t2 = 2 * n_trunc
        f, omega, psiS = f.truncate2(t2), omega.truncate2(t2), psiS.truncate2(t2)
    tail = log_lambda(f.trunc2 // 2 + params.n_minus + 2).tail
    const_part = f * tail + omega
    odd = const_part.odd_part()
    ov = odd.valuation2()
    if ov is not None and ov < 1:
        raise NoSolution(
            f"d={params.d}: principal part has a half-integer exponent at q^{ov}/2"
        )

    a = tuple(
        SymbolicScalar(pi_coeff=const_part.coef(-m), ln2_coeff=rational(4) * f.coef(-m))
        for m in range(params.n_minus + 1)
    )
    b = tuple(
        SymbolicScalar(pi_coeff=-f.coef(-m), pi_pow=1) for m in range(params.n_minus + 1)
    )
    if not b[params.n_minus].is_zero():
        raise NoSolution(f"d={params.d}: deepest z-coefficient b_{params.n_minus} ≠ 0")
    return PsiExpansion(
        d=params.d,
        sign=-1,
        z2_part=(),
        z1_part=(TaggedSeries(f, r=1, pi_pow=1, i_pow=1),),
        z0_part=(TaggedSeries(const_part), TaggedSeries(f, r=4, ln2=True)),
        principal_a=a,
        principal_b=b,
        S_series=psiS,
        c_over_pi=Fraction(1, 2),
    )


def _proportional_series(a: QSeries, b: QSeries) -> bool:
    ratio = None
    for e2 in range(min(a.lo2, b.lo2), min(a.trunc2, b.trunc2)):
        ca, cb = a.coef2(e2), b.coef2(e2)
        if not ca and not cb:
            continue
        if not ca or not cb:
            return False
        r = cb / ca
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def chi_functional_check(k: int, n: int = 48) -> dict:
    """Verify by dual routes that both catalogued χ_i^(k) satisfy
    χ(z) − χ(Tz) − z^{−2k}χ(Sz) = 0 up to O(q^n): the T-side flips the sign
    of half-integer exponents on the direct expansion, while the S-side is
    built independently through the λ ↦ 1−λ substitution.  Also certifies the
    pair is not proportional.  Raises IdentityViolation on any failure."""
    pieces = _pieces(k, 0, n)
    report = {"k": k, "order": n}
    for i, chi, chiS in ((1, pieces.chi1, pieces.chiS1), (2, pieces.chi2, pieces.chiS2)):
        resid = chi - chi.t_map() - chiS
        if not resid.is_zero():
            raise IdentityViolation(
                f"χ_{i}^({k}) fails the cocycle equation first at q^{resid.valuation2()}/2"
            )
        report[f"chi{i}"] = "ok"
    if _proportional_series(pieces.chi1, pieces.chi2):
        raise IdentityViolation(f"χ_1^({k}) and χ_2^({k}) are proportional on the window")
    report["independent"] = True
    return report


def to_record(sol: MinusSolution) -> dict:
    """JSON-ready record of a solved dimension."""
    p = sol.params
    return {
        "d": p.d,
        "ell": p.ell,
        "k": p.k,
        "n": p.n,
        "n_minus": p.n_minus,
        "X": [rational_str(c) for c in sol.X],
        "Y": [rational_str(c) for c in sol.Y],
        "Z": [rational_str(c) for c in sol.Z],
        "chi_basis": "table-4",
    }
