"""High-precision evaluation of the assembled eigenfunction seeds.

The seed ψ carries exact q-series with symbolic π / ln 2 prefactors; this
module turns those into certified numbers.  The one-sided Laplace transform

    W(s) = -i ∫₀^{i∞} ψ(z) e^{iπsz} dz

is continued past its abscissa by splitting the contour at z = iT: on (0, T]
the integrand is integrated by Gauss–Legendre panels (with ψ evaluated
through the S-transformed series, which converges rapidly near 0), while on
[T, ∞) the principal exponentials integrate in closed form and the decaying
remainder of the q-expansion integrates term by term.  The three pieces are
each analytic in s, so their sum is the continuation no matter where the
split sits — moving T or doubling the node count must not change the value,
and the tests exploit exactly that.

On top of W sit the radial profile U(s) = -4 sin²(πs/2)·W(s) and
F(r) = U(r²), the exact special values U(2m) = -b_m, U'(2m) = -π a_m, the
functional-equation residuals that certify the eigenfunction property, and a
sign-change grid certificate.  Every numeric path tracks a remainder
estimate and refuses (PrecisionLoss) rather than silently degrade.
"""

from __future__ import annotations

import csv
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from qeigen.expansion import PsiExpansion
from qeigen.qseries import QSeries


class PoleAt2k(ValueError):
    """s landed inside the numeric exclusion zone of a double pole of W."""


class PrecisionLoss(ArithmeticError):
    """A series tail or quadrature remainder exceeded the trust budget."""


class BadSamplePoint(ValueError):
    """A sample point (or one of its modular images) sits too low in the
    upper half-plane for certified series evaluation."""


class SignAnomaly(RuntimeError):
    """The sign grid found a value inconsistent with a single crossing."""


@dataclass(frozen=True)
class EvalConfig:
    """Numeric evaluation knobs.

    ``precision`` is the working mantissa in bits; ``n_trunc`` caps the
    q-expansion order actually used (None keeps the windows the series were
    solved with); ``quad_nodes`` is the Gauss–Legendre node count per panel;
    ``split`` is the contour split point T.
    """

    precision: int = 256
    n_trunc: int | None = None
    quad_nodes: int = 200
    split: float = 1.0

    def __post_init__(self):
        if self.precision < 64:
            raise ValueError(f"precision {self.precision} below the 64-bit floor")
        if self.quad_nodes < 16:
            raise ValueError(f"quad_nodes {self.quad_nodes} below the 16-node floor")
        if not self.split > 0:
            raise ValueError("contour split point must be positive")
        if self.n_trunc is not None and self.n_trunc < 4:
            raise ValueError("series truncation below q^4 cannot certify anything")


_DEFAULT = EvalConfig()


def _ctx(cfg: EvalConfig):
    return mpmath.workprec(cfg.precision + 32)


def _mpr(x) -> mpmath.mpf:
    """Exact rational (Fraction / int) to mpf at working precision."""
    if isinstance(x, (int, mpmath.mpf)):
        return mpmath.mpf(x)
    return mpmath.mpf(int(x.numerator)) / int(x.denominator)


def _cap(series: QSeries, cfg: EvalConfig) -> QSeries:
    if cfg.n_trunc is None or series.trunc2 <= 2 * cfg.n_trunc:
        return series
    return series.truncate2(2 * cfg.n_trunc)


def _tol(cfg: EvalConfig) -> mpmath.mpf:
    return mpmath.mpf(2) ** -(cfg.precision // 4)


# ---------------------------------------------------------------------------
# series summation with remainder estimates
# ---------------------------------------------------------------------------


def _series_sum(ser: QSeries, u):
    """Σ c · u^{e2} over the window, for real or complex u = q^{1/2}.

    Returns (value, largest |term|, tail estimate).  The tail estimate takes
    the largest stored coefficient near the window edge as a proxy for the
    ones beyond it; coefficient growth here is sub-geometric, so the
    geometric factor 1/(1-|u|) absorbs it for the |u| ≤ e^{-0.4π} regime the
    callers enforce.
    """
    au = abs(u)
    if au >= 1:
        raise PrecisionLoss(f"|q^(1/2)| = {mpmath.nstr(au, 8)} outside the unit disc")
    val = u * 0
    amax = mpmath.mpf(0)
    items = list(ser.items())
    edge = mpmath.mpf(1)
    for e2, c in items[-8:]:
        edge = max(edge, abs(_mpr(c)))
    tail = edge * au**ser.trunc2 / (1 - au)
    if not items:
        return val, amax, tail
    u2 = u * u
    pos = items[0][0]
    pw = u**pos
    for e2, c in items:
        delta = e2 - pos
        if delta == 1:
            pw *= u
        elif delta == 2:
            pw *= u2
        elif delta:
            pw *= u**delta
        pos = e2
        term = _mpr(c) * pw
        val += term
        amax = max(amax, abs(term))
    return val, amax, tail


def _axis_parts(psi: PsiExpansion, cfg: EvalConfig):
    """(z-power, real prefactor, capped series) for every tagged component.

    The i-power of each tag is folded into the prefactor together with the
    i^j from z^j = (it)^j; the assembled seed is real on the imaginary axis,
    so the folded factor must come out real — a nonreal residue means the
    expansion was tampered with and is refused.
    """
    out = []
    for j, group in ((2, psi.z2_part), (1, psi.z1_part), (0, psi.z0_part)):
        for tagged in group:
            fac = tagged.numeric_factor() * mpmath.mpc(0, 1) ** j
            if abs(fac.imag) > mpmath.mpf(2) ** (-cfg.precision // 2) * (1 + abs(fac.real)):
                raise PrecisionLoss(
                    f"z^{j} prefactor {fac} has a nonreal residue on the imaginary axis"
                )
            out.append((j, fac.real, _cap(tagged.series, cfg)))
    return out


# ---------------------------------------------------------------------------
# ψ itself
# ---------------------------------------------------------------------------


def _psi_direct(psi: PsiExpansion, t, cfg: EvalConfig) -> mpmath.mpf:
    """Direct q-expansion at z = it (reliable for t ≳ 1)."""
    u = mpmath.exp(-mpmath.pi * t)
    val = mpmath.mpf(0)
    amax = mpmath.mpf(0)
    tails = mpmath.mpf(0)
    for j, kappa, ser in _axis_parts(psi, cfg):
        sval, sam, stail = _series_sum(ser, u)
        w = kappa * t**j
        val += w * sval
        amax = max(amax, abs(w) * sam)
        tails += abs(w) * stail
    if tails > _tol(cfg) * (1 + amax):
        raise PrecisionLoss(
            f"direct tail estimate {mpmath.nstr(tails, 5)} at t={mpmath.nstr(t, 8)} "
            f"exceeds the budget for {cfg.precision}-bit trust"
        )
    return val


def _psi_via_s(psi: PsiExpansion, t, cfg: EvalConfig) -> mpmath.mpf:
    """ψ(it) through the S-transformed series: with S(i/t') = it the stored
    expansion of z^{d/2-2}ψ(Sz) gives ψ(it) = (-1)^{d/4+1} t^{d/2-2} Σ c q'^e
    at q' = e^{-2π/t}, which converges the faster the smaller t is."""
    u = mpmath.exp(-mpmath.pi / t)
    sval, sam, stail = _series_sum(_cap(psi.S_series, cfg), u)
    if stail > _tol(cfg) * (1 + sam):
        raise PrecisionLoss(
            f"S-path tail estimate {mpmath.nstr(stail, 5)} at t={mpmath.nstr(t, 8)} "
            f"exceeds the budget for {cfg.precision}-bit trust"
        )
    sgn = -1 if (psi.d // 4) % 2 == 0 else 1
    return sgn * t ** (psi.d // 2 - 2) * sval


def eval_psi(psi: PsiExpansion, t, cfg: EvalConfig = _DEFAULT) -> mpmath.mpf:
    """ψ(it) for real t > 0, switching to the S-path below the corner t = 1."""
    with _ctx(cfg):
        t = _mpr(t) if isinstance(t, (Fraction, int)) else mpmath.mpf(t)
        if t <= 0:
            raise ValueError(f"ψ is evaluated on the positive imaginary axis, got t={t}")
        return (_psi_via_s if t < 1 else _psi_direct)(psi, t, cfg)


def _psi_complex(psi: PsiExpansion, z, cfg: EvalConfig) -> mpmath.mpc:
    """ψ(z) from the z-polynomial components at q = e^{2πiz}; certified only
    for Im z ≥ 0.4 (|q| ≤ e^{-0.8π})."""
    z = mpmath.mpc(z)
    if z.imag < mpmath.mpf("0.4") - mpmath.mpf(2) ** -30:
        raise BadSamplePoint(
            f"Im z = {mpmath.nstr(z.imag, 6)} < 0.4: series remainder not certifiable"
        )
    u = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi * z)
    val = mpmath.mpc(0)
    amax = mpmath.mpf(0)
    tails = mpmath.mpf(0)
    for j, group in ((2, psi.z2_part), (1, psi.z1_part), (0, psi.z0_part)):
        for tagged in group:
            sval, sam, stail = _series_sum(_cap(tagged.series, cfg), u)
            w = tagged.numeric_factor() * z**j
            val += w * sval
            amax = max(amax, abs(w) * sam)
            tails += abs(w) * stail
    if tails > _tol(cfg) * (1 + amax):
        raise PrecisionLoss(
            f"tail estimate {mpmath.nstr(tails, 5)} at z={mpmath.nstr(z, 8)} "
            f"exceeds the budget for {cfg.precision}-bit trust"
        )
    return val


# ---------------------------------------------------------------------------
# Gauss–Legendre panels for the (0, T] piece
# ---------------------------------------------------------------------------

_GL_CACHE: dict[tuple[int, int], tuple[tuple, tuple]] = {}


def _gauss_legendre(n: int):
    """Nodes and weights on [-1, 1] at the current working precision,
    Newton-refined from double-precision Chebyshev seeds."""
    key = (n, mpmath.mp.prec)
    got = _GL_CACHE.get(key)
    if got is not None:
        return got
    stop = mpmath.mpf(2) ** (8 - mpmath.mp.prec)
    xs: list = []
    ws: list = []
    for i in range(1, (n + 1) // 2 + 1):
        x = mpmath.mpf(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
        dp = mpmath.mpf(1)
        for _ in range(64):
            p0, p1 = mpmath.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) <= stop:
                break
        w = 2 / ((1 - x * x) * dp * dp)
        xs.append(x)
        ws.append(w)
        if x > stop * 4:
            xs.append(-x)
            ws.append(w)
    _GL_CACHE[key] = (tuple(xs), tuple(ws))
    return _GL_CACHE[key]


_QUAD_CACHE: OrderedDict = OrderedDict()


def _quad_samples(psi: PsiExpansion, cfg: EvalConfig):
    """Precomputed (t_i, w_i·ψ(it_i)) over dyadic panels of (0, T].

    The panels halve toward 0 until the neglected innermost mass is provably
    below the working precision: |ψ(it)| ≤ A·e^{-2πv/t} with v the leading
    exponent of the S-series and A its absolute coefficient sum, and the
    e^{-πst} factor is at worst e^{πt} on the continuation domain s > -1.
    Keyed by the expansion identity and the config, since every eval_W at
    any s reuses the same samples.
    """
    key = (id(psi), cfg.precision, cfg.quad_nodes, cfg.n_trunc, repr(cfg.split))
    got = _QUAD_CACHE.get(key)
    if got is not None:
        _QUAD_CACHE.move_to_end(key)
        return got[1], got[2]
    T = mpmath.mpf(cfg.split)
    sser = _cap(psi.S_series, cfg)
    v = mpmath.mpf(sser.valuation2()) / 2
    A = mpmath.mpf(1)
    for _, c in sser.items():
        A += abs(_mpr(c))
    need = (mpmath.mp.prec + 16) * mpmath.ln(2) + mpmath.ln(A) + 4
    a_max = 2 * mpmath.pi * v / need
    panels = max(1, int(mpmath.ceil(mpmath.log(T / a_max, 2))))
    xs, ws = _gauss_legendre(cfg.quad_nodes)
    samples = []
    for j in range(panels):
        hi = T * mpmath.mpf(2) ** (-j)
        lo = hi / 2
        mid, half = (hi + lo) / 2, (hi - lo) / 2
        for x, w in zip(xs, ws):
            t = mid + half * x
            samples.append((t, w * half * eval_psi(psi, t, cfg)))
    floor = T * mpmath.mpf(2) ** (-panels)
    deep = floor * A * mpmath.exp(mpmath.pi * floor - 2 * mpmath.pi * v / floor)
    _QUAD_CACHE[key] = (psi, tuple(samples), deep)
    while len(_QUAD_CACHE) > 8:
        _QUAD_CACHE.popitem(last=False)
    return _QUAD_CACHE[key][1], deep


# ---------------------------------------------------------------------------
# the Laplace transform and its continuation
# ---------------------------------------------------------------------------


def _closed_principal(psi: PsiExpansion, s, T):
    """∫_T^∞ of the principal exponentials against e^{-πst}, in closed form:
    the a_m-term contributes e^{-νT}/ν and the b_m-term e^{-νT}(1+νT)/ν²
    with ν = π(s-2m).  These carry the double poles of W at s = 2m."""
    acc = mpmath.mpf(0)
    amax = mpmath.mpf(0)
    for m in range(len(psi.principal_a)):
        a_sym, b_sym = psi.principal_a[m], psi.principal_b[m]
        if a_sym.is_zero() and b_sym.is_zero():
            continue
        nu = mpmath.pi * (s - 2 * m)
        damp = mpmath.exp(-nu * T)
        if not a_sym.is_zero():
            term = a_sym.numeric() * damp / nu
            acc += term
            amax = max(amax, abs(term))
        if not b_sym.is_zero():
            term = b_sym.numeric() * damp * (1 + nu * T) / nu**2
            acc += term
            amax = max(amax, abs(term))
    return acc, amax


def _tail_integral(j: int, mu, T):
    """∫_T^∞ t^j e^{-μt} dt = e^{-μT} Σ_{m≤j} (j!/m!) T^m μ^{m-j-1}."""
    damp = mpmath.exp(-mu * T)
    acc = mpmath.mpf(0)
    fact = math.factorial(j)
    for m in range(j + 1):
        acc += (fact // math.factorial(m)) * T**m * mu ** (m - j - 1)
    return damp * acc


def _series_tail(psi: PsiExpansion, s, T, cfg: EvalConfig):
    """Termwise ∫_T^∞ of the strictly-decaying part of ψ against e^{-πst}.

    Exponent e2/2 > 0 items only — everything at or below q^0 lives in the
    principal lists.  Terms shrink by e^{-πT} per half-step, so the loop
    stops once they fall below the 2^{-precision-8} budget; a window that
    runs out first is a genuine precision failure.
    """
    acc = mpmath.mpf(0)
    amax = mpmath.mpf(0)
    rem = mpmath.mpf(0)
    thresh = mpmath.mpf(2) ** (-cfg.precision - 8)
    rho = mpmath.exp(-mpmath.pi * T)
    for j, kappa, ser in _axis_parts(psi, cfg):
        below = 0
        last = mpmath.mpf(0)
        exhausted = True
        for e2, c in ser.items():
            if e2 <= 0:
                continue
            mu = mpmath.pi * (e2 + s)
            term = kappa * _mpr(c) * _tail_integral(j, mu, T)
            acc += term
            last = abs(term)
            amax = max(amax, last)
            if last < thresh * (1 + amax):
                below += 1
                if below >= 3:
                    exhausted = False
                    break
            else:
                below = 0
        if exhausted:
            rem += last * rho / (1 - rho)
    if rem > _tol(cfg) * (1 + amax):
        raise PrecisionLoss(
            f"series-tail remainder {mpmath.nstr(rem, 5)} at s={mpmath.nstr(s, 8)}: "
            "window too short for the requested precision"
        )
    return acc, amax, rem


def _pole_guard(psi: PsiExpansion, s, cfg: EvalConfig):
    m = int(mpmath.nint(s / 2))
    if m < 0 or m >= len(psi.principal_a):
        return
    if psi.principal_a[m].is_zero() and psi.principal_b[m].is_zero():
        return
    if abs(s - 2 * m) < _tol(cfg):
        raise PoleAt2k(f"s = {mpmath.nstr(s, 12)} inside the exclusion zone of the pole at {2 * m}")


def _W_pieces(psi: PsiExpansion, s, cfg: EvalConfig):
    """(value, error estimate) of W(s) from the three-piece split."""
    samples, deep = _quad_samples(psi, cfg)
    quad = mpmath.mpf(0)
    qmax = mpmath.mpf(0)
    for t, wpsi in samples:
        term = wpsi * mpmath.exp(-mpmath.pi * s * t)
        quad += term
        qmax = max(qmax, abs(term))
    closed, cmax = _closed_principal(psi, s, mpmath.mpf(cfg.split))
    tail, tmax, rem = _series_tail(psi, s, mpmath.mpf(cfg.split), cfg)
    eps = mpmath.mpf(2) ** (10 - mpmath.mp.prec)
    err = deep + rem + eps * (qmax * 32 + cmax + tmax)
    return quad + closed + tail, err


def eval_W(psi: PsiExpansion, s, cfg: EvalConfig = _DEFAULT) -> mpmath.mpf:
    """Analytic continuation of W(s) = -i∫₀^{i∞} ψ e^{iπsz} dz for
    s > -C/π away from the (at most) double poles at s = 0, 2, …, 2n."""
    with _ctx(cfg):
        s = _mpr(s) if isinstance(s, (Fraction, int)) else mpmath.mpf(s)
        if s <= -_mpr(psi.c_over_pi):
            raise ValueError(
                f"s = {mpmath.nstr(s, 8)} outside the continuation half-plane "
                f"Re s > {mpmath.nstr(-_mpr(psi.c_over_pi), 4)}"
            )
        _pole_guard(psi, s, cfg)
        val, _ = _W_pieces(psi, s, cfg)
        return val


def special_values(psi: PsiExpansion, m: int, cfg: EvalConfig = _DEFAULT):
    """Exact (U(2m), U'(2m)) = (-b_m, -π a_m), numerically substituted.

    Beyond the principal depth both vanish: sin²(πs/2) has a double zero and
    W stays regular there.
    """
    if m < 0:
        raise ValueError(f"special values live at nonnegative even integers, got m={m}")
    with _ctx(cfg):
        if m < len(psi.principal_a):
            a = psi.principal_a[m].numeric()
            b = psi.principal_b[m].numeric()
        else:
            a = b = mpmath.mpf(0)
        return -b, -mpmath.pi * a


def _eval_U_err(psi: PsiExpansion, s, cfg: EvalConfig):
    m = int(mpmath.nint(s / 2))
    if m >= 0 and abs(s - 2 * m) < _tol(cfg):
        return special_values(psi, m, cfg)[0], mpmath.mpf(0)
    w, werr = _W_pieces(psi, s, cfg)
    factor = -4 * mpmath.sin(mpmath.pi * s / 2) ** 2
    eps = mpmath.mpf(2) ** (10 - mpmath.mp.prec)
    return factor * w, abs(factor) * werr + eps * abs(factor * w)


def eval_U(psi: PsiExpansion, s, cfg: EvalConfig = _DEFAULT) -> mpmath.mpf:
    """U(s) = -4 sin²(πs/2) W(s), with the removable values at the even
    integers filled in exactly."""
    with _ctx(cfg):
        s = _mpr(s) if isinstance(s, (Fraction, int)) else mpmath.mpf(s)
        if s <= -_mpr(psi.c_over_pi):
            raise ValueError(
                f"s = {mpmath.nstr(s, 8)} outside the continuation half-plane"
            )
        val, _ = _eval_U_err(psi, s, cfg)
        return val


def eval_F(psi: PsiExpansion, r, cfg: EvalConfig = _DEFAULT) -> mpmath.mpf:
    """Radial profile F(r) = U(r²)."""
    with _ctx(cfg):
        r = _mpr(r) if isinstance(r, (Fraction, int)) else mpmath.mpf(r)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        return eval_U(psi, r * r, cfg)


# ---------------------------------------------------------------------------
# functional equations and sign certification
# ---------------------------------------------------------------------------


def functional_eq_check(psi: PsiExpansion, points, cfg: EvalConfig = _DEFAULT) -> mpmath.mpf:
    """Largest relative residual of the two eigenfunction criteria

        z^{d/2-2} ψ(-1/z - 1) - ε ψ(z+1)                         and
        2 z^{d/2-2} ψ(-1/z) - ε (ψ(z+1) - 2ψ(z) + ψ(z-1))

    over the sample points.  Every evaluation goes through the direct
    q-expansion — the S-path shortcut is never taken, so the identity is
    genuinely tested rather than assumed.  Each point and all four of its
    modular images must keep Im ≥ 0.4.

    Residuals are measured against the largest |ψ| over the five orbit
    values rather than against each equation's own sides: at special
    points (z = i for instance) individual sides vanish identically and
    a side-relative quotient would compare truncation noise to itself.
    """
    eps = psi.sign
    p = psi.d // 2 - 2
    with _ctx(cfg):
        tiny = mpmath.mpf(2) ** (-cfg.precision - 64)
        worst = mpmath.mpf(0)
        for z0 in points:
            z = mpmath.mpc(z0)
            images = (z, z + 1, z - 1, -1 / z, -1 / z - 1)
            low = min(w.imag for w in images)
            if low < mpmath.mpf("0.4") - mpmath.mpf(2) ** -30:
                raise BadSamplePoint(
                    f"z = {mpmath.nstr(z, 6)}: a modular image has Im = "
                    f"{mpmath.nstr(low, 6)} < 0.4"
                )
            v, vT, vTi, vS, vTS = (_psi_complex(psi, w, cfg) for w in images)
            zp = z**p
            lhs1, rhs1 = zp * vTS, eps * vT
            lhs2, rhs2 = 2 * zp * vS, eps * (vT - 2 * v + vTi)
            scale = max(
                abs(v), abs(vT), abs(vTi), abs(vS), abs(vTS),
                abs(lhs1), abs(lhs2), tiny,
            )
            r1 = abs(lhs1 - rhs1) / scale
            r2 = abs(lhs2 - rhs2) / scale
            worst = max(worst, r1, r2)
        return worst


def _certified_sign(val, err):
    if val > 8 * err:
        return 1
    if val < -8 * err:
        return -1
    return 0


def sign_change_certificate(psi: PsiExpansion, cfg: EvalConfig = _DEFAULT) -> dict:
    """Grid evidence that the last sign change of F sits at r* = √(2n).

    n is the principal depth; U(2n) = -b_n = 0 with U'(2n) = -π a_n ≠ 0, so
    the profile genuinely crosses there, and beyond it the lattice points
    carry exact double zeros.  The coarse grid walks r² from 2n - 1.9 to
    2n + 40 in steps of 1/20 (hitting every even integer exactly, where the
    removable value is used); a finer grid resolves ±0.1 around the
    crossing.  Every non-lattice value must carry a certified sign — above
    the crossing all one way, just below it the other — else SignAnomaly.
    This is sampled evidence on a finite window, not a proof.
    """
    with _ctx(cfg):
        n = psi.depth
        u0, du0 = special_values(psi, n, cfg)
        if abs(u0) > 0:
            raise SignAnomaly(f"U({2 * n}) = {mpmath.nstr(u0, 8)} ≠ 0: b_{n} does not vanish")
        if abs(du0) == 0:
            raise SignAnomaly(f"flat crossing: U'({2 * n}) = 0")
        base = Fraction(2 * n)
        coarse = [base - Fraction(19, 10) + Fraction(j, 20) for j in range(839)]
        fine = [base - Fraction(1, 10) + Fraction(j, 200) for j in range(41)]
        signs_below: list[int] = []
        signs_fine_below: list[int] = []
        signs_beyond: list[int] = []
        points = 0
        for s_exact in sorted(set(coarse + fine)):
            points += 1
            if s_exact.denominator == 1 and s_exact.numerator % 2 == 0:
                m = s_exact.numerator // 2
                lattice_val = special_values(psi, m, cfg)[0]
                if m >= n and abs(lattice_val) > 0:
                    raise SignAnomaly(
                        f"expected double zero at s={2 * m}, got {mpmath.nstr(lattice_val, 8)}"
                    )
                continue
            val, err = _eval_U_err(psi, _mpr(s_exact), cfg)
            sgn = _certified_sign(val, err)
            if sgn == 0:
                raise SignAnomaly(
                    f"cannot certify the sign at s={s_exact}: |{mpmath.nstr(val, 5)}| "
                    f"within 8× the error estimate {mpmath.nstr(err, 5)}"
                )
            if s_exact > base:
                signs_beyond.append(sgn)
            else:
                signs_below.append(sgn)
                if s_exact >= base - Fraction(1, 10):
                    signs_fine_below.append(sgn)
        if len(set(signs_beyond)) != 1:
            raise SignAnomaly("mixed signs beyond the expected last crossing")
        beyond = signs_beyond[0]
        if any(sgn == beyond for sgn in signs_fine_below):
            raise SignAnomaly("no sign change across the expected crossing")
        if len(set(signs_below)) != 1:
            raise SignAnomaly("unexpected extra sign change below the certified radius")
        return {
            "last_sign_change": mpmath.sqrt(mpmath.mpf(2 * n)),
            "grid_verdict": "certified",
            "lattice_index": n,
            "sign_below": signs_below[0],
            "sign_beyond": beyond,
            "crossing_derivative": du0,
            "points": points,
        }


# ---------------------------------------------------------------------------
# sample dumps
# ---------------------------------------------------------------------------


def write_profile_csv(psi: PsiExpansion, r_values, path, cfg: EvalConfig = _DEFAULT) -> int:
    """Dump r, F(r) and the per-point error estimate as plot-ready CSV.

    The error column combines the neglected quadrature mass, the termwise
    tail remainder, and roundoff scaled by the largest intermediate term —
    an estimate, not a proven bound.  Returns the number of data rows.
    """
    digits = int(cfg.precision * 0.302) + 2
    rows = []
    with _ctx(cfg):
        for r in r_values:
            rm = _mpr(r) if isinstance(r, (Fraction, int)) else mpmath.mpf(r)
            val, err = _eval_U_err(psi, rm * rm, cfg)
            rows.append(
                (
                    mpmath.nstr(rm, 17),
                    mpmath.nstr(val, digits, strip_zeros=False),
                    mpmath.nstr(err, 5),
                )
            )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "F", "residual_estimate"])
        writer.writerows(rows)
    return len(rows)
