"""Generator catalog and form-level calculus.

This module produces exact q-expansions of the level-one generators
(E2, E4, E6, Δ, j, j'), the level-two theta fourth powers, the Hauptmodul
λ with its logarithm, the weakly holomorphic basis forms ω_m, and the
half-integral building blocks χ_i^{(k)}; and it implements the calculus
used downstream: Serre derivatives on quasimodular triples, Rankin–Cohen
brackets, and the identity suite that pins all derivative formulas.

Conventions: ' denotes q d/dq = (2πi)⁻¹ d/dz.  All series are produced
with window O(q^N) for the requested integer N (internally computed with
head-room so divisions do not shrink the window).  :func:`generator`
memoises each (series, N) in memory for the life of the process; nothing is
stored on disk.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .qseries import QSeries, rational


class InvalidWeight(ValueError):
    """Eisenstein weight must be a positive even integer."""


class InvalidId(ValueError):
    """Unknown generator identifier."""


class IdentityViolation(ValueError):
    """A pinned series identity failed at some exponent."""


# ---------------------------------------------------------------------------
# arithmetic helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int):
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return rational(1)
    if n == 1:
        return rational("-1/2")
    if n % 2:
        return rational(0)
    acc = rational(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def sigma_list(p: int, n: int) -> list[int]:
    """Divisor sums: entry k is σ_p(k) for 1 ≤ k < n (entry 0 unused)."""
    out = [0] * max(n, 1)
    for d in range(1, n):
        dp = d**p
        for m in range(d, n, d):
            out[m] += dp
    return out


def r4_list(n: int) -> list[int]:
    """Four-square representation counts r4(k) for 0 ≤ k < n."""
    s1 = sigma_list(1, n)
    out = [0] * max(n, 1)
    out[0] = 1
    for k in range(1, n):
        out[k] = 8 * s1[k] - (32 * s1[k // 4] if k % 4 == 0 else 0)
    return out


# ---------------------------------------------------------------------------
# generator catalog
# ---------------------------------------------------------------------------

_PAD = 8  # head-room so internal divisions still cover the requested window


def eisenstein(k2: int, n: int) -> QSeries:
    """Eisenstein series E_{k2} = 1 − (2·k2/B_{k2}) Σ σ_{k2−1}(m) q^m  (O(q^n))."""
    if k2 < 2 or k2 % 2:
        raise InvalidWeight(f"Eisenstein weight must be even and >= 2, got {k2}")
    s = sigma_list(k2 - 1, n)
    factor = -rational(2 * k2) / bernoulli(k2)
    coeffs = [rational(1)] + [factor * s[m] for m in range(1, n)]
    return QSeries.from_int_coeffs(0, coeffs, n)


def _delta_eisenstein(n: int) -> QSeries:
    e4 = eisenstein(4, n)
    e6 = eisenstein(6, n)
    return (e4**3 - e6**2) / 1728


def _euler_phi(n: int) -> QSeries:
    """Euler's function Π(1−q^m) via the pentagonal number theorem."""
    coeffs = [0] * n
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= n and e2 >= n:
            break
        sign = -1 if k % 2 else 1
        if e1 < n:
            coeffs[e1] += sign
        if e2 < n:
            coeffs[e2] += sign
        k += 1
    coeffs[0] += 1
    return QSeries.from_int_coeffs(0, coeffs, n)


def delta_from_eta(n: int) -> QSeries:
    """Δ = q Π(1−q^m)^24, the independent product-formula oracle."""
    return _euler_phi(n).__pow__(24).shift2(2).truncate2(2 * n)


def _theta00_4(n: int) -> QSeries:
    r4 = r4_list(2 * n)
    return QSeries(0, [rational(v) for v in r4], 2 * n, 1)


def _theta01_4(n: int) -> QSeries:
    r4 = r4_list(2 * n)
    return QSeries(0, [rational(-v if k % 2 else v) for k, v in enumerate(r4)], 2 * n, 1)


def _theta10_4(n: int) -> QSeries:
    r4 = r4_list(2 * n)
    return QSeries(
        0, [rational(2 * v if k % 2 else 0) for k, v in enumerate(r4)], 2 * n, 1
    )


def _build(name: str, arg: tuple, n: int) -> QSeries:
    m = n + _PAD
    if name == "E2":
        return eisenstein(2, n)
    if name == "E4":
        return eisenstein(4, n)
    if name == "E6":
        return eisenstein(6, n)
    if name == "E2k":
        return eisenstein(arg[0], n)
    if name == "Delta":
        d1 = _delta_eisenstein(n)
        d2 = delta_from_eta(n)
        if d1 != d2:
            raise IdentityViolation("Delta: Eisenstein and eta-product formulas disagree")
        return d1
    if name == "J":
        return (eisenstein(4, m) ** 3 / _delta_eisenstein(m)).truncate2(2 * n)
    if name == "JPrime":
        e4 = eisenstein(4, m)
        return (-(e4 * e4) * eisenstein(6, m) / _delta_eisenstein(m)).truncate2(2 * n)
    if name == "Theta00_4":
        return _theta00_4(n)
    if name == "Theta01_4":
        return _theta01_4(n)
    if name == "Theta10_4":
        return _theta10_4(n)
    if name == "Lambda":
        return (_theta10_4(m) / _theta00_4(m)).truncate2(2 * n)
    if name == "Omega":
        k = arg[0]
        if k == 0:
            return QSeries.one(2 * n)
        if k == 1:
            e4 = eisenstein(4, m)
            return (e4 * e4 * eisenstein(6, m) / _delta_eisenstein(m)).truncate2(2 * n)
        if k == 2:
            return eisenstein(4, n)
        if k == 3:
            return eisenstein(6, n)
        if k == 4:
            return eisenstein(4, n) ** 2
        if k == 5:
            return eisenstein(4, n) * eisenstein(6, n)
        if k == 6:
            return generator(GeneratorId("Delta"), n)
        if k == 7:
            return eisenstein(4, n) ** 2 * eisenstein(6, n)
    if name == "Chi":
        return _chi(arg[0], arg[1], n)
    raise InvalidId(f"no builder for generator {name!r}")


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# numerator coefficients (ascending in λ) and pole orders (a, b) such that
# χ_i^(k) = θ00^{4k} · N(λ) / (λ^a (1−λ)^b); factors multiplied out at import
_CHI_TABLE: dict[tuple[int, int], tuple[list[int], int, int]] = {
    (1, 0): (_poly_mul(_poly_mul([1, 1], [1, -1]), [1, -1, 1]), 2, 0),
    (2, 0): (_poly_mul([1, 1], [1, -1, 1]), 1, 1),
    (1, 1): ([1, -1], 0, 0),
    (2, 1): (
        _poly_mul(_poly_mul(_poly_mul([1, -1], [1, -1]), [1, -1]), [2, 3, 2]),
        2,
        0,
    ),
    (1, 2): ([1, 0, -1], 0, 0),
    (2, 2): (_poly_mul([1, 1], [1, 3, -7, 3, 1]), 1, 1),
    (1, 3): (_poly_mul([1, -1], [1, -1, 1]), 0, 0),
    (2, 3): (_poly_mul([1, -1, 1], [1, 3, -10, 3, 1]), 1, 1),
    (1, 4): (_poly_mul(_poly_mul([0, 1], [1, 1]), [1, -1]), 0, 0),
    (2, 4): (_poly_mul([1, 1], [1, -1, 1, -1, 1, -1, 1]), 1, 1),
    (1, 5): (_poly_mul(_poly_mul([0, 1], [1, -1]), [1, -4, 1]), 0, 0),
    (2, 5): ([1, 0, 0, -32, 60, -32, 0, 0, 1], 1, 1),
}


def eval_poly(coeffs, x: QSeries) -> QSeries:
    """Horner evaluation of Σ coeffs[i]·x^i on the window of x."""
    acc = QSeries.const(coeffs[-1], x.trunc2)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + QSeries.const(c, x.trunc2)
    return acc


def chi_fraction(i: int, k: int) -> tuple[tuple[int, ...], int, int]:
    """Numerator coefficients (ascending in λ) and pole orders (a, b) of
    χ_i^(k) / θ00^{4k} = N(λ) / (λ^a (1−λ)^b)."""
    if (i, k) not in _CHI_TABLE:
        raise InvalidId(f"chi index (i={i}, k={k}) outside the catalog")
    num, a, b = _CHI_TABLE[(i, k)]
    return tuple(num), a, b


def _chi(i: int, k: int, n: int) -> QSeries:
    num, a, b = chi_fraction(i, k)
    m = n + _PAD
    th00 = _theta00_4(m)
    lam = (_theta10_4(m) / th00).truncate2(2 * m)
    out = eval_poly(num, lam)
    if a:
        out = out / lam**a
    if b:
        out = out / (QSeries.one(2 * m) - lam) ** b
    if k:
        out = out * th00**k
    return out.truncate2(2 * n)


@dataclass(frozen=True)
class GeneratorId:
    """Identifier for a catalog series; ``arg`` carries Omega's m, Chi's (i, k),
    or E2k's weight."""

    name: str
    arg: tuple[int, ...] = ()

    def __post_init__(self):
        plain = {
            "E2",
            "E4",
            "E6",
            "Delta",
            "J",
            "JPrime",
            "Theta00_4",
            "Theta01_4",
            "Theta10_4",
            "Lambda",
        }
        if self.name in plain:
            if self.arg:
                raise InvalidId(f"{self.name} takes no argument")
        elif self.name == "E2k":
            if len(self.arg) != 1 or self.arg[0] < 2 or self.arg[0] % 2:
                raise InvalidId(f"E2k needs one even weight >= 2, got {self.arg}")
        elif self.name == "Omega":
            if len(self.arg) != 1 or not 0 <= self.arg[0] <= 7:
                raise InvalidId(f"Omega index must be 0..7, got {self.arg}")
        elif self.name == "Chi":
            if len(self.arg) != 2 or self.arg[0] not in (1, 2) or not 0 <= self.arg[1] <= 5:
                raise InvalidId(f"Chi needs (i in 1..2, k in 0..5), got {self.arg}")
        else:
            raise InvalidId(f"unknown generator name {self.name!r}")

    def key(self) -> str:
        return "_".join([self.name, *map(str, self.arg)])


_MEMO: dict[tuple[str, int], QSeries] = {}
_MEMO_LOCK = threading.Lock()


def generator(gid: GeneratorId, n: int) -> QSeries:
    """Exact expansion of a catalog series with window O(q^n), memoised in
    memory for the life of the process."""
    key = (gid.key(), n)
    with _MEMO_LOCK:
        hit = _MEMO.get(key)
    if hit is not None:
        return hit
    s = _build(gid.name, gid.arg, n)
    with _MEMO_LOCK:
        _MEMO[key] = s
    return s


def gen(name: str, n: int, *arg: int) -> QSeries:
    """Shorthand: gen("Omega", 64, 3) == generator(GeneratorId("Omega", (3,)), 64)."""
    return generator(GeneratorId(name, tuple(arg)), n)


# ---------------------------------------------------------------------------
# log λ
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogLambda:
    """log λ(z) = πi·z + 4·ln 2 + tail(q); the two constants stay symbolic."""

    z_coeff: str  # literally "πi"
    log2_mult: object  # exact rational multiplier of ln 2
    tail: QSeries


def log_lambda(n: int) -> LogLambda:
    """Cusp expansion log λ = πiz + 4 ln2 + Σ_{k≥1} (−1)^k r4(k)/k q^{k/2}."""
    r4 = r4_list(2 * n)
    coeffs = [rational((-1) ** k * r4[k]) / k for k in range(1, 2 * n)]
    return LogLambda("πi", rational(4), QSeries(1, coeffs, 2 * n, 1))


def log_lambda_S(n: int) -> QSeries:
    """Expansion of log λ(Sz) = −16 Σ_{k≥0} σ1(2k+1)/(2k+1) q^{k+1/2}."""
    s1 = sigma_list(1, 2 * n)
    coeffs = []
    for e2 in range(1, 2 * n):
        if e2 % 2:
            coeffs.append(rational(-16 * s1[e2]) / e2)
        else:
            coeffs.append(rational(0))
    return QSeries(1, coeffs, 2 * n, 1)


# ---------------------------------------------------------------------------
# quasimodular triples and derivative calculus
# ---------------------------------------------------------------------------


def serre_modular(f: QSeries, w, e2: QSeries | None = None) -> QSeries:
    """∂_w f = f' − (w/12) E2 f on plain series."""
    if e2 is None:
        e2 = _e2_matching(f)
    return f.derive() - (e2 * f).scale(rational(w) / 12)


def _e2_matching(*series: QSeries) -> QSeries:
    """E2 on a window wide enough that products keep the operands' windows."""
    t2 = max(s.trunc2 for s in series)
    lo2 = min(0, min(s.lo2 for s in series))
    n = (t2 - lo2 + 1) // 2 + 1
    return generator(GeneratorId("E2"), max(n, 1))


@dataclass(frozen=True)
class QuasiForm:
    """Quasimodular form of depth ≤ 2: A + E2·B + E2²·C with modular A, B, C
    of weights w, w−2, w−4."""

    weight: int
    A: QSeries
    B: QSeries
    C: QSeries

    def depth(self) -> int:
        if not self.C.is_zero():
            return 2
        if not self.B.is_zero():
            return 1
        return 0

    def full_series(self) -> QSeries:
        """The honest q-expansion A + E2 B + E2² C."""
        t2 = min(self.A.trunc2, self.B.trunc2, self.C.trunc2)
        e2 = _e2_matching(self.A, self.B, self.C)
        out = self.A + e2 * self.B + e2 * e2 * self.C
        return out.truncate2(min(t2, out.trunc2))

    def g_series(self) -> QSeries:
        """Weight-(w−2) companion −B/2 − E2·C (the ψ2 − E2ψ3 reduction)."""
        e2 = _e2_matching(self.B, self.C)
        out = self.B.scale(rational("-1/2")) - e2 * self.C
        return out.truncate2(min(self.B.trunc2, self.C.trunc2, out.trunc2))

    def h_series(self) -> QSeries:
        """Weight-(w−4) component C."""
        return self.C

    def map(self, fn) -> "QuasiForm":
        return QuasiForm(self.weight, fn(self.A), fn(self.B), fn(self.C))

    def __add__(self, other: "QuasiForm") -> "QuasiForm":
        if self.weight != other.weight:
            raise ValueError(
                f"cannot add quasiforms of weights {self.weight} and {other.weight}"
            )
        return QuasiForm(
            self.weight, self.A + other.A, self.B + other.B, self.C + other.C
        )

    def __sub__(self, other: "QuasiForm") -> "QuasiForm":
        return self + other.scale(-1)

    def scale(self, r) -> "QuasiForm":
        return self.map(lambda s: s.scale(r))

    def is_zero(self) -> bool:
        return self.A.is_zero() and self.B.is_zero() and self.C.is_zero()


def serre_derivative(f: QuasiForm) -> QuasiForm:
    """Serre derivative on a depth ≤ 2 triple: weight rises by 2, depth does
    not increase beyond 2.

    A depth-0 form gets the plain modular operator ∂_w (no E2 component is
    produced); at depth ≥ 1 the operator is ∂_{w−2} expressed on components:
        A ↦ ∂_w A − E4 B/12,
        B ↦ A/6 + ∂_{w−2} B − E4 C/6,
        C ↦ B/12 + ∂_{w−4} C.
    """
    w = f.weight
    e2 = _e2_matching(f.A, f.B, f.C)
    e4 = generator(GeneratorId("E4"), (e2.trunc2 + 1) // 2)
    dA = f.A.derive() - (e2 * f.A).scale(rational(w) / 12)
    if f.depth() == 0:
        t2 = f.A.trunc2
        return QuasiForm(
            w + 2,
            dA.truncate2(min(t2, dA.trunc2)),
            QSeries.zero(t2),
            QSeries.zero(t2),
        )
    dB = f.B.derive() - (e2 * f.B).scale(rational(w - 2) / 12)
    dC = f.C.derive() - (e2 * f.C).scale(rational(w - 4) / 12)
    a1 = dA - (e4 * f.B).scale(rational(1) / 12)
    b1 = f.A.scale(rational(1) / 6) + dB - (e4 * f.C).scale(rational(1) / 6)
    c1 = f.B.scale(rational(1) / 12) + dC
    t2 = min(f.A.trunc2, f.B.trunc2, f.C.trunc2)
    return QuasiForm(
        w + 2,
        a1.truncate2(min(t2, a1.trunc2)),
        b1.truncate2(min(t2, b1.trunc2)),
        c1.truncate2(min(t2, c1.trunc2)),
    )


def rankin_cohen(f: QSeries, g: QSeries, n: int, k: int, l: int) -> QSeries:
    """[f,g]_n^{(k,l)} = Σ_{i=0}^n (−1)^i C(n+k−1, n−i) C(n+l−1, i) f^(i) g^(n−i)."""
    if n < 0:
        raise ValueError("bracket order must be nonnegative")
    df = [f]
    dg = [g]
    for _ in range(n):
        df.append(df[-1].derive())
        dg.append(dg[-1].derive())
    out = None
    for i in range(n + 1):
        term = (df[i] * dg[n - i]).scale((-1) ** i * comb(n + k - 1, n - i) * comb(n + l - 1, i))
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def ramanujan_suite(n: int, *, e2: QSeries | None = None, e4: QSeries | None = None,
                    e6: QSeries | None = None) -> dict[str, int | None]:
    """Verify the full derivative catalog to O(q^n).

    Returns {identity: residual valuation in half-steps or None if the
    residual vanishes}; raises IdentityViolation on the first failure.
    The keyword overrides exist for fault injection in tests.
    """
    if e2 is None:
        e2 = generator(GeneratorId("E2"), n)
    if e4 is None:
        e4 = generator(GeneratorId("E4"), n)
    if e6 is None:
        e6 = generator(GeneratorId("E6"), n)
    th00 = gen("Theta00_4", n)
    th01 = gen("Theta01_4", n)
    th10 = gen("Theta10_4", n)
    lam = gen("Lambda", n)
    half = rational("1/2")
    residuals = {
        "E2'": e2.derive() - (e2 * e2 - e4).scale(rational(1) / 12),
        "E4'": e4.derive() - (e2 * e4 - e6).scale(rational(1) / 3),
        "E6'": e6.derive() - (e2 * e6 - e4 * e4).scale(half),
        "lambda'": lam.derive() - (th01 * lam).scale(half),
        "theta00_4'": th00.derive()
        - (e2 * th00 - th01 * th01 + th10 * th10).scale(rational(1) / 6),
        "theta01_4'": th01.derive()
        - (e2 * th01 - th01 * th01 - (th01 * th10).scale(2)).scale(rational(1) / 6),
        "theta10_4'": th10.derive()
        - (e2 * th10 + (th01 * th10).scale(2) + th10 * th10).scale(rational(1) / 6),
        "jacobi": th01 + th10 - th00,
    }
    report: dict[str, int | None] = {}
    for name, res in residuals.items():
        v2 = res.valuation2()
        report[name] = v2
        if v2 is not None:
            e = Fraction(v2, 2)
            raise IdentityViolation(f"identity {name} fails first at q^{e}")
    return report


def dim_modular(k: int) -> int:
    """dim M_k(SL2(Z)) for even k ≥ 0."""
    if k < 0 or k % 2:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


def dim_cusp(k: int) -> int:
    """dim S_k(SL2(Z))."""
    if k < 4:
        return 0
    return dim_modular(k) - 1
