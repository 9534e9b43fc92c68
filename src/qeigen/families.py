"""Weight-graded families f_w and φ_w built from three-term recurrences.

The plus and minus solvers pin one dimension at a time through linear
algebra on pole orders (the shared scaffold in pole.py).  This module
constructs the same forms a second, independent way: as two weight-indexed
sequences

    f_w = A + E2·B + E2²·C            (depth-2 quasimodular, weight w)
    φ_w = v + u·log λ                 (level-two object of weight w)

from exact initial data at weights {8, 12, 16} resp. {10, 14, 18} and a
rational three-term recurrence  f_{w+4} ∈ ⟨E4·f_w, E4²·f_{w−4}, Δ·f_{w−8}⟩.
The recurrence is derivative-free, so it acts componentwise on the (A, B, C)
triple and diagonally on the (v, u) pair; every component stays individually
exact, which the positivity pipeline depends on.  Third-order modular ODEs
(with their Serre-derivative reductions and the Rankin–Cohen descent) certify
the exact vanishing orders, and cross_validate maps a weight back to its
dimension and compares the recurrence form against the solver form
coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forms import (
    GeneratorId,
    IdentityViolation,
    QuasiForm,
    gen,
    generator,
    log_lambda,
    rankin_cohen,
)
from .linalg import kernel_basis
from .minus import minus_params, solve_minus
from .plus import plus_params, solve_plus
from .qseries import QSeries, rational


class WeightOutOfRange(ValueError):
    """Recurrence or descent invoked outside its proven weight range."""


class MismatchBeyondScalar(RuntimeError):
    """Recurrence form and solver form differ by more than a rational scalar."""


_STEP = 4
_MIN_TRUNC = 8


@dataclass(frozen=True)
class FamilyKey:
    """Which of the four sequences: kind ∈ {"f", "phi"}, residue = w mod 4."""

    kind: str
    residue: int

    def __post_init__(self) -> None:
        if self.kind not in ("f", "phi"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.residue not in (0, 2):
            raise ValueError(f"weight residue must be 0 or 2, got {self.residue}")

    @property
    def start_weight(self) -> int:
        return 8 if self.residue == 0 else 10

    @property
    def first_recurrence_weight(self) -> int:
        """Smallest valid recurrence parameter (the window top weight)."""
        return self.start_weight + 8


@dataclass(frozen=True)
class WeightIndexedForm:
    """One family member.

    For kind "f" the QuasiForm carries the full depth-2 triple and log_coeff
    is the zero series.  For kind "phi" the triple is depth 0 — only the slot
    A holds the half-integral series part v — and log_coeff holds the series
    u multiplying log λ (zero for the purely theta-polynomial members)."""

    key: FamilyKey
    weight: int
    form: QuasiForm
    log_coeff: QSeries

    def __post_init__(self) -> None:
        if self.weight % 4 != self.key.residue:
            raise ValueError(
                f"weight {self.weight} has residue {self.weight % 4}, "
                f"key says {self.key.residue}"
            )
        if self.key.kind == "phi" and self.form.depth() != 0:
            raise ValueError("level-two members must have a depth-0 triple")


@dataclass(frozen=True)
class CrossCheck:
    """Result of one family-vs-solver comparison.

    scalar is the exact rational with  family = scalar · Δ^p · solver-series
    (p the solver's pole bookkeeping power); residual_valuation2 is None when
    the match is exact on the shared window.  s_valuation2 (half-steps) is
    reported for the level-two family only."""

    d: int
    sign: str
    weight: int
    scalar: object
    residual_valuation2: int | None
    s_valuation2: int | None = None


# ---------------------------------------------------------------------------
# the (series, log λ coefficient) channel pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Pair:
    """u·log λ + v represented as channels (v, u); closed under q d/dq via
    (log λ)' = θ01⁴/2 and under multiplication by plain series."""

    ser: QSeries
    log: QSeries

    def derive(self, dlog: QSeries) -> "_Pair":
        return _Pair(self.ser.derive() + self.log * dlog, self.log.derive())

    def mul(self, m: QSeries) -> "_Pair":
        return _Pair(self.ser * m, self.log * m)

    def scale(self, r) -> "_Pair":
        return _Pair(self.ser.scale(r), self.log.scale(r))

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.ser + other.ser, self.log + other.log)

    def __sub__(self, other: "_Pair") -> "_Pair":
        return self + other.scale(-1)

    def valuation2(self) -> int | None:
        vals = [v for v in (self.ser.valuation2(), self.log.valuation2()) if v is not None]
        return min(vals, default=None)


def _pair_of(form: WeightIndexedForm) -> _Pair:
    if form.key.kind == "f":
        return _Pair(form.form.full_series(), form.log_coeff)
    return _Pair(form.form.A, form.log_coeff)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _f_initial(residue: int, n: int) -> list[tuple[int, QSeries, QSeries, QSeries, QSeries]]:
    """(w, A, B, C, second displayed closed form) for the three seeds."""
    e2 = gen("E2", n)
    e4 = gen("E4", n)
    e6 = gen("E6", n)
    delta = gen("Delta", n)
    e4sq, e6sq = e4 * e4, e6 * e6
    if residue == 0:
        s16 = rational("1/2540160000")
        return [
            (8, e4sq, e6.scale(-2), e4, e4.derive().derive().scale(Fraction(36, 5))),
            (
                12,
                e6sq.scale(rational("1/6000")),
                (e4 * e6).scale(rational("-1/3000")),
                e4sq.scale(rational("1/6000")),
                e4sq.derive().derive().scale(Fraction(1, 3000)) - delta.scale(Fraction(4, 25)),
            ),
            (
                16,
                (e4sq * e4sq).scale(-25 * s16) + (e4 * e6sq).scale(49 * s16),
                (e4sq * e6).scale(-48 * s16),
                (e4sq * e4).scale(49 * s16) + e6sq.scale(-25 * s16),
                ((e4sq * e4).scale(49) - e6sq.scale(25)).derive().derive().scale(
                    Fraction(1, 2751840000)
                )
                - (delta * e4).scale(Fraction(1, 45500)),
            ),
        ]
    # the weight-18 scale makes the E″-coefficient −144·μ₁₈/(15·14); the larger
    # display normalisation breaks the three-term recurrence against f₁₀, f₁₄
    s14, s18 = rational("-1/8400"), rational("-1/1995840000")
    return [
        (10, (e4 * e6).scale(-1), e4sq.scale(2), e6.scale(-1),
         e6.derive().derive().scale(Fraction(-24, 7))),
        (
            14,
            (e4sq * e6).scale(s14),
            ((e4sq * e4) + e6sq).scale(-s14),
            (e4 * e6).scale(s14),
            (e4 * e6).derive().derive().scale(Fraction(-3, 19250))
            - (e2 * delta).scale(Fraction(36, 875)),
        ),
        (
            18,
            ((e4sq * e4 * e6).scale(5) + (e6sq * e6).scale(7)).scale(s18),
            ((e4sq * e4sq).scale(5) + (e4 * e6sq).scale(19)).scale(-s18),
            (e4sq * e6).scale(12 * s18),
            (e4sq * e6).derive().derive().scale(Fraction(-1, 242550000))
            + (delta * (e6.scale(181) - (e2 * e4).scale(185))).scale(Fraction(1, 40425000)),
        ),
    ]


def _phi_initial(residue: int, n: int) -> list[tuple[int, QSeries, QSeries]]:
    """(w, v, u) for the three seeds; u multiplies log λ."""
    t01 = gen("Theta01_4", n)
    t10 = gen("Theta10_4", n)
    delta = gen("Delta", n)
    zero = QSeries.zero(2 * n)
    t01c = t01 * t01 * t01

    def theta_poly(coeffs) -> QSeries:
        """Σ coeffs[i] · t01^i · t10^(deg − i), ascending in the t01 power."""
        deg = len(coeffs) - 1
        acc = zero
        for i, c in enumerate(coeffs):
            if not c:
                continue
            term = QSeries.one(2 * n).scale(c)
            for _ in range(i):
                term = term * t01
            for _ in range(deg - i):
                term = term * t10
            acc = acc + term
        return acc

    if residue == 0:
        return [
            (8, t01c * theta_poly([2, 1]), zero),
            (
                12,
                (t01c * theta_poly([2, 3, 3, 1])).scale(rational("1/11200")),
                delta.scale(rational("8/175")),
            ),
            (
                16,
                (t01c * theta_poly([24, 60, 68, 42, 20, 5])).scale(rational("1/1419264000")),
                (delta * gen("E4", n)).scale(rational("1/231000")),
            ),
        ]
    return [
        (10, t01c * theta_poly([5, 5, 2]), zero),
        (14, (t01c * t01 * t01 * theta_poly([7, 7, 2])).scale(rational("1/13440")), zero),
        (
            18,
            (t01c * theta_poly([-12, -36, -13, 34, 68, 45, 10])).scale(
                rational("1/1845043200")
            ),
            (delta * gen("E6", n)).scale(rational("1/600600")),
        ),
    ]


def _f_order_targets(w: int) -> int:
    return w // 4 - 1 if w % 4 == 0 else (w - 6) // 4


def _check_f_member(form: WeightIndexedForm) -> None:
    full = form.form.full_series()
    want = 2 * _f_order_targets(form.weight)
    if full.valuation2() != want:
        raise IdentityViolation(
            f"f_{form.weight} has valuation {full.valuation2()}, expected {want}"
        )
    if form.form.g_series().valuation2() != 2:
        raise IdentityViolation(f"g-part of f_{form.weight} does not vanish to exactly q")
    if form.form.h_series().valuation2() != 0:
        raise IdentityViolation(f"h-part of f_{form.weight} has a vanishing constant term")


def _check_phi_member(form: WeightIndexedForm) -> None:
    v, u = form.form.A, form.log_coeff
    if v.valuation2() != 0:
        raise IdentityViolation(f"φ_{form.weight} does not have exact order 1 at q=0")
    # translation difference: the series channel 2·(odd part of v + u·odd part
    # of the log λ tail) must cancel at q^{1/2}; the πi-channel is u itself.
    n = v.trunc2 // 2 + 1
    tail_odd = log_lambda(n).tail.odd_part()
    rational_channel = v.odd_part() + u * tail_odd
    rv = rational_channel.valuation2()
    if rv is not None and rv < 3:
        raise IdentityViolation(
            f"φ_{form.weight}(z) − φ_{form.weight}(z+1) has a q^{{1/2}} term"
        )
    uv = u.valuation2()
    if uv is not None and uv < 2:
        raise IdentityViolation(f"log λ multiplier of φ_{form.weight} is not cuspidal")


def initial(key: FamilyKey, n_trunc: int) -> tuple[WeightIndexedForm, ...]:
    """The three seed forms, each verified against its companion closed form
    (f family) and against the exact leading-order requirements."""
    n = max(n_trunc, _MIN_TRUNC)
    out = []
    if key.kind == "f":
        for w, a, b, c, second in _f_initial(key.residue, n):
            member = WeightIndexedForm(key, w, QuasiForm(w, a, b, c), QSeries.zero(2 * n))
            full = member.form.full_series()
            diff = full - second
            if not diff.is_zero():
                raise IdentityViolation(
                    f"f_{w}: ansatz and derivative closed forms disagree "
                    f"first at half-step {diff.valuation2()}"
                )
            _check_f_member(member)
            out.append(member)
    else:
        zero = QSeries.zero(2 * n)
        for w, v, u in _phi_initial(key.residue, n):
            member = WeightIndexedForm(key, w, QuasiForm(w, v, zero, zero), u)
            _check_phi_member(member)
            out.append(member)
    return tuple(out)


# ---------------------------------------------------------------------------
# the recurrence
# ---------------------------------------------------------------------------


def _recurrence_coeffs(key: FamilyKey, w: int) -> tuple[int, Fraction, int]:
    """(c1, c2, den) with F_{w+4} = (c1·E4·F_w + c2·E4²·F_{w−4} + Δ·F_{w−8})/den."""
    if key.kind == "f":
        if key.residue == 0:
            c1 = 200 * (w - 8) * (w - 9) * (w * w - 15 * w + 38)
            c2 = Fraction(-5 * (w - 8) * (w - 12), 8)
            den = 16000 * (w + 2) * (w - 3) * (w - 5) * (w - 9) * (w - 10) * (w - 11)
        else:
            c1 = 200 * (w - 9) * (w - 10) * (w * w - 21 * w + 92)
            c2 = Fraction(-5 * (w - 10) * (w - 14), 8)
            den = 16000 * (w - 3) * (w - 4) * (w - 5) * (w - 9) * (w - 11) * (w - 16)
    elif key.residue == 0:
        c1 = 200 * (w - 6) * (w - 7) * (w * w - 11 * w + 12)
        c2 = Fraction(-5 * (w - 6) * (w - 10), 8)
        den = 16000 * (w + 4) * (w - 1) * (w - 3) * (w - 7) * (w - 8) * (w - 9)
    else:
        c1 = 200 * (w - 7) * (w - 8) * (w * w - 17 * w + 54)
        c2 = Fraction(-5 * (w - 8) * (w - 12), 8)
        den = 16000 * (w - 1) * (w - 2) * (w - 3) * (w - 7) * (w - 9) * (w - 14)
    return c1, c2, den


def next_form(
    key: FamilyKey, window: tuple[WeightIndexedForm, ...], w: int
) -> WeightIndexedForm:
    """Produce F_{w+4} from the window (F_w, F_{w−4}, F_{w−8})."""
    if w % 4 != key.residue or w < key.first_recurrence_weight:
        raise WeightOutOfRange(
            f"recurrence for {key.kind}/{key.residue} is proven from weight "
            f"{key.first_recurrence_weight} upward, got {w}"
        )
    if len(window) != 3 or [f.weight for f in window] != [w, w - 4, w - 8]:
        raise WeightOutOfRange(
            f"window weights {[f.weight for f in window]} do not match ({w}, {w-4}, {w-8})"
        )
    c1, c2, den = _recurrence_coeffs(key, w)
    if den == 0:
        raise WeightOutOfRange(f"recurrence denominator vanishes at weight {w}")

    t2 = min(m.form.A.trunc2 for m in window)
    n = t2 // 2 + 1
    e4 = generator(GeneratorId("E4"), n)
    e4sq = e4 * e4
    delta = generator(GeneratorId("Delta"), n)
    inv = Fraction(1, den)

    def combine(x0: QSeries, x1: QSeries, x2: QSeries) -> QSeries:
        s = (x0 * e4).scale(c1) + (x1 * e4sq).scale(c2) + x2 * delta
        return s.scale(inv).truncate2(min(t2, s.trunc2))

    f0, f1, f2 = window
    if key.kind == "f":
        triple = QuasiForm(
            w + 4,
            combine(f0.form.A, f1.form.A, f2.form.A),
            combine(f0.form.B, f1.form.B, f2.form.B),
            combine(f0.form.C, f1.form.C, f2.form.C),
        )
        log = QSeries.zero(triple.A.trunc2)
    else:
        v = combine(f0.form.A, f1.form.A, f2.form.A)
        log = combine(f0.log_coeff, f1.log_coeff, f2.log_coeff)
        z = QSeries.zero(v.trunc2)
        triple = QuasiForm(w + 4, v, z, z)
    return WeightIndexedForm(key, w + 4, triple, log)


def family(key: FamilyKey, w_top: int, n_trunc: int) -> list[WeightIndexedForm]:
    """All members of the sequence with start ≤ weight ≤ w_top."""
    if w_top < key.start_weight or w_top % 4 != key.residue:
        raise WeightOutOfRange(f"no {key.kind}-family member of weight {w_top}")
    members = list(initial(key, n_trunc))
    while members[-1].weight < w_top:
        w = members[-1].weight
        members.append(next_form(key, (members[-1], members[-2], members[-3]), w))
    return [m for m in members if m.weight <= w_top]


# ---------------------------------------------------------------------------
# differential-equation certificates
# ---------------------------------------------------------------------------


def _ode_gens(t2: int):
    n = t2 // 2 + 4
    e2 = generator(GeneratorId("E2"), n)
    e4 = generator(GeneratorId("E4"), n)
    e6 = generator(GeneratorId("E6"), n)
    dlog = gen("Theta01_4", n).scale(rational("1/2"))
    return e2, e4, e6, dlog


def ode_residual(
    form: WeightIndexedForm, which: str | None = None, parameter: int | None = None
) -> int | None:
    """Valuation (half-steps) of the ODE residual, or None when it vanishes
    to truncation.  Each residue class satisfies exactly one of the two
    equations, which is what ``which=None`` selects: ODE1 for the 0 mod 4
    weights and ODE2 for the 2 mod 4 ones.  The parameter defaults to the
    proven one: the weight itself for the f family, weight + 2 for the
    level-two family."""
    if which is None:
        which = "ODE1" if form.key.residue == 0 else "ODE2"
    if which not in ("ODE1", "ODE2"):
        raise ValueError(f"unknown differential equation {which!r}")
    p = parameter
    if p is None:
        p = form.weight + (2 if form.key.kind == "phi" else 0)
    e2, e4, e6, dlog = _ode_gens(form.form.A.trunc2)
    f0 = _pair_of(form)
    f1 = f0.derive(dlog)
    f2 = f1.derive(dlog)
    f3 = f2.derive(dlog)

    if which == "ODE1":
        res = (
            f3
            - f2.mul(e2).scale(Fraction(p, 4))
            + f1.mul(e4.scale(Fraction(p - 4, 4)) + e2.derive().scale(Fraction(p * (p - 1), 4)))
            - f0.mul(
                e4.derive().scale(Fraction((p - 2) * (p - 4), 16))
                + e2.derive().derive().scale(Fraction(p * (p - 1) * (p - 2), 24))
            )
        )
    else:
        e4d = e4.derive()
        e6d = e6.derive()
        res = (
            f3.mul(e6)
            - f2.mul((e4 * e4).scale(Fraction(p - 2, 4)) + e6d.scale(Fraction(p, 2)))
            + f1.mul(
                (e4 * e6).scale(Fraction(p - 6, 4))
                + (e4 * e4d).scale(Fraction((p - 1) * (p - 2), 8))
                + e6d.derive().scale(Fraction(p * (p - 1), 14))
            )
            - f0.mul(
                (e4 * e6d).scale(Fraction((p - 2) * (p - 6), 24))
                + (e4d * e4d).scale(Fraction(5 * (p - 8) * (p - 9) * (p - 10), 384))
                + (e4 * e4d.derive()).scale(
                    Fraction(p**3 + 105 * p**2 - 1162 * p + 3576, 480)
                )
                + e6d.derive().derive().scale(Fraction(p * (p - 1) * (p - 2), 336))
            )
        )
    return res.valuation2()


def _serre_pair(pair: _Pair, p: int, e2: QSeries, dlog: QSeries) -> _Pair:
    return pair.derive(dlog) - pair.mul(e2).scale(Fraction(p, 12))


def serre_step(form: WeightIndexedForm) -> tuple[QSeries, QSeries]:
    """One-step reduction equivalent to the three-term recurrence, expressed
    through iterated Serre derivatives; returns the (series, log λ) channels
    of F_{w+4}.  Independent via a second route: no window of three forms."""
    w, key = form.weight, form.key
    if key.kind == "f":
        c = (w - 5) * (w - 6) if key.residue == 0 else (w - 8) * (w - 9)
        den = (
            120 * (w + 2) * (w - 3) * (w - 5) * (w - 10)
            if key.residue == 0
            else 120 * (w - 3) * (w - 4) * (w - 5) * (w - 16)
        )
        p1, p2 = w - 2, w
    else:
        c = (w - 3) * (w - 4) if key.residue == 0 else (w - 6) * (w - 7)
        den = (
            120 * (w + 4) * (w - 1) * (w - 3) * (w - 8)
            if key.residue == 0
            else 120 * (w - 1) * (w - 2) * (w - 3) * (w - 14)
        )
        p1, p2 = w, w + 2
    if den == 0:
        raise WeightOutOfRange(f"Serre reduction denominator vanishes at weight {w}")
    e2, e4, _, dlog = _ode_gens(form.form.A.trunc2)
    pair = _pair_of(form)
    dd = _serre_pair(_serre_pair(pair, p1, e2, dlog), p2, e2, dlog)
    out = (pair.mul(e4).scale(c) - dd.scale(36)).scale(Fraction(1, den))
    return out.ser, out.log


# ---------------------------------------------------------------------------
# Rankin–Cohen descent
# ---------------------------------------------------------------------------


def _monomial_basis(weight: int, n: int) -> list[QSeries]:
    """The E4^a·E6^b monomials of the given weight (a full basis of the
    holomorphic forms of that weight at level one)."""
    if weight == 0:
        return [QSeries.one(2 * n)]
    if weight < 0:
        return []
    e4 = generator(GeneratorId("E4"), n)
    e6 = generator(GeneratorId("E6"), n)
    out = []
    for b in range(weight // 6 + 1):
        rem = weight - 6 * b
        if rem % 4:
            continue
        m = QSeries.one(2 * n)
        for _ in range(rem // 4):
            m = m * e4
        for _ in range(b):
            m = m * e6
        out.append(m)
    return out


def _quasiform_from_series(series: QSeries, weight: int) -> QuasiForm:
    """Recover the canonical (A, B, C) of a depth ≤ 2 quasimodular series.

    The components are unique, and each lives in a small space spanned by
    E4^a·E6^b monomials; matching initial coefficients therefore determines
    them, and the reconstruction is verified against the whole window."""
    n = series.trunc2 // 2
    e2 = generator(GeneratorId("E2"), n + 1)
    cols: list[QSeries] = []
    cols += _monomial_basis(weight, n)
    cols += [e2 * m for m in _monomial_basis(weight - 2, n)]
    cols += [e2 * e2 * m for m in _monomial_basis(weight - 4, n)]
    n_a = len(_monomial_basis(weight, 1))
    n_b = len(_monomial_basis(weight - 2, 1))
    rows_needed = len(cols) + 5
    if series.trunc2 < 2 * rows_needed:
        raise ValueError(
            f"window O(q^{series.trunc2 / 2}) too small to separate "
            f"{len(cols)} components of weight {weight}"
        )
    rows = [
        [c.coef(e) for c in cols] + [series.coef(e)] for e in range(rows_needed)
    ]
    kern = [v for v in kernel_basis(rows, len(cols) + 1) if v[-1]]
    if len(kern) != 1:
        raise IdentityViolation(
            f"series is not a depth ≤ 2 quasimodular form of weight {weight}"
        )
    coeffs = [-x / kern[0][-1] for x in kern[0][:-1]]

    def build(basis: list[QSeries], cs) -> QSeries:
        acc = QSeries.zero(series.trunc2)
        for b, c in zip(basis, cs):
            if c:
                acc = acc + b.scale(c).truncate2(series.trunc2)
        return acc

    a = build(_monomial_basis(weight, n), coeffs[:n_a])
    b = build(_monomial_basis(weight - 2, n), coeffs[n_a : n_a + n_b])
    c = build(_monomial_basis(weight - 4, n), coeffs[n_a + n_b :])
    out = QuasiForm(weight, a, b, c)
    check = out.full_series() - series
    if not check.is_zero():
        raise IdentityViolation(
            f"component reconstruction fails first at half-step {check.valuation2()}"
        )
    return out


def rc_descend(form: WeightIndexedForm) -> QuasiForm:
    """(1/Δ)·([F_w, E4]₂ + (5/3)·[F_w, E6]₁) with the weight-(w−2) bracket
    convention; lowers an f-family member to the canonical triple of weight
    w − 4."""
    if form.key.kind != "f":
        raise WeightOutOfRange("the bracket descent acts on the quasimodular family")
    w = form.weight
    if w < 12:
        raise WeightOutOfRange(f"descent target weight {w - 4} is below the family start")
    s = form.form.full_series()
    n = s.trunc2 // 2 + 4
    e4 = generator(GeneratorId("E4"), n)
    e6 = generator(GeneratorId("E6"), n)
    delta = generator(GeneratorId("Delta"), n)
    bracket = rankin_cohen(s, e4, 2, w - 2, 4) + rankin_cohen(s, e6, 1, w - 2, 6).scale(
        Fraction(5, 3)
    )
    return _quasiform_from_series(bracket * delta.invert(), w - 4)


# ---------------------------------------------------------------------------
# solver cross-validation
# ---------------------------------------------------------------------------


def weight_of_dimension(d: int, sign: str) -> tuple[FamilyKey, int]:
    """Map a dimension/sign pair to its family member."""
    if sign == "plus":
        p = plus_params(d)
        w = 12 * p.n + 2 * p.k + 4
        return FamilyKey("f", w % 4), w
    if sign == "minus":
        m = minus_params(d)
        w = 12 * m.n + 2 * m.k + 12
        return FamilyKey("phi", w % 4), w
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def _match(name: str, d: int, fam: QSeries, target: QSeries, scalar) -> None:
    diff = fam - target.scale(scalar)
    if not diff.is_zero():
        raise MismatchBeyondScalar(
            f"d={d}: {name} channels differ first at half-step {diff.valuation2()}"
        )


def _leading_ratio(fam: QSeries, target: QSeries):
    v = target.valuation2()
    return fam.coef2(v) / target.coef2(v)


def cross_validate(d: int, n_trunc: int = 48) -> tuple[CrossCheck, CrossCheck]:
    """Compare both recurrence forms against both solver forms for one
    dimension; raises MismatchBeyondScalar unless each pair agrees exactly
    up to a single rational scalar."""
    checks = []

    key, w = weight_of_dimension(d, "plus")
    fam = family(key, w, n_trunc)[-1]
    sol = solve_plus(d, n_trunc)
    dpow = generator(GeneratorId("Delta"), n_trunc) ** sol.params.n_plus
    t_a, t_b, t_c = sol.psi1 * dpow, (sol.psi2 * dpow).scale(-2), sol.psi3 * dpow
    scalar = _leading_ratio(fam.form.C, t_c)
    if not scalar:
        raise MismatchBeyondScalar(f"d={d}: depth-2 component collapsed")
    _match("A", d, fam.form.A, t_a, scalar)
    _match("B", d, fam.form.B, t_b, scalar)
    _match("C", d, fam.form.C, t_c, scalar)
    checks.append(CrossCheck(d, "plus", w, scalar, None))

    key, w = weight_of_dimension(d, "minus")
    fam = family(key, w, n_trunc)[-1]
    msol = solve_minus(d, n_trunc)
    dpow = generator(GeneratorId("Delta"), n_trunc) ** msol.params.n_minus
    t_v, t_u = msol.omega_series * dpow, msol.f_series * dpow
    scalar = _leading_ratio(fam.form.A, t_v)
    if not scalar:
        raise MismatchBeyondScalar(f"d={d}: series channel collapsed")
    _match("series", d, fam.form.A, t_v, scalar)
    _match("log λ", d, fam.log_coeff, t_u, scalar)
    s_val = msol.psiS_series.valuation2()
    if s_val is None:
        raise MismatchBeyondScalar(f"d={d}: S-side series vanished identically")
    s_val += 2 * msol.params.n_minus
    want = (w - 2) // 2 if w % 4 == 0 else (w - 4) // 2
    if s_val != want:
        raise MismatchBeyondScalar(
            f"d={d}: S-side vanishes to half-step {s_val}, the ansatz demands {want}"
        )
    checks.append(CrossCheck(d, "minus", w, scalar, None, s_val))
    return tuple(checks)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def family_records(key: FamilyKey, w_top: int, n_trunc: int) -> list[dict]:
    """JSON-ready {w, A, B, C} records.  For the level-two family A holds the
    series part, B the log λ coefficient, and C is zero."""
    out = []
    for m in family(key, w_top, n_trunc):
        if key.kind == "f":
            a, b, c = m.form.A, m.form.B, m.form.C
        else:
            a, b, c = m.form.A, m.log_coeff, m.form.C
        out.append({"w": m.weight, "A": a.to_json(), "B": b.to_json(), "C": c.to_json()})
    return out
