"""Unit and property tests for the exact q-series core."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeigen.qseries import (
    QSeries,
    TruncationTooSmall,
    ZeroLeadingCoefficient,
    _convolve_int_kronecker,
    rational,
    valuation,
)
from qeigen.forms import log_lambda


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)


@st.composite
def series(draw, min_len=0, max_len=12, step=None):
    if step is None:
        step = draw(st.sampled_from([1, 2]))
    lo2 = draw(st.integers(min_value=-8, max_value=8))
    if step == 2 and lo2 % 2:
        lo2 += 1
    coeffs = draw(st.lists(rationals, min_size=min_len, max_size=max_len))
    trunc2 = lo2 + step * max(1, len(coeffs)) + draw(st.integers(0, 4)) * step
    return QSeries(lo2, [rational(c) for c in coeffs], trunc2, step)


def geometric(trunc: int) -> QSeries:
    return QSeries.from_int_coeffs(0, [1] * trunc, trunc)


# ---------------------------------------------------------------------------
# reference implementations (the oracles for the Kronecker kernel and the
# Newton inversion)
# ---------------------------------------------------------------------------


def schoolbook(ca, cb, want_len):
    out = [Fraction(0)] * want_len
    for j, bj in enumerate(cb):
        for i in range(min(len(ca), want_len - j)):
            out[i + j] += ca[i] * bj
    return out


def recurrence_inverse(a: QSeries) -> QSeries:
    """The quadratic recurrence b_k = −(Σ_{j≥1} a_j b_{k−j}) / a_0."""
    length = (a.trunc2 - a.lo2 + a.step - 1) // a.step
    c = a.c + [Fraction(0)] * (length - len(a.c))
    b = [1 / c[0]]
    for k in range(1, length):
        b.append(-sum(c[j] * b[k - j] for j in range(1, k + 1)) / c[0])
    return QSeries(-a.lo2, b, a.trunc2 - 2 * a.lo2, a.step)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


def test_basic_product():
    one_plus = QSeries.from_int_coeffs(0, [1, 1], 8)
    one_minus = QSeries.from_int_coeffs(0, [1, -1], 8)
    p = one_plus * one_minus
    assert p.coef(0) == 1
    assert p.coef(1) == 0
    assert p.coef(2) == -1
    assert p.trunc2 == 16


def test_unit_promotion_and_half_exponents():
    a = QSeries.q_power(-2, 12)  # q^-1
    b = QSeries.q_power(1, 12)  # q^(1/2)
    s = a + b
    assert s.step == 1
    assert s.coef(-1) == 1
    assert s.coef(Fraction(1, 2)) == 1
    assert s.coef(0) == 0
    # promoting and tightening round-trips
    assert s.even_part().to_integer_step().step == 2


def test_trim_advances_lo():
    a = QSeries.from_int_coeffs(0, [0, 0, 3, 0], 10)
    assert a.lo2 == 4
    assert a.valuation2() == 4
    assert valuation(a) == 2


def test_zero_series_and_valuation():
    z = QSeries.zero(10)
    assert z.is_zero()
    assert z.valuation2() is None
    assert valuation(z) is None
    s = QSeries.from_int_coeffs(0, [1, 2], 5)
    assert (s - s).is_zero()


def test_coef_beyond_window_raises():
    a = QSeries.from_int_coeffs(0, [1, 1], 3)
    with pytest.raises(TruncationTooSmall):
        a.coef(3)
    assert a.coef(2) == 0  # inside window, known zero


def test_truncate_cannot_extend():
    a = QSeries.from_int_coeffs(0, [1, 1], 3)
    with pytest.raises(TruncationTooSmall):
        a.truncate2(8)
    b = a.truncate2(2)
    assert b.trunc2 == 2
    with pytest.raises(TruncationTooSmall):
        b.coef(1)


def test_mul_window_rule():
    # a = q^2 + O(q^5), b = 1 + O(q^3): product window is q^2..q^5
    a = QSeries.from_int_coeffs(2, [1], 5)
    b = QSeries.from_int_coeffs(0, [1], 3)
    p = a * b
    assert p.trunc2 == 2 * 5
    assert p.coef(2) == 1


def test_invert_geometric():
    g = geometric(16)
    inv = g.invert()
    # 1/(1+q+q^2+...) = 1-q
    assert inv.coef(0) == 1
    assert inv.coef(1) == -1
    assert all(inv.coef(k) == 0 for k in range(2, 16))


def test_invert_with_pole():
    a = QSeries.from_int_coeffs(1, [1, -24], 9)  # q - 24 q^2 + O(q^9)
    inv = a.invert()
    assert inv.valuation2() == -2
    assert inv.coef(-1) == 1
    assert inv.coef(0) == 24
    assert inv.trunc2 == a.trunc2 - 2 * a.lo2


def test_invert_zero_raises():
    with pytest.raises(ZeroLeadingCoefficient):
        QSeries.zero(6).invert()


def test_pow_matches_repeated_mul():
    a = QSeries.from_int_coeffs(0, [1, 3, -2, 5], 9)
    p = a
    for n in range(2, 6):
        p = p * a
        assert a**n == p


def test_pow_zero_keeps_window():
    a = QSeries.from_int_coeffs(1, [7], 5)
    e = a**0
    assert e.coef(0) == 1
    assert e.trunc2 == a.trunc2


def test_negative_pow():
    a = QSeries.from_int_coeffs(0, [1, 1], 8)
    assert a**-2 == (a * a).invert()


def test_derive_basics():
    a = QSeries.q_power(3, 9)  # q^(3/2)
    d = a.derive()
    assert d.coef(Fraction(3, 2)) == Fraction(3, 2)
    c = QSeries.const(5, 7)
    assert c.derive().is_zero()


def test_t_map_flips_half_integer_terms():
    s = QSeries.q_power(1, 7) + QSeries.q_power(2, 7)
    t = s.t_map()
    assert t.coef(Fraction(1, 2)) == -1
    assert t.coef(1) == 1
    assert s.t_map().t_map() == s


def test_odd_even_split():
    s = QSeries.q_power(1, 9) + QSeries.q_power(2, 9).scale(3)
    assert s.odd_part().coef(Fraction(1, 2)) == 1
    assert s.even_part().coef(1) == 3
    assert (s.odd_part() + s.even_part()) == s
    # t-map is even - odd
    assert s.t_map() == s.even_part() - s.odd_part()


def test_to_json_integer_and_half():
    a = QSeries.from_int_coeffs(-1, [1, 744, 196884], 4)
    assert a.to_json() == {
        "unit": "1", "lo": -1, "trunc": 4, "coeffs": ["1/1", "744/1", "196884/1"]
    }
    b = QSeries(1, [rational("16"), rational("-128/3")], 6, 1)
    assert b.to_json() == {"unit": "1/2", "lo": 1, "trunc": 6, "coeffs": ["16/1", "-128/3"]}


def test_scale_and_div_by_scalar():
    a = QSeries.from_int_coeffs(0, [2, 4], 5)
    assert (a / 2).coef(1) == 2
    assert a.scale(Fraction(1, 2)).coef(0) == 1


def test_float_rejected():
    with pytest.raises(TypeError):
        rational(0.5)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(series(), series(), series())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b).same_window_values(b + a)
    assert ((a + b) + c).same_window_values(a + (b + c))
    assert (a * b).same_window_values(b * a)
    lhs = (a * b) * c
    rhs = a * (b * c)
    t2 = min(lhs.trunc2, rhs.trunc2)
    lo = min(lhs.lo2, rhs.lo2)
    assert all(lhs.coef2(e) == rhs.coef2(e) for e in range(lo, t2))
    dist_l = a * (b + c)
    dist_r = a * b + a * c
    t2 = min(dist_l.trunc2, dist_r.trunc2)
    lo = min(dist_l.lo2, dist_r.lo2)
    assert all(dist_l.coef2(e) == dist_r.coef2(e) for e in range(lo, t2))


@given(series(), series())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b):
    lhs = (a * b).derive()
    rhs = a.derive() * b + a * b.derive()
    assert lhs.same_window_values(rhs)


@given(series(min_len=1))
@settings(max_examples=60, deadline=None)
def test_invert_two_sided(a):
    if a.is_zero():
        return
    inv = a.invert()
    for prod in (a * inv, inv * a):
        assert prod.coef(0) == 1
        for e2 in range(prod.lo2, prod.trunc2):
            if e2 != 0:
                assert prod.coef2(e2) == 0


@given(series())
@settings(max_examples=60, deadline=None)
def test_to_json_lists_the_window(a):
    d = a.to_json()
    half = 1 if d["unit"] == "1/2" else 2
    assert d["unit"] == ("1" if a.step == 2 else "1/2")
    assert d["lo"] * half == a.lo2 and d["trunc"] * half >= a.trunc2 > (d["trunc"] - 1) * half
    assert [Fraction(x) for x in d["coeffs"]] == a.c
    assert all(x == f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in d["coeffs"])


@given(series(), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_pow_matches_iterated(a, n):
    if n == 0:
        if a.trunc2 <= 0:
            return  # the constant 1 is not representable on such a window
        expected = QSeries.one(a.trunc2)
    else:
        expected = a
        for _ in range(n - 1):
            expected = expected * a
    got = a**n
    assert got.same_window_values(expected)
    assert got.trunc2 == expected.trunc2


@given(
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=48, max_size=80),
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=48, max_size=80),
)
@settings(max_examples=25, deadline=None)
def test_kronecker_matches_schoolbook(ia, ib):
    want = len(ia) + len(ib) - 1
    fast = _convolve_int_kronecker(ia, ib, want)
    ra = [rational(v) for v in ia]
    rb = [rational(v) for v in ib]
    slow = schoolbook(ra, rb, want)
    assert [rational(v) for v in fast] == slow


@given(series(max_len=47), series(max_len=47))
@settings(max_examples=60, deadline=None)
def test_short_products_match_schoolbook(a, b):
    p = a * b
    if a.is_zero() or b.is_zero():
        assert p.is_zero()
        return
    if a.step == b.step == 2:
        step, ca, cb = 2, a.c, b.c
    else:
        step, ca, cb = 1, a._with_step1().c, b._with_step1().c
    want = (p.trunc2 - (a.lo2 + b.lo2) + step - 1) // step
    expect = QSeries(a.lo2 + b.lo2, schoolbook(ca, cb, want), p.trunc2, step)
    assert p == expect


def test_product_with_wide_denominators():
    # the log λ tail has denominators 1..2n−1, an lcm far beyond 512 bits
    tail = log_lambda(240).tail
    assert len(tail.c) >= 400
    assert lcm(*(x.denominator for x in tail.c)).bit_length() > 512
    small = QSeries(0, [rational(v) for v in (3, -1, 0, 7, 2)], tail.trunc2, 1)
    p = tail * small
    assert p.lo2 == 1 and p.trunc2 == tail.trunc2
    for e2 in (1, 2, 5, 100, 401, tail.trunc2 - 1):
        direct = sum(small.coef2(j) * tail.coef2(e2 - j) for j in range(0, 5) if e2 - j >= 1)
        assert p.coef2(e2) == direct


@pytest.mark.parametrize(
    "lo2,coeffs,trunc2,step",
    [
        (0, [Fraction(3, 7), 1, -2, Fraction(5, 3), 4], 2 * 37, 2),  # rational lead
        (-2, [1, -24, 252, -1472, Fraction(1, 5)], -2 + 2 * 45, 2),  # pole q^-1
        (-1, [Fraction(-2, 3), 1, 0, 7, Fraction(1, 2), -3], -1 + 53, 1),  # q^(-1/2)
        (3, [5, 0, -1, Fraction(9, 4)], 3 + 61, 1),  # q^(3/2), rational lead
        (0, [1] + [Fraction((-1) ** k, k) for k in range(1, 90)], 2 * 100, 2),
    ],
    ids=["integer-rational-lead", "integer-pole", "half-pole", "half-valuation", "long"],
)
def test_newton_invert_matches_recurrence(lo2, coeffs, trunc2, step):
    a = QSeries(lo2, [rational(x) for x in coeffs], trunc2, step)
    length = (a.trunc2 - a.lo2 + a.step - 1) // a.step
    assert length & (length - 1)  # not a power of two: the last Newton step is partial
    inv = a.invert()
    assert inv == recurrence_inverse(a)
    assert inv.lo2 == -a.lo2 and inv.trunc2 == a.trunc2 - 2 * a.lo2


def test_large_product_uses_kronecker_and_is_exact():
    n = 200
    a = QSeries.from_int_coeffs(0, [(-1) ** k * (k + 1) for k in range(n)], n)
    b = QSeries.from_int_coeffs(0, [(k * k + 3) for k in range(n)], n)
    p = a * b
    # spot-check against direct sums
    for e in (0, 1, 7, 50, 199):
        direct = sum(
            ((-1) ** k * (k + 1)) * ((e - k) ** 2 + 3) for k in range(0, e + 1)
        )
        assert p.coef(e) == direct


def test_rational_kronecker_product():
    n = 64
    a = QSeries.from_int_coeffs(0, [Fraction(k + 1, 3) for k in range(n)], n)
    b = QSeries.from_int_coeffs(0, [Fraction(1, 2)] * n, n)
    p = a * b
    assert p.coef(1) == Fraction(1, 2)
    direct = sum(Fraction(k + 1, 3) * Fraction(1, 2) for k in range(6))
    assert p.coef(5) == direct
