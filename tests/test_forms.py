"""Tests for the generator catalog and form calculus."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeigen.forms import (
    GeneratorId,
    IdentityViolation,
    InvalidId,
    InvalidWeight,
    QuasiForm,
    bernoulli,
    delta_from_eta,
    dim_cusp,
    dim_modular,
    eisenstein,
    gen,
    log_lambda,
    log_lambda_S,
    r4_list,
    ramanujan_suite,
    rankin_cohen,
    serre_derivative,
    serre_modular,
    sigma_list,
)
from qeigen.qseries import QSeries, rational


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(3) == 0


def test_sigma_and_r4():
    s1 = sigma_list(1, 10)
    assert s1[1:7] == [1, 3, 4, 7, 6, 12]
    s3 = sigma_list(3, 4)
    assert s3[2] == 9
    r4 = r4_list(9)
    assert r4[1:9] == [8, 24, 32, 24, 48, 96, 64, 24]


def test_eisenstein_leading_coefficients():
    assert int(eisenstein(4, 3).coef(1)) == 240
    assert int(eisenstein(4, 3).coef(2)) == 2160
    assert int(eisenstein(6, 2).coef(1)) == -504
    assert int(eisenstein(2, 2).coef(1)) == -24
    assert int(eisenstein(8, 2).coef(1)) == 480


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(InvalidWeight):
        eisenstein(3, 4)
    with pytest.raises(InvalidWeight):
        eisenstein(0, 4)


def test_delta_dual_oracle():
    # built-in cross-check: generator() raises if the two formulas disagree
    d = gen("Delta", 40)
    assert [int(d.coef(k)) for k in range(1, 5)] == [1, -24, 252, -1472]
    assert d == delta_from_eta(40)


def test_j_expansion():
    j = gen("J", 4)
    assert int(j.coef(-1)) == 1
    assert int(j.coef(0)) == 744
    assert int(j.coef(1)) == 196884
    assert int(j.coef(2)) == 21493760


def test_jprime_is_minus_omega1():
    jp = gen("JPrime", 10)
    o1 = gen("Omega", 10, 1)
    assert (jp + o1).is_zero()
    # j' really is the derivative of j
    assert gen("J", 10).derive().same_window_values(jp)


def test_theta_fourth_powers():
    th00 = gen("Theta00_4", 6)
    th01 = gen("Theta01_4", 6)
    th10 = gen("Theta10_4", 6)
    assert th00.coef(Fraction(1, 2)) == 8
    assert th01.coef(Fraction(1, 2)) == -8
    assert th10.coef(Fraction(1, 2)) == 16
    assert th10.coef(Fraction(3, 2)) == 64
    assert th10.coef(1) == 0
    # Jacobi relation
    assert (th01 + th10 - th00).is_zero()
    # independent construction: fourth power of the weight-1/2 theta series
    # theta10 = 2 q^{1/8} sum q^{n(n+1)/2}; compare theta10^4 against r4 route
    n = 6
    coeffs = [0] * (8 * n)
    m = 0
    while m * (m + 1) // 2 < 2 * n:
        e8 = 1 + 4 * m * (m + 1)  # exponent in eighths of (n+1/2)^2/... times 8
        if e8 < 8 * n:
            coeffs[e8] += 2
        m += 1
    # quarter-integer exponents: work in eighth-steps via a step-1 series in q^{1/8}
    th10_single = QSeries(1, [rational(c) for c in coeffs[1:]], 8 * n, 1)
    fourth = th10_single**4
    for e2 in range(1, 2 * n):
        assert fourth.coef2(4 * e2) == th10.coef2(e2)


def test_lambda_series_and_identities():
    lam = gen("Lambda", 12)
    assert lam.coef(Fraction(1, 2)) == 16
    assert lam.coef(1) == -128
    assert lam.coef(Fraction(3, 2)) == 704
    j = gen("J", 12)
    one = QSeries.one(24)
    lhs = j * lam**2 * (one - lam) ** 2
    rhs = ((one - lam + lam**2) ** 3).scale(256)
    assert lhs.same_window_values(rhs)


def test_lambda_minimal_polynomial():
    n = 14
    lam = gen("Lambda", n)
    j256 = gen("J", n).scale(Fraction(1, 256))
    one = QSeries.one(2 * n)
    six = QSeries.const(6, 2 * n) - j256
    seven = QSeries.const(7, 2 * n) - j256.scale(2)
    res = (
        lam**6
        - (lam**5).scale(3)
        + six * lam**4
        - seven * lam**3
        + six * lam**2
        - lam.scale(3)
        + one
    )
    assert res.valuation2() is None


def test_omega_catalog():
    for m, (w, pole) in enumerate(
        [(0, 0), (10, -1), (4, 0), (6, 0), (8, 0), (10, 0), (12, 1), (14, 0)]
    ):
        om = gen("Omega", 8, m)
        if m == 1:
            assert om.valuation2() == -2
            assert om.coef(-1) == 1
        if m == 6:
            assert om.valuation2() == 2
    d = gen("Delta", 10)
    assert gen("Omega", 8, 6).same_window_values(d * gen("Omega", 10, 0))
    assert gen("Omega", 8, 7).same_window_values(d * gen("Omega", 12, 1))


def test_chi_translation_identity():
    # z^{-2k} chi(Sz) = chi(Tz) - chi(z) forces the integer-exponent part of
    # chi(Tz) - chi(z) to vanish (the S-side is a pure half-integer series)
    for k in range(6):
        for i in (1, 2):
            c = gen("Chi", 10, i, k)
            assert (c.t_map() - c).even_part().is_zero(), (i, k)


def test_chi_pole_orders():
    # valuations at the cusp dictated by Table entries: lambda ~ 16 q^{1/2}
    assert gen("Chi", 8, 1, 0).valuation2() == -2
    assert gen("Chi", 8, 2, 0).valuation2() == -1
    assert gen("Chi", 8, 1, 1).valuation2() == 0
    assert gen("Chi", 8, 2, 1).valuation2() == -2
    assert gen("Chi", 8, 2, 5).valuation2() == -1


def test_generator_id_validation():
    with pytest.raises(InvalidId):
        GeneratorId("Omega", (9,))
    with pytest.raises(InvalidId):
        GeneratorId("Chi", (3, 1))
    with pytest.raises(InvalidId):
        GeneratorId("Nope")
    with pytest.raises(InvalidId):
        GeneratorId("E4", (2,))
    assert GeneratorId("Omega", (3,)).key() == "Omega_3"


def test_log_lambda_parts():
    ll = log_lambda(8)
    assert ll.z_coeff == "πi"
    assert ll.log2_mult == 4
    assert ll.tail.coef(Fraction(1, 2)) == -8
    assert ll.tail.coef(1) == 12
    assert ll.tail.valuation2() == 1
    ls = log_lambda_S(8)
    assert ls.coef(Fraction(1, 2)) == -16
    assert ls.coef(Fraction(3, 2)) == Fraction(-64, 3)
    assert ls.even_part().is_zero()


def test_log_lambda_derivative_routes():
    # q d/dq log lambda = lambda'/lambda = theta01^4/2, and the z-term
    # contributes exactly 1/2 to the constant
    ll = log_lambda(10)
    th01 = gen("Theta01_4", 10)
    lhs = ll.tail.derive() + QSeries.const(Fraction(1, 2), 20)
    assert lhs.same_window_values(th01.scale(Fraction(1, 2)))
    # and the S-image integrates -theta10^4/2
    th10 = gen("Theta10_4", 10)
    assert log_lambda_S(10).derive().same_window_values(th10.scale(Fraction(-1, 2)))


def test_ramanujan_suite_passes_and_reports():
    rep = ramanujan_suite(32)
    assert set(rep) == {
        "E2'",
        "E4'",
        "E6'",
        "lambda'",
        "theta00_4'",
        "theta01_4'",
        "theta10_4'",
        "jacobi",
    }
    assert all(v is None for v in rep.values())


def test_ramanujan_suite_fault_injection():
    bad_e4 = eisenstein(4, 16) + QSeries.from_int_coeffs(1, [1], 16)
    with pytest.raises(IdentityViolation, match="q\\^1"):
        ramanujan_suite(16, e4=bad_e4)


def test_serre_derivative_anchors():
    n = 12
    z = QSeries.zero(2 * n)
    d4 = serre_derivative(QuasiForm(4, eisenstein(4, n), z, z))
    assert d4.weight == 6
    assert d4.depth() == 0
    assert d4.A.same_window_values(eisenstein(6, n).scale(Fraction(-1, 3)))
    d12 = serre_derivative(QuasiForm(12, gen("Delta", n), z, z))
    assert d12.A.is_zero()
    d0 = serre_derivative(QuasiForm(0, QSeries.one(2 * n), z, z))
    assert d0.A.is_zero() and d0.B.is_zero() and d0.C.is_zero()


def test_serre_derivative_depth2_consistency():
    # on depth >= 1 the operator is partial_{w-2} of the full expansion
    n = 14
    qf = QuasiForm(8, eisenstein(4, n) ** 2, eisenstein(6, n), eisenstein(4, n))
    sd = serre_derivative(qf)
    assert sd.weight == 10
    full = qf.full_series()
    lhs = serre_modular(full, 8 - 2)
    assert lhs.same_window_values(sd.full_series())
    # depth does not increase beyond 2
    assert sd.depth() <= 2


def test_quasiform_g_h_reduction():
    n = 10
    qf = QuasiForm(8, eisenstein(4, n) ** 2, eisenstein(6, n), eisenstein(4, n))
    g = qf.g_series()
    e2 = eisenstein(2, n)
    expected = eisenstein(6, n).scale(Fraction(-1, 2)) - e2 * eisenstein(4, n)
    assert g.same_window_values(expected)
    assert qf.h_series() == qf.C


def test_rankin_cohen_anchors():
    n = 12
    e4 = eisenstein(4, n)
    e6 = eisenstein(6, n)
    assert rankin_cohen(e4, e6, 0, 4, 6).same_window_values(e4 * e6)
    rc1 = rankin_cohen(e4, e6, 1, 4, 6)
    assert rc1.same_window_values(gen("Delta", n).scale(-3456))
    assert rankin_cohen(e4, e4, 1, 4, 4).is_zero()


@given(st.integers(min_value=0, max_value=3))
@settings(max_examples=4, deadline=None)
def test_rankin_cohen_antisymmetry(n):
    # [f,g]_n = (-1)^n [g,f]_n for equal weights
    e4 = eisenstein(4, 10)
    f = e4 * e4
    g = gen("Delta", 10).scale(3) + f.scale(2)
    lhs = rankin_cohen(f, g, n, 8, 8)
    rhs = rankin_cohen(g, f, n, 8, 8).scale((-1) ** n)
    assert lhs.same_window_values(rhs)


def test_dimension_formulas():
    assert [dim_modular(k) for k in (0, 2, 4, 6, 8, 10, 12, 14)] == [
        1,
        0,
        1,
        1,
        1,
        1,
        2,
        1,
    ]
    assert dim_cusp(12) == 1
    assert dim_cusp(16) == 1
    assert dim_cusp(26) == 1
    assert dim_cusp(24) == 2
    assert dim_cusp(10) == 0
