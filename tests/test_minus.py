"""Tests for the odd-family pole solver (log-bearing seeds, half-integer S-side)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from goldens import MINUS_TABLE, proportional, series_proportional
from qeigen.forms import gen, log_lambda
from qeigen.minus import (
    BadDimension,
    ConstraintUnavailable,
    apply_origin_constraint,
    assemble_psi_minus,
    chi_functional_check,
    minus_params,
    solve_minus,
    to_record,
)


def test_params_anchors():
    p = minus_params(8)
    assert (p.ell, p.k, p.b_k, p.n, p.n_minus) == (1, 5, 7, -1, 1)
    assert not p.extra_dof
    p = minus_params(24)
    assert (p.ell, p.k, p.b_k, p.n, p.n_minus) == (1, 1, 3, 0, 2)
    assert not p.extra_dof
    p = minus_params(4)
    assert (p.ell, p.k, p.n, p.n_minus) == (0, 0, 0, 1)
    assert p.extra_dof
    p = minus_params(48)
    assert (p.ell, p.k, p.n, p.n_minus) == (2, 1, 1, 4)
    assert p.extra_dof


def test_params_depth_formula():
    # pole depth grows by one every 16 dimensions; the S-side order clears the
    # requirement by exactly one odd-lattice slot on the extra-freedom residues
    for d in range(4, 200, 4):
        p = minus_params(d)
        assert p.n_minus == d // 16 + 1
        assert p.n + p.ell + 1 == p.n_minus
        assert 4 * p.n + p.b_k - (2 * p.ell + 1) == 2 * int(p.extra_dof)


@pytest.mark.parametrize("d", [0, 2, 6, 10, -4, 7])
def test_bad_dimension(d):
    with pytest.raises(BadDimension):
        minus_params(d)


@pytest.mark.parametrize("d,x,y,z", MINUS_TABLE, ids=lambda v: str(v))
def test_published_rows(d, x, y, z):
    if not isinstance(d, int):
        pytest.skip("parametrize id helper")
    sol = solve_minus(d)
    mine = list(sol.X) + list(sol.Y) + list(sol.Z)
    assert proportional(mine, x + y + z)


def test_same_cell_dimensions_share_polynomials():
    # d and d + 24 land in the same (k, n) cell and solve the same system
    a, b = solve_minus(48), solve_minus(72)
    assert (a.X, a.Y, a.Z) == (b.X, b.Y, b.Z)


def _theta_poly(t01, t10, coeffs):
    """Σ c_i·θ01^{4(deg−i)}·θ10^{4i}, coefficients descending in θ01."""
    deg = len(coeffs) - 1
    acc = (t01**0).scale(0)
    for i, c in enumerate(coeffs):
        if c:
            acc = acc + (t01 ** (deg - i) * t10**i).scale(c)
    return acc


# Display combinations from the worked small-dimension examples, written in
# fourth powers of the theta constants.  The solver normalization is
# primitive-integer with a fixed sign rule, so each comparison carries a
# frozen rational ratio.
def test_direct_omega_displays():
    m = 26
    t01, t10 = gen("Theta01_4", m), gen("Theta10_4", m)
    dinv = gen("Delta", m).invert()
    cases = [
        (8, _theta_poly(t01, t10, [2, 5, 5]) * t01**3 * dinv, -896),
        (12, _theta_poly(t01, t10, [1, 2]) * t01**3 * dinv, -512),
        (24, _theta_poly(t01, t10, [2, 7, 7]) * t01**5 * dinv**2, Fraction(1, 256)),
    ]
    for d, disp, ratio in cases:
        sol = solve_minus(d)
        assert sol.f_series.is_zero()
        assert series_proportional(disp, sol.omega_series) == ratio


def test_origin_displays():
    m = 26
    t01, t10, t00 = gen("Theta01_4", m), gen("Theta10_4", m), gen("Theta00_4", m)
    den = (t10**4 * t00**4).invert()
    o16 = apply_origin_constraint(solve_minus(16))
    disp = t01 * _theta_poly(t01, t10, [1, 1, 1]) * _theta_poly(t01, t10, [2, 7, 7]) * den
    assert o16.f_series.is_zero()
    assert series_proportional(disp, o16.omega_series) == 32768
    o20 = apply_origin_constraint(solve_minus(20))
    disp = t01 * _theta_poly(t01, t10, [1, 4, 6, 4]) * den
    assert o20.f_series.is_zero()
    assert series_proportional(disp, o20.omega_series) == 65536


def test_log_bearing_displays():
    m = 26
    t01, t10, t00 = gen("Theta01_4", m), gen("Theta10_4", m), gen("Theta00_4", m)
    e4, e6 = gen("E4", m), gen("E6", m)
    dinv = gen("Delta", m).invert()
    den = (t10**4 * t00**4).invert()

    # d=16: twice the tight solution, both components at once
    s16 = solve_minus(16)
    f_disp = e6.scale(3072) * dinv
    om_disp = t01**3 * _theta_poly(t01, t10, [10, 45, 68, 34, -13, -36, -12]) * dinv**2
    c = series_proportional(s16.f_series, f_disp)
    assert c == 2
    assert (om_disp - s16.omega_series.scale(c)).is_zero()

    # d=20: one display is a pure rescaling, the other mixes in the
    # origin-constrained element
    s20 = solve_minus(20)
    o20 = apply_origin_constraint(s20)
    f_disp = e4.scale(3) * dinv
    om_disp = _theta_poly(t01, t10, [5, 20, 42, 68, 60, 24]).scale(32) * t01.invert() * den
    c = series_proportional(s20.f_series, f_disp)
    assert c == Fraction(1, 2048)
    assert (om_disp - s20.omega_series.scale(c)).is_zero()

    f_disp = e4 * dinv
    om_disp = (
        _theta_poly(t01, t10, [1, 2]) * _theta_poly(t01, t10, [1, 1, 1]) ** 2
    ).scale(128) * t01.invert() * den
    c = series_proportional(s20.f_series, f_disp)
    assert c == Fraction(1, 6144)
    rem = om_disp - s20.omega_series.scale(c)
    assert series_proportional(o20.omega_series, rem) == Fraction(7, 6144)


def test_deep_dimension_structure():
    # first depth-four dimension: the tight and origin-constrained elements
    # both keep a nonzero deepest coefficient, and the unique combination that
    # vanishes one order deeper is tight + 9·origin — which no longer vanishes
    # at the origin, so the two constraints cannot be met simultaneously
    tight = solve_minus(48)
    origin = apply_origin_constraint(tight)
    assert origin.X == ()
    assert tuple(origin.Y) == (12544,)
    assert tuple(origin.Z) == (5888, -7)
    pt = assemble_psi_minus(tight)
    po = assemble_psi_minus(origin)
    assert pt.principal_a[3].pi_coeff == Fraction(7229, 16)
    assert pt.principal_a[4].pi_coeff == Fraction(63, 128)
    assert [b.pi_coeff for b in pt.principal_b] == [44029440000, 164354400, -40320, -840, 0]
    assert po.principal_a[3].pi_coeff == Fraction(267, 16)
    assert po.principal_a[4].pi_coeff == Fraction(-7, 128)
    assert all(b.is_zero() for b in po.principal_b)
    deep = tight.omega_series + origin.omega_series.scale(9)
    assert not deep.coef(-4) and deep.coef(-3)


@pytest.mark.parametrize("d", [4, 8, 16, 20, 24, 48])
def test_pole_order_invariants(d):
    sol = solve_minus(d)
    p = sol.params
    assert sol.omega_series.valuation2() == -2 * p.n_minus
    assert not sol.f_series.coef(-p.n_minus)
    if sol.X:
        assert sol.f_series.valuation2() == -2 * (p.n_minus - 1)
    else:
        assert sol.f_series.is_zero()
    # the S-side carries half-integer exponents only and vanishes to the
    # certified order exactly
    assert sol.psiS_series.even_part().is_zero()
    assert sol.psiS_series.valuation2() == 4 * p.n + p.b_k - 2 * p.ell


@pytest.mark.parametrize("d", [16, 20, 24, 48])
def test_s_side_matches_t_side_residual(d):
    # ψ(z) − ψ(Tz) leaves twice the half-integer content of the constant part,
    # which must reproduce the independently substituted S-side expansion
    sol = solve_minus(d)
    tail = log_lambda(sol.f_series.trunc2 // 2 + sol.params.n_minus + 2).tail
    two_odd = (sol.f_series * tail + sol.omega_series).odd_part().scale(2)
    w = min(two_odd.trunc2, sol.psiS_series.trunc2)
    assert (two_odd.truncate2(w) - sol.psiS_series.truncate2(w)).is_zero()


@pytest.mark.parametrize("k", range(6))
def test_chi_cocycle_catalog(k):
    report = chi_functional_check(k, 32)
    assert report["chi1"] == report["chi2"] == "ok"
    assert report["independent"]


def test_relaxed_space_only_for_extra_dimensions():
    assert solve_minus(8).relaxed_basis is None
    assert solve_minus(24).relaxed_basis is None
    rb = solve_minus(16).relaxed_basis
    assert rb is not None and len(rb) == 2
    with pytest.raises(ConstraintUnavailable):
        apply_origin_constraint(solve_minus(8))


def test_origin_constraint_kills_constant_term():
    frozen = {
        4: ((), (1,), ()),
        16: ((), (-1664, 1), (128,)),
        20: ((), (1024, 1), (-256,)),
        36: ((), (-458752, 0, 1), (196608, -256)),
    }
    for d, (x, y, z) in sorted(frozen.items()):
        o = apply_origin_constraint(solve_minus(d))
        assert not o.f_series.coef(0)
        assert (tuple(o.X), tuple(o.Y), tuple(o.Z)) == (x, y, z)
    # killing the constant term is not the same as killing the whole log part
    o = apply_origin_constraint(solve_minus(52))
    assert o.X and not o.f_series.coef(0)


def test_assemble_psi_minus_shape():
    psi = assemble_psi_minus(solve_minus(24))
    assert psi.d == 24 and psi.sign == -1
    assert psi.eigenvalue == -1
    assert psi.depth == 2
    assert not psi.z2_part
    assert all(b.is_zero() for b in psi.principal_b)
    assert psi.principal_a[2].pi_coeff == Fraction(1, 128)
    assert psi.S_series.valuation2() == 1
    assert psi.c_over_pi == Fraction(1, 2)


def test_assemble_reads_tail_feedback():
    # the integer-exponent part of f·tail(log λ) feeds the shallow principal
    # coefficients: a_0 is not just the constant term of ω
    sol = solve_minus(20)
    psi = assemble_psi_minus(sol)
    assert psi.principal_a[0].pi_coeff == -621912
    assert psi.principal_a[0].ln2_coeff == 6488064
    assert sol.omega_series.coef(0) == -695640
    assert [b.pi_coeff for b in psi.principal_b] == [-1622016, -6144, 0]


def test_record_shape():
    rec = to_record(solve_minus(24))
    assert rec["d"] == 24 and rec["ell"] == 1 and rec["k"] == 1
    assert rec["n"] == 0 and rec["n_minus"] == 2
    assert rec["X"] == [] and rec["Y"] == [] and rec["Z"] == ["1/1"]
    assert rec["chi_basis"] == "table-4"
