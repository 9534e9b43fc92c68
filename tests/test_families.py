"""Tests for the recurrence-generated weight families and their certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qeigen.families import (
    CrossCheck,
    FamilyKey,
    WeightOutOfRange,
    cross_validate,
    family,
    family_records,
    initial,
    next_form,
    ode_residual,
    rc_descend,
    serre_step,
    weight_of_dimension,
)
from qeigen.forms import gen, log_lambda


@pytest.fixture(scope="module")
def ladders():
    return {
        (kind, residue): family(FamilyKey(kind, residue), 32 + residue, 40)
        for kind in ("f", "phi")
        for residue in (0, 2)
    }


def test_key_validation():
    with pytest.raises(ValueError):
        FamilyKey("g", 0)
    with pytest.raises(ValueError):
        FamilyKey("f", 1)
    assert FamilyKey("f", 0).start_weight == 8
    assert FamilyKey("phi", 2).start_weight == 10
    assert FamilyKey("f", 0).first_recurrence_weight == 16
    assert FamilyKey("phi", 2).first_recurrence_weight == 18


def test_initial_f_seeds():
    f8, f12, f16 = initial(FamilyKey("f", 0), 24)
    n = 12
    e4, e6 = gen("E4", n), gen("E6", n)
    assert (f8.form.A - e4 * e4).is_zero()
    assert (f8.form.B + e6.scale(2)).is_zero()
    assert (f8.form.C - e4).is_zero()
    # leading term of the collapsed series
    full = f8.form.full_series()
    assert full.valuation2() == 2 and full.coef(1) == 1728
    assert f12.form.full_series().coef(2) == Fraction(432, 5)
    assert f16.form.full_series().valuation2() == 6
    assert f16.form.full_series().coef(3) == Fraction(36, 25)


def test_initial_f2_seeds():
    f10, f14, f18 = initial(FamilyKey("f", 2), 24)
    assert f10.form.full_series().valuation2() == 2
    assert f14.form.full_series().valuation2() == 4
    assert f18.form.full_series().valuation2() == 6
    # E2-free part of f_10 is -E4E6
    n = 12
    assert (f10.form.A + gen("E4", n) * gen("E6", n)).is_zero()


def test_initial_phi_seeds():
    p8, p12, p16 = initial(FamilyKey("phi", 0), 24)
    assert p8.log_coeff.is_zero()
    assert p8.form.A.coef(0) == 1
    assert (p12.log_coeff - gen("Delta", 12).scale(Fraction(8, 175))).is_zero()
    assert (p16.log_coeff - (gen("Delta", 12) * gen("E4", 12)).scale(Fraction(1, 231000))).is_zero()
    p10, p14, p18 = initial(FamilyKey("phi", 2), 24)
    assert p10.log_coeff.is_zero() and p14.log_coeff.is_zero()
    assert (p18.log_coeff - (gen("Delta", 12) * gen("E6", 12)).scale(Fraction(1, 600600))).is_zero()
    assert p10.form.A.coef(0) == 2  # 2·θ01²⁰ term survives at q=0
    assert p14.form.A.coef(0) == Fraction(2, 13440)


def test_f_vanishing_orders_exact(ladders):
    for residue in (0, 2):
        for m in ladders[("f", residue)]:
            w = m.weight
            want = w // 4 - 1 if residue == 0 else (w - 6) // 4
            assert m.form.full_series().valuation2() == 2 * want, w
            assert m.form.g_series().valuation2() == 2, w
            assert m.form.h_series().valuation2() == 0, w


def test_phi_orders(ladders):
    tail_odd = log_lambda(40).tail.odd_part()
    for residue in (0, 2):
        for m in ladders[("phi", residue)]:
            assert m.form.A.valuation2() == 0, m.weight
            u = m.log_coeff
            t2 = min(m.form.A.trunc2, tail_odd.trunc2)
            rat = (m.form.A.odd_part() + u * tail_odd).truncate2(t2)
            rv = rat.valuation2()
            if u.is_zero():
                # translation difference lives purely in half-integer powers
                assert rv is not None and rv >= 3 and rv % 2 == 1, m.weight
            else:
                # the πi-channel of the translation difference has exact order q
                assert u.valuation2() == 2, m.weight
                assert rv is None or rv >= 3, m.weight


def test_recurrence_spec_probes():
    members = family(FamilyKey("f", 0), 20, 24)
    assert members[-1].weight == 20
    assert members[-1].form.full_series().valuation2() == 8
    plus, minus = cross_validate(36)
    assert minus.weight == 20 and minus.s_valuation2 == 9


def test_weight_guards(ladders):
    key = FamilyKey("f", 0)
    f8, f12, f16 = ladders[("f", 0)][:3]
    with pytest.raises(WeightOutOfRange):
        next_form(key, (f12, f8, f8), 12)  # below the proven range
    with pytest.raises(WeightOutOfRange):
        next_form(key, (f16, f8, f12), 16)  # window out of order
    with pytest.raises(WeightOutOfRange):
        family(key, 13, 16)
    with pytest.raises(WeightOutOfRange):
        family(key, 4, 16)
    p10, p14, p18 = ladders[("phi", 2)][:3]
    with pytest.raises(WeightOutOfRange):
        next_form(FamilyKey("phi", 2), (p14, p10, p10), 14)


def test_ode_residual_matrix(ladders):
    for (kind, residue), members in ladders.items():
        for m in members:
            assert ode_residual(m) is None, (kind, m.weight)
    f8 = ladders[("f", 0)][0]
    # wrong parameter must leave a residual
    assert ode_residual(f8, "ODE1", 12) is not None
    # the other equation of the pair is not satisfied
    assert ode_residual(f8, "ODE2") is not None
    p10 = ladders[("phi", 2)][0]
    assert ode_residual(p10, "ODE2", 12) is None
    assert ode_residual(p10, "ODE2", 10) is not None
    with pytest.raises(ValueError):
        ode_residual(f8, "ODE3")


def test_serre_step_equals_recurrence(ladders):
    for (kind, residue), members in ladders.items():
        for i in range(2, len(members) - 1):
            ser, log = serre_step(members[i])
            nxt = members[i + 1]
            t2 = min(ser.trunc2, nxt.form.A.trunc2)
            want = nxt.form.full_series() if kind == "f" else nxt.form.A
            assert (ser.truncate2(t2) - want.truncate2(t2)).is_zero(), (kind, members[i].weight)
            assert (log.truncate2(t2) - nxt.log_coeff.truncate2(t2)).is_zero()


def test_rc_descend_exact(ladders):
    for residue in (0, 2):
        members = ladders[("f", residue)]
        for i in range(1, 4):
            got = rc_descend(members[i])
            prev = members[i - 1].form
            assert got.weight == prev.weight
            t2 = min(got.A.trunc2, prev.A.trunc2)
            for ch in "ABC":
                assert (getattr(got, ch).truncate2(t2) - getattr(prev, ch).truncate2(t2)).is_zero()


def test_rc_descend_guards(ladders):
    with pytest.raises(WeightOutOfRange):
        rc_descend(ladders[("f", 0)][0])  # w = 8 has no predecessor
    with pytest.raises(WeightOutOfRange):
        rc_descend(ladders[("phi", 0)][1])


def test_weight_of_dimension():
    assert weight_of_dimension(8, "plus") == (FamilyKey("f", 0), 12)
    assert weight_of_dimension(4, "plus") == (FamilyKey("f", 2), 14)
    assert weight_of_dimension(12, "minus") == (FamilyKey("phi", 0), 8)
    assert weight_of_dimension(24, "minus") == (FamilyKey("phi", 2), 14)
    assert weight_of_dimension(48, "plus") == (FamilyKey("f", 0), 28)


@pytest.mark.parametrize("d", [4, 8, 24, 48])
def test_cross_validate(d):
    plus, minus = cross_validate(d)
    assert isinstance(plus, CrossCheck) and isinstance(minus, CrossCheck)
    assert plus.scalar != 0 and minus.scalar != 0
    assert plus.residual_valuation2 is None and minus.residual_valuation2 is None
    want = (minus.weight - 2) // 2 if minus.weight % 4 == 0 else (minus.weight - 4) // 2
    assert minus.s_valuation2 == want


def test_cross_validate_scalars():
    plus, minus = cross_validate(8)
    assert plus.weight == 12 and plus.scalar == Fraction(1, 6000)
    plus, minus = cross_validate(24)
    assert minus.weight == 14 and minus.scalar == Fraction(2, 105)


def test_family_records(ladders):
    recs = family_records(FamilyKey("phi", 0), 16, 24)
    assert [r["w"] for r in recs] == [8, 12, 16]
    for r in recs:
        assert set(r) == {"w", "A", "B", "C"}
        assert r["A"]["lo"] == 0 and r["A"]["coeffs"][0] != "0/1"  # valuation 0
    f_recs = family_records(FamilyKey("f", 0), 16, 24)
    b = f_recs[0]["B"]
    assert (b["unit"], b["lo"], b["coeffs"][0]) == ("1", 0, "-2/1")  # -2·E6 channel
