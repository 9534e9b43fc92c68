"""Exact truncated Laurent series in the nome q with exponents in (1/2)Z.

Every object in this package that has a q-expansion is carried by
:class:`QSeries`: a dense window of exact rational coefficients between a
lowest exponent ``lo`` and an *exclusive* truncation order ``trunc``.
Exponents are stored globally as integers counted in half-steps (so the
exponent 3/2 is stored as 3), because the level-two theta series force
half-integer support while the level-one generators live on integers.

Design rules that the rest of the package relies on:

* Truncation is tracked, never silently extended.  Each operation returns
  the provably-valid window: for a product the new truncation is
  ``min(a.lo + b.trunc, b.lo + a.trunc)``; for a sum it is the minimum of
  the two truncations.  A coefficient beyond the window cannot be read
  (``TruncationTooSmall``), so every ``O(q^m)`` certificate in the higher
  modules is sound by construction.
* Coefficients are ``fractions.Fraction``; all arithmetic is exact.
* Every product goes through one kernel, Kronecker substitution: both
  windows are scaled to integers over the lcm of their denominators,
  packed into big integers, multiplied, and unpacked.
* Inversion is Newton iteration b ← b − b·(a·b − 1) on that kernel,
  doubling the valid length up to the window (Brent–Kung).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence


class ZeroLeadingCoefficient(ArithmeticError):
    """Inversion (or negative power) of a series with no invertible lead."""


class TruncationTooSmall(ValueError):
    """A coefficient or constraint was requested beyond the valid window."""


def rational(x) -> Fraction:
    """Coerce ``x`` (int, str 'a/b', Fraction) to an exact rational."""
    if isinstance(x, float):
        raise TypeError("refusing to coerce float to exact rational")
    return Fraction(x)


def rational_str(x) -> str:
    """Canonical 'num/den' form used by the JSON encoding."""
    r = rational(x)
    return f"{r.numerator}/{r.denominator}"


_ZERO = rational(0)
_ONE = rational(1)


# ---------------------------------------------------------------------------
# convolution kernel
# ---------------------------------------------------------------------------


def _pack_signed(ints: Sequence[int], nbytes: int) -> tuple[int, int]:
    """Pack into (positive-part, negative-part) big integers, little endian."""
    pos = bytearray(nbytes * len(ints))
    neg = bytearray(nbytes * len(ints))
    for i, v in enumerate(ints):
        if v > 0:
            pos[i * nbytes : i * nbytes + (v.bit_length() + 7) // 8] = v.to_bytes(
                (v.bit_length() + 7) // 8, "little"
            )
        elif v < 0:
            w = -v
            neg[i * nbytes : i * nbytes + (w.bit_length() + 7) // 8] = w.to_bytes(
                (w.bit_length() + 7) // 8, "little"
            )
    return int.from_bytes(pos, "little"), int.from_bytes(neg, "little")


def _convolve_int_kronecker(ia: Sequence[int], ib: Sequence[int], want_len: int) -> list[int]:
    """Exact integer convolution via Kronecker substitution (one big-integer
    multiply per sign pair).  Digits are sized so no carry can cross slots."""
    maxa = max((abs(v) for v in ia), default=0)
    maxb = max((abs(v) for v in ib), default=0)
    if maxa == 0 or maxb == 0:
        return [0] * want_len
    slot_bits = (
        maxa.bit_length() + maxb.bit_length() + min(len(ia), len(ib)).bit_length() + 1
    )
    nbytes = (slot_bits + 7) // 8
    ap, an = _pack_signed(ia, nbytes)
    bp, bn = _pack_signed(ib, nbytes)
    pos = ap * bp + an * bn
    neg = ap * bn + an * bp
    out_len = min(want_len, len(ia) + len(ib) - 1)
    pb = pos.to_bytes(nbytes * (len(ia) + len(ib)), "little")
    nb = neg.to_bytes(nbytes * (len(ia) + len(ib)), "little")
    out = [0] * want_len
    for i in range(out_len):
        out[i] = int.from_bytes(pb[i * nbytes : (i + 1) * nbytes], "little") - int.from_bytes(
            nb[i * nbytes : (i + 1) * nbytes], "little"
        )
    return out


def _scaled(c: Sequence) -> tuple[list[int], int]:
    """Integer numerators of ``c`` over the lcm of its denominators."""
    den = lcm(*(x.denominator for x in c))
    return [x.numerator * (den // x.denominator) for x in c], den


def _convolve(ca: Sequence, cb: Sequence, want_len: int) -> list:
    """Exact convolution of rational coefficient windows, truncated to
    ``want_len`` entries."""
    if want_len <= 0:
        return []
    ia, dena = _scaled(ca)
    ib, denb = _scaled(cb)
    den = dena * denb
    return [Fraction(v, den) for v in _convolve_int_kronecker(ia, ib, want_len)]


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated Laurent series with exponents in (1/2)Z.

    ``lo2``/``trunc2`` are the window bounds in half-steps (exponent times
    two); ``step`` is 2 for a series supported on integer exponents and 1
    otherwise; ``c[i]`` is the coefficient of q^((lo2 + i*step)/2).
    """

    __slots__ = ("lo2", "step", "trunc2", "c")

    def __init__(self, lo2: int, coeffs: Sequence, trunc2: int, step: int = 1, *, _raw: bool = False):
        if step not in (1, 2):
            raise ValueError(f"step must be 1 or 2, got {step}")
        if _raw:
            self.lo2, self.c, self.trunc2, self.step = lo2, list(coeffs), trunc2, step
            return
        c = [x if isinstance(x, Fraction) else rational(x) for x in coeffs]
        # trim leading zeros (advancing lo2 keeps the product-window rule tight)
        i = 0
        while i < len(c) and not c[i]:
            i += 1
        lo2 += i * step
        c = c[i:]
        while c and not c[-1]:
            c.pop()
        if not c:
            lo2 = trunc2 - step
        if lo2 >= trunc2:
            if c:
                raise ValueError("truncation must exceed the lowest stored exponent")
            lo2 = trunc2 - step
        self.lo2 = lo2
        self.c = c
        self.trunc2 = trunc2
        self.step = step

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc2: int, step: int = 2) -> "QSeries":
        return cls(trunc2 - step, [], trunc2, step)

    @classmethod
    def const(cls, value, trunc2: int) -> "QSeries":
        return cls(0, [rational(value)], trunc2, 2)

    @classmethod
    def one(cls, trunc2: int) -> "QSeries":
        return cls.const(1, trunc2)

    @classmethod
    def q_power(cls, e2: int, trunc2: int) -> "QSeries":
        """The monomial q^(e2/2)."""
        return cls(e2, [_ONE], trunc2, 2 if e2 % 2 == 0 else 1)

    @classmethod
    def from_int_coeffs(cls, lo: int, coeffs: Sequence, trunc: int) -> "QSeries":
        """Series on integer exponents: coefficient list starting at q^lo,
        valid below q^trunc."""
        return cls(2 * lo, coeffs, 2 * trunc, 2)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def valuation2(self) -> int | None:
        """Least half-step exponent with nonzero coefficient, or None if the
        series vanishes identically on its window."""
        return None if not self.c else self.lo2

    def coef2(self, e2: int):
        """Coefficient of q^(e2/2); error beyond the window."""
        if e2 >= self.trunc2:
            raise TruncationTooSmall(
                f"coefficient q^{e2}/2 requested, window ends at {self.trunc2}/2"
            )
        off = e2 - self.lo2
        if off < 0 or off % self.step:
            return _ZERO
        i = off // self.step
        return self.c[i] if i < len(self.c) else _ZERO

    def coef(self, e):
        """Coefficient of q^e for integer or Fraction e."""
        e2 = e * 2
        if isinstance(e2, Fraction):
            if e2.denominator != 1:
                return _ZERO
            e2 = int(e2)
        return self.coef2(e2)

    def items(self) -> Iterator[tuple[int, object]]:
        """Nonzero (half-step exponent, coefficient) pairs."""
        for i, x in enumerate(self.c):
            if x:
                yield self.lo2 + i * self.step, x

    # -- window management -------------------------------------------------

    def truncate2(self, new_trunc2: int) -> "QSeries":
        """Restrict the window (new truncation must not extend the old)."""
        if new_trunc2 > self.trunc2:
            raise TruncationTooSmall(
                f"cannot extend window from {self.trunc2}/2 to {new_trunc2}/2"
            )
        if new_trunc2 == self.trunc2:
            return self
        keep = (new_trunc2 - self.lo2 + self.step - 1) // self.step
        return QSeries(self.lo2, self.c[: max(keep, 0)], new_trunc2, self.step)

    def shift2(self, d2: int) -> "QSeries":
        """Multiply by q^(d2/2)."""
        step = self.step if d2 % 2 == 0 else 1
        if step == self.step:
            return QSeries(self.lo2 + d2, self.c, self.trunc2 + d2, step)
        return self._with_step1()._shift_raw(d2)

    def _shift_raw(self, d2: int) -> "QSeries":
        return QSeries(self.lo2 + d2, self.c, self.trunc2 + d2, self.step)

    def _with_step1(self) -> "QSeries":
        if self.step == 1:
            return self
        c = [_ZERO] * (2 * len(self.c) - 1) if self.c else []
        c[::2] = self.c
        return QSeries(self.lo2, c, self.trunc2, 1, _raw=True)

    def to_integer_step(self) -> "QSeries":
        """Tighten to step 2 if all half-integer slots vanish (identity
        otherwise)."""
        if self.step == 2:
            return self
        if self.lo2 % 2 == 0 and all(not x for x in self.c[1::2]):
            return QSeries(self.lo2, self.c[::2], self.trunc2, 2)
        if self.lo2 % 2 == 1 and all(not x for x in self.c[0::2]) and self.c:
            return QSeries(self.lo2 + 1, self.c[1::2], self.trunc2, 2)
        return self

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries(self.lo2, [-x for x in self.c], self.trunc2, self.step, _raw=True)

    def _addsub(self, other: "QSeries", sign: int) -> "QSeries":
        a, b = self, other
        trunc2 = min(a.trunc2, b.trunc2)
        step = a.step
        if a.step != b.step or (a.lo2 - b.lo2) % a.step:
            step = 1
        lo2 = min(a.lo2, b.lo2)
        n = max(0, (trunc2 - lo2 + step - 1) // step)
        c = [_ZERO] * n
        for src, s in ((a, 1), (b, sign)):
            base = (src.lo2 - lo2) // step
            stride = src.step // step
            for i, x in enumerate(src.c):
                j = base + i * stride
                if 0 <= j < n:
                    c[j] = c[j] + x if s > 0 else c[j] - x
        return QSeries(lo2, c, trunc2, step)

    def __add__(self, other):
        if isinstance(other, QSeries):
            return self._addsub(other, +1)
        return self + QSeries.const(other, self.trunc2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QSeries):
            return self._addsub(other, -1)
        return self - QSeries.const(other, self.trunc2)

    def __rsub__(self, other):
        return QSeries.const(other, self.trunc2) - self

    def scale(self, r) -> "QSeries":
        r = r if isinstance(r, Fraction) else rational(r)
        if not r:
            return QSeries.zero(self.trunc2, self.step)
        return QSeries(self.lo2, [r * x for x in self.c], self.trunc2, self.step, _raw=True)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        a, b = self, other
        trunc2 = min(a.lo2 + b.trunc2, b.lo2 + a.trunc2)
        if a.is_zero() or b.is_zero():
            return QSeries.zero(trunc2, max(a.step, b.step) if a.step == b.step else 1)
        if a.step == b.step == 2:
            step = 2
            ca, cb = a.c, b.c
        else:
            step = 1
            ca, cb = a._with_step1().c, b._with_step1().c
        lo2 = a.lo2 + b.lo2
        want = max(0, (trunc2 - lo2 + step - 1) // step)
        return QSeries(lo2, _convolve(ca, cb, want), trunc2, step)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int):
            raise TypeError("series powers must be integers")
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return QSeries.one(self.trunc2)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert(self) -> "QSeries":
        """Multiplicative inverse on the window; requires a nonzero lead."""
        if not self.c:
            raise ZeroLeadingCoefficient("cannot invert a series that is zero to truncation")
        v = self.lo2
        length = (self.trunc2 - v + self.step - 1) // self.step
        b = [_ONE / self.c[0]]
        while len(b) < length:
            m = len(b)
            m2 = min(2 * m, length)
            # a·b = 1 + O(q^m): only the next m2 − m terms of the error matter
            err = _convolve(self.c[:m2], b, m2)[m:]
            b += [-x for x in _convolve(b, err, m2 - m)]
        return QSeries(-v, b, self.trunc2 - 2 * v, self.step)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.invert()
        return self.scale(_ONE / rational(other))

    def derive(self) -> "QSeries":
        """The differential operator q d/dq (each c q^e maps to e c q^e)."""
        c = [x * Fraction(self.lo2 + i * self.step, 2) for i, x in enumerate(self.c)]
        return QSeries(self.lo2, c, self.trunc2, self.step)

    def t_map(self) -> "QSeries":
        """The translation action z -> z+1 on expansions: q^(1/2) -> -q^(1/2),
        i.e. coefficients at odd half-exponents flip sign."""
        if self.step == 2:
            return self
        c = [(-x if (self.lo2 + i) % 2 else x) for i, x in enumerate(self.c)]
        return QSeries(self.lo2, c, self.trunc2, 1)

    def odd_part(self) -> "QSeries":
        """Terms with genuinely half-integer exponents."""
        if self.step == 2:
            return QSeries.zero(self.trunc2, 2)
        c = [(x if (self.lo2 + i) % 2 else _ZERO) for i, x in enumerate(self.c)]
        return QSeries(self.lo2, c, self.trunc2, 1)

    def even_part(self) -> "QSeries":
        return self - self.odd_part()

    # -- comparison / encoding ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self.to_integer_step(), other.to_integer_step()
        return (
            a.trunc2 == b.trunc2
            and a.step == b.step
            and a.lo2 == b.lo2
            and a.c == b.c
        )

    __hash__ = None  # mutable-ish value semantics; not for dict keys

    def same_window_values(self, other: "QSeries") -> bool:
        """Equality of coefficients on the intersection of the windows."""
        t2 = min(self.trunc2, other.trunc2)
        lo = min(self.lo2, other.lo2)
        return all(self.coef2(e2) == other.coef2(e2) for e2 in range(lo, t2))

    def to_json(self) -> dict:
        if self.step == 2:
            lo = self.lo2 // 2
            trunc = -((-self.trunc2) // 2)
            coeffs = [rational_str(x) for x in self.c]
            return {"unit": "1", "lo": lo, "trunc": trunc, "coeffs": coeffs}
        return {
            "unit": "1/2",
            "lo": self.lo2,
            "trunc": self.trunc2,
            "coeffs": [rational_str(x) for x in self.c],
        }

    def __repr__(self) -> str:
        terms = []
        for e2, x in self.items():
            if len(terms) == 5:
                terms.append("...")
                break
            e = e2 // 2 if e2 % 2 == 0 else Fraction(e2, 2)
            terms.append(f"{x}*q^{e}" if e2 else f"{x}")
        body = " + ".join(terms) if terms else "0"
        t = Fraction(self.trunc2, 2)
        return f"QSeries({body}; O(q^{t}))"


def valuation(a: QSeries) -> Fraction | None:
    """Least exponent (as a Fraction) with nonzero coefficient, or None for a
    series that is zero to truncation."""
    v2 = a.valuation2()
    return None if v2 is None else Fraction(v2, 2)
