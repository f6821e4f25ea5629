"""Exact 18-digit fixed-point decimals on integer mantissas.

Every monetary amount, price, rate and index in this package is a ``Dec``:
a signed integer mantissa scaled by 10**18. Addition and subtraction are
exact; multiplication and division rescale with truncation toward zero,
mirroring EVM integer conventions, so identical event streams produce
bit-identical states on every platform.
"""

from __future__ import annotations

import re

SCALE = 10 ** 18
FRACTIONAL_DIGITS = 18

# Signed 256-bit carrier. Python integers never overflow on their own; the
# explicit bound keeps serialized states portable to fixed-width
# implementations and gives the overflow contract something to test.
MANTISSA_BOUND = 2 ** 255

# The whole decimal grammar. Character classes, not \d, so that only ASCII
# digits match; fullmatch, not $, so that nothing may follow.
_DECIMAL = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?")
# 10**(18 - n) scales the digits of a literal with n fractional digits.
_FRACTION_SCALE = tuple(10 ** (FRACTIONAL_DIGITS - n) for n in range(FRACTIONAL_DIGITS + 1))
# Digits of the largest whole part the carrier holds; longer ones overflow.
_MAX_WHOLE_DIGITS = len(str(MANTISSA_BOUND // SCALE))


class DecOverflowError(ArithmeticError):
    """Result exceeded the signed 256-bit mantissa carrier."""


class DecParseError(ValueError):
    """String is not a plain decimal with at most 18 fractional digits."""


def checked(mantissa: int) -> int:
    """The mantissa itself, once it is known to fit the carrier."""
    if not -MANTISSA_BOUND < mantissa < MANTISSA_BOUND:
        raise DecOverflowError("mantissa exceeds the signed 256-bit carrier")
    return mantissa


def _trunc_div(n: int, d: int) -> int:
    # Python's // floors toward -inf; fixed point truncates toward zero.
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


def trunc_mul(a: int, b: int) -> int:
    """Product of two mantissas rescaled to 18 digits, truncated toward
    zero and checked against the carrier: the mantissa of Dec * Dec."""
    product = a * b
    # _trunc_div(product, SCALE), spelled out for the valuation hot loops.
    return checked(product // SCALE if product >= 0 else -(-product // SCALE))


def trunc_div(a: int, b: int) -> int:
    """Quotient of two mantissas at 18 digits, truncated toward zero and
    checked against the carrier: the mantissa of Dec / Dec (b nonzero)."""
    return checked(_trunc_div(a * SCALE, b))


def trunc_muldiv(a: int, b: int, c: int) -> int:
    """a * b / c on mantissas with a single truncation toward zero, checked
    against the carrier: the mantissa of dec_muldiv."""
    if c == 0:
        raise ZeroDivisionError("fixed-point division by zero")
    return checked(_trunc_div(a * b, c))


def _parse_mantissa(text: str) -> int:
    """Mantissa of a decimal literal, checked against the carrier."""
    if _DECIMAL.fullmatch(text) is None:
        raise DecParseError(f"not a decimal literal: {text!r}")
    whole, _, frac = text.partition(".")
    if len(frac) > FRACTIONAL_DIGITS:
        raise DecParseError(
            f"more than {FRACTIONAL_DIGITS} fractional digits: {text!r}"
        )
    if len(whole) < _MAX_WHOLE_DIGITS:
        # Too few digits to reach the bound. int() takes the sign, and the
        # fraction's digits just continue the whole's.
        return int(whole + frac) * _FRACTION_SCALE[len(frac)]
    # Leading zeros aside, a whole part this long is beyond the carrier;
    # checked before int() so that it never sees an arbitrarily long string.
    digits = whole.lstrip("+-").lstrip("0") or "0"
    if len(digits) > _MAX_WHOLE_DIGITS:
        raise DecOverflowError("mantissa exceeds the signed 256-bit carrier")
    sign = "-" if whole[0] == "-" else ""
    return checked(int(sign + digits + frac) * _FRACTION_SCALE[len(frac)])


class Dec:
    """Immutable fixed-point decimal with 18 fractional digits.

    Construct from a whole number of units (``Dec(5)``), a decimal string
    (``Dec("0.02")``), or a raw mantissa (``Dec.from_mantissa(1)`` is the
    smallest positive increment, 10**-18).
    """

    __slots__ = ("mantissa",)

    def __init__(self, value: "Dec | int | str" = 0):
        if isinstance(value, str):
            self.mantissa = _parse_mantissa(value)
            return
        if isinstance(value, Dec):
            mantissa = value.mantissa
        elif isinstance(value, bool):
            raise TypeError("cannot build a Dec from a bool")
        elif isinstance(value, int):
            mantissa = value * SCALE
        else:
            raise TypeError(f"cannot build a Dec from {type(value).__name__}")
        self.mantissa = checked(mantissa)

    @classmethod
    def from_mantissa(cls, mantissa: int) -> "Dec":
        """Wrap a raw 10**-18-scaled integer."""
        if not isinstance(mantissa, int) or isinstance(mantissa, bool):
            raise TypeError("mantissa must be an int")
        dec = cls.__new__(cls)
        dec.mantissa = checked(mantissa)
        return dec

    # -- Rendering ---------------------------------------------------------

    def __str__(self) -> str:
        # Canonical form: optional minus, integer digits, fractional part
        # with trailing zeros trimmed. Round-trips losslessly via Dec().
        whole, frac = divmod(abs(self.mantissa), SCALE)
        text = str(whole)
        if frac:
            text += "." + str(frac).zfill(FRACTIONAL_DIGITS).rstrip("0")
        return "-" + text if self.mantissa < 0 else text

    def __repr__(self) -> str:
        return f"Dec('{self}')"

    # -- Arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "Dec | None":
        if isinstance(other, Dec):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Dec(other)
        return None

    def __add__(self, other: object) -> "Dec":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Dec.from_mantissa(self.mantissa + rhs.mantissa)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Dec":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Dec.from_mantissa(self.mantissa - rhs.mantissa)

    def __rsub__(self, other: object) -> "Dec":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return Dec.from_mantissa(lhs.mantissa - self.mantissa)

    def __mul__(self, other: object) -> "Dec":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Dec.from_mantissa(trunc_mul(self.mantissa, rhs.mantissa))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Dec":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.mantissa == 0:
            raise ZeroDivisionError("Dec division by zero")
        return Dec.from_mantissa(trunc_div(self.mantissa, rhs.mantissa))

    def __rtruediv__(self, other: object) -> "Dec":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    def __neg__(self) -> "Dec":
        return Dec.from_mantissa(-self.mantissa)

    def __abs__(self) -> "Dec":
        return Dec.from_mantissa(abs(self.mantissa))

    # -- Comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.mantissa == rhs.mantissa

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.mantissa < rhs.mantissa

    def __le__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.mantissa <= rhs.mantissa

    def __gt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.mantissa > rhs.mantissa

    def __ge__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.mantissa >= rhs.mantissa

    def __hash__(self) -> int:
        return hash(("Dec", self.mantissa))

    def __bool__(self) -> bool:
        return self.mantissa != 0

    # -- Predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def is_negative(self) -> bool:
        return self.mantissa < 0


ZERO = Dec(0)
ONE = Dec(1)


def dec_muldiv(a: Dec, b: Dec, c: Dec) -> Dec:
    """a * b / c with a single truncation.

    The intermediate product keeps full precision, so the result is the
    exact rational a*b/c truncated once toward zero. In particular
    dec_muldiv(x, y, y) == x, which (a * y) / y does not guarantee.
    """
    return Dec.from_mantissa(trunc_muldiv(a.mantissa, b.mantissa, c.mantissa))
