"""Exact 18-digit fixed-point decimals on integer mantissas.

Every monetary amount, price, rate and index in this package is a ``Dec``:
a signed integer mantissa scaled by 10**18. Addition and subtraction are
exact; multiplication and division rescale with truncation toward zero,
mirroring EVM integer conventions, so identical event streams produce
bit-identical states on every platform.
"""

from __future__ import annotations

import operator
import re

SCALE = 10 ** 18
FRACTIONAL_DIGITS = 18

# Signed 256-bit carrier. Python integers never overflow on their own; the
# explicit bound keeps serialized states portable to fixed-width
# implementations and gives the overflow contract something to test.
MANTISSA_BOUND = 2 ** 255

# The whole decimal grammar. Character classes, not \d, so that only ASCII
# digits match; fullmatch, not $, so that nothing may follow. Its groups are
# the signed whole part and the fraction's digits.
_DECIMAL = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]+))?")
# The canonical grammar: the literals Dec.__str__ writes, one per value. A
# _DECIMAL literal with no plus sign, no leading zeros, no "-0", and a
# fraction only when it is nonzero: at most 18 digits, no trailing zeros.
# Its groups are the signed whole part and the fraction's digits.
_CANONICAL_DECIMAL = re.compile(r"(?!-0\Z)(-?(?:0|[1-9][0-9]*))(?:\.([0-9]{0,17}[1-9]))?")
# 10**(18 - n) scales the digits of a literal with n fractional digits.
_FRACTION_SCALE = tuple(10 ** (FRACTIONAL_DIGITS - n) for n in range(FRACTIONAL_DIGITS + 1))
# Digits of the largest whole part the carrier holds; longer ones overflow.
_MAX_WHOLE_DIGITS = len(str(MANTISSA_BOUND // SCALE))
_OVERFLOW = "mantissa exceeds the signed 256-bit carrier"


class DecOverflowError(ArithmeticError):
    """Result exceeded the signed 256-bit mantissa carrier."""


class DecParseError(ValueError):
    """Value is not a decimal literal of the required grammar, or has more
    than 18 fractional digits."""


def checked(mantissa: int) -> int:
    """The mantissa itself, once it is known to fit the carrier."""
    if abs(mantissa) >= MANTISSA_BOUND:
        raise DecOverflowError(_OVERFLOW)
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
    match = _DECIMAL.fullmatch(text)
    if match is None:
        raise DecParseError(f"not a decimal literal: {text!r}")
    whole, frac = match.groups("")
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
        raise DecOverflowError(_OVERFLOW)
    sign = "-" if whole[0] == "-" else ""
    return checked(int(sign + digits + frac) * _FRACTION_SCALE[len(frac)])


# A Dec whose mantissa is yet to be set: what each operator, and each
# decimal checker of the event parser, fills in.
_new_dec = object.__new__


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
    #
    # Each operator reads a Dec operand's mantissa directly and coerces
    # anything else: an int becomes a Dec, any other type is NotImplemented.
    # Results are built without from_mantissa's type checks, since a sum,
    # difference, product or quotient of ints is an int.

    @staticmethod
    def _coerce(other: object) -> "Dec | None":
        if isinstance(other, Dec):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Dec(other)
        return None

    def __add__(self, other: object) -> "Dec":
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        mantissa = self.mantissa + other.mantissa
        if abs(mantissa) >= MANTISSA_BOUND:
            raise DecOverflowError(_OVERFLOW)
        result = _new_dec(Dec)
        result.mantissa = mantissa
        return result

    __radd__ = __add__

    def __sub__(self, other: object) -> "Dec":
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        mantissa = self.mantissa - other.mantissa
        if abs(mantissa) >= MANTISSA_BOUND:
            raise DecOverflowError(_OVERFLOW)
        result = _new_dec(Dec)
        result.mantissa = mantissa
        return result

    def __mul__(self, other: object) -> "Dec":
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        result = _new_dec(Dec)
        result.mantissa = trunc_mul(self.mantissa, other.mantissa)
        return result

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Dec":
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if other.mantissa == 0:
            raise ZeroDivisionError("Dec division by zero")
        result = _new_dec(Dec)
        result.mantissa = trunc_div(self.mantissa, other.mantissa)
        return result

    def __neg__(self) -> "Dec":
        return Dec.from_mantissa(-self.mantissa)

    # -- Comparison --------------------------------------------------------

    def _comparison(compare):
        # One method per operator: the mantissas compared once a non-Dec
        # operand is coerced, as the arithmetic does.
        def method(self, other: object) -> bool:
            if type(other) is not Dec:
                other = self._coerce(other)
                if other is None:
                    return NotImplemented
            return compare(self.mantissa, other.mantissa)

        return method

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)
    del _comparison

    def __hash__(self) -> int:
        # A whole value equals an int and must hash as it; a fraction equals
        # no int, so its mantissa alone may key it.
        whole, fraction = divmod(self.mantissa, SCALE)
        return hash(("Dec", self.mantissa)) if fraction else hash(whole)

    def __bool__(self) -> bool:
        return self.mantissa != 0

    # -- Predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def is_negative(self) -> bool:
        return self.mantissa < 0


ZERO = Dec(0)
ONE = Dec(1)


def parse_canonical(text: object) -> Dec:
    """The Dec whose str() is text.

    Any other value, a non-canonical spelling of a decimal included, raises
    DecParseError; a canonical literal beyond the carrier raises
    DecOverflowError.
    """
    match = _CANONICAL_DECIMAL.fullmatch(text) if type(text) is str else None
    if match is None:
        raise DecParseError(f"not a canonical decimal literal: {text!r}")
    whole, frac = match.groups("")
    dec = _new_dec(Dec)
    if len(whole) < _MAX_WHOLE_DIGITS:
        # As in _parse_mantissa: too short to reach the carrier's bound.
        dec.mantissa = int(whole + frac) * _FRACTION_SCALE[len(frac)]
    else:
        dec.mantissa = _parse_mantissa(text)
    return dec


def dec_muldiv(a: Dec, b: Dec, c: Dec) -> Dec:
    """a * b / c with a single truncation.

    The intermediate product keeps full precision, so the result is the
    exact rational a*b/c truncated once toward zero. In particular
    dec_muldiv(x, y, y) == x, which (a * y) / y does not guarantee.
    """
    result = _new_dec(Dec)
    result.mantissa = trunc_muldiv(a.mantissa, b.mantissa, c.mantissa)
    return result
