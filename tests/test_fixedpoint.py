import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plfkit.fixedpoint import (
    _CANONICAL_DECIMAL,
    _DECIMAL,
    _MAX_WHOLE_DIGITS,
    MANTISSA_BOUND,
    ONE,
    SCALE,
    ZERO,
    Dec,
    DecOverflowError,
    DecParseError,
    dec_muldiv,
    parse_canonical,
    trunc_muldiv,
)

# Small enough that products of two operands stay inside the carrier.
mantissas = st.integers(min_value=-(10 ** 27), max_value=10 ** 27)
decs = mantissas.map(Dec.from_mantissa)
nonzero_decs = mantissas.filter(lambda m: m != 0).map(Dec.from_mantissa)
# Ints and Decs that often equal each other: small whole values both
# ways, fractions, and whole values up to the carrier.
wholes = st.integers(-(MANTISSA_BOUND // SCALE), MANTISSA_BOUND // SCALE)
equatable = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3).map(Dec), st.sampled_from([Dec("0.5"), Dec("-1.5")]),
    wholes, wholes.map(Dec), decs,
)


def exact(d: Dec) -> Fraction:
    return Fraction(d.mantissa, SCALE)


class TestConstruction:
    def test_from_int(self):
        assert Dec(5).mantissa == 5 * SCALE
        assert Dec(-3).mantissa == -3 * SCALE
        assert Dec(0).mantissa == 0

    def test_from_string(self):
        assert Dec("1.5").mantissa == 15 * 10 ** 17
        assert Dec("-2.25").mantissa == -225 * 10 ** 16
        assert Dec("0.000000000000000001").mantissa == 1
        assert Dec("+7").mantissa == 7 * SCALE
        assert Dec("10").mantissa == 10 * SCALE

    def test_copy_constructor(self):
        d = Dec("3.14")
        assert Dec(d) == d

    def test_from_mantissa(self):
        assert Dec.from_mantissa(1).mantissa == 1
        assert Dec.from_mantissa(-1).mantissa == -1

    @pytest.mark.parametrize("bad", ["", "1.2.3", "abc", "1e5", ".5", "1.", "1 "])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(DecParseError):
            Dec(bad)

    def test_parse_rejects_excess_precision(self):
        with pytest.raises(DecParseError):
            Dec("0.0000000000000000001")  # 19 digits

    @pytest.mark.parametrize(
        "bad",
        ["\uff10.\uff15", "\u0660.\u0665", "\u00b2", "0.5\n", "\n0.5", " 0.5", "1_000", "1.5_0", "--1", "+"],
    )
    def test_parse_accepts_only_ascii_digits(self, bad):
        # Only [+-]?[0-9]+(.[0-9]{1,18})? is a decimal: no other Unicode
        # digits, no whitespace (not even a trailing newline), no separators.
        with pytest.raises(DecParseError) as excinfo:
            Dec(bad)
        assert str(excinfo.value) == f"not a decimal literal: {bad!r}"

    def test_parse_error_messages(self):
        with pytest.raises(DecParseError) as excinfo:
            Dec("1.2.3")
        assert str(excinfo.value) == "not a decimal literal: '1.2.3'"
        with pytest.raises(DecParseError) as excinfo:
            Dec("-0.0000000000000000001")
        assert str(excinfo.value) == "more than 18 fractional digits: '-0.0000000000000000001'"

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_parse_matches_exact_rational(self, sign):
        for text in ["0", "7", "0.5", "12.000000000000000001", "000123.4500", "99999.999999999999999999"]:
            whole, _, frac = (sign + text).lstrip("+-").partition(".")
            expected = int(whole) * SCALE + int(frac.ljust(18, "0") or "0")
            assert Dec(sign + text).mantissa == (-expected if sign == "-" else expected)

    def test_parse_beyond_carrier_overflows(self):
        with pytest.raises(DecOverflowError):
            Dec("1" + "0" * 80)
        with pytest.raises(DecOverflowError):
            Dec("-" + "9" * 5000)
        # Leading zeros do not count towards the carrier.
        assert Dec("0" * 5000 + "1.5") == Dec("1.5")
        assert Dec("-" + "0" * 5000 + ".25") == Dec("-0.25")
        assert Dec("+" + "0" * 5000) == ZERO
        bound_whole = str((MANTISSA_BOUND - 1) // SCALE)
        assert Dec(bound_whole).mantissa == int(bound_whole) * SCALE

    def test_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            Dec(1.5)
        with pytest.raises(TypeError):
            Dec(True)
        with pytest.raises(TypeError):
            Dec.from_mantissa(True)

    def test_overflow_at_bound(self):
        Dec.from_mantissa(MANTISSA_BOUND - 1)
        Dec.from_mantissa(-(MANTISSA_BOUND - 1))
        with pytest.raises(DecOverflowError):
            Dec.from_mantissa(MANTISSA_BOUND)
        with pytest.raises(DecOverflowError):
            Dec.from_mantissa(-MANTISSA_BOUND)


class TestRendering:
    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("0", "0"),
            ("-0", "0"),
            ("1.500", "1.5"),
            ("0.000000000000000001", "0.000000000000000001"),
            ("-0.5", "-0.5"),
            ("123", "123"),
        ],
    )
    def test_canonical_str(self, text, canonical):
        assert str(Dec(text)) == canonical

    def test_repr(self):
        assert repr(Dec("1.5")) == "Dec('1.5')"

    @given(mantissas)
    def test_str_round_trips(self, m):
        d = Dec.from_mantissa(m)
        assert Dec(str(d)) == d

    @given(mantissas | st.integers(-MANTISSA_BOUND + 1, MANTISSA_BOUND - 1))
    def test_str_is_canonical(self, m):
        d = Dec.from_mantissa(m)
        assert _CANONICAL_DECIMAL.fullmatch(str(d))
        assert parse_canonical(str(d)) == d

    @settings(max_examples=300)
    @given(st.from_regex(_DECIMAL, fullmatch=True) | st.from_regex(_CANONICAL_DECIMAL, fullmatch=True))
    @example("0.50")
    @example("+1")
    @example("01")
    @example("-0")
    @example("-0.0")
    @example("1.0")
    @example("-0.5")
    @example("0.000000000000000001")
    @example("0.0000000000000000010")
    @example("9" * 70)
    @example("+" + "9" * 70)
    def test_canonical_literals_are_what_str_writes(self, text):
        """parse_canonical takes a literal exactly when str() of its value
        is that literal, and then returns that value."""
        try:
            value = Dec(text)
        except (DecParseError, DecOverflowError):
            with pytest.raises((DecParseError, DecOverflowError)):
                parse_canonical(text)
            return
        if str(value) == text:
            assert parse_canonical(text) == value
        else:
            with pytest.raises(DecParseError, match="not a canonical decimal literal"):
                parse_canonical(text)

    @pytest.mark.parametrize("value", [5, 1.5, None, True, ["1"], "1e3", ".5", "1.", " 1"])
    def test_parse_canonical_refuses_other_values(self, value):
        with pytest.raises(DecParseError, match="not a canonical decimal literal"):
            parse_canonical(value)

    @pytest.mark.parametrize("sign", [1, -1], ids=["unsigned", "signed"])
    def test_parse_canonical_at_the_longest_whole_part(self, sign):
        """Whole parts of _MAX_WHOLE_DIGITS digits, the most the carrier
        holds: its largest literal parses, the next whole number overflows."""
        largest = Dec.from_mantissa(sign * (MANTISSA_BOUND - 1))
        text = str(largest)
        assert len(text.lstrip("-").partition(".")[0]) == _MAX_WHOLE_DIGITS
        assert parse_canonical(text) == largest
        shortest = sign * 10 ** (_MAX_WHOLE_DIGITS - 1)
        assert parse_canonical(str(shortest)) == Dec(shortest)
        beyond = str(sign * (MANTISSA_BOUND // SCALE + 1))
        assert len(beyond.lstrip("-")) == _MAX_WHOLE_DIGITS
        with pytest.raises(DecOverflowError):
            parse_canonical(beyond)


class TestArithmetic:
    def test_add_sub_exact(self):
        assert Dec("0.1") + Dec("0.2") == Dec("0.3")
        assert Dec(1) - Dec("0.999999999999999999") == Dec.from_mantissa(1)

    def test_division_truncates_toward_zero(self):
        # -1/3 is -0.333...; floor division would land one unit lower.
        assert (Dec(-1) / Dec(3)).mantissa == -333333333333333333
        assert (Dec(1) / Dec(3)).mantissa == 333333333333333333

    def test_multiplication_truncates_toward_zero(self):
        tiny = Dec.from_mantissa(1)
        assert tiny * Dec("0.5") == ZERO
        assert (-tiny) * Dec("0.5") == ZERO

    def test_int_coercion(self):
        assert Dec("1.5") + 1 == Dec("2.5")
        assert 1 + Dec("1.5") == Dec("2.5")
        assert 2 * Dec("0.5") == ONE
        assert 1 < Dec("1.5") and 2 > Dec("1.5") and 2 == Dec(2)
        # An int may sit only on the right of - and /.
        assert Dec(3) - 1 == Dec(2)
        assert Dec(1) / 4 == Dec("0.25")
        with pytest.raises(TypeError):
            3 - Dec(1)
        with pytest.raises(TypeError):
            1 / Dec(4)

    def test_float_operands_rejected(self):
        with pytest.raises(TypeError):
            Dec(1) + 0.5

    def test_bool_operands_rejected(self):
        with pytest.raises(TypeError):
            Dec(1) + True
        with pytest.raises(TypeError):
            True + Dec(1)
        assert (Dec(1) == True) is False  # noqa: E712

    def test_mixed_operands(self):
        assert Dec(2) == 2
        assert 2 < Dec(3)
        assert 3 + Dec(1) == Dec(4)
        assert (Dec(1) == 1.0) is False
        assert (Dec(1) != 1.0) is True

    @pytest.mark.parametrize("a,b", list(product(
        [MANTISSA_BOUND - 1, MANTISSA_BOUND - 2, -(MANTISSA_BOUND - 1), -(MANTISSA_BOUND - 2)],
        [0, 1, 2, -1, -2, MANTISSA_BOUND - 1, -(MANTISSA_BOUND - 1)],
    )))
    def test_add_sub_at_the_carrier(self, a, b):
        x, y = Dec.from_mantissa(a), Dec.from_mantissa(b)
        for op, exact_result in ((lambda p, q: p + q, a + b), (lambda p, q: p - q, a - b)):
            if -MANTISSA_BOUND < exact_result < MANTISSA_BOUND:
                assert op(x, y).mantissa == exact_result
            else:
                with pytest.raises(DecOverflowError):
                    op(x, y)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Dec(1) / ZERO

    def test_neg_abs(self):
        assert -Dec("1.5") == Dec("-1.5")

    def test_mul_overflow_detected(self):
        big = Dec.from_mantissa(MANTISSA_BOUND - 1)
        with pytest.raises(DecOverflowError):
            big * big

    @given(decs, decs)
    def test_add_matches_fraction(self, a, b):
        assert exact(a + b) == exact(a) + exact(b)

    @given(decs, decs)
    def test_sub_matches_fraction(self, a, b):
        assert exact(a - b) == exact(a) - exact(b)

    @given(decs, decs)
    def test_mul_matches_truncated_fraction(self, a, b):
        expected = math.trunc(Fraction(a.mantissa * b.mantissa, SCALE))
        assert (a * b).mantissa == expected

    @given(decs, nonzero_decs)
    def test_div_matches_truncated_fraction(self, a, b):
        expected = math.trunc(Fraction(a.mantissa * SCALE, b.mantissa))
        assert (a / b).mantissa == expected


class TestMulDiv:
    def test_single_truncation_recovers_exactly(self):
        principal = Dec("100.000000000000000007")
        index = Dec("1.100000000000000003")
        # Two-step arithmetic loses a unit; the fused form does not.
        two_step = (principal * index) / index
        assert two_step != principal
        assert dec_muldiv(principal, index, index) == principal

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            dec_muldiv(ONE, ONE, ZERO)

    @given(decs, nonzero_decs)
    def test_muldiv_identity(self, a, b):
        assert dec_muldiv(a, b, b) == a

    @given(decs, decs, nonzero_decs)
    def test_muldiv_matches_truncated_fraction(self, a, b, c):
        expected = math.trunc(Fraction(a.mantissa * b.mantissa, c.mantissa))
        assert dec_muldiv(a, b, c).mantissa == expected

    def test_operators_multiply_and_divide(self):
        assert Dec(2) * Dec(3) == Dec(6)
        assert Dec(6) / Dec(3) == Dec(2)


# Magnitudes anywhere inside the carrier, so that a * b / c lands on both
# sides of the bound.
magnitudes = st.integers(min_value=0, max_value=MANTISSA_BOUND - 1)
signs = st.sampled_from(list(product((1, -1), repeat=3)))


class TestTruncMulDiv:
    @settings(max_examples=300, deadline=None)
    @given(magnitudes, magnitudes, magnitudes.filter(lambda m: m != 0), signs)
    def test_matches_truncated_fraction(self, a, b, c, sign):
        a, b, c = a * sign[0], b * sign[1], c * sign[2]
        expected = math.trunc(Fraction(a * b, c))  # toward zero, not floor
        if abs(expected) < MANTISSA_BOUND:
            assert trunc_muldiv(a, b, c) == expected
        else:
            with pytest.raises(DecOverflowError):
                trunc_muldiv(a, b, c)

    @given(st.integers(), st.integers())
    def test_zero_divisor(self, a, b):
        with pytest.raises(ZeroDivisionError):
            trunc_muldiv(a, b, 0)

    @pytest.mark.parametrize("a,b,c,expected", [
        (7, 1, 2, 3), (-7, 1, 2, -3), (7, -1, 2, -3), (7, 1, -2, -3),
        (-7, -1, 2, 3), (-7, 1, -2, 3), (7, -1, -2, 3), (-7, -1, -2, -3),
    ])
    def test_every_sign_mix_truncates_toward_zero(self, a, b, c, expected):
        assert trunc_muldiv(a, b, c) == expected

    def test_carrier(self):
        top = MANTISSA_BOUND - 1
        # The product may exceed the carrier; only the quotient must fit.
        assert trunc_muldiv(top, 3, 3) == top
        assert trunc_muldiv(-top, 3, 3) == -top
        with pytest.raises(DecOverflowError):
            trunc_muldiv(top, 3, 2)
        with pytest.raises(DecOverflowError):
            trunc_muldiv(top, -3, 2)

    @given(decs, decs, nonzero_decs)
    def test_is_the_mantissa_of_dec_muldiv(self, a, b, c):
        assert trunc_muldiv(a.mantissa, b.mantissa, c.mantissa) == dec_muldiv(a, b, c).mantissa


class TestComparisonAndIdentity:
    def test_ordering(self):
        assert Dec(1) < Dec(2) <= Dec(2) < Dec("2.5")
        assert Dec(-1) < ZERO < ONE
        assert Dec(3) > Dec("2.999999999999999999")
        assert Dec(3) >= 3

    def test_equality_with_int(self):
        assert Dec(5) == 5
        assert Dec("5.1") != 5

    def test_hashable(self):
        assert hash(Dec("1.5")) == hash(Dec("1.50"))
        assert len({Dec(1), Dec(1), Dec(2)}) == 2

    @pytest.mark.parametrize("n", [
        0, 1, -1, 2, -2, 10 ** 18, -(10 ** 18),
        # The largest whole values the carrier holds, and their neighbours.
        MANTISSA_BOUND // SCALE, -(MANTISSA_BOUND // SCALE),
        MANTISSA_BOUND // SCALE - 1, -(MANTISSA_BOUND // SCALE - 1),
    ])
    def test_whole_values_hash_as_their_int(self, n):
        assert Dec(n) == n
        assert hash(Dec(n)) == hash(n)
        assert n in {Dec(n)}
        assert Dec(n) in {n: None}
        assert len({Dec(n), n}) == 1

    @given(equatable, equatable)
    def test_equal_values_hash_alike(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_bool(self):
        assert not ZERO
        assert ONE

    def test_predicates(self):
        assert ZERO.is_zero()
        assert not ONE.is_zero()
        assert Dec(-1).is_negative()
        assert not ZERO.is_negative()

    @given(mantissas, mantissas)
    def test_comparisons_follow_mantissa(self, m1, m2):
        a, b = Dec.from_mantissa(m1), Dec.from_mantissa(m2)
        assert (a < b) == (m1 < m2)
        assert (a == b) == (m1 == m2)
        assert (a >= b) == (m1 >= m2)
