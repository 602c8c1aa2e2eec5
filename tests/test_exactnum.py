from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selbergdim.exactnum import (
    binom,
    format_rational,
    hockey_stick_check,
    is_integer,
    parse_rational,
    pochhammer,
    scaled_rising,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
# Numerators in -30..30 over denominators in 1..12, or plain ints.
small_rationals = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.integers(-30, 30),
)


def frozen_fraction_pochhammer(a, k):
    """The original Fraction-per-factor loop, kept verbatim as an oracle."""
    if k < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {k}")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def outcome(fn, *args):
    """The value with its type, or the exception class and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return ("raised", type(exc), str(exc))
    return (value, type(value))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(5, 7), 0) == 1
        assert pochhammer(0, 0) == 1

    def test_integer_rising(self):
        assert pochhammer(1, 3) == 6  # 1*2*3

    def test_negative_half(self):
        # (-3/2)(-1/2) multiplied out by hand
        assert pochhammer(Fraction(-3, 2), 2) == Fraction(3, 4)

    def test_hits_zero_and_stays(self):
        assert pochhammer(-3, 4) == 0
        assert pochhammer(-3, 9) == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(Fraction(1, 2), -1)

    @given(rationals, st.integers(min_value=1, max_value=25))
    def test_recurrence(self, a, k):
        assert pochhammer(a, k) == pochhammer(a, k - 1) * (a + k - 1)

    @settings(max_examples=300)
    @given(small_rationals, st.integers(min_value=-2, max_value=12))
    @example(Fraction(-7, 3), 12)  # no factor vanishes
    @example(-4, 5)  # the factor at i = 4 is zero
    @example(Fraction(-12, 4), 4)  # unreduced input that reduces to -3
    @example(7, -1)
    def test_matches_fraction_loop(self, a, k):
        assert outcome(pochhammer, a, k) == outcome(frozen_fraction_pochhammer, a, k)


def frozen_loop_scaled_rising(p, q, k):
    """The original multiply-and-step loop, kept verbatim as an oracle."""
    if k < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {k}")
    out = 1
    for _ in range(k):
        out *= p
        p += q
    return out


class TestScaledRising:
    @settings(max_examples=300)
    @given(
        st.integers(-30, 30),
        st.integers(-12, 12).filter(bool),
        st.integers(-2, 12),
    )
    @example(-6, 3, 3)  # the factor at i = 2 is zero
    @example(6, -3, 3)  # q < 0: 6, 3, 0
    @example(5, -12, 12)  # q < 0, no factor vanishes
    @example(1, -2, -2)
    def test_matches_loop(self, p, q, k):
        assert outcome(scaled_rising, p, q, k) == outcome(frozen_loop_scaled_rising, p, q, k)

    def test_empty_product(self):
        assert scaled_rising(5, 3, 0) == 1

    def test_small_case(self):
        # 3^3 (2/3)_3 = 2 * 5 * 8
        assert scaled_rising(2, 3, 3) == 80

    def test_unreduced_denominator(self):
        # 2/4 = 1/2, but the product is taken over q = 4 as given: 2 * 6
        assert scaled_rising(2, 4, 2) == 12
        assert Fraction(scaled_rising(2, 4, 2), 4**2) == pochhammer(Fraction(1, 2), 2)

    def test_zero_factor(self):
        assert scaled_rising(-6, 3, 3) == 0  # -6, -3, 0
        assert scaled_rising(-6, 3, 2) == 18

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="nonnegative, got -2"):
            scaled_rising(1, 2, -2)


class TestBinom:
    def test_basic(self):
        assert binom(4, 2) == 6
        assert binom(0, 0) == 1
        assert binom(7, 0) == 1

    def test_vanishes_above_diagonal(self):
        assert binom(2, 5) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(3, -2)

    def test_matches_pochhammer_form(self):
        # C(r, s) == (-1)^s (-r)_s / s!  -- independent oracle through pochhammer
        fact = [1, 1, 2, 6, 24, 120, 720]
        for r in range(0, 7):
            for s in range(0, 7):
                expected = (-1) ** s * pochhammer(-r, s) / fact[s]
                assert binom(r, s) == expected, (r, s)
        assert binom(5, 3) == 10

    def test_pascal_rule_exhaustive(self):
        for r in range(0, 61):
            assert binom(r, 0) == 1
            for s in range(1, r + 1):
                assert binom(r, s) == binom(r - 1, s - 1) + binom(r - 1, s), (r, s)


class TestHockeyStick:
    def test_small_case(self):
        # 1 + 2 + 3 + 4 = 10 = C(5, 2), summed directly
        assert hockey_stick_check(5, 1)

    def test_single_term(self):
        assert hockey_stick_check(1, 0)

    def test_large_case(self):
        assert hockey_stick_check(40, 17)

    def test_exhaustive_to_60(self):
        for r in range(1, 61):
            for s in range(0, min(r, 41)):
                assert hockey_stick_check(r, s), (r, s)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            hockey_stick_check(3, 3)
        with pytest.raises(ValueError):
            hockey_stick_check(2, -1)


class TestIsInteger:
    def test_examples(self):
        assert is_integer(Fraction(7, 1))
        assert not is_integer(Fraction(-13, 12))
        assert is_integer(Fraction(0))
        assert is_integer(Fraction(6, 3))  # reduces to 2


class TestTextForm:
    def test_format(self):
        assert format_rational(Fraction(-13, 12)) == "-13/12"
        assert format_rational(Fraction(7)) == "7"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(Fraction(4, 6)) == "2/3"

    def test_format_int_and_other_types(self):
        assert format_rational(-12) == "-12"
        assert format_rational(0) == "0"
        assert format_rational(True) == "1"

        class Half(Fraction):
            pass

        assert format_rational(Half(-3, 6)) == "-1/2"

    def test_parse(self):
        assert parse_rational("-13/12") == Fraction(-13, 12)
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("+3/9") == Fraction(1, 3)

    @pytest.mark.parametrize(
        "bad",
        ["1/0", "0/0", "1.5", "", "/2", "1/", "1 /2", "3e2", "one", "1/-2", None, "1/2\n", "7\n"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", ["1" + "0" * 4999, "-1/1" + "0" * 4999, "0" * 5000 + "/0"])
    def test_parse_past_the_digit_limit(self, text):
        # The package's one text for it, not the interpreter's, and before the
        # zero-denominator check, which would need the digits converted first.
        with pytest.raises(ValueError) as exc_info:
            parse_rational(text)
        assert str(exc_info.value) == (
            "a value has more digits than the interpreter's int-to-str limit (4300); "
            "PYTHONINTMAXSTRDIGITS=0 lifts it"
        )

    @pytest.mark.parametrize("text", [" 1.5e2 ", "2.0", " 0.5 ", "1e-3", "3/4 "])
    def test_a_str_is_read_in_the_strict_form_only(self, text):
        # Fraction would read each of these: ' 1.5e2 ' as 150, '2.0' as 2.
        for fn in (format_rational, is_integer, lambda q: pochhammer(q, 2)):
            with pytest.raises(ValueError, match=f"invalid rational literal '{text}'"):
                fn(text)

    def test_a_str_in_the_strict_form_is_its_rational(self):
        assert format_rational("-2/6") == "-1/3"
        assert is_integer("4") and not is_integer("1/3")
        assert pochhammer("1/2", 2) == Fraction(3, 4)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(st.one_of(st.integers(), st.fractions()))
    @example(q=Fraction(7, 1))
    @example(q=Fraction(-13, 12))
    def test_format_is_str(self, q):
        # The record renderers write I_hyp, an int or a Fraction, by str.
        assert format_rational(q) == str(q)


class TestFieldAxioms:
    """Canonical-form arithmetic behaves like a field on random triples."""

    @given(rationals, rationals, rationals)
    def test_associative_commutative_distributive(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(rationals)
    def test_canonical_form(self, q):
        assert q.denominator > 0
        from math import gcd

        assert gcd(abs(q.numerator), q.denominator) == 1
