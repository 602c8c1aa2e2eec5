import math
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selbergdim import hyper
from selbergdim.exactnum import is_integer
from selbergdim.hyper import (
    HypParams3F2,
    HyperEvalError,
    NonTerminatingError,
    PoleBeforeTerminationError,
    ZeroDenominatorError,
    _eval_scaled_3f2,
    _eval_terms,
    contiguity_residual,
    eval_terminating_3f2,
    pfaff_saalschutz_check,
    pfaff_saalschutz_rhs,
    pochhammer_identity_residual,
)
from selbergdim.suites import run_suites

F = Fraction


def naive_3f2(upper, lower, x=F(1), max_terms=64):
    """Independent oracle: each term rebuilt from scratch Pochhammer products."""

    def poch(a, k):
        out = F(1)
        for i in range(k):
            out *= F(a) + i
        return out

    total = F(0)
    for k in range(max_terms):
        num = poch(upper[0], k) * poch(upper[1], k) * poch(upper[2], k)
        if num == 0:
            return total
        den = poch(lower[0], k) * poch(lower[1], k) * factorial(k)
        assert den != 0, f"oracle hit a pole at k={k}"
        total += num / den * F(x) ** k
    raise AssertionError("oracle did not terminate")


def params(upper, lower, x=F(1)):
    return HypParams3F2(tuple(F(u) for u in upper), tuple(F(l) for l in lower), F(x))


def frozen_fraction_terms(params: HypParams3F2) -> tuple[Fraction, int]:
    """The original all-Fraction series loop, kept verbatim as an oracle."""
    witnesses = [-a for a in params.upper if is_integer(a) and a <= 0]
    if not witnesses:
        raise NonTerminatingError(
            "no upper parameter is a non-positive integer; series does not terminate"
        )
    a1, a2, a3 = params.upper
    b1, b2 = params.lower
    x = params.argument

    total = Fraction(0)
    num = Fraction(1)  # (a1)_k (a2)_k (a3)_k
    den = Fraction(1)  # (b1)_k (b2)_k k!
    power = Fraction(1)  # x^k
    k = 0
    while True:
        if num == 0:
            # Termination: every later numerator stays zero, including any
            # index where a denominator factor would also vanish.
            return total, k
        if den == 0:
            raise PoleBeforeTerminationError(k)
        total += num / den * power
        num *= (a1 + k) * (a2 + k) * (a3 + k)
        den *= (b1 + k) * (b2 + k) * (k + 1)
        power *= x
        k += 1


def outcome(evaluate, p):
    """(value, n_terms), or ("pole", k) when the series hits a pole first."""
    try:
        return evaluate(p)
    except PoleBeforeTerminationError as exc:
        return ("pole", exc.k)


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# Lower parameters: general rationals, or non-positive integers to force poles
# and indices where numerator and denominator vanish together.
lower_params = st.one_of(small_rationals, st.integers(min_value=-10, max_value=0).map(F))
arguments = st.one_of(
    st.sampled_from([F(0), F(1), F(1, 2), F(-3, 2)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
)


class TestEvalTerminating3F2:
    def test_zero_upper_parameter_gives_one(self):
        assert eval_terminating_3f2(params([0, F(-1, 2), 5], [F(-7, 2), F(1, 3)])) == 1

    def test_frozen_value_with_late_denominator_zero(self):
        # Terms: 1 - 6/7 + 3/35 = 8/35; the lower parameter -3 would vanish
        # only at k=4, after the numerator dies at k=3.
        value = eval_terminating_3f2(params([-3, -2, F(-3, 2)], [F(-7, 2), -3]))
        assert value == F(8, 35)
        assert value == naive_3f2([-3, -2, F(-3, 2)], [F(-7, 2), -3])

    def test_frozen_value_upper_minus_one_kills_k2(self):
        # Terms: 1 - 1/2; the (-1) upper parameter zeroes everything from k=2.
        value = eval_terminating_3f2(params([-3, -1, F(-1, 2)], [-2, F(-3, 2)]))
        assert value == F(1, 2)
        assert value == naive_3f2([-3, -1, F(-1, 2)], [-2, F(-3, 2)])

    def test_general_argument(self):
        # 1 - 1 + 1/4, summed by hand for x = 1/2.
        assert eval_terminating_3f2(params([-2, 1, 1], [1, 1], F(1, 2))) == F(1, 4)

    def test_numerator_and_denominator_vanish_together_is_termination(self):
        # Upper and lower both contain -2: at k=3 both products vanish, which
        # counts as termination. 1 + 3/2 + 27/16 summed by hand.
        value = eval_terminating_3f2(params([-2, F(1, 2), 1], [-2, F(1, 3)]))
        assert value == F(67, 16)

    def test_non_terminating_rejected(self):
        with pytest.raises(NonTerminatingError):
            eval_terminating_3f2(params([F(1, 2), 1, 5], [F(1, 3), 2]))

    def test_positive_integers_do_not_terminate(self):
        with pytest.raises(NonTerminatingError):
            eval_terminating_3f2(params([3, 1, F(7, 2)], [F(1, 3), 2]))

    def test_pole_before_termination_reports_index(self):
        # Termination would come from -3 at k=4, but (-2)_k in the
        # denominator vanishes at k=3 while the numerator is still nonzero.
        with pytest.raises(PoleBeforeTerminationError) as exc_info:
            eval_terminating_3f2(params([-3, F(1, 2), 5], [-2, F(1, 3)]))
        assert exc_info.value.k == 3

    def test_term_count_bound(self):
        # At most 1 + min(-a) over non-positive-integer upper parameters.
        _, n_terms = _eval_terms(params([-5, -2, F(-9, 2)], [F(1, 3), F(1, 5)]))
        assert n_terms == 3
        _, n_terms = _eval_terms(params([0, -7, 4], [F(1, 3), F(1, 5)]))
        assert n_terms == 1

    def test_upper_order_invariance(self):
        upper = [-3, F(-1, 2), 2]
        lower = [F(-7, 2), F(1, 3)]
        values = {
            eval_terminating_3f2(params(list(p), lower)) for p in permutations(upper)
        }
        assert len(values) == 1

    def test_lower_order_invariance_including_error_class(self):
        value = eval_terminating_3f2(params([-3, -2, F(-3, 2)], [-3, F(-7, 2)]))
        assert value == F(8, 35)
        with pytest.raises(PoleBeforeTerminationError) as exc_info:
            eval_terminating_3f2(params([-3, F(1, 2), 5], [F(1, 3), -2]))
        assert exc_info.value.k == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HypParams3F2((F(1), F(2)), (F(1), F(2)))
        with pytest.raises(ValueError):
            HypParams3F2((F(1), F(2), F(3)), (F(1),))

    def test_fields_coerced_to_fraction_tuples(self):
        class Half(Fraction):
            pass

        p = HypParams3F2([-2, "1/3", Half(1, 2)], (F(5, 2), 7), 1)
        assert p.upper == (F(-2), F(1, 3), F(1, 2))
        assert p.lower == (F(5, 2), F(7))
        assert p.argument == F(1)
        fields = (*p.upper, *p.lower, p.argument)
        assert all(type(v) is Fraction for v in fields)
        assert isinstance(p.upper, tuple) and isinstance(p.lower, tuple)

    def test_fraction_fields_are_kept_not_rebuilt(self):
        a, b, x = F(-3), F(7, 2), F(1, 3)
        p = HypParams3F2((a, b, a), (b, b), x)
        assert p.upper[0] is a and p.lower[1] is b and p.argument is x


class TestIntegerKernelMatchesFractionLoop:
    @settings(max_examples=300)
    @given(
        free_upper=st.tuples(small_rationals, small_rationals),
        stop=st.integers(min_value=0, max_value=12),
        slot=st.integers(min_value=0, max_value=2),
        lower=st.tuples(lower_params, lower_params),
        x=arguments,
    )
    # A pole at k=3 before termination at k=4.
    @example(free_upper=(F(1, 2), F(5)), stop=3, slot=0, lower=(F(-2), F(1, 3)), x=F(1))
    # -2 above and below: numerator and denominator first vanish together at k=3.
    @example(free_upper=(F(1, 2), F(1)), stop=2, slot=0, lower=(F(-2), F(1, 3)), x=F(1))
    # x = 0: every term after the first is zero, yet the pole at k=3 is reached.
    @example(free_upper=(F(1, 2), F(5)), stop=3, slot=0, lower=(F(-2), F(1, 3)), x=F(0))
    # x = 0 without a pole: six terms are still walked.
    @example(free_upper=(F(1, 2), F(5)), stop=5, slot=0, lower=(F(1, 3), F(7, 2)), x=F(0))
    def test_same_value_term_count_and_pole(self, free_upper, stop, slot, lower, x):
        upper = list(free_upper)
        upper.insert(slot, F(-stop))
        p = HypParams3F2(tuple(upper), lower, x)
        assert outcome(_eval_terms, p) == outcome(frozen_fraction_terms, p)


class TestScaledKernel:
    @settings(max_examples=200)
    @given(
        free_upper=st.tuples(small_rationals, small_rationals),
        stop=st.integers(min_value=0, max_value=12),
        lower=st.tuples(lower_params, lower_params),
        x=arguments,
        c=st.integers(min_value=1, max_value=5),
    )
    def test_any_common_denominator_gives_the_same_outcome(self, free_upper, stop, lower, x, c):
        # The front end scales over the lcm L; any multiple cL must give the
        # same value, term count and pole index.
        p = HypParams3F2((F(-stop), *free_upper), lower, x)
        L = c * math.lcm(*(a.denominator for a in (*p.upper, *p.lower)))
        scaled = [a.numerator * (L // a.denominator) for a in (*p.upper, *p.lower)]

        def direct(_):
            num, den, terms = _eval_scaled_3f2(*scaled, L, x.numerator, x.denominator)
            return F(num, den), terms

        assert outcome(direct, p) == outcome(_eval_terms, p) == outcome(frozen_fraction_terms, p)

    def test_non_terminating_scaled_parameters(self):
        # -3/2 and -4/2 = -2 over L = 2: only the second is a non-positive integer.
        assert _eval_scaled_3f2(-3, -4, 1, 5, 7, 2, 1, 1)[2] == 3
        with pytest.raises(NonTerminatingError):
            _eval_scaled_3f2(-3, 4, 1, 5, 7, 2, 1, 1)


class TestScale:
    def test_lcm_below_the_product_of_denominators(self):
        # lcm(6, 4, 10) = 60, not 6 * 4 * 10 = 240.
        assert hyper._scale(F(1, 6), F(1, 4), F(-3, 10)) == (60, 10, 15, -18)

    def test_plain_ints(self):
        scaled = hyper._scale(F(-3), 2, F(0))
        assert scaled == (1, -3, 2, 0)
        assert all(type(v) is int for v in scaled)


class TestPfaffSaalschutz:
    def test_rhs_empty_products(self):
        assert pfaff_saalschutz_rhs(F(5, 7), F(-2, 3), F(9), 0) == 1

    def test_rhs_small_case(self):
        # (2)_1 (2)_1 / ((3)_1 (1)_1) = 4/3
        assert pfaff_saalschutz_rhs(1, 1, 3, 1) == F(4, 3)

    def test_rhs_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            pfaff_saalschutz_rhs(1, 1, 0, 1)  # (c)_1 = 0
        with pytest.raises(ZeroDenominatorError):
            pfaff_saalschutz_rhs(1, 1, 2, 1)  # (c-a-b)_1 = 0

    def test_check_small_case(self):
        assert pfaff_saalschutz_check(1, 1, 3, 1)

    def test_check_j_zero(self):
        assert pfaff_saalschutz_check(F(3, 4), F(-1, 2), F(5, 3), 0)

    def test_both_sides_frozen(self):
        # LHS terms 1 + 1/13 + 2/91 = 100/91, matching the product form.
        a, b, c, j = F(1, 2), F(1, 3), F(2), 2
        lhs = eval_terminating_3f2(params([a, b, -j], [c, 1 + a + b - c - j]))
        assert lhs == F(100, 91)
        assert pfaff_saalschutz_rhs(a, b, c, j) == F(100, 91)
        assert pfaff_saalschutz_check(a, b, c, j)

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=4),
        st.fractions(min_value=-8, max_value=8, max_denominator=4),
        st.fractions(min_value=-8, max_value=8, max_denominator=4),
        st.integers(min_value=1, max_value=8),
    )
    def test_identity_on_random_valid_inputs(self, a, b, c, j):
        try:
            ok = pfaff_saalschutz_check(a, b, c, j)
        except HyperEvalError:
            return  # declared error case, outside the identity's hypotheses
        assert ok, (a, b, c, j)


class TestContiguity:
    def test_symmetric_cancellation(self):
        # b = a makes the residual a difference of two series that agree by
        # upper-parameter symmetry; lower row (1/3, 5/3) never vanishes.
        assert contiguity_residual(1, 1, F(1, 3), 2) == 0

    def test_mixed_case(self):
        assert contiguity_residual(F(1, 2), 2, F(5, 2), 1) == 0

    def test_j_zero_trivial(self):
        assert contiguity_residual(F(7, 3), F(-1, 2), F(4, 5), 0) == 0

    def test_undefined_input_raises(self):
        # The shared lower row contains a + b - c + 2 - j = -1, so every
        # series in the relation has a pole at k=2 before terminating at
        # k=3; no limit interpretation is taken.
        with pytest.raises(PoleBeforeTerminationError) as exc_info:
            contiguity_residual(1, 1, 3, 2)
        assert exc_info.value.k == 2

    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=3),
        st.fractions(min_value=-6, max_value=6, max_denominator=3),
        st.fractions(min_value=-6, max_value=6, max_denominator=3),
        st.integers(min_value=0, max_value=10),
    )
    def test_residual_zero_on_random_valid_inputs(self, a, b, c, j):
        try:
            residual = contiguity_residual(a, b, c, j)
        except HyperEvalError:
            return
        assert residual == 0, (a, b, c, j)


class TestPochhammerIdentity:
    def test_k_zero(self):
        assert pochhammer_identity_residual(F(5, 9), F(-3, 7), 0) == 0

    def test_mixed_case(self):
        assert pochhammer_identity_residual(F(3, 2), -2, 4) == 0

    def test_equal_arguments(self):
        for k in range(0, 8):
            assert pochhammer_identity_residual(7, 7, k) == 0

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=4),
        st.fractions(min_value=-8, max_value=8, max_denominator=4),
        st.integers(min_value=0, max_value=10),
    )
    def test_residual_always_zero(self, a, b, k):
        assert pochhammer_identity_residual(a, b, k) == 0


# ---------------------------------------------------------------------------
# The identity checks as they were before they moved onto ints: every
# Pochhammer factor a Fraction multiply. Kept verbatim as oracles.


def frozen_pochhammer(a, k):
    if k < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {k}")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def frozen_pfaff_saalschutz_rhs(a, b, c, j):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    den_c = frozen_pochhammer(c, j)
    den_cab = frozen_pochhammer(c - a - b, j)
    if den_c == 0 or den_cab == 0:
        raise ZeroDenominatorError(
            f"(c)_{j} or (c-a-b)_{j} vanishes for a={a}, b={b}, c={c}"
        )
    return frozen_pochhammer(c - a, j) * frozen_pochhammer(c - b, j) / (den_c * den_cab)


def frozen_pfaff_lhs_params(a, b, c, j):
    return HypParams3F2(upper=(a, b, Fraction(-j)), lower=(c, 1 + a + b - c - j))


def frozen_pfaff_saalschutz_check(a, b, c, j):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    lhs = eval_terminating_3f2(frozen_pfaff_lhs_params(a, b, c, j))
    return lhs == frozen_pfaff_saalschutz_rhs(a, b, c, j)


def frozen_contiguity_residual(a, b, c, j):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    lower = (c, a + b - c + 2 - j)
    f_ab = eval_terminating_3f2(HypParams3F2((a, b, Fraction(-j)), lower))
    f_a1b = eval_terminating_3f2(HypParams3F2((a + 1, b, Fraction(-j)), lower))
    f_ab1 = eval_terminating_3f2(HypParams3F2((a, b + 1, Fraction(-j)), lower))
    return (b - a) * f_ab + a * f_a1b - b * f_ab1


def frozen_pochhammer_identity_residual(a, b, k):
    a, b = Fraction(a), Fraction(b)
    return (
        a * frozen_pochhammer(a + 1, k) * frozen_pochhammer(b, k)
        - b * frozen_pochhammer(a, k) * frozen_pochhammer(b + 1, k)
        - (a - b) * frozen_pochhammer(a, k) * frozen_pochhammer(b, k)
    )


def identity_outcome(fn, *args):
    """The value with its type, or the exception class and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return ("raised", type(exc), str(exc))
    return (value, type(value))


# Numerators in -30..30 over denominators in 1..12, or plain ints.
identity_params = st.one_of(
    st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
    st.integers(-30, 30),
)
orders = st.integers(min_value=0, max_value=12)

# (a, b, c, j) inputs where a factor vanishes or the order is negative.
ZERO_FACTOR_CASES = [
    (1, 1, 0, 1),  # (c)_1 = 0
    (1, 1, 2, 1),  # (c-a-b)_1 = 0
    (F(-2), F(1, 3), F(-2), 3),  # (c)_3 = 0 and a pole in the series
    (F(3, 2), F(1, 3), F(1, 2), 2),  # (c-a)_2 = 0: closed form is zero
    (F(1, 3), F(5, 2), F(1, 2), 3),  # (c-b)_3 = 0
    (-3, F(1, 2), F(7, 4), 5),  # the series stops at k=4, before -j does
    (1, 1, 3, 2),  # a pole before termination in the contiguity series
    (-2, 1, 5, -1),  # negative order
    (F(1, 2), 1, 5, -2),  # negative order on a non-terminating series
    (0, 0, 0, 0),
]


class TestIdentityKernelMatchesFractionLoops:
    @settings(max_examples=300)
    @given(identity_params, identity_params, identity_params, orders)
    def test_pfaff_rhs(self, a, b, c, j):
        assert identity_outcome(pfaff_saalschutz_rhs, a, b, c, j) == identity_outcome(
            frozen_pfaff_saalschutz_rhs, a, b, c, j
        )

    @settings(max_examples=300)
    @given(identity_params, identity_params, identity_params, orders)
    @example(F(1, 4), F(1, 6), F(3, 10), 5)  # lcm 60 of the denominators < product 240
    def test_pfaff_check(self, a, b, c, j):
        assert identity_outcome(pfaff_saalschutz_check, a, b, c, j) == identity_outcome(
            frozen_pfaff_saalschutz_check, a, b, c, j
        )

    @settings(max_examples=200)
    @given(identity_params, identity_params, identity_params, orders)
    @example(F(1, 4), F(1, 6), F(3, 10), 5)  # lcm 60 of the denominators < product 240
    def test_contiguity_residual(self, a, b, c, j):
        assert identity_outcome(contiguity_residual, a, b, c, j) == identity_outcome(
            frozen_contiguity_residual, a, b, c, j
        )

    @settings(max_examples=300)
    @given(identity_params, identity_params, orders)
    @example(F(-3), F(1, 2), 5)  # (a)_5 = 0
    @example(F(-4), F(-2), 6)  # (a+1)_6 = (b)_6 = (b+1)_6 = 0
    @example(0, 0, 0)
    def test_pochhammer_residual(self, a, b, k):
        assert identity_outcome(pochhammer_identity_residual, a, b, k) == identity_outcome(
            frozen_pochhammer_identity_residual, a, b, k
        )

    @pytest.mark.parametrize("a, b, c, j", ZERO_FACTOR_CASES)
    def test_zero_factor_and_negative_order_inputs(self, a, b, c, j):
        pairs = [
            (pfaff_saalschutz_rhs, frozen_pfaff_saalschutz_rhs),
            (pfaff_saalschutz_check, frozen_pfaff_saalschutz_check),
            (contiguity_residual, frozen_contiguity_residual),
        ]
        for new, old in pairs:
            assert identity_outcome(new, a, b, c, j) == identity_outcome(old, a, b, c, j), new
        assert identity_outcome(pochhammer_identity_residual, a, b, j) == identity_outcome(
            frozen_pochhammer_identity_residual, a, b, j
        )

    def test_negative_order_message(self):
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            pfaff_saalschutz_rhs(1, 1, 5, -1)
        with pytest.raises(ValueError, match="nonnegative, got -3"):
            pochhammer_identity_residual(F(1, 2), 2, -3)

    def test_int_inputs_give_fractions(self):
        assert type(pfaff_saalschutz_rhs(1, 1, 3, 1)) is Fraction
        assert type(contiguity_residual(1, 1, F(1, 3), 2)) is Fraction
        assert type(pochhammer_identity_residual(7, 7, 3)) is Fraction


def over_multiple(c, *values):
    """(cL, v1 cL, ...) with L the lcm of the reduced denominators: a common
    multiple with a spare factor c, as an unreduced draw such as 2/2 gives."""
    values = [F(v) for v in values]
    L = c * math.lcm(*(v.denominator for v in values))
    return (L, *(v.numerator * (L // v.denominator) for v in values))


def checker_outcome(fn, *args):
    """A bool, a residual pair as its Fraction, or the exception class, message
    and pole index."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "k", None))
    return F(*value) if type(value) is tuple else value


spares = st.integers(min_value=1, max_value=5)
any_orders = st.integers(min_value=-2, max_value=12)


class TestScaledCheckersMatchPublic:
    """Each int checker over any common multiple c'L gives what its public
    Fraction counterpart gives."""

    @settings(max_examples=300)
    @given(identity_params, identity_params, identity_params, any_orders, spares)
    def test_pfaff(self, a, b, c, j, spare):
        scaled = over_multiple(spare, a, b, c)
        assert checker_outcome(hyper._pfaff_scaled, *scaled, j) == checker_outcome(
            pfaff_saalschutz_check, a, b, c, j
        )
        assert checker_outcome(hyper._pfaff_rhs_pair, *scaled, j) == checker_outcome(
            pfaff_saalschutz_rhs, a, b, c, j
        )

    @settings(max_examples=200)
    @given(identity_params, identity_params, identity_params, any_orders, spares)
    def test_contiguity(self, a, b, c, j, spare):
        assert checker_outcome(
            hyper._contiguity_scaled, *over_multiple(spare, a, b, c), j
        ) == checker_outcome(contiguity_residual, a, b, c, j)

    @settings(max_examples=300)
    @given(identity_params, identity_params, any_orders, spares)
    def test_pochhammer(self, a, b, k, spare):
        assert checker_outcome(
            hyper._pochhammer_scaled, *over_multiple(spare, a, b), k
        ) == checker_outcome(pochhammer_identity_residual, a, b, k)

    @pytest.mark.parametrize("a, b, c, j", ZERO_FACTOR_CASES)
    @pytest.mark.parametrize("spare", [1, 2, 6])
    def test_zero_factor_and_negative_order_inputs(self, a, b, c, j, spare):
        scaled = over_multiple(spare, a, b, c)
        pairs = [
            (hyper._pfaff_rhs_pair, pfaff_saalschutz_rhs),
            (hyper._pfaff_scaled, pfaff_saalschutz_check),
            (hyper._contiguity_scaled, contiguity_residual),
        ]
        for new, public in pairs:
            assert checker_outcome(new, *scaled, j) == checker_outcome(public, a, b, c, j), new
        assert checker_outcome(
            hyper._pochhammer_scaled, *over_multiple(spare, a, b), j
        ) == checker_outcome(pochhammer_identity_residual, a, b, j)

    def test_zero_denominator_message_prints_reduced_inputs(self):
        # a, b, c = 2/4, 4/4, 0/4 over a spare factor 4: (c)_1 = 0.
        with pytest.raises(ZeroDenominatorError, match=r"for a=1/2, b=1, c=0$"):
            hyper._pfaff_rhs_pair(4, 2, 4, 0, 1)


class TestPfaffCheckIsLive:
    """A wrong closed form must make the check, and the pfaff suite, fail."""

    @pytest.fixture
    def off_by_one_rhs(self, monkeypatch):
        pair = hyper._pfaff_rhs_pair

        def shifted(L, A, B, C, j):
            rn, rd = pair(L, A, B, C, j)
            return rn + rd, rd

        monkeypatch.setattr(hyper, "_pfaff_rhs_pair", shifted)

    def test_check_fails(self, off_by_one_rhs):
        assert not pfaff_saalschutz_check(1, 1, 3, 1)
        assert not pfaff_saalschutz_check(F(1, 2), F(1, 3), F(2), 2)

    def test_suite_reports_counterexample(self, off_by_one_rhs):
        (result,) = run_suites("pfaff", 7, 20)
        assert result.failed > 0
        assert not result.ok
        assert result.counterexample is not None
