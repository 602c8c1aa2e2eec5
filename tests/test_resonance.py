import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbergdim.resonance import (
    AssumptionViolatedError,
    ConfigParseError,
    ExponentConfig,
    ResonanceReport,
    Violation,
    classify,
    config_from_json,
    config_to_json_dict,
    dims_for_config,
)

F = Fraction


def cfg(m, g, *lambdas):
    return ExponentConfig(m=m, g=F(g), lambdas=tuple(F(lam) for lam in lambdas))


class TestClassify:
    def test_resonant_valid_config(self):
        # 2*(1/4) + 1/2 = 1 is an integer; everything else stays fractional:
        # 2*(1/3) + 1/2 = 7/6, lambda_inf = -13/12, 2*lambda_inf + g = -5/3,
        # and the diagonal value g = 1/2.
        report = classify(cfg(2, "1/2", "1/4", "1/3"))
        assert report.resonant_indices == (1,)
        assert report.r == 1
        assert report.lambda_infinity == F(-13, 12)
        assert report.violations == ()
        assert report.assumption_valid

    def test_diagonal_violation(self):
        report = classify(cfg(2, "2", "1/4", "1/3"))
        assert report.resonant_indices == ()
        assert report.lambda_infinity == F(-31, 12)
        assert report.violations == (
            Violation(condition="diagonal", k=2, value=F(2)),
        )
        assert not report.assumption_valid

    def test_m1_collapses_k_ranges(self):
        # Only k=1 tests remain and the diagonal family is empty.
        report = classify(cfg(1, "0", "1/2"))
        assert report.resonant_indices == (1,)  # 2*(1/2) + 0 = 1
        assert report.lambda_infinity == F(-1, 2)
        assert report.violations == ()
        assert report.assumption_valid

    def test_multiple_violations_in_deterministic_order(self):
        # g = 1 trips the diagonal tests at k=2 and k=3; 3*(1/3) + 3*1 = 4
        # trips the point test at (j=1, k=3). Index 2 is resonant.
        report = classify(cfg(3, "1", "1/3", "1/2"))
        assert report.resonant_indices == (2,)
        assert report.lambda_infinity == F(-17, 6)
        assert report.violations == (
            Violation(condition="point", j=1, k=3, value=F(4)),
            Violation(condition="diagonal", k=2, value=F(1)),
            Violation(condition="diagonal", k=3, value=F(3)),
        )

    def test_integral_lambda_trips_point_condition(self):
        report = classify(cfg(2, "1/2", "3", "1/3"))
        assert 1 in {v.j for v in report.violations if v.condition == "point"}
        assert not report.assumption_valid

    def test_infinity_violation(self):
        # lambdas sum to 1/2 and g = 1/2, so lambda_inf = -1: integral at k=1.
        report = classify(cfg(2, "1/2", "1/4", "1/4"))
        assert report.lambda_infinity == F(-1)
        assert any(v.condition == "infinity" and v.k == 1 for v in report.violations)


class TestClassifyProperties:
    configs = st.builds(
        lambda m, g, lambdas: ExponentConfig(m=m, g=g, lambdas=tuple(lambdas)),
        st.integers(min_value=1, max_value=5),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=1,
            max_size=5,
        ),
    )

    @given(configs, st.randoms(use_true_random=False))
    def test_permutation_covariance(self, config, rnd):
        order = list(range(config.n))
        rnd.shuffle(order)
        permuted = ExponentConfig(
            m=config.m, g=config.g, lambdas=tuple(config.lambdas[i] for i in order)
        )
        base = classify(config)
        moved = classify(permuted)
        # new position p holds old index order[p]+1
        expected = tuple(
            sorted(p + 1 for p, old in enumerate(order) if (old + 1) in base.resonant_indices)
        )
        assert moved.resonant_indices == expected
        assert moved.r == base.r
        assert moved.lambda_infinity == base.lambda_infinity
        assert moved.assumption_valid == base.assumption_valid

    @given(configs, st.integers(min_value=-3, max_value=3))
    def test_even_integer_shift_preserves_resonance_membership(self, config, t):
        shifted = ExponentConfig(
            m=config.m,
            g=config.g,
            lambdas=(config.lambdas[0] + 2 * t,) + config.lambdas[1:],
        )
        before = 1 in classify(config).resonant_indices
        after = 1 in classify(shifted).resonant_indices
        assert before == after

    @given(configs)
    def test_report_is_internally_consistent(self, config):
        report = classify(config)
        assert 0 <= report.r <= config.n
        assert report.lambda_infinity == -sum(config.lambdas) - (config.m - 1) * config.g
        assert report.assumption_valid == (len(report.violations) == 0)


def _fraction_classify(config):
    """classify as it was when every test built Fractions: the oracle for the int form."""

    def is_integer(q):
        return Fraction(q).denominator == 1

    def choose2(k):
        return k * (k - 1) // 2

    m = config.m
    g = config.g
    lam_inf = -sum(config.lambdas, Fraction(0)) - (m - 1) * g

    resonant = tuple(
        j for j, lam in enumerate(config.lambdas, start=1) if is_integer(2 * lam + g)
    )

    violations = []
    point_ks = [1] + list(range(3, m + 1))
    for k in point_ks:
        shift = choose2(k) * g
        for j, lam in enumerate(config.lambdas, start=1):
            value = k * lam + shift
            if is_integer(value):
                violations.append(Violation(condition="point", j=j, k=k, value=value))
    for k in range(1, m + 1):
        value = k * lam_inf + choose2(k) * g
        if is_integer(value):
            violations.append(Violation(condition="infinity", k=k, value=value))
    for k in range(2, m + 1):
        value = choose2(k) * g
        if is_integer(value):
            violations.append(Violation(condition="diagonal", k=k, value=value))

    return ResonanceReport(
        resonant_indices=resonant,
        lambda_infinity=lam_inf,
        violations=tuple(violations),
    )


_RATIONALS = st.builds(F, st.integers(-60, 60), st.integers(1, 60))


@st.composite
def oracle_configs(draw):
    # g = 0 and integral g trip the diagonal tests; integral lambdas trip the
    # point tests at k = 1; (t - g)/2 is resonant by construction.
    g = draw(st.one_of(_RATIONALS, st.just(F(0)), st.integers(-6, 6).map(F)))
    lambdas = st.one_of(
        _RATIONALS,
        st.integers(-60, 60).map(F),
        st.integers(-12, 12).map(lambda t: (t - g) / 2),
    )
    return ExponentConfig(
        m=draw(st.integers(1, 14)),
        g=g,
        lambdas=tuple(draw(st.lists(lambdas, min_size=1, max_size=8))),
    )


@settings(max_examples=500)
@given(oracle_configs())
def test_classify_matches_the_fraction_oracle(config):
    report = classify(config)
    assert report == _fraction_classify(config)
    assert type(report.lambda_infinity) is F
    assert all(type(v.value) is F for v in report.violations)


class TestDimsForConfig:
    def test_valid_config_gets_record(self):
        report, record = dims_for_config(cfg(2, "1/2", "1/4", "1/3"))
        assert report.r == 1
        assert (record.query.m, record.query.n, record.query.r) == (2, 2, 1)
        assert record.D == 1 and record.K == 1 and record.I == 0

    def test_violated_config_raises_with_report(self):
        with pytest.raises(AssumptionViolatedError) as exc_info:
            dims_for_config(cfg(2, "2", "1/4", "1/3"))
        assert exc_info.value.report.violations
        assert "diagonal" in str(exc_info.value)

    def test_non_resonant_config_gives_full_image(self):
        report, record = dims_for_config(cfg(2, "1/2", "1/5", "1/3"))
        assert report.r == 0
        assert record.K == 0
        assert record.I == record.D


class TestConfigJson:
    def test_parses_documented_shape(self):
        config = config_from_json('{"m": 2, "g": "1/2", "lambdas": ["1/4", "1/3"]}')
        assert config == cfg(2, "1/2", "1/4", "1/3")

    def test_round_trip(self):
        config = cfg(3, "-5/3", "1/4", "7", "-2/9")
        assert config_from_json(config_to_json_dict(config)) == config

    def test_round_trip_through_text(self):
        config = cfg(2, "1/2", "1/4", "1/3")
        text = json.dumps(config_to_json_dict(config))
        assert config_from_json(text) == config

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ('{"m": 2, "g": "1/0", "lambdas": ["1/4"]}', "g:"),
            ('{"m": 2, "g": "1/2", "lambdas": ["1/4", "x"]}', "lambdas[1]"),
            ('{"m": 2, "g": "1/2", "lambdas": []}', "lambdas"),
            ('{"m": 2, "g": "1/2", "lambdas": "1/4"}', "lambdas"),
            ('{"m": 0, "g": "1/2", "lambdas": ["1/4"]}', "m:"),
            ('{"m": 2.5, "g": "1/2", "lambdas": ["1/4"]}', "m:"),
            ('{"g": "1/2", "lambdas": ["1/4"]}', "missing field 'm'"),
            ('{"m": 2, "g": "1/2", "lambdas": ["1/4"], "extra": 1}', "unknown field"),
            ("not json", "not valid JSON"),
            ("[1, 2]", "object"),
        ],
    )
    def test_parse_errors_name_the_field(self, doc, fragment):
        with pytest.raises(ConfigParseError) as exc_info:
            config_from_json(doc)
        assert fragment in str(exc_info.value)

    @pytest.mark.parametrize("doc", [b"\xff\xff", b'\xff\xfe{"m":1}'])
    def test_undecodable_bytes_are_a_parse_error(self, doc):
        with pytest.raises(ConfigParseError, match="not valid JSON"):
            config_from_json(doc)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ('{"m": 2, "g": "1/0", "lambdas": ["1/4"]}',
             "g: invalid rational literal '1/0': denominator is zero"),
            ('{"m": 2, "g": "1/2", "lambdas": ["1/4", "x"]}',
             "lambdas[1]: invalid rational literal 'x': expected 'p' or 'p/q'"),
            ('{"m": 2, "g": "1/2", "lambdas": ["1/4", "1/3", null]}',
             "lambdas[2]: invalid rational literal None: expected 'p' or 'p/q'"),
            ('{"m": 2, "g": "1/2", "lambdas": []}',
             "lambdas: expected a nonempty list of rational strings"),
        ],
        ids=["g", "lambdas-item", "non-string-item", "empty-list"],
    )
    def test_field_error_messages_are_pinned(self, doc, message):
        with pytest.raises(ConfigParseError) as exc_info:
            config_from_json(doc)
        assert str(exc_info.value) == message

    def test_integer_over_the_digit_limit_is_a_parse_error(self):
        # An integer literal longer than the interpreter's int-string limit is
        # kept as its text by the JSON reader, so the error names its field.
        doc = '{"m": 1' + "0" * 4999 + ', "g": "1/2", "lambdas": ["1/4"]}'
        with pytest.raises(ConfigParseError, match="^m: a value has more digits than"):
            config_from_json(doc)

    def test_the_shortest_literal_past_the_digit_limit_names_m(self):
        # 4,301 digits in as short a document as holds them: only a document
        # longer than the limit is read with the hook that keeps the literal.
        doc = '{"m":1' + "0" * 4300 + ',"g":"1/2","lambdas":["1/4"]}'
        with pytest.raises(ConfigParseError, match="^m: a value has more digits than"):
            config_from_json(doc)
        with pytest.raises(ConfigParseError, match="^m: a value has more digits than"):
            config_from_json(doc.encode())

    @pytest.mark.parametrize("opener", ["[", '{"a": '])
    def test_nesting_past_the_stack_is_a_parse_error(self, opener):
        # json.loads raises RecursionError, not a ValueError, on such a document.
        with pytest.raises(ConfigParseError, match="not valid JSON: maximum recursion depth"):
            config_from_json(opener * 100_000)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExponentConfig(m=0, g=F(1, 2), lambdas=(F(1, 4),))
        with pytest.raises(ValueError):
            ExponentConfig(m=2, g=F(1, 2), lambdas=())
        with pytest.raises(ValueError, match="m must be an integer >= 1, got True"):
            ExponentConfig(m=True, g=F(1, 2), lambdas=(F(1, 4),))

    @pytest.mark.parametrize(
        "g, lambdas, text", [(" 0.5 ", ["1/3"], " 0.5 "), ("1/2", ["1e-3"], "1e-3")]
    )
    def test_config_reads_a_str_in_the_strict_form_only(self, g, lambdas, text):
        # Fraction would read ' 0.5 ' as 1/2 and '1e-3' as 1/1000.
        with pytest.raises(ValueError, match=f"invalid rational literal '{text}'"):
            ExponentConfig(2, g, lambdas)
        assert ExponentConfig(2, "1/2", ["-1/3"]) == ExponentConfig(2, F(1, 2), (F(-1, 3),))
