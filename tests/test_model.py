import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codedmr.model import (
    MAX_PRECISION,
    AssignmentSumError,
    DomainError,
    InsufficientTotalLoadError,
    LoadOutOfRangeError,
    NegativeFractionError,
    config_from_json,
    format_both,
    format_decimal,
    format_rational,
    parse_rational,
    reorder_like_profile,
    validate_assignment,
    validate_profile,
)


class TestParseRational:
    @pytest.mark.parametrize("text,expected", [
        ("1/5", Fraction(1, 5)),
        ("  3/9 ", Fraction(1, 3)),
        ("0.25", Fraction(1, 4)),
        ("0.9", Fraction(9, 10)),
        ("2", Fraction(2)),
        ("-7/2", Fraction(-7, 2)),
    ])
    def test_strings(self, text, expected):
        assert parse_rational(text) == expected

    def test_numbers(self):
        assert parse_rational(3) == Fraction(3)
        # floats go through repr, so a JSON 0.9 means exactly 9/10
        assert parse_rational(0.9) == Fraction(9, 10)
        assert parse_rational(Fraction(2, 7)) == Fraction(2, 7)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", None, True])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_round_trip_lowest_terms(self):
        rng = random.Random(7)
        for _ in range(200):
            f = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert parse_rational(format_rational(f)) == f
        assert format_rational(parse_rational("2/4")) == "1/2"
        assert format_rational(parse_rational("-2/4")) == "-1/2"

    def test_oversized_text_refused_before_building(self):
        start = time.perf_counter()
        for text in ("1e-10000000", "1e-2000", "1" * 1001, "1/" + "3" * 1000):
            with pytest.raises(ValueError, match="RATIONAL_DIGITS_CAP=1000"):
                parse_rational(text)
        assert time.perf_counter() - start < 1.0
        assert parse_rational("1e-6") == Fraction(1, 10 ** 6)
        assert parse_rational("1e-996") == Fraction(1, 10 ** 996)

    @given(st.fractions())
    def test_format_round_trip_property(self, x):
        assert parse_rational(format_rational(x)) == x


class TestFormatDecimal:
    def test_half_even(self):
        assert format_decimal(Fraction(1, 2000), 3) == "0.000"
        assert format_decimal(Fraction(3, 2000), 3) == "0.002"
        # 4171/7260 = 0.5745179...: not a tie, rounds up
        assert format_decimal(Fraction(4171, 7260), 3) == "0.575"
        assert format_decimal(Fraction(-1, 8), 2) == "-0.12"
        assert format_decimal(Fraction(5, 2), 0) == "2"
        assert format_decimal(Fraction(7, 2), 0) == "4"

    def test_max_precision_renders(self):
        text = format_decimal(Fraction(1, 3), MAX_PRECISION)
        assert text == "0." + "3" * MAX_PRECISION

    def test_padding(self):
        assert format_decimal(Fraction(1, 4), 6) == "0.250000"
        assert format_decimal(Fraction(3), 2) == "3.00"

    @given(st.fractions(), st.integers(0, 12))
    def test_equals_round_parsed_back(self, x, precision):
        text = format_decimal(x, precision)
        assert parse_rational(text) == round(x, precision)
        assert len(text.partition(".")[2]) == precision

    def test_both_renderings_and_none(self):
        assert format_both(Fraction(4171, 7260), 3) == {
            "exact": "4171/7260", "decimal": "0.575"}
        assert format_both(Fraction(1, 4)) == {
            "exact": "1/4", "decimal": "0.250000"}
        assert format_both(None, 3) is None


class TestValidateProfile:
    def test_sorts_and_records_permutation(self):
        p = validate_profile(["1/3", "1/5", "1/2", "1/3"])
        assert p.m == (Fraction(1, 5), Fraction(1, 3), Fraction(1, 3), Fraction(1, 2))
        assert p.node_labels == (2, 1, 4, 3)
        assert p.K == 4

    def test_boundary_sum_accepted(self):
        p = validate_profile(["1/2", "1/2"])
        assert p.m == (Fraction(1, 2), Fraction(1, 2))
        assert p.node_labels == (1, 2)

    def test_insufficient_total(self):
        with pytest.raises(InsufficientTotalLoadError):
            validate_profile(["1/4", "1/4"])

    @pytest.mark.parametrize("bad", [["0", "1/2", "3/4"], ["1", "1/2"],
                                     ["-1/4", "3/4", "3/4"], []])
    def test_out_of_range(self, bad):
        with pytest.raises(LoadOutOfRangeError):
            validate_profile(bad)

    def test_permutation_properties(self):
        rng = random.Random(11)
        for _ in range(300):
            K = rng.randint(2, 8)
            raw = [Fraction(rng.randint(1, 9), 10) for _ in range(K)]
            if sum(raw) < 1:
                continue
            p = validate_profile(raw)
            assert sorted(raw) == list(p.m)
            assert all(p.m[i] <= p.m[i + 1] for i in range(K - 1))
            assert sorted(p.node_labels) == list(range(1, K + 1))
            assert all(raw[lbl - 1] == p.m[i]
                       for i, lbl in enumerate(p.node_labels))

    def test_profile_is_immutable(self):
        p = validate_profile(["1/2", "1/2"])
        with pytest.raises(AttributeError):
            p.K = 3


class TestValidateAssignment:
    def test_worked_example_accepted(self):
        w = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)
        assert sum(w.w) == 1

    def test_sum_not_one(self):
        with pytest.raises(AssignmentSumError):
            validate_assignment(["1/2", "1/2", "1/2"], 3)

    def test_zero_fractions_allowed(self):
        w = validate_assignment(["0", "0", "1"], 3)
        assert w.w == (Fraction(0), Fraction(0), Fraction(1))

    def test_negative_rejected(self):
        with pytest.raises(NegativeFractionError):
            validate_assignment(["-1/4", "3/4", "1/2"], 3)

    def test_length_mismatch(self):
        with pytest.raises(AssignmentSumError):
            validate_assignment(["1/2", "1/2"], 3)


class TestConfig:
    def test_reorders_custom_w_with_profile(self):
        # sorted positions come from inputs 2,1,4,3; w must follow
        profile, w, strategy = config_from_json({
            "K": 4,
            "m": ["1/3", "1/5", "1/2", "1/3"],
            "w": ["1/4", "1/8", "11/24", "1/6"],
            "strategy": "custom",
        })
        assert profile.node_labels == (2, 1, 4, 3)
        assert w.w == (Fraction(1, 8), Fraction(1, 4), Fraction(1, 6),
                       Fraction(11, 24))
        assert strategy == "custom"

    def test_k_mismatch(self):
        # only a JSON integer equal to len(m) is accepted; None means absent
        for K in (3, [2], {}, 2.5, 2.0, "2", True):
            with pytest.raises(ValueError, match="must be the integer len"):
                config_from_json({"K": K, "m": ["1/2", "1/2"]})
        for K in (2, None):
            assert config_from_json({"K": K, "m": ["1/2", "1/2"]})[0].K == 2

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            config_from_json({"m": ["1/2", "1/2"], "strategy": "magic"})

    def test_missing_m(self):
        with pytest.raises(ValueError):
            config_from_json({"K": 2})

    def test_w_length_mismatch_is_a_config_error(self):
        with pytest.raises(ValueError, match='"w" must list 2 values') as err:
            config_from_json({"m": ["1/2", "1/2"], "w": ["1"]})
        assert not isinstance(err.value, DomainError)

    def test_reorder_checks_length_for_library_callers(self):
        profile = validate_profile(["1/2", "1/2"])
        with pytest.raises(AssignmentSumError):
            reorder_like_profile([1], profile)
