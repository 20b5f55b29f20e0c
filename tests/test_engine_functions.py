"""Scalar function, aggregate, and window implementations."""

import datetime

import pytest

from repro.engine.aggregates import (
    _distinct,
    compute_aggregate,
    is_aggregate_function,
)
from repro.engine.errors import TypeMismatchError, UnknownFunctionError
from repro.engine.functions import call_scalar, is_scalar_function
from repro.engine.window import evaluate_window, is_window_capable


class TestScalarRegistry:
    def test_known_functions(self):
        assert is_scalar_function("NULLIF")
        assert is_scalar_function("to_char")
        assert not is_scalar_function("FROBNICATE")

    def test_unknown_function_raises(self):
        with pytest.raises(UnknownFunctionError):
            call_scalar("FROBNICATE", [1])

    def test_arity_checked(self):
        with pytest.raises(TypeMismatchError):
            call_scalar("ABS", [1, 2])

    def test_null_short_circuit(self):
        assert call_scalar("ABS", [None]) is None
        assert call_scalar("UPPER", [None]) is None


class TestNullHandling:
    def test_nullif(self):
        assert call_scalar("NULLIF", [5, 5]) is None
        assert call_scalar("NULLIF", [5, 0]) == 5
        assert call_scalar("NULLIF", [None, 0]) is None

    def test_coalesce(self):
        assert call_scalar("COALESCE", [None, None, 3]) == 3
        assert call_scalar("COALESCE", [None, None]) is None

    def test_ifnull(self):
        assert call_scalar("IFNULL", [None, "d"]) == "d"
        assert call_scalar("IFNULL", ["v", "d"]) == "v"

    def test_iif(self):
        assert call_scalar("IIF", [True, 1, 2]) == 1
        assert call_scalar("IIF", [False, 1, 2]) == 2
        assert call_scalar("IIF", [None, 1, 2]) == 2


class TestNumericFunctions:
    def test_abs(self):
        assert call_scalar("ABS", [-4]) == 4

    def test_round(self):
        assert call_scalar("ROUND", [2.567, 2]) == 2.57
        assert call_scalar("ROUND", [2.5]) == 2

    def test_floor_ceil(self):
        assert call_scalar("FLOOR", [2.9]) == 2
        assert call_scalar("CEIL", [2.1]) == 3
        assert call_scalar("CEILING", [2.1]) == 3

    def test_sqrt_negative_is_null(self):
        assert call_scalar("SQRT", [-1]) is None
        assert call_scalar("SQRT", [9]) == 3.0

    def test_power(self):
        assert call_scalar("POWER", [2, 10]) == 1024.0

    def test_non_numeric_raises(self):
        with pytest.raises(TypeMismatchError):
            call_scalar("ABS", ["x"])


class TestStringFunctions:
    def test_upper_lower_length_trim(self):
        assert call_scalar("UPPER", ["ab"]) == "AB"
        assert call_scalar("LOWER", ["AB"]) == "ab"
        assert call_scalar("LENGTH", ["abc"]) == 3
        assert call_scalar("TRIM", ["  x "]) == "x"

    def test_substr(self):
        assert call_scalar("SUBSTR", ["hello", 2, 3]) == "ell"
        assert call_scalar("SUBSTR", ["hello", 2]) == "ello"
        assert call_scalar("SUBSTR", ["hello", -3]) == "llo"

    def test_replace_concat_instr(self):
        assert call_scalar("REPLACE", ["aXa", "X", "-"]) == "a-a"
        assert call_scalar("CONCAT", ["a", None, "b"]) == "ab"
        assert call_scalar("INSTR", ["hello", "ll"]) == 3
        assert call_scalar("INSTR", ["hello", "zz"]) == 0


class TestDateFunctions:
    DATE = datetime.date(2023, 5, 17)

    def test_parts(self):
        assert call_scalar("YEAR", [self.DATE]) == 2023
        assert call_scalar("MONTH", [self.DATE]) == 5
        assert call_scalar("DAY", [self.DATE]) == 17
        assert call_scalar("QUARTER", [self.DATE]) == 2

    def test_date_from_text(self):
        assert call_scalar("DATE", ["2023-05-17"]) == self.DATE

    def test_to_char_quarter_mask(self):
        assert call_scalar("TO_CHAR", [self.DATE, 'YYYY"Q"Q']) == "2023Q2"

    def test_to_char_other_masks(self):
        assert call_scalar("TO_CHAR", [self.DATE, "YYYY-MM-DD"]) == "2023-05-17"
        assert call_scalar("TO_CHAR", [self.DATE, "YYYY"]) == "2023"
        assert call_scalar("TO_CHAR", [self.DATE, "MON"]) == "MAY"

    def test_to_char_unterminated_quote_raises(self):
        with pytest.raises(TypeMismatchError):
            call_scalar("TO_CHAR", [self.DATE, 'YYYY"Q'])

    def test_strftime_sqlite_argument_order(self):
        assert call_scalar("STRFTIME", ["%Y", self.DATE]) == "2023"

    def test_date_trunc(self):
        assert call_scalar("DATE_TRUNC", ["quarter", self.DATE]) == (
            datetime.date(2023, 4, 1)
        )
        assert call_scalar("DATE_TRUNC", ["year", self.DATE]) == (
            datetime.date(2023, 1, 1)
        )
        with pytest.raises(TypeMismatchError):
            call_scalar("DATE_TRUNC", ["week", self.DATE])


class TestAggregates:
    def test_registry(self):
        assert is_aggregate_function("sum")
        assert not is_aggregate_function("NULLIF")

    def test_count_star_counts_rows(self):
        assert compute_aggregate("COUNT", [1, None, 3], count_star=True) == 3

    def test_count_skips_nulls(self):
        assert compute_aggregate("COUNT", [1, None, 3]) == 2

    def test_count_distinct(self):
        assert compute_aggregate("COUNT", [1, 1, 2, None], distinct=True) == 2

    def test_sum_avg(self):
        assert compute_aggregate("SUM", [1, 2, None]) == 3
        assert compute_aggregate("AVG", [1, 2, None]) == 1.5

    def test_sum_empty_is_null_total_is_zero(self):
        assert compute_aggregate("SUM", []) is None
        assert compute_aggregate("TOTAL", []) == 0.0

    def test_min_max(self):
        assert compute_aggregate("MIN", [3, 1, None]) == 1
        assert compute_aggregate("MAX", ["a", "c", "b"]) == "c"

    def test_group_concat(self):
        assert compute_aggregate("GROUP_CONCAT", ["a", "b"]) == "a,b"

    def test_sum_non_numeric_raises(self):
        with pytest.raises(TypeMismatchError):
            compute_aggregate("SUM", ["x"])

    def test_unknown_aggregate_raises(self):
        with pytest.raises(UnknownFunctionError):
            compute_aggregate("MEDIAN", [1])

    def test_distinct_keeps_what_the_list_scan_kept(self):
        def list_distinct(values):
            seen = []
            for value in values:
                if value not in seen:
                    seen.append(value)
            return seen

        nan = float("nan")
        values = [
            1, 1.0, True, 0, -0.0, 0.0, False, nan, nan, float("nan"),
            datetime.date(2020, 1, 2), datetime.date(2020, 1, 2),
            datetime.datetime(2020, 1, 2), "1", 2.5, 2.5, None,
        ]
        for start in range(len(values)):
            rotated = values[start:] + values[:start]
            expected = list_distinct(rotated)
            deduped = _distinct(rotated)
            assert [(type(v), repr(v)) for v in deduped] == [
                (type(v), repr(v)) for v in expected
            ]
            assert all(a is b for a, b in zip(deduped, expected))


class TestWindow:
    def _eval(self, name, order_values, partition=None, args=None, **kw):
        from repro.engine.values import sort_key

        n = len(order_values)
        partitions = partition or [()] * n
        order_keys = [
            (sort_key(value, True, None),) for value in order_values
        ]
        arg_values = args or [[order_values[i]] for i in range(n)]
        return evaluate_window(
            name, list(range(n)), partitions, order_keys, arg_values, **kw
        )

    def test_capability(self):
        assert is_window_capable("ROW_NUMBER")
        assert is_window_capable("SUM")
        assert not is_window_capable("NULLIF")

    def test_row_number(self):
        assert self._eval("ROW_NUMBER", [30, 10, 20]) == [3, 1, 2]

    def test_rank_with_ties(self):
        assert self._eval("RANK", [10, 10, 20]) == [1, 1, 3]

    def test_dense_rank_with_ties(self):
        assert self._eval("DENSE_RANK", [10, 10, 20]) == [1, 1, 2]

    def test_partitioned_row_number(self):
        result = self._eval(
            "ROW_NUMBER", [1, 2, 1, 2], partition=[("a",), ("a",), ("b",), ("b",)]
        )
        assert result == [1, 2, 1, 2]

    def test_window_sum_over_partition(self):
        result = self._eval("SUM", [1, 2, 3])
        assert result == [6, 6, 6]

    def test_ntile(self):
        result = self._eval("NTILE", [1, 2, 3, 4], args=[[2]] * 4)
        assert sorted(result) == [1, 1, 2, 2]

    def test_lag_lead(self):
        lag = self._eval("LAG", [1, 2, 3])
        assert lag == [None, 1, 2]
        lead = self._eval("LEAD", [1, 2, 3])
        assert lead == [2, 3, None]

    def test_lag_with_default(self):
        result = self._eval("LAG", [1, 2], args=[[1, 1, 0], [2, 1, 0]])
        assert result == [0, 1]

    def test_non_window_function_raises(self):
        with pytest.raises(UnknownFunctionError):
            self._eval("NULLIF", [1, 2])
