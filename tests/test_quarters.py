import pytest
from hypothesis import given, strategies as st

from icborrow import Quarter
from icborrow.errors import ValidationError

from conftest import quarter_range

quarters = st.builds(
    Quarter, st.integers(min_value=1900, max_value=2400), st.integers(1, 4)
)


def test_parse_round_trip():
    q = Quarter.parse("2016Q3")
    assert (q.year, q.quarter) == (2016, 3)
    assert str(q) == "2016Q3"
    assert str(Quarter.parse("0001Q1")) == "0001Q1"  # years below 1000 too


@pytest.mark.parametrize("text", ["2016", "2016Q5", "2016Q0", "16Q1", "2016q1", ""])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValidationError):
        Quarter.parse(text)


def test_invalid_quarter_number():
    with pytest.raises(ValueError):
        Quarter(2016, 5)


def test_ordering_is_chronological():
    assert Quarter(2015, 4) < Quarter(2016, 1)
    assert Quarter(2016, 1) < Quarter(2016, 2)
    assert max(Quarter(2019, 4), Quarter(2019, 3)) == Quarter(2019, 4)


def test_arithmetic():
    q = Quarter(2015, 4)
    assert q + 1 == Quarter(2016, 1)
    assert q + 5 == Quarter(2017, 1)
    assert q - 4 == Quarter(2014, 4)
    assert Quarter(2016, 1) - Quarter(2015, 1) == 4
    assert Quarter(2015, 1) - Quarter(2016, 1) == -4


def test_quarter_range_inclusive():
    rng = quarter_range(Quarter(2015, 3), Quarter(2016, 2))
    assert [str(q) for q in rng] == ["2015Q3", "2015Q4", "2016Q1", "2016Q2"]
    assert quarter_range(Quarter(2015, 3), Quarter(2015, 3)) == [Quarter(2015, 3)]
    with pytest.raises(ValueError):
        quarter_range(Quarter(2016, 1), Quarter(2015, 4))


@given(quarters)
def test_ordinal_round_trip(q):
    assert Quarter.from_ordinal(q.ordinal) == q
    assert Quarter.parse(str(q)) == q


@given(quarters, st.integers(min_value=-50, max_value=50))
def test_shift_then_difference(q, n):
    assert (q + n) - q == n
