import pytest

from pursuitlab import SupportSet


def test_sorted_and_checked():
    t = SupportSet.from_iterable([4, 1, 2], 8)
    assert t.indices == (1, 2, 4)
    assert len(t) == 3
    assert 2 in t and 3 not in t


def test_rejects_duplicates_and_out_of_range():
    with pytest.raises(ValueError):
        SupportSet.from_iterable([1, 1], 4)
    with pytest.raises(ValueError):
        SupportSet.from_iterable([5], 4)
    with pytest.raises(ValueError):
        SupportSet((2, 1), 4)
    with pytest.raises(ValueError):
        SupportSet((0,), 0)
