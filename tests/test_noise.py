import numpy as np
import pytest

from resmaster.noise import noise_stream, standard_normal_field


def test_same_key_reproduces_exactly():
    a = standard_normal_field(7, 3, (5, 5, 3))
    b = standard_normal_field(7, 3, (5, 5, 3))
    np.testing.assert_array_equal(a, b)


# Another seed, another step, and the two components swapped.
@pytest.mark.parametrize("other", [(8, 3), (7, 4), (3, 7)])
def test_any_key_component_changes_the_stream(other):
    base = standard_normal_field(7, 3, (4, 4, 1))
    assert np.abs(base - standard_normal_field(*other, (4, 4, 1))).max() > 0


def test_streams_are_standard_normal_ish():
    draws = standard_normal_field(0, 1, (200, 200, 1))
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_rejects_negative_keys():
    with pytest.raises(ValueError):
        noise_stream(-1, 0)
    with pytest.raises(ValueError):
        standard_normal_field(0, -2, (2, 2, 1))
