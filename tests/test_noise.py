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


# Every (seed, step) key with both components below 8: adjacent steps,
# adjacent seeds and each key's swapped twin are all among these 64.
KEYS = [(seed, step) for seed in range(8) for step in range(8)]
GRID = (64, 64, 3)


@pytest.fixture(scope="module")
def keyed_draws():
    return {key: standard_normal_field(*key, GRID).ravel() for key in KEYS}


def test_keyed_streams_are_standard_normal(keyed_draws):
    draws = np.stack([keyed_draws[key] for key in KEYS])
    n = draws.shape[1]
    # Per key, standardized so that each is N(0, 1) if the draws are.
    z_mean = draws.mean(axis=1) * np.sqrt(n)
    z_var = (draws.var(axis=1) - 1.0) / np.sqrt(2.0 / n)
    for z in (z_mean, z_var):
        assert np.abs(z).max() < 4.5, z
        # Over the keys the statistics have mean 0 and mean square 1.
        assert abs(z.mean()) < 4 / np.sqrt(len(z)), z
        assert abs((z * z).mean() - 1.0) < 4 * np.sqrt(2 / len(z)), z


def test_related_keys_give_uncorrelated_streams(keyed_draws):
    pairs = ([((a, t), (a, t + 1)) for a in range(8) for t in range(7)]
             + [((a, t), (a + 1, t)) for a in range(7) for t in range(8)]
             + [((a, t), (t, a)) for a in range(8) for t in range(a + 1, 8)])
    # Under independence a correlation over n draws has standard error 1 / sqrt(n).
    bound = 4 / np.sqrt(np.prod(GRID))
    corr = {(p, q): np.corrcoef(keyed_draws[p], keyed_draws[q])[0, 1] for p, q in pairs}
    assert {pair: r for pair, r in corr.items() if abs(r) >= bound} == {}


def test_rejects_negative_keys():
    with pytest.raises(ValueError):
        noise_stream(-1, 0)
    with pytest.raises(ValueError):
        standard_normal_field(0, -2, (2, 2, 1))
