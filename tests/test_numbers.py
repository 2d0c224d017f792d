"""The one rule for numeric inputs: ``util.as_int``, ``util.as_real`` and
``util.as_int_pair`` decide what counts as an integer, a real number and an
``(h, w)`` pair, and every stage that takes such a value refuses others with
a one-line ValueError that names the argument."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from resmaster.attention import make_attention_weights
from resmaster.conditioning import ConditionBundle, embed_text_stub
from resmaster.config import ConfigError, PipelineConfig
from resmaster.denoiser import analytic_gaussian_denoiser, toy_conditioned_denoiser
from resmaster.noise import standard_normal_field
from resmaster.schedule import make_geometric_schedule, make_linear_schedule
from resmaster.tiler import GeometryError, PatchLayout
from resmaster.util import as_int, as_int_pair, as_real

_numpy_scalars = st.one_of(
    st.sampled_from([np.True_, np.False_]),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**5000, 10**5000),
    st.floats(), st.text(max_size=8), _numpy_scalars,
)
_values = st.one_of(_scalars, st.lists(_scalars, max_size=3), st.lists(_scalars, max_size=3).map(tuple))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@given(_values)
@example(10**5000)
@example(-10**5000)
@example([10**5000, 1])
@example((np.int64(3), 10**400))
@example(float("nan"))
@example(float("-inf"))
@example(np.True_)
@example([np.True_])
@example("12")
def test_each_check_returns_its_kind_or_refuses_in_one_line_naming_the_argument(value):
    for check in (as_int, as_real, as_int_pair):
        try:
            result = check(value, "arg")
        except ValueError as exc:
            message = str(exc)
            assert message.startswith("arg must be ") and len(message.splitlines()) == 1, message
            continue
        if check is as_int:
            assert type(result) is int and _is_int(value) and result == value
        elif check is as_real:
            assert type(result) is float and np.isfinite(result) and not isinstance(value, (str, list, tuple))
        else:
            items = list(value) if isinstance(value, (list, tuple)) else [value]
            assert type(result) is tuple and len(result) == 2 and all(type(v) is int for v in result)
            assert all(map(_is_int, items)) and result == (items[0], items[-1])


def test_an_integer_is_not_a_bool_and_numpy_integers_count():
    assert as_int(np.uint8(7), "n", minimum=7) == 7
    for value in (True, np.True_, 7.0, "7"):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            as_int(value, "n")
    with pytest.raises(ValueError, match="^n must be >= 8, got 7$"):
        as_int(np.int64(7), "n", minimum=8)


@pytest.mark.parametrize("spelling", [5, [5], (np.int16(5),), [5, 5], (5, np.uint64(5))])
def test_a_pair_is_one_integer_or_a_list_or_tuple_of_one_or_two(spelling):
    assert as_int_pair(spelling, "p") == (5, 5)


@pytest.mark.parametrize("name, call", [
    ("t", lambda: make_linear_schedule(5).check_t(True)),
    ("T", lambda: make_linear_schedule(True)),
    ("T", lambda: make_geometric_schedule(True)),
    ("seed", lambda: standard_normal_field(1.5, 0, (2, 2, 1))),
    ("seed", lambda: embed_text_stub("x", seed=1.5)),
    ("channels", lambda: toy_conditioned_denoiser(0, 3.0)),
    ("d_model", lambda: make_attention_weights(2.0, 2, 2, 2)),
], ids=["check_t", "linear", "geometric", "noise", "text-stub", "toy", "attention"])
def test_a_stage_refuses_a_non_integer_naming_its_argument(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got ") as err:
        call()
    assert "\n" not in str(err.value)


def test_an_integer_beyond_float_range_is_named_by_its_bit_width():
    with pytest.raises(ValueError, match="^mean must be a number in float range, "
                                         "got an integer of 16610 bits$"):
        analytic_gaussian_denoiser(10**5000, 1.0)
    with pytest.raises(ValueError, match="^lam must be a number in float range, "
                                         "got an integer of 16610 bits$"):
        ConditionBundle(np.full((2, 3), 0.5), np.ones((1, 3)), lam=10**5000)


# Each integer field of the config and the name its refusals use.
_CONFIG_INTEGERS = {"height": "height", "width": "width", "channels": "channels",
                    "scale": "scale", "steps": "steps", "seed": "seed",
                    "guidance_stop_step": "guidance_stop", "window": "window", "stride": "stride"}


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("field", _CONFIG_INTEGERS)
def test_a_config_integer_of_5000_digits_is_refused_naming_its_field(field, sign):
    with pytest.raises(ConfigError) as err:
        PipelineConfig(**{field: sign * 10**5000})
    message = str(err.value)
    assert "\n" not in message and _CONFIG_INTEGERS[field] in message
    assert "integer of 166" in message  # 10**5000 has 16610 bits, scaled up to 16615
    assert ("a negative integer" in message) == (sign < 0)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("field", ["grid", "window", "stride"])
def test_a_tiling_integer_of_5000_digits_is_a_one_line_geometry_error(field, sign):
    pairs = {"grid": (64, 64), "window": (8, 8), "stride": (8, 8)}
    pairs[field] = (sign * 10**5000, 8)
    with pytest.raises(GeometryError) as err:
        PatchLayout(**pairs)
    assert "\n" not in str(err.value) and "bits" in str(err.value)
