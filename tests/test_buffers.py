"""Caller-owned result buffers: every sampler stage takes ``out=``, writes the
same bytes into it as its allocating call returns, and refuses an ``out`` that
overlaps an input it reads after its first write. Also the analytic noise
estimate's closed form, and what one sampling step allocates."""

import tracemalloc
import warnings

import numpy as np
import pytest

from resmaster.conditioning import (
    CaptionManifest,
    ConditionBundle,
    embed_text_stub,
    encode_image_prompt_stub,
)
from resmaster.config import PipelineConfig
from resmaster.denoiser import GaussianDataModel, analytic_gaussian_denoiser, toy_conditioned_denoiser
from resmaster.pipeline import generate_low_res, resmaster_generate
from resmaster.schedule import make_geometric_schedule, posterior_step, predict_x0
from resmaster.spectral import swap_low_frequency

from oracles import analytic_eps_decimal

SHAPE = (6, 5, 3)
S = make_geometric_schedule(20)


def toy_bundle():
    text = embed_text_stub("a stone bridge", 4, 16, 0)
    image = encode_image_prompt_stub(np.full((6, 6, 3), 0.5), 2, 16, 0)
    return ConditionBundle(text, image, 0.8)


# Each stage as (name, call(inputs, out), the input names ``out`` may alias,
# the input names it must not overlap). ``call`` takes a dict of fresh grids.
STAGES = [
    ("analytic predict",
     lambda g, out: analytic_gaussian_denoiser(GaussianDataModel([0.2, 0.5, 0.7], 0.3))
     .predict(g["z_t"], 9, None, S, out=out),
     ("z_t",), ()),
    ("toy predict",
     lambda g, out: toy_conditioned_denoiser(3, channels=3, text_dim=16, image_dim=16)
     .predict(g["z_t"], 9, toy_bundle(), S, out=out),
     (), ()),
    ("predict_x0",
     lambda g, out: predict_x0(g["z_t"], g["eps_hat"], 9, S, out=out),
     ("eps_hat",), ("z_t",)),
    ("posterior_step",
     lambda g, out: posterior_step(g["z_t"], g["z0"], 9, g["noise"], S, out=out),
     ("z_t",), ("z0", "noise")),
    ("posterior_step at t = 1",
     lambda g, out: posterior_step(g["z_t"], g["z0"], 1, None, S, out=out),
     ("z_t",), ("z0",)),
    ("swap_low_frequency",
     lambda g, out: swap_low_frequency(g["estimate"], g["reference"], 0.3, out=out),
     ("estimate",), ()),
]
STAGE_IDS = [name for name, *_ in STAGES]


def grids(seed=7):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=SHAPE)
            for name in ("z_t", "eps_hat", "z0", "noise", "estimate", "reference")}


@pytest.mark.parametrize("name, call, aliases, forbidden", STAGES, ids=STAGE_IDS)
def test_out_matches_the_allocating_call_bit_for_bit(name, call, aliases, forbidden):
    expected = call(grids(), None)
    out = np.full(SHAPE, np.nan)
    assert call(grids(), out) is out
    np.testing.assert_array_equal(out, expected, strict=True)
    for alias in aliases:
        inputs = grids()
        result = call(inputs, inputs[alias])
        assert result is inputs[alias]
        np.testing.assert_array_equal(result, expected, strict=True)


@pytest.mark.parametrize("name, call, aliases, forbidden", STAGES, ids=STAGE_IDS)
def test_out_overlapping_an_input_read_later_is_a_one_line_error(name, call, aliases, forbidden):
    for victim in forbidden:
        for partial in (False, True):
            inputs = grids()
            if partial:
                # A view that shares all but one row with the input.
                block = np.zeros((SHAPE[0] + 1, *SHAPE[1:]))
                block[:-1] = inputs[victim]
                inputs[victim], out = block[:-1], block[1:]
            else:
                out = inputs[victim]
            before = inputs[victim].copy()
            with pytest.raises(ValueError, match=f"out overlaps {victim}") as excinfo:
                call(inputs, out)
            assert "\n" not in str(excinfo.value)
            np.testing.assert_array_equal(inputs[victim], before)


@pytest.mark.parametrize("name, call, aliases, forbidden", STAGES, ids=STAGE_IDS)
def test_out_of_the_wrong_shape_or_dtype_is_a_one_line_error(name, call, aliases, forbidden):
    for out in (np.empty((6, 5, 2)), np.empty(SHAPE, dtype=np.float32), [[[0.0]]]):
        with pytest.raises(ValueError, match="out must be a float64 array of shape") as excinfo:
            call(grids(), out)
        assert "\n" not in str(excinfo.value)


class TestClosedFormNoiseEstimate:
    @pytest.mark.parametrize("std", [0.0, 0.1, 1.0, 1e8])
    @pytest.mark.parametrize("mean", [0.5, [-0.3, 0.2, 0.9]], ids=["scalar", "per-channel"])
    def test_matches_the_two_stage_formula(self, std, mean):
        s = make_geometric_schedule(50)
        z_t = np.random.default_rng(3).normal(size=(4, 5, 3))
        den = analytic_gaussian_denoiser(GaussianDataModel(mean, std))
        for t in (1, 25, 50):
            oracle = analytic_eps_decimal(z_t, s.alpha_bar[t - 1], mean, std)
            gap = np.abs(den.predict(z_t, t, None, s) - oracle).max()
            assert gap <= 1e-13 * np.abs(oracle).max(), (t, gap)

    @pytest.mark.parametrize("std", [1e12, 1e200])
    def test_huge_model_std_gives_a_finite_estimate_without_warning(self, std):
        s = make_geometric_schedule(50)
        z_t = np.random.default_rng(4).normal(size=(4, 5, 3))
        den = analytic_gaussian_denoiser(GaussianDataModel(0.5, std))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1, 25, 50):
                assert np.isfinite(den.predict(z_t, t, None, s)).all()
            config = PipelineConfig(height=8, width=8, scale=1, win_h=8, win_w=8, stride_h=8,
                                    stride_w=8, steps=10, model_std=std)
            assert np.isfinite(generate_low_res(den, None, config)).all()


def test_a_sampling_step_allocates_under_two_grids():
    # A one-window 64x64x3 run without guidance. Between two patch_hook calls
    # the sampler draws one noise grid and steps z in place; the estimate
    # buffer and z are held throughout. The peak above the memory held at the
    # previous call is read in grids. From the second step on, the previous
    # step's noise grid is freed once the new one is drawn; the first step has
    # none to free, so it may read one grid more.
    config = PipelineConfig(height=64, width=64, channels=3, scale=1, win_h=64, win_w=64,
                            stride_h=64, stride_w=64, steps=12, guidance_stop_step=12)
    reference = np.random.default_rng(0).uniform(size=(64, 64, 3))
    den = analytic_gaussian_denoiser(GaussianDataModel(0.5, 0.2))
    grid_bytes = 64 * 64 * 3 * 8
    readings, held = [], []

    def hook(t, i, z0):
        peak = tracemalloc.get_traced_memory()[1]
        if held:
            readings.append((peak - held[-1]) / grid_bytes)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        resmaster_generate(reference, CaptionManifest(global_prompt="flat", patch_count=1), den,
                           config, patch_hook=hook)
    finally:
        tracemalloc.stop()
    assert len(readings) == 11
    assert readings[0] < 3.0 and max(readings[1:]) < 2.0, readings
