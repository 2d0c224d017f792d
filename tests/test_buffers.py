"""Caller-owned result buffers: every sampler stage takes ``out=``, writes the
same bytes into it as its allocating call returns, and refuses an ``out`` that
overlaps an input it reads after its first write; ``posterior_step`` also
consumes its clean estimate and noise. Also the analytic clean estimate's
closed form, and what one sampling step allocates."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from resmaster.conditioning import (
    ConditionBundle,
    embed_text_stub,
    encode_image_prompt_stub,
)
from resmaster.config import PipelineConfig
from resmaster.denoiser import analytic_gaussian_denoiser, toy_conditioned_denoiser
from resmaster.pipeline import build_patch_bundles, generate_low_res, resmaster_generate
from resmaster.schedule import make_geometric_schedule, posterior_step, predict_x0
from resmaster.spectral import swap_low_frequency

from oracles import posterior_mean_decimal, schedule_scalars

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
     lambda g, out: analytic_gaussian_denoiser(0.5, 0.3)
     .predict(g["z_t"], 9, None, S, out=out),
     ("z_t",), ()),
    ("toy predict",
     lambda g, out: toy_conditioned_denoiser(3, channels=3)
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


# The inputs a stage overwrites with its intermediate terms, by stage name.
CONSUMED = {"posterior_step": ("z0", "noise")}


@pytest.mark.parametrize("name, call, aliases, forbidden", STAGES, ids=STAGE_IDS)
def test_a_stage_writes_only_out_and_the_inputs_it_consumes(name, call, aliases, forbidden):
    inputs, before = grids(), grids()
    call(inputs, np.empty(SHAPE))
    for key, grid in inputs.items():
        if key not in CONSUMED.get(name, ()):
            np.testing.assert_array_equal(grid, before[key], err_msg=key)


def test_posterior_step_leaves_its_terms_in_the_consumed_inputs():
    inputs, before = grids(), grids()
    posterior_step(inputs["z_t"], inputs["z0"], 9, inputs["noise"], S, out=np.empty(SHAPE))
    beta_t, _, abar, abar_prev = schedule_scalars(S.beta, 9)
    coef_z0 = math.sqrt(abar_prev) * beta_t / (1.0 - abar)
    sigma = math.sqrt((1.0 - abar_prev) / (1.0 - abar) * beta_t)
    np.testing.assert_array_equal(inputs["z0"], coef_z0 * before["z0"])
    np.testing.assert_array_equal(inputs["noise"], sigma * before["noise"])
    # The final step uses the estimate as it is and draws no noise.
    posterior_step(inputs["z_t"], before["z0"], 1, before["noise"], S)
    np.testing.assert_array_equal(before["z0"], grids()["z0"])
    np.testing.assert_array_equal(before["noise"], grids()["noise"])


@pytest.mark.parametrize("t", [1, 9])
def test_posterior_step_refuses_an_estimate_that_overlaps_the_noise(t):
    inputs = grids()
    block = np.zeros((SHAPE[0] + 1, *SHAPE[1:]))
    for z0, noise in ((inputs["z0"], inputs["z0"]), (block[:-1], block[1:])):
        with pytest.raises(ValueError, match="^noise overlaps z0_prime") as excinfo:
            posterior_step(inputs["z_t"], z0, t, noise, S)
        assert "\n" not in str(excinfo.value)
    np.testing.assert_array_equal(inputs["z0"], grids()["z0"])


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
    @pytest.mark.parametrize("mean", [0.5, -0.3])
    def test_matches_the_two_stage_formula(self, std, mean):
        s = make_geometric_schedule(50)
        z_t = np.random.default_rng(3).normal(size=(4, 5, 3))
        den = analytic_gaussian_denoiser(mean, std)
        for t in (1, 25, 50):
            oracle = posterior_mean_decimal(z_t, s.alpha_bar[t - 1], mean, std)
            gap = np.abs(den.predict(z_t, t, None, s) - oracle).max()
            assert gap <= 1e-15 * np.abs(oracle).max(), (t, gap)

    @pytest.mark.parametrize("std", [1e12, 1e200])
    def test_huge_model_std_gives_a_finite_estimate_without_warning(self, std):
        s = make_geometric_schedule(50)
        z_t = np.random.default_rng(4).normal(size=(4, 5, 3))
        den = analytic_gaussian_denoiser(0.5, std)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1, 25, 50):
                assert np.isfinite(den.predict(z_t, t, None, s)).all()
            config = PipelineConfig(height=8, width=8, scale=1, window=8, stride=8, steps=10, model_std=std)
            assert np.isfinite(generate_low_res(den, None, config)).all()


def test_a_sampling_step_allocates_under_two_grids():
    # A one-window 64x64x3 run without guidance. Between two patch_hook calls
    # the sampler draws one noise grid and steps z in place, forming the
    # step's terms in its estimate buffer and in that noise grid; the buffer
    # and z are held throughout. The peak above the memory held at the
    # previous call is read in grids: the noise grid, and no temporary.
    config = PipelineConfig(height=64, width=64, channels=3, scale=1, window=64, stride=64,
                            steps=12, guidance_stop_step=12)
    reference = np.random.default_rng(0).uniform(size=(64, 64, 3))
    den = analytic_gaussian_denoiser(0.5, 0.2)
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
        resmaster_generate(reference, ["flat"], den, config, patch_hook=hook)
    finally:
        tracemalloc.stop()
    assert len(readings) == 11
    assert max(readings) < 1.1, readings


def test_a_one_window_run_holds_three_grids_at_its_peak():
    # z, the window's estimate buffer and one step's noise grid. The step
    # consumes its noise grid and the sampler drops it before the next draw,
    # so two noise grids are never alive at once.
    config = PipelineConfig(height=128, width=128, channels=3, steps=6)
    den = analytic_gaussian_denoiser(0.5, 0.2)
    generate_low_res(den, None, config)  # the schedule and stream set-up, once
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        z = generate_low_res(den, None, config)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 3.1 * z.nbytes, peak / z.nbytes


def test_a_guided_run_holds_a_few_grids_whatever_its_window_count():
    # 225 windows of 64 at stride 32 on a 512x512x3 target. The sampler
    # streams each window's estimate into the fusion through one window
    # buffer and copies each reference window into another, so no store
    # grows with the window count: a store per window of each came to 11.5
    # grids here. Before its first window, the run's peak is
    # bicubic_upsample's, which holds the result and one tap buffer per axis
    # pass: about 2.25 grids (5.26 when it gathered all 4 taps at once). At
    # its first window the run holds the upsampled reference, z and the
    # bundles: 2.11-2.16 grids. From then on the sampler adds the fused grid
    # and the deviations during a fusion, then the fused grid and the noise
    # draw during a step: 2.05 grids, so the run peaks at about 4.2 grids.
    # Keeping a step's fused grid through the next fusion read 3.05.
    config = PipelineConfig(height=128, width=128, channels=3, scale=4, window=64, stride=32,
                            steps=3)
    assert config.layout.patch_count == 225
    reference = np.random.default_rng(1).uniform(size=(128, 128, 3))
    den = analytic_gaussian_denoiser(0.5, 0.2)
    captions = ["many windows"] * 225
    first_window = []

    def hook(t, i, z0):
        if not first_window:
            first_window.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = resmaster_generate(reference, captions, den, config, patch_hook=hook)
        sampler_peak = tracemalloc.get_traced_memory()[1] - first_window[0][0]
    finally:
        tracemalloc.stop()
    run_peak = max(first_window[0][1], first_window[0][0] + sampler_peak) - held
    assert run_peak < 4.5 * out.nbytes, run_peak / out.nbytes
    assert first_window[0][0] - held < 2.3 * out.nbytes, (first_window[0][0] - held) / out.nbytes
    assert sampler_peak < 2.25 * out.nbytes, sampler_peak / out.nbytes


def test_a_toy_predict_into_out_holds_five_windows():
    # The scores, (tokens, cells) = 4 windows at 12 tokens and 3 channels, and
    # a window of softmax temporaries. The cells are copied into out, which
    # attend reads as its queries and overwrites with its output; a copy of
    # the window view and attend's own result came to 6.02.
    den = toy_conditioned_denoiser(3, channels=3)
    bundle = build_patch_bundles([np.full((64, 64, 3), 0.5)], ["toy"], PipelineConfig())[0]
    window = np.random.default_rng(2).normal(size=(128, 128, 3))[32:96, 32:96]
    out = np.empty((64, 64, 3))
    want = den.predict(window, 9, bundle, S)  # also builds the bundle's attention context
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        den.predict(window, 9, bundle, S, out=out)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, want)
    assert peak < 5.5 * out.nbytes, peak / out.nbytes
