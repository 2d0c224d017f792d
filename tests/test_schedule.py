import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmaster.denoiser import analytic_gaussian_denoiser
from resmaster.schedule import (
    NoiseSchedule,
    forward_diffuse,
    make_geometric_schedule,
    make_linear_schedule,
    posterior_step,
    predict_x0,
)

from oracles import (
    cumprod_decimal,
    forward_diffuse_scalar,
    geometric_betas_direct,
    posterior_coefficients_decimal,
    posterior_coefficients_scalar,
    posterior_step_scalar,
    predict_x0_decimal,
    predict_x0_scalar,
)

# Frozen from the extended-precision cumulative-product oracle below.
ABAR_1000_LINEAR = 4.035829765375685e-05


class TestMakeLinearSchedule:
    def test_two_step_products(self):
        s = NoiseSchedule(np.linspace(0.1, 0.2, 2))
        np.testing.assert_allclose(s.beta, [0.1, 0.2], rtol=0, atol=0)
        np.testing.assert_allclose(s.alpha_bar, [0.9, 0.72], rtol=1e-15)

    def test_single_step(self):
        s = NoiseSchedule(np.linspace(0.02, 0.02, 1))
        np.testing.assert_allclose(s.alpha_bar, [0.98], rtol=1e-15)

    def test_long_schedule_against_decimal_oracle(self):
        s = make_linear_schedule(1000)
        oracle = float(cumprod_decimal(s.beta))
        assert oracle == pytest.approx(ABAR_1000_LINEAR, rel=1e-14)
        assert s.alpha_bar[-1] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("T", [0, -3])
    def test_rejects_bad_arguments(self, T):
        with pytest.raises(ValueError):
            make_linear_schedule(T)

    @pytest.mark.parametrize("T", [*range(1, 65), 200, 1000])
    def test_betas_are_the_linspace_from_1e_4_to_0_02(self, T):
        assert make_linear_schedule(T).beta.tobytes() == np.linspace(1e-4, 0.02, T).tobytes()

    @given(T=st.integers(1, 300), lo=st.floats(1e-6, 0.3), hi=st.floats(1e-6, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_alpha_bar_strictly_decreasing(self, T, lo, hi):
        start, end = min(lo, hi), max(lo, hi)
        s = NoiseSchedule(np.linspace(start, end, T))
        assert (s.alpha_bar > 0).all() and (s.alpha_bar < 1).all()
        if T > 1:
            assert (np.diff(s.alpha_bar) < 0).all()

    def test_schedule_invariants_enforced(self):
        # beta_t = 1e-17 rounds alpha_t to exactly 1, so alpha_bar leaves (0, 1)
        # or stops decreasing; beta_t = 1 is outside (0, 1) itself.
        for beta in ([1e-17], [0.1, 1e-17], [1.0], [0.1, 1.0], [], [[0.1]]):
            with pytest.raises(ValueError):
                NoiseSchedule(beta=np.array(beta))

    @pytest.mark.parametrize("beta, message", [
        (["a"], "beta[0] must be a real number, got 'a'"),
        ([10**400], "beta[0] must be a number in float range, got an integer of 1329 bits"),
        ([0.1 + 0j], "beta[0] must be a real number, got (0.1+0j)"),
        ({"a": 1}, "beta must be a list, tuple or array of real numbers, got dict"),
        ([0.1, [0.2, 0.3]], "beta[1] must be a real number, got [0.2, 0.3]"),
        (["0.1"], "beta[0] must be a real number, got '0.1'"),
        (np.array(["0.1"]), "beta[0] must be a real number, got '0.1'"),
    ], ids=["text", "huge-integer", "complex", "dict", "ragged", "numeric-text", "text-array"])
    def test_malformed_betas_are_refused_in_one_line_naming_beta(self, beta, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            NoiseSchedule(beta)

    def test_real_arrays_skip_the_per_entry_check_and_lists_read_the_same(self, monkeypatch):
        listed = NoiseSchedule([0.1, np.float32(0.2), 0.3]).beta
        monkeypatch.setattr("resmaster.schedule.as_real", lambda *args: pytest.fail("per-entry check"))
        make_linear_schedule(2**16)
        make_geometric_schedule(2**16)
        arrayed = NoiseSchedule(np.array([0.1, np.float32(0.2), 0.3])).beta
        assert listed.tobytes() == arrayed.tobytes()

    @pytest.mark.parametrize("name", ["alpha_bar", "coef_z0", "coef_zt", "step_std"])
    def test_derived_arrays_are_read_only_and_not_passed(self, name):
        s = NoiseSchedule(beta=np.array([0.1, 0.2]))
        np.testing.assert_array_equal(s.alpha_bar, np.cumprod(1.0 - s.beta))
        derived = getattr(s, name)
        assert derived.shape == s.beta.shape and not derived.flags.writeable
        with pytest.raises(ValueError):
            derived[0] = 0.5
        with pytest.raises(TypeError):
            NoiseSchedule(beta=np.array([0.1, 0.2]), **{name: np.array([0.9, 0.5])})


class TestMakeGeometricSchedule:
    def test_ladder_endpoints_and_monotonicity(self):
        s = make_geometric_schedule(50)
        om = 1.0 - s.alpha_bar
        assert om[0] == pytest.approx(1e-4, rel=1e-9)
        assert om[-1] == pytest.approx(1.0 - 4e-5, rel=1e-9)
        assert (np.diff(om) > 0).all()

    def test_body_is_log_spaced(self):
        s = make_geometric_schedule(50)
        om = 1.0 - s.alpha_bar
        body = om[om <= 0.06 * (1 + 1e-9)]
        ratios = body[1:] / body[:-1]
        assert ratios.max() - ratios.min() < 1e-6 * ratios.mean()

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 10, 200])
    def test_small_and_large_counts_are_valid(self, T):
        s = make_geometric_schedule(T)
        assert s.steps == T
        assert 1.0 - s.alpha_bar[-1] == pytest.approx(1.0 - 4e-5, rel=1e-6)

    def test_rejects_bad_ladder(self):
        with pytest.raises(ValueError):
            make_geometric_schedule(0)

    @pytest.mark.parametrize("T", [*range(1, 65), 200, 1000])
    def test_betas_equal_the_two_branch_ladder(self, T):
        assert make_geometric_schedule(T).beta.tobytes() == geometric_betas_direct(T).tobytes()


def test_the_first_step_starts_from_alpha_bar_0_equal_to_one():
    # 1 - alpha_bar_0 is exactly 0, so the first step keeps none of z_t and draws no noise.
    for s in (make_linear_schedule(1000), make_geometric_schedule(7), make_geometric_schedule(1)):
        assert s.coef_zt[0] == 0.0 and s.step_std[0] == 0.0
        assert s.coef_z0[0] == pytest.approx(1.0, rel=1e-11)


SCHEDULES = {
    "linear-1000": lambda: make_linear_schedule(1000),
    **{f"geometric-{T}": (lambda T=T: make_geometric_schedule(T)) for T in (1, 7, 50)},
}


@pytest.mark.parametrize("name", SCHEDULES)
def test_stages_are_bit_equal_to_the_scalar_formulas(name):
    s = SCHEDULES[name]()
    T = s.steps
    gen = np.random.default_rng(1301)
    a, b, c = (gen.normal(size=(3, 4, 2)) for _ in range(3))
    for t in sorted({1, min(2, T), (T + 1) // 2, T}):
        assert np.array_equal(forward_diffuse(a, t, b, s), forward_diffuse_scalar(a, t, b, s.beta))
        assert np.array_equal(predict_x0(a, b, t, s), predict_x0_scalar(a, b, t, s.beta))
        # posterior_step consumes its clean estimate and noise, so it gets copies.
        assert np.array_equal(posterior_step(a, b.copy(), t, c.copy(), s),
                              posterior_step_scalar(a, b, t, c, s.beta))


@pytest.mark.parametrize("name", SCHEDULES)
def test_step_coefficients_equal_the_scalar_and_decimal_formulas(name):
    # Bit-equal to the per-step scalar floats. The Decimal values differ by the
    # rounding of 1 - beta_t near 1, which 1 / (1 - abar_t) magnifies: up to
    # 4.2e-13 relative on geometric-50, so the bound is 1e-12.
    s = SCHEDULES[name]()
    scalar = [posterior_coefficients_scalar(s.beta, t) for t in range(1, s.steps + 1)]
    assert np.stack([s.coef_z0, s.coef_zt, s.step_std], axis=1).tobytes() == np.array(scalar).tobytes()
    for t, coefficients in enumerate(scalar, start=1):
        c0, ct, var = posterior_coefficients_decimal(s.beta, t)
        for got, want in zip(coefficients, (c0, ct, var.sqrt())):
            assert abs(Decimal(got) - want) <= Decimal("1e-12") * want, (t, got, want)


STAGE_CALLS = {
    "forward_diffuse": lambda z, t, s: forward_diffuse(z, t, z, s),
    "predict_x0": lambda z, t, s: predict_x0(z, z, t, s),
    "posterior_step": lambda z, t, s: posterior_step(z, z.copy(), t, z.copy(), s),
    "analytic_predict": lambda z, t, s: analytic_gaussian_denoiser(0.0, 1.0).predict(z, t, None, s),
}


@pytest.mark.parametrize("stage", STAGE_CALLS)
def test_each_stage_checks_t_once_and_rejects_it_out_of_range(stage, monkeypatch):
    call, s, z = STAGE_CALLS[stage], make_geometric_schedule(7), np.ones((2, 3, 1))
    for t in (0, 8):
        with pytest.raises(ValueError, match=rf"^timestep t={t} out of range \[1, 7\]$") as err:
            call(z, t, s)
        assert "\n" not in str(err.value)
    seen = []
    check_t = NoiseSchedule.check_t
    monkeypatch.setattr(NoiseSchedule, "check_t", lambda self, t: seen.append(t) or check_t(self, t))
    for t in (1, 2, 7):
        call(z, t, s)
    assert seen == [1, 2, 7]


class TestForwardDiffuse:
    def test_zero_noise_scales_by_sqrt_alpha_bar(self, rng):
        s = make_linear_schedule(10)
        z0 = rng.normal(size=(5, 4, 2))
        out = forward_diffuse(z0, 7, np.zeros_like(z0), s)
        np.testing.assert_allclose(out, np.sqrt(s.alpha_bar[6]) * z0, rtol=0, atol=0)

    def test_near_identity_limit_for_tiny_beta(self, rng):
        s = NoiseSchedule(np.linspace(1e-12, 1e-12, 1))
        z0 = rng.normal(size=(4, 4, 1))
        eps = rng.normal(size=(4, 4, 1))
        assert np.abs(forward_diffuse(z0, 1, eps, s) - z0).max() < 1e-5

    def test_matches_stepwise_chain_with_matched_noises(self, rng):
        # Compose the one-step transitions and fold their noises into the
        # single equivalent draw; the closed marginal form must agree.
        s = NoiseSchedule(np.linspace(0.1, 0.3, 3))
        z0 = rng.normal(size=(6, 6, 2))
        eps_steps = [rng.normal(size=z0.shape) for _ in range(3)]
        z = z0
        for t in range(1, 4):
            z = np.sqrt(1.0 - s.beta[t - 1]) * z + np.sqrt(s.beta[t - 1]) * eps_steps[t - 1]
        b1, b2, b3 = (s.beta[t - 1] for t in (1, 2, 3))
        a2, a3 = (1.0 - s.beta[t - 1] for t in (2, 3))
        combined = (
            np.sqrt(b3) * eps_steps[2]
            + np.sqrt(a3 * b2) * eps_steps[1]
            + np.sqrt(a3 * a2 * b1) * eps_steps[0]
        ) / np.sqrt(1.0 - s.alpha_bar[2])
        np.testing.assert_allclose(forward_diffuse(z0, 3, combined, s), z, rtol=0, atol=1e-12)

    def test_rejects_shape_mismatch_and_bad_t(self, rng):
        s = make_linear_schedule(5)
        z0 = rng.normal(size=(3, 3, 1))
        with pytest.raises(ValueError):
            forward_diffuse(z0, 2, rng.normal(size=(3, 4, 1)), s)
        for t in (0, 6):
            with pytest.raises(ValueError):
                forward_diffuse(z0, t, z0, s)

    def test_an_empty_grid_is_refused_naming_it(self):
        s = make_linear_schedule(5)
        with pytest.raises(ValueError, match=r"^z0 must be non-empty, got shape \(0, 3, 1\)$"):
            forward_diffuse(np.empty((0, 3, 1)), 2, np.empty((0, 3, 1)), s)


class TestPredictX0:
    def test_inverts_forward_diffuse(self, rng):
        s = make_linear_schedule(20)
        z0 = rng.normal(size=(5, 5, 3))
        eps = rng.normal(size=z0.shape)
        z_t = forward_diffuse(z0, 13, eps, s)
        np.testing.assert_allclose(predict_x0(z_t, eps, 13, s), z0, rtol=0, atol=1e-12)

    def test_zero_estimate_rescales(self, rng):
        s = make_linear_schedule(20)
        z_t = rng.normal(size=(4, 4, 1))
        out = predict_x0(z_t, np.zeros_like(z_t), 9, s)
        np.testing.assert_allclose(out, z_t / np.sqrt(s.alpha_bar[8]), rtol=0, atol=0)

    def test_matches_decimal_reevaluation(self, rng):
        s = make_linear_schedule(12)
        z_t = rng.normal(size=(3, 4, 2))
        eps = rng.normal(size=z_t.shape)
        expected = predict_x0_decimal(z_t, eps, s.alpha_bar[7])
        np.testing.assert_allclose(predict_x0(z_t, eps, 8, s), expected, rtol=1e-13, atol=1e-15)

    def test_rejects_shape_mismatch(self, rng):
        s = make_linear_schedule(5)
        with pytest.raises(ValueError):
            predict_x0(rng.normal(size=(3, 3, 1)), rng.normal(size=(2, 3, 1)), 1, s)


class TestPosteriorStep:
    def test_first_step_returns_clean_estimate_bit_exact(self, rng):
        s = make_linear_schedule(10)
        z_t = rng.normal(size=(4, 4, 2))
        z0p = rng.normal(size=z_t.shape)
        noise = rng.normal(size=z_t.shape)
        assert np.array_equal(posterior_step(z_t, z0p, 1, noise, s), z0p)
        assert np.array_equal(posterior_step(z_t, z0p, 1, None, s), z0p)

    def test_missing_noise_before_the_final_step_is_a_one_line_error(self, rng):
        s = make_linear_schedule(10)
        z = rng.normal(size=(3, 3, 1))
        with pytest.raises(ValueError, match="noise") as err:
            posterior_step(z, z, 2, None, s)
        assert "\n" not in str(err.value)

    def test_all_zero_inputs_stay_zero(self):
        s = make_linear_schedule(10)
        zeros = np.zeros((3, 3, 1))
        np.testing.assert_array_equal(
            posterior_step(zeros, zeros.copy(), 5, zeros.copy(), s), zeros)

    def test_matches_decimal_coefficients(self, rng):
        s = make_linear_schedule(10)
        z_t = rng.normal(size=(4, 3, 2))
        z0p = rng.normal(size=z_t.shape)
        noise = rng.normal(size=z_t.shape)
        c0, ct, var = posterior_coefficients_decimal(s.beta, 5)
        expected = float(c0) * z0p + float(ct) * z_t + np.sqrt(float(var)) * noise
        np.testing.assert_allclose(posterior_step(z_t, z0p, 5, noise, s), expected,
                                   rtol=1e-12, atol=1e-14)

    def test_mean_is_affine_in_inputs(self, rng):
        s = make_linear_schedule(10)
        z_t = rng.normal(size=(4, 4, 1))
        z0p = rng.normal(size=z_t.shape)
        zeros = np.zeros_like(z_t)
        a = -2.75
        left = posterior_step(a * z_t, a * z0p, 6, zeros, s)
        right = a * posterior_step(z_t, z0p, 6, zeros, s)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)

    def test_rejects_shape_mismatch(self, rng):
        s = make_linear_schedule(5)
        z = rng.normal(size=(3, 3, 1))
        with pytest.raises(ValueError):
            posterior_step(z, z, 2, rng.normal(size=(3, 2, 1)), s)


@given(seed=st.integers(0, 2**31), T=st.integers(1, 60), data=st.data())
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(seed, T, data):
    t = data.draw(st.integers(1, T))
    s = make_linear_schedule(T)
    gen = np.random.default_rng(seed)
    z0 = gen.normal(size=(5, 4, 2))
    eps = gen.normal(size=z0.shape)
    recovered = predict_x0(forward_diffuse(z0, t, eps, s), eps, t, s)
    assert np.abs(recovered - z0).max() <= 1e-10 * (1.0 + np.abs(z0).max())
