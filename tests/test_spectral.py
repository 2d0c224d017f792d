import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmaster.spectral import (
    ImaginaryResidueError,
    fft2d,
    gaussian_lowpass_mask,
    ifft2d,
    swap_low_frequency,
)

from oracles import dft2d_direct, gaussian_mask_direct, idft2d_direct, swap_direct

# Frozen: exp(-1 / (2 * 0.8^2)) at the Nyquist corner of an even grid.
NYQUIST_MASK_D0_08 = 0.45783336177161427


class TestFFT:
    def test_constant_grid_concentrates_at_dc(self):
        g = np.full((6, 9, 2), 3.25)
        f = fft2d(g)
        np.testing.assert_allclose(f[0, 0, :], 3.25 * 6 * 9, rtol=1e-14)
        f[0, 0, :] = 0
        assert np.abs(f).max() < 1e-10

    def test_impulse_has_flat_magnitude(self):
        g = np.zeros((5, 7, 1))
        g[0, 0, 0] = 1.0
        np.testing.assert_allclose(np.abs(fft2d(g)), 1.0, rtol=0, atol=1e-12)

    def test_matches_direct_dft(self, rng):
        g = rng.normal(size=(8, 8, 3))
        np.testing.assert_allclose(fft2d(g), dft2d_direct(g), rtol=0, atol=1e-9)

    def test_real_input_gives_conjugate_symmetric_spectrum(self, rng):
        g = rng.normal(size=(6, 9, 2))
        f = fft2d(g)
        h, w = 6, 9
        flipped = np.conj(f[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
        np.testing.assert_allclose(f, flipped, rtol=0, atol=1e-10)

    def test_mixed_radix_sizes(self, rng):
        # Sizes with prime factors beyond 2 must still agree with the oracle.
        g = rng.normal(size=(6, 10, 1))
        np.testing.assert_allclose(fft2d(g), dft2d_direct(g), rtol=0, atol=1e-9)
        g = rng.normal(size=(7, 13, 1))
        np.testing.assert_allclose(fft2d(g), dft2d_direct(g), rtol=0, atol=1e-9)


class TestIFFT:
    def test_roundtrip(self, rng):
        g = rng.normal(size=(9, 6, 2))
        np.testing.assert_allclose(ifft2d(fft2d(g)), g, rtol=0, atol=1e-10)

    def test_zero_spectrum(self):
        out = ifft2d(np.zeros((4, 4, 1), dtype=np.complex128))
        np.testing.assert_array_equal(out, np.zeros((4, 4, 1)))

    def test_symmetrized_spectrum_matches_direct_inverse(self, rng):
        raw = rng.normal(size=(8, 8, 1)) + 1j * rng.normal(size=(8, 8, 1))
        flipped = np.conj(raw[(-np.arange(8)) % 8][:, (-np.arange(8)) % 8])
        sym = 0.5 * (raw + flipped)
        np.testing.assert_allclose(ifft2d(sym), idft2d_direct(sym).real, rtol=0, atol=1e-9)

    def test_rejects_asymmetric_spectrum(self):
        f = np.zeros((4, 4, 1), dtype=np.complex128)
        f[1, 1, 0] = 1j  # no conjugate partner
        with pytest.raises(ImaginaryResidueError):
            ifft2d(f)

    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 1, 1), (0, 4, 1)])
    def test_rejects_bad_rank_and_empty(self, shape):
        with pytest.raises(ValueError, match="non-empty \\(height, width, channels\\)"):
            ifft2d(np.zeros(shape, dtype=np.complex128))


class TestGaussianMask:
    def test_dc_is_one_for_any_cutoff(self):
        for d0 in (0.05, 0.8, 3.0):
            assert gaussian_lowpass_mask(16, 12, d0)[0, 0] == 1.0

    def test_conjugate_symmetric_layout(self):
        m = gaussian_lowpass_mask(10, 14, 0.8)
        for u in range(10):
            for v in range(14):
                assert m[u, v] == m[(10 - u) % 10, (14 - v) % 14]

    def test_nyquist_corner_value(self):
        m = gaussian_lowpass_mask(64, 64, 0.8)
        assert m[32, 32] == pytest.approx(NYQUIST_MASK_D0_08, rel=1e-13)

    def test_matches_scalar_oracle(self):
        np.testing.assert_allclose(
            gaussian_lowpass_mask(9, 11, 0.37), gaussian_mask_direct(9, 11, 0.37),
            rtol=0, atol=1e-14,
        )

    def test_rejects_nonpositive_cutoff(self):
        # 2 * 1e-200**2 is 0.0 in float64, which would make the DC bin 0/0;
        # 2 * 1e-155**2 is subnormal, so -D^2 / (2 d0^2) overflows.
        for d0 in (0.0, -1.0, 1e-200, 1e-155):
            with pytest.raises(ValueError, match="d0"):
                gaussian_lowpass_mask(8, 8, d0)

    def test_cache_returns_readonly_shared_array(self):
        a = gaussian_lowpass_mask(12, 12, 0.8)
        b = gaussian_lowpass_mask(12, 12, 0.8)
        assert a is b
        assert not a.flags.writeable


class TestSwapLowFrequency:
    def test_identical_inputs_pass_through(self, rng):
        g = rng.normal(size=(12, 12, 3))
        mask = gaussian_lowpass_mask(12, 12, 0.8)
        np.testing.assert_allclose(swap_low_frequency(g, g, mask), g, rtol=0, atol=1e-10)

    def test_output_inherits_reference_channel_means(self, rng):
        est = rng.normal(size=(10, 8, 3))
        ref = rng.normal(size=(10, 8, 3)) + 2.0
        mask = gaussian_lowpass_mask(10, 8, 0.8)
        out = swap_low_frequency(est, ref, mask)
        np.testing.assert_allclose(out.mean(axis=(0, 1)), ref.mean(axis=(0, 1)),
                                   rtol=0, atol=1e-10)

    def test_full_mask_returns_reference(self, rng):
        est = rng.normal(size=(8, 8, 2))
        ref = rng.normal(size=(8, 8, 2))
        out = swap_low_frequency(est, ref, np.ones((8, 8)))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10)

    def test_matches_brute_force_blend(self, rng):
        est = rng.normal(size=(16, 16, 2))
        ref = rng.normal(size=(16, 16, 2))
        mask = gaussian_lowpass_mask(16, 16, 0.8)
        np.testing.assert_allclose(
            swap_low_frequency(est, ref, mask), swap_direct(est, ref, np.asarray(mask)),
            rtol=0, atol=1e-8,
        )

    def test_rejects_shape_mismatches(self, rng):
        mask = gaussian_lowpass_mask(8, 8, 0.8)
        with pytest.raises(ValueError):
            swap_low_frequency(rng.normal(size=(8, 8, 2)), rng.normal(size=(8, 8, 3)), mask)
        with pytest.raises(ValueError):
            swap_low_frequency(rng.normal(size=(8, 6, 2)), rng.normal(size=(8, 6, 2)), mask)

    @given(seed=st.integers(0, 2**31), scale=st.floats(-8.0, 8.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_both_grids(self, seed, scale):
        gen = np.random.default_rng(seed)
        est = gen.normal(size=(8, 6, 1))
        ref = gen.normal(size=(8, 6, 1))
        mask = gaussian_lowpass_mask(8, 6, 0.8)
        scaled = swap_low_frequency(scale * est, scale * ref, mask)
        base = swap_low_frequency(est, ref, mask)
        np.testing.assert_allclose(scaled, scale * base, rtol=0,
                                   atol=1e-10 * (1.0 + abs(scale)))

    def test_energy_splits_for_binary_mask(self, rng):
        est = rng.normal(size=(12, 12, 1))
        ref = rng.normal(size=(12, 12, 1))
        binary = (np.asarray(gaussian_lowpass_mask(12, 12, 0.8)) > 0.7).astype(float)
        f_ref = fft2d(ref) * binary[:, :, None]
        f_est = fft2d(est) * (1.0 - binary)[:, :, None]
        blended = fft2d(swap_low_frequency(est, ref, binary))
        lhs = np.abs(blended) ** 2
        rhs = np.abs(f_ref) ** 2 + np.abs(f_est) ** 2
        np.testing.assert_allclose(lhs.sum(), rhs.sum(), rtol=1e-10)

    def test_full_mask_swap_is_idempotent(self, rng):
        est = rng.normal(size=(8, 8, 1))
        ref = rng.normal(size=(8, 8, 1))
        ones = np.ones((8, 8))
        once = swap_low_frequency(est, ref, ones)
        twice = swap_low_frequency(once, ref, ones)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-10)

    def test_realness_residue_stays_small(self, rng):
        # Measured through the raw complex inverse, independent of ifft2d's check.
        est = rng.normal(size=(10, 10, 2))
        ref = rng.normal(size=(10, 10, 2))
        mask = np.asarray(gaussian_lowpass_mask(10, 10, 0.8))[:, :, None]
        blended = fft2d(ref) * mask + fft2d(est) * (1.0 - mask)
        residue = np.abs(np.fft.ifft2(blended, axes=(0, 1)).imag).max()
        assert residue < 1e-9


class TestRealTransformSwap:
    """The real-FFT swap against the direct-DFT blend it replaces."""

    @pytest.mark.parametrize("height, width", [(7, 7), (8, 8), (6, 9), (9, 4)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_direct_blend(self, rng, height, width, channels):
        est = rng.normal(size=(height, width, channels))
        ref = rng.normal(size=(height, width, channels))
        mask = np.asarray(gaussian_lowpass_mask(height, width, 0.6))
        np.testing.assert_allclose(swap_low_frequency(est, ref, mask),
                                   swap_direct(est, ref, mask), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("height, width", [(8, 8), (7, 6)])
    def test_asymmetric_mask_raises(self, rng, height, width):
        est = rng.normal(size=(height, width, 1))
        mask = np.array(gaussian_lowpass_mask(height, width, 0.8))
        mask[1, 2] = 0.0  # its mirror bin (-1, -2) keeps its value
        with pytest.raises(ImaginaryResidueError):
            swap_low_frequency(est, rng.normal(size=est.shape), mask)

    def test_binary_symmetric_mask_is_accepted(self, rng):
        est = rng.normal(size=(9, 9, 2))
        mask = (np.asarray(gaussian_lowpass_mask(9, 9, 0.8)) > 0.5).astype(float)
        out = swap_low_frequency(est, est, mask)
        np.testing.assert_allclose(out, est, rtol=0, atol=1e-12)
