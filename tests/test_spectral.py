import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmaster.spectral import _lowpass_matrix, swap_low_frequency

from oracles import dft2d_direct, gaussian_mask_direct, idft2d_direct, swap_direct

# Frozen: exp(-1 / (2 * 0.8^2)) at the Nyquist corner of an even grid.
NYQUIST_MASK_D0_08 = 0.45783336177161427


def axis_gain(n, d0):
    """The per-axis gain g(f) = exp(-f^2 / d0^2) the filter must apply, per bin."""
    return np.array([math.exp(-((min(k, n - k) / n) ** 2) / (d0 * d0)) for k in range(n)])


def filter_gain(n, d0):
    """The per-bin gain of the cached filter: the DFT of its first column."""
    return np.fft.fft(_lowpass_matrix(n, d0)[:, 0])


class TestFFT:
    """The direct-DFT oracle that the swap is checked against, checked in turn
    against numpy's FFT and the DFT's own identities."""

    def test_constant_grid_concentrates_at_dc(self):
        g = np.full((6, 9, 2), 3.25)
        f = dft2d_direct(g)
        np.testing.assert_allclose(f[0, 0, :], 3.25 * 6 * 9, rtol=1e-14)
        f[0, 0, :] = 0
        assert np.abs(f).max() < 1e-10

    def test_impulse_has_flat_magnitude(self):
        g = np.zeros((5, 7, 1))
        g[0, 0, 0] = 1.0
        np.testing.assert_allclose(np.abs(dft2d_direct(g)), 1.0, rtol=0, atol=1e-12)

    def test_matches_direct_dft(self, rng):
        g = rng.normal(size=(8, 8, 3))
        np.testing.assert_allclose(np.fft.fft2(g, axes=(0, 1)), dft2d_direct(g), rtol=0, atol=1e-9)

    def test_real_input_gives_conjugate_symmetric_spectrum(self, rng):
        g = rng.normal(size=(6, 9, 2))
        f = dft2d_direct(g)
        h, w = 6, 9
        flipped = np.conj(f[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
        np.testing.assert_allclose(f, flipped, rtol=0, atol=1e-10)

    def test_mixed_radix_sizes(self, rng):
        # Sizes with prime factors beyond 2 must agree too.
        for shape in ((6, 10, 1), (7, 13, 1)):
            g = rng.normal(size=shape)
            np.testing.assert_allclose(np.fft.fft2(g, axes=(0, 1)), dft2d_direct(g),
                                       rtol=0, atol=1e-9)


class TestIFFT:
    """The direct inverse-DFT oracle."""

    def test_roundtrip(self, rng):
        g = rng.normal(size=(9, 6, 2))
        np.testing.assert_allclose(idft2d_direct(dft2d_direct(g)), g, rtol=0, atol=1e-10)

    def test_zero_spectrum(self):
        out = idft2d_direct(np.zeros((4, 4, 1), dtype=np.complex128))
        np.testing.assert_array_equal(out, np.zeros((4, 4, 1)))

    def test_symmetrized_spectrum_matches_direct_inverse(self, rng):
        raw = rng.normal(size=(8, 8, 1)) + 1j * rng.normal(size=(8, 8, 1))
        flipped = np.conj(raw[(-np.arange(8)) % 8][:, (-np.arange(8)) % 8])
        sym = 0.5 * (raw + flipped)
        direct = idft2d_direct(sym)
        assert np.abs(direct.imag).max() < 1e-12
        np.testing.assert_allclose(np.fft.ifft2(sym, axes=(0, 1)).real, direct.real,
                                   rtol=0, atol=1e-9)


class TestGaussianMask:
    """The cached per-axis filter: L_n is the circulant whose first column's
    DFT is g, so L_H X L_W^T applies the 2-D mask g(f_u) g(f_v)."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 64])
    @pytest.mark.parametrize("d0", [0.37, 0.8, 3.0])
    def test_first_column_dft_is_the_axis_gain(self, n, d0):
        np.testing.assert_allclose(filter_gain(n, d0), axis_gain(n, d0), rtol=0, atol=1e-14)

    def test_dc_is_one_for_any_cutoff(self):
        for d0 in (0.05, 0.8, 3.0):
            assert filter_gain(16, d0)[0] == pytest.approx(1.0, abs=1e-14)
            assert filter_gain(12, d0)[0] == pytest.approx(1.0, abs=1e-14)

    def test_conjugate_symmetric_layout(self):
        # A real symmetric circulant: its gain is real and even in f.
        for n in (10, 14, 9):
            m = _lowpass_matrix(n, 0.8)
            np.testing.assert_allclose(m, m.T, rtol=0, atol=1e-16)
            np.testing.assert_array_equal(np.roll(m, (1, 1), axis=(0, 1)), m)

    def test_nyquist_corner_value(self):
        gain = filter_gain(64, 0.8)
        assert (gain[32] * gain[32]).real == pytest.approx(NYQUIST_MASK_D0_08, rel=1e-13)

    def test_matches_scalar_oracle(self):
        mask = np.outer(filter_gain(9, 0.37), filter_gain(11, 0.37))
        np.testing.assert_allclose(mask, gaussian_mask_direct(9, 11, 0.37), rtol=0, atol=1e-14)

    def test_rejects_nonpositive_cutoff(self, rng):
        # 2 * 1e-200**2 is 0.0 in float64, which would make the DC gain 0/0;
        # 1/(2 * 1e-155**2) overflows.
        g = rng.normal(size=(8, 8, 1))
        for d0 in (0.0, -1.0, 1e-200, 1e-155):
            with pytest.raises(ValueError, match="d0"):
                swap_low_frequency(g, g, d0)

    def test_cache_returns_readonly_shared_array(self):
        a = _lowpass_matrix(12, 0.8)
        b = _lowpass_matrix(12, 0.8)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


class TestSwapLowFrequency:
    def test_identical_inputs_pass_through(self, rng):
        g = rng.normal(size=(12, 12, 3))
        np.testing.assert_allclose(swap_low_frequency(g, g, 0.8), g, rtol=0, atol=1e-10)

    def test_output_inherits_reference_channel_means(self, rng):
        est = rng.normal(size=(10, 8, 3))
        ref = rng.normal(size=(10, 8, 3)) + 2.0
        out = swap_low_frequency(est, ref, 0.8)
        np.testing.assert_allclose(out.mean(axis=(0, 1)), ref.mean(axis=(0, 1)),
                                   rtol=0, atol=1e-10)

    def test_full_mask_returns_reference(self, rng):
        # 2 * d0^2 is infinite, so every gain is exp(-0) = 1.
        est = rng.normal(size=(8, 8, 2))
        ref = rng.normal(size=(8, 8, 2))
        out = swap_low_frequency(est, ref, 1e300)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10)

    def test_matches_brute_force_blend(self, rng):
        est = rng.normal(size=(16, 16, 2))
        ref = rng.normal(size=(16, 16, 2))
        np.testing.assert_allclose(
            swap_low_frequency(est, ref, 0.8), swap_direct(est, ref, gaussian_mask_direct(16, 16, 0.8)),
            rtol=0, atol=1e-8,
        )

    def test_rejects_shape_mismatches(self, rng):
        with pytest.raises(ValueError):
            swap_low_frequency(rng.normal(size=(8, 8, 2)), rng.normal(size=(8, 8, 3)), 0.8)
        with pytest.raises(ValueError):
            swap_low_frequency(rng.normal(size=(8, 6, 2)), rng.normal(size=(6, 8, 2)), 0.8)
        with pytest.raises(ValueError):
            swap_low_frequency(rng.normal(size=(8, 6)), rng.normal(size=(8, 6)), 0.8)

    @given(seed=st.integers(0, 2**31), scale=st.floats(-8.0, 8.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_both_grids(self, seed, scale):
        gen = np.random.default_rng(seed)
        est = gen.normal(size=(8, 6, 1))
        ref = gen.normal(size=(8, 6, 1))
        scaled = swap_low_frequency(scale * est, scale * ref, 0.8)
        base = swap_low_frequency(est, ref, 0.8)
        np.testing.assert_allclose(scaled, scale * base, rtol=0,
                                   atol=1e-10 * (1.0 + abs(scale)))

    def test_full_mask_swap_is_idempotent(self, rng):
        est = rng.normal(size=(8, 8, 1))
        ref = rng.normal(size=(8, 8, 1))
        once = swap_low_frequency(est, ref, 1e300)
        twice = swap_low_frequency(once, ref, 1e300)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-10)

    def test_realness_residue_stays_small(self, rng):
        # The per-bin blend the swap implements is a real grid, so the oracle's
        # ``.real`` discards nothing.
        est = rng.normal(size=(10, 10, 2))
        ref = rng.normal(size=(10, 10, 2))
        mask = gaussian_mask_direct(10, 10, 0.8)[:, :, None]
        blended = np.fft.fft2(ref, axes=(0, 1)) * mask + np.fft.fft2(est, axes=(0, 1)) * (1.0 - mask)
        residue = np.abs(np.fft.ifft2(blended, axes=(0, 1)).imag).max()
        assert residue < 1e-9


class TestRealTransformSwap:
    """The separable real swap against the direct-DFT blend with the 2-D mask."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("height, width", [(7, 7), (8, 8), (6, 9), (9, 4), (1, 5), (64, 64)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_direct_blend(self, rng, height, width, channels):
        # 5.3e-155 is about the smallest cutoff with 1/(2 d0^2) finite.
        for d0 in (0.37, 0.8, 5.3e-155):
            est = rng.normal(size=(height, width, channels))
            ref = rng.normal(size=(height, width, channels))
            want = swap_direct(est, ref, gaussian_mask_direct(height, width, d0))
            np.testing.assert_allclose(swap_low_frequency(est, ref, d0), want, rtol=0, atol=1e-12)
