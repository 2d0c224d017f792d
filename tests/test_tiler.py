import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmaster.tiler import (
    GeometryError,
    PatchLayout,
    Rect,
    bicubic_upsample,
    extract_patch,
    fuse_patches,
    plan_patches,
)

from oracles import (
    bicubic_direct,
    extract_direct,
    fuse_direct,
    fuse_first_plus_deviation,
    nearest_valid_stride_direct,
)


class TestPlanPatches:
    def test_paper_scale_geometry(self):
        layout = plan_patches((256, 256), (128, 128), (64, 64))
        assert layout.patch_count == 9

    def test_full_window_single_patch(self):
        layout = plan_patches((32, 20), (32, 20), (7, 3))
        assert layout.patch_count == 1
        assert layout.rects[0] == Rect(0, 0, 32, 20)

    def test_rectangular_grid(self):
        layout = plan_patches((128, 256), (128, 128), (64, 64))
        assert layout.patch_count == 3

    def test_rects_enumerate_row_major(self):
        layout = plan_patches((12, 12), (6, 6), (3, 3))
        tops_lefts = [(r.top, r.left) for r in layout.rects]
        assert tops_lefts == sorted(tops_lefts)
        assert layout.patch_count == 9

    def test_layout_fields_are_the_pairs_and_rects(self):
        assert [f.name for f in dataclasses.fields(PatchLayout)] == ["grid", "window", "stride", "rects"]
        layout = plan_patches([20, 18], (8, 6), (4, 6))
        assert (layout.grid, layout.window, layout.stride) == ((20, 18), (8, 6), (4, 6))

    def test_to_dict_writes_the_pairs_as_lists(self):
        assert plan_patches((128, 128), (64, 64), (32, 32)).to_dict() == {
            "grid": [128, 128],
            "window": [64, 64],
            "stride": [32, 32],
            "patch_count": 9,
            "rects": [[0, 0, 64, 64], [0, 32, 64, 64], [0, 64, 64, 64],
                      [32, 0, 64, 64], [32, 32, 64, 64], [32, 64, 64, 64],
                      [64, 0, 64, 64], [64, 32, 64, 64], [64, 64, 64, 64]],
        }

    def test_error_names_axis_and_suggests_stride(self):
        with pytest.raises(GeometryError, match="width axis.*nearest valid stride is 32"):
            plan_patches((128, 128), (64, 64), (32, 48))
        with pytest.raises(GeometryError, match="height axis"):
            plan_patches((100, 128), (64, 64), (48, 32))

    def test_suggested_stride_matches_brute_force_scan(self):
        for span in range(1, 120):
            for stride in range(1, 40):
                if span % stride == 0:
                    continue
                with pytest.raises(GeometryError) as err:
                    plan_patches((8 + span, 8), (8, 8), (stride, 1))
                expected = nearest_valid_stride_direct(span, stride)
                assert str(err.value).endswith(f"nearest valid stride is {expected}")

    def test_suggested_stride_is_exact_for_a_large_span(self):
        # span = 2**31 - 2 = 2 * 3**2 * 7 * 11 * 31 * 151 * 331; its divisors
        # come from that factorisation, not from a scan.
        divisors = [1]
        for prime, power in ((2, 1), (3, 2), (7, 1), (11, 1), (31, 1), (151, 1), (331, 1)):
            divisors = [d * prime**k for d in divisors for k in range(power + 1)]
        for stride in (1000, 46000, 70000, 5 * 10**8, 2**31 - 3):
            expected = min(divisors, key=lambda d: (abs(d - stride), d))
            with pytest.raises(GeometryError) as err:
                plan_patches((2**31 - 1, 8), (1, 8), (stride, 1))
            assert str(err.value).endswith(f"nearest valid stride is {expected}")

    def test_window_count_is_bounded_before_rects_are_built(self):
        with pytest.raises(GeometryError, match=r"the tiling has 65792 windows; at most 2\*\*16"):
            plan_patches((257, 256), (1, 1), (1, 1))
        # Far beyond sys.maxsize windows, and still refused at once.
        with pytest.raises(GeometryError, match=f"the tiling has {(10**20 + 1) ** 2} windows"):
            plan_patches((10**20 + 1, 10**20 + 1), (1, 1), (1, 1))

    def test_rejects_degenerate_windows_and_strides(self):
        with pytest.raises(GeometryError):
            plan_patches((16, 16), (0, 8), (4, 4))
        with pytest.raises(GeometryError):
            plan_patches((16, 16), (32, 8), (4, 4))
        with pytest.raises(GeometryError):
            plan_patches((16, 16), (8, 8), (0, 4))

    @given(
        win=st.integers(2, 24),
        count_h=st.integers(1, 5),
        count_w=st.integers(1, 5),
        stride=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_count_matches_enumeration(self, win, count_h, count_w, stride):
        grid_h = win + (count_h - 1) * stride
        grid_w = win + (count_w - 1) * stride
        layout = plan_patches((grid_h, grid_w), (win, win), (stride, stride))
        enumerated_h = len(range(0, grid_h - win + 1, stride))
        enumerated_w = len(range(0, grid_w - win + 1, stride))
        assert layout.patch_count == enumerated_h * enumerated_w == count_h * count_w

    def test_coverage_sums_to_patch_area(self, rng):
        layout = plan_patches((20, 18), (8, 6), (4, 6))
        cover = np.zeros((20, 18))
        for top, left, h, w in layout.rects:
            cover[top : top + h, left : left + w] += 1
        assert (cover >= 1).all()
        assert cover.sum() == layout.patch_count * 8 * 6


class TestExtractPatch:
    def test_full_cover_rect_is_identity(self, rng):
        g = rng.normal(size=(7, 9, 2))
        np.testing.assert_array_equal(extract_patch(g, Rect(0, 0, 7, 9)), g)

    def test_single_cell(self, rng):
        g = rng.normal(size=(7, 9, 3))
        np.testing.assert_array_equal(extract_patch(g, Rect(3, 5, 1, 1))[0, 0], g[3, 5])

    def test_matches_index_loop_oracle(self, rng):
        g = rng.normal(size=(10, 12, 2))
        rect = Rect(2, 3, 5, 7)
        np.testing.assert_array_equal(extract_patch(g, rect), extract_direct(g, rect))

    def test_returns_a_copy(self, rng):
        g = rng.normal(size=(6, 6, 1))
        patch = extract_patch(g, Rect(0, 0, 3, 3))
        patch += 100.0
        assert g[0, 0, 0] < 50.0

    @pytest.mark.parametrize("rect", [(-1, 0, 3, 3), (0, -2, 3, 3), (5, 0, 3, 3), (0, 5, 3, 3), (0, 0, 0, 3)])
    def test_rejects_out_of_bounds(self, rng, rect):
        g = rng.normal(size=(6, 6, 1))
        with pytest.raises(ValueError):
            extract_patch(g, Rect(*rect))


class TestFusePatches:
    def test_fuse_of_extracted_patches_is_identity(self, rng):
        g = rng.normal(size=(20, 18, 3))
        layout = plan_patches((20, 18), (8, 6), (4, 6))
        patches = [extract_patch(g, r) for r in layout.rects]
        assert np.array_equal(fuse_patches(patches, layout), g)

    def test_two_constant_overlapping_patches_average(self):
        layout = plan_patches((4, 4), (4, 4), (1, 1))
        assert layout.patch_count == 1
        # Build a fully-overlapping pair by hand: same rect twice.
        from resmaster.tiler import PatchLayout, Rect as R

        double = PatchLayout((4, 4), (4, 4), (1, 1), (R(0, 0, 4, 4), R(0, 0, 4, 4)))
        a, b = np.full((4, 4, 1), 1.0), np.full((4, 4, 1), 2.0)
        np.testing.assert_allclose(fuse_patches([a, b], double), 1.5, rtol=0, atol=0)

    def test_matches_naive_accumulate_divide_oracle(self, rng):
        layout = plan_patches((16, 16), (8, 8), (4, 4))
        assert layout.patch_count == 9
        patches = [rng.normal(size=(8, 8, 2)) for _ in range(9)]
        np.testing.assert_allclose(
            fuse_patches(patches, layout), fuse_direct(patches, layout), rtol=0, atol=1e-12
        )

    def test_order_insensitive_up_to_rounding(self, rng):
        from resmaster.tiler import PatchLayout

        layout = plan_patches((12, 12), (8, 8), (4, 4))
        patches = [rng.normal(size=(8, 8, 1)) for _ in range(layout.patch_count)]
        perm = rng.permutation(layout.patch_count)
        permuted_layout = PatchLayout(
            layout.grid, layout.window, layout.stride, tuple(layout.rects[i] for i in perm),
        )
        base = fuse_patches(patches, layout)
        shuffled = fuse_patches([patches[i] for i in perm], permuted_layout)
        np.testing.assert_allclose(shuffled, base, rtol=0, atol=1e-12)

    def test_rejects_count_and_shape_mismatch(self, rng):
        layout = plan_patches((8, 8), (4, 4), (4, 4))
        good = [rng.normal(size=(4, 4, 1)) for _ in range(4)]
        with pytest.raises(ValueError):
            fuse_patches(good[:3], layout)
        bad = list(good)
        bad[2] = rng.normal(size=(4, 5, 1))
        with pytest.raises(ValueError):
            fuse_patches(bad, layout)


class TestCoverMaps:
    def test_count_matches_rect_scan(self):
        layout = plan_patches((12, 10), (6, 4), (3, 2))
        count = layout.cover_count
        assert count.shape == (12, 10, 1)
        for y in range(12):
            for x in range(10):
                covering = [r for r in layout.rects
                            if r.top <= y < r.top + r.height and r.left <= x < r.left + r.width]
                assert count[y, x, 0] == len(covering)

    def test_count_is_read_only_and_cached(self):
        layout = plan_patches((16, 16), (8, 8), (4, 4))
        count = layout.cover_count
        assert layout.cover_count is count
        assert not count.flags.writeable
        with pytest.raises(ValueError):
            count[0, 0] = 0

    def test_count_differs_per_layout(self):
        dense = plan_patches((16, 16), (8, 8), (4, 4))
        sparse = plan_patches((16, 16), (8, 8), (8, 8))
        assert dense.cover_count is not sparse.cover_count
        assert dense.cover_count.max() == 4
        assert sparse.cover_count.max() == 1

    def test_uncovered_hand_built_layout_raises(self, rng):
        holey = PatchLayout((8, 8), (4, 4), (4, 4), (Rect(0, 0, 4, 4), Rect(4, 4, 4, 4)))
        patches = [rng.normal(size=(4, 4, 1)) for _ in range(2)]
        with pytest.raises(ValueError, match="does not cover"):
            fuse_patches(patches, holey)
        with pytest.raises(ValueError, match="does not cover"):
            fuse_patches(patches, holey)

    @pytest.mark.parametrize("geometry", [
        plan_patches((16, 16), (8, 8), (4, 4)),
        plan_patches((20, 18), (8, 6), (4, 6)),
        plan_patches((12, 12), (8, 8), (2, 4)),
        # Rects out of row-major order, two of them twice: each cell's first
        # covering value must come from the first rect in this order.
        PatchLayout((12, 12), (8, 8), (4, 4), (
            Rect(4, 4, 8, 8), Rect(0, 4, 8, 8), Rect(4, 4, 8, 8), Rect(0, 0, 8, 8),
            Rect(4, 0, 8, 8), Rect(0, 4, 8, 8),
        )),
    ])
    def test_fusion_equals_per_step_loop_bit_for_bit(self, rng, geometry):
        patches = [rng.normal(size=(*geometry.window, 3))
                   for _ in range(geometry.patch_count)]
        assert np.array_equal(fuse_patches(patches, geometry),
                              fuse_first_plus_deviation(patches, geometry))


class TestBicubicUpsample:
    def test_same_dims_is_identity(self, rng):
        g = rng.normal(size=(6, 7, 2))
        np.testing.assert_allclose(bicubic_upsample(g, 6, 7), g, rtol=0, atol=1e-12)

    def test_constant_stays_constant(self):
        g = np.full((5, 5, 3), 0.672)
        out = bicubic_upsample(g, 13, 17)
        np.testing.assert_allclose(out, 0.672, rtol=0, atol=1e-12)
        assert out.mean() == pytest.approx(0.672, abs=1e-12)

    def test_ramp_matches_kernel_sum_oracle(self):
        ramp = (np.arange(16, dtype=float).reshape(4, 4) / 15.0)[:, :, None]
        np.testing.assert_allclose(
            bicubic_upsample(ramp, 8, 8), bicubic_direct(ramp, 8, 8), rtol=0, atol=1e-9
        )

    def test_random_grid_matches_oracle_non_integer_ratio(self, rng):
        g = rng.normal(size=(5, 7, 2))
        np.testing.assert_allclose(
            bicubic_upsample(g, 11, 9), bicubic_direct(g, 11, 9), rtol=0, atol=1e-9
        )

    def test_rejects_downscale(self, rng):
        g = rng.normal(size=(8, 8, 1))
        with pytest.raises(ValueError):
            bicubic_upsample(g, 4, 8)
        with pytest.raises(ValueError):
            bicubic_upsample(g, 8, 7)
