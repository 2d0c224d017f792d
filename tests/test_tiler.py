import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resmaster.tiler import (
    GeometryError,
    PatchLayout,
    Rect,
    bicubic_upsample,
    extract_patch,
    fuse_patches,
)

from oracles import (
    bicubic_direct,
    bicubic_einsum,
    cover_count_direct,
    extract_direct,
    fuse_direct,
    fuse_first_plus_deviation,
    nearest_valid_stride_direct,
)


class TestPatchLayout:
    def test_paper_scale_geometry(self):
        layout = PatchLayout((256, 256), (128, 128), (64, 64))
        assert layout.patch_count == 9

    def test_full_window_single_patch(self):
        layout = PatchLayout((32, 20), (32, 20), (7, 3))
        assert layout.patch_count == 1
        assert layout.rects[0] == Rect(0, 0, 32, 20)

    def test_rectangular_grid(self):
        layout = PatchLayout((128, 256), (128, 128), (64, 64))
        assert layout.patch_count == 3

    def test_rects_enumerate_row_major(self):
        layout = PatchLayout((12, 12), (6, 6), (3, 3))
        tops_lefts = [(r.top, r.left) for r in layout.rects]
        assert tops_lefts == sorted(tops_lefts)
        assert layout.patch_count == 9

    def test_layout_is_its_three_pairs(self):
        assert [f.name for f in dataclasses.fields(PatchLayout) if f.init] == ["grid", "window", "stride"]
        layout = PatchLayout([20, 18], (8, 6), (4, 6))
        assert (layout.grid, layout.window, layout.stride) == ((20, 18), (8, 6), (4, 6))
        assert layout == PatchLayout((20, 18), (8, 6), (4, 6))

    def test_to_dict_writes_the_pairs_as_lists(self):
        assert PatchLayout((128, 128), (64, 64), (32, 32)).to_dict() == {
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
            PatchLayout((128, 128), (64, 64), (32, 48))
        with pytest.raises(GeometryError, match="height axis"):
            PatchLayout((100, 128), (64, 64), (48, 32))

    def test_suggested_stride_matches_brute_force_scan(self):
        for span in range(1, 120):
            for stride in range(1, 40):
                if span % stride == 0:
                    continue
                # A window of 120 spans every suggestion, so it bounds none.
                with pytest.raises(GeometryError) as err:
                    PatchLayout((120 + span, 8), (120, 8), (stride, 1))
                expected = nearest_valid_stride_direct(span, stride, 120)
                assert str(err.value).endswith(f"nearest valid stride is {expected}")

    def test_suggested_stride_is_exact_for_a_large_span(self):
        # span = 2**31 - 2 = 2 * 3**2 * 7 * 11 * 31 * 151 * 331; its divisors
        # come from that factorisation, not from a scan. The window is as
        # wide as the span, so it bounds no suggestion.
        divisors = [1]
        for prime, power in ((2, 1), (3, 2), (7, 1), (11, 1), (31, 1), (151, 1), (331, 1)):
            divisors = [d * prime**k for d in divisors for k in range(power + 1)]
        for stride in (1000, 46000, 70000, 5 * 10**8, 2**31 - 3):
            expected = min(divisors, key=lambda d: (abs(d - stride), d))
            with pytest.raises(GeometryError) as err:
                PatchLayout((2**32 - 4, 8), (2**31 - 2, 8), (stride, 1))
            assert str(err.value).endswith(f"nearest valid stride is {expected}")

    def test_a_span_beyond_2_to_the_32_gets_no_suggestion(self):
        # span = 2**40 - 2**17 leaves 63 over the prime stride 2**17 - 1. A
        # suggestion would take min(sqrt(span), 2 * stride - 1, window) = 2**17
        # trial divisions, more than the 2**16 allowed.
        span, stride = 2**40 - 2**17, 2**17 - 1
        with pytest.raises(GeometryError, match=f"^height axis: .* = {span} is not divisible by "
                                                f"stride {stride}; a valid stride divides it$"):
            PatchLayout((2**40, 8), (2**17, 8), (stride, 1))

    def test_suggested_stride_leaves_no_gap(self):
        # span 88 = 2**3 * 11: 44 lies nearest to 35, but windows of 40 at
        # stride 44 leave gaps, so the suggestion is 22.
        with pytest.raises(GeometryError, match="height axis.*nearest valid stride is 22$"):
            PatchLayout((128, 8), (40, 8), (35, 1))
        assert nearest_valid_stride_direct(88, 35, 40) == 22
        assert PatchLayout((128, 8), (40, 8), (22, 1)).cover_bands
        with pytest.raises(ValueError, match="does not cover"):
            PatchLayout((128, 8), (40, 8), (44, 1)).cover_bands

    def test_a_large_layout_holds_no_grid(self):
        # 16,129 windows of 64 at stride 32 on a 4096x4096 grid: the rects,
        # first covers and bands are held as their two axes, where a map of
        # the cover count alone took 128 MiB.
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            layout = PatchLayout((4096, 4096), (64, 64), (32, 32))
            bands, firsts = layout.cover_bands, layout.first_covers
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert (layout.patch_count, len(firsts), len(bands)) == (16129, 16129, 3)
        assert peak < 2**20, peak

    def test_window_count_is_bounded_before_rects_are_built(self):
        with pytest.raises(GeometryError, match=r"the tiling has 65792 windows; at most 2\*\*16"):
            PatchLayout((257, 256), (1, 1), (1, 1))
        # Far beyond sys.maxsize windows, and still refused at once.
        with pytest.raises(GeometryError, match="the tiling has an integer of 133 bits windows"):
            PatchLayout((10**20 + 1, 10**20 + 1), (1, 1), (1, 1))

    def test_rejects_degenerate_windows_and_strides(self):
        with pytest.raises(GeometryError):
            PatchLayout((16, 16), (0, 8), (4, 4))
        with pytest.raises(GeometryError):
            PatchLayout((16, 16), (32, 8), (4, 4))
        with pytest.raises(GeometryError):
            PatchLayout((16, 16), (8, 8), (0, 4))

    @pytest.mark.parametrize("grid, window, stride, field", [
        ((12.7, "12"), (4, 4.9), (4, 4), "grid"),  # once silently a 12x12 grid of 4x4 windows
        ((12, 12), (4, 4.9), (4, 4), "window"),
        ((12, 12), (4, 4), (True, 4), "stride"),  # once stride 1
        ((12, 12), (4, 4), (4, np.True_), "stride"),
        ((12, 12), "44", (4, 4), "window"),
        ((12, 12), (4, 4, 4), (4, 4), "window"),
        ([], (4, 4), (4, 4), "grid"),
    ])
    def test_rejects_values_that_spell_no_pair(self, grid, window, stride, field):
        with pytest.raises(GeometryError) as err:
            PatchLayout(grid, window, stride)
        message = str(err.value)
        assert message.startswith(f"{field} must be one integer or a list of one or two integers, got ")
        assert "\n" not in message

    @pytest.mark.parametrize("spelling", [12, [12], (12,), np.int64(12), [12, 12]])
    def test_one_integer_or_a_list_of_one_or_two_spells_a_pair(self, spelling):
        assert PatchLayout(spelling, 4, [4]) == PatchLayout((12, 12), (4, 4), (4, 4))

    def test_numpy_integers_are_stored_as_ints(self):
        layout = PatchLayout((np.int64(12), np.int32(12)), (np.uint8(4), 4), [4, np.int16(4)])
        assert layout == PatchLayout((12, 12), (4, 4), (4, 4))
        assert all(type(v) is int for pair in (layout.grid, layout.window, layout.stride) for v in pair)

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
        layout = PatchLayout((grid_h, grid_w), (win, win), (stride, stride))
        enumerated_h = len(range(0, grid_h - win + 1, stride))
        enumerated_w = len(range(0, grid_w - win + 1, stride))
        assert layout.patch_count == enumerated_h * enumerated_w == count_h * count_w

    def test_coverage_sums_to_patch_area(self, rng):
        layout = PatchLayout((20, 18), (8, 6), (4, 6))
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
        layout = PatchLayout((20, 18), (8, 6), (4, 6))
        patches = [extract_patch(g, r) for r in layout.rects]
        assert np.array_equal(fuse_patches(patches, layout), g)

    def test_two_constant_overlapping_patches_average(self):
        # Two windows that share their middle two columns.
        layout = PatchLayout((4, 6), (4, 4), (4, 2))
        a, b = np.full((4, 4, 1), 1.0), np.full((4, 4, 1), 2.0)
        fused = fuse_patches([a, b], layout)[0, :, 0]
        np.testing.assert_array_equal(fused, [1.0, 1.0, 1.5, 1.5, 2.0, 2.0])

    def test_matches_naive_accumulate_divide_oracle(self, rng):
        layout = PatchLayout((16, 16), (8, 8), (4, 4))
        assert layout.patch_count == 9
        patches = [rng.normal(size=(8, 8, 2)) for _ in range(9)]
        np.testing.assert_allclose(
            fuse_patches(patches, layout), fuse_direct(patches, layout), rtol=0, atol=1e-12
        )

    def test_rejects_count_and_shape_mismatch(self, rng):
        layout = PatchLayout((8, 8), (4, 4), (4, 4))
        good = [rng.normal(size=(4, 4, 1)) for _ in range(4)]
        with pytest.raises(ValueError):
            fuse_patches(good[:3], layout)
        bad = list(good)
        bad[2] = rng.normal(size=(4, 5, 1))
        with pytest.raises(ValueError):
            fuse_patches(bad, layout)


def count_from_bands(layout) -> np.ndarray:
    """The cover count as a ``grid``-shaped array, read from the bands."""
    return np.concatenate([np.broadcast_to(row, (stop - start, layout.grid[1]))
                           for start, stop, row in layout.cover_bands])


class TestCoverMaps:
    def test_count_matches_rect_scan(self):
        layout = PatchLayout((12, 10), (6, 4), (3, 2))
        count = count_from_bands(layout)
        assert count.shape == (12, 10)
        for y in range(12):
            for x in range(10):
                covering = [r for r in layout.rects
                            if r.top <= y < r.top + r.height and r.left <= x < r.left + r.width]
                assert count[y, x] == len(covering)

    def test_count_differs_per_layout(self):
        dense = PatchLayout((16, 16), (8, 8), (4, 4))
        sparse = PatchLayout((16, 16), (8, 8), (8, 8))
        assert dense.cover_bands is not sparse.cover_bands
        assert count_from_bands(dense).max() == 4
        assert count_from_bands(sparse).max() == 1
        assert len(sparse.cover_bands) == 1

    def test_a_tiling_with_gaps_does_not_fuse(self, rng):
        # Windows of 4 at stride 6 leave rows and columns 4 and 5 uncovered.
        holey = PatchLayout((10, 10), (4, 4), (6, 6))
        asked = []

        def patches():
            for _ in range(holey.patch_count):
                asked.append(1)
                yield rng.normal(size=(4, 4, 1))

        with pytest.raises(ValueError, match="does not cover"):
            fuse_patches(patches(), holey)
        with pytest.raises(ValueError, match="does not cover"):
            fuse_patches(list(patches()), holey)
        assert len(asked) == holey.patch_count  # only by the list

    @pytest.mark.parametrize("geometry", [
        PatchLayout((16, 16), (8, 8), (4, 4)),
        PatchLayout((20, 18), (8, 6), (4, 6)),
        PatchLayout((12, 12), (8, 8), (2, 4)),
        PatchLayout((9, 9), (3, 3), (1, 1)),     # stride 1: up to three windows per cell per axis
    ])
    def test_fusion_equals_per_step_loop_bit_for_bit(self, rng, geometry):
        patches = [rng.normal(size=(*geometry.window, 3))
                   for _ in range(geometry.patch_count)]
        assert np.array_equal(fuse_patches(patches, geometry),
                              fuse_first_plus_deviation(patches, geometry))

    @pytest.mark.parametrize("grid, window, stride", [
        ((128, 128), (64, 64), (32, 32)),
        ((20, 18), (8, 6), (4, 6)),
        ((13, 22), (5, 10), (2, 4)),
        ((16, 16), (8, 8), (8, 8)),
    ])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_fusion_equals_the_oracle_for_any_channel_count(self, rng, grid, window, stride,
                                                           channels):
        layout = PatchLayout(grid, window, stride)
        patches = [rng.normal(size=(*window, channels)) for _ in range(layout.patch_count)]
        np.testing.assert_array_equal(fuse_patches(patches, layout),
                                      fuse_first_plus_deviation(patches, layout), strict=True)

    @pytest.mark.parametrize("layout", [
        PatchLayout((12, 10), (6, 4), (3, 2)),
        PatchLayout((16, 16), (8, 8), (8, 8)),
        PatchLayout((128, 128), (64, 64), (32, 32)),
        PatchLayout((12, 12), (8, 8), (2, 4)),   # five bands, up to six windows per cell
    ])
    def test_bands_are_the_cover_count_by_runs_of_equal_rows(self, layout):
        bands = layout.cover_bands
        assert layout.cover_bands is bands
        assert bands[0][0] == 0 and bands[-1][1] == layout.grid[0]
        for (_, stop, row), (start, _, following) in zip(bands, bands[1:]):
            assert stop == start and not np.array_equal(row, following)
        for start, stop, row in bands:
            assert start < stop and row.shape == (layout.grid[1],) and not row.flags.writeable
            np.testing.assert_array_equal(cover_count_direct(layout)[start:stop, :, 0],
                                          np.broadcast_to(row, (stop - start, layout.grid[1])),
                                          strict=True)
        assert len(PatchLayout((128, 128), (64, 64), (32, 32)).cover_bands) == 3

    def test_fusion_holds_two_grids_and_a_window_above_its_inputs(self, rng):
        layout = PatchLayout((192, 192), (64, 64), (32, 32))
        patches = [rng.normal(size=(64, 64, 3)) for _ in range(layout.patch_count)]
        layout.cover_bands  # built once per layout, before the traced call
        grid_bytes = 192 * 192 * 3 * 8
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fused = fuse_patches(patches, layout)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(fused, fuse_first_plus_deviation(patches, layout))
        # The result and the deviations, a window of scratch (1/9 grid here)
        # and numpy's ufunc buffers (two of getbufsize() values, 0.15 grid)
        # come to 2.26 grids; a division that broadcasts into a new grid and
        # an out-of-place final sum took 3.08.
        assert peak < 2.5 * grid_bytes, peak / grid_bytes


class TestStreamedFusion:
    LAYOUTS = [
        PatchLayout((16, 16), (8, 8), (4, 4)),
        PatchLayout((20, 18), (8, 6), (4, 6)),
        PatchLayout((13, 22), (5, 10), (2, 4)),
        PatchLayout((16, 16), (8, 8), (8, 8)),
        PatchLayout((12, 12), (8, 8), (2, 4)),
    ]

    @staticmethod
    def _in_one_buffer(patches):
        # As the sampler hands them over: every patch in the same array.
        buffer = np.empty_like(patches[0])
        for patch in patches:
            buffer[...] = patch
            yield buffer

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("channels", [1, 3])
    def test_a_generator_fuses_to_the_oracle_bit_for_bit(self, rng, layout, channels):
        patches = [rng.normal(size=(*layout.window, channels)) for _ in range(layout.patch_count)]
        want = fuse_first_plus_deviation(patches, layout)
        np.testing.assert_array_equal(fuse_patches(iter(patches), layout), want, strict=True)
        np.testing.assert_array_equal(fuse_patches(self._in_one_buffer(patches), layout), want,
                                      strict=True)

    def test_a_generator_is_read_to_its_end_and_no_further(self, rng):
        layout = PatchLayout((16, 16), (8, 8), (4, 4))
        asked = []

        def patches():
            for i in range(layout.patch_count):
                asked.append(i)
                yield rng.normal(size=(8, 8, 2))
            asked.append("end")

        fuse_patches(patches(), layout)
        assert asked == [*range(layout.patch_count), "end"]

    @pytest.mark.parametrize("count, message", [
        (3, "^expected 4 patches, got 3$"),
        (0, "^expected 4 patches, got 0$"),
        (5, "^expected 4 patches, got more$"),
    ])
    def test_a_wrong_patch_count_is_the_same_one_line_error_for_both(self, rng, count, message):
        layout = PatchLayout((8, 8), (4, 4), (4, 4))
        patches = [rng.normal(size=(4, 4, 1)) for _ in range(count)]
        for given in (patches, (p for p in patches)):
            with pytest.raises(ValueError, match=message):
                fuse_patches(given, layout)

    def test_a_wrong_shape_is_the_same_one_line_error_for_both(self, rng):
        layout = PatchLayout((8, 8), (4, 4), (4, 4))
        patches = [rng.normal(size=(4, 4, 2)) for _ in range(4)]
        patches[2] = rng.normal(size=(4, 5, 2))
        for given in (patches, (p for p in patches)):
            with pytest.raises(ValueError, match=r"^patches\[2\] has shape \(4, 5, 2\), "
                                                 r"expected \(4, 4, 2\)$"):
                fuse_patches(given, layout)

    @pytest.mark.parametrize("layout", [
        *LAYOUTS,
        PatchLayout((128, 96), (64, 32), (32, 16)),
        PatchLayout((7, 9), (7, 9), (3, 3)),
        PatchLayout((9, 9), (3, 3), (1, 1)),
        PatchLayout((10, 17), (4, 5), (2, 3)),
    ])
    def test_first_covers_give_each_cell_to_its_first_covering_rect(self, layout):
        assert_first_covers_are_the_first_owners(layout)
        assert layout.first_covers is layout.first_covers

    @pytest.mark.parametrize("grid, window, stride", [
        ((128, 128), (64, 64), (32, 32)),
        ((20, 18), (8, 6), (4, 6)),
        ((12, 12), (8, 8), (2, 4)),
        ((16, 16), (8, 8), (8, 8)),
    ])
    def test_a_planned_tiling_has_one_first_cover_rectangle_per_rect(self, grid, window, stride):
        # The cells a window covers first, found cell by cell, fill exactly
        # its first-cover rect, which ends where the window ends.
        layout = PatchLayout(grid, window, stride)
        owners = first_owners(layout)
        for i, (cover, rect) in enumerate(zip(layout.first_covers, layout.rects)):
            top, left, h, w = cover
            assert isinstance(cover, Rect) and h > 0 and w > 0
            assert (top + h, left + w) == (rect.top + rect.height, rect.left + rect.width)
            cells = np.argwhere(owners == i)
            assert len(cells) == h * w
            assert (tuple(cells.min(axis=0)), tuple(cells.max(axis=0))) == (
                (top, left), (top + h - 1, left + w - 1))


def first_owners(layout) -> np.ndarray:
    """The index of the first rect covering each cell, cell by cell."""
    first = np.full(layout.grid, -1)
    for i, (top, left, h, w) in enumerate(layout.rects):
        for y in range(top, top + h):
            for x in range(left, left + w):
                if first[y, x] < 0:
                    first[y, x] = i
    return first


def assert_first_covers_are_the_first_owners(layout):
    assert len(layout.first_covers) == layout.patch_count
    owner = np.full(layout.grid, -1)
    for i, ((top, left, h, w), rect) in enumerate(zip(layout.first_covers, layout.rects)):
        assert (rect.top <= top and top + h <= rect.top + rect.height
                and rect.left <= left and left + w <= rect.left + rect.width)
        assert (owner[top : top + h, left : left + w] < 0).all()
        owner[top : top + h, left : left + w] = i
    np.testing.assert_array_equal(owner, first_owners(layout))


@st.composite
def gap_free_tilings(draw):
    """A tiling without gaps: per axis a window, a stride no larger than it
    and a window count, so the axes may differ."""
    axes = []
    for _ in range(2):
        window = draw(st.integers(1, 12))
        stride = draw(st.integers(1, window))
        count = draw(st.integers(1, 6))
        axes.append((window + (count - 1) * stride, window, stride))
    return PatchLayout(*zip(*axes))


CLOSED_FORM_EXAMPLES = [
    PatchLayout((20, 18), (8, 6), (4, 6)),   # not square, stride == window along a row
    PatchLayout((16, 16), (8, 8), (8, 8)),   # stride == window
    PatchLayout((7, 9), (7, 9), (3, 3)),     # one window
    PatchLayout((13, 22), (5, 10), (2, 4)),
]


def with_examples(**arguments):
    """Hypothesis examples of every layout of CLOSED_FORM_EXAMPLES, with the
    test's other ``arguments``."""
    def decorate(test):
        for layout in CLOSED_FORM_EXAMPLES:
            test = example(layout=layout, **arguments)(test)
        return test
    return decorate


class TestClosedForms:
    """The first covers and the cover bands are derived from the two axes;
    each is checked against a cell-by-cell construction from the rects."""

    @with_examples()
    @given(layout=gap_free_tilings())
    @settings(max_examples=60, deadline=None)
    def test_first_covers_are_the_first_owners(self, layout):
        assert_first_covers_are_the_first_owners(layout)

    @with_examples()
    @given(layout=gap_free_tilings())
    @settings(max_examples=60, deadline=None)
    def test_bands_are_the_direct_cover_count(self, layout):
        count = np.concatenate([np.broadcast_to(row, (stop - start, layout.grid[1]))
                                for start, stop, row in layout.cover_bands])
        np.testing.assert_array_equal(count[:, :, None], cover_count_direct(layout), strict=True)

    @with_examples(channels=3, seed=0)
    @given(layout=gap_free_tilings(), channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_streamed_fusion_equals_the_oracle_bit_for_bit(self, layout, channels, seed):
        rng = np.random.default_rng(seed)
        patches = [rng.normal(size=(*layout.window, channels)) for _ in range(layout.patch_count)]
        np.testing.assert_array_equal(
            fuse_patches(TestStreamedFusion._in_one_buffer(patches), layout),
            fuse_first_plus_deviation(patches, layout), strict=True)


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

    @example(in_h=6, in_w=1, scale_h=4, scale_w=6, channels=1, seed=0)  # taps summed pairwise
    @example(in_h=1, in_w=1, scale_h=1, scale_w=1, channels=1, seed=0)
    @example(in_h=12, in_w=12, scale_h=5, scale_w=5, channels=4, seed=0)
    @given(in_h=st.integers(1, 12), in_w=st.integers(1, 12), scale_h=st.integers(1, 5),
           scale_w=st.integers(1, 5), channels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_einsum_form_bit_for_bit_in_a_row_major_grid(
            self, in_h, in_w, scale_h, scale_w, channels, seed):
        g = np.random.default_rng(seed).normal(size=(in_h, in_w, channels)) * 1e3
        out_h, out_w = in_h * scale_h, in_w * scale_w
        got, want = bicubic_upsample(g, out_h, out_w), bicubic_einsum(g, out_h, out_w)
        assert got.flags.c_contiguous
        if channels == 1 and 1 in (in_w, out_h):
            # An einsum whose 4 taps are its operands' only contiguous values
            # (one channel, and one input column for the rows or one output
            # row for the columns) sums them pairwise, (0 + 2) + (1 + 3), so
            # the einsum's bytes may differ there by rounding alone.
            atol = 8 * np.finfo(np.float64).eps * np.abs(g).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=atol, strict=True)
        else:
            np.testing.assert_array_equal(got, want, strict=True)

    def test_a_4x_upsample_holds_under_two_and_a_half_output_grids(self, rng):
        # The result and one tap buffer per pass: 2 output grids for the
        # columns, with the rows' quarter grid held. The einsum form gathered
        # all 4 taps of every output cell, 5.26 grids.
        g = rng.uniform(size=(128, 128, 3))
        bicubic_upsample(g, 512, 512)  # numpy's own first-call set-up
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out = bicubic_upsample(g, 512, 512)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * out.nbytes, peak / out.nbytes

    @pytest.mark.parametrize("dims, name", [((12.7, 8.9), "out_h"), (("9", 9), "out_h"),
                                            ((9, 9.0), "out_w"), ((None, 9), "out_h")])
    def test_non_integer_output_dims_are_a_one_line_error(self, rng, dims, name):
        g = rng.normal(size=(4, 4, 1))
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got ") as excinfo:
            bicubic_upsample(g, *dims)
        assert "\n" not in str(excinfo.value)

    def test_numpy_integer_output_dims_are_accepted(self, rng):
        g = rng.normal(size=(4, 4, 1))
        np.testing.assert_array_equal(bicubic_upsample(g, np.int64(9), np.int32(8)),
                                      bicubic_upsample(g, 9, 8), strict=True)
