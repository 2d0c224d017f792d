import re
import tracemalloc

import numpy as np
import pytest

from resmaster.netpbm import ImageFormatError, read_image, write_image


class TestReadImage:
    def test_ppm_all_white(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes([255] * 12))
        grid = read_image(path)
        assert grid.shape == (2, 2, 3)
        np.testing.assert_array_equal(grid, np.ones((2, 2, 3)))

    def test_pgm_midpoint_value(self, tmp_path):
        path = tmp_path / "mid.pgm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes([128]))
        grid = read_image(path)
        assert grid.shape == (1, 1, 1)
        assert grid[0, 0, 0] == pytest.approx(128 / 255)
        assert grid[0, 0, 0] == pytest.approx(0.50196, abs=1e-5)

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # format\n# a comment line\n  2\t1 # dims\n255\n" + bytes([0, 255]))
        grid = read_image(path)
        np.testing.assert_allclose(grid[:, :, 0], [[0.0, 1.0]])

    def test_roundtrip_within_half_quantum(self, tmp_path, rng):
        grid = rng.uniform(0.0, 1.0, size=(9, 7, 3))
        path = tmp_path / "rt.ppm"
        write_image(grid, path)
        back = read_image(path)
        assert np.abs(back - grid).max() <= 1.0 / 510 + 1e-12

    def test_bad_magic_raises_with_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P4\n2 2\n255\n" + bytes(12))
        with pytest.raises(ImageFormatError, match="byte 0"):
            read_image(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(ImageFormatError, match="truncated"):
            read_image(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 0]))
        with pytest.raises(ImageFormatError, match="maxval"):
            read_image(path)

    def test_garbage_header_token(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\nxx 2\n255\n" + bytes(4))
        with pytest.raises(ImageFormatError, match="integer"):
            read_image(path)

    @pytest.mark.parametrize("data, at, message", [
        (b"P5\n2 2\n", 7, "expected maxval, found end of header"),
        (b"P5\n0 2\n255\n", 0, "invalid dimensions 0x2"),
        (b"P5\n1 1\n255", 10, "expected single whitespace byte before pixel data"),
    ])
    def test_a_malformed_header_is_one_line_naming_the_file(self, tmp_path, data, at, message):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError, match=f"^{re.escape(f'{path}: byte {at}: {message}')}$"):
            read_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_image(tmp_path / "nope.ppm")


class TestWriteImage:
    def test_zero_grid_writes_zero_bytes(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_image(np.zeros((2, 3, 1)), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data.endswith(bytes(6))

    def test_one_maps_to_255_and_clamps_above(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_image(np.array([[[1.0], [1.7], [-0.3]]]), path)
        assert path.read_bytes()[-3:] == bytes([255, 255, 0])

    def test_round_half_up(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_image(np.array([[[0.5 / 255], [1.49 / 255]]]), path)
        assert path.read_bytes()[-2:] == bytes([1, 1])

    def test_channel_count_choice_and_rejection(self, tmp_path, rng):
        write_image(rng.uniform(size=(2, 2, 3)), tmp_path / "a.ppm")
        assert (tmp_path / "a.ppm").read_bytes().startswith(b"P6")
        write_image(rng.uniform(size=(2, 2, 1)), tmp_path / "a.pgm")
        assert (tmp_path / "a.pgm").read_bytes().startswith(b"P5")
        with pytest.raises(ValueError):
            write_image(rng.uniform(size=(2, 2, 4)), tmp_path / "bad.ppm")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_before_opening(self, tmp_path, bad):
        grid = np.full((2, 2, 3), 0.5)
        grid[1, 0, 2] = bad
        path = tmp_path / "bad.ppm"
        with pytest.raises(ValueError, match="non-finite"):
            write_image(grid, path)
        assert not path.exists()

    # Row blocks of the writer: several with a short last one, one row wider
    # than a block, and a single cell.
    @pytest.mark.parametrize("shape", [(300, 200, 3), (2, 40_000, 1), (1, 1, 1)])
    def test_blocks_write_the_bytes_of_the_whole_grid_formula(self, tmp_path, rng, shape):
        grid = rng.normal(0.5, 0.6, size=shape)
        path = tmp_path / "g.pnm"
        write_image(grid, path)
        pixels = np.floor(np.clip(grid, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        assert path.read_bytes().endswith(pixels.tobytes())
        assert len(path.read_bytes()) == len(f"P5\n{shape[1]} {shape[0]}\n255\n") + pixels.size

    def test_writing_holds_under_half_a_grid_above_the_grid(self, tmp_path, rng):
        grid = rng.uniform(size=(256, 256, 3))
        write_image(grid, tmp_path / "warm.ppm")
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            write_image(grid, tmp_path / "g.ppm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - held) / grid.nbytes < 0.5
