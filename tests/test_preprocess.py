"""Geometry and intensity preprocessing."""

import re

import numpy as np
import pytest

from kneegrade.errors import ConfigurationError, DataError, GeometryError, NormalizationError
from kneegrade.imageio import read_pgm16, write_pgm16
from kneegrade.preprocess import (AugmentConfig, LandmarkSet, PreprocessConfig, RawImage,
                                  augment, crop_roi, load_image_cache, mirror_horizontal,
                                  normalize, preprocess_exam, resize_bilinear,
                                  resize_bilinear_grid, rotate_align, rotate_image,
                                  save_image_cache, standardize)
from kneegrade.serialize import load_tensors, save_tensors


def make_image(pixels, spacing=0.2):
    return RawImage(np.asarray(pixels, dtype=np.uint16), spacing)


def percentile_oracle(values, q):
    """Sorted linear-interpolation percentile, written out longhand."""
    s = np.sort(np.asarray(values, dtype=np.float64).ravel())
    pos = q / 100.0 * (s.size - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, s.size - 1)
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


class TestPGM:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 65536, size=(12, 9)).astype(np.uint16)
        path = tmp_path / "img.pgm"
        write_pgm16(path, img)
        assert np.array_equal(read_pgm16(path), img)

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm16(path, np.zeros((2, 3), dtype=np.uint16))
        assert path.read_bytes().startswith(b"P5\n3 2\n65535\n")

    def test_big_endian_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm16(path, np.array([[0x0102]], dtype=np.uint16))
        assert path.read_bytes().endswith(b"\x01\x02")

    @pytest.mark.parametrize("pixels", [np.zeros((2, 3), dtype=np.int64),
                                        np.full((2, 3), 0.5)], ids=["int64", "float64"])
    def test_writer_refuses_pixels_that_are_not_uint16(self, tmp_path, pixels):
        path = tmp_path / "img.pgm"
        with pytest.raises(DataError, match="expects uint16 pixels"):
            write_pgm16(path, pixels)
        assert not path.exists()

    def test_rejects_low_maxval(self, tmp_path):
        from kneegrade.errors import DataError
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(DataError, match="16-bit"):
            read_pgm16(path)


class TestRotateAlign:
    def test_already_level_is_zero_angle(self):
        img = make_image(np.arange(100, dtype=np.uint16).reshape(10, 10))
        lm = LandmarkSet((5, 5), (2, 6), (8, 6), "R")
        out, angle, moved = rotate_align(img, lm)
        assert angle == 0.0
        assert np.array_equal(out.pixels, img.pixels)
        assert abs(moved.plateau_left[1] - moved.plateau_right[1]) < 1e-9

    def test_known_tilt_recovered(self):
        # plateau drawn at exactly 10 degrees
        size = 101
        canvas = np.zeros((size, size), dtype=np.uint16)
        center = (50.0, 50.0)
        theta = np.deg2rad(10.0)
        p_l = (center[0] - 30 * np.cos(theta), center[1] - 30 * np.sin(theta))
        p_r = (center[0] + 30 * np.cos(theta), center[1] + 30 * np.sin(theta))
        img = make_image(canvas)
        lm = LandmarkSet(center, p_l, p_r, "R")
        _, angle, moved = rotate_align(img, lm)
        assert abs(angle - (-10.0)) < 1e-6
        assert abs(moved.plateau_left[1] - moved.plateau_right[1]) < 0.5

    def test_rotation_resamples_bilinearly(self):
        # 90 degree rotation maps the grid exactly onto itself
        grid = np.arange(81, dtype=np.float64).reshape(9, 9)
        out = rotate_image(grid, (4.0, 4.0), 90.0)
        assert np.allclose(out, np.rot90(grid, k=-1), atol=1e-9)

    def test_coincident_plateau_rejected(self):
        img = make_image(np.zeros((10, 10), dtype=np.uint16))
        lm = LandmarkSet((5, 5), (3, 3), (3, 3), "R")
        with pytest.raises(GeometryError):
            rotate_align(img, lm)

    def test_landmark_outside_image_rejected(self):
        img = make_image(np.zeros((10, 10), dtype=np.uint16))
        lm = LandmarkSet((5, 5), (2, 6), (42, 6), "R")
        with pytest.raises(GeometryError):
            rotate_align(img, lm)

    def test_random_tilts_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            size = 101
            center = (50.0, 50.0)
            theta = rng.uniform(-15, 15)
            rad = np.deg2rad(theta)
            r = rng.uniform(20, 40)
            p_l = (center[0] - r * np.cos(rad), center[1] - r * np.sin(rad))
            p_r = (center[0] + r * np.cos(rad), center[1] + r * np.sin(rad))
            img = make_image(np.zeros((size, size), dtype=np.uint16))
            _, angle, moved = rotate_align(img, LandmarkSet(center, p_l, p_r, "R"))
            assert abs(angle + theta) < 0.5
            assert abs(moved.plateau_left[1] - moved.plateau_right[1]) < 0.5


class TestCrop:
    def test_pixel_side_from_physical_size(self):
        img = make_image(np.zeros((800, 800), dtype=np.uint16), spacing=0.2)
        out, info = crop_roi(img, (400, 400), 140.0)
        assert out.pixels.shape == (700, 700)
        assert info["crop_side_px"] == 700
        assert not info["crop_padded"]

    def test_out_of_bounds_zero_padded_and_flagged(self):
        img = make_image(np.full((50, 50), 7, dtype=np.uint16), spacing=1.0)
        out, info = crop_roi(img, (5, 5), 40.0)
        assert info["crop_padded"]
        assert out.pixels.shape == (40, 40)
        assert out.pixels[0, 0] == 0          # padding
        assert out.pixels[20, 20] == 7        # image content

    def test_center_outside_rejected(self):
        img = make_image(np.zeros((50, 50), dtype=np.uint16), spacing=1.0)
        with pytest.raises(GeometryError):
            crop_roi(img, (60, 5), 10.0)

    def test_content_is_translated_not_resampled(self):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 65536, size=(30, 30)).astype(np.uint16)
        img = make_image(pixels, spacing=1.0)
        out, _ = crop_roi(img, (15, 15), 10.0)
        assert np.array_equal(out.pixels, pixels[10:20, 10:20])


class TestResize:
    def test_same_size_is_identity(self):
        grid = np.random.default_rng(0).normal(size=(7, 7))
        assert np.array_equal(resize_bilinear_grid(grid, 7), grid)

    def test_constant_stays_constant(self):
        grid = np.full((5, 5), 3.25)
        out = resize_bilinear_grid(grid, 9)
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_2x2_to_3x3_hand_values(self):
        # corner-aligned: sample positions are {0, 0.5, 1} in each axis
        grid = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = resize_bilinear_grid(grid, 3)
        want = np.array([[0.0, 0.5, 1.0],
                         [1.0, 1.5, 2.0],
                         [2.0, 2.5, 3.0]])
        assert np.allclose(out, want, atol=1e-12)

    def test_ramp_stays_linear_upsampling(self):
        grid = np.tile(np.arange(4, dtype=np.float64), (4, 1))
        out = resize_bilinear_grid(grid, 7)
        assert np.allclose(out, np.tile(np.arange(7) * 0.5, (7, 1)), atol=1e-12)

    @pytest.mark.parametrize("side", [0, 1])
    def test_target_below_two_is_refused(self, side):
        with pytest.raises(ConfigurationError, match="must be >= 2"):
            resize_bilinear_grid(np.zeros((4, 4)), side)

    def test_paper_scale_spacing(self):
        # 140 mm at 0.2 mm/px crops to 700 px; resizing to 310 px gives the
        # familiar 0.45 mm spacing
        img = make_image(np.zeros((800, 800), dtype=np.uint16), spacing=0.2)
        cropped, _ = crop_roi(img, (400, 400), 140.0)
        resized = resize_bilinear(cropped, 310)
        assert resized.pixels.shape == (310, 310)
        assert abs(resized.spacing_mm - 0.45) < 0.01


class TestNormalize:
    def test_mean_zero_std_one(self):
        rng = np.random.default_rng(5)
        img = make_image(rng.integers(0, 65536, size=(64, 64)).astype(np.uint16))
        out = normalize(img)
        values = standardize(out.grid01)
        assert abs(values.mean()) < 1e-6
        assert abs(values.std() - 1.0) < 1e-4
        assert out.grid01.min() >= 0.0 and out.grid01.max() <= 1.0

    def test_clip_matches_percentile_oracle(self):
        values = np.array([10, 20, 30, 40, 50], dtype=np.uint16).reshape(1, 5)
        img = make_image(np.repeat(values, 5, axis=0))
        out = normalize(img, clip_low=20.0, clip_high=80.0)
        lo = percentile_oracle(img.pixels, 20.0)
        hi = percentile_oracle(img.pixels, 80.0)
        want01 = (np.clip(img.pixels.astype(np.float64), lo, hi) - lo) / (hi - lo)
        assert np.allclose(out.grid01, want01, atol=1e-7)

    def test_constant_image_rejected(self):
        img = make_image(np.full((8, 8), 123, dtype=np.uint16))
        with pytest.raises(NormalizationError):
            normalize(img)

    def test_bad_percentiles_rejected(self):
        img = make_image(np.zeros((4, 4), dtype=np.uint16))
        with pytest.raises(ConfigurationError):
            normalize(img, clip_low=80.0, clip_high=20.0)


class TestAugment:
    def grid(self, seed=0, side=32):
        rng = np.random.default_rng(seed)
        img = make_image(rng.integers(0, 65536, size=(side, side)).astype(np.uint16))
        return normalize(img).grid01

    def test_degenerate_settings_are_identity(self):
        grid = self.grid()
        cfg = AugmentConfig(crop_ratio=1.0, noise_sigma=0.0, gamma_low=1.0, gamma_high=1.0)
        out = augment(grid, np.random.default_rng(0), cfg)
        assert out.dtype == np.float64
        assert np.array_equal(out, grid)

    def test_crop_shrinks_by_ratio(self):
        grid = self.grid(side=62)
        out = augment(grid, np.random.default_rng(1), AugmentConfig(crop_ratio=300 / 310))
        assert out.shape == (60, 60)

    def test_same_seed_same_output(self):
        grid = self.grid()
        a = augment(grid, np.random.default_rng(9))
        b = augment(grid, np.random.default_rng(9))
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_gamma_applied_in_01_domain(self):
        grid = self.grid()
        cfg = AugmentConfig(crop_ratio=1.0, noise_sigma=0.0, gamma_low=2.0, gamma_high=2.0)
        out = augment(grid, np.random.default_rng(0), cfg)
        assert np.allclose(out, grid.astype(np.float64) ** 2, atol=1e-6)


class TestImageCache:
    def images(self, n=3, side=8):
        rng = np.random.default_rng(4)
        out = {}
        for i in range(n):
            img = make_image(rng.integers(0, 65536, size=(side, side)).astype(np.uint16))
            norm = normalize(img)
            norm.provenance["index"] = i
            out[f"e{i}"] = norm
        return out

    def test_one_grid01_entry_per_exam(self, tmp_path):
        images = self.images()
        path = tmp_path / "images.kgw"
        save_image_cache(path, images)
        assert list(load_tensors(path)) == ["e0/grid01", "e1/grid01", "e2/grid01"]
        loaded, meta = load_image_cache(path)
        assert meta["n_exams"] == 3
        for exam_id, norm in images.items():
            assert np.array_equal(loaded[exam_id].grid01, norm.grid01)
            assert loaded[exam_id].provenance == norm.provenance

    def test_two_plane_layout_loads(self, tmp_path):
        # caches once stored the standardized plane beside each grid
        images = self.images()
        path = tmp_path / "images.kgw"
        named = {}
        for exam_id, norm in images.items():
            named[f"{exam_id}/values"] = standardize(norm.grid01)
            named[f"{exam_id}/grid01"] = norm.grid01
        save_tensors(path, named)
        loaded, _ = load_image_cache(path)
        assert sorted(loaded) == sorted(images)
        for exam_id, norm in images.items():
            assert np.array_equal(loaded[exam_id].grid01, norm.grid01)

    @pytest.mark.parametrize("name", ["e1/mask", "e1"], ids=["foreign_kind", "no_kind"])
    def test_foreign_entry_names_the_file(self, tmp_path, name):
        path = tmp_path / "images.kgw"
        named = {f"{k}/grid01": v.grid01 for k, v in self.images().items()}
        named[name] = np.zeros((8, 8), dtype=np.float32)
        save_tensors(path, named)
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_image_cache(path)


class TestPipeline:
    def synthetic_exam(self, side="R"):
        # bright plateau drawn at a known tilt around the image center
        size = 120
        rng = np.random.default_rng(4)
        pixels = (rng.uniform(0.05, 0.15, size=(size, size)) * 65535).astype(np.uint16)
        pixels[70:74, 20:100] = 50000
        img = RawImage(pixels, spacing_mm=140.0 / 80)
        lm = LandmarkSet((60, 60), (22.0, 71.0), (98.0, 71.0), side)
        return img, lm

    def test_pipeline_shapes_and_provenance(self):
        img, lm = self.synthetic_exam()
        cfg = PreprocessConfig(target_side=64, roi_mm=140.0)
        out = preprocess_exam(img, lm, cfg)
        values = standardize(out.grid01)
        assert values.shape == (64, 64)
        assert out.provenance["target_side"] == 64
        assert out.provenance["mirrored"] is False
        assert abs(values.mean()) < 1e-5

    def test_left_knee_mirrored(self):
        img, lm = self.synthetic_exam(side="L")
        cfg = PreprocessConfig(target_side=64, roi_mm=140.0)
        out = preprocess_exam(img, lm, cfg)
        assert out.provenance["mirrored"] is True

    def test_mirror_maps_columns(self):
        pixels = np.zeros((6, 6), dtype=np.uint16)
        pixels[:, 0] = 9
        img = make_image(pixels, spacing=1.0)
        lm = LandmarkSet((2, 2), (0, 3), (5, 3), "L")
        out, moved = mirror_horizontal(img, lm)
        assert np.all(out.pixels[:, 5] == 9)
        assert moved.side == "R"
        assert moved.plateau_left[0] <= moved.plateau_right[0]

    def test_standardize_guard(self):
        with pytest.raises(NormalizationError):
            standardize(np.full((4, 4), 0.5))
