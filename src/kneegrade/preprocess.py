"""Radiograph preprocessing: plateau alignment, ROI crop, normalization.

The pipeline runs rotate -> mirror (left knees) -> crop -> resize ->
percentile clip, so the cached image is a [0, 1] grid at the target side;
``training.batch_images`` standardizes it. All resampling is bilinear.
Sampling is corner-aligned: output corner pixels map onto input corner
pixels, i.e. src = dst * (S_in - 1) / (S_out - 1), which makes same-size
resampling the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import serialize    # called as serialize.*, so bench/tracing.py's patches see cache I/O
from .errors import ConfigurationError, DataError, GeometryError, NormalizationError
from .report import read_sidecar, write_sidecar

INTENSITY_MAX = 65535.0


@dataclass
class RawImage:
    pixels: np.ndarray          # uint16, [H, W]
    spacing_mm: float

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 2:
            raise ConfigurationError(f"RawImage needs a 2-D grid, got {self.pixels.shape}")
        if self.pixels.dtype != np.uint16:
            raise ConfigurationError(f"RawImage pixels must be uint16, got {self.pixels.dtype}")
        if not (0 < self.spacing_mm < 10):
            raise ConfigurationError(f"implausible pixel spacing {self.spacing_mm} mm")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


@dataclass
class LandmarkSet:
    knee_center: tuple          # (x, y) pixels
    plateau_left: tuple         # lateral-most tibial plateau point
    plateau_right: tuple        # medial-most tibial plateau point
    side: str                   # "L" | "R"

    def validate(self, image: RawImage):
        if self.side not in ("L", "R"):
            raise ConfigurationError(f"side must be 'L' or 'R', got {self.side!r}")
        for name, (x, y) in (("knee_center", self.knee_center),
                             ("plateau_left", self.plateau_left),
                             ("plateau_right", self.plateau_right)):
            if not (0 <= x <= image.width - 1 and 0 <= y <= image.height - 1):
                raise GeometryError(f"{name} {(x, y)} outside image {image.width}x{image.height}")
        if np.hypot(self.plateau_right[0] - self.plateau_left[0],
                    self.plateau_right[1] - self.plateau_left[1]) < 1e-9:
            raise GeometryError("tibial plateau points coincide")
        return self


@dataclass
class NormalizedImage:
    grid01: np.ndarray          # float32 [S, S], percentile-clipped to [0, 1]
    provenance: dict = field(default_factory=dict)

    @property
    def values(self):
        """The model's input plane: ``standardize(grid01)``."""
        return standardize(self.grid01)


def bilinear_sample(grid, ys, xs, fill=0.0):
    """Sample ``grid`` (float, [H, W]) at fractional coordinates.

    Coordinates outside the grid return ``fill``; samples straddling the
    border blend with ``fill`` proportionally to the out-of-range area.
    """
    h, w = grid.shape
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = ys - y0
    fx = xs - x0

    def fetch(yy, xx):
        inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        vals = grid[np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]
        return np.where(inside, vals, fill)

    v00 = fetch(y0, x0)
    v01 = fetch(y0, x0 + 1)
    v10 = fetch(y0 + 1, x0)
    v11 = fetch(y0 + 1, x0 + 1)
    top = v00 * (1 - fx) + v01 * fx
    bot = v10 * (1 - fx) + v11 * fx
    return top * (1 - fy) + bot * fy


def rotate_point(point, center, degrees):
    """``point`` rotated by ``degrees`` about ``center``, as rotate_image turns the grid."""
    rad = np.deg2rad(degrees)
    c, s = np.cos(rad), np.sin(rad)
    dx, dy = point[0] - center[0], point[1] - center[1]
    return (center[0] + c * dx - s * dy, center[1] + s * dx + c * dy)


def rotate_image(pixels, center, degrees, fill=0.0):
    """Rotate a 2-D grid by ``degrees`` (counterclockwise, y down) about ``center``."""
    h, w = pixels.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    # inverse map: output pixel -> input location
    rad = np.deg2rad(-degrees)
    c, s = np.cos(rad), np.sin(rad)
    dx, dy = xs - center[0], ys - center[1]
    src_x = center[0] + c * dx - s * dy
    src_y = center[1] + s * dx + c * dy
    return bilinear_sample(pixels.astype(np.float64), src_y, src_x, fill=fill)


def rotate_align(image: RawImage, landmarks: LandmarkSet):
    """Rotate about the knee center until the tibial plateau lies level.

    Returns the resampled image, the applied angle in degrees, and the
    transformed landmark set. The transformed plateau points end up within
    half a pixel of the same row.
    """
    landmarks.validate(image)
    lx, ly = landmarks.plateau_left
    rx, ry = landmarks.plateau_right
    angle = float(np.degrees(np.arctan2(ry - ly, rx - lx)))
    rotated = rotate_image(image.pixels, landmarks.knee_center, -angle)
    out = RawImage(np.clip(np.rint(rotated), 0, INTENSITY_MAX).astype(np.uint16),
                   image.spacing_mm)
    moved = LandmarkSet(
        knee_center=landmarks.knee_center,  # rotation fixes its own center
        plateau_left=rotate_point(landmarks.plateau_left, landmarks.knee_center, -angle),
        plateau_right=rotate_point(landmarks.plateau_right, landmarks.knee_center, -angle),
        side=landmarks.side)
    dy = abs(moved.plateau_left[1] - moved.plateau_right[1])
    if dy >= 0.5:
        raise GeometryError(f"plateau alignment failed: residual dy {dy:.3f} px")
    return out, -angle, moved


def mirror_horizontal(image: RawImage, landmarks: LandmarkSet):
    """Flip left-knee images into right-knee orientation."""
    w = image.width
    flipped = RawImage(np.ascontiguousarray(image.pixels[:, ::-1]), image.spacing_mm)
    def fx(p):
        return (w - 1 - p[0], p[1])
    a, b = fx(landmarks.plateau_left), fx(landmarks.plateau_right)
    if a[0] > b[0]:
        a, b = b, a
    moved = LandmarkSet(knee_center=fx(landmarks.knee_center),
                        plateau_left=a, plateau_right=b, side="R")
    return flipped, moved


def crop_roi(image: RawImage, center, size_mm):
    """Square physical crop around ``center``; out-of-bounds area zero-padded.

    The pixel side is round(size_mm / spacing_mm), e.g. 140 mm at 0.2 mm/px
    gives 700 px.
    """
    cx, cy = center
    if not (0 <= cx <= image.width - 1 and 0 <= cy <= image.height - 1):
        raise GeometryError(f"crop center {center} outside image")
    if size_mm <= 0:
        raise ConfigurationError(f"crop size must be positive, got {size_mm} mm")
    side = int(round(size_mm / image.spacing_mm))
    if side < 1:
        raise ConfigurationError(f"crop of {size_mm} mm collapses below one pixel")
    x0 = int(round(cx)) - side // 2
    y0 = int(round(cy)) - side // 2
    out = np.zeros((side, side), dtype=np.uint16)
    sx0, sy0 = max(x0, 0), max(y0, 0)
    sx1, sy1 = min(x0 + side, image.width), min(y0 + side, image.height)
    padded = (x0 < 0 or y0 < 0 or x0 + side > image.width or y0 + side > image.height)
    if sx1 > sx0 and sy1 > sy0:
        out[sy0 - y0:sy1 - y0, sx0 - x0:sx1 - x0] = image.pixels[sy0:sy1, sx0:sx1]
    info = {"crop_center": [float(cx), float(cy)], "crop_side_px": side,
            "crop_size_mm": float(size_mm), "crop_padded": bool(padded)}
    return RawImage(out, image.spacing_mm), info


def resize_bilinear_grid(grid, target_side):
    """Corner-aligned bilinear resize of a float 2-D grid to a square."""
    target_side = int(target_side)
    if target_side < 1:
        raise ConfigurationError(f"resize target must be >= 1, got {target_side}")
    h, w = grid.shape
    if (h, w) == (target_side, target_side):
        return grid.astype(np.float64, copy=True)
    if target_side == 1:
        ys = np.array([[(h - 1) / 2.0]])
        xs = np.array([[(w - 1) / 2.0]])
    else:
        step_y = (h - 1) / (target_side - 1)
        step_x = (w - 1) / (target_side - 1)
        yy = np.arange(target_side) * step_y
        xx = np.arange(target_side) * step_x
        ys, xs = np.meshgrid(yy, xx, indexing="ij")
    return bilinear_sample(grid.astype(np.float64), ys, xs)


def resize_bilinear(image: RawImage, target_side):
    out = resize_bilinear_grid(image.pixels.astype(np.float64), target_side)
    spacing = image.spacing_mm
    if target_side > 1 and image.width > 1:
        spacing = image.spacing_mm * (image.width - 1) / (target_side - 1)
    return RawImage(np.clip(np.rint(out), 0, INTENSITY_MAX).astype(np.uint16), spacing)


def _percentile_clip01(grid, clip_low, clip_high):
    lo = np.percentile(grid, clip_low)
    hi = np.percentile(grid, clip_high)
    if hi <= lo:
        raise NormalizationError(
            f"clip percentiles [{clip_low}, {clip_high}] collapse: image nearly constant")
    clipped = np.clip(grid, lo, hi)
    return (clipped - lo) / (hi - lo)


def standardize(grid01):
    """Shift and scale a grid to mean 0 / std 1, in float64; returns float32."""
    grid = np.asarray(grid01, dtype=np.float64)
    std = grid.std()
    if std < 1e-12:
        raise NormalizationError("image is constant after clipping; cannot standardize")
    return ((grid - grid.mean()) / std).astype(np.float32)


def normalize(image: RawImage, clip_low=1.0, clip_high=99.0):
    """Percentile clip and rescale to [0, 1]."""
    if not (0 <= clip_low < clip_high <= 100):
        raise ConfigurationError(f"bad clip percentiles [{clip_low}, {clip_high}]")
    grid01 = _percentile_clip01(image.pixels.astype(np.float64), clip_low, clip_high)
    return NormalizedImage(grid01=grid01.astype(np.float32),
                           provenance={"clip_pct": [float(clip_low), float(clip_high)]})


@dataclass(frozen=True)
class PreprocessConfig:
    target_side: int = 64
    roi_mm: float = 140.0
    clip_low: float = 1.0
    clip_high: float = 99.0

    def __post_init__(self):
        if self.target_side < 2:
            raise ConfigurationError("target_side must be >= 2")
        if self.roi_mm <= 0:
            raise ConfigurationError("roi_mm must be positive")
        if not (0 <= self.clip_low < self.clip_high <= 100):
            raise ConfigurationError(
                f"bad clip percentiles [{self.clip_low}, {self.clip_high}]")


def preprocess_exam(image: RawImage, landmarks: LandmarkSet, cfg: PreprocessConfig):
    """Full pipeline for one knee; returns the cached NormalizedImage."""
    aligned, angle, lm = rotate_align(image, landmarks)
    mirrored = landmarks.side == "L"
    if mirrored:
        aligned, lm = mirror_horizontal(aligned, lm)
    cropped, crop_info = crop_roi(aligned, lm.knee_center, cfg.roi_mm)
    resized = resize_bilinear(cropped, cfg.target_side)
    norm = normalize(resized, cfg.clip_low, cfg.clip_high)
    norm.provenance.update(crop_info)
    norm.provenance.update({
        "angle_degrees": float(angle),
        "mirrored": mirrored,
        "target_side": int(cfg.target_side),
        "spacing_mm": float(resized.spacing_mm),
    })
    return norm


@dataclass(frozen=True)
class AugmentConfig:
    crop_ratio: float = 300.0 / 310.0   # crop side as a fraction of the input side
    noise_sigma: float = 0.02           # additive gaussian sigma in the [0, 1] domain
    gamma_low: float = 0.9
    gamma_high: float = 1.1

    def __post_init__(self):
        if not 0 < self.crop_ratio <= 1:
            raise ConfigurationError(f"crop_ratio must lie in (0, 1], got {self.crop_ratio}")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        if not 0 < self.gamma_low <= self.gamma_high:
            raise ConfigurationError(
                f"gamma range [{self.gamma_low}, {self.gamma_high}] invalid")


def augment(grid01, rng, cfg: AugmentConfig = AugmentConfig()):
    """Random crop, additive noise, gamma jitter: a [0, 1] grid to a float64 one.

    Gamma on a negative value is undefined, so the noisy grid is clamped back
    to [0, 1] first. With a full-size crop, zero sigma, and a unit gamma range
    the output equals the input.
    """
    src = np.asarray(grid01, dtype=np.float64)
    side = src.shape[0]
    crop = max(1, int(round(side * cfg.crop_ratio)))
    max_off = side - crop
    oy = int(rng.integers(0, max_off + 1)) if max_off > 0 else 0
    ox = int(rng.integers(0, max_off + 1)) if max_off > 0 else 0
    out = src[oy:oy + crop, ox:ox + crop]
    if cfg.noise_sigma > 0:
        out = out + rng.normal(0.0, cfg.noise_sigma, size=out.shape)
    out = np.clip(out, 0.0, 1.0)
    gamma = float(rng.uniform(cfg.gamma_low, cfg.gamma_high))
    if gamma != 1.0:
        out = np.power(out, gamma)
    return out


# ---------------------------------------------------------------------------
# the on-disk cache of preprocessed images


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def save_image_cache(path, images, meta=None):
    """Write preprocessed images to one container plus a JSON sidecar.

    The container holds one float32 plane per exam, its [0, 1] grid, named
    ``{exam_id}/grid01`` and stored in sorted order, so identical inputs
    always produce identical bytes. Provenance goes in the sidecar.
    """
    named = {}
    provenance = {}
    for exam_id, norm in images.items():
        if "/" in exam_id:
            raise ConfigurationError(f"exam id {exam_id!r} cannot contain '/'")
        named[f"{exam_id}/grid01"] = norm.grid01
        provenance[exam_id] = _jsonable(norm.provenance)
    serialize.save_tensors(path, named)
    doc = {"n_exams": len(images), "provenance": provenance}
    if meta:
        doc.update(_jsonable(meta))
    write_sidecar(path, doc)
    return path


def load_image_cache(path):
    """Inverse of save_image_cache: ({exam_id: NormalizedImage}, meta dict)."""
    named = serialize.load_tensors(path)
    try:
        meta = read_sidecar(path)
    except FileNotFoundError:
        meta = {}
    provenance = meta.get("provenance", {})
    if not isinstance(provenance, dict):
        raise DataError(f"{path}.meta.json: provenance is not an object")
    out = {}
    for name, arr in named.items():
        exam_id, _, kind = name.partition("/")
        if kind == "grid01":
            entry = provenance.get(exam_id, {})
            if not isinstance(entry, dict):
                raise DataError(f"{path}.meta.json: provenance of {exam_id!r} is not an object")
            out[exam_id] = NormalizedImage(grid01=arr, provenance=entry)
        elif kind != "values":      # older caches also stored standardize(grid01)
            raise DataError(f"{path}: unexpected cache entry {name!r}")
    return dict(sorted(out.items())), meta
