"""Exam records, manifests, cross-validation splits, and synthetic data.

The manifest is a plain CSV with one exam per row:

    exam_id,subject_id,side,follow_up_months,image_path,landmark_path,
    spacing_mm,KL,FO_L,FO_M,TO_L,TO_M,JSN_L,JSN_M

Empty grade cells mean "not graded"; ``load_and_filter`` drops those rows
and reports how many each column cost.

The synthetic generator renders a stylized frontal knee: one bright femur
band and one bright tibia band per compartment whose vertical gap shrinks
with the JSN grade, plus corner blobs whose radius grows with the osteophyte
grade. The KL grade is derived from the six feature grades.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError
from .imageio import write_pgm16
from .model import TASK_CLASSES, task_names
from .preprocess import LandmarkSet, RawImage, mirror_horizontal, rotate_image, rotate_point
from .serialize import make_dirs, write_atomic

GRADE_COLUMNS = list(task_names())
GRADE_RANGES = {name: (0, TASK_CLASSES[name] - 1) for name in GRADE_COLUMNS}
MANIFEST_COLUMNS = ["exam_id", "subject_id", "side", "follow_up_months", "image_path",
                    "landmark_path", "spacing_mm"] + GRADE_COLUMNS


@dataclass
class GradedExam:
    exam_id: str
    subject_id: str
    side: str
    follow_up_months: int
    image_path: str
    landmark_path: str
    spacing_mm: float
    grades: dict = field(default_factory=dict)   # column -> int, missing keys omitted

    def grade(self, task):
        return self.grades.get(task)


def _parse_row(row, where):
    # DictReader files surplus cells under the key None and fills short rows with None
    if None in row or None in row.values():
        raise DataError(f"{where}: expected {len(MANIFEST_COLUMNS)} cells")
    try:
        follow_up = int(row["follow_up_months"])
        spacing = float(row["spacing_mm"])
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None
    if row["side"] not in ("L", "R"):
        raise DataError(f"{where}: side must be L or R, got {row['side']!r}")
    if spacing <= 0:
        raise DataError(f"{where}: spacing_mm must be positive")
    grades = {}
    for col in GRADE_COLUMNS:
        cell = row[col].strip()
        if cell == "":
            continue
        try:
            value = int(cell)
        except ValueError:
            raise DataError(f"{where}: {col} value {cell!r} is not an integer") from None
        lo, hi = GRADE_RANGES[col]
        if not lo <= value <= hi:
            raise DataError(f"{where}: {col}={value} outside [{lo}, {hi}]")
        grades[col] = value
    return GradedExam(exam_id=row["exam_id"], subject_id=row["subject_id"], side=row["side"],
                      follow_up_months=follow_up, image_path=row["image_path"],
                      landmark_path=row["landmark_path"], spacing_mm=spacing, grades=grades)


def load_manifest(path):
    """Parse every row; malformed rows raise DataError with their line number."""
    exams = []
    seen_keys = {}
    seen_ids = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.DictReader(lines)
    if reader.fieldnames != MANIFEST_COLUMNS:
        raise DataError(f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}")
    for line_no, row in enumerate(reader, start=2):
        exam = _parse_row(row, f"{path} line {line_no}")
        if exam.exam_id in seen_ids:
            raise DataError(
                f"{path} line {line_no}: duplicate exam_id {exam.exam_id!r} "
                f"(first seen on line {seen_ids[exam.exam_id]})")
        seen_ids[exam.exam_id] = line_no
        key = (exam.subject_id, exam.side, exam.follow_up_months)
        if key in seen_keys:
            raise DataError(
                f"{path} line {line_no}: duplicate (subject, side, follow_up) {key} "
                f"(first seen on line {seen_keys[key]})")
        seen_keys[key] = line_no
        exams.append(exam)
    return exams


def load_and_filter(path, required=GRADE_COLUMNS):
    """Load the manifest and drop exams missing any required grade.

    Returns (kept_exams, exclusions) where exclusions counts, per column, how
    many exams were dropped because that column was empty. An exam missing
    several grades is counted once per missing column.
    """
    exams = load_manifest(path)
    kept = []
    exclusions = {col: 0 for col in required}
    for exam in exams:
        missing = [col for col in required if col not in exam.grades]
        for col in missing:
            exclusions[col] += 1
        if not missing:
            kept.append(exam)
    return kept, exclusions


def save_manifest(path, exams):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(MANIFEST_COLUMNS)
    for e in exams:
        row = [e.exam_id, e.subject_id, e.side, str(e.follow_up_months),
               e.image_path, e.landmark_path, repr(float(e.spacing_mm))]
        row += ["" if e.grade(c) is None else str(e.grade(c)) for c in GRADE_COLUMNS]
        writer.writerow(row)
    write_atomic(path, text.getvalue())


def save_landmarks(path, exam_id, landmarks: LandmarkSet):
    doc = {"exam_id": exam_id, "side": landmarks.side,
           "knee_center": [float(v) for v in landmarks.knee_center],
           "plateau_left": [float(v) for v in landmarks.plateau_left],
           "plateau_right": [float(v) for v in landmarks.plateau_right]}
    write_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_landmarks(path):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        points = {key: tuple(doc[key]) for key in ("knee_center", "plateau_left",
                                                   "plateau_right")}
        for key, point in points.items():
            if len(point) != 2 or not all(isinstance(v, (int, float)) for v in point):
                raise ValueError(f"{key} must be an [x, y] pair of numbers, got {doc[key]}")
        if doc["side"] not in ("L", "R"):
            raise ValueError(f"side must be L or R, got {doc['side']!r}")
        return doc["exam_id"], LandmarkSet(side=doc["side"], **points)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed landmark document: {exc}") from None


# ---------------------------------------------------------------------------
# subject-wise stratified cross-validation


@dataclass
class FoldAssignment:
    n_folds: int
    subject_fold: dict          # subject_id -> fold index

    def fold_of(self, exam: GradedExam):
        return self.subject_fold[exam.subject_id]

    def split(self, exams, fold):
        train = [e for e in exams if self.fold_of(e) != fold]
        val = [e for e in exams if self.fold_of(e) == fold]
        return train, val


def split_cv(exams, n_folds=5, seed=0):
    """Assign whole subjects to folds, stratified by each subject's worst KL.

    Subjects inside one stratum are dealt round-robin after a seeded shuffle;
    the dealing cursor carries across strata so fold sizes stay balanced.
    Each fold therefore holds floor or ceil(n_s / k) subjects of stratum s.
    """
    if n_folds < 2:
        raise ConfigurationError(f"cross-validation needs >= 2 folds, got {n_folds}")
    strata = {}
    for exam in exams:
        kl = exam.grade("KL")
        cur = strata.setdefault(exam.subject_id, -1)
        if kl is not None and kl > cur:
            strata[exam.subject_id] = kl
    if len(strata) < n_folds:
        raise ConfigurationError(
            f"{len(strata)} subjects cannot fill {n_folds} folds")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5f17]))
    assignment = {}
    cursor = 0
    for stratum in sorted(set(strata.values())):
        members = sorted(s for s, g in strata.items() if g == stratum)
        order = rng.permutation(len(members))
        for i in order:
            assignment[members[i]] = cursor % n_folds
            cursor += 1
    return FoldAssignment(n_folds=n_folds, subject_fold=assignment)


# ---------------------------------------------------------------------------
# sampling

SAMPLERS = ("none", "kl_balanced")


def epoch_indices(exams, scheme, rng):
    """One epoch worth of training indices.

    ``none`` returns a uniform permutation. ``kl_balanced`` draws with
    replacement so every KL class present appears with equal probability;
    with a single class this degenerates to the plain permutation.
    """
    n = len(exams)
    if n == 0:
        raise ConfigurationError("cannot sample from an empty exam list")
    if scheme not in SAMPLERS:
        raise ConfigurationError(f"unknown sampling scheme {scheme!r}")
    if scheme == "none":
        return rng.permutation(n)
    labels = np.array([-1 if e.grade("KL") is None else e.grade("KL") for e in exams])
    present = sorted(set(labels.tolist()))
    if len(present) == 1:
        return rng.permutation(n)
    buckets = [np.nonzero(labels == cls)[0] for cls in present]
    picks = rng.integers(0, len(present), size=n)
    out = np.empty(n, dtype=np.int64)
    for i, cls_pos in enumerate(picks):
        bucket = buckets[cls_pos]
        out[i] = bucket[rng.integers(0, bucket.size)]
    return out


# ---------------------------------------------------------------------------
# synthetic knees


@dataclass(frozen=True)
class SynthConfig:
    image_side: int = 64
    spacing_mm: float = 0.0          # 0 = derive so the image spans a 140 mm field
    gap_base_px: float = 0.0         # joint-space gap at grade 0; 0 = image_side / 8
    band_px: int = 0                 # femur/tibia band thickness; 0 = scale with side
    blob_px: float = 0.0             # protrusion radius per osteophyte grade; 0 = side / 20
    noise_sigma: float = 0.015       # additive intensity noise, [0, 1] domain
    max_rotation_deg: float = 12.0
    grade_probs: tuple[float, ...] = (0.55, 0.22, 0.13, 0.10)
    progression_p: float = 0.15      # chance a follow-up bumps a feature grade

    def __post_init__(self):
        if self.image_side < 32:
            raise ConfigurationError("synthetic images need image_side >= 32")
        # Geometry defaults scale with the rendered side so a 140 mm ROI crop
        # around the knee center recovers the full frame at any resolution.
        if self.spacing_mm <= 0:
            object.__setattr__(self, "spacing_mm", 140.0 / self.image_side)
        if self.gap_base_px <= 0:
            object.__setattr__(self, "gap_base_px", self.image_side / 8.0)
        if self.band_px <= 0:
            object.__setattr__(self, "band_px", max(2, round(self.image_side / 21)))
        if self.blob_px <= 0:
            object.__setattr__(self, "blob_px", self.image_side / 20.0)
        if abs(sum(self.grade_probs) - 1.0) > 1e-9 or len(self.grade_probs) != 4:
            raise ConfigurationError("grade_probs must be 4 values summing to 1")
        if self.gap_base_px < 4:
            raise ConfigurationError("gap_base_px must be >= 4 to stay measurable")
        if not 0 <= self.progression_p <= 1:
            raise ConfigurationError("progression_p must lie in [0, 1]")


def derive_kl(grades):
    """Composite grade from the six feature grades.

    4: any JSN at 3. 3: any JSN at 2. 2: any osteophyte >= 2 while both JSN
    stay below 2. 1: anything graded 1. 0: all features 0.
    """
    jsn = (grades["JSN_L"], grades["JSN_M"])
    osteo = (grades["FO_L"], grades["FO_M"], grades["TO_L"], grades["TO_M"])
    if max(jsn) == 3:
        return 4
    if max(jsn) == 2:
        return 3
    if max(osteo) >= 2:
        return 2
    if max(jsn + osteo) == 1:
        return 1
    return 0


def render_knee(grades, cfg: SynthConfig, rng):
    """Draw one right-knee layout and return (float01 image, landmarks).

    Lateral compartment occupies the left half. The tibial top edge is a
    single shared row; each femur band floats gap(c) above it where
    gap(c) = gap_base_px * (1 - JSN_c / 4). Osteophyte blobs hang off the four
    outer band corners, away from the gap. The caller rotates and digitizes
    afterwards.
    """
    s = cfg.image_side
    img = np.full((s, s), 0.08, dtype=np.float64)
    y_tib = int(round(s * 0.55 + rng.uniform(-s / 24, s / 24)))
    margin = max(2, s // 10)
    mid_gap = max(1, s // 32)
    lat_cols = (margin, s // 2 - mid_gap)
    med_cols = (s // 2 + mid_gap, s - margin)
    band = cfg.band_px
    bright = 0.85 + rng.uniform(-0.05, 0.05)

    tips = {}
    for name, (c0, c1) in (("L", lat_cols), ("M", med_cols)):
        jsn = grades[f"JSN_{name}"]
        gap = cfg.gap_base_px * (1.0 - jsn / 4.0)
        y_fem = int(round(y_tib - gap))
        img[max(0, y_fem - band):y_fem, c0:c1] = bright          # femur band
        img[y_tib:min(s, y_tib + band), c0:c1] = bright          # tibia band
        outer = c0 if name == "L" else c1 - 1
        tips[f"F{name}"] = (outer, y_fem - band)
        tips[f"T{name}"] = (outer, y_tib + band)

    # Marginal outgrowths render brighter than the bands (0.95 vs ~0.85) and
    # protrude away from the joint space: femoral spurs grow upward off the
    # band's top edge, tibial spurs downward off the bottom edge, so the gap
    # stays readable at every osteophyte grade.
    yy, xx = np.mgrid[0:s, 0:s]
    for feature, tip in (("FO_L", "FL"), ("TO_L", "TL"), ("FO_M", "FM"), ("TO_M", "TM")):
        g = grades[feature]
        if g == 0:
            continue
        r = cfg.blob_px * g
        cx, cy = tips[tip[0] + tip[1]]
        cy = cy - r + 1 if tip[0] == "F" else cy + r - 1
        disk = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        img[disk] = 0.95

    if cfg.noise_sigma > 0:
        img = img + rng.normal(0.0, cfg.noise_sigma, size=img.shape)
    img = np.clip(img, 0.0, 1.0)

    landmarks = LandmarkSet(
        knee_center=(s / 2.0, y_tib - cfg.gap_base_px / 2.0),
        plateau_left=(float(lat_cols[0]), float(y_tib)),
        plateau_right=(float(med_cols[1] - 1), float(y_tib)),
        side="R")
    return img, landmarks


def _rotate_exam(img01, landmarks, angle, side, cfg):
    s = cfg.image_side
    center = (s / 2.0, s / 2.0)
    rotated = rotate_image(img01, center, angle, fill=0.08)
    image = RawImage(np.clip(np.rint(rotated * 65535.0), 0, 65535).astype(np.uint16),
                     cfg.spacing_mm)
    pl, pr, kc = (rotate_point(p, center, angle) for p in (
        landmarks.plateau_left, landmarks.plateau_right, landmarks.knee_center))
    pl, pr = sorted((pl, pr), key=lambda p: p[0])      # stable: a tie keeps the order
    lm = LandmarkSet(knee_center=kc, plateau_left=pl, plateau_right=pr, side=side)
    if side == "L":
        image, lm = mirror_horizontal(image, lm)
    clamp = lambda p: (float(np.clip(p[0], 0, s - 1)), float(np.clip(p[1], 0, s - 1)))
    return image, LandmarkSet(*map(clamp, (lm.knee_center, lm.plateau_left, lm.plateau_right)),
                              side=side)


def _sample_feature_grades(rng, cfg, base=None, step=0):
    grades = {}
    for col in GRADE_COLUMNS[1:]:
        if base is None:
            grades[col] = int(rng.choice(4, p=cfg.grade_probs))
        else:
            bump = int(rng.random() < cfg.progression_p * step)
            grades[col] = min(3, base[col] + bump)
    return grades


def synth_generate(out_dir, n_subjects, exams_per_subject=2, seed=0,
                   cfg: SynthConfig = SynthConfig()):
    """Write images/, landmarks/, and manifest.csv under ``out_dir``.

    Exams alternate sides (R, L, R, ...) with the follow-up index advancing
    every two exams. Feature grades are sampled per (subject, side) and can
    only progress at follow-ups; the KL grade is always derived. Everything
    is reproducible from (seed, subject index, exam index).
    """
    out = Path(out_dir)
    make_dirs(out / "images")
    make_dirs(out / "landmarks")
    exams = []
    for si in range(n_subjects):
        subject = f"S{si:05d}"
        srng = np.random.default_rng(np.random.SeedSequence([int(seed), 1, si]))
        base = {"R": _sample_feature_grades(srng, cfg), "L": _sample_feature_grades(srng, cfg)}
        for ei in range(exams_per_subject):
            side = "R" if ei % 2 == 0 else "L"
            visit = ei // 2
            erng = np.random.default_rng(np.random.SeedSequence([int(seed), 2, si, ei]))
            grades = _sample_feature_grades(erng, cfg, base=base[side], step=visit)
            grades["KL"] = derive_kl(grades)
            img01, landmarks = render_knee(grades, cfg, erng)
            angle = float(erng.uniform(-cfg.max_rotation_deg, cfg.max_rotation_deg))
            raw, moved = _rotate_exam(img01, landmarks, angle, side, cfg)
            exam_id = f"{subject}_{side}_{visit * 12:03d}"
            image_rel = f"images/{exam_id}.pgm"
            lm_rel = f"landmarks/{exam_id}.json"
            write_pgm16(out / image_rel, raw.pixels)
            save_landmarks(out / lm_rel, exam_id, moved)
            exams.append(GradedExam(
                exam_id=exam_id, subject_id=subject, side=side,
                follow_up_months=visit * 12, image_path=image_rel, landmark_path=lm_rel,
                spacing_mm=cfg.spacing_mm, grades=grades))
    manifest = out / "manifest.csv"
    save_manifest(manifest, exams)
    return manifest, exams
