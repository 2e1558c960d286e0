"""Generate a small synthetic cohort, preprocess one exam, and print the
grade distribution plus an ASCII view of the normalized knee."""

import os
import tempfile

import numpy as np

from kneegrade.data import GRADE_COLUMNS, load_landmarks, load_manifest, synth_generate
from kneegrade.imageio import read_pgm16
from kneegrade.preprocess import PreprocessConfig, RawImage, preprocess_exam, standardize


def ascii_image(values, width=48):
    lo, hi = values.min(), values.max()
    norm = (values - lo) / max(hi - lo, 1e-9)
    step = max(1, values.shape[0] // width)
    chars = " .:-=+*#%@"
    for row in norm[::step, ::step]:
        print("".join(chars[min(9, int(v * 10))] for v in row))


if __name__ == "__main__":
    root = tempfile.mkdtemp(prefix="kneedemo_")
    manifest, exams = synth_generate(root, n_subjects=30, exams_per_subject=2, seed=11)
    print(f"wrote {len(exams)} exams under {root}")

    back = load_manifest(manifest)
    for col in GRADE_COLUMNS[1:]:
        counts = np.bincount([e.grades[col] for e in back], minlength=4)
        print(f"{col:6s} grade counts {counts.tolist()}")

    # pick the most arthritic knee and push it through the full pipeline
    worst = max(back, key=lambda e: sum(e.grades.values()))
    print("showing", worst.exam_id, worst.grades)
    pixels = read_pgm16(os.path.join(root, worst.image_path))
    _, lm = load_landmarks(os.path.join(root, worst.landmark_path))
    img = standardize(preprocess_exam(RawImage(pixels, worst.spacing_mm), lm,
                                      PreprocessConfig()).grid01)
    print("normalized:", img.shape, "mean", round(float(img.mean()), 6),
          "std", round(float(img.std()), 4))
    ascii_image(img)
