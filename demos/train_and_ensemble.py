"""Train two snapshot members on a tiny synthetic cohort and average them.

Uses a deliberately small model and epoch budget so the whole thing runs in
about a minute on a laptop; expect rough metrics, the point is the workflow.
"""

import os
import tempfile
import time

from kneegrade.data import load_and_filter, load_landmarks, synth_generate
from kneegrade.ensemble import ensemble_predict
from kneegrade.imageio import read_pgm16
from kneegrade.metrics import balanced_accuracy, cohen_kappa
from kneegrade.model import TASK_CLASSES, BlockSpec, ModelConfig, StemSpec, build_model
from kneegrade.preprocess import PreprocessConfig, RawImage, preprocess_exam
from kneegrade.training import TrainConfig, run_fold

if __name__ == "__main__":
    t0 = time.time()
    root = tempfile.mkdtemp(prefix="kneedemo_")
    synth_generate(root, n_subjects=60, exams_per_subject=2, seed=3)
    exams, _ = load_and_filter(os.path.join(root, "manifest.csv"))

    images = {}
    for e in exams:
        px = read_pgm16(os.path.join(root, e.image_path))
        _, lm = load_landmarks(os.path.join(root, e.landmark_path))
        images[e.exam_id] = preprocess_exam(RawImage(px, e.spacing_mm), lm,
                                            PreprocessConfig(target_side=32))
    print(f"[{time.time()-t0:5.1f}s] {len(exams)} exams preprocessed")

    subjects = sorted({e.subject_id for e in exams})
    val_subj = set(subjects[:15])
    train = [e for e in exams if e.subject_id not in val_subj]
    val = [e for e in exams if e.subject_id in val_subj]

    small = ModelConfig(
        stem=StemSpec(out_channels=8, pool=2),
        blocks=(BlockSpec(kind="basic", in_channels=8, out_channels=8, stride=1),
                BlockSpec(kind="basic", in_channels=8, out_channels=16, stride=2)),
        dropout_p=0.25)
    cfg = TrainConfig(schedule="scratch", epochs=3, batch_size=16)

    snapshots = []
    for member, seed in enumerate((5, 6)):
        model = build_model(small, seed=seed)
        res = run_fold(model, train, val, images, cfg, seed=seed, fold=member)
        print(f"[{time.time()-t0:5.1f}s] member {member} best epoch "
              f"{res.snapshot.meta['epoch']} mean kappa "
              f"{res.snapshot.meta['metrics']['mean_kappa']:.3f}")
        snapshots.append(res.snapshot)

    probs, grades = ensemble_predict(snapshots, val, images)
    for name in grades:
        truth = [e.grades[name] for e in val]
        kappa = cohen_kappa(truth, grades[name], TASK_CLASSES[name])
        ba = balanced_accuracy(truth, grades[name], TASK_CLASSES[name])
        print(f"  {name:6s} kappa {kappa:6.3f}  balanced acc {ba:5.1f}%")
    print(f"[{time.time()-t0:5.1f}s] done")
