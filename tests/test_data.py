"""Manifests, splits, samplers, and the synthetic generator."""

import numpy as np
import pytest

from kneegrade.data import (GRADE_COLUMNS, GradedExam, SynthConfig, derive_kl, epoch_indices,
                            load_and_filter, load_landmarks, load_manifest, render_knee,
                            save_manifest, split_cv, synth_generate)
from kneegrade.errors import ConfigurationError, DataError
from kneegrade.imageio import read_pgm16


def exam(i, subject=None, kl=0, side="R", fu=0, **grades):
    g = {c: 0 for c in GRADE_COLUMNS}
    g["KL"] = kl
    g.update(grades)
    return GradedExam(exam_id=f"E{i:04d}", subject_id=subject or f"S{i:04d}", side=side,
                      follow_up_months=fu, image_path=f"images/E{i:04d}.pgm",
                      landmark_path=f"landmarks/E{i:04d}.json", spacing_mm=0.2, grades=g)


class TestManifest:
    def test_round_trip(self, tmp_path):
        exams = [exam(0, kl=2, FO_L=1), exam(1, kl=4, JSN_M=3)]
        del exams[1].grades["TO_M"]  # leave one cell empty
        path = tmp_path / "manifest.csv"
        save_manifest(path, exams)
        back = load_manifest(path)
        assert len(back) == 2
        assert back[0].grades == exams[0].grades
        assert back[1].grades == exams[1].grades
        assert "TO_M" not in back[1].grades

    def test_missing_labels_counted_per_column(self, tmp_path):
        exams = [exam(i) for i in range(5)]
        del exams[0].grades["KL"]
        del exams[1].grades["KL"]
        del exams[1].grades["JSN_L"]
        path = tmp_path / "manifest.csv"
        save_manifest(path, exams)
        kept, dropped = load_and_filter(path)
        assert len(kept) == 3
        assert dropped["KL"] == 2
        assert dropped["JSN_L"] == 1
        assert dropped["FO_L"] == 0

    def test_out_of_range_grade_reports_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        save_manifest(path, [exam(0), exam(1)])
        text = path.read_text().splitlines()
        text[2] = text[2].replace(",0,0,0,0,0,0", ",0,0,9,0,0,0", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataError, match="line 3"):
            load_manifest(path)

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        save_manifest(path, [exam(0)])
        path.write_text(path.read_text().replace(",0.2,", ",abc,"))
        with pytest.raises(DataError, match="line 2"):
            load_manifest(path)

    def test_duplicate_exam_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        e = exam(0)
        dup = exam(1, subject=e.subject_id)
        save_manifest(path, [e, dup])
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(path)


class TestSplitCV:
    def exams_for_subjects(self, grades_by_subject, exams_each=2):
        out = []
        i = 0
        for subject, kl in grades_by_subject.items():
            for j in range(exams_each):
                out.append(exam(i, subject=subject, kl=kl, side="RL"[j % 2], fu=12 * (j // 2)))
                i += 1
        return out

    def test_subjects_never_straddle_folds(self):
        exams = self.exams_for_subjects({f"S{i}": i % 5 for i in range(40)}, exams_each=3)
        folds = split_cv(exams, n_folds=5, seed=1)
        for e in exams:
            assert folds.fold_of(e) == folds.subject_fold[e.subject_id]
        for fold in range(5):
            train, val = folds.split(exams, fold)
            assert not {e.subject_id for e in train} & {e.subject_id for e in val}
            assert len(train) + len(val) == len(exams)

    def test_two_even_strata_deal_one_per_fold(self):
        grades = {f"A{i}": 0 for i in range(5)}
        grades.update({f"B{i}": 4 for i in range(5)})
        exams = self.exams_for_subjects(grades, exams_each=1)
        folds = split_cv(exams, n_folds=5, seed=3)
        for fold in range(5):
            members = [s for s, f in folds.subject_fold.items() if f == fold]
            assert len(members) == 2
            assert {grades[s] for s in members} == {0, 4}

    def test_stratum_deviation_at_most_one(self):
        rng = np.random.default_rng(0)
        grades = {f"S{i}": int(rng.integers(0, 5)) for i in range(83)}
        exams = self.exams_for_subjects(grades, exams_each=2)
        folds = split_cv(exams, n_folds=5, seed=7)
        for stratum in set(grades.values()):
            counts = [sum(1 for s, f in folds.subject_fold.items()
                          if f == fold and grades[s] == stratum)
                      for fold in range(5)]
            assert max(counts) - min(counts) <= 1, (stratum, counts)

    def test_deterministic_given_seed(self):
        exams = self.exams_for_subjects({f"S{i}": i % 3 for i in range(20)})
        a = split_cv(exams, n_folds=4, seed=9).subject_fold
        b = split_cv(exams, n_folds=4, seed=9).subject_fold
        c = split_cv(exams, n_folds=4, seed=10).subject_fold
        assert a == b
        assert a != c

    def test_too_few_subjects_rejected(self):
        exams = self.exams_for_subjects({"S0": 1, "S1": 2})
        with pytest.raises(ConfigurationError):
            split_cv(exams, n_folds=5, seed=0)


class TestSampling:
    def test_none_is_permutation(self):
        exams = [exam(i, kl=i % 5) for i in range(20)]
        idx = epoch_indices(exams, "none", np.random.default_rng(0))
        assert sorted(idx.tolist()) == list(range(20))

    def test_kl_balanced_evens_out_classes(self):
        exams = [exam(i, kl=0) for i in range(90)] + [exam(90 + i, kl=1) for i in range(10)]
        rng = np.random.default_rng(11)
        draws = np.concatenate([epoch_indices(exams, "kl_balanced", rng) for _ in range(1000)])
        frac_class1 = np.mean(draws >= 90)
        assert abs(frac_class1 - 0.5) < 0.02

    def test_single_class_falls_back_to_permutation(self):
        exams = [exam(i, kl=2) for i in range(15)]
        idx = epoch_indices(exams, "kl_balanced", np.random.default_rng(3))
        assert sorted(idx.tolist()) == list(range(15))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            epoch_indices([exam(0)], "fancy", np.random.default_rng(0))


class TestDeriveKL:
    def test_rule_table(self):
        def g(**kw):
            base = {c: 0 for c in GRADE_COLUMNS[1:]}
            base.update(kw)
            return base
        assert derive_kl(g()) == 0
        assert derive_kl(g(FO_L=1)) == 1
        assert derive_kl(g(JSN_M=1)) == 1
        assert derive_kl(g(TO_M=2)) == 2
        assert derive_kl(g(FO_L=3, JSN_L=1)) == 2
        assert derive_kl(g(JSN_L=2)) == 3
        assert derive_kl(g(JSN_L=2, FO_M=3)) == 3
        assert derive_kl(g(JSN_M=3)) == 4
        assert derive_kl(g(JSN_M=3, JSN_L=2)) == 4


def measure_gap(img01, cfg):
    """Count dark rows between the femur and tibia bands at mid-compartment."""
    s = cfg.image_side
    col = img01[:, s // 4]  # middle of the lateral compartment
    bright = col > 0.5
    rows = np.nonzero(bright)[0]
    runs = np.split(rows, np.nonzero(np.diff(rows) > 1)[0] + 1)
    assert len(runs) >= 2, "expected two bands"
    return runs[1][0] - runs[0][-1] - 1


class TestRender:
    def zero_grades(self):
        return {c: 0 for c in GRADE_COLUMNS[1:]}

    def test_gap_for_grade_two_is_half_base(self):
        cfg = SynthConfig(noise_sigma=0.0)
        grades = self.zero_grades()
        grades["JSN_L"] = 2
        img, _ = render_knee(grades, cfg, np.random.default_rng(0))
        gap = measure_gap(img, cfg)
        assert abs(gap - cfg.gap_base_px * 0.5) <= 1.0

    def test_gap_strictly_decreases_with_grade(self):
        cfg = SynthConfig(noise_sigma=0.0)
        gaps = []
        for grade in range(4):
            grades = self.zero_grades()
            grades["JSN_L"] = grade
            img, _ = render_knee(grades, cfg, np.random.default_rng(1))
            gaps.append(measure_gap(img, cfg))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps

    def test_protrusion_area_strictly_increases(self):
        cfg = SynthConfig(noise_sigma=0.0)
        areas = []
        for grade in range(4):
            grades = self.zero_grades()
            grades["FO_L"] = grade
            img, _ = render_knee(grades, cfg, np.random.default_rng(2))
            base_grades = self.zero_grades()
            base, _ = render_knee(base_grades, cfg, np.random.default_rng(2))
            areas.append(int(np.sum((img > 0.5) & ~(base > 0.5))))
        assert areas[0] == 0
        assert all(a < b for a, b in zip(areas, areas[1:])), areas

    def test_zero_grades_render_clean_joint(self):
        cfg = SynthConfig(noise_sigma=0.0)
        img, lm = render_knee(self.zero_grades(), cfg, np.random.default_rng(3))
        assert measure_gap(img, cfg) >= cfg.gap_base_px - 1
        assert lm.plateau_left[1] == lm.plateau_right[1]  # level before rotation


class TestGenerate:
    def test_round_trip_exact(self, tmp_path):
        manifest, exams = synth_generate(tmp_path, n_subjects=4, exams_per_subject=3, seed=5)
        back = load_manifest(manifest)
        assert len(back) == 12
        for a, b in zip(exams, back):
            assert a.exam_id == b.exam_id
            assert a.grades == b.grades
            assert a.spacing_mm == b.spacing_mm
        kept, dropped = load_and_filter(manifest)
        assert len(kept) == 12 and all(v == 0 for v in dropped.values())

    def test_deterministic(self, tmp_path):
        m1, _ = synth_generate(tmp_path / "a", n_subjects=3, seed=9)
        m2, _ = synth_generate(tmp_path / "b", n_subjects=3, seed=9)
        assert m1.read_text() == m2.read_text()
        for rel in ["images/S00000_R_000.pgm"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_files_exist_and_load(self, tmp_path):
        # turned past 90 degrees, a knee's plateau points swap places, and a
        # left knee's swap again in the mirror: both must end up ordered by x
        for i, cfg in enumerate((SynthConfig(), SynthConfig(max_rotation_deg=179))):
            out = tmp_path / str(i)
            manifest, _ = synth_generate(out, n_subjects=2, exams_per_subject=2, seed=1, cfg=cfg)
            for e in load_manifest(manifest):
                img = read_pgm16(out / e.image_path)
                assert img.shape == (64, 64)
                exam_id, lm = load_landmarks(out / e.landmark_path)
                assert exam_id == e.exam_id
                assert lm.side == e.side
                assert lm.plateau_left[0] <= lm.plateau_right[0]
                for x, y in (lm.knee_center, lm.plateau_left, lm.plateau_right):
                    assert 0 <= x <= 63 and 0 <= y <= 63

    def test_kl_always_derived(self, tmp_path):
        _, exams = synth_generate(tmp_path, n_subjects=10, exams_per_subject=2, seed=2)
        for e in exams:
            features = {c: e.grades[c] for c in GRADE_COLUMNS[1:]}
            assert e.grades["KL"] == derive_kl(features)

    def test_grade_distribution_skewed_toward_zero(self, tmp_path):
        _, exams = synth_generate(tmp_path, n_subjects=60, exams_per_subject=2, seed=3)
        fo = np.array([e.grades["FO_L"] for e in exams])
        assert np.mean(fo == 0) > 0.35
        assert np.mean(fo >= 2) > 0.05

    def test_preprocessing_recovers_synthetic_geometry(self, tmp_path):
        from kneegrade.preprocess import PreprocessConfig, preprocess_exam
        out, exams = synth_generate(tmp_path, n_subjects=3, exams_per_subject=2, seed=7)
        cfg = PreprocessConfig(target_side=64, roi_mm=140.0)
        for e in exams:
            img = read_pgm16(tmp_path / e.image_path)
            _, lm = load_landmarks(tmp_path / e.landmark_path)
            from kneegrade.preprocess import RawImage, standardize
            norm = preprocess_exam(RawImage(img, e.spacing_mm), lm, cfg)
            assert standardize(norm.grid01).shape == (64, 64)
            # after alignment the tibial band is level: its brightest row is
            # near the crop center row
            assert norm.provenance["crop_side_px"] == 64
