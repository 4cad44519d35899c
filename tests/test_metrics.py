"""Metric oracles: Dice conformance, confusion-count arithmetic, and the
average Hausdorff distance checked against brute force (and, where scipy
is installed, against scipy.ndimage's distance transform bit for bit)."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uception import metrics
from uception.errors import EmptyMaskError, ShapeError
from uception.gradcheck import probe
from uception.phantom import PhantomSpec, generate_phantom
from uception.preprocess import clip_normalize, threshold_baseline


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSoftDice:
    def test_perfect_overlap(self):
        t = (rng(1).random((2, 1, 4, 4, 4)) < 0.3).astype(np.float64)
        t.flat[0] = 1.0
        assert metrics.soft_dice(t, t, smooth=0.0) == pytest.approx(1.0)

    def test_disjoint_masks(self):
        p = np.zeros((1, 1, 2, 2, 2))
        t = np.zeros((1, 1, 2, 2, 2))
        p[0, 0, 0, 0, 0] = 1.0
        t[0, 0, 1, 1, 1] = 1.0
        assert metrics.soft_dice(p, t, smooth=0.0) == 0.0

    def test_half_probability_case(self):
        # P = (0.5, 0.5), T = (1, 0): 2*0.5 / (1 + 1) = 0.5
        p = np.array([0.5, 0.5])
        t = np.array([1.0, 0.0])
        assert metrics.soft_dice(p, t, smooth=0.0) == pytest.approx(0.5)

    def test_binary_predictions_equal_hard_dice(self):
        g = rng(2)
        for _ in range(50):
            p = g.random((4, 4, 4)) < g.uniform(0.1, 0.6)
            t = g.random((4, 4, 4)) < g.uniform(0.1, 0.6)
            soft = metrics.soft_dice(p.astype(np.float64), t.astype(np.float64), 0.0)
            assert soft == pytest.approx(metrics.hard_dice(p, t), abs=1e-12)

    def test_eq_conformance_against_confusion_counts(self):
        g = rng(3)
        for _ in range(200):
            p = g.random((5, 5, 5)) < 0.4
            t = g.random((5, 5, 5)) < 0.4
            tp = int((p & t).sum())
            fp = int((p & ~t).sum())
            fn = int((~p & t).sum())
            expect = 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
            got = metrics.soft_dice(p.astype(np.float64), t.astype(np.float64), 0.0)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_smooth_guards_empty(self):
        z = np.zeros((2, 2, 2))
        assert metrics.soft_dice(z, z, smooth=1.0) == pytest.approx(1.0)
        assert metrics.soft_dice(z, z, smooth=0.0) == 1.0

    def test_nonbinary_truth_rejected(self):
        with pytest.raises(ShapeError):
            metrics.soft_dice(np.zeros(3), np.array([0.0, 0.5, 1.0]))


class TestSoftDiceBackward:
    def test_matches_finite_differences(self):
        g = rng(4)
        p = g.uniform(0.05, 0.95, (1, 1, 4, 4, 4))
        t = (g.random((1, 1, 4, 4, 4)) < 0.3).astype(np.float64)
        for smooth in (0.0, 1.0):
            grad = metrics.soft_dice_backward(p, t, smooth)
            err = probe(lambda: metrics.soft_dice(p, t, smooth), {"p": p}, {"p": grad})
            assert err <= 1e-5

    def test_gradient_finite_near_bounds(self):
        t = np.array([1.0, 0.0, 1.0, 0.0])
        for p in (np.full(4, 1e-9), np.full(4, 1 - 1e-9)):
            g = metrics.soft_dice_backward(p, t, 0.0)
            assert np.isfinite(g).all()

    def test_grad_shape_matches_prediction(self):
        p = rng(5).uniform(0, 1, (2, 1, 3, 3, 3))
        t = np.zeros_like(p)
        t[0, 0, 0, 0, 0] = 1
        assert metrics.soft_dice_backward(p, t, 1.0).shape == p.shape


class TestHardMetrics:
    def test_identical_masks(self):
        m = rng(6).random((4, 4, 4)) < 0.3
        m.flat[0] = True
        assert metrics.hard_dice(m, m) == 1.0
        assert metrics.sensitivity(m, m) == 1.0

    def test_cover_plus_equal_extra(self):
        # pred covers truth plus an equal-size extra: dice 2/3, sensitivity 1
        t = np.zeros(10, bool)
        t[:3] = True
        p = np.zeros(10, bool)
        p[:6] = True
        assert metrics.hard_dice(p, t) == pytest.approx(2.0 / 3.0)
        assert metrics.sensitivity(p, t) == 1.0

    def test_disjoint(self):
        t = np.array([1, 1, 0, 0], bool)
        p = np.array([0, 0, 1, 1], bool)
        assert metrics.hard_dice(p, t) == 0.0
        assert metrics.sensitivity(p, t) == 0.0

    def test_both_empty_dice_is_one(self):
        z = np.zeros((3, 3, 3), bool)
        assert metrics.hard_dice(z, z) == 1.0

    def test_sensitivity_empty_truth_errors(self):
        z = np.zeros((3, 3, 3), bool)
        p = np.ones((3, 3, 3), bool)
        with pytest.raises(EmptyMaskError):
            metrics.sensitivity(p, z)


class TestAverageHausdorff:
    def test_identical_masks_zero(self):
        m = rng(7).random((6, 6, 6)) < 0.2
        m.flat[0] = True
        assert metrics.average_hausdorff(m, m) == 0.0

    def test_single_pair_distance(self):
        p = np.zeros((8, 8, 8), bool)
        t = np.zeros((8, 8, 8), bool)
        p[0, 0, 0] = True
        t[0, 0, 3] = True
        assert metrics.average_hausdorff(p, t, (1, 1, 1)) == pytest.approx(3.0, abs=1e-9)

    def test_three_point_half_mm_case(self):
        # P={origin}, T={origin, (0,0,2)}: 0.5*(0 + (0+2)/2) = 0.5
        p = np.zeros((4, 4, 4), bool)
        t = np.zeros((4, 4, 4), bool)
        p[0, 0, 0] = True
        t[0, 0, 0] = True
        t[0, 0, 2] = True
        assert metrics.average_hausdorff(p, t, (1, 1, 1)) == pytest.approx(0.5, abs=1e-9)

    def test_empty_mask_errors(self):
        m = np.zeros((3, 3, 3), bool)
        full = ~m
        with pytest.raises(EmptyMaskError):
            metrics.average_hausdorff(m, full)
        with pytest.raises(EmptyMaskError):
            metrics.average_hausdorff(full, m)

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.5, 0.5, 2.0)])
    def test_edt_equals_brute_force_exactly(self, spacing):
        g = rng(8)
        for _ in range(200):
            shape = tuple(g.integers(2, 17, size=3))
            p = g.random(shape) < g.uniform(0.05, 0.4)
            t = g.random(shape) < g.uniform(0.05, 0.4)
            if not p.any():
                p.flat[int(g.integers(p.size))] = True
            if not t.any():
                t.flat[int(g.integers(t.size))] = True
            edt = metrics.average_hausdorff(p, t, spacing, method="edt")
            brute = metrics.average_hausdorff(p, t, spacing, method="brute")
            assert edt == brute

    def test_symmetry_and_translation_invariance(self):
        g = rng(9)
        p = np.zeros((10, 10, 10), bool)
        t = np.zeros((10, 10, 10), bool)
        p[2:4, 2:4, 2:4] = g.random((2, 2, 2)) < 0.7
        t[3:6, 2:5, 4:6] = g.random((3, 3, 2)) < 0.7
        p.flat[0] = True
        t.flat[1] = True
        a = metrics.average_hausdorff(p, t)
        assert a == metrics.average_hausdorff(t, p)
        shifted_p = np.roll(p, (2, 2, 2), axis=(0, 1, 2))
        shifted_t = np.roll(t, (2, 2, 2), axis=(0, 1, 2))
        assert metrics.average_hausdorff(shifted_p, shifted_t) == pytest.approx(a, rel=1e-12)

    def test_spacing_scales_result(self):
        g = rng(10)
        p = g.random((8, 8, 8)) < 0.2
        t = g.random((8, 8, 8)) < 0.2
        p.flat[0] = True
        t.flat[-1] = True
        base = metrics.average_hausdorff(p, t, (1, 1, 1))
        scaled = metrics.average_hausdorff(p, t, (2, 2, 2))
        assert scaled == pytest.approx(2 * base, rel=1e-12)


    def test_two_dimensional_masks(self):
        g = rng(11)
        p = g.random((9, 7)) < 0.3
        t = g.random((9, 7)) < 0.3
        p[0, 0] = t[-1, -1] = True
        for spacing in ((1.0, 1.0), (0.7, 1.3)):
            assert (metrics.average_hausdorff(p, t, spacing)
                    == pytest.approx(metrics.average_hausdorff(p, t, spacing, "brute"),
                                     rel=1e-12))


def random_mask_pair(g, shape):
    features = g.random(shape) < g.uniform(0.002, 0.4)
    queries = g.random(shape) < g.uniform(0.01, 0.4)
    features.flat[int(g.integers(features.size))] = True
    queries.flat[int(g.integers(queries.size))] = True
    return features, queries


class TestNearestDistances:
    """The numpy distances at the query voxels, against brute force and
    against scipy.ndimage.distance_transform_edt."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.tuples(*[st.integers(1, 14)] * 3),
           st.tuples(*[st.floats(0.1, 4.0)] * 3),
           st.integers(1, 100))
    def test_matches_brute_force(self, seed, shape, spacing, chunk):
        features, queries = random_mask_pair(np.random.default_rng(seed), shape)
        got = metrics._nearest_distances(features, queries, spacing, chunk)
        q = np.argwhere(queries) * np.asarray(spacing)
        f = np.argwhere(features) * np.asarray(spacing)
        brute = np.sqrt(((q[:, None, :] - f[None, :, :]) ** 2).sum(axis=2).min(axis=1))
        np.testing.assert_allclose(got, brute, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.9, 0.85, 0.95)])
    def test_bits_match_scipy_edt(self, spacing):
        ndimage = pytest.importorskip("scipy.ndimage")
        g = rng(12)
        for _ in range(150):
            shape = tuple(int(e) for e in g.integers(1, 30, size=3))
            features, queries = random_mask_pair(g, shape)
            expect = ndimage.distance_transform_edt(~features, sampling=spacing)[queries]
            got = metrics._nearest_distances(features, queries, spacing)
            assert np.array_equal(got, expect), shape

    def test_average_hausdorff_matches_scipy_on_phantom_pairs(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        for seed in range(3):
            spec = PhantomSpec(seed=seed, spacing=(0.9, 0.85, 0.95), extents=(43, 41, 46))
            image, truth = generate_phantom(spec)
            t = truth.data > 0.5
            p = threshold_baseline(clip_normalize(image), 0.7)
            to_t = ndimage.distance_transform_edt(~t, sampling=spec.spacing)[p]
            to_p = ndimage.distance_transform_edt(~p, sampling=spec.spacing)[t]
            expect = 0.5 * (float(to_t.mean()) + float(to_p.mean()))
            assert metrics.average_hausdorff(p, t, spec.spacing) == expect

    def test_peak_memory_on_the_48_cube_segment_pair(self):
        image, truth = generate_phantom(PhantomSpec(seed=0))
        t = truth.data > 0.5
        p = threshold_baseline(clip_normalize(image), 0.7)
        tracemalloc.start()
        try:
            metrics.average_hausdorff(p, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 2.45 MB (numpy 2.4); scipy's distance_transform_edt route took 6.3 MB
        assert peak <= 2_500_000


class TestReports:
    def test_record_and_summary_layout(self):
        reports = [
            metrics.SegReport(dice=1.0, sensitivity=1.0, avg_hausdorff_mm=0.0,
                              voxel_spacing=(1, 1, 1), name="a"),
            metrics.SegReport(dice=0.5, sensitivity=0.4, avg_hausdorff_mm=2.0,
                              voxel_spacing=(1, 1, 1), name="b"),
        ]
        record = reports[0].to_record()
        assert "dice = 1.000000" in record
        summary = metrics.summarize_reports(reports)
        rows = summary.strip().splitlines()
        assert rows[0].startswith("Dice")
        assert rows[1].startswith("Sensitivity")
        assert rows[2].startswith("Avg. Hausdorff Dist.[mm]")

    def test_evaluate_masks_handles_empty_prediction(self):
        t = np.zeros((4, 4, 4), bool)
        t[1, 1, 1] = True
        report = metrics.evaluate_masks(np.zeros((4, 4, 4), bool), t)
        assert report.dice == 0.0
        assert np.isnan(report.avg_hausdorff_mm)

    def test_evaluate_masks_handles_empty_truth(self):
        z = np.zeros((4, 4, 4), bool)
        p = z.copy()
        p[1, 1, 1] = True
        both_empty = metrics.evaluate_masks(z, z)
        assert both_empty.dice == 1.0
        assert np.isnan(both_empty.sensitivity)
        assert np.isnan(both_empty.avg_hausdorff_mm)
        spurious = metrics.evaluate_masks(p, z)
        assert spurious.dice == 0.0
        assert np.isnan(spurious.sensitivity)
        assert np.isnan(spurious.avg_hausdorff_mm)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 4.0))
def test_soft_dice_bounded(seed, smooth):
    g = np.random.default_rng(seed)
    p = g.uniform(0, 1, (3, 3, 3))
    t = (g.random((3, 3, 3)) < 0.4).astype(np.float64)
    v = metrics.soft_dice(p, t, smooth)
    assert 0.0 <= v <= 1.0
