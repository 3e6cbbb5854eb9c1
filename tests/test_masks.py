import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rgbdnav.masks import erode_bitmap, erode_mask, zscore_filter
from rgbdnav.projection import back_project_pixels, reconstruct_object
from rgbdnav.types import CameraIntrinsics, CameraPose, DepthFrame, Detection2D, InstanceMask, PipelineConfig

from conftest import erosion_oracle, zscore_keep_oracle

bitmaps_8x8 = arrays(bool, (8, 8))


def _mask(bitmap):
    h, w = np.asarray(bitmap).shape
    det = Detection2D((0.0, 0.0, float(w), float(h)), 1.0, "thing")
    return InstanceMask(np.asarray(bitmap, dtype=bool), det)


def _frame(depth):
    depth = np.asarray(depth, dtype=np.float64)
    h, w = depth.shape
    intr = CameraIntrinsics(10.0, 10.0, w / 2 - 0.5, h / 2 - 0.5, w, h)
    return DepthFrame("f0", depth, intr, CameraPose.identity())


# reconstruct_object without erosion or z-filter: the gathered depths, back-projected
GATHER_ONLY = PipelineConfig(tau=np.inf, kernel_size=1)


class TestErosion:
    def test_all_ones_5x5_keeps_interior(self):
        out = erode_bitmap(np.ones((5, 5), dtype=bool), 3)
        expected = np.zeros((5, 5), dtype=bool)
        expected[1:4, 1:4] = True
        assert np.array_equal(out, expected)

    def test_single_pixel_erodes_away(self):
        bitmap = np.zeros((5, 5), dtype=bool)
        bitmap[2, 2] = True
        assert not erode_bitmap(bitmap, 3).any()

    def test_random_16x16_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            bitmap = rng.random((16, 16)) < 0.6
            assert np.array_equal(erode_bitmap(bitmap, 3), erosion_oracle(bitmap, np.ones((3, 3))))

    @settings(max_examples=300)
    @given(arrays(bool, st.tuples(st.integers(1, 20), st.integers(1, 20))), st.sampled_from([1, 3, 5, 7]))
    @example(np.ones((1, 9), dtype=bool), 3)  # a single row erodes away under any square above 1
    @example(np.ones((9, 1), dtype=bool), 1)
    @example(np.ones((2, 3), dtype=bool), 7)  # the square is larger than the bitmap
    @example(np.ones((20, 20), dtype=bool), 7)
    def test_square_matches_oracle(self, bitmap, size):
        assert np.array_equal(erode_bitmap(bitmap, size), erosion_oracle(bitmap, np.ones((size, size))))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_erosions_of_size_3_are_one_of_size_2k_plus_1(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            bitmap = rng.random((int(rng.integers(1, 24)), int(rng.integers(1, 24)))) < 0.85
            stepped = bitmap
            for _ in range(k):
                stepped = erode_bitmap(stepped, 3)
            assert np.array_equal(erode_bitmap(bitmap, 2 * k + 1), stepped)

    @given(bitmaps_8x8)
    def test_anti_extensive(self, bitmap):
        out = erode_bitmap(bitmap, 3)
        assert not (out & ~bitmap).any()

    @given(bitmaps_8x8, bitmaps_8x8)
    def test_monotone(self, a, extra):
        b = a | extra  # a is a subset of b by construction
        ea = erode_bitmap(a, 3)
        eb = erode_bitmap(b, 3)
        assert not (ea & ~eb).any()

    @settings(max_examples=200)
    @given(bitmaps_8x8)
    def test_matches_oracle_on_8x8(self, bitmap):
        assert np.array_equal(erode_bitmap(bitmap, 3), erosion_oracle(bitmap, np.ones((3, 3))))

    def test_erode_mask_keeps_detection(self):
        mask = _mask(np.ones((4, 6)))
        out = erode_mask(mask)
        assert out.detection is mask.detection
        assert np.count_nonzero(out.bitmap) < np.count_nonzero(mask.bitmap)

    @pytest.mark.parametrize("size", [0, -1, 2, 4])
    def test_even_or_non_positive_size_rejected(self, size):
        with pytest.raises(ValueError, match="kernel_size must be odd and >= 1"):
            erode_bitmap(np.ones((4, 6), dtype=bool), size)
        with pytest.raises(ValueError, match="kernel_size must be odd and >= 1"):
            erode_mask(_mask(np.ones((4, 6))), size)
        with pytest.raises(ValueError, match="kernel_size must be odd and >= 1"):
            PipelineConfig(kernel_size=size)


class TestIsolateDepth:
    def test_collects_masked_depths(self):
        depth = np.full((4, 4), 2.0)
        bitmap = np.zeros((4, 4), dtype=bool)
        bitmap[1:3, 1:3] = True
        cloud = reconstruct_object(_frame(depth), _mask(bitmap), GATHER_ONLY)
        assert len(cloud.points) == 4
        assert np.all(cloud.points[:, 2] == 2.0)

    def test_zero_depth_excluded(self):
        depth = np.full((4, 4), 2.0)
        depth[1, 1] = 0.0
        bitmap = np.zeros((4, 4), dtype=bool)
        bitmap[1, 1] = True
        bitmap[1, 2] = True
        frame = _frame(depth)
        cloud = reconstruct_object(frame, _mask(bitmap), GATHER_ONLY)
        assert len(cloud.points) == 1
        assert np.array_equal(cloud.points, back_project_pixels([2], [1], [2.0], frame.intrinsics))

    def test_mask_over_invalid_region_is_empty(self):
        depth = np.zeros((4, 4))
        bitmap = np.ones((4, 4), dtype=bool)
        assert reconstruct_object(_frame(depth), _mask(bitmap), GATHER_ONLY) is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="outside depth shape"):
            reconstruct_object(_frame(np.ones((4, 4))), _mask(np.ones((5, 5))), GATHER_ONLY)

    @given(arrays(bool, (6, 6)))
    def test_size_bounded_by_popcount(self, bitmap):
        depth = np.full((6, 6), 1.5)
        cloud = reconstruct_object(_frame(depth), _mask(bitmap), GATHER_ONLY)
        assert (0 if cloud is None else len(cloud.points)) <= int(bitmap.sum())


def _depths(values):
    return np.asarray(values, dtype=np.float64)


class TestZScoreFilter:
    def test_uniform_values_pass_through(self):
        iso = _depths([1.0] * 10)
        assert len(zscore_filter(iso, 2.0)) == 10

    def test_outlier_removed(self):
        values = [1.0] * 20 + [9.0]
        kept = zscore_filter(_depths(values), 2.0)
        # the oracle agrees the 9.0 entry is the only casualty
        mu = np.mean(values)
        sigma = np.std(values)
        assert abs((9.0 - mu) / sigma) >= 2.0
        assert len(kept) == 20
        assert np.max(np.array(values)[kept]) == 1.0

    def test_infinite_tau_is_identity(self):
        iso = _depths([1.0, 2.0, 3.0, 50.0])
        assert len(zscore_filter(iso, np.inf)) == 4

    def test_small_sets_untouched(self):
        iso = _depths([1.0, 100.0])
        assert len(zscore_filter(iso, 2.0)) == 2

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            zscore_filter(_depths([1.0, 2.0, 3.0]), 0.0)

    def test_1000_random_sets_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            values = rng.uniform(0.5, 5.0, size=n)
            if rng.random() < 0.3 and n >= 3:
                values[0] = 50.0  # force an outlier sometimes
            kept = zscore_filter(_depths(values), 2.0)
            expected = zscore_keep_oracle(list(values), 2.0)
            assert list(kept) == expected

    @given(st.lists(st.floats(0.1, 100.0), min_size=0, max_size=30), st.floats(0.5, 5.0))
    def test_kept_values_satisfy_predicate_on_original_stats(self, values, tau):
        iso = _depths(values)
        kept = zscore_filter(iso, tau)
        assert len(kept) <= len(iso)
        if len(values) < 3 or min(values) == max(values):
            assert len(kept) == len(iso)
        else:
            mu = np.mean(values)
            sigma = np.std(values)
            assert np.all(np.abs(iso[kept] - mu) / sigma < tau)

    @pytest.mark.parametrize("tau", [0.5, 1.0])
    @pytest.mark.parametrize("depth, n", [(3.616, 5), (2.345, 10), (0.1, 3)])
    def test_uniform_depth_kept_when_its_mean_rounds(self, depth, n, tau):
        # the float mean of these equal depths misses the depth, leaving a
        # spread of pure rounding error that puts every z-score near 1
        depths = np.full(n, depth)
        assert float(np.mean(depths)) != depth and float(np.std(depths)) > 0
        assert list(zscore_filter(depths, tau)) == list(range(n))
