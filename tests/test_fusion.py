import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rgbdnav import scene_io
from rgbdnav.fusion import (
    _cut,
    _join,
    iou_3d,
    merge_instances,
    run_scene,
    sorted_union,
    sorted_unique,
    sorted_unique_first,
    voxel_keys,
)
from rgbdnav.projection import reconstruct_object
from rgbdnav.scene_io import SceneView
from rgbdnav.types import (
    Box3D,
    CameraIntrinsics,
    CameraPose,
    DepthFrame,
    Detection2D,
    InstanceMask,
    ObjectCloud,
    PipelineConfig,
    VOXEL_SIZE,
)

from conftest import monte_carlo_iou, pool_clouds, voxel_pools

corners = st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))


def voxel_downsample(points):
    """First point per voxel, in input order, by the packed keys that fusion merges with."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return p[np.sort(np.unique(voxel_keys(p), return_index=True)[1])]


def voxel_downsample_rowwise(points):
    """Reference: first point per voxel via a row-wise unique over integer cells."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if p.shape[0] == 0:
        return p
    keys = np.floor(p / VOXEL_SIZE).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return p[np.sort(first)]


def voxel_min_points(clouds):
    """Reference dedup, as a dict from integer cell to point: each cloud's first point per
    voxel in its own order, then across clouds the lexicographically smallest (x, y, z)."""
    table = {}
    for points in clouds:
        own = {}
        for p in np.asarray(points, dtype=np.float64).reshape(-1, 3):
            own.setdefault(tuple(int(c) for c in np.floor(p / VOXEL_SIZE)), tuple(p))
        for cell, p in own.items():
            table[cell] = min(table.get(cell, p), p)
    return table


def _cloud_of(table, label, score, frames):
    """The cloud of a cell -> point dict, points in (x, y, z) cell order, the order packed keys sort in."""
    return ObjectCloud(np.array([table[cell] for cell in sorted(table)]), label, score, frames)


def merge_instances_reference(views, merge_threshold):
    """Reference fusion: ``iou_3d`` over every pair, components by depth-first search,
    voxel -> smallest point in a dict, passes to the fixpoint, then sorted canonically."""
    current = [
        (voxel_min_points([c.points]), c.label, c.score, c.source_frames)
        for view in views for c in view
    ]
    while True:
        clouds = [_cloud_of(*inst) for inst in current]
        edges = {i: set() for i in range(len(clouds))}
        for i, j in itertools.combinations(range(len(clouds)), 2):
            if clouds[i].label == clouds[j].label and iou_3d(clouds[i].box, clouds[j].box) > merge_threshold:
                edges[i].add(j)
                edges[j].add(i)
        merged, done = [], set()
        for start in range(len(clouds)):
            if start in done:
                continue
            stack, members = [start], []
            done.add(start)
            while stack:
                i = stack.pop()
                members.append(i)
                stack.extend(edges[i] - done)
                done.update(edges[i])
            table = {}
            for i in members:
                for cell, p in current[i][0].items():
                    table[cell] = min(table.get(cell, p), p)
            merged.append((
                table, current[start][1], max(current[i][2] for i in members),
                frozenset().union(*(current[i][3] for i in members)),
            ))
        if len(merged) == len(current):
            return sorted(clouds, key=lambda c: (c.label, *c.box.min_corner, *c.box.max_corner))
        current = merged


def run_scene_reference(views, config):
    """Reference: the per-view reconstruct-then-merge loop written out inline."""
    dropped = 0
    per_view = []
    for view in views:
        produced = []
        for mask in view.masks:
            cloud = reconstruct_object(view.frame, mask, config)
            if cloud is None:
                dropped += 1
            else:
                produced.append(cloud)
        per_view.append(produced)
    return merge_instances(per_view, config.merge_threshold), dropped


@st.composite
def fusion_inputs(draw):
    """Views of same- and mixed-class instances drawn from one shared point pool,
    shifted along x by whole cells so that boxes overlap partly."""
    span = draw(st.integers(1, 6))
    pool = draw(voxel_pools(span=span, max_points=16))
    views = []
    for v in range(draw(st.integers(1, 5))):
        row = []
        for _ in range(draw(st.integers(0, 3))):
            pts = draw(pool_clouds(pool)) + [draw(st.integers(0, 2 * span)) * VOXEL_SIZE, 0.0, 0.0]
            label = draw(st.sampled_from(["a", "a", "b"]))
            row.append(ObjectCloud(pts, label, draw(st.sampled_from([0.3, 0.6, 1.0])), frozenset({f"f{v}"})))
        views.append(row)
    return views, draw(st.sampled_from([0.05, 0.3, 0.8]))


@st.composite
def small_scenes(draw):
    """1 to 5 views of a 16x12 camera shifting along x over random depths
    with holes, each with up to 4 random masks: windows overlap across views,
    so instances merge, and erosion or the z-filter drops some detections."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    intr = CameraIntrinsics(12.0, 12.0, 7.5, 5.5, 16, 12)
    views = []
    for v in range(draw(st.integers(1, 5))):
        depth = 1.0 + 0.05 * rng.integers(0, 8, size=(12, 16))
        depth[rng.random((12, 16)) < 0.1] = 0.0
        pose = CameraPose(np.eye(3), np.array([0.02 * rng.integers(0, 3), 0.0, 0.0]))
        masks = []
        for _ in range(rng.integers(0, 5)):
            x1, y1 = int(rng.integers(0, 5)), int(rng.integers(0, 4))
            x2, y2 = min(x1 + int(rng.integers(4, 12)), 16), min(y1 + int(rng.integers(3, 9)), 12)
            det = Detection2D((x1, y1, x2, y2), float(rng.choice([0.3, 0.6, 1.0])), str(rng.choice(["a", "a", "b"])))
            masks.append(InstanceMask(rng.random((y2 - y1, x2 - x1)) < 0.8, det))
        views.append(SceneView(DepthFrame(f"{v:04d}", depth, intr, pose), masks))
    config = PipelineConfig(
        tau=draw(st.sampled_from([0.5, 2.0])),
        kernel_size=draw(st.sampled_from([1, 3])),
        merge_threshold=draw(st.sampled_from([0.05, 0.3, 0.8])),
    )
    return views, config


def _box(lo, hi):
    return Box3D(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def _instance(lo, hi, label="chair", score=1.0, n=40, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), size=(n, 3))
    # pin the extremes so the box of the points spans exactly [lo, hi]
    pts[0] = lo
    pts[1] = hi
    return ObjectCloud(pts, label, score)


def assert_same_instances(got, want):
    """The two instance lists hold the same bytes: points, label, score, frames and boxes, in the same order."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.points.tobytes() == w.points.tobytes()
        assert (g.label, g.score, g.source_frames) == (w.label, w.score, w.source_frames)
        assert g.box.min_corner.tobytes() == w.box.min_corner.tobytes()
        assert g.box.max_corner.tobytes() == w.box.max_corner.tobytes()


class TestIoU3D:
    def test_identical_unit_boxes(self):
        a = _box([0, 0, 0], [1, 1, 1])
        assert iou_3d(a, a) == 1.0

    def test_disjoint(self):
        assert iou_3d(_box([0, 0, 0], [1, 1, 1]), _box([5, 5, 5], [6, 6, 6])) == 0.0

    def test_half_shift_gives_third(self):
        a = _box([0, 0, 0], [1, 1, 1])
        b = _box([0.5, 0, 0], [1.5, 1, 1])
        assert iou_3d(a, b) == pytest.approx(1 / 3)

    def test_degenerate_zero_volume(self):
        flat = _box([0, 0, 0], [1, 1, 0])
        assert iou_3d(flat, flat) == 1.0
        assert iou_3d(flat, _box([0, 0, 0], [1, 1, 1])) == 0.0

    def test_matches_monte_carlo_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lo_a = rng.uniform(-1, 1, 3)
            a = _box(lo_a, lo_a + rng.uniform(0.3, 1.2, 3))
            lo_b = lo_a + rng.uniform(-0.8, 0.8, 3)
            b = _box(lo_b, lo_b + rng.uniform(0.3, 1.2, 3))
            estimate = monte_carlo_iou(a, b, 200_000, rng)
            assert abs(iou_3d(a, b) - estimate) < 0.01

    @given(corners, corners, corners, corners)
    def test_symmetric_and_bounded(self, lo_a, da, lo_b, db):
        a = _box(lo_a, np.asarray(lo_a) + np.abs(da))
        b = _box(lo_b, np.asarray(lo_b) + np.abs(db))
        ab = iou_3d(a, b)
        assert ab == iou_3d(b, a)
        assert 0.0 <= ab <= 1.0

    def test_equal_iff_one_for_nondegenerate(self):
        a = _box([0, 0, 0], [1, 2, 3])
        b = _box([0, 0, 0], [1, 2, 3.0001])
        assert iou_3d(a, b) < 1.0


class TestVoxelDownsample:
    def test_keeps_first_per_voxel(self):
        pts = np.array([[0.001, 0.001, 0.001], [0.002, 0.002, 0.002], [0.05, 0.0, 0.0]])
        out = voxel_downsample(pts)
        assert out.shape == (2, 3)
        assert np.array_equal(out[0], pts[0])

    def test_empty_input(self):
        assert voxel_downsample(np.zeros((0, 3))).shape == (0, 3)

    def test_negative_coordinates(self):
        pts = np.array([[-0.001, 0, 0], [0.001, 0, 0]])
        assert np.unique(voxel_keys(pts)).size == 2  # straddles the 0 boundary

    @given(st.data())
    def test_matches_rowwise_reference(self, data):
        pool = data.draw(voxel_pools(span=data.draw(st.sampled_from([2, 50, 5000]))))
        pts = data.draw(pool_clouds(pool, max_points=60))
        assert np.array_equal(voxel_downsample(pts), voxel_downsample_rowwise(pts))
        # packed keys sort in (x, y, z) row order of the integer cells
        cells = np.floor(pts / VOXEL_SIZE).astype(np.int64)
        keys = voxel_keys(pts)
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(cells.T[::-1]))

    def test_out_of_range_cell_raises(self):
        # cell indices pack in [-2^20, 2^20); each point sits half a cell inside or outside a limit,
        # so the rounding of p / VOXEL_SIZE cannot move it across
        limit, half = 2.0 ** 20 * VOXEL_SIZE, VOXEL_SIZE / 2
        inside = np.array([[-limit + half, limit - half, 0.0]])
        assert voxel_keys(inside).shape == (1,)
        for bad in ([limit + half, 0.0, 0.0], [0.0, -limit - half, 0.0], [0.0, 0.0, np.nan]):
            with pytest.raises(ValueError, match=r"2\^20 cells of the origin \(±20.97 km\)"):
                voxel_keys(np.array([bad]))


INT64 = np.iinfo(np.int64)
# INT64.max is also the largest key voxel_keys packs (every 21-bit cell index at
# its maximum); 1 << 42 and 1 << 21 are one cell along x and along y.
key_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max, 1 << 42, 1 << 21]),
    st.integers(INT64.min, INT64.max),
)


@st.composite
def key_arrays(draw):
    """int64 arrays drawn from a small pool of values, so most draws repeat keys heavily."""
    pool = draw(st.lists(key_values, min_size=1, max_size=draw(st.sampled_from([1, 3, 40]))))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=200)), dtype=np.int64)


class TestSortedUnique:
    @pytest.mark.parametrize(
        "keys",
        [[], [7], [5] * 9, [INT64.max, INT64.min, 0, INT64.min, -1, INT64.max], [2, 1] * 50 + [0]],
        ids=["empty", "one", "all_equal", "extremes", "duplicated"],
    )
    def test_named_cases_match_np_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        unique, first = np.unique(keys, return_index=True)
        got, got_first = sorted_unique_first(keys)
        assert sorted_unique(keys).dtype == got.dtype == np.int64
        assert np.array_equal(sorted_unique(keys), unique)
        assert np.array_equal(got, unique) and np.array_equal(got_first, first)

    @settings(max_examples=300)
    @given(key_arrays())
    def test_matches_np_unique(self, keys):
        unique, first = np.unique(keys, return_index=True)
        assert sorted_unique(keys).tobytes() == unique.tobytes()
        got, got_first = sorted_unique_first(keys)
        assert got.tobytes() == unique.tobytes()
        assert np.array_equal(got_first, first)

    def test_first_index_from_an_unstable_argsort(self):
        # long runs of equal keys, where quicksort's argsort does not keep input order
        keys = np.random.default_rng(5).integers(0, 4, 5000).astype(np.int64)
        assert np.array_equal(sorted_unique_first(keys)[1], np.unique(keys, return_index=True)[1])

    @settings(max_examples=300)
    @given(key_arrays(), key_arrays())
    @example(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    @example(np.array([], dtype=np.int64), np.array([3]))
    @example(np.array([1, 5]), np.array([1, 5]))
    def test_union_matches_np_union1d(self, held, batch):
        held, batch = np.unique(held), np.unique(batch)
        got = sorted_union(held, batch)
        assert got.dtype == np.int64 and got.tobytes() == np.union1d(held, batch).tobytes()


class TestMergeInstances:
    def test_identical_boxes_merge(self):
        views = [[_instance([0, 0, 0], [1, 1, 1], seed=1)], [_instance([0, 0, 0], [1, 1, 1], seed=2)]]
        out = merge_instances(views, 0.8)
        assert len(out) == 1

    def test_different_classes_stay_apart(self):
        views = [[_instance([0, 0, 0], [1, 1, 1], label="chair")],
                 [_instance([0, 0, 0], [1, 1, 1], label="table")]]
        assert len(merge_instances(views, 0.8)) == 2

    def test_score_is_max_and_frames_union(self):
        a = _instance([0, 0, 0], [1, 1, 1], score=0.4, seed=1)
        a = ObjectCloud(a.points, "chair", 0.4, frozenset({"f0"}))
        b = _instance([0, 0, 0], [1, 1, 1], score=0.9, seed=2)
        b = ObjectCloud(b.points, "chair", 0.9, frozenset({"f1"}))
        out = merge_instances([[a], [b]], 0.8)
        cloud = out[0]
        assert cloud.score == 0.9
        assert cloud.source_frames == frozenset({"f0", "f1"})

    def test_three_way_transitive_chain_all_orders(self):
        # three mutually overlapping same-class boxes collapse to one
        # instance at the fixpoint for every input order
        specs = [([0, 0, 0], [1, 1, 1]), ([0.02, 0, 0], [1.02, 1, 1]), ([0.04, 0, 0], [1.04, 1, 1])]
        insts = [_instance(lo, hi, seed=i) for i, (lo, hi) in enumerate(specs)]
        for pair in itertools.combinations(insts, 2):
            assert iou_3d(pair[0].box, pair[1].box) > 0.9
        for order in itertools.permutations(insts):
            out = merge_instances([list(order)], 0.8)
            assert len(out) == 1

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        views = []
        for v in range(4):
            row = []
            for k in range(3):
                lo = rng.uniform(-2, 2, 3)
                row.append(_instance(lo, lo + rng.uniform(0.4, 1.0, 3), label=f"c{k}", seed=10 * v + k))
            views.append(row)
        once = merge_instances(views, 0.8)
        twice = merge_instances([once], 0.8)
        assert len(twice) == len(once)
        for ca, cb in zip(once, twice):
            assert ca.label == cb.label
            assert np.array_equal(ca.points, cb.points)
            assert np.array_equal(ca.box.min_corner, cb.box.min_corner)

    def test_no_same_class_pair_above_threshold_after_merge(self):
        rng = np.random.default_rng(8)
        views = []
        for v in range(6):
            row = []
            for _ in range(4):
                lo = rng.uniform(-1.5, 1.5, 3)
                row.append(_instance(lo, lo + rng.uniform(0.3, 1.2, 3), label="chair", seed=int(rng.integers(1e6))))
            views.append(row)
        out = merge_instances(views, 0.8)
        for ca, cb in itertools.combinations(out, 2):
            if ca.label == cb.label:
                assert iou_3d(ca.box, cb.box) <= 0.8

    def test_count_never_increases_and_points_preserved(self):
        rng = np.random.default_rng(9)
        views = [[_instance(rng.uniform(-1, 1, 3), rng.uniform(1.2, 2, 3), seed=k)] for k in range(5)]
        n_in = sum(len(v) for v in views)
        out = merge_instances(views, 0.8)
        assert len(out) <= n_in
        all_inputs = np.vstack([c.points for view in views for c in view])
        for cloud in out:
            for p in cloud.points:
                assert (np.abs(all_inputs - p).sum(axis=1) < 1e-12).any()

    @given(fusion_inputs())
    def test_matches_component_reference(self, inputs):
        views, threshold = inputs
        assert_same_instances(merge_instances(views, threshold), merge_instances_reference(views, threshold))

    def test_later_pass_merge_matches_reference(self):
        # a and b overlap (IoU 0.54 > 0.5); c overlaps each at IoU 0.5 exactly, so
        # the first pass joins a and b only, and the second merges c into their union
        insts = [
            ObjectCloud(_instance(lo, hi, seed=k).points, "chair", 0.5 + 0.1 * k, frozenset({f"f{k}"}))
            for k, (lo, hi) in enumerate([([0, 0, 0], [1, 1, 1]), ([0.3, 0, 0], [1.3, 1, 1]), ([-0.4, 0, 0], [1.6, 1, 1])])
        ]
        assert iou_3d(insts[0].box, insts[1].box) > 0.5
        assert iou_3d(insts[0].box, insts[2].box) == iou_3d(insts[1].box, insts[2].box) == 0.5
        for order in itertools.permutations(insts):
            views = [[inst] for inst in order]
            got = merge_instances(views, 0.5)
            assert len(got) == 1 and got[0].source_frames == frozenset({"f0", "f1", "f2"})
            assert_same_instances(got, merge_instances_reference(views, 0.5))

    def test_arrival_joins_every_component_it_touches(self):
        # a and c share no edge (IoU 0.11); b overlaps each at IoU 0.43, so when b
        # arrives last it joins two components in one pass
        insts = [
            ObjectCloud(_instance(lo, hi, seed=k).points, "chair", 1.0, frozenset({f"f{k}"}))
            for k, (lo, hi) in enumerate([([0, 0, 0], [1, 1, 1]), ([0.4, 0, 0], [1.4, 1, 1]), ([0.8, 0, 0], [1.8, 1, 1])])
        ]
        assert iou_3d(insts[0].box, insts[2].box) < 0.3 < iou_3d(insts[0].box, insts[1].box)
        for order in itertools.permutations(insts):
            views = [[inst] for inst in order]
            got = merge_instances(views, 0.3)
            assert len(got) == 1 and got[0].source_frames == frozenset({"f0", "f1", "f2"})
            assert_same_instances(got, merge_instances_reference(views, 0.3))

    def test_join_with_no_fresh_voxel(self):
        # every voxel of the smaller instance is held by the larger one
        a = _cut(ObjectCloud(np.array([[0.001, 0.001, 0.001], [0.005, 0.0, 0.0], [0.05, 0.05, 0.05]]), "chair", 0.4, {"a"}))
        b = _cut(ObjectCloud(np.array([[0.051, 0.052, 0.053], [0.002, 0.003, 0.004]]), "chair", 0.9, {"b"}))
        assert np.array_equal(a[0].points, [[0.001, 0.001, 0.001], [0.05, 0.05, 0.05]])  # first point per voxel
        for first, second in ((a, b), (b, a)):
            joined, keys = _join(first, second)
            assert np.array_equal(keys, a[1])
            assert np.array_equal(joined.points, a[0].points)
            assert joined.score == 0.9 and joined.source_frames == {"a", "b"}

    def test_join_shared_voxel_keeps_smaller_later_point(self):
        # the later member's point is smaller in the shared voxel, by x, then by y, then by z
        held = np.array([[0.011, 0.005, 0.005], [0.031, 0.005, 0.005], [0.051, 0.005, 0.005]])
        later = held.copy()
        later[0, 0], later[1, 1], later[2, 2] = 0.001, 0.001, 0.001
        a = _cut(ObjectCloud(held, "chair", 1.0, {"a"}))
        b = _cut(ObjectCloud(later, "chair", 1.0, {"b"}))
        for first, second in ((a, b), (b, a)):
            assert np.array_equal(_join(first, second)[0].points, later)

    @pytest.mark.parametrize("offset", [10.0, 0.03], ids=["all_fresh", "mixed"])
    def test_join_matches_dict_reference(self, offset):
        # the second cloud repeats voxels of its own; at offset 0.03 some of them the first holds
        rng = np.random.default_rng(5)
        a = np.round(rng.uniform(0.0, 0.1, size=(40, 3)), 2) + rng.uniform(0, 0.019, size=(40, 3))
        b = np.round(rng.uniform(0.0, 0.1, size=(40, 3)), 2) + offset + rng.uniform(0, 0.019, size=(40, 3))
        b = np.vstack([b, b[::3] + 0.001])
        keys_a, keys_b = set(voxel_keys(a)), set(voxel_keys(b))
        assert (keys_a & keys_b == set()) == (offset == 10.0) and keys_b - keys_a
        c = b + 0.05
        parts = [_cut(ObjectCloud(pts, "chair", s, {f})) for pts, s, f in ((a, 0.4, "a"), (b, 0.9, "b"), (c, 0.1, "c"))]
        for n in (2, 3):
            want = _cloud_of(voxel_min_points([a, b, c][:n]), "chair", 0.9, "abc"[:n])
            for order in itertools.permutations(parts[:n]):
                joined, keys = order[0]
                for part in order[1:]:
                    joined, keys = _join((joined, keys), part)
                assert joined.points.tobytes() == want.points.tobytes()
                assert keys.tobytes() == np.unique(voxel_keys(want.points)).tobytes()
                assert joined.score == 0.9 and joined.source_frames == set("abc"[:n])

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            merge_instances([], 0.0)


class TestOrderFree:
    @pytest.mark.guard
    @settings(max_examples=200)
    @given(fusion_inputs(), st.data())
    def test_same_bytes_under_any_order_of_views_instances_and_frame_ids(self, inputs, data):
        """Hypothesis shuffles the views and the instances within each and renames the frames,
        and merge_instances must not move a byte of any instance or of the list order."""
        views, threshold = inputs
        names = sorted({f for view in views for cloud in view for f in cloud.source_frames})
        rename = dict(zip(names, data.draw(st.permutations(names))))

        def renamed(cloud):
            return ObjectCloud(cloud.points, cloud.label, cloud.score, {rename[f] for f in cloud.source_frames})

        shuffled = [data.draw(st.permutations([renamed(c) for c in view])) for view in data.draw(st.permutations(views))]
        want = [renamed(c) for c in merge_instances(views, threshold)]
        assert_same_instances(merge_instances(shuffled, threshold), want)

    @given(fusion_inputs())
    def test_fixpoint_and_idempotent(self, inputs):
        views, threshold = inputs
        fused = merge_instances(views, threshold)
        for a, b in itertools.combinations(fused, 2):
            assert a.label != b.label or iou_3d(a.box, b.box) <= threshold
        assert_same_instances(merge_instances([fused], threshold), fused)


class TestRunScene:
    def test_matches_inline_reference(self, oracle_scene_dir):
        # a tiny z-score threshold empties some filtered depths, so detections drop
        views = list(scene_io.iter_views(oracle_scene_dir))
        config = PipelineConfig(tau=0.01)
        got, stats = run_scene(views, config)
        want, want_dropped = run_scene_reference(views, config)
        assert stats.dropped == want_dropped > 0
        assert (stats.views, stats.detections) == (20, sum(len(v.masks) for v in views))
        assert len(got) == len(want) > 0
        for cg, cw in zip(got, want):
            assert np.array_equal(cg.points, cw.points)
            assert (cg.label, cg.score, cg.source_frames) == (cw.label, cw.score, cw.source_frames)
            assert np.array_equal(cg.box.min_corner, cw.box.min_corner)
            assert np.array_equal(cg.box.max_corner, cw.box.max_corner)

    @settings(max_examples=60, deadline=None)
    @given(small_scenes())
    def test_streamed_views_match_batch_merge_on_every_prefix(self, scene):
        views, config = scene
        per_view = [[reconstruct_object(v.frame, m, config) for m in v.masks] for v in views]
        for k in range(len(views) + 1):
            got, stats = run_scene((view for view in views[:k]), config)
            clouds = [c for row in per_view[:k] for c in row]
            kept = [[c for c in row if c is not None] for row in per_view[:k]]
            want = merge_instances(kept, config.merge_threshold)
            assert (stats.views, stats.detections, stats.dropped) == (k, len(clouds), clouds.count(None))
            assert len(got) == len(want)
            for cg, cw in zip(got, want):
                assert np.array_equal(cg.points, cw.points)
                assert (cg.label, cg.score, cg.source_frames) == (cw.label, cw.score, cw.source_frames)

    def test_no_view_is_held_once_the_next_is_read(self, oracle_scene_dir):
        # when the source is asked for view k + 1, nothing references the depth of views 0..k
        class Watched:
            def __init__(self, views):
                self.views, self.depths = iter(views), []

            def __iter__(self):
                return self

            def __next__(self):
                assert all(ref() is None for ref in self.depths), "an earlier view's depth is still referenced"
                view = next(self.views)
                self.depths.append(weakref.ref(view.frame.depth))
                return view

        source = Watched(scene_io.iter_views(oracle_scene_dir))
        instances, stats = run_scene(source, PipelineConfig())
        assert stats.views == len(source.depths) == 20 and instances
