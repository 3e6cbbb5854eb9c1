"""Ground-truth-driven stand-ins for the 2D detector and mask generator.

The synthetic-scene generator renders analytic depth images of labeled
axis-aligned boxes along a camera trajectory. The render returns, with
each depth image, its instance-id raster: 0 for background and k + 1 where
box k owns the pixel, in the dtype of the gt/ids file, which is saved as it
is. Both are built box by box over each box's footprint window, so a
frame's memory traffic scales with the objects it shows. The detection
oracle reads a frame's mask for box k straight from that raster
(``ids == k + 1``) and emits it with the tight box around it, as a bitmap
over that box's window, with optional seeded perturbations for degradation
studies. :func:`make_synthetic_scene` writes a scene in one pass: each
frame's files, detections and masks included, come from its one render.
"""
from __future__ import annotations

import glob
import itertools
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import scene_io
from .masks import erode_bitmap
from .projection import project_to_pixels, to_camera
from .types import Box3D, CameraIntrinsics, CameraPose, Detection2D, InstanceMask

_NEAR = 1e-6


@dataclass(frozen=True)
class LabeledBox:
    """A box and its label, which must read back unchanged from the scene's line files."""

    label: str
    box: Box3D

    def __post_init__(self):
        # gt/labels.txt and the detections files strip each line, and the latter cut it at '#'
        label = self.label
        if "#" in label or label.strip() != label or label.splitlines() != [label]:
            raise ValueError(f"label {label!r} does not read back from the scene files: it must be "
                             "one non-empty line, without '#' and without whitespace at either end")


@dataclass(frozen=True)
class PerturbationConfig:
    """Seeded, declarative detection noise; all off by default.

    mask_erode_px shrinks masks by that many one-pixel erosions (negative
    values dilate instead); box_jitter_px shifts each box coordinate by a
    uniform integer in [-j, j]; drop_prob removes whole instances; score
    noise replaces the unit score with clip(1 - |N(0, score_sigma)|, 0, 1).
    """

    seed: int = 0
    box_jitter_px: int = 0
    mask_erode_px: int = 0
    drop_prob: float = 0.0
    score_sigma: float = 0.0

    def __post_init__(self):
        for name in ("seed", "box_jitter_px", "score_sigma"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ValueError(f"drop_prob must be in [0, 1], got {self.drop_prob}")

    def to_file(self, path: Path) -> None:
        Path(path).write_text(
            f"seed = {self.seed}\n"
            f"box_jitter_px = {self.box_jitter_px}\n"
            f"mask_erode_px = {self.mask_erode_px}\n"
            f"drop_prob = {self.drop_prob:.9g}\n"
            f"score_sigma = {self.score_sigma:.9g}\n"
        )


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> CameraPose:
    """Camera-to-world pose for an eye point looking at a target (z forward, y down)."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("look_at eye and target coincide")
    z = forward / norm
    x = np.cross(z, np.asarray(up, dtype=np.float64))
    xn = np.linalg.norm(x)
    if xn < 1e-12:
        raise ValueError("viewing direction parallel to the up vector")
    x /= xn
    y = np.cross(z, x)
    return CameraPose(np.column_stack([x, y, z]), eye)


def orbit_trajectory(
    center, radius: float, height: float, n_views: int, start_deg: float = 200.0, span_deg: float = 80.0
) -> list[CameraPose]:
    """Poses on a horizontal arc around ``center``, all looking at it."""
    if n_views < 1:
        raise ValueError("n_views must be >= 1")
    center = np.asarray(center, dtype=np.float64)
    angles = np.deg2rad(start_deg + np.linspace(0.0, span_deg, n_views))
    poses = []
    for a in angles:
        eye = center + np.array([radius * np.cos(a), radius * np.sin(a), 0.0])
        eye[2] = height
        poses.append(look_at(eye, center))
    return poses


# Corner pairs joined by the 12 edges of a box whose corners are listed in
# itertools.product order: corners i and i | bit differ in one coordinate.
_EDGES = np.array([(i, i | bit) for bit in (1, 2, 4) for i in range(8) if not i & bit])


def _footprint(box: Box3D, pose: CameraPose, intrinsics: CameraIntrinsics) -> tuple[slice, slice]:
    """Rows and columns of the pixels whose rays can hit the box.

    A hit needs a depth above _NEAR, so only the part of the box in front of
    a clipping plane at half that depth counts (the margin absorbs rounding
    in the ray test): the corners beyond the plane plus the points where the
    box's edges cross it. The footprint is the bounding rectangle of those
    points projected, widened by 1 px and clipped to the image; empty when
    no corner lies beyond the plane, where no point of the box can be hit.
    """
    corners = np.array(list(itertools.product(*zip(box.min_corner, box.max_corner))))
    cam = to_camera(corners, pose)
    near = 0.5 * _NEAR
    front = cam[:, 2] > near
    if not front.any():
        return slice(0, 0), slice(0, 0)
    if not front.all():
        a, b = cam[_EDGES[:, 0]], cam[_EDGES[:, 1]]
        crossing = front[_EDGES[:, 0]] != front[_EDGES[:, 1]]
        a, b = a[crossing], b[crossing]
        cut = a + ((near - a[:, 2]) / (b[:, 2] - a[:, 2]))[:, None] * (b - a)
        cut[:, 2] = near
        cam = np.vstack([cam[front], cut])
    u, v = project_to_pixels(cam, intrinsics)
    rows = slice(max(int(np.floor(v.min())) - 1, 0), min(int(np.ceil(v.max())) + 2, intrinsics.height))
    cols = slice(max(int(np.floor(u.min())) - 1, 0), min(int(np.ceil(u.max())) + 2, intrinsics.width))
    return rows, cols


def render_depth(
    boxes: list[LabeledBox],
    pose: CameraPose,
    intrinsics: CameraIntrinsics,
    footprints: list[tuple[slice, slice]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-surface z-depth per pixel (0 = none) plus the instance-id raster.

    The ids are the gt/ids raster itself: 0 is background and k + 1 is box
    k, as uint8 for up to 255 boxes and uint16 above that. Each box is
    ray-tested only over its footprint: the bounding rectangle of its
    projected corners widened by 1 px and clipped to the image, with a box
    that reaches behind the camera first clipped to its part in front of it
    (:func:`_footprint`). The rays are built over that window alone, in
    scratch sized to the largest window, so a frame's memory traffic scales
    with the footprints, not the image. A box whose footprint misses the
    image, or that lies wholly behind the camera, is skipped.
    ``footprints``, when given, holds each box's :func:`_footprint` for this
    pose, so a caller that needs them too computes them once.
    """
    if not boxes:
        raise ValueError("render_depth needs at least one box")
    h, w = intrinsics.height, intrinsics.width
    origin = pose.translation
    depth = np.zeros((h, w))
    ids = np.zeros((h, w), dtype=np.uint8 if len(boxes) <= 255 else np.uint16)
    if footprints is None:
        footprints = [_footprint(lb.box, pose, intrinsics) for lb in boxes]
    windows = [
        (i, rows, cols) for i, (rows, cols) in enumerate(footprints)
        if rows.start < rows.stop and cols.start < cols.stop
    ]
    # every box's slab runs in the leading part of scratch sized for the largest window
    n_max = max(((rows.stop - rows.start) * (cols.stop - cols.start) for _, rows, cols in windows), default=0)
    scratch = np.empty((3, 3 * n_max))
    flags = np.empty((3, n_max), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, rows, cols in windows:
            box = boxes[i].box
            nv, nu = rows.stop - rows.start, cols.stop - cols.start
            n = nv * nu
            # one contiguous window per axis: camera rays (x by column, y by row, z = 1),
            # then world rays as R @ d, which rounds as the row-major d @ R.T does
            a, b, c = (buf[:3 * n].reshape(3, nv, nu) for buf in scratch)
            a[0] = (np.arange(cols.start, cols.stop, dtype=np.float64) - intrinsics.cx) / intrinsics.fx
            a[1] = ((np.arange(rows.start, rows.stop, dtype=np.float64) - intrinsics.cy) / intrinsics.fy)[:, None]
            a[2] = 1.0
            np.matmul(pose.rotation, a.reshape(3, n), out=b.reshape(3, n))
            inv = np.divide(1.0, b, out=a)
            t1 = np.multiply((box.min_corner - origin)[:, None, None], inv, out=b)
            t2 = np.multiply((box.max_corner - origin)[:, None, None], inv, out=c)
            lo, hi = np.minimum(t1, t2, out=inv), np.maximum(t1, t2, out=t2)
            # fmax/fmin skip NaN (0 * inf on a slab plane) and keep an all-NaN triple NaN.
            tmin = np.fmax(np.fmax(lo[0], lo[1], out=t1[0]), lo[2], out=t1[0])
            tmax = np.fmin(np.fmin(hi[0], hi[1], out=t1[1]), hi[2], out=t1[1])
            # 0 is empty: a hit has tmin > _NEAR, and tmin = +inf is never one, since
            # some ray component is nonzero and keeps tmax finite; otherwise strictly
            # nearer, so on a tie the earlier box keeps the pixel
            d, o = depth[rows, cols], ids[rows, cols]
            hit, test, empty = (f[:n].reshape(nv, nu) for f in flags)
            np.greater_equal(tmax, tmin, out=hit)
            hit &= np.greater(tmin, _NEAR, out=test)
            np.less(tmin, d, out=test)
            test |= np.equal(d, 0.0, out=empty)
            hit &= test
            np.copyto(d, tmin, where=hit)
            np.copyto(o, i + 1, where=hit)
    # The ray parameter equals the camera-frame z coordinate because the ray
    # direction has unit z in the camera frame.
    return depth, ids


def make_synthetic_scene(
    boxes: list[LabeledBox],
    trajectory: list[CameraPose],
    intrinsics: CameraIntrinsics,
    scene_dir: Path,
    noise: PerturbationConfig = PerturbationConfig(),
    depth_scale: float = 0.001,
) -> int:
    """Write a scene in one pass; returns the number of detections written.

    Each frame's depth, pose and gt/ids images, and its oracle detections and
    masks (:func:`render_gt_detections` with ``noise``), come from its one
    render; nothing written is read back. The files of any other frame id
    already in ``scene_dir``, and every earlier mask file, are removed first.
    """
    if not boxes:
        raise ValueError("empty box list: nothing to render")
    if not trajectory:
        raise ValueError("zero-length camera trajectory")
    scene_dir = Path(scene_dir)
    frames_dir = scene_dir / "frames"
    ids_dir = scene_dir / "gt" / "ids"
    for d in (frames_dir, ids_dir):
        d.mkdir(parents=True, exist_ok=True)
    written = {f"{i:04d}" for i in range(len(trajectory))}
    earlier = {p.name[: -len(".depth.pgm")] for p in frames_dir.glob("*.depth.pgm")}
    earlier |= {p.stem for p in ids_dir.glob("*.pgm")}
    for stale in earlier - written:
        for old in [*frames_dir.glob(f"{glob.escape(stale)}.*"), ids_dir / f"{stale}.pgm"]:
            old.unlink(missing_ok=True)
    for old in frames_dir.glob("*.mask.*.pgm"):
        old.unlink()
    scene_io.write_intrinsics(scene_dir / "intrinsics.txt", intrinsics, depth_scale)
    labels = [lb.label for lb in boxes]
    pixels = np.zeros(len(boxes), dtype=np.int64)
    total = 0
    # one big-endian raster for every frame's depth, so write_pgm writes its buffer as it is
    image = np.zeros((intrinsics.height, intrinsics.width), dtype=">u2")
    for i, pose in enumerate(trajectory):
        frame_id = f"{i:04d}"
        footprints = [_footprint(lb.box, pose, intrinsics) for lb in boxes]
        depth, ids = render_depth(boxes, pose, intrinsics, footprints)
        # unowned pixels are 0 in both rasters, so only the owned ones are converted
        owned = np.flatnonzero(ids)
        quantized = np.round(depth.ravel()[owned] / depth_scale)
        if (quantized > 65535).any():
            raise ValueError(
                f"frame {frame_id}: depth {depth.max():.3f} m overflows 16 bits at scale {depth_scale}"
            )
        if (quantized == 0).any():
            raise ValueError(f"frame {frame_id}: surface closer than one depth quantum to the camera")
        image.fill(0)
        image.ravel()[owned] = quantized
        scene_io.write_pgm(frames_dir / f"{frame_id}.depth.pgm", image)
        scene_io.write_pose(frames_dir / f"{frame_id}.pose.txt", pose)
        scene_io.write_pgm(ids_dir / f"{frame_id}.pgm", ids, maxval=np.iinfo(ids.dtype).max)
        pixels += np.bincount(ids.ravel()[owned], minlength=len(boxes) + 1)[1:]
        masks = render_gt_detections(frame_id, ids, labels, noise, footprints)
        scene_io.write_detections(frames_dir / f"{frame_id}.detections.txt", [m.detection for m in masks])
        for k, m in enumerate(masks):
            # a mask file is its bitmap over the box's window, as 0/255
            scene_io.write_pgm(frames_dir / f"{frame_id}.mask.{k}.pgm", m.bitmap * np.uint8(255), maxval=255)
        total += len(masks)
        # free this frame's rasters before the next render makes its own, or both
        # frames' are live at once and the heap grows and shrinks by them every frame
        del depth, ids, masks
    unseen = [lb.label for lb, n in zip(boxes, pixels) if n == 0]
    if unseen:
        raise ValueError(f"boxes outside every camera frustum: {unseen}")
    (scene_dir / "gt" / "labels.txt").write_text("".join(f"{label}\n" for label in labels))
    return total


def _dilate_bitmap(bitmap: np.ndarray, size: int) -> np.ndarray:
    """Binary dilation by the full ``size`` square, clipped to the bitmap: the complement of eroding the padded complement."""
    (h, w), r = bitmap.shape, size // 2
    background = np.ones((h + 2 * r, w + 2 * r), dtype=bool)
    background[r:r + h, r:r + w] = ~bitmap
    return ~erode_bitmap(background, size)[r:r + h, r:r + w]


def _extent(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """Half-open (top, bottom, left, right) bounds of a 2-D bool mask's set pixels; None if none is set.

    Rows from one row reduction, columns from a column reduction over their band.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(mask[rows[0]:rows[-1] + 1].any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def render_gt_detections(
    frame_id: str,
    ids: np.ndarray,
    labels: list[str],
    noise: PerturbationConfig = PerturbationConfig(),
    footprints: list[tuple[slice, slice]] | None = None,
) -> list[InstanceMask]:
    """Synthesize detector/mask outputs for one frame from its instance-id image.

    Returns one InstanceMask, carrying its Detection2D, per detection in label
    order. The mask of label k is ``ids == k + 1`` within its box. Labels with
    no pixels in the frame are omitted; perturbations seeded by ``noise.seed``
    and ``frame_id`` may then drop, shrink, or jitter the survivors. Each
    label's morphology runs on its bounding rectangle, widened by the pixels
    dilation and jitter can add, so the final box always lies inside it.
    With ``footprints`` (the windows :func:`render_depth` rendered ``ids``
    over), label k is looked for only inside its box's window, the one
    place it can be; without them, over the whole raster.
    """
    rng = np.random.default_rng([noise.seed, zlib.crc32(frame_id.encode())])
    height, width = ids.shape
    grow = max(-noise.mask_erode_px, 0) + noise.box_jitter_px
    masks: list[InstanceMask] = []
    for k, label in enumerate(labels):
        rows, cols = footprints[k] if footprints is not None else (slice(0, height), slice(0, width))
        extent = _extent(ids[rows, cols] == k + 1)
        if extent is None:
            continue
        if noise.drop_prob > 0 and rng.random() < noise.drop_prob:
            continue
        top, bottom, left, right = extent
        top, bottom = max(rows.start + top - grow, 0), min(rows.start + bottom + grow, height)
        left, right = max(cols.start + left - grow, 0), min(cols.start + right + grow, width)
        bitmap = ids[top:bottom, left:right] == k + 1
        if noise.mask_erode_px:
            # k one-pixel steps in one call: k 3x3 erosions with a zero border are one (2k+1)
            # erosion, and k 3x3 dilations clipped to the rectangular window one (2k+1) dilation
            morph = erode_bitmap if noise.mask_erode_px > 0 else _dilate_bitmap
            bitmap = morph(bitmap, 2 * abs(noise.mask_erode_px) + 1)
        extent = _extent(bitmap)
        if extent is None:
            continue
        y1, y2, x1, x2 = top + extent[0], top + extent[1], left + extent[2], left + extent[3]
        if noise.box_jitter_px > 0:
            j = noise.box_jitter_px
            dx1, dy1, dx2, dy2 = rng.integers(-j, j + 1, size=4)
            x1 = max(0, x1 + int(dx1))
            y1 = max(0, y1 + int(dy1))
            x2 = min(width, x2 + int(dx2))
            y2 = min(height, y2 + int(dy2))
            if x1 >= x2 or y1 >= y2:
                continue
        bitmap = bitmap[y1 - top:y2 - top, x1 - left:x2 - left]
        if not bitmap.any():
            continue
        score = 1.0
        if noise.score_sigma > 0:
            score = float(np.clip(1.0 - abs(rng.normal(0.0, noise.score_sigma)), 0.0, 1.0))
        det = Detection2D((float(x1), float(y1), float(x2), float(y2)), score, label)
        masks.append(InstanceMask(bitmap, det))
    return masks


def default_intrinsics(width: int = 416, height: int = 312, focal: float = 420.0) -> CameraIntrinsics:
    return CameraIntrinsics(focal, focal, (width - 1) / 2.0, (height - 1) / 2.0, width, height)


def default_box_layout() -> list[LabeledBox]:
    """Three desk-scale objects on the ground plane near the origin.

    Sized so that, with the default orbit, every object stays fully inside
    every frame and each single-view reconstruction already boxes most of
    the object (same-class views then fuse instead of fragmenting).
    """
    return [
        LabeledBox("chair", Box3D(np.array([-0.86, -0.66, 0.0]), np.array([-0.28, -0.12, 0.46]))),
        LabeledBox("table", Box3D(np.array([0.22, -0.28, 0.0]), np.array([0.84, 0.30, 0.49]))),
        LabeledBox("plant", Box3D(np.array([-0.28, 0.50, 0.0]), np.array([0.26, 1.02, 0.44]))),
    ]


def default_trajectory(n_views: int = 20) -> list[CameraPose]:
    """Full orbit around the layout so every face is seen from some view."""
    span = 360.0 * (n_views - 1) / n_views if n_views > 1 else 0.0
    return orbit_trajectory((0.0, 0.0, 0.2), radius=2.4, height=2.5, n_views=n_views, start_deg=0.0, span_deg=span)
