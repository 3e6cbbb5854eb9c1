"""Scene loading and artifact export.

On-disk scene layout::

    scene_dir/
      intrinsics.txt              one line: fx fy cx cy width height depth_scale
      frames/<id>.depth.pgm       16-bit grayscale PGM; meters = value * depth_scale
      frames/<id>.pose.txt        4x4 row-major camera-to-world matrix
      frames/<id>.detections.txt  one detection per line: x1 y1 x2 y2 score label; '#' comments
      frames/<id>.mask.<k>.pgm    binary PGM (0/255) over the window of detection k's clamped box
      gt/labels.txt               optional ground truth: one instance label per line, k order
      gt/ids/<id>.pgm             instance-id PGM of frame <id>: 0 background, k+1 instance k

Frames are ordered by <id> (zero-padded ids sort naturally). A mask file
holds its detection's window (:attr:`Detection2D.window` of the box clamped
to the image) and nothing else, as 0/255 samples: it loads as the mask's
bitmap unchanged.
The loaders read each raster once: a P5 PGM's samples are a read-only view
of the file bytes, in the file's own dtype (one byte, or big-endian two),
and depth goes from that view straight to float64 metres.
RGB images may sit next to the depth files but are never read here. Loading
validates every invariant and never repairs data silently; a file that
cannot be read or decoded raises SceneLayoutError naming it. Views stream:
:func:`iter_views` lists frames/ once and reads each frame when it is reached.

Ground truth is not read by :func:`iter_views`: :func:`load_gt_instances`
derives it from the id images, depth and poses, so malformed ground truth
raises its file-naming SceneError only where it is read. It streams the
frames like :func:`iter_views` and holds each instance as the voxels it
occupies (:class:`GroundTruth`, on ``types.VOXEL_SIZE``), not as points, so
its memory does not grow with the number of views.

Prediction layout (:func:`write_instances`, read back by :func:`iter_instances`)::

    pred_dir/
      boxes.json                  one record per instance k: label, score, min/max corner, num_points
      cloud_<k>_<label>.ply       instance k's points (k zero-padded to 4 digits) as binary little-endian
                                  PLY of double x/y/z: bit for bit, so its box equals boxes.json's
"""
from __future__ import annotations

import json
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

from .fusion import sorted_union, sorted_unique, voxel_keys
from .projection import back_project_pixels, to_world
from .types import CameraIntrinsics, CameraPose, DepthFrame, Detection2D, GroundTruth, InstanceMask, ObjectCloud


class SceneError(Exception):
    """Base class for scene loading problems."""


class SceneLayoutError(SceneError):
    """A required file or directory is missing or unreadable."""


class SceneValidationError(SceneError, ValueError):
    """Loaded data violates a documented invariant."""


T = TypeVar("T")


@dataclass(frozen=True)
class SceneView:
    """One frame and its detections, as InstanceMasks in detections-file order."""

    frame: DepthFrame
    masks: list[InstanceMask]


# ---------------------------------------------------------------------------
# Text files: one opener; line records (detections, key = value, synth --boxes, worlds)
# ---------------------------------------------------------------------------

def _read_text(path: Path) -> str:
    """The text of a file; a missing, unreadable or non-UTF-8 file raises SceneLayoutError naming it."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise SceneLayoutError(f"cannot read {path}: {e}") from e


def read_records(path: Path, parse: Callable[[str], T]) -> list[T]:
    """``parse`` applied to each record line of a text file, in file order.

    '#' starts a comment that runs to the end of the line and blank lines are
    skipped; ``parse`` gets each other line stripped. An unreadable file
    raises SceneLayoutError (:func:`_read_text`); a ValueError from ``parse``
    is raised again as SceneValidationError("path:lineno: reason").
    """
    records = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            try:
                records.append(parse(line))
            except ValueError as e:
                raise SceneValidationError(f"{path}:{lineno}: {e}") from e
    return records


def _key_value(line: str) -> tuple[str, str]:
    key, sep, value = line.partition("=")
    if not sep:
        raise ValueError(f"expected 'key = value', got {line!r}")
    return key.strip().replace("-", "_"), value.strip()


def read_key_values(path: Path) -> dict[str, str]:
    """Parse 'key = value' lines (see :func:`read_records`) into raw strings; the caller casts.

    '-' in a key folds to '_' and a later line wins over an earlier one with the same key.
    """
    return dict(read_records(path, _key_value))


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def _read_raster(path: Path) -> np.ndarray:
    """The (height, width) samples of a P5 (binary) grayscale PGM, in the file's dtype.

    The raster comes back as a read-only view of the file bytes, ``u1`` or
    big-endian ``>u2``: no copy is made. Samples are checked against maxval
    unless maxval is the dtype's largest value, where no sample can exceed it.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise SceneLayoutError(f"cannot read PGM file {path}: {e}") from e
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(raw):
            raise SceneValidationError(f"{path}: truncated PGM header")
        chunk = raw[pos:pos + 1]
        if chunk == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                raise SceneValidationError(f"{path}: unterminated PGM comment")
            pos += 1
        elif chunk.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    magic = tokens[0].decode("ascii", "replace")
    if magic != "P5":
        raise SceneValidationError(f"{path}: unsupported PGM magic {magic!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as e:
        raise SceneValidationError(f"{path}: malformed PGM header") from e
    if not (0 < maxval <= 65535):
        raise SceneValidationError(f"{path}: PGM maxval {maxval} outside (0, 65535]")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    if not 0 <= width * height * dtype.itemsize <= len(raw) - pos:
        raise SceneValidationError(f"{path}: truncated PGM raster")
    values = np.frombuffer(raw, dtype, count=width * height, offset=pos)  # a view of the file bytes
    if maxval < np.iinfo(values.dtype).max and values.size and values.max() > maxval:
        raise SceneValidationError(f"{path}: sample exceeds declared maxval {maxval}")
    return values.reshape(height, width)


def write_pgm(path: Path, image: np.ndarray, maxval: int = 65535) -> None:
    """Write a P5 (binary) grayscale PGM; 2 bytes big-endian when maxval > 255.

    maxval must be an integer in (0, 65535], as the reader requires. The samples must
    be bool or integers in [0, maxval]: any other dtype, a negative sample
    or one above maxval raises ValueError, never a wrapped or truncated
    value. A C-contiguous ``u1`` (maxval <= 255) or ``>u2`` (maxval > 255)
    image already holds the file's bytes and is written from its own buffer;
    any other is converted first.
    """
    maxval = operator.index(maxval)  # a fractional maxval would write a header the reader rejects
    if not 0 < maxval <= 65535:
        raise ValueError(f"PGM maxval {maxval} outside (0, 65535]")
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"PGM image must be 2D, got shape {image.shape}")
    if image.dtype.kind not in "biu":
        raise ValueError(f"PGM samples must be integers or bool, got dtype {image.dtype}")
    # unsigned samples cannot be negative, so only signed ones take this pass
    if image.dtype.kind == "i" and image.size and int(image.min()) < 0:
        raise ValueError(f"image min {int(image.min())} is negative")
    # nor can a sample exceed a maxval at or above its dtype's largest value
    top = 1 if image.dtype.kind == "b" else np.iinfo(image.dtype).max
    if top > maxval and image.size and int(image.max()) > maxval:
        raise ValueError(f"image max {int(image.max())} exceeds maxval {maxval}")
    h, w = image.shape
    samples = np.ascontiguousarray(image, dtype=">u2" if maxval > 255 else "u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(samples)


# ---------------------------------------------------------------------------
# Scene loading
# ---------------------------------------------------------------------------

def load_intrinsics(path: Path) -> tuple[CameraIntrinsics, float]:
    """The camera intrinsics and depth scale of an intrinsics.txt."""
    fields = _read_text(path).split()
    if len(fields) != 7:
        raise SceneValidationError(
            f"{path}: expected 7 fields (fx fy cx cy width height depth_scale), got {len(fields)}"
        )
    try:
        fx, fy, cx, cy = (float(v) for v in fields[:4])
        width, height = int(fields[4]), int(fields[5])
        depth_scale = float(fields[6])
    except ValueError as e:
        raise SceneValidationError(f"{path}: non-numeric intrinsics field: {e}") from e
    if not depth_scale > 0:
        raise SceneValidationError(f"{path}: depth_scale must be positive, got {depth_scale}")
    try:
        intr = CameraIntrinsics(fx, fy, cx, cy, width, height)
    except ValueError as e:
        raise SceneValidationError(f"{path}: {e}") from e
    return intr, depth_scale


def _read_raw_depth(path: Path, frame_id: str, intr: CameraIntrinsics) -> np.ndarray:
    """The unscaled depth samples of a frame (:func:`_read_raster`), checked against the intrinsics' image shape."""
    raw = _read_raster(path)
    if raw.shape != (intr.height, intr.width):
        raise SceneValidationError(
            f"frame {frame_id}: depth shape {raw.shape} does not match "
            f"intrinsics ({intr.height}, {intr.width})"
        )
    return raw


def _load_depth(path: Path, frame_id: str, intr: CameraIntrinsics, depth_scale: float) -> np.ndarray:
    # straight from the file's samples to float64 metres: the one copy of the raster
    return np.multiply(_read_raw_depth(path, frame_id, intr), depth_scale, dtype=np.float64)


def _load_pose(path: Path, frame_id: str) -> CameraPose:
    values = _read_text(path).split()
    if len(values) != 16:
        raise SceneValidationError(f"frame {frame_id}: pose file must hold 16 numbers, got {len(values)}")
    try:
        m = np.array(values, dtype=np.float64).reshape(4, 4)
        return CameraPose.from_matrix(m)
    except ValueError as e:
        raise SceneValidationError(f"frame {frame_id}: invalid pose: {e}") from e


def _clamp_box(box: tuple[float, float, float, float], intr: CameraIntrinsics):
    x1, y1, x2, y2 = box
    return (max(x1, 0.0), max(y1, 0.0), min(x2, float(intr.width)), min(y2, float(intr.height)))


def _load_detections(path: Path, intr: CameraIntrinsics) -> list[Detection2D]:
    def detection(line: str) -> Detection2D:
        parts = line.split(maxsplit=5)
        if len(parts) != 6:
            raise ValueError("expected 'x1 y1 x2 y2 score label'")
        x1, y1, x2, y2, score = (float(v) for v in parts[:5])
        return Detection2D(_clamp_box((x1, y1, x2, y2), intr), score, parts[5])

    return read_records(path, detection)


def _load_mask(path: Path, frame_id: str, k: int, det: Detection2D) -> InstanceMask:
    raw = _read_raster(path)
    bitmap = raw == 255
    if not (bitmap | (raw == 0)).all():
        raise SceneValidationError(f"frame {frame_id}: mask {k} has values other than 0/255")
    try:
        return InstanceMask(bitmap, det)
    except ValueError as e:  # a raster that is not the box's window
        raise SceneValidationError(f"frame {frame_id}: mask {k}: {e}") from e


def list_frames(scene_dir: Path) -> tuple[list[str], list[str]]:
    """The sorted ids of a scene's frames, from its frames/<id>.depth.pgm names (never empty), and
    every name in frames/: one listing of the directory."""
    frames_dir = Path(scene_dir) / "frames"
    names = os.listdir(frames_dir) if frames_dir.is_dir() else []
    ids = sorted(n[: -len(".depth.pgm")] for n in names if n.endswith(".depth.pgm"))
    if not ids:
        raise SceneLayoutError(f"no '<id>.depth.pgm' files under {frames_dir}")
    return ids, names


def load_view(scene_dir: Path, frame_id: str, intr: CameraIntrinsics, depth_scale: float) -> SceneView:
    """One frame of a scene and its detections, validated; raises SceneError subclasses naming the frame.

    A stray mask file, one no detection owns, is caught by :func:`iter_views`.
    """
    frames_dir = Path(scene_dir) / "frames"
    depth = _load_depth(frames_dir / f"{frame_id}.depth.pgm", frame_id, intr, depth_scale)
    pose = _load_pose(frames_dir / f"{frame_id}.pose.txt", frame_id)
    detections = _load_detections(frames_dir / f"{frame_id}.detections.txt", intr)
    masks = [
        _load_mask(frames_dir / f"{frame_id}.mask.{k}.pgm", frame_id, k, det)
        for k, det in enumerate(detections)
    ]
    return SceneView(DepthFrame(frame_id, depth, intr, pose), masks)


def _no_stray_masks(view: SceneView, names: list[str]) -> SceneView:
    """``view``, unless the frames/ ``names`` hold a ``<id>.mask.*.pgm`` file (id taken literally) no detection owns."""
    prefix = f"{view.frame.frame_id}.mask."
    count = sum(n.startswith(prefix) and n.endswith(".pgm") and len(n) >= len(prefix) + 4 for n in names)
    if count != len(view.masks):
        raise SceneValidationError(f"frame {view.frame.frame_id}: {count} mask files for {len(view.masks)} detections")
    return view


def iter_views(scene_dir: Path) -> Iterator[SceneView]:
    """The views of a scene directory in frame-id order, loaded one at a time.

    The directory, its intrinsics and its frame ids are checked before this
    returns, and frames/ is listed once. Each frame is read and validated by
    :func:`load_view`, and its mask files counted in that listing, only when
    the iterator reaches it, so a bad frame k raises its SceneError after
    the views before it have been yielded. The iterator keeps no view: a
    consumer that drops each view before asking for the next holds one
    frame's depth at a time. Ground truth is not read (see
    :func:`load_gt_instances`).
    """
    root = Path(scene_dir)
    if not root.is_dir():
        raise SceneLayoutError(f"scene directory {root} does not exist")
    intr, depth_scale = load_intrinsics(root / "intrinsics.txt")
    ids, names = list_frames(root)
    return (_no_stray_masks(load_view(root, frame_id, intr, depth_scale), names) for frame_id in ids)


# ---------------------------------------------------------------------------
# Ground truth: instance labels and per-frame instance-id images
# ---------------------------------------------------------------------------

def load_gt_labels(scene_dir: Path) -> list[str]:
    """The instance labels of gt/labels.txt, instance k on line k + 1."""
    path = Path(scene_dir) / "gt" / "labels.txt"
    labels = [line.strip() for line in _read_text(path).splitlines()]
    if "" in labels:
        raise SceneValidationError(f"{path}:{labels.index('') + 1}: empty label")
    return labels


def load_gt_ids(scene_dir: Path, frame_id: str, intr: CameraIntrinsics, num_labels: int) -> np.ndarray:
    """The instance-id image gt/ids/<frame_id>.pgm, checked against the intrinsics and label count.

    The ids come back as a read-only view of the file bytes, in the file's
    own dtype (``u1`` or ``>u2``).
    """
    path = Path(scene_dir) / "gt" / "ids" / f"{frame_id}.pgm"
    ids = _read_raster(path)
    if ids.shape != (intr.height, intr.width):
        raise SceneValidationError(
            f"frame {frame_id}: id image {path} shape {ids.shape} does not match "
            f"intrinsics ({intr.height}, {intr.width})"
        )
    if ids.size and int(ids.max()) > num_labels:
        raise SceneValidationError(
            f"frame {frame_id}: id image {path} holds id {int(ids.max())}, "
            f"but gt/labels.txt lists {num_labels} label(s)"
        )
    return ids


def load_gt_instances(scene_dir: Path) -> list[GroundTruth]:
    """Ground-truth instances of a scene, one per label, as the voxels they occupy.

    The points of instance k are the pixels with id k + 1 back-projected with
    the frame's saved depth and pose. Frames stream in id order: each is read,
    checked and reduced to the voxel keys of each instance's points before
    the next is read, so no frame's points outlive it and memory does not
    grow with the number of frames. An empty label list or a label with no
    pixel in any id image raises SceneValidationError.

    Each frame's pixels are located once: one ``flatnonzero`` of the id image
    gives the flat indices of its id pixels, a stable sort by id groups them
    into one contiguous, row-major run per instance, and depth is scaled only
    at those pixels. Each run is back-projected and keyed on its own, and only
    its keys are sorted: they are merged into the instance's held set, which
    is never sorted again (:func:`fusion.sorted_union`).
    """
    root = Path(scene_dir)
    labels = load_gt_labels(root)
    if not labels:
        raise SceneValidationError(f"{root / 'gt' / 'labels.txt'}: no labels")
    intr, depth_scale = load_intrinsics(root / "intrinsics.txt")
    gt_frame_ids = sorted(p.stem for p in (root / "gt" / "ids").glob("*.pgm"))
    if not gt_frame_ids:
        raise SceneLayoutError(f"no '<id>.pgm' instance-id images under {root / 'gt' / 'ids'}")
    keys = [np.empty(0, dtype=np.int64) for _ in labels]
    for frame_id in gt_frame_ids:
        ids = load_gt_ids(root, frame_id, intr, len(labels)).ravel()
        raw = _read_raw_depth(root / "frames" / f"{frame_id}.depth.pgm", frame_id, intr).ravel()
        pose = _load_pose(root / "frames" / f"{frame_id}.pose.txt", frame_id)
        pixels = np.flatnonzero(ids)
        owner = ids[pixels]
        order = np.argsort(owner, kind="stable")
        pixels = pixels[order]
        # instance k holds pixels[bounds[k]:bounds[k + 1]], ascending: row-major order
        bounds = np.searchsorted(owner[order], np.arange(1, len(labels) + 2))
        vs, us = np.divmod(pixels, intr.width)
        depth = np.multiply(raw[pixels], depth_scale, dtype=np.float64)
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                points = to_world(back_project_pixels(us[lo:hi], vs[lo:hi], depth[lo:hi], intr), pose)
                keys[k] = sorted_union(keys[k], sorted_unique(voxel_keys(points)))
    unseen = [label for label, k in zip(labels, keys) if not k.size]
    if unseen:
        raise SceneValidationError(f"{root / 'gt'}: labels with no pixels in any id image: {unseen}")
    return [GroundTruth(label, k) for label, k in zip(labels, keys)]


# ---------------------------------------------------------------------------
# Frame-file writers (used by the synthetic-scene generator)
# ---------------------------------------------------------------------------

def write_intrinsics(path: Path, intr: CameraIntrinsics, depth_scale: float) -> None:
    Path(path).write_text(
        f"{intr.fx:.9g} {intr.fy:.9g} {intr.cx:.9g} {intr.cy:.9g} "
        f"{intr.width} {intr.height} {depth_scale:.9g}\n"
    )


def write_pose(path: Path, pose: CameraPose) -> None:
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in pose.matrix())
    Path(path).write_text(rows + "\n")


def write_detections(path: Path, detections: list[Detection2D]) -> None:
    lines = [
        f"{d.box[0]:.9g} {d.box[1]:.9g} {d.box[2]:.9g} {d.box[3]:.9g} {d.score:.9g} {d.label}"
        for d in detections
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


# ---------------------------------------------------------------------------
# Point-cloud PLY
# ---------------------------------------------------------------------------

def _ply_header(count, comments: str = "") -> str:
    """The header of a cloud PLY: binary little-endian, ``count`` vertices of double x/y/z."""
    return (
        f"ply\nformat binary_little_endian 1.0\n{comments}element vertex {count}\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
    )


def write_cloud_ply(cloud: ObjectCloud, path: Path) -> None:
    """Write a binary little-endian PLY with one double x/y/z vertex per point.

    The body is the points as one C-order ``<f8`` buffer, so every
    coordinate reads back with its exact bits. Label and score are header
    comments.
    """
    comments = f"comment label {cloud.label}\ncomment score {cloud.score:.9g}\n"
    with Path(path).open("wb") as f:
        f.write(_ply_header(len(cloud.points), comments).encode())
        f.write(np.ascontiguousarray(cloud.points, dtype="<f8"))


def read_cloud_ply(path: Path) -> np.ndarray:
    """The (N, 3) vertices of a PLY written by :func:`write_cloud_ply`; errors name the file.

    Apart from its comments, the header must be the one :func:`write_cloud_ply`
    writes, and the body must hold exactly 24 bytes per vertex. The points
    come back as a read-only view of the file bytes: no copy is made.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise SceneLayoutError(f"cannot read {path}: {e}") from e
    end = re.search(rb"^[^\S\n]*end_header[^\S\n]*\n", raw, re.MULTILINE)
    lines = raw[:end.end() if end else len(raw)].decode(errors="replace").splitlines()
    fields = [tokens for tokens in map(str.split, lines) if tokens[:1] != ["comment"]]
    count = fields[2][-1] if len(fields) > 2 and fields[2] else ""  # N of "element vertex N"
    if end is None or not count.isdecimal() or fields != [h.split() for h in _ply_header(count).splitlines()]:
        raise SceneValidationError(
            f"{path}: malformed PLY header: expected format binary_little_endian 1.0 and double x/y/z vertices"
        )
    n, body = int(count), len(raw) - end.end()
    if n == 0:
        raise SceneValidationError(f"{path}: PLY holds no vertices")
    if body != 24 * n:
        raise SceneValidationError(f"{path}: header promises {n} vertices ({24 * n} bytes), body holds {body} bytes")
    return np.frombuffer(raw, "<f8", offset=end.end()).reshape(n, 3)  # a view of the file bytes


# ---------------------------------------------------------------------------
# Instance-set documents
# ---------------------------------------------------------------------------

def write_boxes(instances: list[ObjectCloud], path: Path) -> None:
    """Write one machine-readable record per instance (JSON); each box is its cloud's point extremes."""
    records = [
        {
            "label": cloud.label,
            "score": cloud.score,
            "min_corner": list(cloud.box.min_corner),
            "max_corner": list(cloud.box.max_corner),
            "num_points": int(cloud.points.shape[0]),
        }
        for cloud in instances
    ]
    Path(path).write_text(json.dumps({"instances": records}, indent=2) + "\n")


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_") or "object"


def write_instances(instances: list[ObjectCloud], out_dir: Path) -> None:
    """Export a fused instance set: boxes.json plus one PLY cloud per instance.

    Cloud files of an earlier export into the same directory are removed first.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("cloud_*.ply"):
        old.unlink()
    write_boxes(instances, out_dir / "boxes.json")
    for k, cloud in enumerate(instances):
        write_cloud_ply(cloud, out_dir / f"cloud_{k:04d}_{_slug(cloud.label)}.ply")


def iter_instances(pred_dir: Path) -> Iterator[ObjectCloud]:
    """The instances of an instance set written by :func:`write_instances`, read one at a time.

    Label and score come from boxes.json, the points from each PLY; each box
    is recomputed from the points, not read from the JSON corners. pred_dir
    is listed once. Instance k is read and checked only when the iterator
    reaches it, and is not kept; a non-finite vertex raises
    SceneValidationError naming its PLY.
    """
    pred_dir = Path(pred_dir)
    boxes_path = pred_dir / "boxes.json"
    try:
        doc = json.loads(_read_text(boxes_path))
    except json.JSONDecodeError as e:
        raise SceneValidationError(f"{boxes_path}: not JSON: {e}") from e
    records = doc.get("instances") if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise SceneValidationError(f"{boxes_path}: no 'instances' list")
    clouds: dict[str, list[str]] = {}  # the cloud_<k>_*.ply names of pred_dir, by their <k> text
    for name in os.listdir(pred_dir):
        if m := re.fullmatch(r"cloud_([^_]*)_.*\.ply", name, re.DOTALL):
            clouds.setdefault(m[1], []).append(name)
    for k, rec in enumerate(records):
        try:
            label, score = rec["label"], float(rec["score"])
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score {score} outside [0, 1]")
        except (KeyError, TypeError, ValueError) as e:
            raise SceneValidationError(f"{boxes_path}: instance {k} needs a 'label' and a 'score' in [0, 1]") from e
        if not isinstance(label, str) or not label:
            raise SceneValidationError(f"{boxes_path}: instance {k}: 'label' must be a non-empty string, got {label!r}")
        matches = clouds.get(f"{k:04d}", [])
        if len(matches) != 1:
            raise SceneLayoutError(
                f"expected exactly one cloud file for instance {k} in {pred_dir}, found {len(matches)}"
            )
        path = pred_dir / matches[0]
        points = read_cloud_ply(path)
        try:
            cloud = ObjectCloud(points, label, score)
        except ValueError as e:  # a non-finite vertex
            raise SceneValidationError(f"{path}: {e}") from e
        yield cloud
