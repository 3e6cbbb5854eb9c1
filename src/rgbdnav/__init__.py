"""RGB-D detections to 3D object boxes, with fusion, evaluation, and navigation."""

from .types import (
    Box3D,
    CameraIntrinsics,
    CameraPose,
    DepthFrame,
    Detection2D,
    InstanceMask,
    ObjectCloud,
    PipelineConfig,
)

__version__ = "0.1.0"

__all__ = [
    "Box3D",
    "CameraIntrinsics",
    "CameraPose",
    "DepthFrame",
    "Detection2D",
    "InstanceMask",
    "ObjectCloud",
    "PipelineConfig",
    "__version__",
]
