"""fovea: attention-guided corner-keypoint detection on plain numpy.

Compact hourglass backbones as declarative graphs, corner-heatmap decoding,
a saccadic crop-scheduling pipeline, a synthetic-scene oracle for
network-free end-to-end testing, and cost/depth analysis tooling.
"""

from .kernels import (ConvSpec, conv2d, depthwise_conv2d, transpose_conv2d,
                      nearest_upsample2x, max_pool2d, relu, sigmoid,
                      bilinear_resize, resize_longer_side, zero_pad_to)
from .graph import ArchGraph, Node, forward, init_weights
from .builders import (Emit, build_hourglass54, build_hourglass104_reference,
                       build_squeeze_hourglass, build_single_module, BUILDERS)
from .analysis import (cost_report, depth_report, structure_census, compare_archs,
                       param_enumeration, CostReport, DepthReport)
from .decode import (Corner, Detection, heatmap_peaks, group_corners, focal_loss,
                     attention_targets, corner_targets, pull_push_offset_losses, size_class_of)
from .pipeline import (Affine, ObjectLocation, CropWindow, SaccadeConfig, downsize_pair,
                       extract_locations, suppress_locations, make_crop, crop_pixels,
                       strip_boundary_boxes, soft_nms, iou, run_saccade, GraphModel,
                       CROP_SIZE)
from .scene import (SceneSpec, SceneObject, OracleModel, gen_scene, random_scene,
                    oracle_outputs)
from .bench import bench
from .skt import read_tensor, write_tensor

__version__ = "0.1.0"
