"""tivis: transformation-invariant class visualizations for small CNNs."""

from . import parallel  # first: its process settings precede every other module's allocations
from .entropy import (
    avg_gray_change,
    cooccurrence,
    entropy2d,
    entropy_map,
    init_sweep,
    second_order_entropy,
    to_grayscale,
)
from .model_io import load_model, save_model
from .nn import Model, Prediction, forward, input_gradient
from .ppm import read_ppm, write_ppm
from .probes import ScreenRect, classify_report, invert, zero_square
from .shapes import ShapeDataset, generate_dataset
from .training import TrainConfig, evaluate, reference_architecture, train
from .transforms import (
    TransformSchedule,
    TransformSpec,
    default_schedule,
    flip,
    rotate,
    run_battery,
    scale,
)
from .visualizer import (
    OptimConfig,
    RunTrace,
    StoppingCriterion,
    baseline_visualize,
    optimize_to_confidence,
    visualize,
)

__version__ = "0.1.0"

__all__ = [
    "Model",
    "OptimConfig",
    "Prediction",
    "RunTrace",
    "ScreenRect",
    "ShapeDataset",
    "StoppingCriterion",
    "TrainConfig",
    "TransformSchedule",
    "TransformSpec",
    "avg_gray_change",
    "baseline_visualize",
    "classify_report",
    "cooccurrence",
    "default_schedule",
    "entropy2d",
    "entropy_map",
    "evaluate",
    "flip",
    "forward",
    "generate_dataset",
    "init_sweep",
    "input_gradient",
    "invert",
    "load_model",
    "optimize_to_confidence",
    "read_ppm",
    "reference_architecture",
    "rotate",
    "run_battery",
    "save_model",
    "scale",
    "second_order_entropy",
    "to_grayscale",
    "train",
    "visualize",
    "write_ppm",
    "zero_square",
]
