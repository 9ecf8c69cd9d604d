"""Rare sound event detection with recurrent multi-resolution encoders,
attention-linked utterance/frame losses, and event-based scoring."""

__version__ = "0.1.0"

from .data import LfbeConfig, SynthConfig, Utterance, lfbe, load_dataset, save_dataset
from .detector import Detection, EventModel, infer
from .metrics import EventAnnotation, MetricCounts, error_rate, evaluate_dataset, f1_score
from .numerics import AdamState, adam_step, sigmoid
from .recurrent import EncoderConfig, GruLayerParams
from .train import TrainConfig, TrainState, alpha_sweep

__all__ = [
    "AdamState",
    "Detection",
    "EncoderConfig",
    "EventAnnotation",
    "EventModel",
    "GruLayerParams",
    "LfbeConfig",
    "MetricCounts",
    "SynthConfig",
    "TrainConfig",
    "TrainState",
    "Utterance",
    "adam_step",
    "alpha_sweep",
    "error_rate",
    "evaluate_dataset",
    "f1_score",
    "infer",
    "lfbe",
    "load_dataset",
    "save_dataset",
    "sigmoid",
]
