"""Desk-scale Mixture-of-Experts language-model laboratory."""

from .analysis import ActivationVector, DistanceMatrix
from .model import Model, ModelConfig, desk_config, param_count
from .moe import MoeLayer, RoutingStats
from .tensor import Tensor, grad_check, no_grad
from .tokenizer import Tokenizer
from .trainer import LossBreakdown, LrSchedule, Trainer

__all__ = [
    "ActivationVector", "DistanceMatrix", "Model", "ModelConfig", "MoeLayer",
    "RoutingStats", "Tensor", "Tokenizer", "Trainer", "LossBreakdown",
    "LrSchedule", "desk_config", "grad_check", "no_grad", "param_count",
]
