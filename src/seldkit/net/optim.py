"""Adam with decoupled weight decay and a stepped learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BETA1 = 0.9     # decay of the first-moment estimate
_BETA2 = 0.999   # decay of the second-moment estimate
_EPS = 1e-8      # added to the root of the second moment


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    lr_decay: float = 0.9
    decay_interval: int = 20000
    weight_decay: float = 1e-6
    batch_size: int = 32
    input_frames: int = 1024

    def __post_init__(self):
        bad = [f"{name} must be finite, got {value}" for name, value in vars(self).items()
               if not math.isfinite(value)]
        bad += [f"{name} must be > 0, got {value}" for name, value in vars(self).items()
                if name != "weight_decay" and value <= 0]
        if self.weight_decay < 0:
            bad.append(f"weight_decay must be >= 0, got {self.weight_decay}")
        if bad:
            raise ValueError("; ".join(bad))


def learning_rate(cfg: TrainConfig, iteration: int) -> float:
    """lr * decay^(iteration // decay_interval)."""
    return cfg.lr * cfg.lr_decay ** (iteration // cfg.decay_interval)


class Adam:
    """Standard Adam with bias correction; weight decay is applied as a
    separate lr * wd * param term, not folded into the gradient."""

    def __init__(self, params: dict, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict, iteration: int) -> None:
        cfg = self.cfg
        self.t += 1
        lr = learning_rate(cfg, iteration)
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            update = (m / b1c) / (np.sqrt(v / b2c) + _EPS)
            p -= lr * update
            if cfg.weight_decay:
                p -= lr * cfg.weight_decay * p
