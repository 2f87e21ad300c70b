"""Checkpoint container: key=value config text, tensor manifest, raw floats.

Layout::

    seldkit-checkpoint 1
    kind = accdoa
    net.n_classes = 3
    ...
    [tensors]
    branch.trunk.stem.conv.W 9x7x16 0
    ...
    [data]
    <little-endian float32 payload>

Offsets are byte positions into the payload.  The `intensity` kind stores
no tensors; the model is rebuilt from its config alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import StftConfig
from ..intensity import IntensityVectorModel
from .model import NetConfig, RD3NetLite, TwoStageNet

MAGIC = "seldkit-checkpoint 1"
_DATA_MARK = b"[data]\n"

KIND_ACCDOA = "accdoa"
KIND_TWO_STAGE = "two-stage"
KIND_INTENSITY = "intensity"


@dataclass
class Checkpoint:
    kind: str
    config: dict
    tensors: dict


def save_checkpoint(path, kind: str, config: dict, tensors: dict) -> None:
    lines = [MAGIC, f"kind = {kind}"]
    for key in sorted(config):
        lines.append(f"{key} = {config[key]}")
    manifest = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        shape = "x".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        manifest.append(f"{name} {shape} {offset}")
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    text = "\n".join(lines + ["[tensors]"] + manifest) + "\n"
    with open(path, "wb") as f:
        f.write(text.encode())
        f.write(_DATA_MARK)
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path) -> Checkpoint:
    raw = open(path, "rb").read()
    mark = raw.find(_DATA_MARK)
    if mark < 0:
        raise ValueError(f"{path}: not a checkpoint file")
    header = raw[:mark].decode()
    payload = raw[mark + len(_DATA_MARK):]
    lines = header.splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    config: dict = {}
    tensors: dict = {}
    in_manifest = False
    kind = ""
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if line == "[tensors]":
            in_manifest = True
            continue
        if in_manifest:
            name, shape_s, offset_s = line.split()
            shape = () if shape_s == "scalar" else tuple(int(d) for d in shape_s.split("x"))
            count = int(np.prod(shape)) if shape else 1
            start = int(offset_s)
            arr = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
            tensors[name] = arr.reshape(shape).astype(np.float32)
        else:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "kind":
                kind = value
            else:
                config[key] = value
    return Checkpoint(kind=kind, config=config, tensors=tensors)


def _scalar(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _sub_config(config: dict, prefix: str) -> dict:
    out = {}
    for key, value in config.items():
        if key.startswith(prefix + "."):
            out[key[len(prefix) + 1:]] = _scalar(value)
    return out


def build_config_dict(net_cfg: NetConfig | None, stft_cfg: StftConfig, extra: dict | None = None) -> dict:
    config = {f"stft.{k}": v for k, v in vars(stft_cfg).items()}
    if net_cfg is not None:
        config.update({f"net.{k}": v for k, v in net_cfg.to_dict().items()})
    if extra:
        config.update(extra)
    return config


def save_model(path, kind: str, model, net_cfg: NetConfig | None, stft_cfg: StftConfig,
               extra: dict | None = None) -> None:
    tensors = model.state_dict() if model is not None and kind != KIND_INTENSITY else {}
    save_checkpoint(path, kind, build_config_dict(net_cfg, stft_cfg, extra), tensors)


def save_intensity_checkpoint(path, n_classes: int, stft_cfg: StftConfig,
                              extra: dict | None = None) -> None:
    config = build_config_dict(None, stft_cfg, extra)
    config["net.n_classes"] = n_classes
    save_checkpoint(path, KIND_INTENSITY, config, {})


def load_model(path):
    """Rebuild (kind, model, net_cfg or None, stft_cfg, config) from a file."""
    ckpt = load_checkpoint(path)
    stft_cfg = StftConfig(**_sub_config(ckpt.config, "stft"))
    net_entries = _sub_config(ckpt.config, "net")
    if ckpt.kind == KIND_INTENSITY:
        model = IntensityVectorModel.for_scene_classes(net_entries["n_classes"], stft_cfg)
        return ckpt.kind, model, None, stft_cfg, ckpt.config
    net_cfg = NetConfig(**net_entries)
    if ckpt.kind == KIND_ACCDOA:
        model = RD3NetLite(net_cfg)
    elif ckpt.kind == KIND_TWO_STAGE:
        model = TwoStageNet(net_cfg)
    else:
        raise ValueError(f"unknown checkpoint kind {ckpt.kind!r}")
    model.load_state_dict(ckpt.tensors)
    model.eval()
    return ckpt.kind, model, net_cfg, stft_cfg, ckpt.config
