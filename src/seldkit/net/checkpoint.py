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
from typing import get_type_hints

import numpy as np

from ..features import FEATURE_CHANNELS, StftConfig
from ..intensity import IntensityVectorModel
from ..scene import decode_text
from .model import NetConfig, RD3NetLite, TwoStageNet

MAGIC = "seldkit-checkpoint 1"
_DATA_MARK = b"[data]\n"

KIND_ACCDOA = "accdoa"
KIND_TWO_STAGE = "two-stage"
KIND_INTENSITY = "intensity"

# keys that older checkpoints record for what is now fixed, with the one value they held
_FIXED_NET_KEYS = {"net.in_channels": FEATURE_CHANNELS, "net.output_activation": "tanh"}


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
    header = decode_text(raw[:mark], path)
    payload = raw[mark + len(_DATA_MARK):]
    lines = header.splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    config: dict = {}
    tensors: dict = {}
    in_manifest = False
    kind = ""
    for number, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{number}"
        if line == "[tensors]":
            in_manifest = True
        elif in_manifest:
            fields = line.split()  # name, shape (9x4 or scalar), byte offset
            dims = fields[1].split("x") if len(fields) == 3 and fields[1] != "scalar" else []
            if len(fields) != 3 or not all(d.isdecimal() for d in dims + fields[2:]):
                raise ValueError(f"{where}: expected 'name shape offset' with a shape such as 9x4 "
                                 f"or 'scalar' and an offset >= 0, got {line!r}")
            name, shape, start = fields[0], tuple(int(d) for d in dims), int(fields[2])
            if name in tensors:
                raise ValueError(f"{where}: tensor {name} is listed twice")
            count = int(np.prod(shape)) if shape else 1
            if start + 4 * count > len(payload):
                raise ValueError(f"{path}: tensor {name} runs past the end of the data (truncated file?)")
            arr = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: tensor {name} holds non-finite values")
            tensors[name] = arr.reshape(shape).astype(np.float32)
        else:
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"{where}: expected 'key = value', got {line!r}")
            key, value = key.strip(), value.strip()
            if key == "kind":
                kind = value
            else:
                config[key] = value
    return Checkpoint(kind=kind, config=config, tensors=tensors)


def parse_value(key: str, text: str, kind: type):
    """`text` as a `kind` (str, int or float) value of config key `key`.

    The one rule for typing `key = value` text, in config files and in
    checkpoint headers: numbers must parse, and an int must be integral
    ("3.0" is 3, "2.5" is rejected).
    """
    if kind is str:
        return text
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"{key} needs a number, got {text!r}") from None
    if kind is int:
        if not number.is_integer():
            raise ValueError(f"{key} needs an integer, got {text!r}")
        return int(number)
    return number


def config_section(config: dict, section: str) -> dict:
    """The `section.name` entries of a flat config, keyed by `name`."""
    prefix = section + "."
    return {key[len(prefix):]: value for key, value in config.items() if key.startswith(prefix)}


def _keyed(section: str, cfg) -> dict:
    return {f"{section}.{name}": value for name, value in vars(cfg).items()}


def _header_value(path, config: dict, key: str, kind: type):
    """A header value typed by `parse_value`; errors name the file and the key."""
    if key not in config:
        raise ValueError(f"{path}: missing {key}")
    try:
        return parse_value(key, config[key], kind)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _rebuild(cls, config: dict, section: str, path):
    """`cls` from one header section, each value typed by its field's
    annotation; any bad entry raises a ValueError naming the file."""
    types = get_type_hints(cls)
    kwargs = {name: _header_value(path, config, f"{section}.{name}", types.get(name, str))
              for name in config_section(config, section)}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad {section}.* entries: {exc}") from None


def save_model(path, kind: str, model, net_cfg: NetConfig, stft_cfg: StftConfig,
               extra: dict | None = None) -> None:
    config = {**_keyed("stft", stft_cfg), **_keyed("net", net_cfg), **(extra or {})}
    save_checkpoint(path, kind, config, model.state_dict())


def save_intensity_checkpoint(path, n_classes: int, stft_cfg: StftConfig,
                              extra: dict | None = None) -> None:
    config = {**_keyed("stft", stft_cfg), **(extra or {}), "net.n_classes": n_classes}
    save_checkpoint(path, KIND_INTENSITY, config, {})


def load_model(path):
    """Rebuild (kind, model, net_cfg or None, stft_cfg, config) from a file."""
    ckpt = load_checkpoint(path)
    config = dict(ckpt.config)
    stft_cfg = _rebuild(StftConfig, config, "stft", path)
    if ckpt.kind == KIND_INTENSITY:
        n_classes = _header_value(path, config, "net.n_classes", int)
        model = IntensityVectorModel.for_scene_classes(n_classes, stft_cfg)
        return ckpt.kind, model, None, stft_cfg, ckpt.config
    for key, fixed in _FIXED_NET_KEYS.items():
        if key in config and _header_value(path, config, key, type(fixed)) != fixed:
            raise ValueError(f"{path}: {key} can only be {fixed}")
        config.pop(key, None)
    net_cfg = _rebuild(NetConfig, config, "net", path)
    if ckpt.kind == KIND_ACCDOA:
        model = RD3NetLite(net_cfg)
    elif ckpt.kind == KIND_TWO_STAGE:
        model = TwoStageNet(net_cfg)
    else:
        raise ValueError(f"{path}: unknown checkpoint kind {ckpt.kind!r}")
    try:
        model.load_state_dict(ckpt.tensors)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    model.eval(backward=False)
    return ckpt.kind, model, net_cfg, stft_cfg, ckpt.config
