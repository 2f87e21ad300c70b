"""Batch-style command line: synth / train / infer / eval / ensemble / plot."""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .accdoa import decode_accdoa, dump_accdoa, encode_accdoa, load_accdoa
from .ensemble import combine, ensemble_mse, fit_weights, read_weights_csv, write_weights_csv
from .features import StftConfig
from .infer import DEFAULT_SEG_LEN, DEFAULT_SHIFT, Predictor
from .metrics import DEFAULT_THRESHOLD_DEG, MetricsAccumulator, metrics_csv_header, metrics_csv_row
from .net.checkpoint import (
    KIND_ACCDOA, KIND_TWO_STAGE, config_section, load_model, parse_value, save_model,
)
from .net.model import NetConfig, RD3NetLite, TwoStageNet
from .net.optim import TrainConfig
from .net.train import AugmentOptions, SceneBatchStream, train_single_stage, train_two_stage
from .plot import write_timeline
from .scene import (
    EventList, SceneConfig, decode_text, read_label_csv, read_wav, synth_scene, write_label_csv,
    write_wav,
)

FORMAT_VERSION = 1

# Each config key is `section.name`; its default is the one on the class that
# consumes it, so the recipe is written only once.
_CONFIG_SECTIONS = {
    "scene": (SceneConfig, ("n_classes", "duration_s", "max_polyphony", "n_events")),
    "stft": (StftConfig, ("win_len", "hop", "fft_size", "window")),
    "net": (NetConfig, ("stem_channels", "growth", "layers_per_block", "n_blocks",
                        "freq_pool", "gru_hidden")),
    "train": (TrainConfig, ("lr", "lr_decay", "decay_interval", "weight_decay",
                            "batch_size", "input_frames")),
    "data": (SceneBatchStream, ("pool_scenes", "secondary_bank")),
}


_CONFIG_DEFAULTS = {
    f"{section}.{name}": inspect.signature(cls).parameters[name].default
    for section, (cls, names) in _CONFIG_SECTIONS.items()
    for name in names
}


def read_config(path=None) -> dict:
    """Flat `key = value` file merged over the built-in defaults, each value
    typed like its default by `parse_value`."""
    merged = dict(_CONFIG_DEFAULTS)
    if path:
        text = decode_text(Path(path).read_bytes(), path)
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in merged:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                merged[key] = parse_value(key, value, type(_CONFIG_DEFAULTS[key]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return merged


def _configs_from(merged: dict, seed: int):
    scene_cfg = SceneConfig(rng_seed=seed, **config_section(merged, "scene"))
    stft_cfg = StftConfig(**config_section(merged, "stft"))
    net_cfg = NetConfig(n_classes=scene_cfg.n_classes, f_bins=stft_cfg.n_bins,
                        **config_section(merged, "net"))
    train_cfg = TrainConfig(**config_section(merged, "train"))
    return scene_cfg, stft_cfg, net_cfg, train_cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _renamed(exc: ValueError, names: dict) -> ValueError:
    """A config class's error, whose message begins each field's complaint
    with the field name ('; ' between fields), with the fields renamed to
    the flags or keys that set them."""
    parts = [part.partition(" ") for part in str(exc).split("; ")]
    return ValueError("; ".join(f"{names.get(field, field)} {rest}" for field, _, rest in parts))


# the `synth` flag that sets each SceneConfig field
_SYNTH_FLAGS = {"n_classes": "--classes", "duration_s": "--duration", "max_polyphony": "--polyphony",
                "n_events": "--events", "rng_seed": "--seed"}
# the `train` config key or flag that sets each config class field
_TRAIN_NAMES = {
    **{name: f"{section}.{name}" for section, (_cls, names) in _CONFIG_SECTIONS.items() for name in names},
    "rng_seed": "--seed",
}


def cmd_synth(args) -> int:
    if args.scenes < 1:
        raise ValueError(f"--scenes must be >= 1, got {args.scenes}")
    try:
        cfg = SceneConfig(
            n_classes=args.classes, duration_s=args.duration,
            max_polyphony=args.polyphony, n_events=args.events, rng_seed=args.seed,
        )
    except ValueError as exc:
        raise _renamed(exc, _SYNTH_FLAGS) from None
    out = Path(args.out)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    (out / "labels").mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": {
            "scenes": args.scenes, "classes": args.classes, "duration": args.duration,
            "polyphony": args.polyphony, "events": args.events, "seed": args.seed,
            "format_version": FORMAT_VERSION,
        },
        "scenes": [],
    }
    rng = np.random.default_rng(args.seed)
    for k in range(args.scenes):
        clip, events = synth_scene(cfg, rng)
        wav = out / "audio" / f"scene{k:03d}.wav"
        lab = out / "labels" / f"scene{k:03d}.csv"
        write_wav(wav, clip)
        write_label_csv(lab, events)
        manifest["scenes"].append({"audio": wav.name, "labels": lab.name, "n_events": len(events.events)})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(f"wrote {args.scenes} scenes to {out}")
    return 0


def _check_output_dirs(*outputs) -> None:
    """Reject each (flag, path) whose directory does not exist, before any work."""
    for flag, path in outputs:
        if path and not Path(path).parent.is_dir():
            raise ValueError(f"{flag} {path}: no directory {Path(path).parent}")


def cmd_train(args) -> int:
    _check_output_dirs(("--out", args.out), ("--loss-log", args.loss_log))
    for flag, value, least in (("--iters", args.iters, 0), ("--workers", args.workers, 1)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    sed_iters, doa_iters = args.iters_sed, args.iters_doa
    if sed_iters is None:
        sed_iters = args.iters // 2 if doa_iters is None else args.iters - doa_iters
    if doa_iters is None:
        doa_iters = args.iters - sed_iters
    if args.mode == "two-stage" and (sed_iters < 0 or doa_iters < 0):
        raise ValueError(f"--iters-sed and --iters-doa must be >= 0, got {sed_iters} and {doa_iters}")
    merged = read_config(args.config)
    try:
        scene_cfg, stft_cfg, net_cfg, train_cfg = _configs_from(merged, args.seed)
    except ValueError as exc:
        raise _renamed(exc, _TRAIN_NAMES) from None
    augment = AugmentOptions(emda=args.emda, rotate=args.rotate, specaug=args.specaug)
    stream = SceneBatchStream(
        scene_cfg, stft_cfg, train_cfg.batch_size, train_cfg.input_frames,
        seed=args.seed, augment=augment, workers=args.workers, **config_section(merged, "data"),
    )
    extra = {**merged, "train.seed": args.seed, "train.iters": args.iters, "train.mode": args.mode}
    if args.mode == "accdoa":
        model = RD3NetLite(net_cfg, seed=args.seed)
        log = train_single_stage(model, stream, train_cfg, args.iters)
        save_model(args.out, KIND_ACCDOA, model, net_cfg, stft_cfg, extra)
    else:
        model = TwoStageNet(net_cfg, seed=args.seed)
        log = train_two_stage(model, stream, train_cfg, sed_iters, doa_iters)
        save_model(args.out, KIND_TWO_STAGE, model, net_cfg, stft_cfg, extra)
    loss_path = args.loss_log or (str(args.out) + ".loss.csv")
    with open(loss_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "loss", "phase"])
        writer.writerows(log)
    print(f"saved checkpoint {args.out} ({len(log)} loss rows -> {loss_path})")
    return 0


def cmd_infer(args) -> int:
    _check_output_dirs(("--out", args.out), ("--dump-accdoa", args.dump_accdoa))
    kind, model, _net_cfg, stft_cfg, _cfg = load_model(args.ckpt)
    clip = read_wav(args.wav)
    try:
        stft_cfg.n_frames(clip.n_samples)
    except ValueError as exc:
        raise ValueError(f"{args.wav}: {exc}") from None
    predictor = Predictor(model, stft_cfg, seg_len=args.seg_len, shift=args.shift)
    seq = predictor.label_rate_sequence(clip, tta=args.tta)
    if args.dump_accdoa:
        dump_accdoa(args.dump_accdoa, seq)
    events = decode_accdoa(seq, threshold=args.threshold)
    write_label_csv(args.out, events)
    print(f"{kind} model: {len(events.events)} events -> {args.out}")
    return 0


def _eval_one(pred_spec: str, ref: Path, n_classes: int, threshold: float):
    pred = Path(pred_spec)
    for flag, path in (("--pred", pred), ("--ref", ref)):
        if not path.exists():
            raise ValueError(f"{flag} {path}: no such file or directory")
    if pred.is_dir() != ref.is_dir():
        raise ValueError(f"--pred {pred} and --ref {ref} must both be files or both directories")
    pairs = [(pred, ref)]
    if pred.is_dir():
        names = sorted(p.name for p in ref.glob("*.csv"))
        if not names:
            raise ValueError(f"--ref {ref}: no reference CSVs")
        for name in names:
            if not (pred / name).exists():
                raise ValueError(f"--pred {pred}: no prediction {name} for {ref / name}")
        pairs = [(pred / name, ref / name) for name in names]
    try:
        acc = MetricsAccumulator(n_classes=n_classes, threshold_deg=threshold)
    except ValueError as exc:
        raise _renamed(exc, {"n_classes": "--classes", "threshold_deg": "--threshold"}) from None
    for pred_path, ref_path in pairs:
        try:
            pred_events, ref_events = (read_label_csv(p, n_classes=n_classes) for p in (pred_path, ref_path))
        except ValueError as exc:
            raise ValueError(str(exc).replace(">= n_classes", ">= --classes")) from None
        # one timeline through the last frame of either file; frames where
        # neither has an event add no counts
        n_frames = max(pred_events.n_frames, ref_events.n_frames)
        acc.update(EventList(pred_events.events, n_frames), EventList(ref_events.events, n_frames))
    return acc.finalize()


def cmd_eval(args) -> int:
    results = {}
    for spec in args.pred:
        name, _, path = spec.rpartition("=")
        name = name or Path(path).stem
        results[name] = _eval_one(path, Path(args.ref), args.classes, args.threshold)
    header = metrics_csv_header()
    widths = [12, 8, 8, 8, 8]
    print("  ".join(h.ljust(w) for h, w in zip(header[:5], widths)))
    for name, m in results.items():
        row = metrics_csv_row(name, m)
        print("  ".join(str(v).ljust(w) for v, w in zip(row[:5], widths)))
    if args.out:
        payload = {name: m.to_dict() for name, m in results.items()}
        if len(results) == 1:
            payload = next(iter(payload.values()))
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            for name, m in results.items():
                writer.writerow(metrics_csv_row(name, m))
    return 0


def cmd_ensemble(args) -> int:
    outputs = [load_accdoa(p) for p in args.preds]
    if args.action == "fit":
        n_frames, n_classes = outputs[0].shape[:2]
        try:
            labels = read_label_csv(args.labels, n_classes=n_classes)
        except ValueError as exc:
            raise ValueError(str(exc).replace(
                f">= n_classes {n_classes}", f">= {n_classes}, the class count of --preds {args.preds[0]}")) from None
        targets = encode_accdoa(labels, n_classes, n_frames)
        weights = fit_weights(outputs, targets)
        write_weights_csv(args.weights, weights)
        mse = ensemble_mse(outputs, weights, targets)
        print(f"fitted {weights.n_classes}x{weights.n_models} weights "
              f"(validation MSE {mse:.6f}) -> {args.weights}")
    else:
        weights = read_weights_csv(args.weights)
        seq = combine(outputs, weights)
        events = decode_accdoa(seq, threshold=args.threshold)
        write_label_csv(args.out, events)
        print(f"combined {len(outputs)} models -> {args.out}")
    return 0


def cmd_plot(args) -> int:
    events = read_label_csv(args.pred)
    n_classes = args.classes
    if n_classes is None:
        n_classes = 1 + max((ev.class_id for ev in events.events), default=0)
    csv_path = args.out_csv or str(Path(args.out).with_suffix(".csv"))
    try:
        write_timeline(args.out, csv_path, events, n_classes)
    except ValueError as exc:
        raise _renamed(exc, {"n_classes": "--classes"}) from None
    print(f"wrote {args.out} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seldkit",
        description="Sound event localization and detection toolkit",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"seldkit {__version__} (file format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a scene dataset")
    p.add_argument("--scenes", type=int, default=10)
    p.add_argument("--classes", type=int, default=SceneConfig.n_classes)
    p.add_argument("--duration", type=float, default=SceneConfig.duration_s)
    p.add_argument("--polyphony", type=int, default=SceneConfig.max_polyphony)
    p.add_argument("--events", type=int, default=SceneConfig.n_events)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on synthetic scenes")
    p.add_argument("--mode", choices=["accdoa", "two-stage"], default="accdoa")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--iters-sed", type=int, default=None)
    p.add_argument("--iters-doa", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--emda", action="store_true")
    p.add_argument("--rotate", action="store_true")
    p.add_argument("--specaug", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--loss-log", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="predict events for a WAV file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="wav", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tta", action="store_true", help="average over the 8 rotations")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--seg-len", type=int, default=DEFAULT_SEG_LEN)
    p.add_argument("--shift", type=int, default=DEFAULT_SHIFT)
    p.add_argument("--dump-accdoa", default=None, help="also dump the raw label-rate sequence")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--pred", action="append", required=True,
                   help="prediction CSV/dir, optionally NAME=PATH; repeatable")
    p.add_argument("--ref", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_DEG)
    p.add_argument("--out", help="write metrics JSON here")
    p.add_argument("--csv", help="write metrics CSV rows here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ensemble", help="fit or apply ensemble weights")
    p.add_argument("action", choices=["fit", "apply"])
    p.add_argument("--preds", nargs="+", required=True, help="model output dumps (.acc)")
    p.add_argument("--weights", required=True)
    p.add_argument("--labels", help="reference CSV (fit)")
    p.add_argument("--out", help="decoded CSV (apply)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("plot", help="render an event CSV as an SVG timeline")
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--classes", type=int, default=None)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ensemble":
        if args.action == "fit" and not args.labels:
            parser.error("ensemble fit requires --labels")
        if args.action == "apply" and not args.out:
            parser.error("ensemble apply requires --out")
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
