"""The three benchmark workloads, each a closed loop over one caller.

A workload is set up once per repeat, then runs ops one after another:
`prepare(k)` builds the inputs of op k from the workload seed (untimed),
`op(inputs)` is the timed call into seldkit's public API, and
`check(k, output)` validates the output (untimed) and returns an error
message or None.  Every input is a pure function of (seed, k).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import seldkit
from seldkit import Predictor, SceneConfig, StftConfig
from seldkit import cli
from seldkit.net import AugmentOptions, Adam, NetConfig, RD3NetLite, SceneBatchStream, TrainConfig
from seldkit.net import checkpoint, losses

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Stated tolerances of the output checks against stored references.
TRAIN_LOSS_RTOL = 1e-4
INFER_ATOL = 1e-5

# desk STFT: 256-sample windows, 240-sample hop, 256-point FFT (F = 129)
STFT = StftConfig(win_len=256, hop=240, fft_size=256)


def _rng(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, k)))


@dataclass(frozen=True)
class Shapes:
    """Scene, STFT and network sizes shared by the workloads (desk scale)."""

    n_classes: int = 3
    stem_channels: int = 12
    growth: int = 6
    # train_desk
    train_scene_s: float = 3.0
    batch_size: int = 3
    input_frames: int = 256
    pool_scenes: int = 64
    secondary_bank: int = 32
    # infer_overlap and cli_pipeline
    clip_s: float = 30.0
    seg_len: int = 256
    shift: int = 20
    warmup_clip_s: float = 3.0      # short clip run once per set-up

    @property
    def stft_cfg(self) -> StftConfig:
        return STFT

    @property
    def net_cfg(self) -> NetConfig:
        return NetConfig(n_classes=self.n_classes, f_bins=self.stft_cfg.n_bins,
                         stem_channels=self.stem_channels, growth=self.growth)

    def scene_cfg(self, duration_s: float) -> SceneConfig:
        return SceneConfig(n_classes=self.n_classes, duration_s=duration_s)


DESK = Shapes()


class Workload:
    name = ""
    model = None          # the network whose layers the traced run wraps
    stream = None         # the batch stream whose `batch` the traced run wraps

    def __init__(self, shapes: Shapes = DESK, references: dict | None = None):
        self.shapes = shapes
        if references is None and shapes == DESK:
            references = load_references(self.name)
        self.references = references or {}
        self.seed = 0
        self.workdir = None

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def prepare(self, k: int):
        return k

    def op(self, inputs):
        raise NotImplementedError

    def check(self, k: int, output) -> str | None:
        raise NotImplementedError

    def finish(self, k: int) -> None:
        """Release what op k left behind (untimed)."""

    def reference(self, k: int):
        """The stored output of op k at this seed, or None."""
        per_seed = self.references.get(str(self.seed))
        if per_seed is None or k >= len(per_seed):
            return None
        return per_seed[k]

    # work done by one op, for the printed throughputs; None where one does not apply
    samples_per_op = None
    audio_s_per_op = None


class TrainDesk(Workload):
    """Single-stage ACCDOA training iterations with EMDA, rotation and SpecAugment."""

    name = "train_desk"

    def setup(self, seed, workdir):
        s = self.shapes
        self.seed = seed
        self.stream = self.model = self.adam = None
        self.stream = SceneBatchStream(
            s.scene_cfg(s.train_scene_s), s.stft_cfg, s.batch_size, s.input_frames, seed=seed,
            augment=AugmentOptions(emda=True, rotate=True, specaug=True),
            pool_scenes=s.pool_scenes, secondary_bank=s.secondary_bank, workers=1,
        )
        self.model = RD3NetLite(s.net_cfg, seed=seed)
        cfg = TrainConfig(batch_size=s.batch_size, input_frames=s.input_frames, decay_interval=800)
        self.adam = Adam(dict(self.model.named_parameters()), cfg)

    @property
    def samples_per_op(self):
        return float(self.shapes.batch_size)

    def op(self, k):
        batch = self.stream.batch(k)
        pred = self.model.forward(batch["x"])
        value, dpred = losses.loss_mse(pred, batch["accdoa"])
        self.model.zero_grad()
        self.model.backward(dpred)
        self.adam.step(dict(self.model.named_grads()), k)
        return float(value)

    def check(self, k, loss):
        if not math.isfinite(loss):
            return f"iteration {k}: non-finite loss {loss}"
        ref = self.reference(k)
        if ref is not None and abs(loss - ref) > TRAIN_LOSS_RTOL * abs(ref):
            return f"iteration {k}: loss {loss!r} differs from reference {ref!r} by more than rtol {TRAIN_LOSS_RTOL}"
        return None


class InferOverlap(Workload):
    """Overlapped-segment inference of a saved and reloaded desk RD3NetLite."""

    name = "infer_overlap"
    model_seed = 0
    # label frames checked against an independent segment-by-segment average
    spot_label_frames = 12

    def setup(self, seed, workdir):
        s = self.shapes
        self.seed = seed
        path = Path(workdir) / "infer_overlap.ckpt"
        net_cfg = s.net_cfg
        fresh = RD3NetLite(net_cfg, seed=self.model_seed)
        checkpoint.save_model(path, checkpoint.KIND_ACCDOA, fresh, net_cfg, s.stft_cfg)
        _kind, self.model, _net_cfg, stft_cfg, _config = checkpoint.load_model(path)
        self.predictor = Predictor(self.model, stft_cfg, seg_len=s.seg_len, shift=s.shift)
        # warm-up: one short clip allocates the layers' workspaces
        warm, _events = seldkit.synth_scene(s.scene_cfg(s.warmup_clip_s), _rng(0, 1, 0))
        self.predictor.label_rate_sequence(warm)

    @property
    def audio_s_per_op(self):
        return self.shapes.clip_s

    def prepare(self, k):
        clip, _events = seldkit.synth_scene(self.shapes.scene_cfg(self.shapes.clip_s), _rng(self.seed, 2, k))
        return clip

    def op(self, clip):
        seq = self.predictor.label_rate_sequence(clip)
        events = seldkit.decode_accdoa(seq)
        return clip, seq, events

    def check(self, k, output):
        clip, seq, _events = output
        s = self.shapes
        n_frames = s.stft_cfg.n_frames(clip.n_samples)
        expected = (math.ceil(n_frames / 10), s.n_classes, 3)
        if seq.shape != expected:
            return f"op {k}: output shape {seq.shape}, expected {expected}"
        if not np.all(np.isfinite(seq)):
            return f"op {k}: non-finite output"
        spot = self._segment_average(clip, n_frames)
        err = float(np.abs(seq[: len(spot)] - spot).max())
        if err > INFER_ATOL:
            return f"op {k}: head frames differ from the segment-by-segment average by {err:.3g}"
        ref = self.reference(k)
        if ref is not None:
            err = float(np.abs(seq - ref).max())
            if err > INFER_ATOL:
                return f"op {k}: output differs from the stored reference by {err:.3g} (atol {INFER_ATOL})"
        return None

    def _segment_average(self, clip, n_frames):
        """Label-rate output of the first frames, from the segments covering
        them, each run alone through the model's forward pass."""
        s = self.shapes
        frames = 10 * min(self.spot_label_frames, n_frames // 10)
        starts = list(range(0, n_frames - s.seg_len + 1, s.shift))
        if not starts or starts[-1] != n_frames - s.seg_len:
            starts.append(n_frames - s.seg_len)
        covering = [st for st in starts if st < frames]
        fs = seldkit.extract_features(clip, s.stft_cfg).data.astype(np.float32)
        outs = self.model.forward(np.stack([fs[:, st:st + s.seg_len] for st in covering]))
        total = np.zeros((frames, s.n_classes, 3))
        count = np.zeros(frames)
        for st, out in zip(covering, outs):
            hi = min(st + s.seg_len, frames)
            total[st:hi] += out[: hi - st]
            count[st:hi] += 1
        seq = total / count[:, None, None]
        return seq.reshape(-1, 10, s.n_classes, 3).mean(axis=1)


class CliPipeline(Workload):
    """synth -> infer --tta -> eval through `seldkit.cli.main`, in process."""

    name = "cli_pipeline"

    def setup(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.ckpt = self.workdir / "intensity.ckpt"
        checkpoint.save_intensity_checkpoint(self.ckpt, self.shapes.n_classes, self.shapes.stft_cfg)
        # warm-up: one short scene through all three commands
        self.op((0, self.workdir / "warmup"), self.shapes.warmup_clip_s)
        shutil.rmtree(self.workdir / "warmup")

    @property
    def audio_s_per_op(self):
        return self.shapes.clip_s

    def prepare(self, k):
        scene_seed = int(np.random.SeedSequence((self.seed, 3, k)).generate_state(1)[0])
        return scene_seed, self.workdir / f"op{k}"

    def op(self, inputs, clip_s=None):
        scene_seed, opdir = inputs
        s = self.shapes
        clip_s = s.clip_s if clip_s is None else clip_s
        data, pred = opdir / "data", opdir / "pred"
        pred.mkdir(parents=True)
        commands = [
            ["synth", "--scenes", "1", "--classes", str(s.n_classes), "--duration", str(clip_s),
             "--seed", str(scene_seed), "--out", str(data)],
            ["infer", "--ckpt", str(self.ckpt), "--in", str(data / "audio" / "scene000.wav"),
             "--out", str(pred / "scene000.csv"), "--tta",
             "--seg-len", str(s.seg_len), "--shift", str(s.seg_len)],
            ["eval", "--pred", str(pred), "--ref", str(data / "labels"),
             "--classes", str(s.n_classes), "--out", str(opdir / "metrics.json")],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"seldkit {argv[0]} exited with {code}")
        return opdir

    def check(self, k, opdir):
        counts = json.loads((opdir / "metrics.json").read_text())["counts"]
        with open(opdir / "data" / "labels" / "scene000.csv", newline="") as f:
            ref_rows = sum(1 for row in csv.reader(f) if row)
        got = [counts["TP"], counts["FP"], counts["FN"], counts["N_ref"]]
        if counts["N_ref"] != ref_rows:
            return f"op {k}: N_ref {counts['N_ref']} but the label CSV has {ref_rows} rows"
        if counts["TP"] + counts["FN"] != counts["N_ref"]:
            return f"op {k}: TP + FN != N_ref in {got}"
        ref = self.reference(k)
        if ref is not None and got != list(ref):
            return f"op {k}: TP/FP/FN/N_ref {got} differ from the stored reference {list(ref)}"
        return None

    def finish(self, k):
        shutil.rmtree(self.workdir / f"op{k}", ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainDesk, InferOverlap, CliPipeline)}


def load_references(name: str) -> dict:
    """seed (as a string) -> list of stored per-op outputs."""
    json_path = REFERENCE_DIR / f"{name}.json"
    npz_path = REFERENCE_DIR / f"{name}.npz"
    if json_path.is_file():
        return json.loads(json_path.read_text())
    if npz_path.is_file():
        with np.load(npz_path) as data:
            return {key: list(data[key].astype(np.float64)) for key in data.files}
    return {}
