"""Training loops and the on-the-fly synthetic batch stream."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ..accdoa import encode_accdoa, expand_to_frame_rate
from ..augment import (
    ALL_PATTERNS,
    MAX_SECONDARIES,
    SpecAugmentConfig,
    emda_mix,
    rotate_events,
    rotate_foa,
    spec_augment,
)
from ..features import StftConfig, extract_features
from ..scene import LABEL_FRAME_SAMPLES, AmbisonicClip, SceneConfig, place_events, render_scene
from .losses import loss_bce, loss_masked_mse, loss_mse
from .model import RD3NetLite, TwoStageNet
from .optim import Adam, TrainConfig


@dataclass(frozen=True)
class AugmentOptions:
    """Which of the three augmentations the stream applies."""

    emda: bool = True
    rotate: bool = True
    specaug: bool = True
    spec_cfg: SpecAugmentConfig = field(default_factory=SpecAugmentConfig)


class SceneBatchStream:
    """Generates (features, targets) batches from synthetic scenes.

    A pool of scenes plus a bank of single-event scenes is drawn once at
    construction and kept as `place_events` returns them: events and their
    read-only mono signals, not 4-channel audio.  Each training sample
    renders the pool scene it picks, and any secondaries it mixes in from
    the bank, into fresh clips with `render_scene`, the same bits
    `synth_scene` gives; then it rotates, crops a random window of
    `input_frames` STFT frames, and masks features.  Batches are a pure
    function of (seed, iteration), whatever the worker count.
    """

    def __init__(
        self,
        scene_cfg: SceneConfig,
        stft_cfg: StftConfig,
        batch_size: int,
        input_frames: int,
        seed: int = 0,
        augment: AugmentOptions = AugmentOptions(),
        pool_scenes: int = 64,
        secondary_bank: int = 32,
        workers: int = 1,
    ):
        self.scene_cfg = scene_cfg
        self.stft_cfg = stft_cfg
        self.batch_size = batch_size
        self.input_frames = input_frames
        self.seed = seed
        self.augment = augment
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        for key, value in (("pool_scenes", pool_scenes), ("secondary_bank", secondary_bank)):
            if value < 1:
                raise ValueError(f"data.{key} must be >= 1, got {value}")
        scene_samples = scene_cfg.n_label_frames * LABEL_FRAME_SAMPLES
        scene_frames = stft_cfg.n_frames(scene_samples) if scene_samples >= stft_cfg.win_len else 0
        if scene_frames < input_frames:
            raise ValueError(f"train.input_frames {input_frames} exceeds the {scene_frames} STFT frames "
                             f"of a scene.duration_s = {scene_cfg.duration_s} s scene")

        pool_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
        self.pool = [place_events(scene_cfg, pool_rng) for _ in range(pool_scenes)]
        secondary_cfg = replace(scene_cfg, n_events=1, max_polyphony=1)
        n_bank = secondary_bank if augment.emda else 0
        self.bank = [place_events(secondary_cfg, pool_rng) for _ in range(n_bank)]
        # signals are shared by every batch: rendering must copy, never write
        for placed, _events in self.pool + self.bank:
            for _ev, sig in placed:
                sig.flags.writeable = False

    def _sample(self, rng: np.random.Generator):
        clip, events = render_scene(*self.pool[int(rng.integers(len(self.pool)))])
        if self.augment.emda:
            n_sec = int(rng.integers(0, MAX_SECONDARIES + 1))
            if n_sec:
                secs = [render_scene(*self.bank[int(rng.integers(len(self.bank)))]) for _ in range(n_sec)]
                clip, events = emda_mix((clip, events), secs, rng)
        if self.augment.rotate:
            r = ALL_PATTERNS[int(rng.integers(len(ALL_PATTERNS)))]
            clip = rotate_foa(clip, r)
            events = rotate_events(events, r)

        stft_cfg = self.stft_cfg
        total_frames = stft_cfg.n_frames(clip.n_samples)
        t0 = int(rng.integers(0, total_frames - self.input_frames + 1))
        span = stft_cfg.frame_span(self.input_frames)
        cropped = AmbisonicClip(clip.samples[:, t0 * stft_cfg.hop: t0 * stft_cfg.hop + span])
        fs = extract_features(cropped, stft_cfg)
        if self.augment.specaug:
            fs = spec_augment(fs, self.augment.spec_cfg, rng)

        seq = expand_to_frame_rate(encode_accdoa(events, self.scene_cfg.n_classes), t0 + self.input_frames)
        accdoa = seq[t0:].astype(np.float32)
        activity = (np.linalg.norm(accdoa, axis=-1) > 0).astype(np.float32)
        return fs.data.astype(np.float32), activity, accdoa

    def batch(self, iteration: int) -> dict:
        ss = np.random.SeedSequence(entropy=(self.seed, 1, iteration))
        rngs = [np.random.default_rng(c) for c in ss.spawn(self.batch_size)]
        if self.workers > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                samples = list(pool.map(self._sample, rngs))
        else:
            samples = [self._sample(rng) for rng in rngs]
        x = np.stack([s[0] for s in samples])
        activity = np.stack([s[1] for s in samples])
        accdoa = np.stack([s[2] for s in samples])
        return {"x": x, "activity": activity, "accdoa": accdoa}


def _train(phases, stream: SceneBatchStream, cfg: TrainConfig, log_every: int) -> list:
    """Run training phases back to back on one batch stream.

    `phases` yields (name, module, loss_fn, iters) tuples and is consumed
    lazily, so code between two yields runs after the earlier phase ends.
    Each phase trains `module` with a fresh Adam; `loss_fn(batch, pred)`
    returns (value, gradient w.r.t. pred).  Iterations are numbered
    globally across phases, both for the batch stream and in the log.
    """
    log: list = []
    start = 0
    for name, module, loss_fn, iters in phases:
        adam = Adam(dict(module.named_parameters()), cfg)
        acc, cnt = 0.0, 0
        for it in range(iters):
            batch = stream.batch(start + it)
            value, dpred = loss_fn(batch, module.forward(batch["x"]))
            module.zero_grad()
            module.backward(dpred)
            adam.step(dict(module.named_grads()), it)
            acc += value
            cnt += 1
            if (it + 1) % log_every == 0 or it + 1 == iters:
                log.append((start + it + 1, acc / cnt, name))
                acc, cnt = 0.0, 0
        start += iters
    return log


def train_single_stage(
    model: RD3NetLite,
    stream: SceneBatchStream,
    cfg: TrainConfig,
    iters: int,
    log_every: int = 100,
):
    """Minimize MSE between predicted and target DOA vector sequences.

    Returns the loss log as (iteration, mean loss over the window, phase)
    tuples, one row per `log_every` iterations.
    """

    def loss(batch, pred):
        return loss_mse(pred, batch["accdoa"])

    return _train([("accdoa", model, loss, iters)], stream, cfg, log_every)


def train_two_stage(
    model: TwoStageNet,
    stream: SceneBatchStream,
    cfg: TrainConfig,
    iters_sed: int,
    iters_doa: int,
    log_every: int = 100,
):
    """Detection first, then localization with the detection trunk copied over.

    Phase 1 trains the detection branch with binary cross entropy.  Its
    trunk is then copied into the localization branch, which phase 2 trains
    with activity-masked MSE while every detection parameter stays frozen.
    """

    def sed_loss(batch, pred):
        return loss_bce(pred, batch["activity"])

    def doa_loss(batch, pred):
        return loss_masked_mse(pred, batch["accdoa"], batch["activity"])

    def phases():
        yield "sed", model.sed, sed_loss, iters_sed
        model.copy_trunk_to_doa()
        yield "doa", model.doa, doa_loss, iters_doa

    return _train(phases(), stream, cfg, log_every)
