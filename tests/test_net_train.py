import tracemalloc

import numpy as np
import pytest

from oracles import DensePoolStream
from seldkit.augment import SpecAugmentConfig
from seldkit.features import StftConfig
from seldkit.net.losses import loss_masked_mse, loss_mse
from seldkit.net.model import NetConfig, RD3NetLite, TwoStageNet
from seldkit.net.optim import Adam, TrainConfig
from seldkit.net.train import AugmentOptions, SceneBatchStream, train_single_stage, train_two_stage
from seldkit.scene import LABEL_FRAME_SAMPLES, SceneConfig, render_scene

SCENE = SceneConfig(n_classes=3, duration_s=2.0, max_polyphony=2, n_events=2, rng_seed=0)
STFT = StftConfig(win_len=256, hop=240, fft_size=256)
NET = NetConfig(n_classes=3, f_bins=129, stem_channels=4, growth=3,
                layers_per_block=2, n_blocks=2, freq_pool=2, gru_hidden=4)
TRAIN = TrainConfig(batch_size=2, input_frames=32, decay_interval=200, weight_decay=1e-6)


def make_stream(seed=0, workers=1, stream_cls=SceneBatchStream, **kwargs):
    defaults = dict(pool_scenes=4, secondary_bank=4)
    defaults.update(kwargs)
    return stream_cls(
        SCENE, STFT, TRAIN.batch_size, TRAIN.input_frames, seed=seed,
        augment=AugmentOptions(spec_cfg=SpecAugmentConfig(max_time_width=8, max_freq_width=8)),
        workers=workers, **defaults,
    )


class TestStream:
    def test_batch_shapes(self):
        batch = make_stream().batch(0)
        assert batch["x"].shape == (2, 7, 32, 129)
        assert batch["activity"].shape == (2, 32, 3)
        assert batch["accdoa"].shape == (2, 32, 3, 3)

    def test_targets_consistent(self):
        batch = make_stream().batch(3)
        norms = np.linalg.norm(batch["accdoa"], axis=-1)
        active = batch["activity"] > 0
        assert np.allclose(norms[active], 1.0, atol=1e-6)
        assert np.all(norms[~active] == 0.0)

    def test_deterministic_given_seed(self):
        b1 = make_stream(seed=7).batch(5)
        b2 = make_stream(seed=7).batch(5)
        for key in b1:
            assert np.array_equal(b1[key], b2[key]), key

    def test_iterations_differ(self):
        stream = make_stream(seed=7)
        assert not np.array_equal(stream.batch(0)["x"], stream.batch(1)["x"])

    def test_worker_count_does_not_change_data(self):
        b1 = make_stream(seed=3, workers=1).batch(2)
        b2 = make_stream(seed=3, workers=3).batch(2)
        for key in b1:
            assert np.array_equal(b1[key], b2[key]), key

    @pytest.mark.parametrize("key", ["pool_scenes", "secondary_bank"])
    def test_empty_pool_or_bank_rejected(self, key):
        with pytest.raises(ValueError, match=f"data.{key} must be >= 1, got 0"):
            make_stream(**{key: 0})

    @pytest.mark.parametrize("workers", [1, 3])
    def test_batches_match_the_dense_pool_stream(self, workers):
        # EMDA, rotation and SpecAugment on: every draw of a sample is exercised
        ours = make_stream(seed=5, workers=workers)
        dense = make_stream(seed=5, workers=workers, stream_cls=DensePoolStream)
        for it in range(6):
            b1, b2 = ours.batch(it), dense.batch(it)
            for key in b1:
                assert np.array_equal(b1[key], b2[key]), (it, key)

    @pytest.mark.parametrize("emda", [False, True])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_pool_and_bank_are_read_only(self, emda, rotate):
        stream = SceneBatchStream(
            SCENE, STFT, 4, TRAIN.input_frames, seed=2, pool_scenes=2, secondary_bank=2,
            augment=AugmentOptions(emda=emda, rotate=rotate, specaug=False),
        )
        shared = stream.pool + stream.bank
        assert len(shared) == (4 if emda else 2)
        signals = [sig for placed, _events in shared for _ev, sig in placed]
        assert signals and not any(sig.flags.writeable for sig in signals)
        before = [sig.copy() for sig in signals]
        for it in range(3):
            stream.batch(it)
        # writing into a rendered clip does not reach the stored signals
        for placed, events in shared:
            render_scene(placed, events)[0].samples[...] = 1.0
        for sig, samples in zip(signals, before):
            assert np.array_equal(sig, samples)

    # what a constructed stream may hold beyond its events' mono samples at
    # 8 B each.  Measured for this stream (pool 4, bank 4, 12 events):
    # 2,655,186 B held against 2,611,200 B of event samples, 44 kB over;
    # with dense float64 4-channel clips in place of the event signals it
    # held 12,331,559 B (numpy 2.4)
    HELD_MARGIN_B = 64 * 1024

    def test_holds_event_samples_not_clips(self):
        make_stream(pool_scenes=1, secondary_bank=1)  # first-call allocations outside the count
        tracemalloc.start()  # numpy reports its array data to tracemalloc
        try:
            stream = make_stream()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        shared = stream.pool + stream.bank
        event_samples = sum(ev.n_frames for _, events in shared for ev in events.events) * LABEL_FRAME_SAMPLES
        assert held <= event_samples * 8 + self.HELD_MARGIN_B, f"{held} B held, {event_samples} event samples"

    def test_scene_too_short_rejected(self):
        with pytest.raises(ValueError, match="input_frames"):
            SceneBatchStream(SCENE, STFT, 1, 10_000, seed=0, pool_scenes=1)


class TestSingleStage:
    def test_zero_iters_keeps_init(self):
        model = RD3NetLite(NET, seed=0)
        before = model.state_dict()
        log = train_single_stage(model, make_stream(), TRAIN, iters=0)
        assert log == []
        after = model.state_dict()
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_run_is_deterministic(self):
        results = []
        for _ in range(2):
            model = RD3NetLite(NET, seed=4)
            train_single_stage(model, make_stream(seed=4), TRAIN, iters=4)
            results.append(model.state_dict())
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name]), name

    def test_loss_log_rows(self):
        model = RD3NetLite(NET, seed=0)
        log = train_single_stage(model, make_stream(), TRAIN, iters=7, log_every=3)
        assert [row[0] for row in log] == [3, 6, 7]

    def test_pinned_loss_log(self):
        model = RD3NetLite(NET, seed=11)
        # fixed-seed losses; any change to the loop, the stream or the targets shows here
        log = train_single_stage(model, make_stream(seed=11), TRAIN, iters=3, log_every=1)
        assert [(row[0], row[2]) for row in log] == [(1, "accdoa"), (2, "accdoa"), (3, "accdoa")]
        np.testing.assert_allclose(
            [row[1] for row in log],
            [0.3911166191101074, 0.2279861718416214, 0.23619157075881958], rtol=1e-5,
        )

    def test_loss_decreases(self):
        model = RD3NetLite(NET, seed=1)
        log = train_single_stage(model, make_stream(seed=2), TRAIN, iters=500)
        means = [row[1] for row in log]
        assert means[-1] < means[0]


class TestTwoStage:
    def test_phase2_freezes_sed(self):
        model = TwoStageNet(NET, seed=3)
        stream = make_stream(seed=5)
        train_two_stage(model, stream, TRAIN, iters_sed=3, iters_doa=0)
        sed_after_phase1 = model.sed.state_dict()
        train_two_stage(model, stream, TRAIN, iters_sed=0, iters_doa=3)
        sed_after_phase2 = model.sed.state_dict()
        for name in sed_after_phase1:
            assert np.array_equal(sed_after_phase1[name], sed_after_phase2[name]), name

    def test_trunks_identical_after_copy(self):
        model = TwoStageNet(NET, seed=6)
        train_two_stage(model, make_stream(seed=6), TRAIN, iters_sed=2, iters_doa=0)
        sed_trunk = model.sed.trunk.state_dict()
        doa_trunk = model.doa.trunk.state_dict()
        for name in sed_trunk:
            assert np.array_equal(sed_trunk[name], doa_trunk[name]), name

    def test_doa_trunk_departs_in_phase2(self):
        model = TwoStageNet(NET, seed=7)
        train_two_stage(model, make_stream(seed=7), TRAIN, iters_sed=2, iters_doa=3)
        sed_trunk = model.sed.trunk.state_dict()
        doa_trunk = model.doa.trunk.state_dict()
        assert any(not np.array_equal(sed_trunk[n], doa_trunk[n]) for n in sed_trunk)

    def test_masked_gradient_zero_at_inactive_cells(self):
        rng = np.random.default_rng(8)
        pred = rng.standard_normal((2, 5, 3, 3))
        target = rng.standard_normal((2, 5, 3, 3))
        mask = rng.integers(0, 2, size=(2, 5, 3)).astype(float)
        _, grad = loss_masked_mse(pred, target, mask)
        assert np.all(grad[mask == 0] == 0.0)
        assert np.any(grad[mask == 1] != 0.0)

    def test_pinned_loss_log(self):
        model = TwoStageNet(NET, seed=12)
        # fixed-seed losses; any change to the loop, the stream or the targets shows here
        log = train_two_stage(model, make_stream(seed=12), TRAIN, 2, 2, log_every=1)
        assert [(row[0], row[2]) for row in log] == [(1, "sed"), (2, "sed"), (3, "doa"), (4, "doa")]
        np.testing.assert_allclose(
            [row[1] for row in log],
            [0.7011265754699707, 0.7078254818916321, 0.5779000520706177, 0.4317668080329895],
            rtol=1e-5,
        )

    def test_global_iteration_numbering_in_log(self):
        model = TwoStageNet(NET, seed=9)
        log = train_two_stage(model, make_stream(seed=9), TRAIN, 4, 3, log_every=2)
        assert [(row[0], row[2]) for row in log] == [
            (2, "sed"), (4, "sed"), (6, "doa"), (7, "doa"),
        ]


class TestMemory:
    # the warm step's peak traced memory: what the model and its
    # workspaces hold, plus what the step allocates on top.  Measured
    # 11.4 MB with the trunk's backward in place on its gradient grids,
    # 13.7 MB with padded dy and dx workspaces and channels-last block
    # gradients, 21.5 MB with per-unit workspaces and a fresh copy of each
    # block's gradient (numpy 2.4, float32)
    PEAK_MB = 12.0

    def test_warm_step_peak(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 7, 64, NET.f_bins)).astype(np.float32)
        target = rng.uniform(-1, 1, (4, 64, NET.n_classes, 3)).astype(np.float32)
        tracemalloc.start()  # numpy reports its array data to tracemalloc
        try:
            model = RD3NetLite(NET, seed=0)
            adam = Adam(dict(model.named_parameters()), TRAIN)
            for it in range(2):
                if it:
                    tracemalloc.reset_peak()
                _, dpred = loss_mse(model.forward(x), target)
                model.zero_grad()
                model.backward(dpred)
                adam.step(dict(model.named_grads()), it)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_MB, f"peak {peak:.2f} MB"
