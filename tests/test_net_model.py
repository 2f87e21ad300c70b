import re
import tracemalloc

import numpy as np
import pytest

from oracles import same_bits, trunk_backward_per_unit
from seldkit.accdoa import compose_accdoa
from seldkit.features import StftConfig
from seldkit.net.checkpoint import (
    KIND_ACCDOA,
    KIND_TWO_STAGE,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from seldkit.net.layers import Conv2d, NetDeconv
from seldkit.net.losses import loss_bce, loss_mse
from seldkit.net.model import NetConfig, RD3NetLite, TwoStageNet
from seldkit.net.optim import Adam, TrainConfig, learning_rate

TINY = dict(f_bins=16, stem_channels=4, growth=3, layers_per_block=2,
            n_blocks=2, freq_pool=2, gru_hidden=4)


def tiny_config(n_classes=3):
    return NetConfig(n_classes=n_classes, **TINY)


class TestShapes:
    def test_output_shape_contract(self):
        model = RD3NetLite(tiny_config(3), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 7, 64, 16)).astype(np.float32)
        assert model.forward(x).shape == (2, 64, 3, 3)

    def test_channel_mismatch_rejected(self):
        model = RD3NetLite(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 6, 8, 16), dtype=np.float32))

    def test_bin_mismatch_rejected(self):
        model = RD3NetLite(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 7, 8, 20), dtype=np.float32))

    def test_bins_trimmed_to_pool_multiple(self):
        cfg = NetConfig(n_classes=2, f_bins=257, stem_channels=4, growth=2,
                        layers_per_block=2, n_blocks=2, freq_pool=4, gru_hidden=4)
        assert cfg.f_trimmed == 256
        assert cfg.f_out == 16

    def test_dense_connectivity_audit(self):
        cfg = tiny_config()
        model = RD3NetLite(cfg, seed=0)
        trunk = model.branch.trunk
        for b in range(cfg.n_blocks):
            block = trunk._children[f"block{b}"]
            block_in = block.in_ch
            for l in range(cfg.layers_per_block):
                conv = block._children[f"layer{l}"].conv
                assert conv.in_ch == block_in + l * cfg.growth
                assert conv.out_ch == cfg.growth
                assert conv.dilation == 2 ** l

    def test_output_bounded(self):
        model = RD3NetLite(tiny_config(), seed=1)
        x = 10 * np.random.default_rng(1).standard_normal((2, 7, 16, 16)).astype(np.float32)
        y = model.forward(x)
        assert np.abs(y).max() < 1.0

    def test_zero_input_zero_head_gives_zero(self):
        model = RD3NetLite(tiny_config(), seed=2)
        model.branch.head.params["W"][...] = 0.0
        model.branch.head.params["b"][...] = 0.0
        y = model.forward(np.zeros((2, 7, 8, 16), dtype=np.float32))
        assert np.all(y == 0.0)


class TestConfigDomain:
    FIELDS = ["n_classes", "stem_channels", "growth", "layers_per_block", "n_blocks", "freq_pool", "gru_hidden"]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [0, -1])
    def test_below_one_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            NetConfig(**{**TINY, "n_classes": 3, field: value})

    def test_every_bad_field_named(self):
        with pytest.raises(ValueError, match="^growth must be >= 1, got 0; freq_pool must be >= 1, got 0$"):
            NetConfig(**{**TINY, "n_classes": 3, "growth": 0, "freq_pool": 0})

    def test_smallest_values_build_a_network(self):
        cfg = NetConfig(n_classes=1, f_bins=1, stem_channels=1, growth=1, layers_per_block=1,
                        n_blocks=1, freq_pool=1, gru_hidden=1)
        x = np.random.default_rng(0).standard_normal((1, 7, 4, 1)).astype(np.float32)
        assert RD3NetLite(cfg).forward(x).shape == (1, 4, 1, 3)


class TestEvalWithoutBackward:
    def test_layers_keep_nothing_for_backward(self):
        from seldkit.net.layers import Elu, Gru, Linear

        model = TwoStageNet(tiny_config(), seed=0)
        x = np.random.default_rng(1).standard_normal((2, 7, 12, 16)).astype(np.float32)
        model.predict_batch(x)  # training mode: every cache filled
        expected = model.eval().predict_batch(x)
        np.testing.assert_array_equal(model.eval(backward=False).predict_batch(x), expected)
        layers, stack = [], [model]
        while stack:
            layers.append(stack.pop())
            stack.extend(layers[-1]._children.values())
        held = [(type(m).__name__, name) for m in layers for name, kind in (
            ("_y", Elu), ("_cache", Gru), ("_x2", Gru), ("_x2", Linear)
        ) if isinstance(m, kind) and getattr(m, name) is not None]
        assert len(layers) > 40 and held == []

    def test_loaded_models_keep_nothing_for_backward(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(path, KIND_ACCDOA, RD3NetLite(tiny_config()), tiny_config(), StftConfig())
        _kind, loaded, _net_cfg, _stft, _config = load_model(path)
        assert not loaded.training and not loaded.branch.head.for_backward
        loaded.train()
        assert loaded.branch.head.for_backward


def modules(module):
    """module and every module below it."""
    yield module
    for child in module._children.values():
        yield from modules(child)


def train_step(branch, x, rng):
    """A branch's forward, its training loss against random targets,
    zero_grad and backward; returns the loss gradient."""
    pred = branch.forward(x)
    target = rng.uniform(-1, 1, pred.shape).astype(np.float32)
    if branch.out_per_class == 1:
        _, dy = loss_bce(pred, (target > 0).astype(np.float32))
    else:
        _, dy = loss_mse(pred, target)
    branch.zero_grad()
    branch.backward(dy)
    return dy


class TestTrunkBackward:
    """The conv trunk's backward in its shared workspaces, against
    `trunk_backward_per_unit`, where every layer has arrays of its own."""

    DESK = NetConfig(n_classes=3, f_bins=129, stem_channels=12, growth=6)

    @pytest.mark.parametrize("kind", [RD3NetLite, TwoStageNet])
    def test_desk_step_matches_per_unit_workspaces(self, kind, monkeypatch):
        # every gradient keeps its bits except the conv weights', whose
        # row pieces sum in another order: within 2e-6 of the largest entry
        model = kind(self.DESK, seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 7, 256, self.DESK.f_bins)).astype(np.float32)
        for branch in model.branches:
            dy = train_step(branch, x, rng)
            got = {name: g.copy() for name, g in branch.named_grads()}
            trunk = branch.trunk
            monkeypatch.setattr(trunk, "backward", lambda d: trunk_backward_per_unit(trunk, d))
            branch.zero_grad()
            branch.backward(dy)
            for name, expected in branch.named_grads():
                if name.endswith("conv.W"):
                    assert np.abs(got[name] - expected).max() <= 2e-6 * np.abs(expected).max(), name
                else:
                    assert same_bits(got[name], expected), name

    def test_warm_backward_allocates_less_than_one_unit_output(self):
        # the trunk's backward works in place on its gradient grids: besides
        # its reused workspaces it allocates only piece-sized temporaries
        cfg = self.DESK
        trunk = RD3NetLite(cfg, seed=2).branch.trunk
        rng = np.random.default_rng(5)
        B, T = 3, 96
        x = rng.standard_normal((B, T, cfg.f_trimmed, 7)).astype(np.float32)
        for _ in range(2):  # the second backward runs warm
            dy = rng.standard_normal(trunk.forward(x).shape).astype(np.float32)
            tracemalloc.start()  # numpy reports its array data to tracemalloc
            try:
                trunk.backward(dy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        unit = B * T * cfg.f_trimmed * cfg.growth * 4  # bytes of a first-block layer's output
        assert peak < unit, f"peak {peak} B, one unit's output {unit} B"

    def test_one_scratch_per_trunk_reused_across_steps(self):
        model = TwoStageNet(tiny_config(), seed=0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 7, 24, 16)).astype(np.float32)
        for branch in model.branches:
            train_step(branch, x, rng)
        scratches = [branch.trunk.stem.conv.scratch for branch in model.branches]
        assert scratches[0] is not scratches[1]
        for branch, scratch in zip(model.branches, scratches):
            assert scratch._ws_store.keys() == {"products", "xc", "piece"}
            for mod in modules(branch.trunk):
                if isinstance(mod, (Conv2d, NetDeconv)):
                    assert mod.scratch is scratch
                    assert not scratch._ws_store.keys() & mod._ws_store.keys()
        # a second step allocates no workspace
        every = [*modules(model), *scratches]
        before = [dict(mod._ws_store) for mod in every]
        for branch in model.branches:
            train_step(branch, x, rng)
        for mod, store in zip(every, before):
            assert mod._ws_store.keys() == store.keys()
            assert all(mod._ws_store[name] is buf for name, buf in store.items())


class TestTimeHalo:
    @pytest.mark.parametrize("cfg, halo", [
        # desk shapes and the network of tests/test_infer.py
        (NetConfig(n_classes=3, f_bins=129, stem_channels=12, growth=6), 15),
        (NetConfig(n_classes=3, f_bins=129, stem_channels=4, growth=3, layers_per_block=2,
                   n_blocks=2, freq_pool=2, gru_hidden=4), 7),
    ])
    def test_halo_is_the_trunk_receptive_field(self, cfg, halo):
        assert cfg.time_halo == halo
        branch = RD3NetLite(cfg, seed=0).eval().branch
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 7, 64, cfg.f_bins)).astype(np.float32)
        base = branch.forward_trunk(x).copy()
        t0 = 32
        x[:, :, t0] += 1.0
        changed = np.flatnonzero(np.any(branch.forward_trunk(x) != base, axis=(0, 2)))
        # every output frame within the halo of t0 changes, none beyond it
        np.testing.assert_array_equal(changed, np.arange(t0 - halo, t0 + halo + 1))


class TestDeterminism:
    def test_init_is_seed_deterministic(self):
        a = RD3NetLite(tiny_config(), seed=5).state_dict()
        b = RD3NetLite(tiny_config(), seed=5).state_dict()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_different_seed_different_params(self):
        a = RD3NetLite(tiny_config(), seed=5).state_dict()
        b = RD3NetLite(tiny_config(), seed=6).state_dict()
        assert any(not np.array_equal(a[n], b[n]) for n in a)


class TestAdam:
    def test_schedule_values(self):
        cfg = TrainConfig()
        assert learning_rate(cfg, 0) == pytest.approx(1e-3)
        assert learning_rate(cfg, 19999) == pytest.approx(1e-3)
        assert learning_rate(cfg, 20000) == pytest.approx(9e-4)
        assert learning_rate(cfg, 40000) == pytest.approx(8.1e-4)

    def test_scaled_decay_interval(self):
        cfg = TrainConfig(decay_interval=100)
        assert learning_rate(cfg, 100) == pytest.approx(9e-4)

    def test_descends_on_quadratic(self):
        w = np.array([1.0])
        adam = Adam({"w": w}, TrainConfig(weight_decay=0.0))
        for it in range(50):
            adam.step({"w": 2.0 * w}, it)
        assert w[0] < 1.0

    def test_weight_decay_is_decoupled(self):
        cfg = TrainConfig(weight_decay=0.1)
        w = np.array([1.0])
        adam = Adam({"w": w}, cfg)
        adam.step({"w": np.array([0.0])}, 0)
        # zero gradient: only the lr * wd * w term moves the weight
        assert w[0] == pytest.approx(1.0 - cfg.lr * 0.1)


class TestCheckpoint:
    def test_raw_round_trip(self, tmp_path):
        tensors = {
            "a.W": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.array([1.5], dtype=np.float32),
        }
        path = tmp_path / "ckpt"
        save_checkpoint(path, "accdoa", {"net.n_classes": 3, "stft.window": "hann"}, tensors)
        ckpt = load_checkpoint(path)
        assert ckpt.kind == "accdoa"
        assert ckpt.config["net.n_classes"] == "3"
        for name, arr in tensors.items():
            np.testing.assert_array_equal(ckpt.tensors[name], arr)

    def test_model_round_trip(self, tmp_path):
        cfg = tiny_config()
        model = RD3NetLite(cfg, seed=9)
        x = np.random.default_rng(3).standard_normal((1, 7, 8, 16)).astype(np.float32)
        model.train()
        model.forward(x)  # move running statistics off init
        model.eval()
        y_ref = model.forward(x)
        path = tmp_path / "model.ckpt"
        save_model(path, KIND_ACCDOA, model, cfg, StftConfig())
        kind, loaded, net_cfg, stft_cfg, _ = load_model(path)
        assert kind == KIND_ACCDOA
        assert net_cfg == cfg
        assert stft_cfg == StftConfig()
        np.testing.assert_allclose(loaded.forward(x), y_ref, atol=1e-6)

    def test_two_stage_round_trip_has_both_branches(self, tmp_path):
        cfg = tiny_config()
        model = TwoStageNet(cfg, seed=1)
        path = tmp_path / "two.ckpt"
        save_model(path, KIND_TWO_STAGE, model, cfg, StftConfig())
        ckpt = load_checkpoint(path)
        names = set(ckpt.tensors)
        assert any(n.startswith("sed.") for n in names)
        assert any(n.startswith("doa.") for n in names)
        kind, loaded, _, _, _ = load_model(path)
        assert kind == KIND_TWO_STAGE
        x = np.random.default_rng(4).standard_normal((1, 7, 8, 16)).astype(np.float32)
        assert loaded.predict_batch(x).shape == (1, 8, 3, 3)

    def saved_model(self, tmp_path):
        model = RD3NetLite(tiny_config(), seed=5).eval()
        path = tmp_path / "model.ckpt"
        save_model(path, KIND_ACCDOA, model, tiny_config(), StftConfig())
        return model, path

    @staticmethod
    def add_header_lines(path, *lines):
        raw = path.read_bytes()
        head, sep, rest = raw.partition(b"[tensors]\n")
        path.write_bytes(head + "".join(f"{line}\n" for line in lines).encode() + sep + rest)

    def test_fixed_keys_of_older_checkpoints_load(self, tmp_path):
        # headers written before these values became constants carry them
        model, path = self.saved_model(tmp_path)
        self.add_header_lines(path, "net.in_channels = 7", "net.output_activation = tanh")
        _kind, loaded, net_cfg, _stft, _config = load_model(path)
        assert net_cfg == tiny_config()
        x = np.random.default_rng(6).standard_normal((1, 7, 8, 16)).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x), model.forward(x))

    @pytest.mark.parametrize("line, key", [
        ("net.in_channels = 5", "net.in_channels"),
        ("net.output_activation = sigmoid", "net.output_activation"),
        ("net.dropout = 0.5", r"net\.\* entries: .*'dropout'"),
        ("stft.center = 1", r"stft\.\* entries: .*'center'"),
        ("net.growth = 2.5", "net.growth needs an integer, got '2.5'"),
        ("net.n_blocks = two", "net.n_blocks needs a number, got 'two'"),
        ("stft.win_len = 256.5", "stft.win_len needs an integer, got '256.5'"),
        ("net.in_channels = 7.5", "net.in_channels needs an integer, got '7.5'"),
    ])
    def test_other_header_values_rejected(self, tmp_path, line, key):
        _model, path = self.saved_model(tmp_path)
        self.add_header_lines(path, line)
        with pytest.raises(ValueError, match=f"model.ckpt: .*{key}"):
            load_model(path)

    @pytest.mark.parametrize("before, line, message", [
        (b"[tensors]", "net.growth 2", "expected 'key = value', got 'net.growth 2'"),
        (b"[data]", "extra.W 9x4", "expected 'name shape offset'"),
        (b"[data]", "extra.W 9xZx4 0", "expected 'name shape offset'"),
        (b"[data]", "extra.W -9x4 0", "expected 'name shape offset'"),
        (b"[data]", "extra.W 9x4 -8", "expected 'name shape offset'"),
        (b"[data]", None, "tensor branch.head.W is listed twice"),
    ], ids=["no-equals", "two-fields", "bad-shape", "negative-size", "negative-offset", "listed-twice"])
    def test_malformed_line_named_by_file_and_line(self, tmp_path, before, line, message):
        # `line` goes just before the `before` mark: a header line before
        # [tensors], a manifest line before [data]; None copies an entry
        _model, path = self.saved_model(tmp_path)
        head, mark, rest = path.read_bytes().partition(before + b"\n")
        if line is None:
            line = re.search(rb"^branch\.head\.W .*$", head, re.M).group().decode()
        path.write_bytes(head + f"{line}\n".encode() + mark + rest)
        number = head.count(b"\n") + 1
        with pytest.raises(ValueError, match=re.escape(f"model.ckpt:{number}: {message}")) as exc:
            load_checkpoint(path)
        if message.startswith("expected"):
            assert str(exc.value).endswith(f"got {line!r}")

    def test_header_bytes_not_utf8_named(self, tmp_path):
        _model, path = self.saved_model(tmp_path)
        head, mark, rest = path.read_bytes().partition(b"[tensors]\n")
        path.write_bytes(head + b"note = caf\xe9\n" + mark + rest)
        number = head.count(b"\n") + 1
        with pytest.raises(ValueError, match=re.escape(f"model.ckpt:{number}: not UTF-8 text: byte 0xe9")):
            load_checkpoint(path)

    def test_integral_header_values_load_as_integers(self, tmp_path):
        # the same rule as `cli.read_config`: "2.0" is the integer 2
        model, path = self.saved_model(tmp_path)
        self.add_header_lines(path, "net.n_blocks = 2.0", "stft.win_len = 480.0")
        _kind, loaded, net_cfg, stft_cfg, _config = load_model(path)
        assert net_cfg == tiny_config() and stft_cfg == StftConfig()
        assert type(net_cfg.n_blocks) is int and type(stft_cfg.win_len) is int
        x = np.random.default_rng(7).standard_normal((1, 7, 8, 16)).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x), model.forward(x))

    @pytest.mark.parametrize("field", TestConfigDomain.FIELDS[1:])
    def test_out_of_domain_header_value_rejected(self, tmp_path, field):
        path = tmp_path / "model.ckpt"
        save_model(path, KIND_ACCDOA, RD3NetLite(tiny_config()), tiny_config(), StftConfig(), {f"net.{field}": 0})
        with pytest.raises(ValueError, match=f"model.ckpt: bad net.* entries: {field} must be >= 1, got 0"):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        _model, path = self.saved_model(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match=r"model.ckpt: tensor \S+ runs past the end"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        # a non-finite weight would make the network output NaN, which
        # decodes as "no events" rather than failing
        _model, path = self.saved_model(tmp_path)
        ckpt = load_checkpoint(path)
        ckpt.tensors["branch.head.W"][1, 2] = value
        save_checkpoint(path, ckpt.kind, ckpt.config, ckpt.tensors)
        with pytest.raises(ValueError, match=r"model.ckpt: tensor branch.head.W holds non-finite values"):
            load_model(path)

    def test_unexpected_tensor_rejected(self, tmp_path):
        _model, path = self.saved_model(tmp_path)
        ckpt = load_checkpoint(path)
        ckpt.tensors["branch.extra.W"] = np.zeros(3, dtype=np.float32)
        save_checkpoint(path, ckpt.kind, ckpt.config, ckpt.tensors)
        with pytest.raises(ValueError, match=r"model.ckpt: missing tensors \[\], unexpected tensors \['branch.extra.W'\]"):
            load_model(path)


class TestTwoStageSemantics:
    def test_trunk_copy_bit_identical(self):
        model = TwoStageNet(tiny_config(), seed=2)
        sed_state = model.sed.trunk.state_dict()
        doa_state = model.doa.trunk.state_dict()
        assert any(not np.array_equal(sed_state[n], doa_state[n]) for n in sed_state)
        model.copy_trunk_to_doa()
        doa_state = model.doa.trunk.state_dict()
        for name in sed_state:
            assert np.array_equal(sed_state[name], doa_state[name]), name

    def test_compose_unit_direction_and_activity_norm(self):
        activity = np.array([[[0.8, 0.0]]])
        doa = np.zeros((1, 1, 2, 3))
        doa[0, 0, 0] = [2.0, 0.0, 0.0]
        out = compose_accdoa(activity, doa)
        np.testing.assert_allclose(out[0, 0, 0], [0.8, 0, 0])
        np.testing.assert_allclose(out[0, 0, 1], [0, 0, 0])
