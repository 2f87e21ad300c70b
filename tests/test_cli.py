import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from seldkit.accdoa import dump_accdoa, load_accdoa, encode_accdoa
from seldkit.cli import _CONFIG_DEFAULTS, _configs_from, main, read_config
from seldkit.ensemble import EnsembleWeights, write_weights_csv
from seldkit.features import StftConfig
from seldkit.net.checkpoint import KIND_ACCDOA, load_checkpoint, save_intensity_checkpoint, save_model
from seldkit.net.model import NetConfig, RD3NetLite
from seldkit.scene import (
    LABEL_FRAME_SAMPLES, SAMPLE_RATE, DoaAngles, Event, EventList, read_label_csv, read_wav, write_label_csv,
)

TINY_CONFIG = """
# desk-scale test configuration
scene.n_classes = 3
scene.duration_s = 2.0
scene.n_events = 2
stft.win_len = 256
stft.hop = 240
stft.fft_size = 256
net.stem_channels = 4
net.growth = 3
net.layers_per_block = 2
net.freq_pool = 2
net.gru_hidden = 4
train.batch_size = 2
train.input_frames = 32
data.pool_scenes = 4
data.secondary_bank = 4
"""

# one out-of-domain value for every config key, over TINY_CONFIG, and the
# complaint about it that `train` prints
OUT_OF_DOMAIN = [
    ("scene.n_classes", "0", "scene.n_classes must be >= 1, got 0"),
    ("scene.duration_s", "0.15", "scene.duration_s must be a multiple of 0.1 s, got 0.15"),
    ("scene.max_polyphony", "0", "scene.max_polyphony must be >= 1, got 0"),
    ("scene.n_events", "-1", "scene.n_events must be >= 0, got -1"),
    ("stft.win_len", "1000", "stft.win_len must be <= fft_size (256), got 1000"),
    ("stft.hop", "0", "stft.hop 0: the label grid needs a 10 ms hop, 240 samples"),
    ("stft.fft_size", "100", "stft.fft_size must be >= win_len (256), got 100"),
    ("stft.window", "nope", "stft.window 'nope' is not a scipy window"),
    ("net.stem_channels", "-1", "net.stem_channels must be >= 1, got -1"),
    ("net.growth", "-1", "net.growth must be >= 1, got -1"),
    ("net.layers_per_block", "-1", "net.layers_per_block must be >= 1, got -1"),
    ("net.n_blocks", "8", "net.n_blocks 8: freq_pool ** n_blocks = 256 exceeds f_bins 129"),
    ("net.freq_pool", "200", "net.freq_pool 200: freq_pool ** n_blocks = 40000 exceeds f_bins 129"),
    ("net.gru_hidden", "-1", "net.gru_hidden must be >= 1, got -1"),
    ("train.lr", "nan", "train.lr must be finite, got nan"),
    ("train.lr_decay", "0.0", "train.lr_decay must be > 0, got 0.0"),
    ("train.decay_interval", "0", "train.decay_interval must be > 0, got 0"),
    ("train.weight_decay", "inf", "train.weight_decay must be finite, got inf"),
    ("train.batch_size", "0", "train.batch_size must be > 0, got 0"),
    ("train.input_frames", "200",
     "train.input_frames 200 exceeds the 199 STFT frames of a scene.duration_s = 2.0 s scene"),
    ("data.pool_scenes", "0", "data.pool_scenes must be >= 1, got 0"),
    ("data.secondary_bank", "0", "data.secondary_bank must be >= 1, got 0"),
]

# the smallest value in every config key's domain
SMALLEST = {
    "scene.n_classes": 1, "scene.duration_s": 0.1, "scene.max_polyphony": 1, "scene.n_events": 0,
    "stft.win_len": 240, "stft.hop": 240, "stft.fft_size": 240, "stft.window": "boxcar",
    "net.stem_channels": 1, "net.growth": 1, "net.layers_per_block": 1, "net.n_blocks": 1,
    "net.freq_pool": 1, "net.gru_hidden": 1,
    "train.lr": 5e-324, "train.lr_decay": 5e-324, "train.decay_interval": 1, "train.weight_decay": 0.0,
    "train.batch_size": 1, "train.input_frames": 1,
    "data.pool_scenes": 1, "data.secondary_bank": 1,
}

TINY_NET = NetConfig(n_classes=3, f_bins=129, stem_channels=4, growth=3,
                     layers_per_block=2, n_blocks=2, freq_pool=2, gru_hidden=4)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


class TestSynth:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--scenes", "2", "--classes", "3", "--duration", "2.0",
                     "--seed", "1", "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "audio").iterdir()) == ["scene000.wav", "scene001.wav"]
        assert sorted(p.name for p in (out / "labels").iterdir()) == ["scene000.csv", "scene001.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["scenes"]) == 2

    def test_byte_identical_given_seed(self, tmp_path):
        for name in ("a", "b"):
            main(["synth", "--scenes", "2", "--classes", "3", "--duration", "2.0",
                  "--seed", "7", "--out", str(tmp_path / name)])
        for rel in ("audio/scene000.wav", "labels/scene001.csv", "audio/scene001.wav"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--scenes", "-1"), ("--scenes", "0"), ("--events", "-2"),
        ("--duration", "0"), ("--duration", "-1"), ("--duration", "0.05"),
        ("--duration", "nan"), ("--duration", "inf"),
        ("--classes", "0"), ("--polyphony", "0"), ("--seed", "-1"),
    ])
    def test_out_of_domain_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        argv = ["synth", "--scenes", "1", "--classes", "3", "--duration", "1.0", "--out", str(out)]
        assert main(argv + [flag, value]) == 2
        assert f"error: {flag} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("events", ["0", "3"])
    def test_smallest_in_domain_values(self, tmp_path, events):
        out = tmp_path / "data"
        assert main(["synth", "--scenes", "1", "--classes", "1", "--duration", "0.1", "--polyphony", "1",
                     "--events", events, "--seed", "0", "--out", str(out)]) == 0
        assert read_wav(out / "audio" / "scene000.wav").n_samples == LABEL_FRAME_SAMPLES

    def test_polyphony_one(self, tmp_path):
        out = tmp_path / "mono"
        main(["synth", "--scenes", "3", "--classes", "4", "--duration", "3.0",
              "--polyphony", "1", "--events", "5", "--seed", "2", "--out", str(out)])
        for csv_path in (out / "labels").iterdir():
            events = read_label_csv(csv_path)
            assert events.polyphony().max() <= 1


class TestTrain:
    def test_zero_iters_checkpoint_equals_init(self, tmp_path, tiny_config):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--mode", "accdoa", "--config", tiny_config,
                     "--iters", "0", "--seed", "3", "--out", str(ckpt)]) == 0
        loaded = load_checkpoint(ckpt)
        reference = RD3NetLite(
            NetConfig(n_classes=3, f_bins=129, stem_channels=4, growth=3,
                      layers_per_block=2, n_blocks=2, freq_pool=2, gru_hidden=4),
            seed=3,
        ).state_dict()
        assert set(loaded.tensors) == set(reference)
        for name, arr in reference.items():
            np.testing.assert_array_equal(loaded.tensors[name], arr.astype(np.float32), err_msg=name)

    def test_loss_log_row_count(self, tmp_path, tiny_config):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", tiny_config, "--iters", "3", "--emda", "--rotate",
              "--specaug", "--seed", "0", "--out", str(ckpt)])
        rows = Path(str(ckpt) + ".loss.csv").read_text().strip().splitlines()
        assert rows[0] == "iteration,loss,phase"
        assert len(rows) - 1 == math.ceil(3 / 100)

    def test_two_stage_checkpoint_contains_both_branches(self, tmp_path, tiny_config):
        ckpt = tmp_path / "two.ckpt"
        assert main(["train", "--mode", "two-stage", "--config", tiny_config,
                     "--iters", "2", "--seed", "1", "--out", str(ckpt)]) == 0
        names = set(load_checkpoint(ckpt).tensors)
        assert any(n.startswith("sed.") for n in names)
        assert any(n.startswith("doa.") for n in names)

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scene.bogus = 1\n")
        with pytest.raises(ValueError, match="bad.cfg:1: unknown key 'scene.bogus'"):
            read_config(bad)

    def test_malformed_numeric_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("# comment\ntrain.batch_size = 2.7\n")
        with pytest.raises(ValueError, match="bad.cfg:2: train.batch_size"):
            read_config(bad)
        bad.write_text("train.lr = fast\n")
        with pytest.raises(ValueError, match="bad.cfg:1: train.lr"):
            read_config(bad)
        bad.write_text("train.batch_size = 3.0\n")
        assert read_config(bad)["train.batch_size"] == 3

    def test_config_bytes_not_utf8_named(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"# comment\ntrain.lr = 0.001 # \xb5s\n")
        with pytest.raises(ValueError, match="bad.cfg:2: not UTF-8 text: byte 0xb5"):
            read_config(bad)

    def test_bad_config_exits_2_naming_the_line(self, tmp_path, capsys):
        # the exit code of a typing error in a checkpoint header
        bad = tmp_path / "bad.cfg"
        bad.write_text("train.batch_size = 2.5\n")
        code = main(["train", "--config", str(bad), "--iters", "0", "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "bad.cfg:1: train.batch_size" in capsys.readouterr().err

    def test_default_scene_holds_one_input(self):
        scene_cfg, stft_cfg, _, train_cfg = _configs_from(read_config(None), 0)
        n_samples = int(round(scene_cfg.duration_s * SAMPLE_RATE))
        assert stft_cfg.n_frames(n_samples) >= train_cfg.input_frames

    def test_coarse_hop_rejected(self, tmp_path, tiny_config, capsys):
        config = Path(tiny_config)
        text = config.read_text().replace("stft.hop = 240", "stft.hop = 480")
        config.write_text(text.replace("win_len = 256", "win_len = 480").replace("fft_size = 256", "fft_size = 512"))
        code = main(["train", "--config", str(config), "--iters", "0",
                     "--out", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert "hop 480" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_checkpoint_records_effective_config(self, tmp_path, tiny_config):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", tiny_config, "--iters", "0", "--seed", "2",
                     "--out", str(ckpt)]) == 0
        config = load_checkpoint(ckpt).config
        for key, value in read_config(tiny_config).items():
            assert config.get(key) == str(value), key
        assert (config["train.seed"], config["train.iters"], config["train.mode"]) == ("2", "0", "accdoa")

    @pytest.mark.parametrize("key", ["stem_channels", "growth", "layers_per_block", "n_blocks",
                                     "freq_pool", "gru_hidden"])
    def test_out_of_domain_net_key_exits_2_naming_it(self, tmp_path, tiny_config, capsys, key):
        config = Path(tiny_config)
        config.write_text(config.read_text() + f"net.{key} = 0\n")
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(config), "--iters", "0", "--out", str(ckpt)]) == 2
        assert f"error: net.{key} must be >= 1, got 0" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--iters", "-1"], "--iters must be >= 0, got -1"),
        (["--iters", "0", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--mode", "two-stage", "--iters", "2", "--iters-doa", "5"],
         "--iters-sed and --iters-doa must be >= 0, got -3 and 5"),
        (["--mode", "two-stage", "--iters", "2", "--iters-sed", "3"],
         "--iters-sed and --iters-doa must be >= 0, got 3 and -1"),
    ])
    def test_out_of_domain_flag_exits_2_naming_it(self, tmp_path, tiny_config, capsys, argv, message):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", tiny_config, "--out", str(ckpt)] + argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("config_line, argv, message", [
        ("stft.window = nope", [], "stft.window 'nope' is not a scipy window"),
        ("train.weight_decay = -1.0", [], "train.weight_decay must be >= 0, got -1.0"),
        ("", ["--workers", "0"], "--workers must be >= 1, got 0"),
        ("", ["--workers", "-3"], "--workers must be >= 1, got -3"),
        # a scene shorter than one STFT window has no frames at all
        ("scene.duration_s = 0.1\nstft.win_len = 4800\nstft.fft_size = 8192", [],
         "train.input_frames 32 exceeds the 0 STFT frames of a scene.duration_s = 0.1 s scene"),
    ])
    def test_out_of_domain_setting_exits_2_naming_it(self, tmp_path, tiny_config, capsys,
                                                     config_line, argv, message):
        config = Path(tiny_config)
        config.write_text(config.read_text() + config_line + "\n")
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(config), "--iters", "0", "--out", str(ckpt)] + argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("mode", ["accdoa", "two-stage"])
    def test_smallest_in_domain_values_train_save_infer(self, tmp_path, mode):
        config = tmp_path / "smallest.cfg"
        config.write_text("\n".join(f"{key} = {value}" for key, value in SMALLEST.items()))
        assert main(["synth", "--scenes", "1", "--classes", "1", "--duration", "0.1", "--events", "0",
                     "--polyphony", "1", "--out", str(tmp_path / "data")]) == 0
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--mode", mode, "--config", str(config), "--iters", "2", "--emda", "--rotate",
                     "--specaug", "--out", str(ckpt)]) == 0
        assert main(["infer", "--ckpt", str(ckpt), "--in", str(tmp_path / "data" / "audio" / "scene000.wav"),
                     "--tta", "--out", str(tmp_path / "pred.csv")]) == 0

    def test_every_config_key_has_both_cases(self):
        assert [key for key, _, _ in OUT_OF_DOMAIN] == list(SMALLEST) == list(_CONFIG_DEFAULTS)

    @pytest.mark.parametrize("key, value, message", OUT_OF_DOMAIN, ids=[key for key, _, _ in OUT_OF_DOMAIN])
    def test_out_of_domain_config_key_exits_2_naming_it(self, tmp_path, tiny_config, capsys, key, value, message):
        config = Path(tiny_config)
        config.write_text(config.read_text() + f"{key} = {value}\n")
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(config), "--iters", "0", "--out", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag, value, expected", [
        ("--iters-sed", "1", [("1", "sed"), ("4", "doa")]),
        ("--iters-doa", "1", [("3", "sed"), ("4", "doa")]),
    ])
    def test_two_stage_phase_flag_alone_takes_remainder(self, tmp_path, tiny_config,
                                                        flag, value, expected):
        ckpt = tmp_path / "two.ckpt"
        assert main(["train", "--mode", "two-stage", "--config", tiny_config,
                     "--iters", "4", flag, value, "--seed", "0", "--out", str(ckpt)]) == 0
        rows = Path(str(ckpt) + ".loss.csv").read_text().strip().splitlines()[1:]
        assert [(row.split(",")[0], row.split(",")[2]) for row in rows] == expected


class TestInferEval:
    def setup_scene(self, tmp_path, seed=5):
        out = tmp_path / "data"
        main(["synth", "--scenes", "1", "--classes", "3", "--duration", "2.0",
              "--events", "2", "--seed", str(seed), "--out", str(out)])
        return out / "audio" / "scene000.wav", out / "labels" / "scene000.csv"

    def oracle_ckpt(self, tmp_path):
        path = tmp_path / "oracle.ckpt"
        save_intensity_checkpoint(path, 3, StftConfig(win_len=256, hop=240, fft_size=256))
        return path

    def test_infer_tta_matches_plain_for_oracle(self, tmp_path):
        wav, _ = self.setup_scene(tmp_path)
        ckpt = self.oracle_ckpt(tmp_path)
        base = ["infer", "--ckpt", str(ckpt), "--in", str(wav),
                "--seg-len", "64", "--shift", "16", "--threshold", "0.15"]
        main(base + ["--out", str(tmp_path / "plain.csv"),
                     "--dump-accdoa", str(tmp_path / "plain.acc")])
        main(base + ["--tta", "--out", str(tmp_path / "tta.csv"),
                     "--dump-accdoa", str(tmp_path / "tta.acc")])
        plain = load_accdoa(tmp_path / "plain.acc")
        tta = load_accdoa(tmp_path / "tta.acc")
        assert np.abs(plain - tta).max() < 1e-6
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "tta.csv").read_bytes()

    def test_infer_rejects_other_sample_rate(self, tmp_path, capsys):
        wav = tmp_path / "48k.wav"
        wavfile.write(str(wav), 48000, np.zeros((4800, 4), dtype=np.float32))
        code = main(["infer", "--ckpt", str(self.oracle_ckpt(tmp_path)), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "48000" in err and "24000" in err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_infer_names_the_wav_and_its_first_non_finite_sample(self, tmp_path, capsys, value, shown):
        data = np.zeros((4800, 4), dtype=np.float32)
        data[3000, 0] = data[17, 3] = data[17, 2] = value  # the earliest sample, then the lowest channel
        wav = tmp_path / "bad.wav"
        wavfile.write(str(wav), 24000, data)
        code = main(["infer", "--ckpt", str(self.oracle_ckpt(tmp_path)), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert f"error: {wav}: non-finite sample {shown} at channel 2, sample 17" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_infer_names_a_wav_shorter_than_one_window(self, tmp_path, capsys):
        wav = tmp_path / "short.wav"
        wavfile.write(str(wav), 24000, np.zeros((100, 4), dtype=np.float32))
        code = main(["infer", "--ckpt", str(self.oracle_ckpt(tmp_path)), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert f"error: {wav}: clip of 100 samples shorter than one window (256)" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("seg_len, shift", [("64", "0"), ("64", "65"), ("0", "1")])
    def test_infer_rejects_bad_segment_geometry(self, tmp_path, capsys, seg_len, shift):
        wav, _ = self.setup_scene(tmp_path)
        code = main(["infer", "--ckpt", str(self.oracle_ckpt(tmp_path)), "--in", str(wav),
                     "--seg-len", seg_len, "--shift", shift, "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert f"seg_len {seg_len}, shift {shift}" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_eval_rejects_short_label_row(self, tmp_path, capsys):
        _, labels = self.setup_scene(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text(labels.read_text() + "5,1,0,10\n")
        code = main(["eval", "--pred", str(pred), "--ref", str(labels), "--classes", "3"])
        assert code == 2
        assert "pred.csv:" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        (b"5,1,0," + b"1" * 200_000 + b",0\n", "field larger than field limit (131072)"),
        (b"5,1,0,10,\xb9\n", "not UTF-8 text: byte 0xb9, invalid start byte"),
    ], ids=["field-over-limit", "not-utf8"])
    def test_eval_names_an_unreadable_label_csv(self, tmp_path, capsys, row, message):
        # the oversized field used to end in a `_csv.Error` traceback
        _, labels = self.setup_scene(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_bytes(b"0,1,0,10,0\n" + row)
        code = main(["eval", "--pred", str(pred), "--ref", str(labels), "--classes", "3"])
        assert code == 2
        assert f"error: {pred}:2: {message}" in capsys.readouterr().err

    def test_infer_names_a_truncated_wav(self, tmp_path, capsys):
        wav, _ = self.setup_scene(tmp_path)
        wav.write_bytes(wav.read_bytes()[:-6])
        code = main(["infer", "--ckpt", str(self.oracle_ckpt(tmp_path)), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert f"error: {wav}: not a readable WAV file: cannot reshape" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("side", ["pred", "ref"])
    def test_eval_class_beyond_classes_named_by_file_line_and_flag(self, tmp_path, capsys, side):
        rows = {"pred": "0,0,0,10,20\n1,1,0,10,20\n", "ref": "0,0,0,10,20\n1,1,0,10,20\n"}
        rows[side] += "2,2,0,30,0\n"
        for name, text in rows.items():
            (tmp_path / f"{name}.csv").write_text(text)
        code = main(["eval", "--pred", str(tmp_path / "pred.csv"), "--ref", str(tmp_path / "ref.csv"),
                     "--classes", "2"])
        assert code == 2
        assert f"{side}.csv:3: class_id 2 >= --classes 2" in capsys.readouterr().err

    def test_infer_rejects_unknown_checkpoint_key(self, tmp_path, capsys):
        wav, _ = self.setup_scene(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, KIND_ACCDOA, RD3NetLite(TINY_NET), TINY_NET,
                   StftConfig(win_len=256, hop=240, fft_size=256), {"net.dropout": 0.5})
        code = main(["infer", "--ckpt", str(ckpt), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "model.ckpt: bad net.* entries" in err and "'dropout'" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_infer_rejects_non_finite_checkpoint_tensor(self, tmp_path, capsys, value):
        wav, _ = self.setup_scene(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        model = RD3NetLite(TINY_NET)
        model.branch.head.params["W"][0, 0] = value
        save_model(ckpt, KIND_ACCDOA, model, TINY_NET, StftConfig(win_len=256, hop=240, fft_size=256))
        code = main(["infer", "--ckpt", str(ckpt), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert "model.ckpt: tensor branch.head.W holds non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("key", ["net.layers_per_block", "net.freq_pool", "net.gru_hidden"])
    def test_infer_rejects_out_of_domain_checkpoint_value(self, tmp_path, capsys, key):
        wav, _ = self.setup_scene(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, KIND_ACCDOA, RD3NetLite(TINY_NET), TINY_NET,
                   StftConfig(win_len=256, hop=240, fft_size=256), {key: 0})
        code = main(["infer", "--ckpt", str(ckpt), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert f"model.ckpt: bad net.* entries: {key[4:]} must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_infer_rejects_unknown_checkpoint_window(self, tmp_path, capsys):
        wav, _ = self.setup_scene(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, KIND_ACCDOA, RD3NetLite(TINY_NET), TINY_NET,
                   StftConfig(win_len=256, hop=240, fft_size=256), {"stft.window": "nope"})
        code = main(["infer", "--ckpt", str(ckpt), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert "window 'nope' is not a scipy window" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_infer_rejects_non_integral_checkpoint_value(self, tmp_path, capsys):
        wav, _ = self.setup_scene(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, KIND_ACCDOA, RD3NetLite(TINY_NET), TINY_NET,
                   StftConfig(win_len=256, hop=240, fft_size=256), {"net.growth": 2.5})
        code = main(["infer", "--ckpt", str(ckpt), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert "model.ckpt: net.growth needs an integer, got '2.5'" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_infer_rejects_intensity_checkpoint_without_classes(self, tmp_path, capsys):
        wav, _ = self.setup_scene(tmp_path)
        ckpt = self.oracle_ckpt(tmp_path)
        header, sep, rest = ckpt.read_bytes().partition(b"[tensors]\n")
        lines = [line for line in header.split(b"\n") if not line.startswith(b"net.n_classes")]
        ckpt.write_bytes(b"\n".join(lines) + sep + rest)
        code = main(["infer", "--ckpt", str(ckpt), "--in", str(wav),
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        assert "oracle.ckpt: missing net.n_classes" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_eval_counts_prediction_past_reference_end(self, tmp_path):
        ref, pred = tmp_path / "ref.csv", tmp_path / "pred.csv"
        ref.write_text("0,0,0,10,0\n1,0,0,10,0\n")
        pred.write_text("0,0,0,10,0\n1,0,0,10,0\n5,1,0,-40,0\n")
        out = tmp_path / "metrics.json"
        assert main(["eval", "--pred", str(pred), "--ref", str(ref),
                     "--classes", "2", "--out", str(out)]) == 0
        counts = json.loads(out.read_text())["counts"]
        assert (counts["TP"], counts["FP"], counts["FN"], counts["N_ref"]) == (2, 1, 0, 2)

    def test_eval_identical_files_is_perfect(self, tmp_path):
        _, labels = self.setup_scene(tmp_path)
        out = tmp_path / "metrics.json"
        assert main(["eval", "--pred", str(labels), "--ref", str(labels),
                     "--classes", "3", "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())
        assert metrics["ER20"] == pytest.approx(0.0)
        assert metrics["F20"] == pytest.approx(100.0)

    def test_eval_comparison_table(self, tmp_path, capsys):
        _, labels = self.setup_scene(tmp_path)
        out = tmp_path / "compare.json"
        main(["eval", "--pred", f"sysA={labels}", "--pred", f"sysB={labels}",
              "--ref", str(labels), "--classes", "3", "--out", str(out),
              "--csv", str(tmp_path / "compare.csv")])
        table = capsys.readouterr().out
        assert "sysA" in table and "sysB" in table
        payload = json.loads(out.read_text())
        assert set(payload) == {"sysA", "sysB"}
        rows = (tmp_path / "compare.csv").read_text().strip().splitlines()
        assert len(rows) == 3

    def test_eval_directory_mode(self, tmp_path):
        out = tmp_path / "data"
        main(["synth", "--scenes", "2", "--classes", "3", "--duration", "2.0",
              "--seed", "9", "--out", str(out)])
        assert main(["eval", "--pred", str(out / "labels"), "--ref", str(out / "labels"),
                     "--classes", "3", "--out", str(tmp_path / "m.json")]) == 0
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert metrics["F20"] == pytest.approx(100.0)

    def test_missing_file_is_error_exit(self, tmp_path):
        code = main(["eval", "--pred", str(tmp_path / "nope.csv"),
                     "--ref", str(tmp_path / "nope.csv"), "--classes", "3"])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--threshold", "-5"), ("--threshold", "0"), ("--threshold", "nan"), ("--threshold", "-inf"),
        ("--classes", "0"),
    ])
    def test_out_of_domain_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        # no distance is below these thresholds, so pred = ref would score
        # ER 1 and F 0; a class count below 1 has no class to score
        _, labels = self.setup_scene(tmp_path)
        argv = ["eval", "--pred", str(labels), "--ref", str(labels), "--classes", "3"]
        code = main(argv + [f"{flag}={value}"])  # "=": argparse takes "-inf" alone for an option
        assert code == 2
        assert f"error: {flag} must be" in capsys.readouterr().err


class TestEnsembleCli:
    def test_fit_and_apply(self, tmp_path):
        rng = np.random.default_rng(0)
        events = EventList(
            [Event(0, 2, 8, [DoaAngles(0.4, 0.1)] * 6), Event(1, 5, 12, [DoaAngles(-1.2, -0.3)] * 7)],
            15,
        )
        labels = tmp_path / "ref.csv"
        write_label_csv(labels, events)
        targets = encode_accdoa(read_label_csv(labels, n_frames=15), 2)
        oracle = targets + 0.05 * rng.standard_normal(targets.shape)
        noise = rng.standard_normal(targets.shape)
        dump_accdoa(tmp_path / "m0.acc", oracle)
        dump_accdoa(tmp_path / "m1.acc", noise)
        weights = tmp_path / "w.csv"
        assert main(["ensemble", "fit", "--preds", str(tmp_path / "m0.acc"), str(tmp_path / "m1.acc"),
                     "--labels", str(labels), "--weights", str(weights)]) == 0
        w = np.loadtxt(weights, delimiter=",", skiprows=1)[:, 1:]
        assert np.all(np.abs(w[:, 0] - 1.0) < 0.2)
        assert np.all(np.abs(w[:, 1]) < 0.2)
        pred_csv = tmp_path / "combined.csv"
        assert main(["ensemble", "apply", "--preds", str(tmp_path / "m0.acc"), str(tmp_path / "m1.acc"),
                     "--weights", str(weights), "--out", str(pred_csv)]) == 0
        decoded = read_label_csv(pred_csv, n_frames=15)
        assert {ev.class_id for ev in decoded.events} == {0, 1}

    @pytest.mark.parametrize("raw, message", [
        pytest.param(b"\x02\x00\x00", "3 bytes, shorter than the 24-byte header", id="short-header"),
        pytest.param(struct.pack("<3q", -1, 3, 3) + bytes(72), "header dims (-1, 3, 3)", id="negative-dim"),
        pytest.param(struct.pack("<3q", 2, 3, 3) + bytes(68), "68 data bytes", id="truncated-data"),
        pytest.param(struct.pack("<3q", 2, 1, 4) + bytes(32), "header dims (2, 1, 4)", id="last-dim-not-3"),
        # decoding would split the event at the NaN frame and drop that frame
        pytest.param(struct.pack("<3q", 3, 1, 3) + np.array([0.9, np.nan, 0.9], "<f4").repeat(3).tobytes(),
                     "non-finite value at frame 1", id="nan"),
        pytest.param(struct.pack("<3q", 3, 1, 3) + np.array([0, 0, 1, 0, 0, 0, 0, 0, -np.inf], "<f4").tobytes(),
                     "non-finite value at frame 2", id="inf"),
    ])
    def test_bad_prediction_file_is_error_exit(self, tmp_path, capsys, raw, message):
        bad = tmp_path / "bad.acc"
        bad.write_bytes(raw)
        weights = tmp_path / "w.csv"
        write_weights_csv(weights, EnsembleWeights(np.ones((3, 1))))
        assert main(["ensemble", "apply", "--preds", str(bad), "--weights", str(weights),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    def test_fit_requires_labels(self):
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "fit", "--preds", "x.acc", "--weights", "w.csv"])
        assert exc.value.code == 2

    def test_apply_requires_out(self):
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "apply", "--preds", "x.acc", "--weights", "w.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--lr", "--iters", "--batch", "--seed", "--classes"])
    def test_fit_has_no_tuning_flags(self, tmp_path, flag):
        dump_accdoa(tmp_path / "m.acc", np.zeros((4, 2, 3)))
        write_label_csv(tmp_path / "ref.csv", EventList([], 4))
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "fit", "--preds", str(tmp_path / "m.acc"), "--labels", str(tmp_path / "ref.csv"),
                  "--weights", str(tmp_path / "w.csv"), flag, "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "w.csv").exists()

    def test_fit_rejects_label_class_beyond_the_outputs(self, tmp_path, capsys):
        # the dumps hold 2 classes; line 3 is the first row of class 2
        dump_accdoa(tmp_path / "m.acc", np.zeros((4, 2, 3)))
        events = EventList([Event(0, 0, 2, [DoaAngles(0.0, 0.0)] * 2), Event(2, 2, 4, [DoaAngles(0.0, 0.0)] * 2)], 4)
        write_label_csv(tmp_path / "ref.csv", events)
        assert main(["ensemble", "fit", "--preds", str(tmp_path / "m.acc"), "--labels", str(tmp_path / "ref.csv"),
                     "--weights", str(tmp_path / "w.csv")]) == 2
        assert (f"error: {tmp_path / 'ref.csv'}:3: class_id 2 >= 2, the class count of --preds {tmp_path / 'm.acc'}"
                in capsys.readouterr().err)
        assert not (tmp_path / "w.csv").exists()


class TestPlot:
    def test_single_event_has_one_group(self, tmp_path):
        events = EventList([Event(1, 2, 6, [DoaAngles(0.5, 0.2)] * 4)], 10)
        pred = tmp_path / "pred.csv"
        write_label_csv(pred, events)
        svg = tmp_path / "plot.svg"
        assert main(["plot", "--pred", str(pred), "--out", str(svg), "--classes", "3"]) == 0
        text = svg.read_text()
        assert text.count('<g class="event"') == 1
        assert (tmp_path / "plot.csv").exists()

    def test_track_csv_contents(self, tmp_path):
        events = EventList([Event(0, 0, 2, [DoaAngles(0.0, 0.0)] * 2)], 4)
        pred = tmp_path / "pred.csv"
        write_label_csv(pred, events)
        main(["plot", "--pred", str(pred), "--out", str(tmp_path / "p.svg")])
        rows = (tmp_path / "p.csv").read_text().strip().splitlines()
        assert rows[0] == "event_id,class_id,label_frame,azimuth_deg,elevation_deg"
        assert len(rows) == 3

    @pytest.mark.parametrize("classes, message", [
        ("1", "--classes 1 has no activity row for event class_id 2"),
        ("0", "--classes must be >= 1, got 0"),
        ("-1", "--classes must be >= 1, got -1"),
    ])
    def test_classes_must_cover_every_event(self, tmp_path, capsys, classes, message):
        # class rows are 120 / classes high from the top of the activity
        # panel, so a class at or above --classes lands on the angle panels
        events = EventList([Event(1, 0, 2, [DoaAngles(0.0, 0.0)] * 2),
                            Event(2, 1, 3, [DoaAngles(0.3, 0.1)] * 2)], 4)
        pred = tmp_path / "pred.csv"
        write_label_csv(pred, events)
        svg = tmp_path / "p.svg"
        assert main(["plot", "--pred", str(pred), "--out", str(svg), "--classes", classes]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not svg.exists()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "seldkit 0.1.0" in capsys.readouterr().out
