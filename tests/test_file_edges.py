"""Byte-mutation fuzz of the file readers: each mutated file either loads,
or raises a ValueError whose message starts with the file's path; and of
`seldkit infer` on a mutated WAV, which exits 0 or exits 2 naming it."""

import itertools
import random

import numpy as np
import pytest

from seldkit import cli
from seldkit.accdoa import dump_accdoa, load_accdoa
from seldkit.cli import read_config
from seldkit.ensemble import EnsembleWeights, read_weights_csv, write_weights_csv
from seldkit.features import StftConfig
from seldkit.net.checkpoint import KIND_ACCDOA, load_model, save_intensity_checkpoint, save_model
from seldkit.net.model import NetConfig, RD3NetLite
from seldkit.scene import SceneConfig, read_label_csv, read_wav, synth_scene, write_label_csv, write_wav

MUTANTS = 150
CLI_MUTANTS = 60  # of the WAV's mutants, each run through `seldkit infer` with and without --tta
NET = NetConfig(n_classes=2, f_bins=9, stem_channels=2, growth=2, layers_per_block=1,
                n_blocks=1, freq_pool=2, gru_hidden=2)


def write_wav_file(path):
    clip, _ = synth_scene(SceneConfig(n_classes=2, duration_s=0.2, n_events=1, min_event_frames=1,
                                      max_event_frames=2))
    write_wav(path, clip)


def write_label_file(path):
    write_label_csv(path, synth_scene(SceneConfig(n_classes=3, duration_s=2.0, n_events=3))[1])


def write_weights_file(path):
    write_weights_csv(path, EnsembleWeights(np.arange(6.0).reshape(3, 2) / 7.0))


def write_checkpoint_file(path):
    save_model(path, KIND_ACCDOA, RD3NetLite(NET, seed=0), NET, StftConfig())


def write_config_file(path):
    path.write_text("# desk run\nscene.n_classes = 3\ntrain.lr = 0.001\nnet.growth = 4\n")


def write_accdoa_file(path):
    dump_accdoa(path, np.random.default_rng(0).standard_normal((5, 2, 3)))


READERS = {
    "wav": (write_wav_file, read_wav),
    "label_csv": (write_label_file, read_label_csv),
    "weights_csv": (write_weights_file, read_weights_csv),
    "checkpoint": (write_checkpoint_file, load_model),
    "config": (write_config_file, read_config),
    "accdoa": (write_accdoa_file, load_accdoa),
}


def mutants(raw: bytes, rng: random.Random):
    """Overwrite 1-8 bytes, truncate, insert 1-8 bytes, or insert a run of
    140,000 equal bytes (past the csv module's field limit).  Half the
    positions fall in the first 96 bytes, where the headers are."""
    def position(n):
        return rng.randrange(min(n, 96) if rng.random() < 0.5 else n)

    for _ in range(MUTANTS):
        b = bytearray(raw)
        kind = rng.randrange(4)
        if kind == 0:
            for _ in range(rng.randint(1, 8)):
                b[position(len(b))] = rng.randrange(256)
        elif kind == 1:
            del b[position(len(b)):]
        else:
            at = position(len(b) + 1)
            b[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8))) if kind == 2 \
                else bytes([rng.randrange(256)]) * 140_000
        yield bytes(b)


@pytest.mark.filterwarnings("ignore")  # scipy warns about chunks it skips or a short data chunk
@pytest.mark.parametrize("name", READERS)
def test_mutated_file_loads_or_is_rejected_by_path(tmp_path, name):
    write, read = READERS[name]
    path = tmp_path / f"fuzzed.{name}"
    write(path)
    read(path)
    for i, raw in enumerate(mutants(path.read_bytes(), random.Random(name))):
        path.write_bytes(raw)
        try:
            read(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path)), (i, str(exc)[:200])


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("tta", [[], ["--tta"]], ids=["plain", "tta"])
def test_infer_on_a_mutated_wav_exits_0_or_2_naming_it(tmp_path, capsys, tta):
    ckpt, wav = tmp_path / "intensity.ckpt", tmp_path / "fuzzed.wav"
    save_intensity_checkpoint(ckpt, 2, StftConfig())
    write_wav_file(wav)
    argv = ["infer", "--ckpt", str(ckpt), "--in", str(wav), "--out", str(tmp_path / "pred.csv"),
            "--seg-len", "8", "--shift", "3", *tta]
    codes = []
    for i, raw in enumerate(itertools.islice(mutants(wav.read_bytes(), random.Random("infer")), CLI_MUTANTS)):
        wav.write_bytes(raw)
        codes.append(cli.main(argv))
        err = capsys.readouterr().err
        assert (codes[-1], err) == (0, "") or codes[-1] == 2 and err.startswith(f"error: {wav}: "), \
            (i, codes[-1], err[:200])
    assert {0, 2} <= set(codes)
