"""Smoke test of the benchmark harness at tiny shapes.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
from spans import Tracer
from workloads import WORKLOADS, Shapes

BENCH = Path(__file__).resolve().parents[1]

TINY = Shapes(
    n_classes=2, stem_channels=4, growth=2,
    train_scene_s=1.0, batch_size=2, input_frames=32, pool_scenes=3, secondary_bank=2,
    clip_s=1.0, seg_len=32, shift=16, warmup_clip_s=0.5,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_reports_every_metric(name, trace, tmp_path):
    record = harness.run(WORKLOADS[name], seed=1, seconds=0.2, trace=trace,
                         results_dir=tmp_path, shapes=TINY)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= (2 if trace else 1)
    expected = [n for n, _u, _h in harness.PER_LAYER] if trace else list(harness.END_TO_END)
    assert list(record["metrics"]) == expected
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    final = json.loads(harness.final_line(record))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    if not trace:
        assert all(m["value"] > 0 for m in final["metrics"].values())
        rates = ["samples_per_s"] if name == "train_desk" else ["audio_x_realtime"]
        assert list(record["throughputs"]) == rates
    saved = json.loads((tmp_path / f"{name}-seed1-trace{int(trace)}.json").read_text())
    assert saved["shapes"]["seg_len"] == TINY.seg_len and "environment" in saved


def test_traced_counts_are_computed_from_call_shapes(tmp_path):
    record = harness.run(WORKLOADS["infer_overlap"], seed=0, seconds=0.2, trace=True,
                         results_dir=tmp_path, shapes=TINY)
    m = {k: v["value"] for k, v in record["metrics"].items()}
    n_frames = TINY.stft_cfg.n_frames(int(TINY.clip_s * 24000))
    starts = list(range(0, n_frames - TINY.seg_len + 1, TINY.shift))
    if starts[-1] != n_frames - TINY.seg_len:
        starts.append(n_frames - TINY.seg_len)
    assert m["infer.segments"] == len(starts)
    assert m["infer.trunk_frame_ratio"] == pytest.approx(len(starts) * TINY.seg_len / n_frames)
    assert m["features.stft_calls"] == 1
    assert m["net.layers.Conv2d.gflop"] > 0 and m["net.layers.Conv2d.bwd_s"] == 0
    # clips are made in the untraced prepare(); only the set-up warm-up clip is traced
    assert m["scene.synth_scene_s"] == 0 and m["scene.synth_scene_setup_s"] > 0


def test_command_line_names_every_workload():
    import run

    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.phase = "op"
    tracer.begin("outer")
    time.sleep(0.02)
    tracer.call("inner", time.sleep, 0.03)
    tracer.end()
    totals = tracer.totals()
    self_outer, incl_outer, calls = totals["outer"]
    assert calls == 1
    assert incl_outer == pytest.approx(self_outer + totals["inner"][1])
    assert totals["inner"][0] == totals["inner"][1] >= 0.03


def test_instrumentation_restores_seldkit():
    import seldkit
    from seldkit import features, infer
    from seldkit.net import RD3NetLite
    from spans import Instrumentation

    model = RD3NetLite(TINY.net_cfg)
    before = (features.stft, infer.sliding_inference, seldkit.stft)
    inst = Instrumentation(Tracer())
    inst.install(model=model)
    assert features.stft is not before[0] and "forward" in vars(model.branch.head)
    inst.remove()
    assert (features.stft, infer.sliding_inference, seldkit.stft) == before
    assert "forward" not in vars(model.branch.head)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
