"""Runs one workload for a fixed time and turns the timings into metrics.

Untraced runs (`trace=False`) report the end-to-end metrics.  Traced runs
alternate traced and untraced ops: the traced ones give the per-layer self
times and counts, and the two medians give the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from spans import Instrumentation, Tracer

_clock = time.perf_counter

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 1.0
FIRST_TRACED_OP = 1     # traced runs trace the odd ops

# name -> (unit, meaning); reported on every untraced run
END_TO_END = {
    "setup_s": ("s", "median wall time of one workload set-up, over the repeats of a run"),
    "op_s_p50": ("s", "median wall time of one op"),
    "peak_rss_mb": ("MB", "peak resident set size of the process"),
}

# Per-layer metrics of the traced run.  Times are self seconds per traced op
# unless the unit says otherwise.  Counts are computed by the harness from the
# arguments of the wrapped calls, never read from counters inside seldkit, and
# are those of the first traced op, so they depend on the seed alone.
LAYERS = ("Conv2d", "NetDeconv", "Elu", "FreqPool", "Gru", "Linear")
PER_LAYER = (
    [(f"net.layers.{k}.{d}_s", "s/op", ("self", f"net.layers.{k}.{d}")) for k in LAYERS for d in ("fwd", "bwd")]
    + [
        ("net.layers.Conv2d.gflop", "GFLOP/op", ("count", "net.layers.Conv2d.flop", 1e-9)),
        ("net.optim.adam_step_s", "s/op", ("self", "net.optim.adam_step")),
        ("net.losses.loss_s", "s/op", ("self", "net.losses.loss")),
        ("net.train.batch_s", "s/op", ("inclusive", "net.train.batch")),
        ("net.train.batch_self_s", "s/op", ("self", "net.train.batch")),
        ("net.checkpoint.load_model_s", "s/call", ("per_call", "net.checkpoint.load_model")),
        ("infer.sliding_inference_s", "s/op", ("self", "infer.sliding_inference")),
        ("infer.predict_batch_s", "s/op", ("self", "infer.predict_batch")),
        ("infer.rotation_tta_s", "s/op", ("self", "infer.rotation_tta")),
        ("infer.segments", "count/op", ("count", "infer.segments", 1.0)),
        ("infer.trunk_frame_ratio", "ratio", ("ratio", "infer.trunk_frames", "infer.clip_frames")),
        ("features.stft_s", "s/op", ("self", "features.stft")),
        ("features.make_feature_stack_s", "s/op", ("self", "features.make_feature_stack")),
        ("features.stft_calls", "count/op", ("count", "features.stft_calls", 1.0)),
        ("augment.rotate_foa_s", "s/op", ("self", "augment.rotate_foa")),
        ("augment.emda_mix_s", "s/op", ("self", "augment.emda_mix")),
        ("augment.spec_augment_s", "s/op", ("self", "augment.spec_augment")),
        ("intensity.predict_batch_s", "s/op", ("self", "intensity.predict_batch")),
        ("scene.synth_scene_s", "s/op", ("self", "scene.synth_scene")),
        ("scene.synth_scene_setup_s", "s/setup", ("per_setup", "scene.synth_scene")),
        ("scene.write_wav_s", "s/op", ("self", "scene.write_wav")),
        ("scene.read_wav_s", "s/op", ("self", "scene.read_wav")),
        ("scene.label_csv_s", "s/op", ("self", "scene.label_csv")),
        ("accdoa.decode_accdoa_s", "s/op", ("self", "accdoa.decode_accdoa")),
        ("accdoa.pool_to_label_rate_s", "s/op", ("self", "accdoa.pool_to_label_rate")),
        ("metrics.update_s", "s/op", ("self", "metrics.update")),
        ("metrics.match_frame_class_calls", "count/op", ("count", "metrics.match_frame_class_calls", 1.0)),
        ("trace.overhead_frac", "fraction", ("overhead",)),
    ]
)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up `workload` several times, then run ops for about `seconds`.

    The next op starts only while it is expected to end within half an op of
    the deadline, so a run measures `seconds` give or take half an op.  At
    least one untraced op runs, and a traced run also runs one traced op.
    Ops that raise or fail their output check count as failed.
    """
    tracer = Tracer() if trace else None
    inst = Instrumentation(tracer) if trace else None

    setup_times = []
    t_setup = _clock()
    while len(setup_times) < SETUP_MIN_REPEATS or (
        _clock() - t_setup < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        if inst:
            inst.install()
        t0 = _clock()
        try:
            workload.setup(seed, workdir)
        finally:
            setup_times.append(_clock() - t0)
            if inst:
                inst.remove()

    op_times, traced_times, failures = [], [], []
    attempted = 0
    start = _clock()
    while True:
        k = attempted
        traced = trace and k % 2 == 1   # op 0 runs untraced, so a cold start is not charged to tracing
        inputs = workload.prepare(k)
        if traced:
            tracer.phase, tracer.op = "op", k
            inst.install(workload.model, workload.stream)
            tracer.begin("op")
        t0 = _clock()
        try:
            output = workload.op(inputs)
            error = None
        except Exception:  # an op that raises counts as failed; the run goes on
            error = traceback.format_exc()
        dt = _clock() - t0
        if traced:
            tracer.end()
            inst.remove()
            tracer.phase = "idle"
        (traced_times if traced else op_times).append(dt)
        attempted += 1
        if error is None:
            try:
                error = workload.check(k, output)
            except Exception:  # a check that cannot read the output fails the op
                error = traceback.format_exc()
        workload.finish(k)
        if error:
            failures.append(error)
            print(f"op {k} failed: {error}", file=sys.stderr)
        elapsed = _clock() - start
        per_op = elapsed / attempted
        if elapsed + per_op / 2 > seconds and op_times and (traced_times or not trace):
            break

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "setup_times": setup_times,
        "op_times": op_times,
        "traced_op_times": traced_times,
        "measured_s": _clock() - start,
    }
    if trace:
        result["metrics"] = per_layer_metrics(tracer, traced_times, op_times, len(setup_times))
        result["tracer"] = tracer
    else:
        result["metrics"] = end_to_end_metrics(setup_times, op_times)
        result["throughputs"] = throughputs(workload, op_times)
    return result


def end_to_end_metrics(setup_times, op_times) -> dict:
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "op_s_p50": (statistics.median(op_times), len(op_times)),
        "peak_rss_mb": (_peak_rss_mb(), 1),
    }
    return {name: {"value": v, "unit": END_TO_END[name][0], "n": cnt} for name, (v, cnt) in values.items()}


def throughputs(workload, op_times) -> dict:
    """Printed rates over the median op, only where the workload defines the
    work: training samples (train_desk) or seconds of audio (the others).
    They are fixed multiples of 1/op_s_p50, so they are not bounded metrics."""
    p50, n = statistics.median(op_times), len(op_times)
    out = {}
    if workload.samples_per_op is not None:
        out["samples_per_s"] = {"value": workload.samples_per_op / p50, "unit": "1/s", "n": n}
    if workload.audio_s_per_op is not None:
        out["audio_x_realtime"] = {"value": workload.audio_s_per_op / p50, "unit": "x", "n": n}
    return out


def per_layer_metrics(tracer: Tracer, traced_times, op_times, n_setups: int) -> dict:
    n_ops = len(traced_times)
    per_op = tracer.totals("op")
    per_setup = tracer.totals("setup")
    every = tracer.totals(None)
    counts = tracer.op_counts(FIRST_TRACED_OP)
    out = {}
    for name, unit, how in PER_LAYER:
        kind = how[0]
        n = n_ops
        if kind == "self":
            value = per_op[how[1]][0] / n_ops if how[1] in per_op else 0.0
        elif kind == "inclusive":
            value = per_op[how[1]][1] / n_ops if how[1] in per_op else 0.0
        elif kind == "per_call":   # every call does the same work, in set-up or in an op
            self_s, _incl, n = every[how[1]] if how[1] in every else (0.0, 0.0, 0)
            value = self_s / n if n else 0.0
        elif kind == "per_setup":
            n = n_setups
            value = per_setup[how[1]][0] / n if how[1] in per_setup else 0.0
        elif kind == "count":
            n = 1
            value = counts.get(how[1], 0.0) * how[2]
        elif kind == "ratio":
            n = 1
            base = counts.get(how[2], 0.0)
            value = counts.get(how[1], 0.0) / base if base else 0.0
        else:  # overhead of the traced ops over the untraced ones
            value = statistics.median(traced_times) / statistics.median(op_times) - 1.0
        out[name] = {"value": value, "unit": unit, "n": n}
    return out


def run(workload_cls, seed: int, seconds: float, trace: bool, results_dir: Path, shapes=None) -> dict:
    """Run one workload and write its run record (and spans) under `results_dir`."""
    results_dir.mkdir(parents=True, exist_ok=True)
    workload = workload_cls() if shapes is None else workload_cls(shapes)
    with tempfile.TemporaryDirectory(dir=results_dir) as workdir:
        result = run_workload(workload, seed, seconds, trace, Path(workdir))
    tracer = result.pop("tracer", None)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one caller",
        "environment": environment(),
        "shapes": {**asdict(workload.shapes), "stft": asdict(workload.shapes.stft_cfg)},
        "stored_reference": str(seed) in workload.references,
        **result,
    }
    if tracer is not None:
        spans_path = results_dir / f"{tag}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        record["spans_file"] = spans_path.name
    record_path = results_dir / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1, default=float))
    record["record_file"] = str(record_path)
    return record


def summary_lines(record: dict) -> list:
    lines = [f"{record['workload']} seed={record['seed']} trace={int(record['trace'])} "
             f"ops={record['attempted']} failed={record['failed']} "
             f"stored_reference={record['stored_reference']}"]
    for name, m in {**record["metrics"], **record.get("throughputs", {})}.items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']} (n={m['n']})")
    if not record["trace"]:
        times = record["op_times"]
        # p90 only when at least ten samples lie beyond it
        p90 = f"{np.percentile(times, 90):.6g} s" if len(times) >= 100 else "n/a: fewer than 100 ops"
        lines.append(f"  {'op_s_p90':34s} {p90} (n={len(times)})")
        lines.append(f"  {'failed_frac':34s} {record['failed'] / record['attempted']:.6g} "
                     f"(n={record['attempted']})")
    lines.append(f"run record: {record['record_file']}")
    return lines


def final_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
    })
