"""Regenerate the stored outputs that the workloads' checks compare against.

    python3 bench/make_references.py

Runs the first ops of each workload at the desk shapes for seeds
0..31 and writes `bench/references/`: the per-iteration training losses
(`train_desk.json`), the label-rate output of the first clip
(`infer_overlap.npz`) and the eval counts TP/FP/FN/N_ref of the first
scenes (`cli_pipeline.json`).  Only regenerate them when an output is
meant to change, and say why in the change that does.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import import_seldkit_from_checkout, pin_blas_threads

OPS = {"train_desk": 8, "infer_overlap": 1, "cli_pipeline": 8}
N_SEEDS = 32


def outputs(workload, seed: int, n_ops: int, workdir) -> list:
    workload.setup(seed, workdir)
    out = []
    for k in range(n_ops):
        result = workload.op(workload.prepare(k))
        if workload.name == "train_desk":
            out.append(result)
        elif workload.name == "infer_overlap":
            out.append(result[1].astype("float32"))
        else:
            counts = json.loads((result / "metrics.json").read_text())["counts"]
            out.append([counts["TP"], counts["FP"], counts["FN"], counts["N_ref"]])
        workload.finish(k)
    return out


def main() -> int:
    pin_blas_threads()
    error = import_seldkit_from_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import numpy as np
    from workloads import REFERENCE_DIR, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sorted(OPS):
        workload = WORKLOADS[name](references={})
        refs = {}
        for seed in range(N_SEEDS):
            with tempfile.TemporaryDirectory(dir=REFERENCE_DIR) as workdir:
                refs[str(seed)] = outputs(workload, seed, OPS[name], workdir)
            print(f"{name} seed {seed} done", flush=True)
        if name == "infer_overlap":
            np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **{k: np.stack(v) for k, v in refs.items()})
        else:
            lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in refs.items())
            (REFERENCE_DIR / f"{name}.json").write_text("{\n" + lines + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
