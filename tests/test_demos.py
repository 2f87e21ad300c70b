"""Every demo but 04 (about 90 s of training) runs to the end as a script
(about 1.5 s each, mostly imports); every demo is checked for the seldkit
names it uses in `test_imports.py`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_synthesize_scenes.py", "02_features_and_augmentation.py", "03_accdoa_targets.py",
    "05_inference_and_tta.py", "06_metrics.py", "07_ensemble.py",
])
def test_demo_runs(tmp_path, name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
