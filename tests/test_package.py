"""What importing the package does to the process: it loads numpy and no
scipy, and it runs numpy's BLAS on one thread whatever the environment asks
for, so trained outputs do not depend on the core count."""

import os
import subprocess
import sys

import numpy as np
import pytest

import scanpose

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SMOKE_CONFIG = os.path.join(ROOT, "configs", "smoke.json")


def run_python(code, env=None, args=()):
    environ = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **(env or {}))
    done = subprocess.run([sys.executable, "-c", code, *args], env=environ,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = run_python("import sys\n"
                     "import scanpose, scanpose.cli, scanpose.training\n"
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_missing_blas_setter_warns_and_carries_on(monkeypatch):
    monkeypatch.setattr(scanpose.glob, "glob", lambda pattern: [])
    with pytest.warns(UserWarning, match="thread setter was not found"):
        scanpose._one_blas_thread()


TRAIN_STEPS = """
import sys
import numpy as np
from scanpose import cli, training
cfg = cli.load_config(sys.argv[1], overrides=["num_scenes=2"])
params, _ = training.train(cfg.pipeline, cli.build_scenes(cfg), rng_seed=cfg.seed,
                           train_cfg=training.TrainConfig(
                               steps=6, learning_rate=cfg.train.learning_rate,
                               val_fraction=0.0))
np.savez(sys.argv[2], **params)
"""


def test_trained_params_do_not_depend_on_blas_threads(tmp_path):
    # on two threads OpenBLAS splits the flat GEMMs and sums their parts in
    # another order; left to the environment, the parameters differ after
    # these six steps
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two cores to run OpenBLAS on two threads")
    params = {}
    for threads in ("1", "2"):
        path = str(tmp_path / f"params_{threads}.npz")
        run_python(TRAIN_STEPS, env={"OPENBLAS_NUM_THREADS": threads},
                   args=(SMOKE_CONFIG, path))
        with np.load(path) as archive:
            params[threads] = {k: archive[k] for k in archive.files}
    assert params["1"].keys() == params["2"].keys()
    differ = [k for k in params["1"] if params["1"][k].tobytes() != params["2"][k].tobytes()]
    assert not differ, f"{len(differ)} of {len(params['1'])} parameters differ: {differ}"
