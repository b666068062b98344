"""A float32 process runs on numpy alone; scipy is imported for float64's Phi.

Each check runs in a fresh interpreter, since the test process has long
imported scipy itself. One blocks scipy (sys.modules["scipy"] = None, which
makes every import of it fail) and runs the float32 library end to end.
"""

import os
import subprocess
import sys
import textwrap

import rulenet

SRC = os.path.dirname(os.path.dirname(rulenet.__file__))

FLOAT32_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None

import numpy as np

import rulenet
from rulenet import cli, tensor as T
from rulenet.datasets import separable_classification, step_regression, write_csv
from rulenet.errors import ConfigError
from rulenet.hpo import Domain, SearchSpace

TINY = dict(n_quantiles=4, n_rules=3, embed_dim=8, n_heads=2, hidden_dim=16,
            encoder_layers=1, decoder_layers=1, batch_size=16, epochs=1)
space = SearchSpace({
    **{name: Domain("fixed", values=(value,)) for name, value in TINY.items()},
    "lr_dense": Domain("loguniform", lo=1e-4, hi=1e-2),
})
tables = {
    "reg.csv": step_regression(rows=60, seed=1),
    "cls.csv": separable_classification(rows=60, n_features=3, seed=2),
}
for path, (header, rows) in tables.items():
    write_csv(path, header, rows)
    prepared = rulenet.prepare(path, n_quantiles=4, seed=3)
    prep, (tr, va, te) = prepared.prep, (prepared.splits[s] for s in ("train", "val", "test"))
    config = rulenet.RuleNetConfig.for_schema(prep.schema, **TINY)
    model, history = rulenet.train(prep, tr, va, config, seed=4)
    assert model.head.weight.dtype == np.float32 and history.epochs_run == 1
    rulenet.save_checkpoint(model, path + ".rnc")
    loaded = rulenet.load_checkpoint(path + ".rnc")
    assert np.array_equal(rulenet.predict_point(loaded, te), rulenet.predict_point(model, te))
    assert rulenet.predict_ensemble(loaded, te, k=3, seed=5).mean.shape[0] == te.n_rows
    best, records = rulenet.run_study(space, prep, tr, va, n_trials=2, seed=6, rungs=(1,), workers=2)
    assert all(r.error is None for r in records), [r.error for r in records]
    argv = ["predict", "--checkpoint", path + ".rnc", "--data", path,
            "--out", path + ".pred.csv", "--ensemble", "3"]
    assert cli.main(argv) == 0

try:
    T.gelu(T.Tensor(np.ones(3)))
except ConfigError as e:
    assert "scipy" in str(e), e
else:
    raise AssertionError("a float64 gelu ran without scipy")
assert not any(name.startswith("scipy") and sys.modules[name] for name in sys.modules)
print("ok")
"""

SCIPY_ON_FIRST_FLOAT64_GELU = """
import sys

import numpy as np

import rulenet
from rulenet import tensor as T

T.gelu(T.Tensor(np.ones(3, dtype=np.float32)))
assert "scipy.special" not in sys.modules
T.gelu(T.Tensor(np.ones(3)))
assert "scipy.special" in sys.modules
print("ok")
"""


def _run(script, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_float32_library_runs_with_scipy_blocked(tmp_path):
    _run(FLOAT32_WITHOUT_SCIPY, tmp_path)


def test_scipy_special_is_imported_by_the_first_float64_gelu(tmp_path):
    _run(SCIPY_ON_FIRST_FLOAT64_GELU, tmp_path)
