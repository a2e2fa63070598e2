"""Config fuzz: one key of a small `mode` or `synth` config set to a drawn
JSON value.

Whatever the value, `main` must return 0, 2 or 3 without raising, and a
run that exits 0 must not report NaN or Infinity.  Drawn magnitudes stay
either <= 64 or >= 1e30: small values give small grids and lattices, and
huge ones are refused at once, so no example allocates a large array.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from photon_angmom.cli import main

# database=None keeps no example database; the constants cache that the
# Hypothesis pytest plugin writes at collection goes to the system temp
# directory instead of a .hypothesis/ directory in the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "photon-angmom-hypothesis")

CONFIG = {
    "grid": {"n_k": 4, "k_min": 0.5, "k_max": 1.5, "n_theta": 12, "n_phi": 12},
    "mode": {
        "kind": "j3_w_eigenstate", "m": 1, "w": 1,
        "radial_profile": {"k0": 1.0, "sigma_k": 0.2},
        "theta_profile": {"kind": "gaussian_in_theta", "theta0": 0.0,
                          "sigma_theta": 0.3},
    },
    "tolerances": {"mode_norm": 1e-10, "transversality": 1e-10,
                   "j3_eigen_residual": 1e-10},
    "seed": 0,
}
SYNTH_CONFIG = {
    **CONFIG,
    "lattice": {"origin": [-6.0, -6.0, -6.0], "extents": [12.0, 12.0, 12.0],
                "n_x": 8, "n_y": 8, "n_z": 8, "times": [0.0]},
    "tolerances": {**CONFIG["tolerances"], "com_convergence_shift": 1.0},
}


def _dotted(prefix, d):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _dotted(f"{prefix}{key}.", value)
        yield f"{prefix}{key}"


MODE_KEYS = sorted(_dotted("", CONFIG))
SYNTH_KEYS = sorted(_dotted("", SYNTH_CONFIG))

_HUGE = st.floats(min_value=1e30, max_value=1e300)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-64, 64)
    | st.floats(-64.0, 64.0)
    | _HUGE
    | _HUGE.map(lambda x: -x)
    | st.integers(10**30, 10**40)
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text(max_size=4)
)
VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        rc = main(argv)
    assert rc in (0, 2, 3), (rc, err.getvalue())
    return rc, out.getvalue()


def _reject(constant):
    raise AssertionError(f"exit 0 with {constant} in its output")


def _write(workdir, cfg):
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(key=st.sampled_from(MODE_KEYS), value=VALUES)
def test_mode_config_fuzz(workdir, key, value):
    cfg = _write(workdir, CONFIG)
    rc, out = _run(["mode", "--config", cfg, f"--{key}={json.dumps(value)}"])
    if rc == 0:
        json.loads(out, parse_constant=_reject)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(key=st.sampled_from(SYNTH_KEYS), value=VALUES)
def test_synth_config_fuzz(workdir, key, value):
    dump = workdir / "fields.bin"
    cfg = _write(workdir, {**SYNTH_CONFIG,
                           "outputs": [{"kind": "fields", "path": str(dump)}]})
    for stale in workdir.glob("fields.bin*"):
        stale.unlink()
    rc, _ = _run(["synth", "--config", cfg, f"--{key}={json.dumps(value)}"])
    if rc == 0:
        assert np.all(np.isfinite(np.fromfile(str(dump), dtype="<f8")))
        geometry = (workdir / "fields.bin.geometry.json").read_text()
        json.loads(geometry, parse_constant=_reject)
        plane = np.loadtxt(str(workdir / "fields.bin.slice.csv"), delimiter=",",
                           skiprows=1)
        assert np.all(np.isfinite(plane))
