import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photon_angmom
from photon_angmom import cli, csvfile, parallel, synthesis, verify, wavefunction
from photon_angmom.cli import main


def write_config(tmp_path, **extra):
    cfg = {
        "grid": {"n_k": 6, "k_min": 0.5, "k_max": 1.5, "n_theta": 20, "n_phi": 12},
        "mode": {
            "kind": "j3_w_eigenstate",
            "m": 1,
            "w": 1,
            "radial_profile": {"k0": 1.0, "sigma_k": 0.2},
            "theta_profile": {
                "kind": "gaussian_in_theta",
                "theta0": 0.0,
                "sigma_theta": 0.3,
            },
        },
        "seed": 3,
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def verify_config(tmp_path, **entries):
    """A verify config: only the keys verify reads, so no grid or mode."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, **entries}))
    return path


def synth_config(tmp_path, out, **lattice_extra):
    lattice = {
        "origin": [-8.0, -8.0, -8.0],
        "extents": [16.0, 16.0, 16.0],
        "n_x": 12,
        "n_y": 12,
        "n_z": 12,
        "times": [0.0],
    }
    lattice.update(lattice_extra)
    return write_config(
        tmp_path,
        lattice=lattice,
        outputs=[{"kind": "fields", "path": str(out)}],
    )


def test_mode_report_file_and_sidecar(tmp_path):
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, outputs=[{"kind": "report", "path": str(out)}])
    assert main(["mode", "--config", str(cfg)]) == 0
    report = json.loads(out.read_text())
    assert report["eigen_residuals"]["J3"] < 1e-10
    assert abs(report["total_am"][2] - 1.0) < 1e-9
    assert abs(report["helicity"] - 1.0) < 1e-12
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert set(meta) == {"config_sha256", "version"}
    assert len(meta["config_sha256"]) == 64


def test_mode_report_bit_identical_across_runs(tmp_path):
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, outputs=[{"kind": "report", "path": str(out)}])
    assert main(["mode", "--config", str(cfg)]) == 0
    first = out.read_bytes()
    first_meta = (tmp_path / "report.json.meta.json").read_bytes()
    assert main(["mode", "--config", str(cfg)]) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "report.json.meta.json").read_bytes() == first_meta


def test_mode_stdout_report_when_no_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["mode", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["total_am"][2] - 1.0) < 1e-9


def test_mode_wavefunction_csv(tmp_path):
    out = tmp_path / "wf.csv"
    cfg = write_config(tmp_path, outputs=[{"kind": "wavefunction", "path": str(out)}])
    assert main(["mode", "--config", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,theta,phi,re_v1,im_v1,re_v2,im_v2,re_v3,im_v3"
    assert len(lines) == 1 + 6 * 20 * 12
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert data.shape == (6 * 20 * 12, 9)
    # quadrature norm of the dumped samples should be ~1 for a built mode
    values = data[:, 3::2] + 1j * data[:, 4::2]
    assert np.all(np.isfinite(values))


def _wavefunction_csv_per_row(v):
    # the CSV written one row at a time; the oracle for write_wavefunction_csv
    g = v.grid
    lines = ["k,theta,phi,re_v1,im_v1,re_v2,im_v2,re_v3,im_v3"]
    for i, row in enumerate(v.values):
        nums = [g.k[i], g.theta[i], g.phi[i]] + [x for c in row for x in (c.real, c.imag)]
        lines.append(",".join("%.17g" % x for x in nums))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape", [(1, 8, 12), (2, 6, 13), (3, 30, 25)],
                         ids=["one-radial-node", "odd-n_phi", "partial-chunk"])
def test_wavefunction_csv_matches_per_row_formatting(tmp_path, shape):
    n_k, n_theta, n_phi = shape
    grid = photon_angmom.build_grid(photon_angmom.GridSpec(
        n_k=n_k, k_min=0.5, k_max=1.5, n_theta=n_theta, n_phi=n_phi))
    if shape == (3, 30, 25):
        # two chunks, the second one partial
        assert grid.n_nodes % csvfile._CSV_CHUNK_ROWS and grid.n_nodes > csvfile._CSV_CHUNK_ROWS
    v = wavefunction.random_state(grid, seed=19)
    path = tmp_path / "wf.csv"
    cli.write_wavefunction_csv(v, str(path))
    assert path.read_text() == _wavefunction_csv_per_row(v)


def test_mode_expansion_concentrates_on_m(tmp_path):
    out = tmp_path / "expansion.json"
    cfg = write_config(tmp_path, outputs=[{"kind": "expansion", "path": str(out)}])
    assert main(["mode", "--config", str(cfg)]) == 0
    dump = json.loads(out.read_text())
    assert dump["m_min"] == -dump["l_max"] and dump["m_max"] == dump["l_max"]
    peaks = {}
    for row in dump["rows"]:
        mag = max(abs(complex(re, im)) for re, im in row["radial"])
        peaks[row["m"]] = max(peaks.get(row["m"], 0.0), mag)
    # a J3 eigenstate lives in a single azimuthal column
    assert peaks[1] > 0.1
    assert all(mag < 1e-12 for m, mag in peaks.items() if m != 1)


def test_mode_expansion_l_max_must_fit_grid(tmp_path, capsys):
    out = tmp_path / "expansion.json"
    cfg = write_config(
        tmp_path, outputs=[{"kind": "expansion", "path": str(out), "l_max": 10}]
    )
    assert main(["mode", "--config", str(cfg)]) == 2
    assert "n_phi" in capsys.readouterr().err
    assert not out.exists()


def test_vector_lg_report_third_am_component(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        grid={"n_k": 6, "k_min": 0.94, "k_max": 1.06, "n_theta": 192, "n_phi": 12},
        mode={"kind": "vector_lg", "m": 2, "w": -1, "p": 1, "w0": 25.0,
              "k_fixed": 1.0},
    )
    assert main(["mode", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["total_am"][2] - 2.0) < 1e-8
    assert report["helicity"] < -0.99


def test_nyquist_content_is_numerical_error(tmp_path, capsys):
    # m = 9 on n_phi = 4 puts the x + i y channel (order 10) on the Nyquist bin
    cfg = write_config(
        tmp_path,
        grid={"n_k": 4, "k_min": 0.94, "k_max": 1.06, "n_theta": 64, "n_phi": 12},
        mode={"kind": "vector_lg", "m": 2, "w": -1, "p": 1, "w0": 25.0,
              "k_fixed": 1.0},
    )
    assert main(["mode", "--config", str(cfg), "--mode.m=9", "--grid.n_phi=4"]) == 3
    err = capsys.readouterr().err
    assert "n_phi" in err
    assert "Traceback" not in err
    # the same mode on a grid that resolves its orders passes the guard
    assert main(["mode", "--config", str(cfg), "--mode.m=9", "--grid.n_phi=24"]) == 0


README_LG_GRID = {"n_k": 8, "k_min": 0.94, "k_max": 1.06, "n_theta": 256, "n_phi": 12}
README_LG_MODE = {"kind": "vector_lg", "m": 2, "w": -1, "p": 1, "w0": 25.0, "k_fixed": 1.0}
SAM_MODE = {"kind": "sam_wavepacket", "w": 1, "s_direction": [0, 0, 1], "kappa": 20.0,
            "radial_profile": {"k0": 1.0, "sigma_k": 0.2}}


@pytest.mark.parametrize("n_phi", [5, 7])
def test_odd_n_phi_aliasing_is_numerical_error(tmp_path, capsys, n_phi):
    # m = 9, w = -1 puts order 10 on x, y: an odd n_phi has no Nyquist bin,
    # so only the builders' order check stops the aliased J3
    cfg = write_config(
        tmp_path,
        grid={"n_k": 8, "k_min": 0.94, "k_max": 1.06, "n_theta": 256, "n_phi": 12},
        mode=README_LG_MODE,
    )
    argv = ["mode", "--config", str(cfg), "--mode.m=9", "--grid.n_theta=64",
            f"--grid.n_phi={n_phi}"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "n_phi" in err
    assert "Traceback" not in err


def test_override_flags_reach_nested_keys(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main([
        "mode",
        "--config", str(cfg),
        "--mode.m=3",
        '--mode.radial_profile={"k0": 1.0, "sigma_k": 0.15}',
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["total_am"][2] - 3.0) < 1e-9


def test_override_must_be_key_equals_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["mode", "--config", str(cfg), "--mode.m", "3"]) == 2
    assert "--key=value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, overrides, key",
    [
        ("mode", {"grid": {"n_k": 6, "k_min": 0.5, "k_max": 1.5, "n_theta": 20}},
         [], "n_phi"),
        ("mode", {}, ["--mode.bogus=1"], "bogus"),
        ("mode", {"gird": {"n_k": 6}}, [], "gird"),
        ("mode", {}, ["--mode.radial_profile=5"], "radial_profile"),
        ("mode", {}, ["--mode.theta_profile=5"], "theta_profile"),
        ("mode", {}, ["--mode.m=1.5"], "m"),
        ("mode", {}, ["--grid.n_k=true"], "n_k"),
        ("mode", {}, ["--grid.n_phi=\"12\""], "n_phi"),
        ("mode", {"outputs": [{"kind": "expansion", "path": "e.json", "l_max": "abc"}]},
         [], "l_max"),
        ("mode", {"outputs": [{"kind": "expansion", "path": "e.json", "l_max": 1.5}]},
         [], "l_max"),
        ("synth", {}, ["--lattice.n_x=12.5"], "n_x"),
        ("mode", {}, ["--mode.theta_profile.sigma_theta=-1"], "sigma_theta"),
        ("mode", {}, ["--mode.radial_profile.sigma_k=0"], "sigma_k"),
        ("mode", {}, ["--mode.theta_profile.theta0=\"up\""], "theta0"),
        ("synth", {}, ["--mode.theta_profile.sigma_theta=-0.2"], "sigma_theta"),
        ("mode", {"mode": README_LG_MODE},
         ['--mode.theta_profile={"kind": "uniform_band"}'], "theta_profile"),
        ("mode", {"mode": README_LG_MODE}, ["--mode.radial_profile.k0=1.0"], "k0"),
        ("mode", {}, ["--mode.kappa=50"], "kappa"),
        ("mode", {}, ["--mode.w0=20"], "w0"),
        ("mode", {}, ["--mode.p=1"], "p"),
        ("mode", {}, ["--mode.theta_profile.x_lo=-0.5"], "x_lo"),
        ("mode", {}, ['--mode.theta_profile={"kind": "uniform_band", "sigma_theta": 0.2}'],
         "sigma_theta"),
        ("mode", {"mode": {"kind": "sam_wavepacket", "m": 2}}, [], "m"),
        ("mode", {}, ["--grid.k_min=true"], "k_min"),
        ("mode", {}, ["--grid.k_max=Infinity"], "k_max"),
        ("mode", {"mode": README_LG_MODE}, ["--mode.k_fixed=NaN"], "k_fixed"),
        ("mode", {"mode": SAM_MODE}, ["--mode.s_direction=[0,NaN,1]"], "s_direction"),
        ("synth", {}, ["--tolerances.com_convergence_shift=NaN"],
         "com_convergence_shift"),
        ("synth", {}, ["--lattice.times=[NaN]"], "times"),
        ("synth", {}, ["--lattice.origin=[0,0,NaN]"], "origin"),
        ("synth", {}, ["--lattice.extents=[10,10,true]"], "extents"),
        ("mode", {"mode": SAM_MODE}, ["--mode.kappa=true"], "kappa"),
        ("mode", {"mode": README_LG_MODE}, ["--mode.w0=abc"], "w0"),
        ("mode", {"mode": SAM_MODE}, ["--mode.s_direction=5"], "s_direction"),
        ("synth", {}, ["--lattice.times=5"], "times"),
        ("mode", {"mode": SAM_MODE}, ["--mode.s_direction=[0,1]"], "s_direction"),
        ("mode", {}, ["--grid.k_max=null"], "k_max"),
        ("mode", {}, ["--grid.bogus=1"], "bogus"),
        ("synth", {}, ["--lattice.bogus=1"], "bogus"),
        ("mode", {}, ["--tolerances.mode_norm=true"], "mode_norm"),
        ("mode", {}, ["--seed=1.5"], "seed"),
        ("mode", {}, ["--mode.kind=5"], "kind"),
        ("mode", {"outputs": [{"kind": "report", "path": "r.json", "l_max": 3}]},
         [], "l_max"),
        ("synth", {}, ['--outputs=[{"kind": "fields", "path": "f.bin", "l_max": 3}]'],
         "l_max"),
        ("mode", {"outputs": [{"kind": [1], "path": "r.json"}]}, [], "kind"),
        ("verify", {"suite": [1]}, [], "suite"),
        ("mode", {}, ['--mode.theta_profile={"kind": "uniform_band", "x_lo": 0.9, "x_hi": 0.1}'],
         "theta_profile"),
        ("mode", {}, ['--mode.theta_profile={"kind": "uniform_band", "x_hi": 1.5}'],
         "theta_profile"),
        ("mode", {"mode": SAM_MODE}, ["--mode.s_direction=[0,0,-1]"], "s_direction"),
        ("mode", {"mode": SAM_MODE}, ["--mode.s_direction=[1e-7,0,-2]"], "s_direction"),
        ("mode", {"mode": SAM_MODE}, ["--mode.s_direction=[0,0,0]"], "s_direction"),
    ],
    ids=["missing", "unknown", "top-level-typo", "radial-not-object",
         "theta-not-object", "fractional-m", "bool-n_k", "string-n_phi",
         "string-l_max", "fractional-l_max", "fractional-n_x",
         "negative-sigma_theta", "zero-sigma_k", "string-theta0",
         "synth-negative-sigma_theta", "lg-theta_profile", "lg-radial-k0",
         "j3w-kappa", "j3w-w0", "j3w-p", "gaussian-x_lo", "band-sigma_theta",
         "sam-m", "bool-k_min", "inf-k_max", "nan-k_fixed", "nan-s_direction",
         "nan-com-tolerance", "nan-times", "nan-origin", "bool-extents",
         "bool-kappa", "string-w0", "scalar-s_direction", "scalar-times",
         "short-s_direction", "null-k_max", "grid-unknown", "lattice-unknown",
         "bool-tolerance", "fractional-seed", "int-kind", "report-l_max",
         "fields-l_max", "list-output-kind", "list-suite", "inverted-band",
         "band-past-pole", "sam-south-pole", "sam-near-south-pole", "zero-s_direction"],
)
def test_config_errors_name_the_offending_key(tmp_path, capsys, command, extra,
                                              overrides, key):
    if command == "synth":
        cfg = synth_config(tmp_path, tmp_path / "fields.bin")
    elif command == "verify":
        cfg = verify_config(tmp_path, **extra)
    else:
        cfg = write_config(tmp_path, **extra)
    assert main([command, "--config", str(cfg)] + overrides) == 2
    err = capsys.readouterr().err
    assert repr(key) in err
    assert "Traceback" not in err


def test_unparseable_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json")
    assert main(["mode", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    path.write_bytes(b'{"grid": "\xff"}')  # not UTF-8
    assert main(["mode", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_output_kind_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, outputs=[{"kind": "plot", "path": "x"}])
    assert main(["mode", "--config", str(cfg)]) == 2
    assert "plot" in capsys.readouterr().err

    cfg = write_config(tmp_path, outputs=[{"kind": "fields", "path": "x"}])
    assert main(["mode", "--config", str(cfg)]) == 2
    assert "fields" in capsys.readouterr().err


def test_tolerance_gate_maps_to_exit_3(tmp_path, capsys):
    # the paraxial LG mode carries a longitudinal part of order 1 / (w0 k),
    # so a transversality tolerance far below it fails its gate
    cfg = write_config(tmp_path, grid=README_LG_GRID, mode=README_LG_MODE,
                       tolerances={"transversality": 1e-6})
    assert main(["mode", "--config", str(cfg)]) == 3
    assert "'transversality'" in capsys.readouterr().err

    ok = write_config(tmp_path, tolerances={"j3_eigen_residual": 1e-10,
                                            "transversality": 1e-10})
    assert main(["mode", "--config", str(ok)]) == 0


def test_mode_run_reads_one_set_of_moments(tmp_path, monkeypatch):
    # the Nyquist guard, the norm, transversality and J3 gates, the report
    # and the expansion all read the moments the state keeps: one
    # FrameMoments, and one phi-FFT, of the factor that owns phi
    count = {"moments": 0, "fft": 0}
    init, fft = wavefunction.FrameMoments.__init__, np.fft.fft

    def counted_init(self, v):
        count["moments"] += 1
        init(self, v)

    def counted_fft(*args, **kwargs):
        count["fft"] += 1
        return fft(*args, **kwargs)
    monkeypatch.setattr(wavefunction.FrameMoments, "__init__", counted_init)
    monkeypatch.setattr(np.fft, "fft", counted_fft)
    cfg = write_config(tmp_path, grid=README_LG_GRID, mode=README_LG_MODE, seed=0,
                       tolerances={"transversality": 1.0, "j3_eigen_residual": 1e-9},
                       outputs=[{"kind": "report", "path": str(tmp_path / "report.json")},
                                {"kind": "expansion", "path": str(tmp_path / "vsh.json")}])
    assert main(["mode", "--config", str(cfg)]) == 0
    assert count == {"moments": 1, "fft": 1}


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("mode", ["--lattice.n_x=5"], "lattice"),
        ("mode", ["--tolerances.com_convergence_shift=1e-30"], "com_convergence_shift"),
        ("mode", ["--suite=spectral"], "suite"),
        ("synth", ["--suite=spectral"], "suite"),
        ("verify", ["--grid.n_k=3"], "grid"),
        ("verify", ["--mode.m=1"], "mode"),
        ("verify", ["--lattice.n_x=5"], "lattice"),
        ("verify", ["--tolerances.mode_norm=1e-30"], "tolerances"),
    ],
    ids=["mode-lattice", "mode-com-tolerance", "mode-suite", "synth-suite",
         "verify-grid", "verify-mode", "verify-lattice", "verify-tolerances"],
)
def test_unread_config_key_is_config_error(tmp_path, capsys, command, overrides, key):
    # a key that another command reads is still an error where nothing reads it
    if command == "synth":
        cfg = synth_config(tmp_path, tmp_path / "fields.bin")
    elif command == "verify":
        cfg = verify_config(tmp_path, suite="algebraic")
    else:
        cfg = write_config(tmp_path)
    assert main([command, "--config", str(cfg)] + overrides) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and f"the {command} command" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["mode", "synth"])
def test_j3_gate_holds_in_mode_and_synth(tmp_path, capsys, command):
    # one gate block: synth honours j3_eigen_residual as mode does, and
    # fails it before any field is synthesized.  A packet tilted off z is
    # no J3 eigenstate (its J3 dispersion is about 2.4 on this grid)
    cfg = synth_config(tmp_path, tmp_path / "fields.bin")
    if command == "mode":
        raw = json.loads(cfg.read_text())
        for key in ("lattice", "outputs"):
            raw.pop(key)
        cfg.write_text(json.dumps(raw))
    tilted = json.dumps({**SAM_MODE, "s_direction": [1, 0, 1]})
    argv = [command, "--config", str(cfg), f"--mode={tilted}", "--grid.n_phi=13"]
    assert main(argv + ["--tolerances.j3_eigen_residual=0.1"]) == 3
    assert "'j3_eigen_residual'" in capsys.readouterr().err
    assert not (tmp_path / "fields.bin").exists()
    if command == "mode":
        assert main(argv + ["--tolerances.j3_eigen_residual=10"]) == 0


@pytest.mark.parametrize(
    "mode, override, needle",
    [
        (None, "--grid.k_max=1e200", "mode_norm"),
        (None, "--grid.k_max=3.45e159", "mode_norm"),
        (README_LG_MODE, "--mode.w0=1e300", "mode_norm"),
        # integral, so a valid integer, but far beyond any allocation
        (None, "--grid.n_phi=2e90", "n_phi"),
    ],
    ids=["k_max-1e200", "k_max-3.45e159", "w0-1e300", "n_phi-2e90"],
)
def test_nan_gate_and_unbuildable_grid_map_to_exit_3(tmp_path, capsys, mode,
                                                     override, needle):
    # finite inputs whose mode norm overflows to NaN must fail the norm gate
    cfg = write_config(tmp_path, **({"mode": mode} if mode else {}))
    with np.errstate(all="ignore"):
        assert main(["mode", "--config", str(cfg), override]) == 3
    captured = capsys.readouterr()
    assert needle in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "mode, override",
    [(None, "--grid.k_max=1e200"), (README_LG_MODE, "--mode.w0=1e300")],
    ids=["k_max-1e200", "w0-1e300"],
)
def test_numerical_failure_prints_only_the_error_line(tmp_path, mode, override):
    # in a process of its own: pytest would capture numpy's warnings
    cfg = write_config(tmp_path, **({"mode": mode} if mode else {}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "photon_angmom.cli", "mode", "--config", str(cfg),
         override],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 3
    assert run.stderr == (
        "error: mode norm deviation nan is not within tolerance 'mode_norm' (1.000e-10)\n"
    )


def test_integral_float_seed_is_accepted(tmp_path):
    cfg = write_config(tmp_path, seed=1.0)
    assert main(["mode", "--config", str(cfg)]) == 0


def test_negative_seed_is_config_error_naming_seed(tmp_path, capsys):
    # numpy's generators reject a negative seed without naming the key
    for args in (["verify", "--suite", "algebraic", "--seed", "-1"],
                 ["mode", "--config", str(write_config(tmp_path, seed=-1))]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "'seed'" in err and "non-negative" in err
        assert "Traceback" not in err


def test_verify_suite_rows_and_exit_code(tmp_path, capsys):
    assert main(["verify", "--suite", "algebraic", "--seed", "5"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {"check", "max_residual", "tolerance", "pass"}
        assert row["pass"]
    assert any(row["check"] == "S.S=hbar2" and row["max_residual"] < 1e-13
               for row in rows)


def test_verify_registry_runs_every_program(capsys):
    # the fixed-state programs take the uniform seed argument too
    assert main(["verify", "--suite", "never-eigenstate", "--seed", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["check"] for row in rows] == [
        "S3_never_eigenstate_min_dispersion", "L3_never_eigenstate_min_dispersion"]
    assert set(verify.SUITES) >= {"variance", "sam-convergence", "never-eigenstate"}


def test_verify_all_prefixes_rows_by_suite(monkeypatch, capsys):
    seen = []

    def fake(name, ok):
        def run(seed=0):
            seen.append((name, seed))
            return [{"check": "c", "max_residual": 0.0, "tolerance": 1.0, "pass": ok}]
        return run

    monkeypatch.setattr(verify, "SUITES", {"a": fake("a", True), "b": fake("b", False)})
    assert main(["verify", "--suite", "all", "--seed", "9"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [row["check"] for row in rows] == ["a/c", "b/c"]
    assert seen == [("a", 9), ("b", 9)]


def test_verify_unknown_suite(tmp_path, capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "nope" in capsys.readouterr().err
    assert main(["verify"]) == 2
    assert "suite" in capsys.readouterr().err


def test_verify_report_output_matches_stdout(tmp_path, capsys):
    out = tmp_path / "rows.json"
    cfg = verify_config(tmp_path, suite="algebraic",
                        outputs=[{"kind": "report", "path": str(out)}])
    assert main(["verify", "--config", str(cfg)]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert (tmp_path / "rows.json.meta.json").exists()


def test_synth_writes_fields_slice_and_sidecars(tmp_path):
    out = tmp_path / "fields.bin"
    cfg = synth_config(tmp_path, out)
    assert main(["synth", "--config", str(cfg)]) == 0
    geometry = json.loads((tmp_path / "fields.bin.geometry.json").read_text())
    assert geometry["shape"] == [12, 12, 12, 3]
    raw = np.fromfile(str(out), dtype="<f8")
    assert raw.size == 3 * 12 ** 3 * 3 * 2  # A,E,B x sites x components x re/im
    assert np.all(np.isfinite(raw))
    slice_rows = np.loadtxt(str(tmp_path / "fields.bin.slice.csv"),
                            delimiter=",", skiprows=1)
    assert slice_rows.shape == (12 * 12, 9)
    for name in ("fields.bin.meta.json", "fields.bin.slice.csv.meta.json"):
        meta = json.loads((tmp_path / name).read_text())
        assert len(meta["config_sha256"]) == 64


def test_synth_empty_outputs_is_config_error(tmp_path, capsys):
    out = tmp_path / "fields.bin"
    cfg = synth_config(tmp_path, out)
    assert main(["synth", "--config", str(cfg), "--outputs=[]"]) == 2
    assert "outputs" in capsys.readouterr().err


@pytest.mark.parametrize("times", [[], [0.0, 1.0]], ids=["empty", "two"])
def test_synth_needs_exactly_one_time(tmp_path, capsys, times):
    out = tmp_path / "fields.bin"
    cfg = synth_config(tmp_path, out, times=times)
    assert main(["synth", "--config", str(cfg)]) == 2
    assert "lattice.times" in capsys.readouterr().err
    assert not out.exists()


def test_synth_aliasing_is_numerical_error(tmp_path, capsys):
    out = tmp_path / "fields.bin"
    cfg = synth_config(tmp_path, out, n_x=3)
    assert main(["synth", "--config", str(cfg)]) == 3
    assert "alias" in capsys.readouterr().err


@pytest.mark.parametrize("n", [200000, 2000000], ids=["1.67EiB", "beyond-int64"])
def test_synth_lattice_beyond_memory_is_numerical_error(tmp_path, capsys, n):
    # the fields cannot be allocated, or their size overflows numpy's byte
    # count; the first allocation fails, before any table of the lattice's
    # size is built
    out = tmp_path / "fields.bin"
    cfg = synth_config(tmp_path, out, n_x=n, n_y=n, n_z=n)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert main(["synth", "--config", str(cfg)]) == 3
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_kb < 64 * 1024
    err = capsys.readouterr().err
    assert "lattice 'n_x', 'n_y', 'n_z'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_com_shift_gate(tmp_path, capsys):
    out = tmp_path / "fields.bin"
    # box far too small for the packet: constants of motion shift under growth
    cfg = synth_config(tmp_path, out,
                       origin=[-3.0, -3.0, -3.0], extents=[6.0, 6.0, 6.0],
                       n_x=8, n_y=8, n_z=8)
    with_gate = json.loads(cfg.read_text())
    with_gate["tolerances"] = {"com_convergence_shift": 1e-3}
    cfg.write_text(json.dumps(with_gate))
    assert main(["synth", "--config", str(cfg)]) == 3
    assert "shift" in capsys.readouterr().err


def test_synth_gate_synthesizes_the_base_lattice_once(tmp_path, monkeypatch):
    # the gate reuses the dumped snapshot: one call for it, one for the grown box
    calls = []
    real = synthesis.synthesize_fields

    def counting(v, lattice, time=0.0):
        calls.append(lattice.shape)
        return real(v, lattice, time)

    monkeypatch.setattr(synthesis, "synthesize_fields", counting)
    monkeypatch.setattr(cli, "synthesize_fields", counting)
    cfg = synth_config(tmp_path, tmp_path / "fields.bin")
    gated = json.loads(cfg.read_text())
    gated["tolerances"] = {"com_convergence_shift": 100.0}
    cfg.write_text(json.dumps(gated))
    assert main(["synth", "--config", str(cfg)]) == 0
    assert calls == [(12, 12, 12), (23, 23, 23)]


def test_missing_sections_and_help():
    assert main(["--help"]) == 0
    assert main([]) == 2
    assert main(["mode"]) == 2  # no grid/mode sections at all


def test_threads_env_pins_blas_and_sets_workers():
    # PHOTON_ANGMOM_THREADS is the package's worker count; BLAS is pinned
    # to one thread at import, and the import starts no thread
    probe = ("import os, threading, photon_angmom; from photon_angmom import parallel; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'), "
             "parallel.WORKERS, threading.active_count())")
    src = str(Path(photon_angmom.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in parallel.BLAS_VARS}
    env.update(PHOTON_ANGMOM_THREADS="2", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "1", str(min(2, parallel.available_cpus())), "1"]
    assert run.stderr == ""
    # numpy first: BLAS has read its thread count, so the package runs one worker
    run = subprocess.run([sys.executable, "-c", "import numpy; " + probe],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[2] == "1"
    if parallel.available_cpus() > 1:
        assert "PHOTON_ANGMOM_THREADS" in run.stderr


@pytest.mark.parametrize("command", ["mode", "synth"])
def test_empty_uniform_band_is_config_error(tmp_path, capsys, command):
    # x in [0.9999, 1] holds none of the 20 polar nodes (the top one is at 0.9931)
    if command == "synth":
        cfg = synth_config(tmp_path, tmp_path / "fields.bin")
    else:
        cfg = write_config(tmp_path)
    band = '--mode.theta_profile={"kind": "uniform_band", "x_lo": 0.9999, "x_hi": 1}'
    assert main([command, "--config", str(cfg), band]) == 2
    err = capsys.readouterr().err
    assert "'theta_profile'" in err and "n_theta = 20" in err
    assert "Traceback" not in err
