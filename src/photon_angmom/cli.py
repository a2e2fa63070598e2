"""Command line front end: build modes, run identity suites, dump fields.

Configuration is a JSON document loaded with --config and merged with
``--key=value`` overrides; dotted keys address nested entries, so
``--grid.n_phi=64`` replaces a single number inside the grid block.
Override values are parsed as JSON with a plain-string fallback.

Each config value is read by the rule for its field type
(`photon_angmom.config`), the same rule the library constructors apply:
integers (n_k, m, n_x, l_max, seed, ...) take an int or an integral
float; numbers (k_min, kappa, w0, tolerances, ...) a finite int or float;
lists of numbers (s_direction, origin, extents, times) finite entries,
three for a vector; strings (kind, carrier) a string; profiles an object
whose "kind" is a string and whose other entries are finite numbers.  A
bool, a string where a number belongs, NaN or +-inf, a wrong length and a
key no field reads are configuration errors.  Each command reads its own
top-level keys and tolerances (`COMMAND_KEYS`); any other key is one too,
even one that another command reads.  `seed` is accepted by all three.

Exit codes: 0 success, 1 failed verification rows, 2 configuration error
(the diagnostic names the offending key), 3 numerical failure (aliasing,
violated tolerance, a grid too large to build).

Two runs with the same merged config produce byte-identical reports: keys
are sorted, floats print through repr, and nothing records a timestamp.
Every output file gains a ``<path>.meta.json`` sidecar holding the sha256
of the canonical config and the library version.

Recognized tolerances (config block "tolerances"); each gate passes only
when the measured value is <= tol, so a NaN value fails it:

    mode_norm             built mode must satisfy | ||v|| - 1 | <= tol
                          (default 1e-10)
    transversality        require transverse_residual(v) <= tol (off by
                          default; paraxial modes carry real residual)
    j3_eigen_residual     require the J3 dispersion of the built mode, the
                          report's eigen_residuals["J3"], to be <= tol
    com_convergence_shift synth only: relative shift of the real-space
                          constants of motion under box growth must stay
                          within tol
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .config import finite_real, strict_int, string
from .csvfile import write_csv
from .grid import GridSpec, build_grid
from .modes import EmptyProfileError, ModeSpec, build_mode
from .operators import azimuthal_support, observable_report
from .synthesis import (
    SpaceTimeLattice,
    com_convergence_shift,
    export_fields,
    export_slice,
    synthesize_fields,
)
from .verify import SUITES, run_suite
from .vsh import analyze
from .wavefunction import norm, transverse_residual

# per command: the top-level keys it reads, and the tolerances among them
_MODE_TOLERANCES = {"mode_norm", "transversality", "j3_eigen_residual"}
COMMAND_KEYS = {
    "mode": ({"grid", "mode", "outputs", "tolerances", "seed"}, _MODE_TOLERANCES),
    "synth": ({"grid", "mode", "lattice", "outputs", "tolerances", "seed"},
              _MODE_TOLERANCES | {"com_convergence_shift"}),
    "verify": ({"suite", "outputs", "seed"}, set()),
}
OUTPUT_KEYS = {"kind", "path", "l_max"}
OUTPUT_KINDS = {"report", "wavefunction", "expansion", "fields"}
DEFAULT_TOLERANCES = {"mode_norm": 1e-10}
DEFAULT_EXPANSION_L_MAX = 16


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


class NumericalError(Exception):
    """Numerical failure (aliasing, violated tolerance); exit code 3."""


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    except ValueError as err:  # bad JSON, bad UTF-8, an over-long integer
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def apply_overrides(cfg: dict, pairs: list[str]) -> dict:
    """Merge ``--a.b.c=value`` tokens into the config dict."""
    for token in pairs:
        if not token.startswith("--") or "=" not in token:
            raise ConfigError(
                f"cannot parse argument {token!r}; overrides look like --key=value"
            )
        dotted, raw = token[2:].split("=", 1)
        if not dotted:
            raise ConfigError(f"empty key in override {token!r}")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(
                    f"override {dotted!r} descends through non-object key {part!r}"
                )
            node = nxt
        node[parts[-1]] = value
    return cfg


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def _check_keys(d: dict, allowed: set, where: str, command: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{where} key {key!r} is not read by the {command} command")


def _require(cfg: dict, key: str) -> dict:
    if key not in cfg:
        raise ConfigError(f"config missing key {key!r}")
    section = cfg[key]
    if not isinstance(section, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    return section


def _parse_section(cfg: dict, key: str, cls):
    """The spec `cls` read from config section `key`."""
    section = _require(cfg, key)
    try:
        return cls.from_dict(section)
    except (KeyError, ValueError) as err:
        raise ConfigError(f"{key}: {_msg(err)}") from None


def parse_outputs(cfg: dict, valid_kinds: set, command: str) -> list:
    entries = cfg.get("outputs", [])
    if not isinstance(entries, list):
        raise ConfigError("config key 'outputs' must be a list")
    outputs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError("outputs entries must be objects with 'kind' and 'path'")
        _check_keys(entry, OUTPUT_KEYS, "output", command)
        for needed in ("kind", "path"):
            if needed not in entry:
                raise ConfigError(f"output entry missing key {needed!r}")
        kind, path = entry["kind"], entry["path"]
        if not isinstance(kind, str) or kind not in OUTPUT_KINDS:
            raise ConfigError(
                f"output 'kind' must be one of {sorted(OUTPUT_KINDS)}, got {kind!r}"
            )
        if kind not in valid_kinds:
            raise ConfigError(
                f"output kind {kind!r} is not supported by the {command} command"
            )
        if not isinstance(path, str) or not path:
            raise ConfigError(f"output path for kind {kind!r} must be a string")
        if "l_max" in entry and kind != "expansion":
            raise ConfigError(f"output key 'l_max' is not read by kind {kind!r}")
        outputs.append(dict(entry))
    return outputs


def parse_tolerances(cfg: dict, command: str) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    section = cfg.get("tolerances", {})
    if not isinstance(section, dict):
        raise ConfigError("config key 'tolerances' must be an object")
    _check_keys(section, COMMAND_KEYS[command][1], "tolerance", command)
    try:
        tol.update({key: finite_real(value, key) for key, value in section.items()})
    except ValueError as err:
        raise ConfigError(f"tolerances: {err}") from None
    return tol


def parse_seed(cfg: dict) -> int:
    try:
        seed = strict_int(cfg.get("seed", 0), "seed")
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed}")
    return seed


def _msg(err: Exception) -> str:
    # KeyError repr-quotes its argument; unwrap to keep diagnostics readable
    if isinstance(err, KeyError) and err.args:
        return str(err.args[0])
    return str(err)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write output {path!r}: {err}") from None


def _write_meta(path: str, digest: str) -> None:
    meta = {"config_sha256": digest, "version": __version__}
    _write_text(path + ".meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def write_wavefunction_csv(v, path: str) -> None:
    grid = v.grid
    header = "k,theta,phi,re_v1,im_v1,re_v2,im_v2,re_v3,im_v3"
    try:
        write_csv(path, header, (grid.k_nodes, grid.theta_nodes, grid.phi_nodes), v.values)
    except OSError as err:
        raise ConfigError(f"cannot write output {path!r}: {err}") from None


def _expansion_l_max(grid_spec: GridSpec, entry: dict) -> int:
    """Band for an expansion dump; validated against the grid resolution."""
    raw = entry.get("l_max")
    if raw is None:
        # default: the largest band the grid resolves, capped
        fits = min(grid_spec.n_theta - 1, (grid_spec.n_phi - 1) // 2)
        return max(1, min(DEFAULT_EXPANSION_L_MAX, fits))
    try:
        l_max = strict_int(raw, "l_max")
    except ValueError as err:
        raise ConfigError(f"output: {err}") from None
    if (l_max < 1 or grid_spec.n_theta < l_max + 1
            or grid_spec.n_phi < 2 * l_max + 1):
        raise ConfigError(
            f"expansion l_max {l_max} needs n_theta >= {l_max + 1} "
            f"and n_phi >= {2 * l_max + 1}"
        )
    return l_max


def write_expansion_json(v, path: str, l_max: int) -> None:
    e = analyze(v, l_max)
    payload = {
        "l_max": e.l_max,
        "m_min": e.m_min,
        "m_max": e.m_max,
        "rows": e.to_rows(),
    }
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _gate(tolerances: dict, key: str, what: str, value: float) -> None:
    """Fail unless value <= tolerances[key] (when set); NaN fails."""
    if key in tolerances and not value <= tolerances[key]:
        raise NumericalError(
            f"{what} {value:.3e} is not within tolerance {key!r} "
            f"({tolerances[key]:.3e})"
        )


def _build_checked_mode(grid_spec: GridSpec, mode_spec: ModeSpec, tolerances: dict):
    try:
        grid = build_grid(grid_spec)
    except (ValueError, OverflowError, MemoryError) as err:
        raise NumericalError(f"grid construction failed for {grid_spec}: {err}") from None
    try:
        v = build_mode(mode_spec, grid)
    except EmptyProfileError as err:
        raise ConfigError(str(err)) from None
    except (ValueError, FloatingPointError) as err:
        raise NumericalError(f"mode construction failed: {err}") from None
    # the guard, the gates and the report all read the moments the state keeps
    n_phi = grid_spec.n_phi
    if n_phi % 2 == 0 and any(
            (bins == -(n_phi // 2)).any() for bins in azimuthal_support(v).values()):
        raise NumericalError(
            f"mode has azimuthal content at the Nyquist bin of n_phi = {n_phi}, "
            "so its azimuthal orders alias; raise n_phi"
        )
    _gate(tolerances, "mode_norm", "mode norm deviation", abs(norm(v) - 1.0))
    _gate(tolerances, "transversality", "transversality residual", transverse_residual(v))
    _gate(tolerances, "j3_eigen_residual", "J3 eigen-residual", v.moments.j3_dispersion)
    return v


def cmd_mode(cfg: dict) -> int:
    _check_keys(cfg, COMMAND_KEYS["mode"][0], "config", "mode")
    tolerances = parse_tolerances(cfg, "mode")
    parse_seed(cfg)
    grid_spec = _parse_section(cfg, "grid", GridSpec)
    mode_spec = _parse_section(cfg, "mode", ModeSpec)
    outputs = parse_outputs(cfg, {"report", "wavefunction", "expansion"}, "mode")
    for entry in outputs:
        if entry["kind"] == "expansion":
            entry["l_max"] = _expansion_l_max(grid_spec, entry)
    v = _build_checked_mode(grid_spec, mode_spec, tolerances)
    report = observable_report(v)
    digest = config_hash(cfg)
    if not outputs:
        sys.stdout.write(report_json(report))
        return 0
    for entry in outputs:
        kind, path = entry["kind"], entry["path"]
        if kind == "report":
            _write_text(path, report_json(report))
        elif kind == "wavefunction":
            write_wavefunction_csv(v, path)
        else:
            write_expansion_json(v, path, entry["l_max"])
        _write_meta(path, digest)
    return 0


def cmd_verify(cfg: dict) -> int:
    _check_keys(cfg, COMMAND_KEYS["verify"][0], "config", "verify")
    if "suite" not in cfg:
        raise ConfigError("config missing key 'suite'")
    suite = cfg["suite"]
    seed = parse_seed(cfg)
    outputs = parse_outputs(cfg, {"report"}, "verify")
    try:
        rows = run_suite(string(suite, "suite"), seed=seed)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    digest = config_hash(cfg)
    for entry in outputs:
        _write_text(entry["path"], text)
        _write_meta(entry["path"], digest)
    return 0 if all(row["pass"] for row in rows) else 1


def cmd_synth(cfg: dict) -> int:
    _check_keys(cfg, COMMAND_KEYS["synth"][0], "config", "synth")
    tolerances = parse_tolerances(cfg, "synth")
    parse_seed(cfg)
    grid_spec = _parse_section(cfg, "grid", GridSpec)
    mode_spec = _parse_section(cfg, "mode", ModeSpec)
    lattice = _parse_section(cfg, "lattice", SpaceTimeLattice)
    if len(lattice.times) != 1:
        raise ConfigError(
            "synth writes one snapshot: lattice.times must hold exactly one "
            f"time, got {len(lattice.times)}"
        )
    outputs = parse_outputs(cfg, {"fields"}, "synth")
    if not outputs:
        raise ConfigError("synth requires a non-empty 'outputs' list")
    v = _build_checked_mode(grid_spec, mode_spec, tolerances)
    try:
        snapshot = synthesize_fields(v, lattice, time=lattice.times[0])
        if "com_convergence_shift" in tolerances:
            _gate(tolerances, "com_convergence_shift",
                  "constants-of-motion shift under box growth",
                  com_convergence_shift(v, snapshot))
    except ValueError as err:
        raise NumericalError(str(err)) from None
    except MemoryError as err:
        raise NumericalError(
            f"lattice 'n_x', 'n_y', 'n_z' = {lattice.shape}: fields cannot be "
            f"allocated: {err}"
        ) from None
    digest = config_hash(cfg)
    for entry in outputs:
        path = entry["path"]
        try:
            export_fields(snapshot, path)
            export_slice(snapshot, path + ".slice.csv", field="E")
        except OSError as err:
            raise ConfigError(f"cannot write output {path!r}: {err}") from None
        _write_meta(path, digest)
        _write_meta(path + ".slice.csv", digest)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photon-angmom",
        description="One-photon angular momentum toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mode = sub.add_parser("mode", help="build a mode and report observables")
    p_mode.add_argument("--config", default=None, help="JSON run configuration")

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("--config", default=None, help="JSON run configuration")
    p_verify.add_argument("--suite", default=None,
                          help=" | ".join(list(SUITES) + ["all"]))
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for randomized suite states")

    p_synth = sub.add_parser("synth", help="synthesize real-space fields")
    p_synth.add_argument("--config", default=None, help="JSON run configuration")
    return parser


_COMMANDS = {"mode": cmd_mode, "verify": cmd_verify, "synth": cmd_synth}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        cfg = load_config(args.config)
        if getattr(args, "suite", None) is not None:
            cfg["suite"] = args.suite
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        apply_overrides(cfg, extra)
        # the NaN-safe gates report a numerical failure in one line (exit 3),
        # so numpy's floating-point warnings would only repeat it as noise
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
