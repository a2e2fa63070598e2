"""Private names stay in their module, and numpy is the only runtime
dependency.

A `_`-prefixed name is a module's own: no other package module may import
it, except the few pairs allowed below.  So the rule for reading a state's
factor pairs keeps its single home in `wavefunction` (`FrameMoments`),
and the other modules go through the public readers.

No module of the package imports scipy; the tests and the bench keep it
as their oracle only.

The observable report reads <J1> and <J2> in one ladder pass over its
coefficients: it applies no operator and does no expansion arithmetic.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import photon_angmom
from photon_angmom import operators
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.modes import ModeSpec, build_mode
from photon_angmom.vsh import VshExpansion
from photon_angmom.wavefunction import random_state

PACKAGE = Path(photon_angmom.__file__).parent

# (importing module, source module) -> the private names it may import
ALLOWED = {
    ("modes", "wavefunction"): {"_power", "_totals"},
    ("operators", "wavefunction"): {"_H"},
}


def _private_imports(path):
    """(source module, name) of every `_`-prefixed name that the module at
    `path` imports from another module of the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("photon_angmom."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            if source is not None and alias.name.startswith("_") \
                    and not alias.name.startswith("__"):
                yield source, alias.name


def test_no_module_imports_another_modules_private_names():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for source, name in _private_imports(path):
            if name not in ALLOWED.get((path.stem, source), set()):
                found.setdefault(path.stem, []).append(f"{source}.{name}")
    assert found == {}


def test_allowed_private_imports_are_all_used():
    # an entry that nothing imports any more is stale: drop it
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        seen.update((path.stem, source, name) for source, name in _private_imports(path))
    assert seen == {(m, s, n) for (m, s), names in ALLOWED.items() for n in names}


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


# with scipy blocked, the README vector LG mode and the paraxial suite run,
# and nothing loads a scipy module
_NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
import photon_angmom
from photon_angmom import cli, verify
code = cli.main(["mode", "--config", sys.argv[1], "--outputs=[]"])
rows = verify.paraxial_suite()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
print(json.dumps({"code": code, "failed": [r["check"] for r in rows if not r["pass"]],
                  "rows": len(rows), "scipy": loaded}))
"""


def test_package_runs_without_scipy(tmp_path):
    cfg = tmp_path / "lg.json"
    cfg.write_text(json.dumps({
        "grid": {"n_k": 8, "k_min": 0.94, "k_max": 1.06, "n_theta": 256, "n_phi": 12},
        "mode": {"kind": "vector_lg", "m": 2, "w": -1, "p": 1, "w0": 25.0, "k_fixed": 1.0},
        "seed": 0,
    }))
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(cfg)], capture_output=True,
                         text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                         timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["rows"] > 0 and result["failed"] == []
    assert result["scipy"] == []


def test_observable_report_does_no_expansion_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the report reads <J+> in one pass over its coefficients")

    for owner, name in ((operators, "apply_J"), (operators, "expansion_inner"),
                        (VshExpansion, "__add__"), (VshExpansion, "__sub__"),
                        (VshExpansion, "__mul__"), (VshExpansion, "__rmul__")):
        monkeypatch.setattr(owner, name, refuse)
    grid = build_grid(GridSpec(n_k=4, k_min=0.5, k_max=1.5, n_theta=16, n_phi=16))
    tilted = build_mode(ModeSpec(kind="sam_wavepacket", w=1, kappa=6.0,
                                 s_direction=(0.3, 0.1, 1.0)), grid)
    for v in (random_state(grid, seed=1), tilted):
        total_am = operators.observable_report(v).total_am
        assert np.all(np.isfinite(total_am)) and abs(total_am[0]) > 1e-3
