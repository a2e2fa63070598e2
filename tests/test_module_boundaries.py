"""Private names stay in their module.

A `_`-prefixed name is a module's own: no other package module may import
it, except the few pairs allowed below.  So the rule for reading a state's
factor pairs keeps its single home in `wavefunction` (`FrameMoments`),
and the other modules go through the public readers.
"""

import ast
from pathlib import Path

import photon_angmom

PACKAGE = Path(photon_angmom.__file__).parent

# (importing module, source module) -> the private names it may import
ALLOWED = {
    ("modes", "wavefunction"): {"_power", "_totals"},
    ("operators", "wavefunction"): {"_H", "_bins"},
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
