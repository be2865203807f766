"""The stable public API surface of the ``repro`` package.

``repro.__all__`` is an explicit contract: every name in it must import
and be usable, and a bare ``import repro`` must not leak internal
helpers into ``dir(repro)`` beyond ``__all__`` plus the submodules the
package itself imports. The leak check runs in a subprocess so names
dragged in by *other* tests' imports (``import repro.sim`` etc. attach
submodule attributes) cannot pollute the measurement.
"""

import json
import subprocess
import sys

import repro


#: Submodules ``repro/__init__.py`` itself imports; they appear as
#: attributes of the package by Python's import rules. Anything beyond
#: this plus ``__all__`` is an unintended leak.
EXPECTED_SUBMODULES = {
    "config",
    "errors",
    "faults",
    "obs",
    "serve",
    "core",
    "model",
    # transitively imported by the above (package init chains)
    "cache",
    "noc",
    "metrics",
    "workloads",
    "runner",
    "sim",
    "vtb",
}


def test_all_names_import_and_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ names missing {name}"
        assert getattr(repro, name) is not None


def test_star_import_matches_all():
    namespace = {}
    exec("from repro import *", namespace)
    exported = {k for k in namespace if k != "__builtins__"}
    assert exported == set(repro.__all__)


def test_obs_is_public_and_has_its_own_surface():
    assert "obs" in repro.__all__
    for name in repro.obs.__all__:
        assert hasattr(repro.obs, name)


def test_engine_and_settings_are_public():
    assert "Engine" in repro.__all__
    assert "Settings" in repro.__all__
    assert repro.Engine.CHOICES == ("fast", "reference")
    assert repro.Settings.from_env({}).seed == 0


def test_no_unintended_leaks_fresh_import():
    """A clean ``import repro`` exposes only __all__ + submodules."""
    code = (
        "import json, repro; "
        "print(json.dumps(sorted(d for d in dir(repro) "
        "if not d.startswith('_'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    public = set(json.loads(out))
    allowed = set(repro.__all__) | EXPECTED_SUBMODULES
    leaks = public - allowed
    assert not leaks, f"unintended public names on repro: {sorted(leaks)}"
    # And everything promised is really there on a fresh import too.
    missing = set(repro.__all__) - public - {"__version__"}
    assert not missing, f"__all__ names absent: {sorted(missing)}"
