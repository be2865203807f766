"""Every function the benchmark's tracer wraps still exists.

``bench/trace.py`` swaps program functions for span-recording wrappers
by module and attribute name. A rename in ``src/`` would otherwise
surface only when someone runs ``python3 -m bench run --trace 1``; this
resolves each target the same way the tracer does, with
``inspect.getattr_static`` on the owning class or module.
"""

import importlib
import inspect

import pytest

from bench.trace import BENCH_TARGETS, DAEMON_TARGETS

TARGETS = list(dict.fromkeys(BENCH_TARGETS + DAEMON_TARGETS))


@pytest.mark.parametrize(
    "module_name, class_name, attr, span",
    TARGETS,
    ids=[
        f"{m}.{c + '.' if c else ''}{a}" for m, c, a, _ in TARGETS
    ],
)
def test_trace_target_resolves(module_name, class_name, attr, span):
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name) if class_name else module
    target = inspect.getattr_static(owner, attr)
    if isinstance(target, (classmethod, staticmethod)):
        target = target.__func__
    assert callable(target), f"{span}: {module_name} {attr} is not callable"
