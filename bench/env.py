"""The environment a benchmark result was measured in."""

from __future__ import annotations

import os
import pathlib
import platform
from importlib import metadata
from typing import Any, Dict, Optional

__all__ = ["environment", "git_commit"]


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: pathlib.Path) -> Optional[str]:
    """HEAD of ``root/.git`` read from its files, or None.

    Reads only inside ``root``: a checkout without ``.git`` (an export)
    has no commit to record, and git's search of parent directories
    could find an unrelated repository.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: pathlib.Path) -> Dict[str, Any]:
    """CPUs, interpreter, numpy and commit of this measurement."""
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }
