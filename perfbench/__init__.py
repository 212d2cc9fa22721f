"""The repository benchmark: grid, serving and certification workloads.

Run ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, sockets and worker records (git-ignored).
WORK = os.path.join(ROOT, ".perfbench-work")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_program_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else,
    and keep temporary files inside the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"repro imported from {repro.__file__}")
    os.makedirs(WORK, exist_ok=True)
    tempfile.tempdir = WORK
