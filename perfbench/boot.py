"""Import the package from the checkout and build a workload: the timed set-up.

Kept apart from run.py so that the set-up probe loads nothing of the
benchmark's own beyond this module and workloads.py.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def require_source():
    if not (SRC / "skewpbw" / "__init__.py").is_file():
        fail(f"no package source at {SRC}; run from a full checkout")


def import_package():
    """Import skewpbw from this checkout's src/, never from an installed copy."""
    require_source()
    sys.path.insert(0, str(SRC))
    import skewpbw

    if Path(skewpbw.__file__).resolve().parent != SRC / "skewpbw":
        fail(f"imported skewpbw from {skewpbw.__file__}, not from {SRC}")
    return skewpbw


def start_workload(name: str, seed: int):
    """Set-up as a user pays it: build the workload and its first request."""
    import itertools

    import workloads

    wl = workloads.WORKLOADS[name](seed)
    stream = wl.requests()
    first = next(stream)
    return wl, itertools.chain([first], stream)
