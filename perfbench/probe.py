"""Set-up probe: import the package, build a workload and make its first request.

    python3 perfbench/probe.py WORKLOAD SEED

Prints `ready` once the first request exists; run.py times a fresh
process from spawn to that line, so `setup_s` includes interpreter start-up
and the package import, as a CLI call pays them.
"""

import sys

from boot import import_package, start_workload

import_package()
start_workload(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
