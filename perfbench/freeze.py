"""Freeze the per-request output digests of a workload at the default seed.

    python3 perfbench/freeze.py WORKLOAD [ROUNDS]

Runs the first ROUNDS rounds untimed, checks every output, and writes
perfbench/digests/WORKLOAD.json.  A later run at the default seed counts a
request whose digest differs as failed, so certificates, normal forms and
reports must stay identical (canonical-first order included).  Requests past
the frozen ones are checked by the oracles alone; the run says how many were
compared.  Re-freeze only when the benchmark's requests change, never to
absorb a change of output.
"""

import json
import sys

import run

FREEZE_ROUNDS = {"rewrite-cold": 200, "witness": 1300, "lattice": 32}  # over a 30 s run


def main():
    name = sys.argv[1]
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else FREEZE_ROUNDS[name]
    run.import_package()
    wl, stream = run.start_workload(name, run.DEFAULT_SEED)
    result = run.measure(wl, stream, rounds=rounds)
    if result.failed:
        for line in result.errors:
            print("FAILED " + line, file=sys.stderr)
        sys.exit(1)
    path = run.HERE / "digests" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": name, "seed": run.DEFAULT_SEED, "rounds": rounds,
                                "digests": "".join(result.digests)}) + "\n")
    print(f"wrote {len(result.digests)} digests to {path.relative_to(run.HERE.parent)}")


if __name__ == "__main__":
    main()
