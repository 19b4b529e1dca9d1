#!/usr/bin/env python3
"""skewpbw benchmark: one closed-loop client sending requests to the library.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Workloads: rewrite-cold, witness, lattice (see workloads.py and README.md).

Untraced (--trace 0): `setup_s` is the median of SETUP_PROBES[W] fresh processes
that each import the package, build the workload and make its first request
(probe.py).  The run then builds the workload itself and sends requests one
at a time, in rounds, until their summed time reaches --seconds; it stops at
the end of that round.  Every output is checked, and at the default seed
compared with its frozen digest.  The last stdout line is the JSON result
with the end-to-end metrics, whose names and units BENCHMARK.json lists.
Every time in it is scaled to a nominal host speed (hostspeed.py); the raw
times are printed on the lines before it.

Traced (--trace 1): wrappers go in before set-up (spans.py), the first
TRACE_ROUNDS[W] rounds run under them, and the per-layer metrics are
printed.  The traced run executes a fixed number of rounds, not a time
budget, so its counts repeat exactly for a seed.  `trace.overhead_ratio` is
its rate over the rate of an untraced child process on the same requests.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

import hostspeed
from boot import HERE, fail, import_package, require_source, start_workload

DEFAULT_SEED = 1
DIGEST_HEX = 4
SETUP_PROBES = {"rewrite-cold": 9, "witness": 9, "lattice": 3}  # lattice builds for ~4 s
WALL_FACTOR = 3  # stop early if checks and input generation stretch the run this much
SPOOL_BLOCK = 4096  # call times held in memory before they go to the spool file
TRACE_ROUNDS = {"rewrite-cold": 15, "witness": 30, "lattice": 1}


def metric_units(kind: str) -> dict:
    """Metric name -> unit, in BENCHMARK.json's order ("end_to_end" or "per_layer")."""
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path.name} at the root of the checkout")
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[kind]}


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first request being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        fail(f"set-up probe exited with code {code}")
    return elapsed


def load_digests(name: str, seed: int) -> str:
    """Frozen per-request digests, DIGEST_HEX hex digits each, concatenated."""
    path = HERE / "digests" / f"{name}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return ""
    return json.loads(path.read_text())["digests"]


def digest(wl, req, out) -> str:
    text = f"{req.kind}|{req.params!r}|{wl.canon(req, out)}"
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


class Run:
    """Outcome of the measured loop.

    Call times are scaled to the nominal host speed as their host-speed
    samples come in (hostspeed.Gauge), and go to an unnamed file under
    perfbench/out/ in blocks, so that their memory, which grows with the
    number of requests and so with the program's speed, stays out of the
    run's peak RSS.
    """

    def __init__(self):
        self.count = 0
        self.busy = 0.0  # summed raw call time; the run's budget
        self.scaled_busy = 0.0  # summed scaled call time
        self.gauge = hostspeed.Gauge()
        self._times = array("d")
        self._spool = None
        self.failed = 0
        self.errors = []
        self.digests = []
        self.compared = 0  # outputs compared with a frozen digest
        self.mono_max = 0
        self.result_terms = 0

    def record(self, dt: float):
        self.count += 1
        self.busy += dt
        for scaled in self.gauge.add(dt):
            self._keep(scaled)

    def settle(self):
        """Scale the call times still waiting for a host-speed sample."""
        if self.gauge.pending:
            for scaled in self.gauge.flush():
                self._keep(scaled)

    def _keep(self, scaled: float):
        self.scaled_busy += scaled
        self._times.append(scaled)
        if len(self._times) == SPOOL_BLOCK:
            if self._spool is None:
                (HERE / "out").mkdir(exist_ok=True)
                self._spool = tempfile.TemporaryFile(dir=HERE / "out")
            self._times.tofile(self._spool)
            self._times = array("d")

    def latencies(self) -> array:
        """Every scaled call time, in order; read back after the peak RSS is taken."""
        out = array("d")
        if self._spool is not None:
            self._spool.seek(0)
            out.fromfile(self._spool, self.count - len(self._times))
        out.extend(self._times)
        return out


def measure(wl, stream, *, seconds=None, rounds=None, count=None, frozen=None,
            tracer=None) -> Run:
    """Closed loop: each request is sent when the previous one has returned.

    The loop stops after `count` requests, or at the end of the first round by
    which `rounds` rounds are done or the summed call time reaches `seconds`.
    Only the core call is timed.  Generating the next request, checking the
    output and comparing digests happen between calls, with tracing paused.
    `frozen` holds the digests to compare with (see load_digests); with None,
    each output's digest is recorded instead, for freeze.py.
    """
    run = Run()
    done = 0  # whole rounds
    wall_end = None if seconds is None else time.perf_counter() + WALL_FACTOR * seconds + 30
    for i in itertools.count():
        if count is not None and i >= count:
            break
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and time.perf_counter() >= wall_end:
            break
        req = next(stream)
        if tracer is not None:
            tracer.request, tracer.on = i + 1, True
            tracer.enter("request." + req.kind)
        err = None
        t0 = time.perf_counter()
        try:
            out = wl.execute(req)
        except Exception as exc:  # a raising request is a failed request; keep going
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit()
            tracer.on = False
        run.record(dt)
        if err is None:
            try:
                err = wl.check(req, out)
            except Exception as exc:  # a check that cannot digest the output rejects it
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is None:
            at = i * DIGEST_HEX
            if frozen is None:
                run.digests.append(digest(wl, req, out))
            elif at < len(frozen):
                run.compared += 1
                if frozen[at:at + DIGEST_HEX] != digest(wl, req, out):
                    err = "output digest differs from the frozen one"
            if tracer is not None:
                run.result_terms += wl.result_terms(req, out)
                sizes = [len(P._mono_cache) for P in wl.presentations(req, out)]
                run.mono_max = max([run.mono_max] + sizes)
        if err is not None:
            run.failed += 1
            if len(run.errors) < 5:
                run.errors.append(f"request {i} {req.kind} {req.params!r:.120}: {err}")
        if req.ends_round:
            done += 1
            if seconds is not None and run.busy >= seconds:
                break
    run.settle()
    return run


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def emit(run: Run, metrics: dict, units: dict):
    for line in run.errors:
        print("FAILED " + line, file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:45s} {value:>16.6g} {units[name]}")
    attempted = run.count
    print(f"{'fail_ratio':45s} {run.failed / attempted:>16.6g} ratio "
          f"({run.failed} of {attempted} requests; {run.compared} compared with frozen digests)")
    if 0 < run.compared < attempted:
        print(f"note: only the first {run.compared} of {attempted} outputs have frozen digests; "
              "the rest are checked by the oracles alone", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_untraced(args):
    units = metric_units("end_to_end")
    probes = [] if args.rounds else [probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES[args.workload])]
    t_start = time.perf_counter()
    import_package()
    wl, stream = start_workload(args.workload, args.seed)
    run = measure(wl, stream, seconds=None if args.rounds else args.seconds,
                  rounds=args.rounds, frozen=load_digests(args.workload, args.seed))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = run.latencies()
    p99 = percentile(lat, 99)
    speed = statistics.median(run.gauge.samples)
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} requests, "
          f"{sum(1 for x in lat if x > p99)} beyond p99, "
          f"{time.perf_counter() - t_start:.1f} s wall time")
    print(f"raw (unscaled): ops_per_s {run.count / run.busy:.6g}, "
          f"setup samples {[round(raw, 4) for raw in probes]}; reference loop "
          f"{len(run.gauge.samples)} samples, median {speed * 1e3:.4g} ms, "
          f"nominal {hostspeed.NOMINAL_S * 1e3:.4g} ms")
    metrics = {
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "ops_per_s": run.count / run.scaled_busy,
        "peak_rss_mib": peak_rss_mib,
    }
    if probes:  # a --rounds run starts no probes and has no set-up time to report
        # A probe's process lives too briefly to sample well, so set-up is
        # scaled by the run's median sample, taken in the seconds that follow.
        metrics["setup_s"] = statistics.median(probes) * hostspeed.NOMINAL_S / speed
    emit(run, {name: metrics[name] for name in units if name in metrics}, units)


def untraced_rate(args, rounds: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0", "--rounds", str(rounds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"untraced reference run exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["ops_per_s"]["value"]


def run_traced(args):
    import spans

    units = metric_units("per_layer")
    rounds = args.rounds or TRACE_ROUNDS[args.workload]
    reference = untraced_rate(args, rounds)
    t0 = time.perf_counter()
    import_package()
    from skewpbw import catalog, matrices, parsing, pbw, rings, zariski

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    spans.install(tracer, {"rings": rings, "catalog": catalog, "parsing": parsing, "pbw": pbw,
                           "matrices": matrices, "zariski": zariski})
    t1 = time.perf_counter()
    tracer.on = True
    wl, stream = start_workload(args.workload, args.seed)
    tracer.on = False
    build_s = time.perf_counter() - t1
    setup_agg, _ = tracer.take_phase()
    run = measure(wl, stream, rounds=rounds, frozen=load_digests(args.workload, args.seed),
                  tracer=tracer)
    agg, counts = tracer.take_phase()

    def ratio(num, den):
        if not counts.get(den):
            print(f"note: {num} has no attempts on this workload; reported as 0")
            return 0.0
        return counts[num] / counts[den]

    metrics = {}
    for name in units:
        span, _, field = name.rpartition(".")
        calls, _, self_s = agg.get(span, (0, 0.0, 0.0))
        if name in counts:  # counted, not spanned: ring operations and hot methods
            metrics[name] = counts[name]
        elif field == "self_s":
            metrics[name] = self_s
        elif field == "calls":
            metrics[name] = calls
    metrics.update({
        "pbw.mono_cache_entries": run.mono_max,
        "pbw.result_terms": run.result_terms,
        "matrices.solve_linear.cells": counts.get("matrices.solve_linear.cells", 0),
        "matrices.witness_found_ratio": ratio("matrices.witness_found", "matrices.witness_searches"),
        "zariski.FiniteCommRing.init_s":
            setup_agg.get("zariski.FiniteCommRing.__init__", [0, 0.0])[1],
        "zariski.dim0_constructive_ratio": ratio("zariski.dim0_constructive", "zariski.dim0_calls"),
        "setup.import_s": import_s,
        "setup.build_s": build_s,
        "trace.overhead_ratio": run.count / run.scaled_busy / reference,
    })
    metrics = {name: metrics[name] for name in units}
    count = run.count
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(out, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "requests": count})
    print(f"workload {args.workload} seed {args.seed}: {count} traced requests, {rounds} rounds, "
          f"{len(tracer.spans)} spans written to {out.relative_to(HERE.parent)}")
    emit(run, metrics, units)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many request rounds instead of --seconds "
                         "(no set-up probes, so no setup_s)")
    args = ap.parse_args(argv)
    require_source()
    if args.trace:
        run_traced(args)
    else:
        run_untraced(args)


if __name__ == "__main__":
    main()
