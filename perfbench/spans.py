"""Spans and counters for the traced run, recorded from the benchmark's side.

`install` wraps layer entry points of the package: functions and methods that
a request reaches through each module's public surface.  A wrapped call opens
a span with a name, start, end, parent span and the id of the request that
caused it; spans are kept in memory and written out when the run ends.  The
hottest calls, the ring operations and the coefficient actions, are only
counted: timing each of them would distort what it measures.  A span's self
time is its duration minus the time its wrapped children took.

Wrappers must go in before any ring or presentation is built, because
`FiniteCommRing.from_ring` captures bound ring methods at construction.
Nothing here runs in the untraced run.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

SPAN_CAP = 200_000  # spans kept for the trace file; aggregates cover every span

SPANNED = {
    "rings": ("check_endo_laws", "check_derivation_laws"),
    "catalog": ("build", "serialize", "parse_presentation_file"),
    "parsing": ("eval_expr",),
    "pbw": ("validate_presentation", "Presentation.multiply"),
    "matrices": ("solve_linear", "find_right_inverse_row", "find_left_inverse_column",
                 "mat_multiply", "stable_reduce_check", "search_stable_reduction",
                 "verify_completion"),
    "zariski": ("FiniteCommRing.__init__", "parse_ring_spec", "ideal_generated", "all_ideals",
                "enumerate_primes", "zariski_D", "boundary_ideal", "check_lattice_laws",
                "kronecker_reduce_dim0", "kronecker_reduce"),
}
RING_CLASSES = ("PrimeField", "Rationals", "PolynomialRing", "QuotientRing", "ResidueRing")
RING_OPS = ("add", "sub", "neg", "mul", "inv")
COUNTED = {
    "rings": ("EndoSpec.apply", "DerivationSpec.apply"),
    "zariski": ("FptBackend.squarefree_part",),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.request = 0  # 0 is set-up
        self.stack = []  # open spans: [span_id, name, start, child_seconds]
        self.spans = []  # (span_id, parent_id, request, name, start, end)
        self.dropped = 0
        self.next_id = 1
        self.agg = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {}  # name -> [count]

    def cell(self, name) -> list:
        return self.counts.setdefault(name, [0])

    def enter(self, name):
        self.stack.append([self.next_id, name, perf_counter(), 0.0])
        self.next_id += 1

    def exit(self):
        end = perf_counter()
        span_id, name, start, child = self.stack.pop()
        dur = end - start
        row = self.agg.get(name)
        if row is None:
            row = self.agg[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        parent = 0
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.request, name, start, end))
        else:
            self.dropped += 1

    def take_phase(self):
        """Return and reset the aggregates and counts gathered so far."""
        agg, counts = self.agg, {k: v[0] for k, v in self.counts.items()}
        self.agg = {}
        for v in self.counts.values():
            v[0] = 0
        return agg, counts

    def write(self, path, header: dict):
        rows = [list(s) for s in self.spans]
        doc = dict(header, spans_kept=len(rows), spans_dropped=self.dropped,
                   columns=["span_id", "parent_id", "request", "name", "start_s", "end_s"],
                   spans=rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _span(tr: Tracer, name, fn, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.exit()
        if post is not None:
            post(args, out)
        return out

    return wrapper


def _counted(tr: Tracer, name, fn):
    cell = tr.cell(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.on:
            cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _patch(module, dotted, make):
    owner, attr = module, dotted
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        owner = getattr(module, cls_name)
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tr: Tracer, modules: dict):
    """Wrap the layer entry points in `modules` (name -> imported module)."""

    def bump(name, by=1):
        tr.cell(name)[0] += by

    def solve_post(args, out):
        rows = args[1]
        bump("matrices.solve_linear.cells", len(rows) * (len(rows[0]) if rows else 0))

    def search_post(args, out):
        bump("matrices.witness_searches")
        bump("matrices.witness_found", out is not None)

    def dim0_post(args, out):
        bump("zariski.dim0_calls")
        bump("zariski.dim0_constructive", bool(out.constructive))

    posts = {
        "matrices.solve_linear": solve_post,
        "matrices.find_right_inverse_row": search_post,
        "matrices.find_left_inverse_column": search_post,
        "zariski.kronecker_reduce_dim0": dim0_post,
    }
    for mod_name, names in SPANNED.items():
        for dotted in names:
            name = f"{mod_name}.{dotted}"
            _patch(modules[mod_name], dotted,
                   lambda fn, name=name: _span(tr, name, fn, posts.get(name)))
    for mod_name, names in COUNTED.items():
        for dotted in names:
            name = f"{mod_name}.{dotted}.calls"
            _patch(modules[mod_name], dotted, lambda fn, name=name: _counted(tr, name, fn))
    rings = modules["rings"]
    for cls_name in RING_CLASSES:
        for op in RING_OPS:
            name = f"rings.{cls_name}.ops"
            _patch(rings, f"{cls_name}.{op}", lambda fn, name=name: _counted(tr, name, fn))
