"""Command-line entry point.

Exit codes: 0 success/verified, 1 verification failure or no certificate
found, 2 usage or input errors, inputs too deep for the recursive evaluator
included.  `--json` wraps the result in the report envelope described by
report_schema.json; identical argv and seed give byte-identical reports apart
from the wall-time field.  Only `zariski` and `suite` sample, so only they
take a seed: --seed, else SKEWPBW_SEED, else the package default.  Every other
command, `check` included, reports a null seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog
from .errors import NotFoundWithinBound, PreconditionFailed, SkewPBWError
from .matrices import (
    PolyMatrix,
    find_left_inverse_column,
    find_right_inverse_row,
    search_stable_reduction,
    stable_reduce_check,
    verify_completion,
)
from .parsing import eval_expr
from .pbw import DEFAULT_SEED, validate_presentation
from .suites import SUITES
from .zariski import (
    boundary_ideal,
    check_lattice_laws,
    enumerate_primes,
    kronecker_reduce,
    parse_backend_spec,
    parse_ring_spec,
    zariski_D,
)

SCHEMA_VERSION = "1"


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SKEWPBW_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _load_presentation(args):
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            return catalog.parse_presentation_file(fh.read())
    name = getattr(args, "algebra", None)
    if not name:
        raise SkewPBWError("choose an algebra with --algebra or load one with --file")
    params = {}
    for key in ("n", "q", "h", "m"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    return catalog.build(name, p=getattr(args, "p", None),
                         rationals=bool(getattr(args, "rationals", False)), **params)


def _parse_matrix_file(path: str, pres) -> PolyMatrix:
    """First line `rows cols`, then one entry expression per line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    rows, cols = (int(v) for v in lines[0].split())
    entries = [eval_expr(text, pres) for text in lines[1:]]
    if len(entries) != rows * cols:
        raise SkewPBWError(f"expected {rows * cols} entries, found {len(entries)}")
    grid = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
    return PolyMatrix(pres, grid)


def _emit(args, code: int, data: dict, checks=None, lines=None) -> int:
    if getattr(args, "json", False):
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": list(args.argv),
            "seed": _seed_from(args) if getattr(args, "uses_seed", False) else None,
            "ok": code == 0,
            "data": data,
            "checks": checks or [],
            "wall_time_s": round(time.perf_counter() - args.t0, 6),
        }
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines or []:
            print(line)
    return code


# -- subcommand handlers --------------------------------------------------------


def cmd_check(args) -> int:
    P = _load_presentation(args)
    rep = validate_presentation(P)
    lines = [f"{'ok ' if c.passed else 'FAIL'} {c.name}" + (f": {c.detail}" if c.detail else "")
             for c in rep.checks]
    lines.append("all checks passed" if rep.ok else "presentation rejected")
    checks = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in rep.checks]
    return _emit(args, 0 if rep.ok else 1, {"presentation": repr(P)}, checks, lines)


def cmd_normalize(args) -> int:
    P = _load_presentation(args)
    f = eval_expr(args.expr, P)
    return _emit(args, 0, {"normal_form": str(f), "degree": None if not f else int(f.degree())},
                 lines=[str(f)])


def cmd_mul(args) -> int:
    P = _load_presentation(args)
    f = eval_expr(args.left, P) * eval_expr(args.right, P)
    return _emit(args, 0, {"normal_form": str(f)}, lines=[str(f)])


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = [f"{name}: {catalog.describe_entry(name).summary}" for name in catalog.catalog_names()]
        return _emit(args, 0, {"entries": catalog.catalog_names()}, lines=rows)
    entry = catalog.describe_entry(args.name)
    P = catalog.build(args.name, p=args.p, rationals=args.rationals)
    text = catalog.serialize(P)
    lines = [f"# {entry.summary}", text.rstrip()]
    return _emit(args, 0, {"name": args.name, "summary": entry.summary, "file": text},
                 lines=lines)


def cmd_bound(args) -> int:
    rep = catalog.stable_rank_bound(args.name, n=args.n, m=args.m, dim_r=args.dimR)
    lines = [str(rep.bound)]
    return _emit(args, 0, rep.as_dict(), lines=lines)


def cmd_unimod(args) -> int:
    P = _load_presentation(args)
    entries = [eval_expr(text, P) for text in args.row.split(",")]
    if args.side == "right":
        witness = find_right_inverse_row(entries, args.bound)
    else:
        witness = find_left_inverse_column(entries, args.bound)
    if witness is None:
        return _emit(args, 1, {"found": False, "bound": args.bound},
                     lines=[f"no witness within degree bound {args.bound}"])
    return _emit(args, 0,
                 {"found": True, "witness": [str(w) for w in witness], "bound": args.bound},
                 lines=["witness: " + ", ".join(str(w) for w in witness)])


def cmd_complete(args) -> int:
    P = _load_presentation(args)
    u = [eval_expr(text, P) for text in args.row.split(",")]
    U = _parse_matrix_file(args.U, P)
    Uinv = _parse_matrix_file(args.Uinv, P)
    ok = verify_completion(u, U, Uinv)
    return _emit(args, 0 if ok else 1, {"verified": ok},
                 lines=["verified" if ok else "completion rejected"])


def cmd_reduce_stable(args) -> int:
    P = _load_presentation(args)
    column = [eval_expr(text, P) for text in args.column.split(",")]
    if args.a:
        shifts = [eval_expr(text, P) for text in args.a.split(",")]
        ok = stable_reduce_check(column, shifts, args.bound)
        return _emit(args, 0 if ok else 1, {"reducible": ok},
                     lines=["reducible" if ok else "not reducible with these shifts"])
    shifts = search_stable_reduction(column, args.a_bound, args.bound)
    if shifts is None:
        return _emit(args, 1, {"found": False},
                     lines=[f"no shift tuple of degree <= {args.a_bound} found"])
    return _emit(args, 0, {"found": True, "shifts": [str(s) for s in shifts]},
                 lines=["shifts: " + ", ".join(str(s) for s in shifts)])


ZARISKI_FLAGS = {
    "primes": ("ring",),
    "D": ("ring", "gens"),
    "laws": ("ring",),
    "boundary": ("ring", "v"),
    "kronecker": ("backend", "us", "u"),
}


def cmd_zariski(args) -> int:
    missing = [f"--{flag}" for flag in ZARISKI_FLAGS[args.action] if getattr(args, flag) is None]
    if missing:
        raise SkewPBWError(f"zariski {args.action} needs {', '.join(missing)}")
    if args.action == "kronecker":
        backend = parse_backend_spec(args.backend)
        us = tuple(backend.element_from_text(text) for text in args.us.split(","))
        try:
            xs = kronecker_reduce(us, backend.element_from_text(args.u), backend, args.bound)
        except NotFoundWithinBound as exc:
            return _emit(args, 1, {"found": False, "reason": str(exc)}, lines=[str(exc)])
        shown = [backend.format(x) for x in xs]
        return _emit(args, 0, {"found": True, "shifts": shown},
                     lines=["shifts: " + ", ".join(shown)])

    ring = parse_ring_spec(args.ring)

    def fmt_ideal(I):
        return "{" + ", ".join(ring.format(a) for a in I.sorted_elements()) + "}"

    if args.action == "primes":
        primes = enumerate_primes(ring)
        return _emit(args, 0,
                     {"ring": ring.label, "primes": [[ring.format(a) for a in P.sorted_elements()] for P in primes]},
                     lines=[fmt_ideal(P) for P in primes])
    if args.action == "D":
        gens = tuple(ring.element_from_text(text) for text in args.gens.split(","))
        D = zariski_D(gens, ring)
        return _emit(args, 0, {"ring": ring.label, "D": [ring.format(a) for a in D.sorted_elements()]},
                     lines=[fmt_ideal(D)])
    if args.action == "boundary":
        v = ring.element_from_text(args.v)
        I = boundary_ideal(v, ring)
        return _emit(args, 0, {"ring": ring.label, "boundary": [ring.format(a) for a in I.sorted_elements()],
                               "whole_ring": I.is_whole()},
                     lines=[fmt_ideal(I)])
    # the remaining action: laws
    rep = check_lattice_laws(ring, mode=args.mode, seed=_seed_from(args))
    lines = [f"{'ok ' if law['ok'] else 'FAIL'} {law['law']} ({law['cases']} cases)"
             for law in rep["laws"]]
    lines.append("all laws hold" if rep["ok"] else "law violations found")
    checks = [{"name": law["law"], "passed": law["ok"],
               "detail": "; ".join(law["failures"])} for law in rep["laws"]]
    return _emit(args, 0 if rep["ok"] else 1, {"ring": ring.label, "mode": args.mode},
                 checks, lines)


def cmd_suite(args) -> int:
    runner = SUITES[args.name]
    kwargs = {"seed": _seed_from(args)}
    if args.name in {"pbw", "all"}:
        kwargs["trials"] = args.trials
    report = runner(**kwargs)
    lines = [f"{'ok ' if c['passed'] else 'FAIL'} {c['name']}" for c in report["checks"]]
    lines.append(f"suite {args.name}: " + ("pass" if report["ok"] else "FAIL"))
    return _emit(args, 0 if report["ok"] else 1, {"suite": args.name},
                 report["checks"], lines)


# -- argument wiring ---------------------------------------------------------------


def _algebra_flags(sp):
    sp.add_argument("--algebra", help="catalog entry name")
    sp.add_argument("--file", help="presentation file to load instead")
    sp.add_argument("--p", type=int, help="prime for an F_p coefficient field")
    sp.add_argument("--rationals", "--Q", action="store_true", help="use Q coefficients")
    sp.add_argument("--n", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--h", type=int)
    sp.add_argument("--m", type=int)


def _common_flags(sp, uses_seed=False):
    sp.add_argument("--json", action="store_true", help="emit the JSON report envelope")
    if uses_seed:
        sp.add_argument("--seed", type=int, help="sampling seed (overrides SKEWPBW_SEED)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="skewpbw", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="decide whether a presentation has a PBW basis")
    _algebra_flags(sp)
    _common_flags(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("normalize", help="normal form of an expression")
    sp.add_argument("expr")
    _algebra_flags(sp)
    _common_flags(sp)
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("mul", help="product of two expressions")
    sp.add_argument("left")
    sp.add_argument("right")
    _algebra_flags(sp)
    _common_flags(sp)
    sp.set_defaults(fn=cmd_mul)

    sp = sub.add_parser("catalog", help="list or show built-in algebras")
    sp.add_argument("action", choices=["list", "show"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--p", type=int)
    sp.add_argument("--rationals", "--Q", action="store_true")
    _common_flags(sp)
    sp.set_defaults(fn=cmd_catalog)

    sp = sub.add_parser("bound", help="stable-rank upper bound / d-Hermite degree")
    sp.add_argument("name")
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--dimR", type=int)
    _common_flags(sp)
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("unimod", help="one-sided inverse search for a row/column")
    sp.add_argument("action", choices=["check"])
    sp.add_argument("--row", required=True, help="comma-separated entry expressions")
    sp.add_argument("--bound", type=int, default=2)
    sp.add_argument("--side", choices=["right", "left"], default="right")
    _algebra_flags(sp)
    _common_flags(sp)
    sp.set_defaults(fn=cmd_unimod)

    sp = sub.add_parser("complete", help="verify a completion certificate")
    sp.add_argument("action", choices=["verify"])
    sp.add_argument("--row", required=True)
    sp.add_argument("--U", required=True, help="matrix file")
    sp.add_argument("--Uinv", required=True, help="matrix file")
    _algebra_flags(sp)
    _common_flags(sp)
    sp.set_defaults(fn=cmd_complete)

    sp = sub.add_parser("reduce-stable", help="stable reduction of a unimodular column")
    sp.add_argument("--column", required=True)
    sp.add_argument("--a", help="comma-separated shifts; omit to search")
    sp.add_argument("--a-bound", type=int, default=1, dest="a_bound")
    sp.add_argument("--bound", type=int, default=2, help="witness degree bound")
    _algebra_flags(sp)
    _common_flags(sp)
    sp.set_defaults(fn=cmd_reduce_stable)

    sp = sub.add_parser("zariski", help="prime lattice, boundary ideals, reductions")
    sp.add_argument("action", choices=list(ZARISKI_FLAGS))
    sp.add_argument("--ring", help="Zmod:n | Fp:p | quot:F2:x^3 | prod:a*b")
    sp.add_argument("--gens")
    sp.add_argument("--v")
    sp.add_argument("--backend", help="fpt:p or a finite ring spec")
    sp.add_argument("--us")
    sp.add_argument("--u")
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    _common_flags(sp, uses_seed=True)
    sp.set_defaults(fn=cmd_zariski, uses_seed=True)

    sp = sub.add_parser("suite", help="run a property suite")
    sp.add_argument("name", choices=sorted(SUITES))
    sp.add_argument("--trials", type=int, default=200)
    _common_flags(sp, uses_seed=True)
    sp.set_defaults(fn=cmd_suite, uses_seed=True)

    return ap


def dispatch(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.argv = list(argv)
    args.t0 = time.perf_counter()
    if not hasattr(args, "uses_seed"):
        args.uses_seed = False
    try:
        return args.fn(args)
    except (SkewPBWError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (NotFoundWithinBound, PreconditionFailed)) else 2
    except RecursionError:
        print("error: the input nests too deeply or its degree is too high", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
