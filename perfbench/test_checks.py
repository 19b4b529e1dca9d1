"""The benchmark's checker: corrupted outputs must be counted as failed requests.

Run with `python -m pytest perfbench/test_checks.py` from the repository root.
Each case feeds the real measurement loop an output that is wrong in one
place, and expects the loop's failure count (the numerator of fail_ratio) to
count it; the untouched requests around it must still pass.
"""

import itertools

import checks
import run

run.import_package()

import workloads  # noqa: E402  (needs the package from the checkout's src/)
from skewpbw import zariski  # noqa: E402


def _measure(wl, requests, corrupt):
    """Run `requests` through the loop with `corrupt(req, out)` applied to outputs."""
    execute = wl.execute
    wl.execute = lambda req: corrupt(req, execute(req))
    return run.measure(wl, iter(requests), count=len(requests))


def _bump_leading(req, out):
    """Add one to the coefficient of the highest-degree term of a normal form."""
    if req.kind != "normalize":
        return out
    R = out.pres.ring
    terms = dict(out.terms)
    top = max(terms, key=lambda m: (sum(m), m))
    value = R.add(terms[top], R.one)
    if value == R.zero:
        del terms[top]
    else:
        terms[top] = value
    return type(out)(out.pres, terms)


def test_corrupted_normal_forms_are_failures():
    wl, stream = run.start_workload("rewrite-cold", 7)
    requests = [r for r in itertools.islice(stream, 300) if r.kind == "normalize"][:60]
    assert len({r.params[0] for r in requests}) >= 4  # closed forms and leading-term checks
    assert _measure(wl, requests, lambda req, out: out).failed == 0
    wl, _ = run.start_workload("rewrite-cold", 7)
    result = _measure(wl, requests, _bump_leading)
    assert result.failed == len(requests)


def _shift_witness(req, out):
    """Add one to the first entry of a found witness."""
    if out is None or isinstance(out, bool) or req.kind not in ("unimod-fpx", "unimod-alg"):
        return out
    first = out[0] + out[0].pres.one()
    return (first,) + tuple(out[1:])


def test_corrupted_witnesses_are_failures():
    wl, stream = run.start_workload("witness", 7)
    requests = [r for r in itertools.islice(stream, 400) if r.kind.startswith("unimod")][:150]
    assert _measure(wl, requests, lambda req, out: out).failed == 0
    wl, _ = run.start_workload("witness", 7)
    witnesses = [req for req in requests if wl.execute(req) is not None]
    assert len(witnesses) >= 20
    result = _measure(wl, requests, _shift_witness)
    assert result.failed == len(witnesses)


def test_corrupted_shifts_are_failures():
    wl, _ = run.start_workload("witness", 7)
    P = wl.pres[("polynomial-ring", 5, ())]
    x, one = P.var(0), P.one()
    # (x, x + 1, 1) reduces with shifts (0, 0); the shifts (-x, -x - 1) kill both entries.
    column = (x, x + one, one)
    good = workloads.Request("reduce-stable", ("fpx5-r3-a1", ((0, 1), (1, 1), (1,)), 1, 3),
                             (P, column))
    common = workloads.Request("reduce-stable", ("common-5", ((0, 1), (0, 2)), 1, 3),
                               (P, (x, x + x)))
    bad_shifts = {good: (-x, -x - one), common: (one,)}
    result = _measure(wl, [good, common], lambda req, out: bad_shifts[req])
    assert result.failed == 2

    class KroneckerOnly(workloads.Lattice):
        def __init__(self):  # the F_5[t] requests need no finite rings
            self.backend = zariski.FptBackend(workloads.KRONECKER_P)

    lat = KroneckerOnly()
    # u1 = t, u2 = t + 1, u = 1: the target radical is the unit ideal.
    req = workloads.Request("kronecker2", (((0, 1), (1, 1), (1,)), 3))
    assert _measure(lat, [req], lambda r, out: out).failed == 0
    assert _measure(lat, [req], lambda r, out: ((), (4,))).failed == 1  # t and t: radical <t>


def test_oracles_agree_on_small_cases():
    assert checks.weyl1_form(1, 1, 7) == {(1, 1): 1, (0, 0): 1}  # x t = t x + 1
    assert checks.qplane_form(2, 3, 3, 7) == {(3, 2): pow(3, 6, 7)}
    assert checks.same_radical([0, 0, 1], [0, 1], 5)  # <t^2> and <t>
    assert not checks.same_radical([0, 1], [1, 1], 5)
    assert checks.zmod_radical(12, [2]) == frozenset(range(0, 12, 2))
