import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from math import comb, factorial
from pathlib import Path

import pytest

import skewpbw
from skewpbw.cli import dispatch
from skewpbw.matrices import random_invertible
from skewpbw.catalog import build


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "weyl", "--n", "2")
    assert code == 0 and out.strip() == "5"


def test_bound_missing_dim(capsys):
    code, _, err = run(capsys, "bound", "ore-bijective", "--n", "2")
    assert code == 2 and "dimension" in err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--algebra", "weyl", "--p", "7", "x*t")
    assert code == 0 and out.strip() == "t*x + 1"


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "--algebra", "quantum-plane", "--p", "7", "--q", "3", "y", "x")
    assert code == 0 and out.strip() == "3*x*y"


def test_zariski_D(capsys):
    code, out, _ = run(capsys, "zariski", "D", "--ring", "Zmod:12", "--gens", "0")
    assert code == 0 and out.strip() == "{0, 6}"


def test_zariski_primes(capsys):
    code, out, _ = run(capsys, "zariski", "primes", "--ring", "Zmod:12")
    assert code == 0
    assert out.splitlines() == ["{0, 3, 6, 9}", "{0, 2, 4, 6, 8, 10}"]


def test_zariski_boundary(capsys):
    code, out, _ = run(capsys, "zariski", "boundary", "--ring", "Zmod:12", "--v", "2")
    assert code == 0 and out.strip().startswith("{0, 1, 2,")


def test_zariski_laws(capsys):
    code, out, _ = run(capsys, "zariski", "laws", "--ring", "quot:F2:x^3")
    assert code == 0 and "all laws hold" in out


def test_zariski_kronecker_json(capsys):
    code, rep = run_json(
        capsys, "zariski", "kronecker", "--backend", "fpt:5",
        "--us", "t^2,t^2", "--u", "t+1", "--bound", "3",
    )
    assert code == 0
    assert rep["data"] == {"found": True, "shifts": ["0", "1"]}
    assert rep["schema_version"] == "1"


def test_unimod_check(capsys):
    code, out, _ = run(
        capsys, "unimod", "check", "--row", "t,x", "--bound", "1",
        "--algebra", "weyl", "--p", "101",
    )
    assert code == 0 and out.startswith("witness:")


def test_unimod_not_found_exit_1(capsys):
    code, out, _ = run(
        capsys, "unimod", "check", "--row", "x,x", "--bound", "2",
        "--algebra", "polynomial-ring", "--p", "5", "--n", "1",
    )
    assert code == 1 and "no witness" in out


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "bound")
    assert code == 2
    code, _, err = run(capsys, "normalize", "--algebra", "nope", "x")
    assert code == 2 and "nope" in err


@pytest.mark.parametrize(
    "spec", ["Zmod:1000", "prod:Zmod:30*Zmod:30", "quot:F2:x^9", "quot:F2:1"]
)
def test_bad_ring_spec_exit_2_without_traceback(spec):
    env = dict(os.environ, PYTHONPATH=str(Path(skewpbw.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "skewpbw.cli", "zariski", "primes", "--ring", spec],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, code",
    [(("primes", "--ring", "quot:F2:x^99999999"), 2),
     (("D", "--ring", "quot:F2:x^3", "--gens", "x^99999999"), 0)],
)
def test_huge_exponents_answer_promptly(args, code):
    env = dict(os.environ, PYTHONPATH=str(Path(skewpbw.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "skewpbw.cli", "zariski", *args],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error: ")
    else:  # x^99999999 = 0 in F_2[x]/(x^3), so D is the nilradical
        assert proc.stdout.strip() == "{0, x, x^2, x^2 + x}"


def _cli(*argv, timeout=20):
    env = dict(os.environ, PYTHONPATH=str(Path(skewpbw.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "skewpbw.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)
    assert "Traceback" not in proc.stderr
    return proc


def test_kronecker_irreducible_degree_20_answers_promptly():
    f = "t^20+t^2+t+1"  # irreducible over F_5: no factor of degree <= 10 is tried
    proc = _cli("zariski", "kronecker", "--backend", "fpt:5", "--us", f"{f},{f}", "--u", f,
                "--bound", "0")
    assert proc.returncode == 0 and proc.stdout == "shifts: 0, 0\n"


ZARISKI_CALLS = {
    "primes": {"--ring": "Zmod:12"},
    "D": {"--ring": "Zmod:12", "--gens": "0"},
    "laws": {"--ring": "Zmod:6"},
    "boundary": {"--ring": "Zmod:12", "--v": "2"},
    "kronecker": {"--backend": "fpt:5", "--us": "t,t+1", "--u": "t"},
}


@pytest.mark.parametrize("action, left_out", [
    (action, flag) for action, flags in ZARISKI_CALLS.items() for flag in flags
])
def test_zariski_missing_flag_exit_2_without_traceback(action, left_out):
    argv = [a for flag, value in ZARISKI_CALLS[action].items() if flag != left_out
            for a in (flag, value)]
    proc = _cli("zariski", action, *argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: zariski {action} needs {left_out}\n"


def test_zariski_calls_with_every_flag_answer(capsys):
    for action, flags in ZARISKI_CALLS.items():
        code, _, err = run(capsys, "zariski", action, *itertools.chain(*flags.items()))
        assert code == 0 and not err, action


def _deep_sum(term):
    return "+".join([term] * 3000)


@pytest.mark.parametrize("argv, rel", [
    (("normalize", "--algebra", "weyl", "--p", "7", _deep_sum("x")), None),
    (("zariski", "D", "--ring", "Zmod:12", "--gens", _deep_sum("1")), None),
    (("check", "--file"), f"rel y x = x y + {_deep_sum('1')}"),
    (("normalize", "--algebra", "usl2", "--p", "7", "f^1000*e^1000"), None),
], ids=["normalize-sum", "D-sum", "rel-sum", "normalize-generic-pair-degree-2000"])
def test_too_deep_input_exit_2(tmp_path, argv, rel):
    if rel is not None:
        pres = tmp_path / "deep.pres"
        pres.write_text(f"ring Fp 7\nvars x y\n{rel}\n")
        argv = argv + (str(pres),)
    proc = _cli(*argv)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")


F2_7 = "*".join(["prod:Fp:2"] * 6 + ["Fp:2"])
# SHA-256 of the report without wall_time_s, taken from the law checks that
# recomputed every ideal and radical from bit lists (24 s); the tables must
# leave every verdict and detail as it was.
F2_7_LAWS_SHA256 = "73c4f36e001817be10a7bb62283b838c317f9348582ce88f3cf914a434426083"


def test_exhaustive_laws_on_f2_7_answer_within_20_s():
    proc = _cli("zariski", "laws", "--ring", F2_7, "--json", timeout=20)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    report.pop("wall_time_s")
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == F2_7_LAWS_SHA256


def test_q_power_too_long_to_print_exit_2_promptly():
    # q^(2295^2) for q = 3 has 2.5 million digits: refused before it is computed
    start = time.perf_counter()
    proc = _cli("normalize", "--algebra", "quantum-plane", "--rationals", "y^2295*x^2295")
    assert proc.returncode == 2 and time.perf_counter() - start < 1.0
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and f"{sys.get_int_max_str_digits()} decimal digits" in line
    # 3^(95*95) has 4306 digits and 3^(94*95) has 4261, so the first is refused
    limit = sys.get_int_max_str_digits()
    proc = _cli("normalize", "--algebra", "quantum-plane", "--rationals", "y^95*x^95")
    assert proc.returncode == 2 and f"{limit} decimal digits" in proc.stderr
    proc = _cli("normalize", "--algebra", "quantum-plane", "--rationals", "y^94*x^95")
    assert proc.returncode == 0 and proc.stdout.startswith(str(3 ** (94 * 95)) + "*x^95*y^94")
    # the Weyl closed form at degree 1200 stays within the limit and answers
    proc = _cli("normalize", "--algebra", "weyl", "--rationals", "x^1200*t^1200")
    assert proc.returncode == 0 and not proc.stderr and proc.stdout.startswith("t^1200*x^1200 + ")


def test_weyl_degree_2000_answers_with_closed_form():
    # x^a t^a = sum_k k! C(a,k)^2 t^(a-k) x^(a-k); over F_7 k! = 0 from k = 7 on
    proc = _cli("normalize", "--algebra", "weyl", "--p", "7", "x^1000*t^1000")
    want = [(factorial(k) * comb(1000, k) ** 2 % 7, 1000 - k) for k in range(7)]
    assert proc.returncode == 0 and not proc.stderr
    assert proc.stdout == " + ".join(
        (f"{c}*" if c != 1 else "") + f"t^{e}*x^{e}" for c, e in want if c
    ) + "\n"


@pytest.mark.parametrize("algebra, expr", [
    ("weyl", "x^50000*t^50000"),
    ("quantum-plane", "y^50000*x^50000"),
])
def test_unbounded_closed_form_power_exit_2(algebra, expr):
    proc = _cli("normalize", "--algebra", algebra, "--rationals", expr, timeout=5)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("p", ["7", "1000003"])
def test_huge_weyl_power_over_fp_answers_or_exit_2(p):
    proc = _cli("normalize", "--algebra", "weyl", "--p", p, "x^50000*t^50000", timeout=5)
    assert proc.returncode in (0, 2)
    if proc.returncode == 0:
        assert proc.stdout.startswith("t^50000*x^50000 + ")
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_relation_power_answers_promptly(tmp_path):
    powered, literal = tmp_path / "powered.pres", tmp_path / "literal.pres"
    powered.write_text("ring Fp 7\nvars x y\nrel y x = x y + (1+1)^40\n")
    literal.write_text(f"ring Fp 7\nvars x y\nrel y x = x y + {2**40 % 7}\n")
    proc = _cli("check", "--file", str(powered))
    assert proc.returncode == 0 and proc.stdout == _cli("check", "--file", str(literal)).stdout


def test_huge_expression_power_exit_2():
    proc = _cli("normalize", "--algebra", "weyl", "--p", "7", "x^99999999")
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "weyl" in out and "manin" in out
    code, out, _ = run(capsys, "catalog", "show", "weyl", "--p", "7")
    assert code == 0 and "rel x t = 1 * t x + 1" in out


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "dispin", "--p", "7")
    assert code == 0 and "all checks passed" in out


def test_check_file(tmp_path, capsys):
    pres = tmp_path / "weyl.pres"
    pres.write_text("ring Fp 7\nvars t x\nrel x t = 1 * t x + 1\nbijective true\n")
    code, out, _ = run(capsys, "check", "--file", str(pres))
    assert code == 0
    code, out, _ = run(capsys, "normalize", "--file", str(pres), "x*t")
    assert out.strip() == "t*x + 1"


def test_check_samples_nothing(capsys):
    code, rep = run_json(capsys, "check", "--algebra", "manin", "--p", "7")
    assert code == 0 and rep["seed"] is None
    for flag in ("--samples", "--seed"):
        code, _, err = run(capsys, "check", "--algebra", "manin", "--p", "7", flag, "5")
        assert code == 2 and "unrecognized arguments" in err


def test_check_large_quotient_ring_answers_promptly(tmp_path):
    # F_101[x]/(x^6 + 1) has 101^6 elements: nothing may enumerate them
    pres = tmp_path / "quot.pres"
    pres.write_text("ring quot Fp 101 x^6+1\nvars y\nsigma y x -> 100*x\nbijective true\n")
    env = dict(os.environ, PYTHONPATH=str(Path(skewpbw.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "skewpbw.cli", "check", "--file", str(pres)],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr
    assert proc.returncode == 0 and "all checks passed" in proc.stdout


def test_check_rejects_inconsistent_relations(tmp_path, capsys):
    # sl2-like relations with one lower term corrupted: associativity fails
    pres = tmp_path / "broken.pres"
    pres.write_text(
        "ring Fp 7\nvars e f h\n"
        "rel f e = 1 * e f + 6*h\n"
        "rel h e = 1 * e h + 2*f\n"
        "rel h f = 1 * f h + 5*f\n"
    )
    code, out, _ = run(capsys, "check", "--file", str(pres))
    assert code == 1 and "presentation rejected" in out and "FAIL" in out


def test_complete_verify(tmp_path, capsys):
    P = build("polynomial-ring", p=5, n=1, names=["t"])
    U, Uinv = random_invertible(P, 3, 4, 1, seed=3)  # first row of U is not e1

    def write(path, M):
        lines = [f"{M.rows} {M.cols}"]
        lines += [str(M.entries[i][j]) for i in range(M.rows) for j in range(M.cols)]
        path.write_text("\n".join(lines) + "\n")

    fU, fUinv = tmp_path / "U.mat", tmp_path / "Uinv.mat"
    write(fU, Uinv)  # u * Uinv = e1 when u is the first row of U
    write(fUinv, U)
    pres = tmp_path / "polyt.pres"
    pres.write_text("ring Fp 5\nvars t\nbijective true\n")
    row = ",".join(str(e) for e in U.entries[0])
    code, out, _ = run(
        capsys, "complete", "verify", "--row", row, "--U", str(fU), "--Uinv", str(fUinv),
        "--file", str(pres),
    )
    assert code == 0 and "verified" in out
    # swapped arguments put the inverse on the wrong side: rejected with exit 1
    code, out, _ = run(
        capsys, "complete", "verify", "--row", row, "--U", str(fUinv), "--Uinv", str(fU),
        "--file", str(pres),
    )
    assert code == 1 and "rejected" in out


def test_reduce_stable(capsys):
    code, out, _ = run(
        capsys, "reduce-stable", "--column", "t,x,1", "--a", "1-t,-x", "--bound", "0",
        "--algebra", "weyl", "--p", "7",
    )
    assert code == 0 and "reducible" in out
    code, out, _ = run(
        capsys, "reduce-stable", "--column", "x^2,x+1,x", "--a-bound", "1", "--bound", "4",
        "--algebra", "polynomial-ring", "--p", "5", "--n", "1",
    )
    assert code == 0 and out.startswith("shifts:")


def test_suite_smoke(capsys):
    code, rep = run_json(capsys, "suite", "matrix", "--seed", "3")
    assert code == 0 and rep["ok"] and rep["data"]["suite"] == "matrix"


def test_suite_all_aggregates(capsys):
    code, rep = run_json(capsys, "suite", "all", "--trials", "10", "--seed", "3")
    assert code == 0 and rep["ok"]
    names = [c["name"] for c in rep["checks"]]
    assert any(n.startswith("pbw:") for n in names)
    assert any(n.startswith("lattice:") for n in names)
    assert any(n.startswith("kronecker:") for n in names)
    assert any(n.startswith("matrix:") for n in names)


def test_json_determinism(capsys):
    argv = ["zariski", "kronecker", "--backend", "fpt:5", "--us", "t^2,t^2",
            "--u", "t+1", "--bound", "3", "--seed", "9"]
    code1, rep1 = run_json(capsys, *argv)
    code2, rep2 = run_json(capsys, *argv)
    assert code1 == code2 == 0
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SKEWPBW_SEED", "777")
    _, rep = run_json(capsys, "suite", "matrix")
    assert rep["seed"] == 777
    _, rep = run_json(capsys, "suite", "matrix", "--seed", "5")
    assert rep["seed"] == 5  # explicit flag wins


def test_schema_file_matches_envelope(capsys):
    from importlib import resources

    schema = json.loads(resources.files("skewpbw").joinpath("report_schema.json").read_text())
    _, rep = run_json(capsys, "bound", "weyl", "--n", "1")
    assert set(schema["required"]) == set(rep)
