"""Command-line interface: golden outputs, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from grasschan import capacity, channels, cli, verify
from grasschan.cli import run_sweep
from grasschan.errors import ConsistencyError, DomainError

CLI = [sys.executable, "-m", "grasschan"]


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kwargs)


def test_capacity_quantum_golden_line():
    res = run_cli("capacity", "quantum", "--d", "2", "--r", "0", "--base", "2")
    assert res.returncode == 0
    assert res.stdout == "1.000000000000\n"


def test_capacity_ratio_golden_line():
    res = run_cli("capacity", "ratio", "--d", "2")
    assert res.returncode == 0
    assert res.stdout == "0.693147180560\n"


def test_capacity_zero_point_golden_line():
    res = run_cli("capacity", "quantum", "--d", "5", "--r", "0.7853981634", "--base", "d")
    assert res.returncode == 0
    assert res.stdout == "0.000000000000\n"


def test_capacity_classical_line():
    res = run_cli("capacity", "classical", "--d", "2", "--r", "0.5", "--base", "2")
    assert res.returncode == 0
    assert abs(float(res.stdout) - (1 - math.sin(0.5) ** 2)) < 1e-12


def test_capacity_json_schema():
    res = run_cli("capacity", "quantum", "--d", "3", "--r", "0.4", "--json")
    doc = json.loads(res.stdout)
    assert list(doc) == ["d", "r", "value", "base"]
    assert doc["d"] == 3 and doc["base"] == "d"


def test_capacity_unruh_json_reports_series_terms(capsys):
    args = ["capacity", "unruh", "--d", "3", "--z", "0.6", "--tol", "1e-10"]
    assert cli.main(args) == 0
    line = capsys.readouterr().out
    assert cli.main(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["d", "z", "value", "base", "terms", "remainder"]
    assert isinstance(doc["terms"], int) and doc["terms"] >= 1
    assert 0.0 <= doc["remainder"] < 1e-10
    assert line == f"{doc['value']:.12f}\n"


def test_capacity_unruh_large_dimension_in_process(capsys):
    assert cli.main(["capacity", "unruh", "--d", "1000", "--z", "0.9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"] < capacity.UNRUH_MAX_TERMS
    assert doc["remainder"] < 1e-12  # the default --tol
    assert abs(doc["value"] - 0.015237216093433) <= 2e-12  # mpmath


def test_capacity_domain_error_exit_code(capsys, tmp_path):
    res = run_cli("capacity", "quantum", "--d", "3", "--r", "1.5707963268")
    assert res.returncode == 1
    assert "error" in res.stderr
    # a nan tolerance is rejected up front instead of running the series to its cap
    res = run_cli("capacity", "unruh", "--d", "2", "--z", "0.5", "--tol", "nan", timeout=60)
    assert res.returncode == 1
    assert "tolerance" in res.stderr
    # verify rejects bad inputs instead of reporting a failed theory with NaN tokens
    for tol in ("nan", "0", "-1e-9", "inf"):
        assert cli.main(["verify", "--suite", "degradable", "--d", "2", f"--tol={tol}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "tolerance" in err
    # ... and a dimension below 1, which used to pass wolf-eisert with no reports
    for suite in ("wolf-eisert", "oracle-c"):
        assert cli.main(["verify", "--suite", suite, "--d", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "d=0" in err and err.count("\n") == 1
    assert cli.main(["verify", "--suite", "factorization", "--r", "nan"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert cli.main(["verify", "--suite", "factorization", "--r", "3.0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: squeezing parameter r=3.0 outside [0, pi/2)\n"
    out_path = str(tmp_path / "channel.json")
    assert cli.main(["dump-channel", "--d", "3", "--r", "nan", "--out", out_path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("suite", ["ppt", "wolf-eisert", "werner-holevo", "rate", "all"])
def test_verify_rejects_an_r_outside_the_domain_at_every_suite(suite, capsys):
    # suites that never read r took any finite r and printed it in their params
    for r in ("2.0", "-0.1", "1.5707963267948966", "nan"):
        assert cli.main(["verify", "--suite", suite, "--d", "2", f"--r={r}"]) == 1
        assert capsys.readouterr() == (
            "", f"error: squeezing parameter r={float(r)} outside [0, pi/2)\n"
        )


@pytest.mark.parametrize("kind, param", [("quantum", "--r=0.3"), ("quantum", "--w=0.5"),
                                         ("classical", "--r=0.3"), ("unruh", "--z=0.5"),
                                         ("unruh-approx", "--z=0.5"), ("ratio", None)])
def test_capacity_rejects_a_bad_tolerance_at_every_kind(kind, param, capsys):
    # only unruh read --tol; the other kinds ignored a nan or negative one
    for tol in ("nan", "-1", "0", "inf"):
        argv = ["capacity", kind, "--d", "3", f"--tol={tol}", *([param] if param else [])]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: tolerance must be positive and finite, got {float(tol)}\n"
        )


def test_channel_dimension_is_checked_before_the_kraus_stack_is_allocated(capsys, tmp_path):
    # the (2^d - 1)^2 d stack came first: 320 TiB at d = 20, a negative shift count at d = -2,
    # and more elements than numpy allows under verify at d = 100
    out_path = tmp_path / "channel.json"
    capped = "error: explicit channel construction is capped at d=8\n"
    for argv, message in (
        (["dump-channel", "--d", "20", "--r", "0.3", "--out", str(out_path)], capped),
        (["dump-channel", "--d", "-2", "--r", "0.3", "--out", str(out_path)],
         "error: need d >= 1, got d=-2\n"),
        (["verify", "--suite", "all", "--d", "100"], capped),
    ):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", message)
    assert not out_path.exists()


def test_verify_reports_a_non_finite_value_as_an_error(monkeypatch, capsys):
    # the report is dumped as strict JSON: a nan or inf becomes an error line, not bad JSON
    def non_finite(*args):
        return [verify.VerificationReport("degradable", {"d": 2}, True, math.nan)]

    monkeypatch.setattr(verify, "suite_reports", non_finite)
    assert cli.main(["verify", "--suite", "degradable", "--d", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_arithmetic_error_exit_code(monkeypatch, capsys, tmp_path):
    def disagree(*args):
        raise ConsistencyError("forms disagree")

    monkeypatch.setattr(capacity, "quantum_capacity_grassmann", disagree)
    assert cli.main(["capacity", "quantum", "--d", "3", "--r", "0.4"]) == 1
    err = capsys.readouterr().err
    assert err == "error: forms disagree\n"

    def too_big(*args):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "run_sweep", too_big)
    argv = ["sweep", "--family", "grassmann-q", "--d", "3", "--points", "100000000000"]
    assert cli.main(argv + ["--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 745. GiB\n"


def test_capacity_missing_parameter_exit_code(capsys):
    res = run_cli("capacity", "quantum", "--d", "3")
    assert res.returncode == 1  # runtime-detected missing --r
    # a kind's own parameter is required; another kind's does not stand in for it
    for kind, flag, other in (("quantum", "r", "--z"), ("classical", "r", "--w"),
                              ("unruh", "z", "--r"), ("unruh-approx", "z", "--w")):
        assert cli.main(["capacity", kind, "--d", "3", other, "0.5"]) == 1
        assert capsys.readouterr() == ("", f"error: {kind} capacity needs --{flag}\n")
    # --w wins over --r for the quantum capacity
    assert cli.main(["capacity", "quantum", "--d", "3", "--r", "0.4", "--w", "0.25", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["d", "w", "value", "base"]
    assert doc["value"] == capacity.quantum_capacity_grassmann_w(3, 0.25)


def test_usage_errors_exit_code_two():
    assert run_cli("capacity", "quantum", "--d", "x").returncode == 2
    assert run_cli("verify", "--suite", "nonsense").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("capacity", "sideways", "--d", "2").returncode == 2


def _sweep(out, *extra):
    return run_cli(
        "sweep",
        "--family",
        "grassmann-q",
        "--d",
        "2,3",
        "--param",
        "r",
        "--start",
        "0",
        "--stop",
        "1.2",
        "--points",
        "7",
        "--base",
        "d",
        "--out",
        str(out),
        *extra,
    )


def test_sweep_rows_and_determinism(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _sweep(first).returncode == 0
    assert _sweep(second).returncode == 0
    data = first.read_bytes()
    assert data == second.read_bytes()
    lines = data.decode().strip().split("\n")
    assert lines[0] == "family,d,param_name,param,base,value"
    assert len(lines) == 1 + 2 * 7
    assert lines[1] == "grassmann-q,2,r,0.000000000000,d,1.000000000000"
    ds = [int(line.split(",")[1]) for line in lines[1:]]
    assert ds == sorted(ds)


def test_sweep_domain_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    bad_grid = run_cli(
        "sweep", "--family", "grassmann-q", "--d", "2", "--param", "r",
        "--start", "1.0", "--stop", "0.5", "--points", "5", "--out", out,
    )
    assert bad_grid.returncode == 1
    bad_stop = run_cli(
        "sweep", "--family", "grassmann-q", "--d", "2", "--param", "r",
        "--start", "0", "--stop", "1.5707963268", "--points", "5", "--out", out,
    )
    assert bad_stop.returncode == 1
    bad_points = run_cli(
        "sweep", "--family", "grassmann-q", "--d", "2", "--param", "r",
        "--start", "0", "--stop", "1.0", "--points", "1", "--out", out,
    )
    assert bad_points.returncode == 1
    repeated_grid = run_cli(  # 5e-324 / 2 rounds to 0.0, so the grid repeats 0.0
        "sweep", "--family", "grassmann-q", "--d", "2", "--param", "r",
        "--start", "0", "--stop", "5e-324", "--points", "3", "--out", out,
    )
    assert repeated_grid.returncode == 1
    assert "strictly increasing" in repeated_grid.stderr


def test_run_sweep_invariants(monkeypatch):
    sweep = ("grassmann-q", [2], "r", 0.0, 0.5, 2, "d")
    assert len(run_sweep(*sweep)) == 3
    with pytest.raises(DomainError):  # the grid 0, 0, 5e-324 repeats 0.0
        run_sweep("grassmann-q", [2], "r", 0.0, 5e-324, 3, "d")
    for family, param in (("grassmann-c", "w"), ("unruh-q", "r"), ("grassmann-q", "z")):
        with pytest.raises(DomainError, match=f"{family} does not sweep over '{param}'"):
            run_sweep(family, [2], param, 0.0, 0.5, 3, "d")
    monkeypatch.setattr(capacity, "quantum_capacity_grassmann", lambda *args: math.nan)
    with pytest.raises(DomainError):
        run_sweep(*sweep)


@pytest.mark.parametrize("base", ["d", "2"])
@pytest.mark.parametrize(
    "family, param, stop, kind",
    [
        ("grassmann-q", "r", 1.2, "quantum"),
        ("grassmann-q", "w", 1.0, "quantum"),
        ("grassmann-c", "r", 1.2, "classical"),
        ("unruh-q", "z", 0.9, "unruh"),
        ("ratio", "d", None, "ratio"),
    ],
)
def test_capacity_one_shot_prints_its_sweep_row(capsys, family, param, stop, kind, base):
    if family == "ratio":
        rows, grid = run_sweep(family, [2, 7, 1000], "r", 0.0, 0.0, 0, base), [None]
    else:
        rows = run_sweep(family, [2, 5, 1000], param, 0.0, stop, 3, base)
        grid = [i * stop / 2 for i in range(3)]  # the sweep's grid, float for float
    assert len(rows) == 1 + 3 * len(grid)
    for i, row in enumerate(rows[1:]):  # rows run over the grid within each d
        _, d, name, x, row_base, value = row.split(",")
        arg = grid[i % len(grid)]
        argv = ["capacity", kind, "--d", d, "--base", base]
        if arg is not None:
            assert x == f"{arg:.12f}"
            argv += [f"--{param}", repr(arg)]
        assert (name, row_base) == (param, base)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == value + "\n"


def test_sweep_ratio_family(tmp_path):
    out = tmp_path / "ratio.csv"
    res = run_cli("sweep", "--family", "ratio", "--d", "5,2,3", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[1].startswith("ratio,2,d,2.000000000000,")
    assert abs(float(lines[1].split(",")[-1]) - math.log(2)) < 1e-12


def test_verify_suite_exit_codes():
    res = run_cli("verify", "--suite", "factorization", "--d", "3", "--r", "0.5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["pass"] is True
    assert doc["reports"][0]["check"] == "factorization"


def test_verify_degradable_expected_failure_passes():
    res = run_cli("verify", "--suite", "degradable", "--d", "2", "--r", "1.2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["pass"] is True
    assert doc["reports"][0]["trials"][0]["cp_ok"] is False


def test_verify_degradable_passes_near_pi_over_2():
    # r = 1.56 is inside [0, pi/2), though q grows like tan^6 r there
    res = run_cli("verify", "--suite", "degradable", "--d", "4", "--r", "1.56")
    assert res.returncode == 0
    (report,) = json.loads(res.stdout)["reports"]
    assert report["pass"] is True and report["trials"][0]["solve_residual"] <= 1e-12
    # at the last float below pi/2 the d = 6 least Choi eigenvalue passes the float range;
    # it is printed clamped, and the output stays strict JSON
    last = repr(math.nextafter(math.pi / 2, 0.0))
    res = run_cli("verify", "--suite", "degradable", "--d", "6", "--r", last)
    assert res.returncode == 0, res.stderr

    def refuse(name):
        raise ValueError(f"non-finite {name} in verify output")

    (report,) = json.loads(res.stdout, parse_constant=refuse)["reports"]
    assert report["pass"] is True and report["trials"][0]["choi_min_eig"] == -sys.float_info.max


def test_verify_covariance_suite():
    res = run_cli("verify", "--suite", "covariance", "--d", "3", "--r", "0.5", "--seed", "7")
    assert res.returncode == 0


def test_verify_all_suite_reference_point():
    res = run_cli("verify", "--suite", "all", "--d", "3", "--r", "0.5", "--seed", "7")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["pass"] is True
    checks = [rep["check"] for rep in doc["reports"]]
    for expected in (
        "degradable",
        "covariance",
        "complementary-spectra",
        "wolf-eisert",
        "werner-holevo",
        "factorization",
        "oracle-q",
        "oracle-c",
        "ppt",
        "approximation-rate",
    ):
        assert expected in checks


def test_capacity_w_parametrization():
    res = run_cli("capacity", "quantum", "--d", "3", "--w", "1.0")
    assert res.returncode == 0
    assert res.stdout == "0.000000000000\n"
    res = run_cli("capacity", "quantum", "--d", "2", "--w", "0.25", "--base", "2")
    assert abs(float(res.stdout) - 0.6) < 1e-12  # (1-w)/(1+w)


def test_capacity_unruh_approx_cli():
    res = run_cli("capacity", "unruh-approx", "--d", "2", "--z", "0.5")
    assert res.returncode == 0
    assert abs(float(res.stdout) - 0.75 / (2 * math.log(2))) < 1e-12
    res = run_cli("capacity", "unruh-approx", "--d", "1", "--z", "0.5")
    assert res.returncode == 0
    assert res.stdout == "0.000000000000\n"


def test_verify_suite_respects_dimension_caps(capsys):
    # requesting a capped check beyond its cap is a runtime error ...
    res = run_cli("verify", "--suite", "oracle-c", "--d", "9", "--r", "0.3")
    assert res.returncode == 1
    res = run_cli("verify", "--suite", "degradable", "--d", "9", "--r", "0.3")
    assert res.returncode == 1
    assert res.stdout == "" and res.stderr == "error: explicit channel construction is capped at d=8\n"
    # ... while the aggregate suite skips it and still runs the rest
    res = run_cli("verify", "--suite", "covariance", "--d", "5", "--r", "0.3")
    assert res.returncode == 0
    # the rate check floors d at 2, as ppt does: at d=1 the Unruh gap vanishes
    res = run_cli("verify", "--suite", "rate", "--d", "1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["reports"][0]["params"]["d"] == 2
    # and has no upper cap: the series costs little at any dimension
    assert cli.main(["verify", "--suite", "rate", "--d", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] and doc["reports"][0]["params"]["d"] == 7


def test_ppt_suite_is_capped_like_the_other_channel_suites(capsys):
    with pytest.raises(DomainError, match="capped at d=8"):
        verify.check_ppt_threshold(9)
    # the oracles read the same cap as the channel builders, with their message
    for suite in ("ppt", "oracle-q", "oracle-c"):
        assert cli.main(["verify", "--suite", suite, "--d", "9"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: explicit channel construction is capped at d=8\n"


_SCIPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import grasschan
from grasschan import cli

assert "scipy" not in sys.modules, "import grasschan"
for name in ("channels", "fock", "verify"):
    assert f"grasschan.{name}" not in sys.modules, "import grasschan"
out = sys.argv[1]
for args in (
    ["capacity", "quantum", "--d", "10", "--r", "0.5"],
    ["capacity", "unruh", "--d", "3", "--z", "0.6", "--json"],
    ["sweep", "--family", "grassmann-q", "--d", "2,3", "--param", "r", "--start", "0",
     "--stop", "1.2", "--points", "4", "--out", out + "/sweep.csv"],
    ["dump-channel", "--d", "4", "--r", "0.5", "--out", out + "/d4.json"],
    ["verify", "--suite", "rate"],
    ["verify", "--suite", "oracle-q", "--d", "2"],
    ["verify", "--suite", "oracle-c", "--d", "2"],
    ["verify", "--suite", "all", "--d", "2", "--r", "0.55", "--seed", "7"],
):
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert cli.main(args) == 0, args
    assert "scipy" not in sys.modules, args
    # nor numpy.ma, which np.unique imports on first use
    assert "numpy.ma" not in sys.modules, args
    # capacity, sweep and dump-channel never load verify; the verify command does
    assert ("grasschan.verify" in sys.modules) == (args[0] == "verify"), args
assert grasschan.verify is sys.modules["grasschan.verify"]
assert json.loads(report.getvalue())["pass"] is True
"""


def test_no_command_loads_scipy(tmp_path):
    # one fresh interpreter: the package import and every command, the
    # capacity oracles included, run on numpy alone, and only the verify
    # command imports grasschan.verify
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_SCRIPT, str(tmp_path)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr


_LAZY_IMPORT_SCRIPT = """
import contextlib, io, sys
import numpy, argparse

baseline = set(sys.modules)  # a numpy that imports json itself does not count against a command
import grasschan
from grasschan import cli

out = sys.argv[1]
never = {"grasschan.channels", "grasschan.fock", "grasschan.verify", "json", "dataclasses"}
never -= baseline
sweep = ["--start", "0", "--stop", "0.9", "--points", "3", "--out", out + "/sweep.csv"]
for args in (
    ["capacity", "quantum", "--d", "4", "--r", "0.4"],
    ["capacity", "quantum", "--d", "4", "--w", "0.5"],
    ["capacity", "classical", "--d", "4", "--r", "0.4"],
    ["capacity", "unruh", "--d", "4", "--z", "0.5"],
    ["capacity", "unruh-approx", "--d", "4", "--z", "0.5"],
    ["capacity", "ratio", "--d", "4"],
    ["sweep", "--family", "grassmann-q", "--d", "2,3", "--param", "r", *sweep],
    ["sweep", "--family", "grassmann-q", "--d", "2,3", "--param", "w", *sweep],
    ["sweep", "--family", "grassmann-c", "--d", "2,3", "--param", "r", *sweep],
    ["sweep", "--family", "unruh-q", "--d", "2,3", "--param", "z", *sweep],
    ["sweep", "--family", "ratio", "--d", "2,3", "--out", out + "/ratio.csv"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0, args
    assert not never & set(sys.modules), (args, sorted(never & set(sys.modules)))

# the lazy names resolve to their own modules, on first access and through the commands;
# dump-channel builds its Kraus set without the ladder operators of grasschan.fock
assert "grasschan.channels" not in sys.modules
assert cli.main(["dump-channel", "--d", "2", "--r", "0.5", "--out", out + "/d2.json"]) == 0
assert grasschan.channels is sys.modules["grasschan.channels"], grasschan.channels
assert "grasschan.fock" not in sys.modules
assert grasschan.fock is sys.modules["grasschan.fock"], grasschan.fock
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "all", "--d", "2"]) == 0
assert grasschan.verify is sys.modules["grasschan.verify"], grasschan.verify
try:
    grasschan.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("grasschan.no_such_name resolved")
"""


def test_capacity_and_sweep_load_only_what_they_run(tmp_path):
    # one fresh interpreter: no closed form needs the channel builders, the Fock
    # isometry, verify, json or dataclasses; dump-channel and verify load theirs on use
    res = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT_SCRIPT, str(tmp_path)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr


def test_dump_channel_roundtrip(tmp_path):
    out = tmp_path / "d2.json"
    res = run_cli("dump-channel", "--d", "2", "--r", "0.5", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["out_dim"] == 3 and doc["family"] == "grassmann"
    nonzero = sum(1 for op in doc["kraus"] for re, im in op if re * re + im * im > 1e-30)
    assert nonzero == 4
    loaded = channels.load_channel_json(out)
    rebuilt = channels.grassmann_channel(2, 0.5)
    gap = np.linalg.norm(channels.choi_matrix(loaded) - channels.choi_matrix(rebuilt))
    assert gap < 1e-12


def test_dump_channel_d1_blocks(tmp_path):
    out = tmp_path / "d1.json"
    assert run_cli("dump-channel", "--d", "1", "--r", "0.9", "--out", str(out)).returncode == 0
    doc = json.loads(out.read_text())
    assert doc["blocks"] == [{"k": 1, "weight": 1.0, "dim": 1}]


def test_dump_channel_bad_path():
    res = run_cli("dump-channel", "--d", "2", "--r", "0.5", "--out", "/nonexistent/dir/x.json")
    assert res.returncode == 1
