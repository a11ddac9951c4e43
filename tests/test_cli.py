"""Command-line interface: tables, formats, exit codes, determinism."""

import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltabox import cli, observables, oracle, spectrum, wavefn
from deltabox.errors import DomainError
from deltabox.fourier import coeffs_general, coeffs_limit, partial_sum
from deltabox.lattice import POINT_BUDGET
from deltabox.model import RationalX0, make_setup, nu_n, phi_mode
from deltabox.observables import amplitude_extrema, expectation_grid, prob_ratio_at_mode, ratio_grid
from deltabox.wavefn import limit_state, rho

from _examples import examples

OVER_1 = "16.755160819145562"  # first one-sided point of the right compartment
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def ratio_at(setup, nu):
    return next(ratio_grid(setup, (nu,)))[1]


def mean_at(setup, nu):
    return next(expectation_grid(setup, (nu,), skip_one_sided=False))[1]


# ======================================================================
# Formats and output targets
# ======================================================================


def test_csv_and_json_agree(capsys):
    code_csv, out_csv = run_cli(
        capsys, "spectrum", "--alpha", "5.0", "--count", "4"
    )
    code_json, out_json = run_cli(
        capsys, "spectrum", "--alpha", "5.0", "--count", "4", "--format", "json"
    )
    assert code_csv == code_json == 0
    table = parse_csv(out_csv)
    payload = json.loads(out_json)
    assert payload["columns"] == ["index", "nu", "energy", "is_mode"]
    assert len(payload["rows"]) == len(table) == 4
    for csv_row, json_row in zip(table, payload["rows"]):
        assert float(csv_row["nu"]) == json_row["nu"]
        assert float(csv_row["energy"]) == json_row["energy"]


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, piped = run_cli(capsys, "partition", "--nu-max", "40.0")
    assert code == 0
    code, silent = run_cli(
        capsys, "partition", "--nu-max", "40.0", "--output", str(target)
    )
    assert code == 0
    assert silent == ""
    assert target.read_text(encoding="utf-8") == piped


def test_output_is_deterministic(capsys):
    args = ("oracle", "--alpha", "0.0", "--grid", "511", "--count", "3")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second and first


# ======================================================================
# One parser per process
# ======================================================================

# Different subcommands in turn; the last repeats the first, after a call
# that set --nu-mode and --format, so a leaked default would show there.
PARSE_SEQUENCE = [
    ["ratio", "--nu", "3.3"],
    ["wavefunction", "--limit", "under", "--k", "2", "--side", "above", "--points", "5"],
    ["fourier", "--nu", "7.3", "--M", "64", "--sum-points", "9"],
    ["spectrum", "--alpha", "5.0", "--count", "4"],
    ["ratio", "--nu-mode", "3", "--format", "json"],
    ["ratio", "--nu", "3.3"],
]


def test_one_parser_parses_like_fresh_parsers():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    for argv in PARSE_SEQUENCE:
        fresh = cli._build_parser.__wrapped__()
        assert parser.parse_args(argv) == fresh.parse_args(argv), argv


def test_a_named_command_parses_once_like_the_top_level_parse(capsys, monkeypatch):
    """argv naming a command is read by that command's subparser alone, into
    the namespace the top-level parse gives; every other argv (no command,
    -h, an unknown command, leftover arguments) takes the top-level parse,
    with its messages and exit codes."""
    parser = cli._build_parser()
    for argv in PARSE_SEQUENCE:
        assert cli._parse(parser, list(argv)) == parser.parse_args(argv), argv
    for argv in ([], ["-h"], ["no-such-command"], ["ratio", "--nu", "3", "x"], ["ratio", "--bogus"]):
        with pytest.raises(SystemExit) as once:
            cli._parse(parser, argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as top:
            parser.parse_args(argv)
        assert (once.value.code, printed) == (top.value.code, capsys.readouterr()), argv
    assert "deltabox: error: unrecognized arguments: --bogus" in printed.err

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(parser, "parse_args", refuse)
    assert cli._parse(parser, ["ratio", "--nu", "3.3"]).command == "ratio"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_readme_commands_in_one_process_match_fresh_parsers(capsys, fmt):
    """Every README command, run in order in one process, prints the bytes
    and exit code of a run with a freshly built parser."""
    text = README.read_text(encoding="utf-8")
    argvs = [shlex.split(line)[1:] + ["--format", fmt]
             for line in text.splitlines() if line.startswith("deltabox ")]
    assert argvs
    cli._build_parser.cache_clear()
    one_parser = [run_cli(capsys, *argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert one_parser == fresh


# ======================================================================
# Exit codes
# ======================================================================


def test_malformed_site_exits_2(capsys):
    code = cli.main(["partition", "--x0", "rational:5"])
    capsys.readouterr()
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code = cli.main(["no-such-command"])
    capsys.readouterr()
    assert code == 2


def test_shared_lattice_expansion_exits_3(capsys):
    # k = 5 sits on the shared lattice for this site, so the one-sided
    # expansion is refused.
    code = cli.main(["fourier", "--limit", "under", "--k", "5", "--M", "16"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


def test_off_grid_oracle_exits_3(capsys):
    code = cli.main(["oracle", "--alpha", "0.0", "--grid", "2046"])
    err = capsys.readouterr().err
    assert code == 3
    assert "multiple of 8" in err


NEAR_TWIN = ("--alpha", "1000", "--count", "9", "--x0", "real:0.12500000000000003")


def test_near_twin_site_spectrum_exits_0(capsys):
    """One ulp off 1/4, the shared point 16 pi of 1/4 splits into an under
    and an over point 7e-15 apart.  The interval between them is solved, not
    refused as degenerate, and its level 8 lies between the two."""
    code, out = run_cli(capsys, "spectrum", *NEAR_TWIN)
    assert code == 0
    level_8 = out.splitlines()[8].split(",")
    assert level_8[0] == "8"
    assert 50.26548245743668 <= float(level_8[1]) <= 50.26548245743669


def test_near_twin_site_oracle_exits_3(capsys):
    """The oracle places the site by its exact fraction, whose denominator
    no grid of 1023 nodes divides: a grid mismatch, not a snap onto the node
    of 1/4."""
    code = cli.main(["oracle", "--grid", "1023", *NEAR_TWIN])
    err = capsys.readouterr().err
    assert code == 3
    assert "choose a grid with the site on a node" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(("partition", "--nu-max", "1e9"), "nu_max = 1000000000.0", id="partition"),
        # About 1.9e7 points, several GB, were the budget not checked first.
        pytest.param(
            ("partition", "--nu-max", "1.2e8"), "nu_max = 120000000.0", id="partition-1.2e8"
        ),
        pytest.param(
            ("spectrum", "--alpha", "5", "--count", "100000000"), "count = 100000000", id="spectrum"
        ),
        pytest.param(
            ("sweep", "--interval", "2", "--nu-max", "1e9"), "nu_max = 1000000000.0", id="sweep"
        ),
    ],
)
def test_lattice_beyond_the_point_budget_exits_3(capsys, argv, named):
    """The budget is checked before any point is built, so this is quick.

    The message names the option the user passed: --count for spectrum.
    """
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code == 3
    assert "budget" in err
    assert named in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("ratio", "--nu-min", "0", "--nu-max", "1", "--points"), "--points"),
        (("expectation", "--nu-min", "0", "--nu-max", "1", "--points"), "--points"),
        (("wavefunction", "--nu", "5", "--points"), "--points"),
        (("limit", "--kind", "over", "--l", "1", "--points"), "--points"),
        (("fourier", "--nu", "5", "--M", "8", "--sum-points"), "--sum-points"),
        (("sweep", "--interval", "2", "--samples"), "--samples"),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else value,
)
def test_grid_beyond_the_point_budget_exits_3(capsys, argv, option):
    """A grid of 10**8 rows would take several GB; it is refused before it is built."""
    code = cli.main([*argv, "100000000"])
    err = capsys.readouterr().err
    assert code == 3
    assert f"{option} = 100000000 is beyond the grid budget" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("fourier", "--nu", "5", "--M"), "truncation order M"),
        (("oracle", "--alpha", "0", "--x0", "rational:0/1", "--grid"), "grid size N (--grid)"),
        (("amplitude", "--n-max"), "--n-max"),
    ],
    ids=["fourier", "oracle", "amplitude"],
)
def test_size_beyond_the_point_budget_exits_3(capsys, argv, named):
    """A truncation order, grid size or mode count one past the budget is
    refused before any list of that size is built."""
    code = cli.main([*argv, str(POINT_BUDGET + 1)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"{named} = {POINT_BUDGET + 1} is beyond the budget of 1e+06" in captured.err


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "out.csv"
    code = cli.main(["ratio", "--nu", "3.3", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(target) in captured.err


def test_one_sided_point_expectation_exits_4(capsys):
    code = cli.main(["expectation", "--nu", OVER_1])
    err = capsys.readouterr().err
    assert code == 4
    assert "lattice point" in err


def test_oracle_residual_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_twisted_vector", lambda d, e, sigma, tiny: [1.0] * len(d))
    code = cli.main(["oracle", "--alpha", "0.0", "--grid", "511", "--count", "3"])
    assert code == 4
    assert "residual" in capsys.readouterr().err


def test_deep_evanescent_fourier_exits_0(capsys):
    code, out = run_cli(capsys, "fourier", "--nu=-1e300", "--M", "3")
    assert code == 0
    rows = parse_csv(out)
    assert [row["m"] for row in rows] == ["1", "2", "3"]
    assert all(0 < abs(float(row["a_m"])) < 1e-149 for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ("wavefunction", "--nu", "5", "--points"),
        ("limit", "--kind", "over", "--l", "1", "--points"),
        ("ratio", "--nu-min", "1", "--nu-max", "2", "--points"),
        ("expectation", "--nu-min", "1", "--nu-max", "2", "--points"),
        ("fourier", "--nu", "5", "--M", "8", "--sum-points"),
        ("sweep", "--interval", "2", "--samples"),
        ("spectrum", "--alpha", "5", "--count"),
        ("amplitude", "--n-max"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("size", ["0", "-3"])
def test_empty_grid_exits_2(capsys, argv, size):
    code = cli.main([*argv, size])
    assert code == 2
    assert "at least one point" in capsys.readouterr().err


def test_sweep_of_one_sample_exits_2(capsys):
    """A sweep needs two samples; one is an argument error, like zero."""
    code = cli.main(["sweep", "--interval", "2", "--samples", "1"])
    assert code == 2
    assert "at least two samples" in capsys.readouterr().err


def test_spectrum_newton_out_of_steps_exits_4(capsys, monkeypatch):
    """A dispersion whose Newton steps creep by 1e-9 exhausts the 200-step
    budget of solve_nu; that is a convergence failure, not a silent midpoint."""
    monkeypatch.setattr(spectrum, "_value_and_derivative", lambda setup, nu: (-1.0, 1e10))
    code = cli.main(["spectrum", "--alpha", "5", "--count", "3"])
    assert code == 4
    assert "after 200 steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, nu",
    [
        # The deep bound state of alpha = -1e300 has nu = -1e300.
        (("--alpha=-1e300",), "-1e+300"),
        # A finite (nu/2)**2 whose product with c exceeds float range.
        (("--alpha", "1", "--c", "1e308"), "6.28"),
        # 1.5 alpha/c overflows: the leftmost bracket starts at the most
        # negative float, so the root is finite and named.
        (("--alpha=-1.7e308",), "-1.7e+308"),
    ],
)
def test_spectrum_energy_overflow_names_the_level_exits_4(capsys, argv, nu):
    """An energy c (nu/2)**2 beyond float range is a numerical failure whose
    message names the level and nu, never an inf in the table."""
    code = cli.main(["spectrum", *argv, "--count", "3"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: level 1: energy")
    assert f"exceeds float range at nu = {nu}" in captured.err


@pytest.mark.parametrize(
    "argv, quantity",
    [
        # L**2/4 - x0**2 underflows to 0 in the dispersion's nu -> 0 limit.
        (("sweep", "--interval", "0", "--samples", "4", "--L", "1e-300"), "L**2/4 - x0**2"),
        # dx**2 underflows to 0 in the grid Hamiltonian.
        (("oracle", "--alpha", "0", "--grid", "1023", "--count", "4", "--L", "1e-300"), "dx**2"),
    ],
    ids=["sweep", "oracle"],
)
def test_division_by_an_underflowed_length_exits_4(capsys, argv, quantity):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"{quantity} underflows to 0 at L = 1e-300" in captured.err


@pytest.mark.parametrize(
    "argv, quotient",
    [
        # alpha / c = -2e308 in the coupling equation.
        (("spectrum", "--alpha=-1e308", "--c", "0.5", "--count", "2"), "alpha/c"),
        # alpha / dx = -1.024e311 on the grid Hamiltonian's diagonal.
        (("oracle", "--alpha=-1e308", "--c", "0.5", "--grid", "1023", "--count", "1"), "alpha/dx"),
    ],
    ids=["spectrum", "oracle"],
)
def test_coupling_quotient_beyond_float_range_exits_4(capsys, argv, quotient):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith(f"error: {quotient} exceeds float range at alpha (--alpha) = -1e+308")
    assert ("c (--c) = 0.5" if quotient == "alpha/c" else "dx = 0.0009765625") in captured.err


def test_oracle_level_beyond_half_the_float_range_exits_4_on_its_energy(capsys):
    """The oracle's midpoints no longer overflow, so it solves the level near
    -1.024e308 (it used to fail with a nan residual at -inf); the analytic
    energy c (nu/2)**2 of the same level is beyond float range, exit 4."""
    code = cli.main(["oracle", "--alpha=-1e305", "--c", "0.5", "--grid", "1023", "--count", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "energy c (nu/2)**2 exceeds float range at nu = -2e+305" in captured.err
    assert "residual" not in captured.err


def test_spectrum_deep_bound_state_is_the_converged_newton_root(capsys):
    """At alpha = -1e8 the bound state's nu is -1e8 to rounding; bisecting on
    past a converged Newton step would print -100000000.00000285."""
    assert cli.main(["spectrum", "--alpha=-1e8", "--count", "1"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1][1] == "-100000000.0"


def test_oracle_isolates_levels_across_a_wide_gershgorin_bracket(capsys):
    """At alpha = -1e100 the Gershgorin bracket spans about 1e103, and
    isolating level 2 takes about 340 halvings, which the pass budget
    derived from that bracket allows."""
    assert cli.main(["oracle", "--alpha=-1e100", "--grid", "1023", "--count", "3"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]


def test_oracle_out_of_sturm_passes_exits_4(capsys, monkeypatch):
    """An eigenvalue that exhausts the oracle's Sturm passes, count-only and
    full together, is a convergence failure.  The budget is twice the 54
    halvings of the Gershgorin width down to the spacing of doubles at its
    bounds, plus `_NEWTON_PASSES`: at -98 that is 10 passes, and level 1
    takes 20."""
    monkeypatch.setattr(oracle, "_NEWTON_PASSES", 10 - 2 * 54)
    code = cli.main(["oracle", "--alpha", "-1000", "--grid", "511", "--count", "1"])
    assert code == 4
    assert "eigenvalue 1 did not converge in 10 Sturm passes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "--nu-max"),
        ("spectrum", "--alpha"),
        ("sweep", "--interval", "2", "--nu-max"),
        ("wavefunction", "--nu"),
        ("limit", "--kind", "hat", "--nu"),
        ("fourier", "--M", "8", "--nu"),
        ("ratio", "--nu"),
        ("ratio", "--nu-min", "1", "--nu-max"),
        ("expectation", "--nu"),
        ("oracle", "--alpha"),
    ],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_wave_number_or_coupling_exits_2(capsys, argv, value):
    code = cli.main([*argv[:-1], f"{argv[-1]}={value}"])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_one_point_grid_is_the_lower_end(capsys):
    code, out = run_cli(capsys, "fourier", "--nu", "5", "--M", "8", "--sum-points", "1")
    assert code == 0
    assert [float(row["x"]) for row in parse_csv(out)] == [-0.5]
    with pytest.raises(DomainError):
        cli._linspace(-0.5, 0.5, 0)


@pytest.mark.parametrize("cmd", ["ratio", "expectation"])
@pytest.mark.parametrize("points", [2, 5])
@pytest.mark.parametrize("ends", [("-1e308", "1e308"), ("1e308", "-1e308")], ids=["up", "down"])
def test_grid_whose_span_overflows_prints_finite_rows(capsys, cmd, points, ends):
    """hi - lo overflows to inf: the grid still runs from end to end in
    finite, monotone steps, and every row is printed."""
    lo, hi = ends
    code, out = run_cli(capsys, cmd, f"--nu-min={lo}", f"--nu-max={hi}", "--points", str(points))
    assert code == 0
    assert "nan" not in out and "inf" not in out
    nus = [float(row["nu"]) for row in parse_csv(out)]
    grid = cli._linspace(float(lo), float(hi), points)
    assert grid[0] == float(lo) and grid[-1] == float(hi)
    assert all(math.isfinite(nu) for nu in grid)
    assert grid == sorted(grid, reverse=float(lo) > float(hi))
    if cmd == "ratio":
        assert nus == grid
    else:  # one-sided rows are left out
        assert set(nus) <= set(grid) and -1e308 in nus


def test_grid_whose_span_is_finite_keeps_its_steps():
    """Only an overflowing span is weighed: elsewhere the points are lo + i
    step, so a -0.0 lower end prints as 0.0."""
    assert cli._linspace(-0.0, 1.0, 3) == [0.0, 0.5, 1.0]
    assert math.copysign(1.0, cli._linspace(-0.0, 1.0, 3)[0]) == 1.0
    assert cli._linspace(-1e308, 7e307, 3) == [-1e308 + i * ((7e307 + 1e308) / 2) for i in range(2)] + [7e307]


def test_missing_nu_exits_3(capsys):
    code = cli.main(["wavefunction"])
    capsys.readouterr()
    assert code == 3


# ======================================================================
# Partition and spectrum tables
# ======================================================================


def test_partition_table_lists_shared_point(capsys):
    code, out = run_cli(capsys, "partition", "--nu-max", "60.0")
    assert code == 0
    rows = parse_csv(out)
    points = [r for r in rows if r["record"] == "point"]
    both = [r for r in points if r["kind"] == "both"]
    assert len(both) == 1
    assert float(both[0]["nu"]) == pytest.approx(16 * math.pi, rel=1e-14)
    assert (both[0]["k"], both[0]["l"]) == ("5", "3")
    intervals = [r for r in rows if r["record"] == "interval"]
    indices = [int(r["index"]) for r in intervals]
    assert indices == sorted(indices)
    assert intervals[0]["case_tag"] == "G"


def test_spectrum_table_monotone_with_mode_flag(capsys):
    code, out = run_cli(capsys, "spectrum", "--alpha", "5.0", "--count", "8")
    assert code == 0
    rows = parse_csv(out)
    energies = [float(r["energy"]) for r in rows]
    assert energies == sorted(energies)
    flags = [r["is_mode"] for r in rows]
    assert flags[:7] == ["False"] * 7 and flags[7] == "True"
    assert float(rows[7]["nu"]) == pytest.approx(16 * math.pi, rel=1e-14)


def test_sweep_table_monotone_in_alpha(capsys):
    code, out = run_cli(capsys, "sweep", "--interval", "2", "--samples", "12")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) >= 12
    nus = [float(r["nu"]) for r in rows]
    alphas = [float(r["alpha"]) for r in rows]
    assert nus == sorted(nus)
    assert alphas == sorted(alphas)
    for r in rows:
        assert math.isfinite(float(r["r"]))
        assert math.isfinite(float(r["Ex"]))
        assert float(r["rho"]) > 0


def test_sweep_unbounded_interval_has_negative_reach(capsys):
    code, out = run_cli(capsys, "sweep", "--interval", "0", "--samples", "8")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["nu"]) < 0 < float(rows[-1]["nu"])


# ======================================================================
# Wavefunction, limit, and expansion tables
# ======================================================================


def test_wavefunction_phi_flag_emits_bare_mode(capsys):
    code, out = run_cli(
        capsys, "wavefunction", "--nu-mode", "8", "--phi", "--points", "9"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9 and all(r["kind"] == "mode" for r in rows)
    s = make_setup(L=1.0, x0=RationalX0(1, 4), c=1.0)
    for r in rows:
        assert float(r["value"]) == pytest.approx(
            phi_mode(s, 8, float(r["x"])), abs=1e-14
        )


def test_phi_flag_prints_zero_at_the_left_wall(capsys):
    code, out = run_cli(capsys, "wavefunction", "--nu-mode", "3", "--phi", "--points", "3")
    assert code == 0
    assert [(r["x"], r["value"]) for r in parse_csv(out)] == [
        ("-0.5", "0.0"), ("0.0", "-1.4142135623730951"), ("0.5", "0.0")
    ]


def test_phi_flag_requires_mode_index(capsys):
    code = cli.main(["wavefunction", "--phi", "--nu", "3.0"])
    capsys.readouterr()
    assert code == 3


def test_wavefunction_limit_rows_are_labeled(capsys):
    code, out = run_cli(
        capsys,
        "wavefunction", "--x0", "rational:3/4", "--nu-mode", "16",
        "--limit", "hat", "--points", "33",
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(r["kind"] == "limit_hat" for r in rows)
    assert abs(float(rows[0]["value"])) < 1e-12
    assert abs(float(rows[-1]["value"])) < 1e-12


def test_limit_over_is_supported_right_of_site(capsys):
    code, out = run_cli(capsys, "limit", "--kind", "over", "--l", "1", "--points", "17")
    assert code == 0
    rows = parse_csv(out)
    left = [float(r["value"]) for r in rows if float(r["x"]) < 0.125 - 1e-12]
    right = [float(r["value"]) for r in rows if float(r["x"]) > 0.125 + 1e-12]
    assert all(v == 0.0 for v in left)
    assert any(abs(v) > 0.1 for v in right)


@pytest.mark.parametrize(
    "argv",
    [
        ("wavefunction", "--nu", "10.2", "--points", "5"),
        ("limit", "--kind", "under", "--k", "2", "--side", "above", "--points", "5"),
    ],
)
def test_negative_amplitude_prints_zero_at_the_wall(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["x"] == "-0.5" and rows[0]["value"] == "0.0"
    assert float(rows[1]["value"]) < 0.0  # the piece at the left wall
    assert all(cell != "-0.0" for row in rows for cell in row.values())


def test_fourier_coefficient_table_is_one_hot_at_mode(capsys):
    code, out = run_cli(capsys, "fourier", "--nu-mode", "5", "--M", "12")
    assert code == 0
    rows = parse_csv(out)
    assert [int(r["m"]) for r in rows] == list(range(1, 13))
    coeffs = {int(r["m"]): float(r["a_m"]) for r in rows}
    assert coeffs[5] == pytest.approx(1.0, abs=1e-12)
    assert all(abs(v) < 1e-12 for m, v in coeffs.items() if m != 5)


def test_fourier_partial_sum_grid(capsys):
    code, out = run_cli(
        capsys, "fourier", "--nu", "7.3", "--M", "512", "--sum-points", "17"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 17
    assert abs(float(rows[0]["value"])) < 1e-12
    assert abs(float(rows[-1]["value"])) < 1e-12
    assert max(abs(float(r["value"])) for r in rows) > 0.5


SITE_1_4 = make_setup(L=1.0, x0=RationalX0(1, 4), c=1.0)
GRID_SUM_CASES = [
    (("--nu", "7.3"), lambda M: coeffs_general(SITE_1_4, 7.3, M), 2048, 257),
    (("--nu=-9",), lambda M: coeffs_general(SITE_1_4, -9.0, M), 2048, 65),
    (
        ("--limit", "hat", "--nu-mode", "8"),
        lambda M: coeffs_limit(limit_state(SITE_1_4, "hat", nu_n(SITE_1_4, 8)), M),
        16384,
        65,
    ),
    (
        ("--limit", "over", "--l", "1"),
        lambda M: coeffs_limit(limit_state(SITE_1_4, "over", 1), M),
        512,
        129,
    ),
    (("--nu", "7.3"), lambda M: coeffs_general(SITE_1_4, 7.3, M), 512, 3),
]


def sum_rows(out, fmt):
    """(x, value) pairs of a fourier --sum-points table in either format."""
    if fmt == "json":
        return [(row["x"], row["value"]) for row in json.loads(out)["rows"]]
    return [(float(row["x"]), float(row["value"])) for row in parse_csv(out)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("state, expand, M, points", GRID_SUM_CASES)
def test_fourier_grid_sums_match_partial_sum(capsys, fmt, state, expand, M, points):
    """The folded grid sums equal the full partial_sum within 1e-13 of the largest value."""
    code, out = run_cli(
        capsys, "fourier", *state, "--M", str(M), "--sum-points", str(points), "--format", fmt
    )
    assert code == 0
    rows = sum_rows(out, fmt)
    expansion = expand(M)
    assert [x for x, _ in rows] == cli._linspace(-0.5, 0.5, points)
    full = [partial_sum(expansion, x) for x, _ in rows]
    scale = max(map(abs, full))
    assert all(abs(v - f) <= 1e-13 * scale for (_, v), f in zip(rows, full))


@pytest.mark.parametrize("M, points", [(64, 257), (63, 65), (1, 3), (512, 2), (512, 1)])
def test_fourier_grid_sums_without_a_fold_keep_their_bytes(capsys, M, points):
    """With M <= P - 2, or at most two points, the table is the unfolded sum's."""
    code, out = run_cli(
        capsys, "fourier", "--nu", "7.3", "--M", str(M), "--sum-points", str(points)
    )
    assert code == 0
    expansion = coeffs_general(SITE_1_4, 7.3, M)
    xs = cli._linspace(-0.5, 0.5, points)
    assert out == "x,value\n" + "".join(f"{x!r},{partial_sum(expansion, x)!r}\n" for x in xs)


# ======================================================================
# Observable tables
# ======================================================================


def test_ratio_forms_agree(capsys):
    s = make_setup(L=1.0, x0=RationalX0(1, 4), c=1.0)
    code, out = run_cli(capsys, "ratio", "--nu", "7.3")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["r"]) == pytest.approx(ratio_at(s, 7.3), rel=1e-15)
    assert row["at_lattice"] == ""
    code, out = run_cli(capsys, "ratio", "--nu-mode", "3")
    row = parse_csv(out)[0]
    assert float(row["r"]) == pytest.approx(prob_ratio_at_mode(s, 3), rel=1e-15)
    code, out = run_cli(
        capsys, "ratio", "--nu-min", "7.0", "--nu-max", "8.0", "--points", "3"
    )
    rows = parse_csv(out)
    assert [float(r["nu"]) for r in rows] == [7.0, 7.5, 8.0]


def test_ratio_at_tiny_nu_is_the_linear_ratio(capsys):
    s = make_setup(L=1.0, x0=RationalX0(1, 4), c=1.0)
    code, out = run_cli(capsys, "ratio", "--nu", "1e-200")
    assert code == 0
    assert float(parse_csv(out)[0]["r"]) == pytest.approx(s.q_ratio, rel=1e-14, abs=0)


def test_linear_window_at_a_tiny_box(capsys):
    """The linear masses scale as L**5; at L = 1e-70 they are taken at the
    scale of L, so the rows stay finite and r is the L = 1e-50 ratio."""
    rows = {}
    for L in ("1e-50", "1e-70"):
        code, out = run_cli(capsys, "ratio", "--nu", "5", "--L", L)
        assert code == 0
        rows[L] = parse_csv(out)[0]["r"]
    assert rows["1e-70"] == rows["1e-50"] == "0.6000000000000001"
    code, out = run_cli(capsys, "wavefunction", "--nu", "0", "--L", "1e-70", "--points", "3")
    assert code == 0
    values = [float(r["value"]) for r in parse_csv(out)]
    assert values[0] == values[2] == 0.0
    # The nu = 0 state at x = 0 is (L/2) / (L/2 + x0) sqrt(3 / L), x0 = L/8.
    assert values[1] == pytest.approx(0.8 * math.sqrt(3 / 1e-70), rel=1e-14)


@pytest.mark.parametrize(
    "argv, row, value",
    [
        # t L = 420, below LOG_SWITCH, where the plain sinh masses
        # overflowed in their products with the distances (nan).
        (("expectation", "--L", "1e100", "--nu=-4.2e-98"), 0, "1.25e+99"),
        # The linear masses, of order L**5, overflowed (nan).
        (("ratio", "--nu", "0", "--L", "1e80"), 0, "0.6000000000000002"),
        # The trig distances underflowed at L = 1e-300, leaving x0.
        (("expectation", "--nu", "3e300", "--L", "1e-300"), 0, "5.224002248697136e-302"),
        # These three raised OverflowError (exit 4) in the linear masses,
        # which every row took first in absolute units.
        (("ratio", "--nu", "3e-130", "--L", "1e130"), 0, "0.552553321693878"),
        (("expectation", "--nu", "3e-200", "--L", "1e200"), 0, "5.224002248697135e+198"),
        (("wavefunction", "--nu", "3e-200", "--L", "1e200", "--points", "3"), 1,
         "1.3963588806745772e-100"),
        # 0.8 sqrt(3 / L) at x = 0, where the overflowed norm printed 0.0.
        (("wavefunction", "--nu", "0", "--L", "1e100", "--points", "3"), 1,
         "1.3856406460551018e-50"),
    ],
)
def test_tables_hold_far_from_a_unit_box(capsys, argv, row, value):
    """Rows whose masses or norms left float range in absolute units: the
    widths are now taken in units of a power of four near L."""
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert list(parse_csv(out)[row].values())[1] == value


def test_ratio_at_shared_point_reports_lattice_kind(capsys):
    code, out = run_cli(capsys, "ratio", "--nu", repr(16 * math.pi))
    assert code == 0
    row = parse_csv(out)[0]
    assert row["at_lattice"] == "both"
    assert float(row["r"]) == pytest.approx(1 / 0.6, rel=1e-12)


@pytest.mark.parametrize("nu", ["6e9", "1e10", "3e11"])
def test_on_lattice_radius_stays_below_the_lattice_gaps(capsys, nu):
    """Far up the lattice 1e-9 nu spans whole gaps (6, 10 and 300 against
    steps of 10 and 17); capped at 1e-3 of the first under point, the
    radius leaves these nu, 0.72, 3.26 and 2.71 from their nearest points,
    off the lattice in ratio and wavefunction alike."""
    code, out = run_cli(capsys, "ratio", "--nu", nu)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["at_lattice"] == "" and 0.0 < float(row["r"]) < math.inf
    code, out = run_cli(capsys, "wavefunction", "--nu", nu, "--points", "3")
    assert code == 0
    assert {row["kind"] for row in parse_csv(out)} == {"trig"}


def test_mode_snap_radius_stays_below_the_mode_gaps(capsys):
    """At nu = 1e13, 1e-12 nu (10) spans the gap of 2 pi between free modes,
    and the snap made such a nu the one-hot expansion of its nearest mode,
    n near 1.6e12 and beyond M: four 0.0 rows.  Capped at 1e-3 of nu_1, it
    leaves nu the trig state that wavefunction prints there (0.29 from the
    mode)."""
    code, out = run_cli(capsys, "fourier", "--nu", "1e13", "--M", "4")
    assert code == 0
    assert all(float(row["a_m"]) != 0.0 for row in parse_csv(out))
    code, out = run_cli(capsys, "wavefunction", "--nu", "1e13", "--points", "3")
    assert code == 0
    assert {row["kind"] for row in parse_csv(out)} == {"trig"}


def test_expectation_far_up_the_lattice_prints_every_row(capsys):
    """Each grid point lies 0.6 to 3.3 from its nearest under point."""
    argv = ("expectation", "--nu-min", "1e10", "--nu-max", "1.0000001e10", "--points", "5")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert [float(row["nu"]) for row in parse_csv(out)] == [1e10 + 250 * i for i in range(5)]


def test_expectation_sweep_skips_one_sided_points(capsys):
    lo, hi = 16.255160819145562, 17.255160819145562
    code, out = run_cli(
        capsys,
        "expectation", "--nu-min", repr(lo), "--nu-max", repr(hi), "--points", "3",
    )
    assert code == 0
    rows = parse_csv(out)
    # The middle grid point is the one-sided lattice point: dropped.
    assert [float(r["nu"]) for r in rows] == [lo, hi]


def test_real_negative_zero_site_prints_the_tables_of_zero(capsys):
    argv = ("expectation", "--nu", "12.566370614359172", "--x0")
    code, out = run_cli(capsys, *argv, "real:-0.0")
    assert code == 0
    assert parse_csv(out)[0]["Ex"] == "0.0"
    assert run_cli(capsys, *argv, "real:0.0") == (code, out)


def test_site_is_parsed_once(capsys, monkeypatch):
    assert cli._build_parser().parse_args(["ratio"]).x0 == RationalX0(1, 4)
    calls = []
    parse = cli.parse_x0
    monkeypatch.setattr(cli, "parse_x0", lambda spec: calls.append(spec) or parse(spec))
    code, out = run_cli(capsys, "ratio", "--nu", "3.3", "--x0", "rational:1/7")
    assert code == 0 and calls == ["rational:1/7"]


def test_amplitude_table(capsys):
    code, out = run_cli(capsys, "amplitude", "--n", "3")
    assert code == 0
    rows = parse_csv(out)
    assert [r["which"] for r in rows] == ["max", "min"]
    maximum, minimum = amplitude_extrema(3)
    assert float(rows[0]["value"]) == maximum.value
    assert float(rows[1]["value"]) == minimum.value
    code, out = run_cli(capsys, "amplitude", "--n-max", "7")
    rows = parse_csv(out)
    assert [int(r["n"]) for r in rows] == [1, 1, 3, 3, 5, 5, 7, 7]


def test_oracle_table(capsys):
    code, out = run_cli(
        capsys, "oracle", "--alpha", "0.0", "--grid", "511", "--count", "3"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    s = make_setup(L=1.0, x0=RationalX0(1, 4), c=1.0)
    for n, row in enumerate(rows, start=1):
        assert float(row["nu"]) == pytest.approx(nu_n(s, n), rel=1e-9)
        assert float(row["rel_energy_error"]) < 1e-3


# ======================================================================
# Float sites that are exact fractions of the box
# ======================================================================

# Commands (without --x0) that succeed on both sites of a twin pair.
TWIN_TABLES = [
    ("partition", "--nu-max", "120"),
    ("spectrum", "--alpha", "-7.5", "--count", "12"),
    ("sweep", "--interval", "7", "--samples", "16"),
    ("wavefunction", "--nu-mode", "40", "--points", "65"),
    ("wavefunction", "--nu", "3.3", "--points", "65"),
    ("limit", "--kind", "hat", "--nu-mode", "40", "--points", "65"),
    ("limit", "--kind", "under", "--k", "1", "--points", "65"),
    ("fourier", "--nu-mode", "40", "--M", "64"),
    ("ratio", "--nu-min", "0.5", "--nu-max", "120", "--points", "401"),
    ("expectation", "--nu-min", "-30", "--nu-max", "120", "--points", "401"),
    ("oracle", "--alpha", "1000", "--grid", "1279", "--count", "9"),
]


@pytest.mark.parametrize("real, rational", [("real:0.125", "rational:1/4"), ("real:0.2", "rational:2/5")])
def test_float_twin_prints_the_rational_tables(capsys, real, rational):
    for argv in TWIN_TABLES:
        code, out = run_cli(capsys, *argv, "--x0", real)
        assert code == 0, argv
        assert (code, out) == run_cli(capsys, *argv, "--x0", rational), argv
    # Over point 3 is shared at both sites, so both twins reject it.
    argv = ("fourier", "--limit", "over", "--l", "3", "--M", "8")
    assert run_cli(capsys, *argv, "--x0", real) == run_cli(capsys, *argv, "--x0", rational) == (3, "")


@pytest.mark.parametrize(
    "argv, twin",
    [
        (("spectrum", "--alpha", "20", "--count", "8", "--x0", "real:0.2"), "rational:2/5"),
        (("oracle", "--alpha", "0", "--grid", "1023", "--count", "9", "--x0", "real:0.125"), "rational:1/4"),
    ],
)
def test_float_twin_former_failures_succeed(capsys, argv, twin):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert (code, out) == run_cli(capsys, *argv[:-1], twin)


# ======================================================================
# Table writers
# ======================================================================

WRITER_COLUMNS = ["a", "b", "c", "d"]
WRITER_ROWS = [
    (1.0, math.inf, None, True),
    (2, "limit_under k=2 below", False, -0.0),
    (None, None, None, None),
    (math.nan, 1e-300, 5e-324, -math.inf),
    (10**20, 1.7976931348623157e308, 0.1, "both"),
]


def test_csv_table_writes_the_bytes_of_csv_writer():
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(WRITER_COLUMNS)
    writer.writerows(WRITER_ROWS)
    assert cli._csv_table(WRITER_COLUMNS, iter(WRITER_ROWS)) == buf.getvalue()


# Every kind of cell a table holds: floats of every class, integers past
# 64 bits, bools, None and the labels the commands print.
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.sampled_from(
        ["point", "interval", "both", "under", "over", "A", "B", "C", "D", "E", "F",
         "Z", "max", "min", "trig", "linear", "hyper", "mode", "limit_hat",
         "limit_under k=2 below", "limit_under k=3 above", "limit_over l=1"]
    ),
)


def _writer_text(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


@examples(300)
@given(
    width=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_csv_table_writes_the_bytes_of_csv_writer_for_any_cells(width, data):
    columns = [f"c{i}" for i in range(width)]
    rows = data.draw(st.lists(st.tuples(*[CELLS] * width), max_size=12))
    # None in the first, middle and last column, alone and side by side.
    nones = data.draw(st.sampled_from([(0,), (width // 2,), (width - 1,), (0, 1), tuple(range(width))]))
    rows.append(tuple(None if i in nones else 1.5 for i in range(width)))
    assert cli._csv_table(columns, iter(rows)) == _writer_text(columns, rows)


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("count", [0, 1, cli._CSV_BLOCK - 1, cli._CSV_BLOCK, 2 * cli._CSV_BLOCK + 5])
def test_csv_table_blocks_join_without_seams(width, count):
    """Row counts on both sides of the block size, the empty table among them."""
    rows = [tuple(None if (i + j) % 3 == 0 else i * 0.1 + j for j in range(width)) for i in range(count)]
    assert cli._csv_table(["h"] * width, iter(rows)) == _writer_text(["h"] * width, rows)


@pytest.mark.parametrize("rows", [WRITER_ROWS + [(0, 'a "quoted", label\\', None, 1)], []])
def test_json_table_writes_the_bytes_of_indented_json_dumps(rows):
    payload = [
        {c: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
         for c, v in zip(WRITER_COLUMNS, row)}
        for row in rows
    ]
    expected = json.dumps({"columns": WRITER_COLUMNS, "rows": payload}, indent=2) + "\n"
    assert cli._json_table(WRITER_COLUMNS, iter(rows)) == expected


@pytest.mark.parametrize("site, interval", [("rational:1/7", 0), ("rational:11/13", 5), ("real:0.125", 3)])
def test_sweep_rows_are_the_one_point_functions(capsys, site, interval):
    code, out = run_cli(capsys, "sweep", "--interval", str(interval), "--samples", "40", "--x0", site)
    assert code == 0
    s = make_setup(1.0, cli.parse_x0(site), 1.0)
    rows = parse_csv(out)
    assert len(rows) > 40
    for row in rows:
        nu = float(row["nu"])
        assert row["r"] == repr(ratio_at(s, nu))
        assert row["Ex"] == repr(mean_at(s, nu))
        assert row["rho"] == repr(rho(s, nu))


SWEEP_CELLS = ("alpha", "r", "Ex", "rho")


@pytest.mark.parametrize("row", [0, 5])
@pytest.mark.parametrize("cell", SWEEP_CELLS)
def test_sweep_fails_at_the_row_and_cell_of_one_call_per_cell(capsys, monkeypatch, row, cell):
    """A sweep draws alpha, r, Ex and rho of one row before the next row, so a
    failing cell raises at its own row and cell, after the cells before it
    and before any after it, as one call per cell would."""
    drawn = []

    def draw(name, i):
        drawn.append((i, name))
        if (i, name) == (row, cell):
            raise ZeroDivisionError(f"{name} of row {i}")

    def tap(name, grid):
        def tapped(setup, nus, *args, **kwargs):
            for i, value in enumerate(grid(setup, nus, *args, **kwargs)):
                draw(name, i)
                yield value
        return tapped

    alpha_from_nu, calls = cli.alpha_from_nu, []

    def alpha(setup, nu):
        calls.append(nu)
        if len(calls) > 2:  # the first two place the sampled couplings' ends
            draw("alpha", len(calls) - 3)
        return alpha_from_nu(setup, nu)

    monkeypatch.setattr(cli, "alpha_from_nu", alpha)
    monkeypatch.setattr(observables, "ratio_grid", tap("r", observables.ratio_grid))
    monkeypatch.setattr(observables, "expectation_grid", tap("Ex", observables.expectation_grid))
    monkeypatch.setattr(wavefn, "rho_grid", tap("rho", wavefn.rho_grid))
    code = cli.main(["sweep", "--interval", "2", "--samples", "8"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"error: {cell} of row {row}\n"
    cells = [(i, name) for i in range(row + 1) for name in SWEEP_CELLS]
    assert drawn == cells[: cells.index((row, cell)) + 1]
