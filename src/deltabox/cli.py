"""Command-line interface: every analysis as a CSV or JSON table.

Subcommands map one-to-one onto the library modules (partition, spectrum,
sweep, wavefunction, limit, fourier, ratio, expectation, amplitude, oracle).
Output is a single flat table per invocation, deterministic and
byte-identical across runs for identical arguments: floats are printed with
repr's shortest round-trip form, CSV uses LF line endings, and the package
draws no random numbers.

Exit codes: 0 success, 2 argument parsing, 3 domain errors (invalid inputs,
sizes beyond the point budget, wrong lattice membership, off-grid sites), 4
numerical failures (singular points, bracket or convergence failures,
overflow, and divisions by a quantity that underflowed to zero).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain, islice, repeat
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from . import fourier as fourier_mod
from . import observables, oracle, wavefn
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    GridMismatch,
    InK,
    NotInK,
    SingularPoint,
)
from .lattice import POINT_BUDGET, partition
from .model import (
    RationalX0,
    RealX0,
    Setup,
    X0Spec,
    energy_from_nu,
    make_setup,
    nu_n,
    phi_mode_grid,
)
from .spectrum import alpha_from_nu, analytic_levels, solve_nu

_EXIT_USAGE = 2  # argparse's code, also for a file it cannot open
_EXIT_DOMAIN = 3
_EXIT_NUMERICAL = 4

_DOMAIN_ERRORS = (DomainError, NotInK, InK, GridMismatch)
# ArithmeticError: an overflow, or a division by a quantity that underflowed to 0.
_NUMERICAL_ERRORS = (SingularPoint, BracketError, ConvergenceError, ArithmeticError)

_CSV_BLOCK = 64  # rows per %-format; 1024 wrote no faster and fragmented the heap


# ============================================================
# Parsing helpers
# ============================================================


def parse_x0(spec: str) -> X0Spec:
    """Parse the site grammar: rational:<p>/<q> (of L/2) or real:<v> (length)."""
    if spec.startswith("rational:"):
        body = spec[len("rational:") :]
        parts = body.split("/")
        if len(parts) != 2:
            raise DomainError(f"malformed rational site {spec!r}; expected rational:p/q")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DomainError(f"malformed rational site {spec!r}") from exc
        return RationalX0(p, q)
    if spec.startswith("real:"):
        body = spec[len("real:") :]
        try:
            value = float(body)
        except ValueError as exc:
            raise DomainError(f"malformed real site {spec!r}") from exc
        return RealX0(value)
    raise DomainError(f"site spec {spec!r} must start with 'rational:' or 'real:'")


def _x0_spec(spec: str) -> X0Spec:
    """argparse type hook: the site parsed once, at parse time (exit 2 on error)."""
    try:
        return parse_x0(spec)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _setup_from(args: argparse.Namespace) -> Setup:
    return make_setup(args.L, args.x0, args.c)


def _grid_size(text: str) -> int:
    """argparse type hook: a grid needs at least one point (exit 2 otherwise)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"a grid needs at least one point, got {n}")
    return n


def _sample_count(text: str) -> int:
    """argparse type hook: a sweep needs at least two samples (exit 2 otherwise)."""
    n = _grid_size(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"a sweep needs at least two samples, got {n}")
    return n


def _finite_float(text: str) -> float:
    """argparse type hook: a wave number or coupling must be finite (exit 2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _linspace(lo: float, hi: float, n: int, option: str = "--points") -> List[float]:
    """n evenly spaced values from lo to hi; option names n in the errors."""
    if n < 1:
        raise DomainError(f"a grid needs at least one point, got {n}")
    if n > POINT_BUDGET:
        raise DomainError(f"{option} = {n} is beyond the grid budget of {POINT_BUDGET:.0e}")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    if math.isinf(step):  # hi - lo overflows: weigh the two ends instead
        return [lo * ((n - 1 - i) / (n - 1)) + hi * (i / (n - 1)) for i in range(n - 1)] + [hi]
    return [lo + i * step for i in range(n - 1)] + [hi]


# ============================================================
# Table emission
# ============================================================


def _json_table(columns: List[str], rows: Iterable[Tuple[Any, ...]]) -> str:
    """The table as indented JSON: columns, then rows as objects of scalar
    cells, a non-finite float written as its repr."""
    cell = lambda v: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
    payload = [{col: cell(v) for col, v in zip(columns, row)} for row in rows]
    return json.dumps({"columns": columns, "rows": payload}, indent=2) + "\n"


def _csv_table(columns: List[str], rows: Iterable[Tuple[Any, ...]]) -> str:
    """The text csv.writer(lineterminator="\n") writes for the header and rows.

    Every cell is a number, a bool, None or a label with no comma, quote or
    line break, so no field needs quoting: a line is the cells' str() (repr
    for a float) joined by commas, None an empty field ('""' alone in a row).
    One %-format of the repeated line writes each block of _CSV_BLOCK rows,
    after a C-level dict lookup per cell blanks the None cells.
    """
    width = len(columns)
    line = ",".join(["%s"] * width) + "\n"
    blank = {None: '""' if width == 1 else ""}.get
    parts = [",".join(columns) + "\n"]
    rows = iter(rows)
    while cells := list(chain.from_iterable(islice(rows, _CSV_BLOCK))):
        parts.append((line * (len(cells) // width)) % tuple(map(blank, cells, cells)))
    return "".join(parts)


def _emit(args: argparse.Namespace, columns: List[str], rows: Iterable[Tuple[Any, ...]]) -> None:
    """Write rows, each a tuple of cells in column order, as CSV or JSON."""
    text = (_json_table if args.format == "json" else _csv_table)(columns, rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ============================================================
# Subcommands
# ============================================================


def cmd_partition(args: argparse.Namespace) -> None:
    setup = _setup_from(args)
    points, intervals = partition(setup, args.nu_max)
    columns = [
        "record",
        "nu",
        "kind",
        "k",
        "l",
        "index",
        "lower",
        "upper",
        "case_tag",
        "contains_mode",
    ]
    rows = [
        ("point", pt.nu, pt.kind, pt.k, pt.l, None, None, None, None, None) for pt in points
    ]
    rows += [
        (
            "interval", None, None, None, None, iv.index,
            iv.lower.nu if iv.lower is not None else None,
            iv.upper.nu, iv.case_tag, iv.contains_mode,
        )
        for iv in intervals
    ]
    _emit(args, columns, rows)


def cmd_spectrum(args: argparse.Namespace) -> None:
    setup = _setup_from(args)
    levels = analytic_levels(setup, args.alpha, args.count)
    columns = ["index", "nu", "energy", "is_mode"]
    rows = []
    for i, (nu, is_mode) in enumerate(levels, start=1):
        try:
            rows.append((i, nu, energy_from_nu(setup, nu), is_mode))
        except OverflowError as exc:
            raise OverflowError(f"level {i}: {exc}") from None
    _emit(args, columns, rows)


def cmd_sweep(args: argparse.Namespace) -> None:
    setup = _setup_from(args)
    samples = args.samples
    _, intervals = partition(setup, args.nu_max)
    matches = [iv for iv in intervals if iv.index == args.interval]
    if not matches:
        raise DomainError(
            f"no interval with index {args.interval} below nu-max "
            f"{args.nu_max}; raise --nu-max or check the partition table"
        )
    iv = matches[0]
    upper = iv.upper.nu
    if iv.lower is None:
        lower = upper - max(8 * math.pi / setup.L, 2 * abs(upper))
    else:
        lower = iv.lower.nu
    span = upper - lower
    margin = span / (2 * samples)
    nus = set(_linspace(lower + margin, upper - margin, samples, "--samples"))
    a_lo = alpha_from_nu(setup, lower + margin)
    a_hi = alpha_from_nu(setup, upper - margin)
    for a in _linspace(a_lo, a_hi, samples, "--samples"):
        nus.add(solve_nu(setup, a, iv))
    grid = []
    for nu in sorted(nus):
        if grid and nu - grid[-1] <= 1e-12 * max(1.0, abs(nu)):
            continue
        grid.append(nu)
    # zip draws alpha, r and Ex of one row before the next row, so a failing
    # sweep raises at the row and cell that one call per cell would.
    alphas = (alpha_from_nu(setup, nu) for nu in grid)
    ratios = observables.ratio_grid(setup, grid)
    means = observables.expectation_grid(setup, grid, skip_one_sided=False)
    norms = wavefn.rho_grid(setup, grid)
    rows = [
        (nu, alpha, r, mean, norm)
        for nu, alpha, (_, r, _), (_, mean), norm in zip(grid, alphas, ratios, means, norms)
    ]
    _emit(args, ["nu", "alpha", "r", "Ex", "rho"], rows)


def _resolve_nu(setup: Setup, args: argparse.Namespace) -> float:
    if args.nu_mode is not None:
        return nu_n(setup, args.nu_mode)
    if args.nu is not None:
        return args.nu
    raise DomainError("provide --nu or --nu-mode")


def _limit_state(setup: Setup, kind: str, args: argparse.Namespace) -> wavefn.LimitState:
    """The limit state that --limit/--kind, --nu/--nu-mode, --k, --l and --side name."""
    if kind == "hat":
        return wavefn.limit_state(setup, kind, _resolve_nu(setup, args))
    index, flag = (args.k, "--k") if kind == "under" else (args.l, "--l")
    if index is None:
        raise DomainError(f"the {kind} limit needs {flag}")
    return wavefn.limit_state(setup, kind, index, args.side)


def _kind_label(kind: wavefn.WaveKind) -> str:
    parts = [kind.label]
    if kind.k is not None:
        parts.append(f"k={kind.k}")
    if kind.l is not None:
        parts.append(f"l={kind.l}")
    if kind.side is not None:
        parts.append(kind.side)
    return " ".join(parts)


def cmd_wavefunction(args: argparse.Namespace) -> None:
    setup = _setup_from(args)
    xs = _linspace(-setup.L / 2, setup.L / 2, args.points)
    if args.phi:
        if args.nu_mode is None:
            raise DomainError("--phi needs --nu-mode")
        values = phi_mode_grid(setup, args.nu_mode, xs)
        kind = wavefn.WaveKind(label="mode")
    else:
        if args.limit is not None:
            state = _limit_state(setup, args.limit, args)
        else:
            state = wavefn.general_state(setup, _resolve_nu(setup, args))
        values, kind = state.sample(xs), state.kind
    _emit(args, ["x", "value", "kind"], zip(xs, values, repeat(_kind_label(kind))))


def cmd_limit(args: argparse.Namespace) -> None:
    setup = _setup_from(args)
    xs = _linspace(-setup.L / 2, setup.L / 2, args.points)
    _emit(args, ["x", "value"], zip(xs, _limit_state(setup, args.kind, args).sample(xs)))


def cmd_fourier(args: argparse.Namespace) -> None:
    setup = _setup_from(args)
    if args.limit is not None:
        expansion = fourier_mod.coeffs_limit(_limit_state(setup, args.limit, args), args.M)
    else:
        expansion = fourier_mod.coeffs_general(setup, _resolve_nu(setup, args), args.M)
    if args.sum_points is not None:
        xs = _linspace(-setup.L / 2, setup.L / 2, args.sum_points, "--sum-points")
        folded = fourier_mod.fold_to_grid(expansion, args.sum_points)
        rows = [(x, fourier_mod.partial_sum(folded, x)) for x in xs]
        _emit(args, ["x", "value"], rows)
        return
    _emit(args, ["m", "a_m"], enumerate(expansion.values, 1))


def cmd_ratio(args: argparse.Namespace) -> None:
    setup = _setup_from(args)
    columns = ["nu", "r", "at_lattice"]
    if args.nu_mode is not None:
        value = observables.prob_ratio_at_mode(setup, args.nu_mode)
        _emit(args, columns, [(nu_n(setup, args.nu_mode), value, None)])
        return
    if args.nu is not None:
        nus = [args.nu]
    elif args.nu_min is None or args.nu_max is None:
        raise DomainError("provide --nu, --nu-mode, or --nu-min/--nu-max")
    else:
        nus = _linspace(args.nu_min, args.nu_max, args.points)
    _emit(args, columns, observables.ratio_grid(setup, nus))


def cmd_expectation(args: argparse.Namespace) -> None:
    setup = _setup_from(args)
    if args.nu is not None:
        rows = observables.expectation_grid(setup, [args.nu], skip_one_sided=False)
    elif args.nu_min is None or args.nu_max is None:
        raise DomainError("provide --nu or --nu-min/--nu-max")
    else:
        # One-sided lattice points have no two-sided state; the grid skips them.
        nus = _linspace(args.nu_min, args.nu_max, args.points)
        rows = observables.expectation_grid(setup, nus)
    _emit(args, ["nu", "Ex"], rows)


def cmd_amplitude(args: argparse.Namespace) -> None:
    if args.n is not None:
        ns = [args.n]
    elif args.n_max is not None:
        if args.n_max > POINT_BUDGET:
            raise DomainError(f"--n-max = {args.n_max} is beyond the budget of {POINT_BUDGET:.0e}")
        ns = list(range(1, args.n_max + 1, 2))
    else:
        raise DomainError("provide --n or --n-max")
    columns = ["n", "which", "gamma_crit", "value", "bracket_lo", "bracket_hi"]
    rows = []
    for n in ns:
        maximum, minimum = observables.amplitude_extrema(n)
        for which, ext in (("max", maximum), ("min", minimum)):
            rows.append((n, which, ext.gamma_crit, ext.value) + ext.bracket)
    _emit(args, columns, rows)


def cmd_oracle(args: argparse.Namespace) -> None:
    report = oracle.compare(_setup_from(args), args.alpha, args.grid, args.count)
    # Each LevelComparison is a row; its field names are the columns.
    _emit(args, list(oracle.LevelComparison._fields), report.levels)


# ============================================================
# Parser assembly and entry point
# ============================================================


@functools.cache  # built on the first main call, reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--L", type=float, default=1.0, help="box length (default 1)")
    common.add_argument(
        "--c", type=float, default=1.0, help="kinetic constant hbar^2/2m (default 1)"
    )
    common.add_argument(
        "--x0",
        type=_x0_spec,
        default="rational:1/4",
        help="interaction site: rational:p/q of L/2, or real:<length> "
        "(default rational:1/4, i.e. x0 = L/8)",
    )
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default=None, help="file path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="deltabox",
        description="Spectral structure of a 1-D box with a point interaction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partition", parents=[common], help="lattice points and intervals")
    sp.add_argument("--nu-max", type=_finite_float, default=60.0)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("spectrum", parents=[common], help="lowest levels for a coupling")
    sp.add_argument("--alpha", type=_finite_float, required=True)
    sp.add_argument("--count", type=_grid_size, default=8)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("sweep", parents=[common], help="coupling sweep inside one interval")
    sp.add_argument("--interval", type=int, required=True)
    sp.add_argument("--samples", type=_sample_count, default=64)
    sp.add_argument("--nu-max", type=_finite_float, default=120.0)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("wavefunction", parents=[common], help="eigenfunction samples")
    sp.add_argument("--nu", type=_finite_float, default=None)
    sp.add_argument("--nu-mode", type=int, default=None)
    sp.add_argument("--points", type=_grid_size, default=257)
    sp.add_argument("--limit", choices=("hat", "under", "over"), default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--side", choices=("below", "above"), default="below")
    sp.add_argument(
        "--phi",
        action="store_true",
        help="emit the bare box mode for --nu-mode instead of the normalized state",
    )
    sp.set_defaults(func=cmd_wavefunction)

    sp = sub.add_parser("limit", parents=[common], help="limit-state samples")
    sp.add_argument("--kind", choices=("hat", "under", "over"), required=True)
    sp.add_argument("--nu", type=_finite_float, default=None)
    sp.add_argument("--nu-mode", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--side", choices=("below", "above"), default="below")
    sp.add_argument("--points", type=_grid_size, default=257)
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("fourier", parents=[common], help="sine-basis coefficients")
    sp.add_argument("--nu", type=_finite_float, default=None)
    sp.add_argument("--nu-mode", type=int, default=None)
    sp.add_argument("--limit", choices=("hat", "under", "over"), default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--side", choices=("below", "above"), default="below")
    sp.add_argument("--M", type=int, default=4096)
    sp.add_argument(
        "--sum-points",
        type=_grid_size,
        default=None,
        help="emit the partial sum on this many grid points instead of coefficients",
    )
    sp.set_defaults(func=cmd_fourier)

    sp = sub.add_parser("ratio", parents=[common], help="right/left probability ratio")
    sp.add_argument("--nu", type=_finite_float, default=None)
    sp.add_argument("--nu-mode", type=int, default=None)
    sp.add_argument("--nu-min", type=_finite_float, default=None)
    sp.add_argument("--nu-max", type=_finite_float, default=None)
    sp.add_argument("--points", type=_grid_size, default=257)
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("expectation", parents=[common], help="mean position")
    sp.add_argument("--nu", type=_finite_float, default=None)
    sp.add_argument("--nu-min", type=_finite_float, default=None)
    sp.add_argument("--nu-max", type=_finite_float, default=None)
    sp.add_argument("--points", type=_grid_size, default=257)
    sp.set_defaults(func=cmd_expectation)

    sp = sub.add_parser("amplitude", parents=[common], help="centered-site amplitude extrema")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-max", type=_grid_size, default=None)
    sp.set_defaults(func=cmd_amplitude)

    sp = sub.add_parser("oracle", parents=[common], help="finite-difference cross-check")
    sp.add_argument("--alpha", type=_finite_float, required=True)
    sp.add_argument("--grid", type=int, default=2047)
    sp.add_argument("--count", type=int, default=6)
    sp.set_defaults(func=cmd_oracle)

    parser.commands = sub.choices  # main's subparser of a named command
    return parser


def _parse(parser: argparse.ArgumentParser, argv: List[str]) -> argparse.Namespace:
    """The arguments of argv, parsed once when argv[0] names a command.

    Its subparser then reads argv[1:] alone.  No command, -h, an unknown
    command and leftover arguments take the top-level parse, which gives
    the same namespace and argparse's own messages and exit codes.
    """
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:  # --output names a file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
