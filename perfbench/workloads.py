"""Seeded request lists for the three perfbench workloads.

Stdlib only: the harness imports this module without importing deltabox or
numpy.  A request is one `deltabox` argv plus the parameters its output
check needs.  The same (workload, seed, seconds) always gives the same list.

Each list is stratified: the number of requests of every class, and the
sizes that set a request's cost (sweep points, truncation order M, grid
size N), come from fixed cycles scaled by the list length, while the seed
draws everything else (sites, couplings, wave numbers, indices, order).
That keeps the work per list nearly constant across seeds, so seed-to-seed
spread stays small next to the benchmark's bounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("tables", "fourier", "oracle")

# Requests per second of --seconds, measured on a 2-CPU Intel Xeon at the
# commit that introduced the benchmark.  They fix the list length, so a
# faster program finishes the same list sooner.
REQUESTS_PER_SECOND = {"tables": 90.0, "fourier": 13.0, "oracle": 0.65}

# Sites given as p/q of L/2 (exact lattice arithmetic), as irrational-looking
# reals, and as reals that equal a rational site exactly in binary
# (real:0.125 is rational:1/4, real:0.2 is rational:2/5).
RATIONAL_SITES = (
    "rational:0/1",
    "rational:1/4",
    "rational:1/7",
    "rational:11/13",
    "rational:1/500",
    "rational:3/4",
    "rational:2/5",
    "rational:1/2",
)
IRRATIONAL_SITES = (
    "real:0.1259881576697424",
    "real:0.07071067811865475",
    "real:0.4225771273642583",
)
TWIN_SITES = ("real:0.125", "real:0.2")
TABLE_SITES = RATIONAL_SITES + IRRATIONAL_SITES + TWIN_SITES

# Sites that land on a grid node for N + 1 a power of two.
ORACLE_SITES = (
    "rational:0/1",
    "rational:1/4",
    "rational:1/2",
    "rational:3/4",
    "rational:1/8",
    "rational:3/8",
    "real:0.125",
)
ORACLE_GRIDS = (1023, 2047, 4095)

# Requests that fail at the commit that introduced the benchmark, through the
# lattice classification defect of ROADMAP item 3.  A workload must not
# contain failing requests, so the generators draw again when they produce
# one; perfbench's tests run these argv and check that the harness counts
# them as failed.
KNOWN_FAILURES = (
    # RuntimeError escapes cli.main: the merged `both` point lands exactly on
    # nu_max and under-lattice generation stops one point early.
    ("spectrum", "--alpha", "20", "--count", "8", "--x0", "real:0.2"),
    # partition merges the level at 16 pi for the float twin of 1/4, so the
    # analytic side drops the shared-lattice mode and mismatches the grid.
    ("oracle", "--alpha", "0", "--grid", "1023", "--count", "9", "--x0", "real:0.125"),
)


def _known_failure(argv: Sequence[str]) -> bool:
    site = _option(argv, "--x0")
    count = _option(argv, "--count")
    if argv[0] == "spectrum":
        return site == "real:0.2" and count == "8"
    if argv[0] == "oracle":
        return site == "real:0.125" and count is not None and int(count) >= 8
    return False


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output check needs."""

    argv: Tuple[str, ...]
    kind: str
    params: Dict[str, object] = field(default_factory=dict)


def _option(argv: Sequence[str], name: str) -> Optional[str]:
    for i, arg in enumerate(argv[:-1]):
        if arg == name:
            return argv[i + 1]
    return None


def _num(value: float) -> str:
    return repr(float(value))


def site_value(site: str, L: float = 1.0) -> float:
    """Position x0 of a site spec, as deltabox.cli.parse_x0 defines it."""
    kind, body = site.split(":")
    if kind == "rational":
        p, q = body.split("/")
        return float(Fraction(int(p), int(q))) * L / 2
    return float(body)


def _site_fraction(site: str) -> Optional[Fraction]:
    """p/q of L/2 for rational sites and for reals that are exact twins."""
    kind, body = site.split(":")
    if kind == "rational":
        p, q = body.split("/")
        return Fraction(int(p), int(q))
    if site in TWIN_SITES:
        return Fraction(body) * 2
    return None


def _lattice_points(site: str, nu_max: float, L: float = 1.0) -> List[float]:
    """Under, over and free-mode wave numbers up to nu_max."""
    x0 = site_value(site, L)
    out = []
    for width in (L / 2 + x0, L / 2 - x0, L):
        step = 2 * math.pi / width
        out.extend(step * k for k in range(1, int(nu_max / step) + 2))
    return out


def _away_from_lattice(rng: random.Random, site: str, lo: float, hi: float) -> float:
    """Uniform draw in [lo, hi] at least 1% of 2 pi / L from any lattice point."""
    gap = 0.01 * 2 * math.pi
    points = _lattice_points(site, hi)
    while True:
        nu = rng.uniform(lo, hi)
        if all(abs(nu - p) >= gap for p in points):
            return nu


def _counts(total: int, shares: Sequence[float]) -> List[int]:
    """Split `total` into integer class counts with the given shares."""
    counts = [int(total * s) for s in shares]
    counts[0] += total - sum(counts)
    return counts


def _cycle(values: Sequence, n: int) -> List:
    return [values[i % len(values)] for i in range(n)]


def _draw(rng: random.Random, make: Callable[[random.Random], Request]) -> Request:
    while True:
        req = make(rng)
        if not _known_failure(req.argv):
            return req


# ============================================================
# tables: the gallery's closed-form commands
# ============================================================

# Point queries cost about 3 ms (parser building and CSV emission dominate),
# mid-size tables 3-25 ms, sweeps 5-90 ms.  The shares keep the median inside
# the point class and p90 in the middle points group of the sweep class.
_TABLES_SHARES = (0.68, 0.12, 0.20)
_SWEEP_POINTS = (401, 1201, 2001, 3001, 4001)


def _tables_point(rng: random.Random, which: int) -> Request:
    site = rng.choice(TABLE_SITES)
    if which == 2:
        n = 2 * rng.randrange(0, 40) + 1
        return Request(("amplitude", "--n", str(n), "--x0", site), "point")
    cmd = ("ratio", "expectation")[which]
    nu = rng.uniform(-3000.0, -600.0) if rng.random() < 0.2 else rng.uniform(-60.0, 100.0)
    return Request((cmd, "--nu", _num(nu), "--x0", site), "point")


def _tables_mid(rng: random.Random, which: int) -> Request:
    site = rng.choice(TABLE_SITES)
    if which == 0:
        count = rng.randint(4, 12)
        alpha = rng.uniform(-1000.0, 1000.0)
        argv = ("spectrum", "--alpha", _num(alpha), "--count", str(count), "--x0", site)
    elif which == 1:
        argv = ("partition", "--nu-max", _num(rng.uniform(50.0, 5000.0)), "--x0", site)
    elif which == 2:
        argv = ("sweep", "--interval", str(rng.randint(0, 8)), "--samples", "64", "--x0", site)
    else:
        nu = _away_from_lattice(rng, site, -60.0, 100.0) if rng.random() < 0.8 else None
        points = str(rng.randint(257, 512))
        if nu is None:
            argv = ("wavefunction", "--nu-mode", str(rng.randint(1, 12)), "--points", points, "--x0", site)
        else:
            argv = ("wavefunction", "--nu", _num(nu), "--points", points, "--x0", site)
    return Request(argv, "mid")


def _tables_sweep(rng: random.Random, points: int, which: int) -> Request:
    # Positive nu costs a lattice lookup per point, so every sweep of one
    # shape has the same positive share: 3/5 of the range, or 1/31 for the
    # deep sweeps that reach the log-space branches.
    site = rng.choice(TABLE_SITES)
    cmd = ("ratio", "expectation")[which % 2]
    if which >= 2:
        depth = rng.uniform(2400.0, 3000.0)
        lo, hi = -depth, depth / 30
    else:
        depth = rng.uniform(40.0, 60.0)
        lo, hi = -depth, 1.5 * depth
    argv = (cmd, "--nu-min", _num(lo), "--nu-max", _num(hi), "--points", str(points), "--x0", site)
    return Request(argv, "sweep")


def tables_requests(rng: random.Random, total: int) -> List[Request]:
    n_point, n_mid, n_sweep = _counts(total, _TABLES_SHARES)
    reqs = [_draw(rng, lambda r, w=w: _tables_point(r, w)) for w in _cycle(range(3), n_point)]
    reqs += [_draw(rng, lambda r, w=w: _tables_mid(r, w)) for w in _cycle(range(4), n_mid)]
    # Shapes (ratio or expectation, shallow or deep) cycle with period 4 and
    # points with period 5, so every points value meets every shape.
    reqs += [
        _draw(rng, lambda r, p=p, w=i % 4: _tables_sweep(r, p, w))
        for i, p in enumerate(_cycle(_SWEEP_POINTS, n_sweep))
    ]
    return reqs


# ============================================================
# fourier: coefficient tables and partial sums
# ============================================================

# Coefficient tables take 3-40 ms and partial sums 0.1-0.4 s.  With a fifth
# of the requests summing, the median falls in the middle M group of the
# tables and p90 in the middle points group of the sums.  Sums use M = 2048,
# the order at which test_fourier bounds the reconstruction error; tables
# stay at M >= 1024, where the Parseval defect is below 1e-3 down to nu = -800.
_FOURIER_SHARES = (0.80, 0.20)
_TABLE_ORDERS = (1024, 2048, 4096, 16384)
_SUM_ORDER = 2048
_SUM_POINTS = (65, 161, 257)


def _limit_state(rng: random.Random) -> Tuple[Tuple[str, ...], Dict[str, object]]:
    """A hat, under or over limit with an index valid for its site."""
    while True:
        site = rng.choice(TABLE_SITES)
        frac = _site_fraction(site)
        kind = rng.choice(("hat", "under", "over"))
        if kind == "hat":
            # Real sites have no shared lattice in deltabox, twins included.
            if not site.startswith("rational:"):
                continue
            p, q = frac.numerator, frac.denominator
            base = q if p % 2 and q % 2 else 2 * q
            if base > 24:
                continue
            n = base * rng.randint(1, 24 // base)
            return (
                ("--limit", "hat", "--nu-mode", str(n), "--x0", site),
                {"site": site, "limit": "hat", "n": n},
            )
        index = rng.randint(1, 6)
        if frac is not None:
            # Skip indices on the shared lattice: deltabox raises InK for a
            # rational site and divides by zero for its real twin.
            width = (1 + frac) if kind == "under" else (1 - frac)
            if (index * 2 / width).denominator == 1:
                continue
        side = rng.choice(("below", "above")) if kind == "under" else "below"
        flag = "--k" if kind == "under" else "--l"
        argv = ("--limit", kind, flag, str(index), "--x0", site)
        if kind == "under":
            argv += ("--side", side)
        return argv, {"site": site, "limit": kind, "index": index, "side": side}


def _general_state(rng: random.Random, branch: str, deepest: float) -> Tuple[Tuple[str, ...], Dict[str, object]]:
    site = rng.choice(TABLE_SITES)
    if branch == "zero":
        nu = 0.0
    elif branch == "hyper":
        nu = rng.uniform(deepest, -0.5)
    else:
        nu = _away_from_lattice(rng, site, 0.5, 90.0)
    return ("--nu", _num(nu), "--x0", site), {"site": site, "nu": nu}


def _state(rng: random.Random, kind: str, deepest: float) -> Tuple[Tuple[str, ...], Dict[str, object]]:
    return _limit_state(rng) if kind == "limit" else _general_state(rng, kind, deepest)


# Period 7 against the periods 4 (orders) and 3 (points): every size meets
# every kind of state.
_STATE_KINDS = ("limit", "hyper", "trig", "limit", "hyper", "trig", "zero")


def _fourier_table(rng: random.Random, M: int, kind: str) -> Request:
    state, params = _state(rng, kind, -800.0)
    return Request(("fourier", "--M", str(M)) + state, "table", dict(params, M=M))


def _fourier_sum(rng: random.Random, points: int, kind: str) -> Request:
    # Below nu = -100 the kink at the site needs far more than M = 2048
    # terms, so deeper states appear only as coefficient tables.
    state, params = _state(rng, kind, -100.0)
    argv = ("fourier", "--M", str(_SUM_ORDER), "--sum-points", str(points)) + state
    return Request(argv, "sum", dict(params, M=_SUM_ORDER, points=points))


def fourier_requests(rng: random.Random, total: int) -> List[Request]:
    n_table, n_sum = _counts(total, _FOURIER_SHARES)
    kinds = _cycle(_STATE_KINDS, total)
    reqs = [
        _draw(rng, lambda r, M=M, k=k: _fourier_table(r, M, k))
        for M, k in zip(_cycle(_TABLE_ORDERS, n_table), kinds)
    ]
    reqs += [
        _draw(rng, lambda r, p=p, k=k: _fourier_sum(r, p, k))
        for p, k in zip(_cycle(_SUM_POINTS, n_sum), kinds[n_table:])
    ]
    return reqs


# ============================================================
# oracle: the finite-difference cross-check
# ============================================================

# A round is fifteen requests: each grid size once with each (coupling,
# count) pair.  The pairs are those of criterion 10 and test_oracle (free
# well 6 levels, coupling 5 with 5, the deep bound state alone, 9 levels at
# coupling 1000 for the shared-lattice mode) plus coupling -5 with 4.  A
# solve's cost depends on N, on the count and, through the number of
# bisection passes, on the coupling, so with the mix fixed the median
# request (the middle N = 2047 solve) is of the same kind on every seed.
# The seed draws the sites and the order.
_ORACLE_CASES = ((0.0, 6), (5.0, 5), (-5.0, 4), (1000.0, 9), (-1000.0, 1))
_ORACLE_ROUND = len(ORACLE_GRIDS) * len(_ORACLE_CASES)


def _oracle_request(rng: random.Random, N: int, alpha: float, count: int) -> Request:
    site = rng.choice(ORACLE_SITES)
    argv = ("oracle", "--alpha", _num(alpha), "--grid", str(N), "--count", str(count), "--x0", site)
    return Request(argv, f"N{N}", {"alpha": alpha, "N": N, "count": count})


def oracle_requests(rng: random.Random, total: int) -> List[Request]:
    reqs = []
    for _ in range(max(1, total // _ORACLE_ROUND)):
        for N in ORACLE_GRIDS:
            for alpha, count in _ORACLE_CASES:
                reqs.append(_draw(rng, lambda r: _oracle_request(r, N, alpha, count)))
    return reqs


_GENERATORS = {
    "tables": tables_requests,
    "fourier": fourier_requests,
    "oracle": oracle_requests,
}


def list_length(workload: str, seconds: float) -> int:
    if workload == "oracle":
        rounds = round(seconds * REQUESTS_PER_SECOND["oracle"] / _ORACLE_ROUND)
        return _ORACLE_ROUND * max(1, rounds)
    return max(1, round(seconds * REQUESTS_PER_SECOND[workload]))


def build_requests(workload: str, seed: int, seconds: float) -> List[Request]:
    """The seeded request list of one run, in the order it is sent."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _GENERATORS[workload](rng, list_length(workload, seconds))
    rng.shuffle(reqs)
    return reqs
