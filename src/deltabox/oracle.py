"""Finite-difference cross-check of the analytic spectrum.

Discretizing the box on a uniform interior grid turns the Hamiltonian into a
symmetric tridiagonal matrix; the point interaction becomes a single
diagonal weight alpha/dx at the node holding x0.  The eigensolver here is
deliberately self-contained (Sturm counts to isolation, then bracketed
Newton on the same recurrence, plus eigenvectors from twisted
factorizations in the manner of LAPACK dlar1v) so that the oracle shares
no code path, and no third-party solver, with the analytic side it
validates.

Both recurrences are inherently sequential over the N grid nodes, so they
run on Python floats with the standard library alone; vector work goes
through C-level builtins (map, max, math.hypot).  Couplings that are
exactly zero split T into blocks, each solved on its own as in LAPACK
dstebz; a grid Hamiltonian is one block.  In a block each eigenvalue is
solved on its own, in order, and all of them share one table of Sturm
counts.  A count-only pass (the pivot recurrence without its slope, about
half a full pass) serves every pass that is read only for its count: each
eigenvalue is isolated with such passes, and only the Newton steps that
follow run the full pass.  One bracket test ends a level in both phases,
and a block's pass budget is two passes a halving of its Gershgorin
width, plus `_NEWTON_PASSES`.  Every eigenvalue is solved before
`eig_lowest` returns; each eigenvector is computed when its pair is drawn
from the iterator it returns, and `compare` draws one pair per level, so
the oracle holds one eigenvector at a time and its working set is O(N)
whatever the count.
Every eigenpair must pass a residual check max|T v - lambda v| <= 1e-10 *
max|T_ij| * max|v|, else ConvergenceError; max|T_ij| is max|diag| for
every grid Hamiltonian.

Accuracy expectations: O(dx**2) for smooth states, degrading to O(dx) when
the interaction is on (the delta weight is a first-order approximation), so
comparisons pin tolerances accordingly.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, chain, islice, repeat
from operator import add, mul, sub, truediv
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from .errors import ConvergenceError, DomainError, GridMismatch
from .lattice import POINT_BUDGET
from .model import Setup, energy_from_nu, nu_n, phi_mode_grid
from .spectrum import analytic_levels
from .wavefn import general_state


class Tridiagonal(NamedTuple):
    """Symmetric tridiagonal interior discretization of the Hamiltonian."""

    diag: List[float]
    offdiag: List[float]
    N: int
    dx: float


class LevelComparison(NamedTuple):
    """Analytic level versus oracle level, with relative errors."""

    index: int
    nu: float
    is_mode: bool
    analytic_energy: float
    oracle_energy: float
    rel_energy_error: float
    sup_wave_error: float


class OracleComparison(NamedTuple):
    levels: List[LevelComparison]
    max_rel_energy_error: float
    max_sup_wave_error: float


# ============================================================
# Discretization
# ============================================================


def _site_node(setup: Setup, N: int) -> int:
    """1-based grid node carrying the interaction site, from its exact fraction."""
    p, q = setup.p, setup.q
    num, den = (N + 1) * (p + q), 2 * q
    if num % den:
        raise GridMismatch(
            f"x0 is off-grid for N={N}; choose a grid with the site on a node: "
            f"N+1 a multiple of {den // math.gcd(p + q, den)}"
        )
    return num // den


def build_hamiltonian(setup: Setup, alpha: float, N: int) -> Tridiagonal:
    """Interior tridiagonal matrix of the discretized Hamiltonian.

    Dirichlet walls are eliminated; the interaction contributes alpha/dx on
    the diagonal at the node holding x0.  The site must land on a grid node
    exactly, by its fraction p/q (site_fraction's for a real site).  An
    alpha/dx beyond float range raises OverflowError.
    """
    if N < 16:
        raise DomainError(f"N must be >= 16, got {N!r}")
    if N > POINT_BUDGET:
        raise DomainError(f"grid size N (--grid) = {N} is beyond the budget of {POINT_BUDGET:.0e}")
    dx = setup.L / (N + 1)
    j = _site_node(setup, N)
    if j < 1 or j > N:
        raise GridMismatch(f"x0 lands on a wall node for N={N}")
    if dx**2 == 0.0:
        raise ZeroDivisionError(f"the squared grid spacing dx**2 underflows to 0 at L = {setup.L!r}")
    weight = alpha / dx
    if math.isinf(weight):
        raise OverflowError(
            f"alpha/dx exceeds float range at alpha (--alpha) = {alpha!r}, dx = {dx!r}"
        )
    diag = [2 * setup.c / dx**2] * N
    diag[j - 1] += weight
    offdiag = [-setup.c / dx**2] * (N - 1)
    return Tridiagonal(diag, offdiag, N, dx)


# ============================================================
# Sturm-sequence bisection and twisted factorizations
# ============================================================


def _pivmin(e2: List[float]) -> float:
    """Smallest pivot magnitude the Sturm recurrence may divide by."""
    safmin = sys.float_info.min
    return max(max(e2, default=0.0) * safmin, safmin)


def _sturm(d: List[float], e2: List[float], shift: float, pivmin: float) -> Tuple[int, float]:
    """Eigenvalues strictly below `shift`, and d/dshift log|det(T - shift)|.

    Runs the LDL^T pivot recurrence q_i = d_i - shift - e2_i / q_{i-1} on
    Python floats; pivots with magnitude below pivmin are clamped to -pivmin
    before they are counted or divided by, which keeps the count exact in the
    presence of underflow.  The slope s_i of each leading block follows the
    determinant recurrence divided through by the determinant, s_i =
    ((d_i - shift) s_{i-1} - 1 - e2_i s_{i-2} / q_{i-1}) / q_i, which unlike a
    sum of per-pivot terms does not cancel where a pivot nears zero.  A
    clamped pivot makes the slope nan: the shift is then an eigenvalue of a
    leading block to rounding, where the recurrence gives no slope of T.
    """
    q = d[0] - shift
    count = 0
    clamped = False
    if q < pivmin:
        if q > -pivmin:
            q, clamped = -pivmin, True
        count = 1
    slope, before = -1.0 / q, 0.0
    for di, e2i in zip(islice(d, 1, None), e2):
        a = di - shift
        t = e2i / q
        q = a - t
        if q < pivmin:
            if q > -pivmin:
                q, clamped = -pivmin, True
            count += 1
        slope, before = (a * slope - 1.0 - t * before) / q, slope
    return count, math.nan if clamped else slope


def _sturm_count(d: List[float], e2: List[float], shift: float, pivmin: float) -> int:
    """Eigenvalues strictly below `shift`: `_sturm`'s pivot recurrence and
    pivmin clamp without the slope, for the passes read only for their count
    (about half the cost of a full pass)."""
    q = d[0] - shift
    count = 0
    if q < pivmin:
        if q > -pivmin:
            q = -pivmin
        count = 1
    for di, e2i in zip(islice(d, 1, None), e2):
        q = di - shift - e2i / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count


# Passes allowed to _bisect's Newton phase on top of two passes a halving.
# Once an eigenvalue is isolated Newton converges quadratically; no oracle
# test or benchmark request takes more than 20 steps.
_NEWTON_PASSES = 64


def _midpoint(lo: float, hi: float) -> float:
    """0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where that sum overflows (ends
    of one sign beyond half the float range)."""
    mid = 0.5 * (lo + hi)
    return 0.5 * lo + 0.5 * hi if math.isinf(mid) else mid


def _bisect(
    d: List[float],
    e2: List[float],
    pivmin: float,
    k: int,
    counts: Dict[float, int],
    bounds: Tuple[float, float],
    rounding: float,
    budget: int,
) -> float:
    """k-th smallest eigenvalue (1-based) of an unreduced block of T.

    `counts` maps each shift passed so far to its count; with the Gershgorin
    `bounds` (counts 0 and N) its nearest shifts with count below k and at
    least k bracket lambda_k.  Count-only passes (`_sturm_count`) narrow the
    bracket until lambda_k is alone in it, each aimed at the gap next to
    lambda_k not yet bracketed, with the level index interpolated linearly
    in sqrt(shift - lower bound) (the k**2 law of the grid Laplacian); a
    split that did not halve the bracket is followed by the midpoint.  Then
    Newton on det(T - shift) steps from the estimate of lambda_k on full
    passes (`_sturm`; Barth, Martin & Wilkinson 1967; Li & Zeng 1994); a
    step that leaves the bracket, or exceeds half the step of two passes
    before, is a midpoint instead.  Every count enters `counts`.

    One bracket test ends both phases, at the midpoint: the midpoint cannot
    split the bracket, or it is no wider than max(`rounding`, eps *
    max(|lo|, |hi|)).  Newton also ends at a step within 1e-8 of the shift,
    and at most a quarter of the one before, whose predicted error, step**3
    / (previous step)**2, is within `rounding`.  More than `budget` passes
    raise ConvergenceError.
    """
    origin, top = bounds
    hi, below_hi = min(((x, c) for x, c in counts.items() if c >= k), default=(top, len(d)))
    lo, below_lo = max(
        ((x, c) for x, c in counts.items() if c < k and x < hi), default=(origin, 0)
    )

    def at(level: float) -> float:
        # The shift at a level index, linear in sqrt(shift - origin) between
        # the ends: a shift with count c lies in the gap at index c + 1/2,
        # and the bounds at 0 and N + 1.
        j_lo = below_lo + 0.5 if lo > origin else 0.0
        j_hi = below_hi + 0.5 if hi < top else len(d) + 1.0
        root_lo, root_hi = math.sqrt(lo - origin), math.sqrt(hi - origin)
        root = root_lo + (root_hi - root_lo) * (level - j_lo) / (j_hi - j_lo)
        return origin + root * root

    def settled(mid: float) -> bool:
        tolerance = max(rounding, sys.float_info.epsilon * max(abs(lo), abs(hi)))
        return mid in (lo, hi) or hi - lo <= tolerance

    x = _midpoint(lo, hi)
    passes, before = 0, math.inf
    while True:
        mid = _midpoint(lo, hi)
        if settled(mid):
            return mid
        if (below_lo, below_hi) == (k - 1, k) or passes == budget:
            break
        x = mid
        if hi - lo <= 0.5 * before:
            # The gap below lambda_k while that is not bracketed, else the gap above.
            guess = at(k - 0.5 if below_lo < k - 1 else k + 0.5)
            if lo < guess < hi:
                x = guess
        before = hi - lo
        passes += 1
        below = counts[x] = _sturm_count(d, e2, x, pivmin)
        if below >= k:
            hi, below_hi = x, below
        else:
            lo, below_lo = x, below
    guess = at(k)  # Newton starts at lambda_k's estimate, else at the last split
    if lo < guess < hi:
        x = guess
    step = older = hi - lo
    converging = False  # whether step was a Newton step
    while passes < budget:
        passes += 1
        below, slope = _sturm(d, e2, x, pivmin)
        counts[x] = below
        if below >= k:
            hi = x
        else:
            lo = x
        mid = _midpoint(lo, hi)
        if settled(mid):
            return mid
        # An infinite slope gives a zero step and a nan one (a clamped pivot)
        # no step; neither is taken.
        newton = -1.0 / slope if slope else math.inf
        target = x + newton
        if 0 < abs(newton) <= 0.5 * abs(older) and lo < target < hi:
            # While Newton converges quadratically (this step at most a quarter
            # of the last), newton**3 / step**2 predicts the error of this one;
            # into a near-double level it converges linearly, and that falls short.
            predicted = abs(newton * newton * newton)  # times step**-2
            fast = converging and 4 * abs(newton) <= abs(step)
            if fast and abs(newton) <= 1e-8 * abs(x) and predicted <= rounding * step * step:
                return target
            older, step, converging = step, newton, True
        else:
            older, step, converging = step, mid - x, False
        x += step
    raise ConvergenceError(
        f"eigenvalue {k} did not converge in {budget} Sturm passes, "
        f"left bracket ({lo!r}, {hi!r})"
    )


def _solve_block(d: List[float], e: List[float], count: int) -> Tuple[List[float], float]:
    """Lowest `count` eigenvalues of one unreduced block, in order, and the
    pivot floor of its eigenvectors.  The levels share one table of Sturm
    counts, so each starts from the tightest bracket the lower ones left."""
    abs_e = list(map(abs, e))
    radius = list(map(add, chain(abs_e, (0.0,)), chain((0.0,), abs_e)))
    lo_bound = min(map(sub, d, radius))
    hi_bound = max(map(add, d, radius))
    width = hi_bound - lo_bound
    lo = lo_bound - 1e-12 * width
    hi = hi_bound + 1e-12 * width
    # The rounding of T, with its largest row left out: one outlying row,
    # such as a huge coupling weight, moves the levels it carries relative
    # to their own size, and leaves the others' resolution as it was.
    rows = list(map(add, map(abs, d), radius))
    largest = max(rows)
    rows.remove(largest)
    rounding = sys.float_info.epsilon * max(rows, default=largest)
    e2 = list(map(mul, e, e))
    pivmin = _pivmin(e2)
    # Bisection halves the bracket at most until its width reaches the
    # spacing of doubles at the Gershgorin bound nearer zero, and a split
    # that did not halve it is followed by a midpoint: two passes a halving.
    spacing = min(math.ulp(lo_bound), math.ulp(hi_bound))
    budget = 2 * max(math.frexp(hi - lo)[1] - math.frexp(spacing)[1], 0) + _NEWTON_PASSES
    counts: Dict[float, int] = {}
    values = [
        _bisect(d, e2, pivmin, k, counts, (lo, hi), rounding, budget) for k in range(1, count + 1)
    ]
    return values, max(rounding, pivmin)


def eig_lowest(T: Tridiagonal, count: int) -> Iterator[Tuple[float, List[float]]]:
    """Lowest `count` eigenpairs of the tridiagonal matrix, in ascending order.

    Each coupling that is exactly 0.0 splits T into independent blocks, as
    in LAPACK's dstebz (Demmel, Applied Numerical Linear Algebra, SIAM
    1997, section 5.3).  `_solve_block` solves each block's lowest levels
    on their own, and the lowest `count` over all blocks are kept; a T with
    no zero coupling, as every grid Hamiltonian, is one block and is not
    copied.  A bad `count` raises DomainError, and a level out of Sturm
    passes ConvergenceError, before the call returns.

    The result is an iterator, and each eigenvector is computed only when
    its pair is drawn, so one vector is held at a time and the working set
    stays O(N) whatever `count` is.  An eigenvector is its block's twisted
    factorization of T - lambda I (`_twisted_vector`) padded with zeros,
    normalized so that sum(v**2) * dx = 1 and positive at the last node
    carrying appreciable amplitude.  A pair whose residual on T, max|T v -
    lambda v|, exceeds 1e-10 * max|T_ij| * max|v|, or whose v has no finite
    nonzero norm, raises ConvergenceError when it is drawn.
    """
    if count < 1 or count > 12:
        raise DomainError(f"count must be in 1..12, got {count!r}")
    if count > T.N:
        raise DomainError(f"count={count} exceeds matrix size N={T.N}")
    d, e = T.diag, T.offdiag
    cuts = [i + 1 for i, ei in enumerate(e) if ei == 0.0] if 0.0 in e else []
    levels = []
    for start, end in zip([0, *cuts], [*cuts, T.N]):
        block = (d[start:end], e[start : end - 1]) if cuts else (d, e)
        values, tiny = _solve_block(*block, min(count, end - start))
        levels += [(lam, start, end, tiny) for lam in values]
    levels.sort()
    residual_scale = 1e-10 * max(max(map(abs, d)), max(map(abs, e), default=0.0))
    # The blocks die with this call; each vector is made as it is drawn.
    return (_eigenpair(T, *level, residual_scale) for level in levels[:count])


def _eigenpair(
    T: Tridiagonal, lam: float, start: int, end: int, tiny: float, residual_scale: float
) -> Tuple[float, List[float]]:
    """(lam, v) for `eig_lowest`: v from `_twisted_vector` on lam's block,
    rows start..end-1, padded with zeros; residual-checked on T, normalized
    and signed."""
    d, e = T.diag, T.offdiag
    if end - start == T.N:
        v = _twisted_vector(d, e, lam, tiny)
    else:
        v = _twisted_vector(d[start:end], e[start : end - 1], lam, tiny)
        v = [0.0] * start + v + [0.0] * (T.N - end)
    vmax = max(map(abs, v))
    # (T - lam I) v in one pass: e[i-1] v[i-1] + (d[i] - lam) v[i] + e[i] v[i+1].
    below = chain((0.0,), map(mul, e, v))
    above = chain(map(mul, e, islice(v, 1, None)), (0.0,))
    residual = max([abs(b + (di - lam) * vi + a) for b, di, vi, a in zip(below, d, v, above)])
    # hypot carries a nan or inf of v into norm; max, above, may skip a nan.
    norm = math.hypot(*v) * math.sqrt(T.dx)
    if not (residual <= residual_scale * vmax and 0.0 < norm < math.inf):
        raise ConvergenceError(
            f"the eigenvector solve left residual {residual:.3e} at eigenvalue {lam!r}"
        )
    cutoff = 1e-8 * vmax
    if next(x for x in reversed(v) if abs(x) > cutoff) < 0:
        norm = -norm
    return lam, list(map(truediv, v, repeat(norm)))


def _pivots(d: Iterable[float], e: Iterable[float], lam: float, tiny: float) -> List[float]:
    """Pivots of T - lam*I in the order d is given: `_sturm_count`'s
    recurrence, with a pivot of magnitude below `tiny` taken as -tiny."""
    pivots: List[float] = []
    q = 1.0
    for di, ei in zip(d, chain((0.0,), e)):
        q = di - lam - ei * ei / q
        if q < tiny:
            if q > -tiny:
                q = -tiny
        pivots.append(q)
    return pivots


def _outward(p: List[float], c: List[float], y: float, rhs: Iterable[float]) -> List[float]:
    """y_k = (rhs_k - c_k y_(k-1)) / p_k for k = 1, 2, ..., from y_0 = y: a
    solve with one side of N_r^T, from the twist outward."""
    out: List[float] = []
    for pk, ck, bk in zip(p, c, rhs):
        y = (bk - ck * y) / pk
        out.append(y)
    return out


def _inward(p: List[float], c: List[float], z: List[float]) -> List[float]:
    """w_k = z_k - (c_(k+1) / p_(k+1)) w_(k+1), from the far end in: a solve
    with one side of N_r."""
    w: List[float] = []
    wk = m = 0.0
    for zk, pk, ck in zip(reversed(z), reversed(p), reversed(c)):
        wk = zk - m * wk
        m = ck / pk
        w.append(wk)
    w.reverse()
    return w


def _twisted_vector(d: List[float], e: List[float], lam: float, tiny: float) -> List[float]:
    """Eigenvector of T at lam from one twisted factorization, 0.5 <= max|v| < 1.

    T - lam*I = N_r Delta_r N_r^T joins the top-down pivots above row r to
    the bottom-up pivots below it, with gamma_r = top_r + bottom_r - (d_r -
    lam) at the twist (Fernando 1997; Parlett & Dhillon 2000; LAPACK
    dlar1v).  The twist is the row with the smallest |gamma_r|, where the
    eigenvector is largest.  z = N_r^-T e_r solves (T - lam*I) z = gamma_r
    e_r, and one more solve with the same factors, y = gamma_r (T -
    lam*I)^-1 z, sharpens it (at gamma_r = 0 it is w_r z).  Every pivot is
    floored at `tiny` (the larger of the rounding of T and pivmin), which
    moves T by no more than its rounding and bounds every multiplier: no
    row is swapped, and nothing is rescaled before the end.
    """
    top = _pivots(d, e, lam, tiny)
    bottom = _pivots(reversed(d), reversed(e), lam, tiny)
    bottom.reverse()
    # log2|gamma_r| up to a constant, from gamma_(r+1) / gamma_r = bottom_(r+1)
    # / top_r.  The sum that defines gamma_r cancels to rounding, and to exact
    # zeros wherever both recurrences sit at their fixed points (the tails of
    # a deep bound state, where a twist far out overflows z); the ratios do not.
    rise = map(
        sub, map(math.log2, map(abs, islice(bottom, 1, None))), map(math.log2, map(abs, top))
    )
    log_gamma = list(accumulate(rise, initial=0.0))
    r = log_gamma.index(min(log_gamma))
    del log_gamma
    gamma = top[r] + bottom[r] - (d[r] - lam)
    # Each side of r as (pivots, couplings), ordered outward from r: the
    # pivots are Delta_r's there, and c_k / p_k are N_r's multipliers.
    sides = [(top[:r][::-1], e[:r][::-1]), (bottom[r + 1 :], e[r:])]
    del top, bottom
    # z = N_r^-T e_r outward from z_r = 1, then N_r w = z inward; w_r takes
    # both sides.
    ws = [_inward(p, c, _outward(p, c, 1.0, repeat(0.0))) for p, c in sides]
    w_r = 1.0 - math.fsum(c[0] / p[0] * w[0] for (p, c), w in zip(sides, ws) if w)
    # N_r^T y = gamma_r Delta_r^-1 w, outward from y_r = w_r.
    up, down = [_outward(p, c, w_r, map(mul, w, repeat(gamma))) for (p, c), w in zip(sides, ws)]
    del ws
    v = up[::-1] + [w_r] + down
    # An exact power-of-two rescaling: dividing by max|v| itself rounds
    # every entry and measurably doubles the error of near-degenerate pairs.
    exponent = math.frexp(max(map(abs, v)))[1]
    return list(map(math.ldexp, v, repeat(-exponent)))


# ============================================================
# Comparison with the closed forms
# ============================================================


def compare(setup: Setup, alpha: float, N: int, count: int) -> OracleComparison:
    """Lowest `count` levels: analytic closed forms versus the grid oracle.

    Reports, per level, the relative eigenvalue error and the sup-norm
    eigenvector discrepancy (relative to the eigenfunction's amplitude) on
    the interior nodes.  Each level draws its eigenpair from `eig_lowest`
    and keeps only its LevelComparison, so one eigenvector and one sampled
    state are held at a time.
    """
    T = build_hamiltonian(setup, alpha, N)
    pairs = eig_lowest(T, count)
    levels = analytic_levels(setup, alpha, count)
    xs = list(map(add, repeat(-setup.L / 2, N), map(mul, range(1, N + 1), repeat(T.dx))))
    out: List[LevelComparison] = []
    for idx, (nu, is_mode) in enumerate(levels, start=1):
        lam, vec = next(pairs)
        energy = energy_from_nu(setup, nu)
        scale = max(abs(energy), abs(lam), setup.c * (math.pi / setup.L) ** 2)
        rel_energy = abs(lam - energy) / scale
        if is_mode:
            psi = phi_mode_grid(setup, round(nu / nu_n(setup, 1)), xs)
        else:
            psi = general_state(setup, nu).sample(xs)
        # eig_lowest signs v by its last node above 1e-8 max|v|, which can lie
        # left of a strongly coupled state's right compartment: align it to
        # psi, by |-v - psi| = |v + psi|.
        align = add if sum(map(mul, vec, psi)) < 0 else sub
        sup_wave = max(map(abs, map(align, vec, psi))) / max(map(abs, psi))
        out.append(LevelComparison(idx, nu, is_mode, energy, lam, rel_energy, sup_wave))
        del vec, psi  # released before the next pair is drawn
    return OracleComparison(
        out,
        max(lv.rel_energy_error for lv in out),
        max(lv.sup_wave_error for lv in out),
    )
