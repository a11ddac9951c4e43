"""Singular wave-number lattices and the interval partition they induce.

Two lattices matter: wave numbers where a half-integer number of waves fits
exactly into the left sub-box (an "under" point, index k) and where it fits
into the right sub-box (an "over" point, index l).  Their union partitions
the positive axis into open intervals on which the dispersion relation is a
strictly increasing bijection onto R; their intersection (the shared points)
hosts free-well modes that vanish at x0 and are therefore unaffected by the
interaction strength.

Every Setup carries one exact fraction x0 = (p/q)(L/2) (see model), so for
every site the lattice positions are rational multiples of 2 pi / L: in
those units, where the n-th free mode sits exactly at integer n, the k-th
under point is 2kq/(q+p) and the l-th over point is 2lq/(q-p).  Every
coincidence and ordering question is decided in integer arithmetic (under
point k and over point l coincide when k(q-p) = l(q+p)), and positions
become floats only as (2kq)/(q+p) * (2 pi / L), where Python's int/int
division rounds correctly (the lazy walk `intervals` makes each point and
its interval from them, as far as each caller draws).

Two radii around lattice points, each with its own job:

* ON_LATTICE_RTOL (1e-9, relative to the point, capped at 1e-3 of the
  first under point, the smaller lattice step, so that at large nu it
  never spans a gap): nu counts as sitting on the point (lattice_locator,
  bound to a setup once, the only on-lattice test).  The compartment rows
  return their limit values there, and on a shared point the general
  state is the continuous limit state, built for exactly those values.
  A locator keeps the gap around its last miss: a sweep searches once a
  gap.
* singular_guard_radius (1e-12 of the first under point, absolute): the
  dispersion function refuses to evaluate its poles closer than this.

Interval case tags follow the bounding-point kinds: G for the unbounded
leftmost interval, then A (under, under), B (under, over), C (over, under),
D (both, both), E (both, under), F (under, both).  Free modes never sit at a
one-sided lattice point, so a mode is either interior to an interval (its
contains_mode) or a shared point.
"""

from __future__ import annotations

import math
from itertools import count, takewhile
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import DomainError
from .model import Setup

ON_LATTICE_RTOL = 1e-9

# Most lattice points partition builds.  A point with its interval takes
# about 305 bytes (tracemalloc over an 87 501-point partition), so a
# partition at the budget holds about 300 MB.
POINT_BUDGET = 10**6

_CASE_BY_KINDS = {
    ("under", "under"): "A",
    ("under", "over"): "B",
    ("over", "under"): "C",
    ("both", "both"): "D",
    ("both", "under"): "E",
    ("under", "both"): "F",
}

# ======================================================================
# Types
# ======================================================================


class LatticePoint(NamedTuple):
    """A singular wave number with its provenance.

    kind is "under" (left sub-box, index k), "over" (right sub-box, index l)
    or "both" (shared; then nu equals the free-mode value nu_{k+l}).
    """

    nu: float
    kind: str
    k: Optional[int] = None
    l: Optional[int] = None


class IntervalDescriptor(NamedTuple):
    """An open interval between consecutive lattice points.

    lower is None for the unbounded leftmost interval.  contains_mode is the
    index n of the free mode strictly inside the interval, if any.  Intervals
    are numbered from 0 (the unbounded one) upward.
    """

    index: int
    lower: Optional[LatticePoint]
    upper: LatticePoint
    case_tag: str
    contains_mode: Optional[int]


# ======================================================================
# Individual lattice points
# ======================================================================


def underline_nu(setup: Setup, k: int) -> float:
    """Wave number of the k-th under point, 2 k pi / (L/2 + x0)."""
    if k < 1:
        raise DomainError(f"under index must be >= 1, got k={k}")
    return (2 * k * setup.q) / (setup.q + setup.p) * (2 * math.pi / setup.L)


def overline_nu(setup: Setup, l: int) -> float:
    """Wave number of the l-th over point, 2 l pi / (L/2 - x0)."""
    if l < 1:
        raise DomainError(f"over index must be >= 1, got l={l}")
    return (2 * l * setup.q) / (setup.q - setup.p) * (2 * math.pi / setup.L)


def kappa_base(setup: Setup) -> int:
    """Base index b such that the shared lattice is {m nu_b : m >= 1}.

    For x0 = (p/q)(L/2) in lowest terms, b = q when p and q are both odd and
    b = 2q otherwise (p = 0 counts as even, so a centered interaction gives
    b = 2: every even mode vanishes at the center).  A generic float site
    has q near 1e8 or more, so its shared lattice starts beyond that mode.
    """
    p, q = setup.p, setup.q
    if p % 2 == 1 and q % 2 == 1:
        return q
    return 2 * q


def under_in_shared(setup: Setup, k: int) -> Optional[int]:
    """Over index l of the point the k-th under point shares, or None."""
    num = k * (setup.q - setup.p)
    den = setup.q + setup.p
    return num // den if num % den == 0 else None


def over_in_shared(setup: Setup, l: int) -> Optional[int]:
    """Under index k of the point the l-th over point shares, or None."""
    num = l * (setup.q + setup.p)
    den = setup.q - setup.p
    return num // den if num % den == 0 else None


def under_floor(setup: Setup, k: int) -> int:
    """Exact floor(k L / (L/2 + x0)): free modes at or below the k-th under point."""
    return (2 * k * setup.q) // (setup.q + setup.p)


def _make_point(nu: float, k: Optional[int], l: Optional[int]) -> LatticePoint:
    kind = "over" if k is None else ("under" if l is None else "both")
    return LatticePoint(nu=nu, kind=kind, k=k, l=l)


# ======================================================================
# Partition
# ======================================================================


def intervals(setup: Setup) -> Iterator[IntervalDescriptor]:
    """The partition's intervals in order, each with its upper point, made as
    the caller draws them; coincident under/over points merge into "both"."""
    # Under point k lies below over point l exactly when k (q - p) < l (q + p).
    q, left, right, unit = setup.q, setup.q - setup.p, setup.q + setup.p, 2 * math.pi / setup.L
    lower, lo_num, lo_den = None, 0, 1
    k = l = 1
    for index in count():
        a, b = k * left, l * right
        if a > b:
            num, den = 2 * l * q, left
            point = LatticePoint(num / den * unit, "over", None, l)
            l += 1
        else:  # under, or shared (a == b) with its float from k
            num, den = 2 * k * q, right
            kind, point_l = ("under", None) if a < b else ("both", l)
            point = LatticePoint(num / den * unit, kind, k, point_l)
            k += 1
            l += a == b
        yield _interval(index, lower, lo_num, lo_den, point, num, den)
        lower, lo_num, lo_den = point, num, den


def partition(setup: Setup, nu_max: float) -> tuple[list[LatticePoint], list[IntervalDescriptor]]:
    """Merged, sorted lattice points up to nu_max plus the induced intervals.

    The first point strictly beyond nu_max is included as a closing point so
    the returned intervals cover (-inf, nu_max] completely.  Raises
    DomainError when nu_max L / (2 pi), which bounds the point count,
    exceeds POINT_BUDGET.
    """
    if not (math.isfinite(nu_max) and nu_max > 0):
        raise DomainError(f"nu_max must be positive and finite, got {nu_max}")
    # Up to nu_max lie at most nu_max (L/2 + x0) / (2 pi) under points and
    # nu_max (L/2 - x0) / (2 pi) over points: nu_max L / (2 pi) in all.
    bound = nu_max * setup.L / (2 * math.pi)
    if bound > POINT_BUDGET:
        raise DomainError(
            f"nu_max = {nu_max} allows up to {bound:.3g} lattice points, "
            f"beyond the budget of {POINT_BUDGET:.0e}"
        )
    # Every interval whose lower end lies at or below nu_max.
    taken = list(takewhile(lambda iv: iv.lower is None or iv.lower.nu <= nu_max, intervals(setup)))
    return [iv.upper for iv in taken], taken


def _interval(
    index: int, lower: Optional[LatticePoint], lo_num: int, lo_den: int,
    upper: LatticePoint, hi_num: int, hi_den: int,
) -> IntervalDescriptor:
    # The open interval between consecutive points at exact positions lo_num/
    # lo_den (0/1 for None) and hi_num/hi_den: its case tag from the bounding
    # kinds, and the mode inside, the largest integer strictly below the
    # upper position when it also lies above the lower.
    if lower is None:
        tag = "G"
    else:
        tag = _CASE_BY_KINDS.get((lower.kind, upper.kind))
        if tag is None:
            raise RuntimeError(f"impossible bounding kinds {(lower.kind, upper.kind)}")
    n = (hi_num - 1) // hi_den
    inside = n >= 1 and lo_num < n * lo_den
    return IntervalDescriptor(
        index=index, lower=lower, upper=upper, case_tag=tag, contains_mode=n if inside else None
    )


# ======================================================================
# Lookup
# ======================================================================


def lattice_locator(
    setup: Setup, rtol: float = ON_LATTICE_RTOL
) -> Callable[[float], Optional[LatticePoint]]:
    """The on-lattice test, setup bound once: nu -> the nearest lattice point
    when nu lies within rtol of it (relative to the point), else None.

    A finite radius is capped at 1e-3 of the under step, the smaller
    lattice step: rtol times the point would span whole gaps at large nu.
    The nearest under and over indices k and l are nu over the lattice
    steps, rounded; ties go to the under point, and nu <= 0 has no point.
    The shared-lattice test and the LatticePoint are made only on a hit.
    A miss keeps the gap between the points around nu, each end widened by
    twice its capped radius, and a later nu strictly inside it misses at
    once; every other nu takes the test.  Point floats rise with their
    exact positions, so no point lies in the gap; with rtol = inf nothing
    misses.
    """
    p, q = setup.p, setup.q
    unit = 2 * math.pi / setup.L
    two_q, q_plus, q_minus = 2 * q, q + p, q - p
    under_step, over_step = two_q / q_plus * unit, two_q / q_minus * unit
    cap = 1e-3 * under_step if rtol < math.inf else math.inf
    gap_lo = gap_hi = 0.0

    def locate(nu: float) -> Optional[LatticePoint]:
        nonlocal gap_lo, gap_hi
        if gap_lo < nu < gap_hi or nu <= 0:
            return None
        k = round(nu / under_step) or 1  # nu > 0, so round() >= 0
        l = round(nu / over_step) or 1
        under = (k * two_q) / q_plus * unit
        over = (l * two_q) / q_minus * unit
        to_under, to_over = abs(nu - under), abs(nu - over)
        if to_over < to_under:
            if to_over <= min(rtol * over, cap):
                return _make_point(over, over_in_shared(setup, l), l)
        elif to_under <= min(rtol * under, cap):
            return _make_point(under, k, under_in_shared(setup, k))
        k, l = k - (under > nu), l - (over > nu)  # the points at or below nu
        below = max((k * two_q) / q_plus * unit, (l * two_q) / q_minus * unit)
        above = min(((k + 1) * two_q) / q_plus * unit, ((l + 1) * two_q) / q_minus * unit)
        gap_lo = below + 2 * min(rtol * below, cap)
        gap_hi = above - 2 * min(rtol * above, cap)
        return None

    return locate


def nearest_lattice_point(setup: Setup, nu: float) -> tuple[Optional[LatticePoint], float]:
    """Nearest lattice point to nu and its distance (None, inf for nu <= 0).

    The lookup behind the pole guard: lattice_locator with no radius.  The
    returned point carries full provenance, including shared-point detection.
    """
    point = lattice_locator(setup, math.inf)(nu)
    if point is None:
        return None, math.inf
    return point, abs(nu - point.nu)


def singular_guard_radius(setup: Setup) -> float:
    """Absolute guard radius around lattice points, 1e-12 of the first one."""
    return 1e-12 * underline_nu(setup, 1)
