"""Dispersion relation and coupling-to-wavenumber inversion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltabox import spectrum
from deltabox.errors import SingularPoint
from deltabox.lattice import kappa_base, partition, singular_guard_radius
from deltabox.model import RationalX0, RealX0, make_setup, nu_n
from deltabox.spectrum import alpha_from_nu, analytic_levels, dispersion, solve_nu

from _examples import examples
from _reference import classify_mode


def setup_pq(p, q, L=1.0, c=1.0):
    return make_setup(L=L, x0=RationalX0(p, q), c=c)


def raw_dispersion(setup, nu):
    """Direct textbook evaluation, valid away from poles and from nu = 0."""
    w1, w2 = setup.width_right, setup.width_left
    if nu > 0:
        return (
            -(nu / 2)
            * math.sin(nu * setup.L / 2)
            / (math.sin(nu * w2 / 2) * math.sin(nu * w1 / 2))
        )
    t = -nu
    return (
        -(t / 2)
        * math.sinh(t * setup.L / 2)
        / (math.sinh(t * w2 / 2) * math.sinh(t * w1 / 2))
    ) * (-1.0)


# ======================================================================
# Pointwise values
# ======================================================================


@pytest.mark.parametrize("nu", [0.7, 3.1, 9.0, 23.456, 47.0])
def test_dispersion_matches_raw_formula_oscillatory(nu):
    s = setup_pq(1, 4)
    assert dispersion(s, nu) == pytest.approx(raw_dispersion(s, nu), rel=1e-12)


@pytest.mark.parametrize("nu", [-0.5, -2.0, -17.3, -300.0])
def test_dispersion_matches_raw_formula_evanescent(nu):
    s = setup_pq(3, 4)
    w1, w2 = s.width_right, s.width_left
    t = -nu
    raw = -(nu / 2) * (1 / math.tanh(t * w1 / 2) + 1 / math.tanh(t * w2 / 2)) * (-1.0)
    assert dispersion(s, nu) == pytest.approx(raw, rel=1e-12)


def test_dispersion_value_at_zero_is_the_removable_limit():
    s = setup_pq(1, 4)
    expected = -s.L / (s.width_right * s.width_left)
    assert dispersion(s, 0.0) == pytest.approx(expected, rel=1e-14)


def test_dispersion_series_switch_is_continuous():
    """Values straddling the small-|nu| series threshold agree closely."""
    s = setup_pq(1, 4)
    threshold = 2 * 1e-4 / s.width_left
    below = dispersion(s, threshold * 0.999)
    above = dispersion(s, threshold * 1.001)
    assert below == pytest.approx(above, rel=1e-9)
    below = dispersion(s, -threshold * 0.999)
    above = dispersion(s, -threshold * 1.001)
    assert below == pytest.approx(above, rel=1e-9)


def test_dispersion_vanishes_at_free_modes():
    s = setup_pq(1, 4)
    for n in (1, 2, 3, 4, 5, 6, 7, 9):  # 8 is a shared singular point
        value = dispersion(s, nu_n(s, n))
        assert abs(value) < 1e-9 * nu_n(s, n)


def test_dispersion_rejects_lattice_points():
    s = setup_pq(1, 4)
    from deltabox.lattice import overline_nu, underline_nu

    with pytest.raises(SingularPoint):
        dispersion(s, underline_nu(s, 1))
    with pytest.raises(SingularPoint):
        dispersion(s, overline_nu(s, 2))
    with pytest.raises(SingularPoint):
        dispersion(s, 16 * math.pi)


def test_dispersion_value_carries_branch_and_coupling():
    s = setup_pq(1, 4, c=2.5)
    assert alpha_from_nu(s, 5.0) == pytest.approx(2.5 * dispersion(s, 5.0), rel=1e-15)


def test_dispersion_asymptote_down_the_evanescent_branch():
    """f(nu) approaches nu as nu goes far negative."""
    s = setup_pq(1, 4)
    for nu in (-50.0, -500.0, -5000.0):
        assert dispersion(s, nu) == pytest.approx(nu, rel=1e-6)


# ======================================================================
# Monotone structure
# ======================================================================


def test_dispersion_is_increasing_on_each_interval():
    s = setup_pq(3, 5)
    _, intervals = partition(s, nu_max=50.0)
    guard = 1e-6
    for iv in intervals[:6]:
        lower = iv.upper.nu - 10.0 if iv.lower is None else iv.lower.nu
        span = iv.upper.nu - lower
        grid = [lower + span * (guard + t * (1 - 2 * guard) / 40) for t in range(41)]
        values = [dispersion(s, nu) for nu in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_dispersion_blows_up_at_interval_ends():
    s = setup_pq(1, 4)
    _, intervals = partition(s, nu_max=40.0)
    iv = intervals[2]
    eps = 1e-9 * iv.upper.nu
    assert dispersion(s, iv.lower.nu + eps) < -1e6
    assert dispersion(s, iv.upper.nu - eps) > 1e6


# ======================================================================
# Inversion
# ======================================================================


def test_solve_roundtrip_randomized():
    rng = random.Random(20260814)
    configs = [
        setup_pq(0, 1),
        setup_pq(1, 4),
        setup_pq(3, 4),
        make_setup(L=1.0, x0=RealX0(1 / (10 * math.sqrt(2))), c=1.0),
    ]
    for s in configs:
        _, intervals = partition(s, nu_max=90.0)
        for iv in intervals[:8]:
            for _ in range(3):
                lower = iv.upper.nu - 8.0 if iv.lower is None else iv.lower.nu
                span = iv.upper.nu - lower
                nu_true = lower + span * rng.uniform(0.05, 0.95)
                alpha = alpha_from_nu(s, nu_true)
                nu_back = solve_nu(s, alpha, iv)
                assert nu_back == pytest.approx(nu_true, rel=1e-10)


def test_solve_stops_once_newton_has_converged(monkeypatch):
    """By the 6th evaluation the Newton correction is below half an ulp of
    nu; the solve returns there instead of bisecting the far end of its
    bracket for another 35 evaluations."""
    s = setup_pq(1, 7)
    _, intervals = partition(s, nu_max=60.0)
    calls = []
    evaluate = spectrum._value_and_derivative

    def counted(setup, nu):
        calls.append(nu)
        return evaluate(setup, nu)

    monkeypatch.setattr(spectrum, "_value_and_derivative", counted)
    nu = solve_nu(s, 5.0, intervals[1])
    assert len(calls) <= 12
    monkeypatch.undo()
    assert alpha_from_nu(s, nu) == pytest.approx(5.0, rel=1e-13)


def test_solve_zero_coupling_recovers_free_modes():
    s = setup_pq(1, 4)
    for n in (1, 2, 3, 5, 7, 9):
        iv = classify_mode(s, n).interval
        assert solve_nu(s, 0.0, iv) == pytest.approx(nu_n(s, n), rel=1e-12)


def test_solve_ground_interval_spans_both_signs():
    s = setup_pq(1, 4)
    _, intervals = partition(s, nu_max=20.0)
    ground = intervals[0]
    # Strong attraction: nu tracks the asymptote f(nu) ~ nu.
    nu = solve_nu(s, -1000.0, ground)
    assert nu == pytest.approx(-1000.0, rel=1e-9)
    # The coupling value at nu = 0 sits inside this interval's range.  The
    # dispersion is stationary at nu = 0, so the root there behaves like a
    # double root and the recoverable accuracy is sqrt of the tolerance.
    alpha0 = alpha_from_nu(s, 0.0)
    assert abs(solve_nu(s, alpha0, ground)) < 1e-5
    # Repulsive values push the root up toward the first pole.
    nu = solve_nu(s, 500.0, ground)
    assert 0 < ground.upper.nu - nu < 0.1 * ground.upper.nu


def test_solve_respects_interval_even_for_extreme_couplings():
    s = setup_pq(3, 5)
    _, intervals = partition(s, nu_max=60.0)
    for iv in intervals[1:5]:
        for alpha in (-1e8, -10.0, 10.0, 1e8):
            nu = solve_nu(s, alpha, iv)
            assert iv.lower.nu < nu < iv.upper.nu
            guard = singular_guard_radius(s)
            closeness = min(nu - iv.lower.nu, iv.upper.nu - nu)
            assert closeness >= guard * 0.5


@given(
    alpha=st.floats(min_value=-200.0, max_value=200.0),
    index=st.integers(min_value=0, max_value=6),
)
@examples(50)
def test_solve_then_evaluate_is_identity(alpha, index):
    s = setup_pq(1, 4)
    _, intervals = partition(s, nu_max=60.0)
    iv = intervals[index]
    nu = solve_nu(s, alpha, iv)
    assert alpha_from_nu(s, nu) == pytest.approx(alpha, rel=1e-9, abs=1e-9)


# ======================================================================
# Roots next to a pole
# ======================================================================

# Level 3 at site 1/4: as alpha -> +inf it rises to under_2 = 20.106...,
# and as alpha -> -inf it falls to the interval's lower pole 16.755...
# Roots by 400-digit bisection of the dispersion.
STRONG_LEVEL_3 = (
    (1e13, "20.10619298297145973528"),
    (1e15, "20.10619298297464455625"),
    (1e300, "20.10619298297467672616"),
    (-1e100, "16.75516081914556393847"),
)


def test_strong_coupling_levels_are_within_two_ulps_of_their_roots():
    """The poles bracket the root as they stand, so a level a few ulps
    below its pole is resolved, not clamped at a guard short of it."""
    s = setup_pq(1, 4)
    levels = [analytic_levels(s, alpha, 3)[2][0] for alpha, _ in STRONG_LEVEL_3]
    assert len(set(levels)) == len(levels)
    for nu, (_, root) in zip(levels, STRONG_LEVEL_3):
        assert abs(Fraction(nu) - Fraction(root)) <= 2 * Fraction(math.ulp(nu))


@given(
    site=st.sampled_from([(1, 4), (1, 7), (2, 5), (0, 1), "real"]),
    L=st.floats(min_value=0.25, max_value=4.0),
    alpha=st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False).filter(
        lambda a: a == 0 or abs(a) > 1e-290
    ),
    count=st.integers(min_value=1, max_value=8),
    j=st.integers(min_value=-10, max_value=10),
)
@examples(60)
def test_levels_scale_with_the_box_bit_for_bit(site, L, alpha, count, j):
    """At (4**j L, alpha 4**-j) every level is 4**-j times the level at
    (L, alpha): the scale is an exact power of two and every start of the
    solve scales with L."""

    def levels(length, coupling):
        x0 = RealX0(0.3 * length) if site == "real" else RationalX0(*site)
        return analytic_levels(make_setup(L=length, x0=x0, c=1.0), coupling, count)

    scale = 4.0**j
    expected = [(nu / scale, is_mode) for nu, is_mode in levels(L, alpha)]
    assert levels(L * scale, alpha / scale) == expected


def test_solve_lands_within_two_ulps_of_the_mpmath_root():
    """Random intervals and couplings of the tables' range (|alpha| <= 1e3)
    against a 50-digit bisection of the dispersion of the same setup.  The
    leftmost interval takes |alpha| >= 1e2: nearer f(0) its root sits by
    the stationary point nu = 0, where no float solve reaches 2 ulps."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = random.Random(20261019)
    sites = [
        setup_pq(1, 4),
        setup_pq(1, 7),
        setup_pq(2, 5),
        setup_pq(0, 1),
        make_setup(L=1.0, x0=RealX0(1 / (10 * math.sqrt(2))), c=1.0),
    ]
    for _ in range(40):
        s = rng.choice(sites)
        _, intervals = partition(s, nu_max=90.0)
        index = rng.randrange(8)
        iv = intervals[index]
        alpha = rng.choice((-1, 1)) * 10 ** rng.uniform(-2 if index else 2, 3)
        nu = solve_nu(s, alpha, iv)

        w1, w2 = mp.mpf(s.width_right), mp.mpf(s.width_left)

        def f(x):
            if x > 0:
                return -(x / 2) * (mp.cot(x * w1 / 2) + mp.cot(x * w2 / 2))
            return (x / 2) * (mp.coth(-x * w1 / 2) + mp.coth(-x * w2 / 2))

        lo = mp.mpf(-2 * abs(alpha) - 10) if iv.lower is None else mp.mpf(iv.lower.nu)
        hi = mp.mpf(iv.upper.nu)
        while hi - lo > mp.mpf(10) ** -25 * abs(hi):
            mid = (lo + hi) / 2
            if f(mid) < alpha:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        assert abs(mp.mpf(nu) - root) <= 2 * math.ulp(nu), (s.x0, index, alpha)


def _levels_sorted_from_every_interval(setup, alpha, count):
    """The reference: every interval up to (1.5 count + 8) lattice units
    solved, the shared modes up to there added, all sorted, `count` kept."""
    nu_max = (1.5 * count + 8) * 2 * math.pi / setup.L
    _, intervals = partition(setup, nu_max)
    levels = [(solve_nu(setup, alpha, iv), False) for iv in intervals]
    base, n = kappa_base(setup), kappa_base(setup)
    while nu_n(setup, n) <= nu_max:
        levels.append((nu_n(setup, n), True))
        n += base
    return sorted(levels, key=lambda item: item[0])[:count]


@given(
    site=st.sampled_from([(1, 4), (1, 7), (2, 5), (0, 1), (1, 2), (3, 4), "real"]),
    alpha=st.sampled_from([0.0, 5.0, -5.0, 1e3, -1e3, 1e15, -1e8, 1e300, -1e300])
    | st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
    count=st.integers(min_value=1, max_value=40),
)
@examples(100)
def test_analytic_levels_solve_only_the_levels_they_return(site, alpha, count):
    """The intervals and the shared modes are walked in order and the walk
    stops at `count`: one solve per non-mode level returned, and one more
    only when the last level is a mode on the lower end of the next
    interval, whose root orders against it.  Every interval up to 1.5 count
    + 8 lattice units was solved before (1,009 solves for the 454 levels of
    the seed-1 tables' spectrum requests).  The levels are those of the
    sorted reference, bit for bit, ties included: at alpha = -1e300 a root
    rounds onto the shared point below it and comes before that mode."""
    s = make_setup(L=1.0, x0=RealX0(0.3) if site == "real" else RationalX0(*site), c=1.0)
    solves = []

    def counted(*args):
        solves.append(args[2])
        return solve_nu(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "solve_nu", counted)
        levels = analytic_levels(s, alpha, count)
    extra = len(solves) - sum(1 for _, is_mode in levels if not is_mode)
    assert extra == 0 or (extra == 1 and levels[-1][1])
    assert levels == _levels_sorted_from_every_interval(s, alpha, count)
