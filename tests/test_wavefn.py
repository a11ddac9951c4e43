"""Eigenfunctions, norms, limit states, and derivative-jump constants."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltabox.errors import DomainError, InK, NotInK
from deltabox.cli import parse_x0
from deltabox.lattice import (
    ON_LATTICE_RTOL,
    kappa_base,
    lattice_locator,
    nearest_lattice_point,
    over_in_shared,
    overline_nu,
    partition,
    under_in_shared,
    underline_nu,
)
from deltabox.model import RationalX0, RealX0, make_setup, nu_n, phi_mode
from deltabox.spectrum import dispersion
from deltabox.fourier import coeffs_general
from deltabox.observables import expectation_grid, ratio_grid
from deltabox.wavefn import (
    LimitState,
    compartment_rows,
    eval_normalized,
    general_state,
    limit_state,
    rho,
    upsilon_hat,
    upsilon_over,
    upsilon_under,
)
from deltabox._special import one_minus_sinc, sinhc_minus_one

from _examples import examples
from _quad import simpson_peaked, simpson_split
from _reference import jump_ratio, kappa_constants, limit_residual, trig_left_sign


def setup_pq(p, q, L=1.0, c=1.0):
    return make_setup(L=L, x0=RationalX0(p, q), c=c)


def ratio_at(setup, nu):
    return next(ratio_grid(setup, (nu,)))[1]


def norm_squared(setup, nu, n=4001):
    f = lambda x: eval_normalized(setup, nu, x).value ** 2
    if nu < -100:
        width = 40.0 / (-nu)
        return simpson_peaked(f, -setup.L / 2, setup.L / 2, setup.x0_value, width, n)
    return simpson_split(f, -setup.L / 2, setup.L / 2, setup.x0_value, n)


def raw_state(setup, nu, x):
    """The unnormalized eigenfunction at x: the three-branch piecewise closed form.

    Continuous at x0, with a nonnegative right piece and trig_left_sign on
    the left trig piece.  The compartment masses are those of this state, so
    the mass check integrates it rather than rescaling normalized samples.
    """
    half, w1, w2 = setup.L / 2, setup.width_right, setup.width_left
    if nu > 0:
        k = nu / 2
        left = trig_left_sign(setup, nu) * math.sin(k * w1) * math.sin(k * (half + x))
        right = abs(math.sin(k * w2)) * math.sin(k * (half - x))
    elif nu == 0:
        left, right = w1 * (half + x), w2 * (half - x)
    else:
        t = -nu
        left = math.sinh(t * w1 / 2) * math.sinh(t / 2 * (half + x))
        right = math.sinh(t * w2 / 2) * math.sinh(t / 2 * (half - x))
    return left if x <= setup.x0_value else right


def one_sided_jump(f, x0, h=1e-6):
    """Numerical derivative jump at a kink where f(x0) = 0.

    One-sided three-point stencils of second order on each smooth side.
    """
    d_right = (4 * f(x0 + h) - f(x0 + 2 * h)) / (2 * h)
    d_left = -(4 * f(x0 - h) - f(x0 - 2 * h)) / (2 * h)
    return d_right - d_left


# ======================================================================
# Raw eigenfunctions
# ======================================================================


@pytest.mark.parametrize("nu", [5.0, 27.3, -4.0, 0.0, 1e-7])
def test_eval_psi_continuous_at_site_and_zero_at_walls(nu):
    s = setup_pq(1, 4)
    state = general_state(s, nu)
    value = lambda x: state.sample([x])[0]
    left = value(s.x0_value)
    right = value(s.x0_value + 1e-12)
    scale = max(abs(left), abs(right), 1e-30)
    assert abs(left - right) <= 1e-9 * scale
    assert value(-s.L / 2) == pytest.approx(0.0, abs=1e-15 * scale)
    assert value(s.L / 2) == pytest.approx(0.0, abs=1e-15 * scale)


def test_eval_psi_branch_tags():
    s = setup_pq(1, 4)
    assert general_state(s, 3.0).kind.label == "trig"
    assert general_state(s, 0.0).kind.label == "linear"
    assert general_state(s, -3.0).kind.label == "hyper"


def test_eval_psi_rejects_positions_outside_box():
    s = setup_pq(1, 4)
    with pytest.raises(DomainError):
        general_state(s, 3.0).sample([0.51])


@pytest.mark.parametrize("xs", [[-0.2, -0.51, 0.1], [-0.2, math.nan, 0.1], [math.nan, 0.1]])
def test_sample_rejects_any_position_outside_box_in_a_list(xs):
    """sample checks a list by its ends, and a NaN anywhere in it."""
    s = setup_pq(1, 4)
    with pytest.raises(DomainError):
        general_state(s, 3.0).sample(xs)


def test_trig_left_sign_alternates_across_left_lattice():
    s = setup_pq(1, 4)
    u1 = underline_nu(s, 1)
    assert trig_left_sign(s, u1 * 0.9) != trig_left_sign(s, u1 * 1.1)
    assert trig_left_sign(s, u1 * 0.5) == 1.0


@pytest.mark.parametrize("site", ["rational:1/4", "rational:1/7", "rational:3/5", "real:0.29"])
def test_left_piece_near_an_under_point_has_the_limit_sign(site):
    """Just below an under point the state tends to the "below" limit state,
    just above it to the "above" one, and the left piece keeps that sign
    down to a few ulps from the point: the sign is read from sin(a2)."""
    s = make_setup(L=1.0, x0=parse_x0(site), c=1.0)
    for k in range(1, 9):
        if under_in_shared(s, k) is not None:
            continue
        # The first antinode of the left compartment.
        x = -s.L / 2 + s.width_left / (2 * k)
        point = underline_nu(s, k)
        for n in (4, 5, 10, 100, 1000, 10**4):
            for steps, side in ((-n, "below"), (n, "above")):
                nu = point + steps * math.ulp(point)
                limit = limit_state(s, "under", k, side)
                (value,) = general_state(s, nu).sample([x])
                assert math.copysign(1.0, value) == limit.sign, (k, n, side)


@pytest.mark.parametrize(
    "nu",
    [0.7, 4.2, 11.0, 19.9, 33.0, 47.5, -0.3, -8.0, -60.0, 0.0, 3e-7, -2e-7],
)
def test_jump_ratio_equals_dispersion(nu):
    """The defining identity: derivative jump over value at x0 = alpha / c."""
    s = setup_pq(1, 4)
    assert jump_ratio(s, nu) == pytest.approx(dispersion(s, nu), rel=1e-11)


@given(
    nu=st.floats(min_value=-80.0, max_value=80.0),
    p_index=st.integers(min_value=0, max_value=3),
)
@examples(60)
def test_jump_ratio_equals_dispersion_property(nu, p_index):
    s = [setup_pq(0, 1), setup_pq(1, 4), setup_pq(3, 5), setup_pq(11, 13)][p_index]
    pt, dist = nearest_lattice_point(s, nu)
    if pt is not None and dist < 1e-6 * max(1.0, abs(nu)):
        return
    if abs(nu) < 1e-12:
        return
    assert jump_ratio(s, nu) == pytest.approx(dispersion(s, nu), rel=1e-9)


# ======================================================================
# Norms
# ======================================================================


@pytest.mark.parametrize("nu", [7.3, 31.0, -12.0, 0.0, 1e-6, -650.0])
def test_normalized_state_has_unit_norm(nu):
    s = setup_pq(1, 4)
    assert norm_squared(s, nu) == pytest.approx(1.0, rel=1e-8)


def test_normalized_state_unit_norm_other_sites():
    for s in (setup_pq(0, 1), setup_pq(3, 4), make_setup(L=2.0, x0=RealX0(0.37), c=1.0)):
        for nu in (2.9, -7.7):
            assert norm_squared(s, nu) == pytest.approx(1.0, rel=1e-8)


def test_normalized_state_is_continuous_through_zero():
    """rho itself vanishes like nu^2 at 0, but the quotient is continuous."""
    s = setup_pq(1, 4)
    for x in (-0.3, 0.0, 0.2, 0.4):
        v0 = eval_normalized(s, 0.0, x).value
        assert eval_normalized(s, 1e-7, x).value == pytest.approx(v0, rel=1e-9)
        assert eval_normalized(s, -1e-7, x).value == pytest.approx(v0, rel=1e-9)


def test_rho_scales_quadratically_near_zero():
    s = setup_pq(1, 4)
    assert rho(s, 0.0) > 0
    ratio = rho(s, 1e-6) / rho(s, 1e-7)
    assert ratio == pytest.approx(100.0, rel=1e-4)


def test_rho_of_a_deep_state_in_a_small_box_is_finite():
    """At L = 1e-300 and t L = 1800, 2**(deep/2) alone leaves float range
    where rho is about 6e238: the whole part of deep/2 joins the box scale.
    rho is its norm row read in 30-digit mpmath to 1e-15, and the closed
    form to t L eps, the conditioning of exp(t L) at a float t L."""
    mp = pytest.importorskip("mpmath")
    s, nu = make_setup(L=1e-300, x0=RationalX0(1, 4), c=1.0), -1.8e303
    ((mass, deep, scale),) = compartment_rows(s, (nu,), "norm")
    value = rho(s, nu)
    with mp.workdps(30):
        from_row = mp.sqrt(mass) * mp.mpf(2) ** ((mp.mpf(deep) + scale) / 2)
        half, x0, k = mp.mpf(s.L) / 2, mp.mpf(s.x0_value), -mp.mpf(nu) / 2
        mass_of = lambda w: mp.sinh(2 * k * w) / (4 * k) - w / 2
        a, b = mp.sinh(k * (half - x0)), mp.sinh(k * (half + x0))
        exact = mp.sqrt(a * a * mass_of(half + x0) + b * b * mass_of(half - x0))
        assert abs(value - from_row) <= 1e-15 * from_row
        assert abs(value - exact) <= 1800 * 2.0**-52 * exact


@pytest.mark.parametrize("nu", [12.0, -12.0, -700.0, -1200.0, 1e-10])
def test_compartment_masses_match_quadrature(nu):
    """Trig, direct evanescent, deep evanescent and linear-window inputs.

    At nu = -1200 the right compartment (y = 450) is below LOG_SWITCH and
    the left one (y = 750) beyond it.  The masses come from one-element
    grids, their sum from the "norm" readout and their quotient from the
    "ratio" readout.  The state is scaled by 2**(-(deep + scale)/2) before
    it is squared, so the integrand stays in float range.
    """
    s = setup_pq(1, 4)
    ((mass, deep, scale),) = compartment_rows(s, (nu,), "norm")
    ((_, r, _),) = compartment_rows(s, (nu,), "ratio")
    left, right = mass / (1 + r), mass * r / (1 + r)
    unit = 2.0 ** (-(deep + scale) / 2)
    f = lambda x: (raw_state(s, nu, x) * unit) ** 2
    half, x0 = s.L / 2, s.x0_value
    if nu < -100:
        width = 40.0 / (-nu)
        quad_left = simpson_peaked(f, -half, x0, x0, width)
        quad_right = simpson_peaked(f, x0, half, x0, width)
    else:
        quad_left = simpson_split(f, -half, x0, x0)
        quad_right = simpson_split(f, x0, half, x0)
    assert left == pytest.approx(quad_left, rel=1e-8, abs=0)
    assert right == pytest.approx(quad_right, rel=1e-8, abs=0)
    assert (rho(s, nu) * unit) ** 2 == pytest.approx(mass, rel=1e-14, abs=0)
    assert ratio_at(s, nu) == r


def taylor_reference(y, sign):
    """20-term Taylor sum of sinh(y)/y - 1 (sign 1) or 1 - sin(y)/y (sign -1)."""
    return math.fsum(
        sign ** (k + 1) * y ** (2 * k) / math.factorial(2 * k + 1) for k in range(1, 21)
    )


def test_series_helpers_match_taylor_reference():
    """No loss of digits on either side of the series switch."""
    close = lambda ref: pytest.approx(ref, rel=1e-14, abs=0)
    y = 1e-8
    while y <= 2.0:
        assert one_minus_sinc(y) == close(taylor_reference(y, -1))
        assert sinhc_minus_one(y) == close(taylor_reference(y, 1))
        y *= 1.01


def test_deep_evanescent_state_concentrates_at_site():
    """Almost all probability lies within O(1/|nu|) of the site."""
    s = setup_pq(1, 4)
    nu = -2000.0
    width = 40.0 / (-nu)
    f = lambda x: eval_normalized(s, nu, x).value ** 2
    inner = simpson_split(
        f, s.x0_value - width, s.x0_value + width, s.x0_value, n=4001
    )
    assert inner == pytest.approx(1.0, rel=1e-6)
    far = abs(eval_normalized(s, nu, s.x0_value - 0.2).value)
    assert far < 1e-30


@pytest.mark.parametrize("p, q", [(0, 1), (1, 4), (3, 4)])
def test_deep_evanescent_peak_height_at_every_depth(p, q):
    """psi(x0)**2 = t/2 to leading order in 1/(t L): the two tails
    exp(-(t/2)|x - x0|) carry the unit mass.  The exponents of the deep
    closed form are of size t L / 2 and cancel in psi(x0)."""
    s = setup_pq(p, q)
    for e in range(3, 301):
        t = 10.0**e
        value = general_state(s, -t).sample([s.x0_value])[0]
        assert abs(value * value * 2 / t - 1) <= 1e-14, t


# ======================================================================
# Limit states
# ======================================================================


def test_hat_state_shape_and_norm():
    s = setup_pq(3, 4)  # x0 = 3L/8, ratio 1/7
    nu_hat = nu_n(s, 16)
    root_q = math.sqrt(s.q_ratio)
    for x in (-0.4, -0.1, 0.0, 0.2, 0.374):
        expected = -root_q * phi_mode(s, 16, x)
        assert upsilon_hat(s, nu_hat, x).value == pytest.approx(expected, rel=1e-13)
    for x in (0.3751, 0.4, 0.49):
        expected = phi_mode(s, 16, x) / root_q
        assert upsilon_hat(s, nu_hat, x).value == pytest.approx(expected, rel=1e-13)
    f = lambda x: upsilon_hat(s, nu_hat, x).value ** 2
    total = simpson_split(f, -s.L / 2, s.L / 2, s.x0_value, n=8001)
    assert total == pytest.approx(1.0, rel=1e-9)


def test_hat_state_amplitude_ratio_is_inverse_width_ratio():
    s = setup_pq(3, 4)
    nu_hat = nu_n(s, 16)
    xs = [-s.L / 2 + i * s.L / 2048 for i in range(2049)]
    left = max(abs(upsilon_hat(s, nu_hat, x).value) for x in xs if x <= s.x0_value)
    right = max(abs(upsilon_hat(s, nu_hat, x).value) for x in xs if x > s.x0_value)
    assert right / left == pytest.approx(1 / s.q_ratio, rel=1e-3)


def test_hat_state_requires_shared_lattice_value():
    s = setup_pq(1, 4)
    with pytest.raises(NotInK):
        upsilon_hat(s, nu_n(s, 7), 0.0)
    s_irr = make_setup(L=1.0, x0=RealX0(0.123456), c=1.0)
    with pytest.raises(NotInK):
        upsilon_hat(s_irr, 10.0, 0.0)


# Sites with shared points below 1e15: rational, centred, a float twin, L = 2.
_HAT_SITES = [
    (RationalX0(0, 1), 1.0),
    (RationalX0(1, 4), 1.0),
    (RationalX0(1, 7), 1.0),
    (RationalX0(11, 13), 1.0),
    (RationalX0(3, 4), 2.0),
    (RealX0(0.125), 1.0),
]


@st.composite
def _near_shared_points(draw, setup, top=1e15, spread=1.2e-9):
    """A shared point m nu_b, m <= 64 or below top, moved by up to spread
    of itself, or to the float at either edge of the 1e-9 on-lattice radius."""
    base = kappa_base(setup)
    top_m = max(64, int(top * setup.L / (2 * math.pi)) // base)
    m = draw(st.one_of(st.integers(1, 64), st.integers(1, top_m)))
    point = nu_n(setup, m * base)
    edge = point + draw(st.sampled_from([-1.0, 1.0])) * ON_LATTICE_RTOL * point
    return draw(st.one_of(
        st.floats(-spread, spread).map(lambda rel: point + rel * point),
        st.sampled_from([math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]),
    ))


@given(site=st.sampled_from(_HAT_SITES), data=st.data())
@examples(300)
def test_hat_state_accepts_exactly_the_locators_shared_points(site, data):
    """limit_state(s, "hat", nu) is built exactly where lattice_locator puts
    nu on a shared point: its nearest lattice point is shared and within
    ON_LATTICE_RTOL of it, capped at 1e-3 of the first under point.  The
    state's mode is that point's k + l."""
    x0, L = site
    s = make_setup(L=L, x0=x0, c=1.0)
    nu = data.draw(_near_shared_points(s))
    point = lattice_locator(s)(nu)
    nearest, distance = nearest_lattice_point(s, nu)
    radius = min(ON_LATTICE_RTOL * nearest.nu, 1e-3 * underline_nu(s, 1))
    on_shared = nearest.kind == "both" and distance <= radius
    assert (point is not None and point.kind == "both") == on_shared
    if on_shared:
        state = limit_state(s, "hat", nu)
        assert state.mode == point.k + point.l and state.mode % kappa_base(s) == 0
        assert nu_n(s, state.mode) == pytest.approx(point.nu, rel=1e-15)
    else:
        with pytest.raises(NotInK, match=f"nu={nu!r} is not a shared-lattice value"):
            limit_state(s, "hat", nu)


@given(
    x0=st.sampled_from(["rational:1/4", "rational:1/7", "rational:2/5", "rational:3/4",
                        "rational:0/1", "real:0.125"]),
    data=st.data(),
)
@examples(300)
def test_every_command_agrees_on_a_shared_point(x0, data):
    """The state, the ratio row, the expansion and the hat limit all ask
    lattice_locator, so they place nu on a shared point together or not at
    all, over 2e-8 of each point and at both edges of its radius."""
    s = make_setup(L=1.0, x0=parse_x0(x0), c=1.0)
    nu = data.draw(_near_shared_points(s, top=0.0, spread=2e-8))
    try:
        limit_state(s, "hat", nu)
        hat = True
    except NotInK:
        hat = False
    answers = (
        isinstance(general_state(s, nu), LimitState),
        next(ratio_grid(s, (nu,)))[2] == "both",
        coeffs_general(s, nu, 8).kind.label == "limit_hat",
        hat,
    )
    assert answers in ((True,) * 4, (False,) * 4), (nu, answers)


def test_under_state_support_norm_and_sides():
    s = setup_pq(1, 4)
    f_below = lambda x: upsilon_under(s, 1, "below", x).value
    f_above = lambda x: upsilon_under(s, 1, "above", x).value
    for x in (0.2, 0.4, 0.49):
        assert f_below(x) == 0.0
    for x in (-0.4, -0.1, 0.05):
        assert f_below(x) == pytest.approx(-f_above(x), rel=1e-15)
    total = simpson_split(
        lambda x: f_below(x) ** 2, -s.L / 2, s.L / 2, s.x0_value, n=4001
    )
    assert total == pytest.approx(1.0, rel=1e-9)


_UNDER_SITES = [RationalX0(1, 4), RationalX0(1, 7), RationalX0(2, 5), RealX0(0.125)]


def _under_states(x0):
    """The under limit states k = 1..8 of x0 off the shared lattice, both sides."""
    s = make_setup(L=1.0, x0=x0, c=1.0)
    ks = [k for k in range(1, 9) if under_in_shared(s, k) is None]
    assert len(ks) >= 4
    return s, [limit_state(s, "under", k, side) for k in ks for side in ("below", "above")]


@pytest.mark.parametrize("x0", _UNDER_SITES)
def test_under_piece_is_exactly_zero_at_the_site(x0):
    s, states = _under_states(x0)
    for state in states:
        assert state.left([s.x0_value])[0] == 0.0, state.kind
        assert repr(state.sample([s.x0_value])[0]) == "0.0", state.kind


@pytest.mark.parametrize("x0", _UNDER_SITES)
def test_under_piece_next_to_the_site_against_40_digits(x0):
    """Down to the float next to x0 the under piece keeps its relative
    accuracy: amp sin(k pi (L/2 + x) / (L/2 + x0)) within 1e-15.  The
    points stay closer to x0 than any interior node of k <= 8."""
    mpmath = pytest.importorskip("mpmath")
    s, states = _under_states(x0)
    site = s.x0_value
    xs = [math.nextafter(site, -1.0)] + [site - d for d in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)]
    xs += [site - f * s.width_left for f in (0.01, 0.05, 0.1)]
    with mpmath.workdps(40):
        half = mpmath.mpf(s.L) / 2
        for state in states:
            for x in xs:
                exact = state.amp * mpmath.sin(state.mode * mpmath.pi * (half + x) / (half + site))
                assert abs(state.left([x])[0] - exact) <= 1e-15 * abs(exact), (state.kind, x)


_OVER_SITES = [RationalX0(1, 4), RationalX0(1, 7), RationalX0(1, 500), RealX0(0.125)]


@pytest.mark.parametrize("x0", _OVER_SITES)
def test_over_piece_next_to_the_site_against_40_digits(x0):
    """Down to the float next to x0 the over piece keeps its relative
    accuracy: amp sin(l pi (L/2 - x) / (L/2 - x0)) within 1e-15, and 0.0
    at x0 itself.  The points stay closer to x0 than any interior node of
    l <= 8."""
    mpmath = pytest.importorskip("mpmath")
    s = make_setup(L=1.0, x0=x0, c=1.0)
    states = [limit_state(s, "over", l) for l in range(1, 9) if over_in_shared(s, l) is None]
    assert len(states) >= 4
    site = s.x0_value
    xs = [math.nextafter(site, 1.0)] + [site + d for d in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)]
    xs += [site + f * s.width_right for f in (0.01, 0.05, 0.1)]
    with mpmath.workdps(40):
        half = mpmath.mpf(s.L) / 2
        for state in states:
            assert state.right([site])[0] == 0.0, state.kind
            for x in xs:
                exact = state.amp * mpmath.sin(state.mode * mpmath.pi * (half - x) / (half - site))
                assert abs(state.right([x])[0] - exact) <= 1e-15 * abs(exact), (state.kind, x)


def test_over_state_support_and_norm():
    s = setup_pq(1, 4)
    f = lambda x: upsilon_over(s, 1, x).value
    for x in (-0.4, -0.1, 0.1):
        assert f(x) == 0.0
    total = simpson_split(lambda x: f(x) ** 2, -s.L / 2, s.L / 2, s.x0_value, n=4001)
    assert total == pytest.approx(1.0, rel=1e-9)


def grid_with_site_and_walls(setup, n=64):
    xs = [-setup.L / 2 + i * setup.L / n for i in range(n)] + [setup.L / 2]
    return sorted(set(xs) | {setup.x0_value})


# Every right index is shared at x0 = 3L/8 and x0 = 0.3 L (p/q = 3/4 and
# 3/5), so the over state exists only at the first site.
@pytest.mark.parametrize(
    "x0, kind, index, side",
    [
        (RationalX0(1, 4), "hat", 8, "below"),
        (RationalX0(1, 4), "under", 2, "below"),
        (RationalX0(1, 4), "under", 2, "above"),
        (RationalX0(1, 4), "over", 2, "below"),
        (RationalX0(3, 4), "hat", 16, "below"),
        (RationalX0(3, 4), "under", 3, "below"),
        (RationalX0(3, 4), "under", 3, "above"),
        (RealX0(0.3), "hat", 5, "below"),
        (RealX0(0.3), "under", 1, "below"),
        (RealX0(0.3), "under", 1, "above"),
    ],
)
def test_limit_list_sampler_matches_one_point_functions(x0, kind, index, side):
    s = make_setup(L=1.0, x0=x0, c=1.0)
    xs = grid_with_site_and_walls(s)
    assert s.x0_value in xs
    if kind == "hat":
        index = nu_n(s, index)
        one_point = lambda x: upsilon_hat(s, index, x)
    elif kind == "under":
        one_point = lambda x: upsilon_under(s, index, side, x)
    else:
        one_point = lambda x: upsilon_over(s, index, x)
    state = limit_state(s, kind, index, side)
    listed = state.sample(xs)
    assert len(listed) == len(xs)
    assert listed == [one_point(x).value for x in xs]
    assert state.kind == one_point(0.0).kind


@pytest.mark.parametrize("nu", [20.5, 0.0, -3.0, -3000.0, 50.26548245743669])
def test_sample_in_any_order_is_the_ascending_sample_permuted(nu):
    """An ascending list is cut at x0 and each half goes to its piece; any
    other order is merged back from the pieces, value for value."""
    s = setup_pq(1, 4)
    xs = grid_with_site_and_walls(s)
    order = list(range(len(xs)))
    order.reverse()
    order[::3] = order[::3][::-1]
    for state in (general_state(s, nu), limit_state(s, "under", 2, "above"), limit_state(s, "over", 1)):
        ascending = state.sample(xs)
        assert state.sample([xs[i] for i in order]) == [ascending[i] for i in order]


def test_one_sided_states_reject_shared_indices():
    s = setup_pq(1, 4)  # shared at k = 5j, l = 3j
    with pytest.raises(InK):
        upsilon_under(s, 5, "below", 0.0)
    with pytest.raises(InK):
        upsilon_over(s, 3, 0.0)
    with pytest.raises(DomainError):
        upsilon_under(s, 0, "below", 0.0)
    with pytest.raises(DomainError):
        upsilon_under(s, 1, "sideways", 0.0)


# ======================================================================
# Derivative-jump constants
# ======================================================================


def lattice_point_for(setup, kind, index):
    if kind == "under":
        return nearest_lattice_point(setup, underline_nu(setup, index))[0]
    if kind == "over":
        return nearest_lattice_point(setup, overline_nu(setup, index))[0]
    points, _ = partition(setup, nu_max=200.0)
    both = [pt for pt in points if pt.kind == "both"]
    return both[index - 1]


@pytest.mark.parametrize(
    "p, q, kind, index, side",
    [
        (1, 4, "under", 1, "below"),
        (1, 4, "under", 1, "above"),
        (1, 4, "under", 2, "below"),
        (1, 4, "over", 1, "below"),
        (1, 4, "over", 2, "below"),
        (1, 4, "both", 1, "below"),
        (3, 4, "both", 1, "below"),
        (3, 5, "under", 3, "below"),
        (2, 5, "over", 2, "below"),
    ],
)
def test_kappa_matches_numerical_derivative_jump(p, q, kind, index, side):
    """kappa is defined by psi'(x0+) - psi'(x0-) = sigma kappa / c."""
    s = setup_pq(p, q)
    pt = lattice_point_for(s, kind, index)
    assert pt.kind == kind
    if kind == "both":
        f = lambda x: upsilon_hat(s, pt.nu, x).value
    elif kind == "under":
        f = lambda x: upsilon_under(s, pt.k, side, x).value
    else:
        f = lambda x: upsilon_over(s, pt.l, x).value
    sigma = -1.0 if (kind == "under" and side == "above") else 1.0
    numeric = one_sided_jump(f, s.x0_value)
    kappa = kappa_constants(s, pt)
    assert numeric == pytest.approx(sigma * kappa / s.c, rel=1e-5)


def test_kappa_scales_with_kinetic_prefactor():
    s1 = setup_pq(1, 4, c=1.0)
    s2 = setup_pq(1, 4, c=3.0)
    pt1 = lattice_point_for(s1, "over", 1)
    pt2 = lattice_point_for(s2, "over", 1)
    assert kappa_constants(s2, pt2) == pytest.approx(3 * kappa_constants(s1, pt1), rel=1e-13)


def test_kappa_sign_alternates_with_right_index():
    """Sign (-1)**(l-1), checked on the non-shared right indices."""
    s = setup_pq(1, 4)
    values = {l: kappa_constants(s, lattice_point_for(s, "over", l)) for l in (1, 2, 4, 5)}
    assert values[1] > 0 and values[2] < 0 and values[4] < 0 and values[5] > 0


@pytest.mark.parametrize(
    "p, q, kind, index",
    [
        (1, 4, "under", 1),
        (1, 4, "over", 1),
        (1, 4, "both", 1),
        (3, 4, "both", 1),
        (3, 5, "under", 1),
        (0, 1, "both", 2),
    ],
)
def test_limit_states_solve_their_boundary_problem(p, q, kind, index):
    s = setup_pq(p, q)
    pt = lattice_point_for(s, kind, index)
    report = limit_residual(s, pt, grid_n=4000)
    assert report.max_ode_residual < 1e-5
    assert report.jump_error < 1e-10 * abs(kappa_constants(s, pt))
    assert report.boundary_error < 1e-12


# ======================================================================
# Convergence of eigenfunctions to the limit states
# ======================================================================


def sup_difference(setup, nu, limit_f, n=401):
    xs = [-setup.L / 2 + i * setup.L / (n - 1) for i in range(n)]
    return max(abs(eval_normalized(setup, nu, x).value - limit_f(x)) for x in xs)


def test_states_converge_to_hat_limit():
    s = setup_pq(3, 4)
    nu_hat = nu_n(s, 16)
    limit = lambda x: upsilon_hat(s, nu_hat, x).value
    sups = [sup_difference(s, nu_hat * (1 + eps), limit) for eps in (1e-4, 1e-5)]
    assert sups[0] < 1e-1
    assert sups[1] < 1e-2
    assert sups[1] < 0.3 * sups[0]
    # The same limit is reached from below.
    assert sup_difference(s, nu_hat * (1 - 1e-5), limit) < 1e-2


def test_states_converge_to_one_sided_limits():
    s = setup_pq(1, 4)
    u1 = underline_nu(s, 1)
    below = lambda x: upsilon_under(s, 1, "below", x).value
    above = lambda x: upsilon_under(s, 1, "above", x).value
    assert sup_difference(s, u1 * (1 - 1e-6), below) < 2e-2
    assert sup_difference(s, u1 * (1 + 1e-6), above) < 2e-2
    o1 = overline_nu(s, 1)
    over = lambda x: upsilon_over(s, 1, x).value
    assert sup_difference(s, o1 * (1 - 1e-6), over) < 2e-2
    assert sup_difference(s, o1 * (1 + 1e-6), over) < 2e-2


def test_window_around_shared_mode_returns_the_limit_state():
    """Within the on-lattice radius the evaluator substitutes the limit;
    beyond it the state is the direct one, as ratio's row is there."""
    s = setup_pq(1, 4)
    nu_hat = nu_n(s, 8)
    for x in (-0.3, 0.0, 0.2, 0.4):
        windowed = eval_normalized(s, nu_hat * (1 + 3e-10), x)
        assert windowed.kind.label == "limit_hat"
        assert windowed.value == upsilon_hat(s, nu_hat, x).value
        assert eval_normalized(s, nu_hat * (1 + 3e-9), x).kind.label == "trig"
    assert next(ratio_grid(s, (nu_hat * (1 + 3e-9),)))[2] is None


@pytest.mark.parametrize("p, q", [(1, 4), (1, 7), (2, 5), (0, 1), (3, 4)])
def test_states_next_to_a_shared_point_against_40_digits(p, q):
    """At nu = nu_n (1 +/- rho), rho from 1e-10 to 1e-8 and n = kappa_base
    times 1, 2 and 5, the sampled state (129 points) and its first 48 sine
    coefficients stay within 4e-7 (sup) and 1.15e-7 (L2) of the 40-digit
    eigenfunction: twice the worst measured, 2.0e-7 and 5.7e-8.  The hat
    state taken out to 1e-8 reached 9.9e-7 and 3.5e-7, growing with n; the
    direct state's error, about eps / rho, does not."""
    mpmath = pytest.importorskip("mpmath")
    s = setup_pq(p, q)
    xs = [-0.5 + i / 128 for i in range(129)]
    worst_sup = worst_l2 = 0.0
    with mpmath.workdps(40):
        x0 = mpmath.mpf(p) / (2 * q)
        w_left, w_right = 0.5 + x0, 0.5 - x0
        phis = [mpmath.sqrt(2) * mpmath.sin(m * mpmath.pi * w_right) for m in range(1, 49)]
        for n in (kappa_base(s), 2 * kappa_base(s), 5 * kappa_base(s)):
            for rel in (side * 10 ** (e / 4) for e in range(-40, -31) for side in (1, -1)):
                nu = nu_n(s, n) * (1 + rel)
                k = mpmath.mpf(nu) / 2
                s_left, s_right = mpmath.sin(k * w_left), mpmath.sin(k * w_right)
                sign = 1 if s_left > 0 else -1
                a, b = sign * s_right, abs(s_left)
                # The integral of sin(k y)**2 over [0, w].
                sin2_integral = lambda w: w / 2 - mpmath.sin(2 * k * w) / (4 * k)
                norm = mpmath.sqrt(a * a * sin2_integral(w_left) + b * b * sin2_integral(w_right))
                exact = [
                    (a * mpmath.sin(k * (0.5 + x)) if x <= x0 else b * mpmath.sin(k * (0.5 - x)))
                    / norm
                    for x in map(mpmath.mpf, xs)
                ]
                sampled = general_state(s, nu).sample(xs)
                worst_sup = max(worst_sup, max(abs(v - e) for v, e in zip(sampled, exact)))
                # The derivative jump at x0 gives a_m ((pi m)**2 - k**2) = sign k sin(k) Phi_m(x0).
                pref = sign * k * mpmath.sin(k) / norm
                coeffs = coeffs_general(s, nu, 48).values
                l2 = mpmath.sqrt(sum(
                    (c - pref * phi / ((m * mpmath.pi) ** 2 - k * k)) ** 2
                    for m, (c, phi) in enumerate(zip(coeffs, phis), start=1)
                ))
                worst_l2 = max(worst_l2, l2)
    assert worst_sup <= 4e-7
    assert worst_l2 <= 1.15e-7


@pytest.mark.parametrize("nu", [37.3, 0.0])
def test_sample_wave_is_the_raw_state_over_rho(nu):
    """Trig and linear states: the normalized pass divides the raw state by
    rho.  The hyper state divides out its exp(t L / 2) in closed form; it
    is checked in test_evanescent_states_match_mpmath."""
    s = setup_pq(1, 4)
    xs = grid_with_site_and_walls(s, n=256)
    norm = rho(s, nu)
    samples = general_state(s, nu).sample(xs)
    assert samples == [raw_state(s, nu, x) / norm for x in xs]


@pytest.mark.parametrize("j", [-200, -117, -1, 1, 64, 200])
@pytest.mark.parametrize("spec", ["rational:1/4", "rational:1/7", "rational:0/1", "real:0.2519"])
def test_linear_samples_of_a_box_four_to_the_j_times_as_long_are_rescaled_bit_for_bit(spec, j):
    """At 4**j L the linear state's samples are those at L times 2**-j: its
    widths and positions are taken in units of 2**e_L and its norm in units
    of 2**(2 e_L), so no product holds L**2 or L**2.5.  A real site is
    given as a fraction of L."""
    x0 = parse_x0(spec)
    for L in (1e-5, 1.0, 1e5):
        if isinstance(x0, RealX0):
            small, big = RealX0(x0.value_abs * L), RealX0(math.ldexp(x0.value_abs * L, 2 * j))
        else:
            small = big = x0
        s = make_setup(L=L, x0=small, c=1.0)
        xs = [-L / 2 + i * (L / 8) for i in range(9)] + [s.x0_value]
        samples = general_state(s, 0.0).sample(xs)
        scaled = general_state(make_setup(L=math.ldexp(L, 2 * j), x0=big, c=1.0), 0.0).sample(
            [math.ldexp(x, 2 * j) for x in xs]
        )
        assert repr(scaled) == repr([math.ldexp(v, -j) for v in samples]), L


def test_sample_wave_matches_pointwise_evaluation():
    s = setup_pq(1, 4)
    xs = [-0.5, -0.2, 0.0, 0.125, 0.3, 0.5]
    for nu in (12.0, -700.0, 1e-100):
        samples = general_state(s, nu).sample(xs)
        assert len(samples) == len(xs)
        for x, value in zip(xs, samples):
            assert value == eval_normalized(s, nu, x).value


def test_evanescent_states_match_mpmath():
    """Evanescent states with t L from 2**-26 to 1e4, across LOG_SWITCH in
    one and in both compartments, on five sites and three box lengths,
    against the closed forms in mpmath at 40 digits, over 20 of which
    survive where the masses and moments cancel at the small end: samples
    within 16 ulps of max|psi|, a_1..a_8 within 16 ulps of 1, r within 32
    ulps and Ex within 2 ulps of L."""
    mp = pytest.importorskip("mpmath")
    sites = ["rational:1/4", "rational:1/7", "rational:3/4", "rational:2/5",
             "real:0.07071067811865475"]
    products = [2.0**-26, 0.4, 1.0, 30.0, 300.0, 575.0, 599.0, 601.0, 700.0, 1e4]
    worst = dict.fromkeys(("sample", "a_m", "r", "Ex"), 0.0)
    with mp.workdps(40):
        for spec, L, tL in itertools.product(sites, (0.3, 1.0, 2.0), products):
            s = make_setup(L=L, x0=parse_x0(spec), c=1.0)
            nu = -tL / L
            half, x0, k = mp.mpf(L) / 2, mp.mpf(s.x0_value), -mp.mpf(nu) / 2
            w1, w2 = half - x0, half + x0
            # The integrals over [0, w] of sinh(k u)**2 and (w - u) sinh(k u)**2.
            mass = lambda w: mp.sinh(2 * k * w) / (4 * k) - w / 2
            moment = lambda w: (mp.sinh(k * w) / (2 * k)) ** 2 - w * w / 4
            a, b = mp.sinh(k * w1), mp.sinh(k * w2)
            left, right = a * a * mass(w2), b * b * mass(w1)
            rho_exact = mp.sqrt(left + right)

            xs = grid_with_site_and_walls(s, n=32)
            xs += [math.nextafter(s.x0_value, -1.0), math.nextafter(s.x0_value, 1.0)]
            exact = [
                (a * mp.sinh(k * (half + x)) if x <= x0 else b * mp.sinh(k * (half - x)))
                / rho_exact
                for x in map(mp.mpf, xs)
            ]
            error = max(abs(v - e) for v, e in zip(general_state(s, nu).sample(xs), exact))
            worst["sample"] = max(worst["sample"], error / math.ulp(float(max(map(abs, exact)))))

            # a_m ((pi m / L)**2 + k**2) = k sinh(k L) Phi_m(x0) / rho.
            pref = k * mp.sinh(2 * k * half) * mp.sqrt(1 / half) / rho_exact
            coeffs = [
                pref * mp.sin(mp.pi * m * (s.q - s.p) / (2 * s.q)) / ((mp.pi * m / L) ** 2 + k * k)
                for m in range(1, 9)
            ]
            error = max(abs(v - e) for v, e in zip(coeffs_general(s, nu, 8).values, coeffs))
            worst["a_m"] = max(worst["a_m"], error / math.ulp(1.0))

            r_exact = right / left
            ((_, r, _),) = ratio_grid(s, (nu,))
            worst["r"] = max(worst["r"], abs(r - r_exact) / math.ulp(float(r_exact)))
            ex_exact = x0 + (b * b * moment(w1) - a * a * moment(w2)) / (left + right)
            ((_, ex),) = expectation_grid(s, (nu,))
            worst["Ex"] = max(worst["Ex"], abs(ex - ex_exact) / math.ulp(L))
    assert worst["sample"] <= 16 and worst["a_m"] <= 16
    assert worst["r"] <= 32 and worst["Ex"] <= 2
