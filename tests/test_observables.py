"""Probability ratios, position expectations, amplitude envelope."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltabox import lattice, observables
from deltabox._special import LINEAR_WINDOW, LOG_SWITCH, one_minus_sinc, sinhc_minus_one
from deltabox.cli import parse_x0
from deltabox.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InK,
    SingularPoint,
)
from deltabox.lattice import ON_LATTICE_RTOL, kappa_base, overline_nu, underline_nu
from deltabox.model import RationalX0, RealX0, make_setup, nu_n
from deltabox.observables import (
    amplitude_extrema,
    expectation_grid,
    prob_ratio_at_mode,
    ratio_grid,
)
from deltabox.wavefn import compartment_rows, eval_normalized, rho, rho_grid

from _examples import examples
from _quad import simpson, simpson_peaked
from _reference import gamma_factor


def setup_pq(p, q, L=1.0, c=1.0):
    return make_setup(L=L, x0=RationalX0(p, q), c=c)


def ratio_at(setup, nu):
    return next(ratio_grid(setup, (nu,)))[1]


def mean_at(setup, nu):
    return next(expectation_grid(setup, (nu,), skip_one_sided=False))[1]


def quadrature_ratio(setup, nu, n=4001):
    f = lambda x: eval_normalized(setup, nu, x).value ** 2
    left = simpson(f, -setup.L / 2, setup.x0_value, n)
    right = simpson(f, setup.x0_value, setup.L / 2, n)
    return right / left


def quadrature_expectation(setup, nu, n=4001):
    f = lambda x: x * eval_normalized(setup, nu, x).value ** 2
    if nu < -100:
        width = 40.0 / (-nu)
        return simpson_peaked(f, -setup.L / 2, setup.L / 2, setup.x0_value, width, n)
    return simpson(f, -setup.L / 2, setup.x0_value, n) + simpson(
        f, setup.x0_value, setup.L / 2, n
    )


# ======================================================================
# Probability ratio
# ======================================================================


@pytest.mark.parametrize("nu", [0.9, 7.3, 22.1, 41.0, -2.0, -9.0, -60.0])
def test_ratio_matches_quadrature(nu):
    s = setup_pq(1, 4)
    assert ratio_at(s, nu) == pytest.approx(quadrature_ratio(s, nu), rel=1e-7)


def test_ratio_matches_quadrature_other_sites():
    for s in (setup_pq(3, 4), make_setup(L=2.0, x0=RealX0(0.29), c=1.0)):
        for nu in (3.7, -5.1):
            assert ratio_at(s, nu) == pytest.approx(
                quadrature_ratio(s, nu), rel=1e-7
            )


def test_ratio_special_values():
    s = setup_pq(1, 4)
    assert ratio_at(s, 0.0) == pytest.approx(s.q_ratio, rel=1e-14)
    _, r, kind = next(ratio_grid(s, (nu_n(s, 8),)))
    assert r == 1.0 / s.q_ratio
    assert kind == "both"
    _, r, kind = next(ratio_grid(s, (underline_nu(s, 1),)))
    assert r == 0.0 and kind == "under"
    _, r, kind = next(ratio_grid(s, (overline_nu(s, 1),)))
    assert r == math.inf and kind == "over"
    assert next(ratio_grid(s, (7.3,)))[2] is None


def test_ratio_is_one_for_centered_site():
    s = setup_pq(0, 1)
    for nu in (0.0, 3.3, 9.9, -4.4):
        assert ratio_at(s, nu) == pytest.approx(1.0, rel=1e-12)


def test_ratio_deep_evanescent_tends_to_one():
    """Far down the evanescent branch the state forgets the walls."""
    for s in (setup_pq(0, 1), setup_pq(1, 4)):
        assert ratio_at(s, -50.0) == pytest.approx(1.0, rel=1e-6, abs=1e-6)
    values = [abs(ratio_at(setup_pq(1, 4), nu) - 1.0) for nu in (-20.0, -40.0, -80.0)]
    assert values[0] > values[1] > values[2]


def test_ratio_log_path_agrees_with_direct_path():
    s = setup_pq(1, 4)
    direct = ratio_at(s, -599.0)
    logged = ratio_at(s, -601.0)
    assert logged == pytest.approx(direct, rel=1e-2)
    assert ratio_at(s, -5000.0) == pytest.approx(1.0, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize(
    "nu", [1e-10, -1e-10, 1e-80, -1e-80, 1e-100, -1e-100, 1e-200, 5e-324]
)
def test_tiny_nu_gives_the_linear_state(p, nu):
    """Below the linear window every observable is that of the nu = 0 state."""
    s = setup_pq(p, 4)
    close = lambda ref: pytest.approx(ref, rel=1e-14, abs=0)
    assert ratio_at(s, nu) == close(ratio_at(s, 0.0))
    assert mean_at(s, nu) == close(mean_at(s, 0.0))
    for x in (-0.3, 0.1, 0.4):
        assert eval_normalized(s, nu, x).value == close(eval_normalized(s, 0.0, x).value)
    scale = (nu / 2) ** 2
    if scale >= sys.float_info.min:
        assert rho(s, nu) / scale == close(rho(s, 0.0))


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_ratio_at_mode_above_shared_point_counts_compartment_waves(m):
    """With x0 = ((m-1)/(m+1))(L/2) the mode m+1 ratio equals m exactly."""
    s = setup_pq(m - 1, m + 1)
    assert ratio_at(s, nu_n(s, m + 1)) == pytest.approx(float(m), rel=1e-12)


def test_ratio_at_mode_formula_matches_general_path():
    s = setup_pq(1, 4)
    for n in (1, 2, 3, 7, 9, 50):
        direct = prob_ratio_at_mode(s, n)
        assert direct == pytest.approx(quadrature_ratio(s, nu_n(s, n)), rel=1e-7)
        assert direct == pytest.approx(ratio_at(s, nu_n(s, n)), rel=1e-10)
    with pytest.raises(InK):
        prob_ratio_at_mode(s, 8)
    with pytest.raises(DomainError):
        prob_ratio_at_mode(s, 0)


@pytest.mark.parametrize("p, q", [(1, 4), (1, 7), (1, 500), (11, 13), (2, 5)])
def test_ratio_at_mode_against_40_digits(p, q):
    """The phases are pi n (q -/+ p) / q from the site's exact fraction;
    with them the ratio stays within 1e-15 of 40-digit mpmath up to n = 10**6."""
    mpmath = pytest.importorskip("mpmath")
    s = setup_pq(p, q)
    ns = [n for n in (*range(1, 130), 10**4 + 1, 10**6 + 3) if n % kappa_base(s)]
    with mpmath.workdps(40):
        for n in ns:
            right, left = (n * mpmath.pi * (q - p) / q, n * mpmath.pi * (q + p) / q)
            exact = mpmath.mpf(q - p) / (q + p) * (1 - mpmath.sin(right) / right) / (
                1 - mpmath.sin(left) / left
            )
            assert abs(prob_ratio_at_mode(s, n) - exact) <= 1e-15 * exact, n


@pytest.mark.parametrize("nu", [6e9, 1e10, 1e10 + 250, 1e10 + 500, 1e10 + 750, 1e10 + 1000, 3e11])
def test_rows_far_up_the_lattice_against_40_digits(nu):
    """Lattice gaps away from every point (1e-9 nu would span them), r and
    Ex are general rows within 1e-12 of 40-digit mpmath.  nu times each
    width is exact at site 1/4, so only the closed forms are measured.
    Each piece is sin(k (L/2 -/+ x)) over the walls, k = nu/2, with
    mass s**2 I(w) and first moment s**2 (+/-)(J(w) - I(w) / 2) about the
    centre, s the other width's sine."""
    mpmath = pytest.importorskip("mpmath")
    s = setup_pq(1, 4)
    with mpmath.workdps(40):
        k, left_w, right_w = mpmath.mpf(nu) / 2, mpmath.mpf(5) / 8, mpmath.mpf(3) / 8

        def integrals(w):  # I(w) = int_0^w sin(k y)**2 dy, J(w) the same times y
            c, s2 = mpmath.cos(2 * k * w), mpmath.sin(2 * k * w)
            return w / 2 - s2 / (4 * k), w * w / 4 - w * s2 / (4 * k) - (c - 1) / (8 * k * k)

        (i_left, j_left), (i_right, j_right) = integrals(left_w), integrals(right_w)
        a, b = mpmath.sin(k * right_w) ** 2, mpmath.sin(k * left_w) ** 2
        left, right = a * i_left, b * i_right
        mean = (a * (j_left - i_left / 2) + b * (i_right / 2 - j_right)) / (left + right)
        assert next(ratio_grid(s, (nu,)))[2] is None
        assert ratio_at(s, nu) == pytest.approx(float(right / left), rel=1e-12, abs=0)
        assert mean_at(s, nu) == pytest.approx(float(mean), rel=1e-12, abs=0)


def test_ratio_near_centered_site_stays_near_one():
    """A site near the wall-to-wall midpoint barely splits the mass."""
    sups = []
    for x0_abs in (1e-4, 1e-5, 1e-6):
        s = make_setup(L=1.0, x0=RealX0(x0_abs), c=1.0)
        top = underline_nu(s, 1)
        grid = [top * (i + 0.5) / 200 for i in range(199)]
        sups.append(max(abs(ratio_at(s, nu) - 1.0) for nu in grid))
    assert sups[0] < 0.5
    assert sups[2] < 0.05
    assert sups[0] > sups[1] > sups[2]


def test_ratio_near_wall_obeys_envelope_bounds():
    """For a site close to the right wall, r is pinched between q-scaled
    envelopes of the left-compartment shape factor."""
    s = make_setup(L=1.0, x0=RealX0(0.49), c=1.0)
    q = s.q_ratio
    w2 = s.width_left
    top = overline_nu(s, 1) / 2
    gains = []
    for i in range(120):
        # Half-step stagger keeps the sweep off the under lattice, where
        # r legitimately collapses to zero.
        nu = top * (i + 0.5) / 120
        shape = math.sin(nu * w2 / 2) ** 2 / (1 - math.sin(nu * w2) / (nu * w2))
        gains.append(ratio_at(s, nu) / (q * shape))
    assert all(2 / 3 * (1 - 1e-9) <= g <= 1 + 1e-9 for g in gains)
    # Both envelope edges are approached at the ends of the sweep.
    assert gains[0] < 0.68
    assert gains[-1] > 0.95


# ======================================================================
# Position expectation
# ======================================================================


@pytest.mark.parametrize("nu", [0.9, 7.3, 22.1, -2.0, -9.0, -60.0, 0.0, 1e-6])
def test_expectation_matches_quadrature(nu):
    s = setup_pq(1, 4)
    assert mean_at(s, nu) == pytest.approx(
        quadrature_expectation(s, nu), abs=1e-8
    )


def test_expectation_matches_quadrature_other_sites():
    for s in (setup_pq(3, 4), make_setup(L=2.0, x0=RealX0(0.29), c=1.0)):
        for nu in (3.7, -5.1):
            assert mean_at(s, nu) == pytest.approx(
                quadrature_expectation(s, nu), abs=1e-8
            )


def test_expectation_special_values():
    s = setup_pq(1, 4)
    assert mean_at(s, 0.0) == s.x0_value / 2
    assert mean_at(s, nu_n(s, 8)) == s.x0_value
    assert mean_at(setup_pq(0, 1), 5.43) == 0.0
    with pytest.raises(SingularPoint):
        mean_at(s, underline_nu(s, 1))
    with pytest.raises(SingularPoint):
        mean_at(s, overline_nu(s, 2))


def test_expectation_deep_evanescent_localizes_at_site():
    s = setup_pq(1, 4)
    assert mean_at(s, -50.0) == pytest.approx(s.x0_value, abs=1e-6)
    assert mean_at(s, -700.0) == pytest.approx(s.x0_value, abs=1e-9)
    assert mean_at(s, -700.0) == pytest.approx(
        quadrature_expectation(s, -700.0), abs=1e-9
    )
    direct = mean_at(s, -599.0)
    scaled = mean_at(s, -601.0)
    assert scaled == pytest.approx(direct, abs=1e-6)


def test_expectation_at_free_modes_of_centered_site_is_zero():
    s = setup_pq(0, 1)
    for n in (1, 3, 5):
        assert mean_at(s, nu_n(s, n)) == pytest.approx(0.0, abs=1e-15)


# ======================================================================
# Amplitude envelope for a centered site
# ======================================================================


def test_gamma_factor_values_and_domain():
    assert gamma_factor(math.pi) == pytest.approx(1.0, rel=1e-15)
    expected = 1.0 / math.sqrt(1.0 - 2.0 / math.pi)
    assert gamma_factor(math.pi / 2) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DomainError):
        gamma_factor(1e-4)
    with pytest.raises(DomainError):
        gamma_factor(-1.0)


def test_amplitude_extrema_first_mode():
    maximum, minimum = amplitude_extrema(1)
    assert maximum.value == math.sqrt(1.5)
    assert maximum.gamma_crit == 0.0
    assert minimum.value == pytest.approx(0.9061, abs=5e-3)
    # The minimum's critical angle solves tan(gamma) = gamma.
    g = minimum.gamma_crit
    assert abs(g * math.cos(g) - math.sin(g)) < 1e-12
    assert math.pi < g < 1.5 * math.pi


def test_amplitude_extrema_rejects_out_of_bracket_root(monkeypatch):
    """The interlacing bounds are checked with a raise, which survives -O."""
    monkeypatch.setattr(observables, "_tan_fixed_point", lambda lo, hi: 2 * hi)
    with pytest.raises(ConvergenceError, match="interlacing"):
        amplitude_extrema(3)


@pytest.mark.parametrize("n", [3, 5, 9, 17, 31])
def test_amplitude_extrema_structure(n):
    maximum, minimum = amplitude_extrema(n)
    assert maximum.n == minimum.n == n
    assert maximum.value > 1.0 > minimum.value
    for ext in (maximum, minimum):
        g = ext.gamma_crit
        assert ext.bracket[0] <= g <= ext.bracket[1]
        assert abs(g * math.cos(g) - math.sin(g)) < 1e-10 * g
    # Successive swings interlace: the n-th peak overshoot sits between the
    # 1/(2npi) tail estimate (plus its curvature correction) and the same
    # estimate taken one index lower, and dually for the dip undershoot.
    over = maximum.value - 1.0
    lo = 1.0 / (2 * n * math.pi) + 1.0 / (3 * n**2 * math.pi**2)
    hi = 1.0 / (2 * (n - 1) * math.pi) + 1.0 / (2 * (n - 1) ** 2 * math.pi**2)
    assert lo < over < hi
    under = 1.0 - minimum.value
    lo = 1.0 / (2 * (n + 1) * math.pi) - 1.0 / (2 * (n + 1) ** 2 * math.pi**2)
    hi = 1.0 / (2 * n * math.pi) - 1.0 / (3 * n**2 * math.pi**2)
    assert lo < under < hi


def test_amplitude_extrema_rejects_even_and_nonpositive_indices():
    for bad in (0, 2, 10, -3):
        with pytest.raises(DomainError):
            amplitude_extrema(bad)


def test_amplitude_extrema_are_deterministic():
    a1 = amplitude_extrema(7)
    a2 = amplitude_extrema(7)
    assert a1[0].value == a2[0].value and a1[1].gamma_crit == a2[1].gamma_crit


# ======================================================================
# Grids against one point
# ======================================================================

# A rational site, an irrational real, a float twin of rational:1/4 and the
# centred site; L = 2 moves LOG_SWITCH and the linear window off the defaults,
# and L = 1e-70 takes the linear masses, of order L**5, below float range.
GRID_SITES = [
    ("rational:1/7", 1.0),
    ("real:0.07071067811865475", 1.0),
    ("real:0.125", 1.0),
    ("rational:0/1", 1.0),
    ("rational:3/4", 2.0),
    ("rational:1/4", 1e-70),
]


def _ulps_around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@st.composite
def grid_nus(draw, setup):
    """Wave numbers at and around every decision of the grid code."""
    index = st.integers(min_value=1, max_value=40)
    point = st.one_of(
        index.map(lambda k: underline_nu(setup, k)),
        index.map(lambda l: overline_nu(setup, l)),
        st.integers(min_value=1, max_value=12).map(
            lambda m: nu_n(setup, m * kappa_base(setup))
        ),
    )
    # A lattice point p holds nu while |nu - p| <= ON_LATTICE_RTOL * p.
    radius_edge = st.tuples(point, st.sampled_from([-1.0, 1.0])).flatmap(
        lambda ps: st.sampled_from(_ulps_around(ps[0] + ps[1] * ON_LATTICE_RTOL * ps[0]))
    )
    linear_edge = LINEAR_WINDOW / setup.L
    # Each compartment's switch to its large-y factors, where y = t w
    # reaches LOG_SWITCH.
    special = st.sampled_from(
        [0.0, -0.0, 1e-200, -1e-200]
        + _ulps_around(linear_edge)
        + _ulps_around(-linear_edge)
        + _ulps_around(-LOG_SWITCH / setup.width_right)
        + _ulps_around(-LOG_SWITCH / setup.width_left)
    )
    nu = st.one_of(
        point,
        radius_edge,
        special,
        st.floats(min_value=-5000.0, max_value=0.0),
        st.floats(min_value=-60.0, max_value=400.0),
    )
    return draw(st.lists(nu, min_size=1, max_size=25))


def _one_point_expectations(setup, nus):
    rows = []
    for nu in nus:
        try:
            rows.append((nu, mean_at(setup, nu)))
        except SingularPoint:
            continue
    return rows


@given(site=st.sampled_from(GRID_SITES), data=st.data())
@examples(150)
def test_grids_equal_the_one_point_functions_bit_for_bit(site, data):
    spec, L = site
    s = make_setup(L=L, x0=parse_x0(spec), c=1.0)
    nus = data.draw(grid_nus(s))
    # repr tells every two floats apart, -0.0 from 0.0 included.
    ratios = [next(ratio_grid(s, (nu,))) for nu in nus]
    assert repr(list(ratio_grid(s, nus))) == repr(ratios)
    expected = _one_point_expectations(s, nus)
    assert repr(list(expectation_grid(s, nus))) == repr(expected)
    strict = []
    try:
        for row in expectation_grid(s, nus, skip_one_sided=False):
            strict.append(row)
    except SingularPoint:
        # The strict grid stops at the first one-sided point, as mean_at raises.
        assert len(strict) < len(nus)
        assert repr(_one_point_expectations(s, nus[: len(strict) + 1])) == repr(strict)
    else:
        assert repr(strict) == repr(expected) and len(strict) == len(nus)
    assert repr(list(rho_grid(s, nus))) == repr([rho(s, nu) for nu in nus])


def _box_exponent(setup):
    """e_L, the even part of L's binary exponent: widths are taken over 2**e_L."""
    return math.frexp(setup.L)[1] & -2


def _reference_masses(setup, nu):
    """(left, right, deep, scale) from the mass formulas alone, written apart
    from the row loop: the reference its masses must equal bit for bit."""
    L, w1, w2, e_L = setup.L, setup.width_right, setup.width_left, _box_exponent(setup)
    v1, v2 = math.ldexp(w1, -e_L), math.ldexp(w2, -e_L)
    if abs(nu) * L < LINEAR_WINDOW:
        # Masses of order L**5 in units of 2**e_L, that power carried in scale.
        left, right = v1 * v1 * v2**3 / 3, v2 * v2 * v1**3 / 3
        if nu == 0:
            return left, right, 0.0, 5 * e_L
        m, e = math.frexp(abs(nu))
        return left * m**4, right * m**4, 0.0, 4 * (e - 1) + 5 * e_L
    if nu > 0:
        s1, s2 = math.sin((nu / 2) * w1), math.sin((nu / 2) * w2)
        left = s1 * s1 * (v2 / 2) * one_minus_sinc(nu * w2)
        right = s2 * s2 * (v1 / 2) * one_minus_sinc(nu * w1)
        return left, right, 0.0, e_L
    # Evanescent: each sinh(y/2)**2 times exp(-y), the exp(y) of both
    # compartments carried in deep, then an even power of two in scale.
    y1, y2 = -nu * w1, -nu * w2

    def factors(y):
        if y >= LOG_SWITCH:
            return 0.25, 0.5 / y
        sh = math.sinh(y / 2)
        return sh * sh * math.exp(-y), math.exp(-y) * sinhc_minus_one(y)

    (f1, e1), (f2, e2) = factors(y1), factors(y2)
    left, right = f1 * (v2 / 2) * e2, f2 * (v1 / 2) * e1
    k = math.frexp(left + right)[1] & -2
    return math.ldexp(left, -k), math.ldexp(right, -k), (y1 + y2) / math.log(2.0), e_L + k


def _site_distance(setup, nu, w):
    """Mean distance from x0 of a compartment's mass, in units of 2**e_L,
    as computed on its own before the row loop took the sines from the
    mass evaluation."""
    y, v = abs(nu) * w, math.ldexp(w, -_box_exponent(setup))
    if nu > 0:
        a = one_minus_sinc(y / 2)
        return (v / 2) * a * (2 - a) / one_minus_sinc(y)
    if y >= LOG_SWITCH:
        return v / y
    b = sinhc_minus_one(y / 2)
    return (v / 2) * b * (2 + b) / sinhc_minus_one(y)


def _reference_mean(setup, nu):
    left, right, _, _ = _reference_masses(setup, nu)
    d1 = _site_distance(setup, nu, setup.width_right)
    d2 = _site_distance(setup, nu, setup.width_left)
    shift = (right * d1 - left * d2) / (left + right)
    return setup.x0_value + math.ldexp(shift, _box_exponent(setup))


@st.composite
def kernel_nus(draw, setup):
    """grid_nus, plus both series windows of the sincs (|nu| w < 1)."""
    series = st.floats(min_value=-2.0 / setup.L, max_value=2.0 / setup.L)
    return draw(grid_nus(setup)) + draw(st.lists(series, max_size=10))


@given(site=st.sampled_from(GRID_SITES), data=st.data())
@examples(150)
def test_row_loop_readouts_equal_the_separate_formulas_bit_for_bit(site, data):
    """Each readout of compartment_rows over one grid equals the masses and
    distances written apart from it, and on a lattice hit the kind of
    lattice_locator's point and its limit value; the strict mean readout
    raises at the first one-sided point, after the rows before it."""
    spec, L = site
    s = make_setup(L=L, x0=parse_x0(spec), c=1.0)
    nus = data.draw(kernel_nus(s))
    locate, x0 = lattice.lattice_locator(s), s.x0_value
    limits = {"both": 1.0 / s.q_ratio, "under": 0.0, "over": math.inf}
    ratios, means, stop = [], [], None
    for nu in nus:
        left, right, _, _ = _reference_masses(s, nu)
        hit = locate(nu)
        if hit is not None:
            ratios.append((nu, limits[hit.kind], hit.kind))
            if hit.kind == "both":
                means.append((nu, x0))
            elif stop is None:
                stop = len(means)
            continue
        ratios.append((nu, right / left, None))
        if x0 == 0.0:
            means.append((nu, 0.0))
        elif abs(nu) * L < LINEAR_WINDOW:
            means.append((nu, x0 / 2))
        else:
            means.append((nu, _reference_mean(s, nu)))
    # repr tells every two floats apart, -0.0 from 0.0 included.
    assert repr(list(compartment_rows(s, nus, "ratio"))) == repr(ratios)
    assert repr(list(compartment_rows(s, nus, "mean"))) == repr(means)
    norms = [
        (left + right, deep, scale)
        for left, right, deep, scale in (_reference_masses(s, nu) for nu in nus)
    ]
    assert repr(list(compartment_rows(s, nus, "norm"))) == repr(norms)
    strict, grid = [], compartment_rows(s, nus, "mean", skip_one_sided=False)
    if stop is None:
        assert repr(list(grid)) == repr(means)
    else:
        with pytest.raises(SingularPoint, match="one-sided lattice point"):
            for row in grid:
                strict.append(row)
        assert repr(strict) == repr(means[:stop])


def test_row_loop_refuses_an_unknown_readout():
    with pytest.raises(DomainError, match="readout"):
        next(compartment_rows(setup_pq(1, 4), [7.3], "offset"))


@given(site=st.sampled_from(GRID_SITES), data=st.data())
@examples(150)
def test_expectation_rows_equal_the_separate_distance_form_bit_for_bit(site, data):
    spec, L = site
    s = make_setup(L=L, x0=parse_x0(spec), c=1.0)
    x0 = s.x0_value
    for nu, mean in expectation_grid(s, data.draw(kernel_nus(s))):
        if lattice.lattice_locator(s)(nu) is not None:
            assert mean == x0
            continue
        if x0 == 0.0:
            expected = 0.0
        elif abs(nu) * L < LINEAR_WINDOW:
            expected = x0 / 2
        else:
            expected = _reference_mean(s, nu)
        assert repr(mean) == repr(expected)


def _scaled_by_power_of_two(x, n, y):
    """Whether y is x * 2**n, read from whichever of the two is a finite
    normal float (an overflow reads inf); True when neither is."""
    for a, b, m in ((x, y, n), (y, x, -n)):
        if math.isfinite(a) and abs(a) >= sys.float_info.min:
            try:
                expected = math.ldexp(a, m)
            except OverflowError:
                expected = math.copysign(math.inf, a)
            return repr(expected) == repr(b)
    return True


@given(site=st.sampled_from(GRID_SITES), j=st.integers(-200, 200), data=st.data())
@examples(150)
def test_rows_of_a_box_four_to_the_j_times_as_long_are_rescaled_bit_for_bit(site, j, data):
    """At (4**j L, 4**-j nu) a ratio row is the row at (L, nu), an Ex row
    that row times 4**j and a rho row that row times 2**j (2**(5 j) at nu
    = 0, whose masses grow as L**5): every width is taken in units of a
    power of four near L, and every product nu w keeps its bits."""
    spec, L = site
    x0 = parse_x0(spec)
    s = make_setup(L=L, x0=x0, c=1.0)
    if isinstance(x0, RealX0):
        x0 = RealX0(math.ldexp(x0.value_abs, 2 * j))
    big = make_setup(L=math.ldexp(L, 2 * j), x0=x0, c=1.0)
    # Only nu whose scaled twin is exact and normal.
    nus = [
        nu for nu in data.draw(grid_nus(s)) if nu == 0 or abs(math.ldexp(nu, -2 * j)) >= 2.0**-1000
    ]
    scaled = [math.ldexp(nu, -2 * j) for nu in nus]
    ratios = [row[1:] for row in ratio_grid(s, nus)]
    assert repr([row[1:] for row in ratio_grid(big, scaled)]) == repr(ratios)
    rows, big_rows = list(expectation_grid(s, nus)), list(expectation_grid(big, scaled))
    assert [math.ldexp(nu, -2 * j) for nu, _ in rows] == [nu for nu, _ in big_rows]
    assert all(_scaled_by_power_of_two(a, 2 * j, b) for (_, a), (_, b) in zip(rows, big_rows))
    for nu, a, b in zip(nus, rho_grid(s, nus), rho_grid(big, scaled)):
        assert _scaled_by_power_of_two(a, 5 * j if nu == 0 else j, b)


def test_grid_without_lattice_hits_builds_no_lattice_point(monkeypatch):
    s = setup_pq(1, 4)
    nus = [-700.0, -3.0, 0.0, 1e-200, 7.3, 22.1, 41.0]
    assert all(next(ratio_grid(s, (nu,)))[2] is None for nu in nus)

    def refuse(*args, **kwargs):
        raise RuntimeError("a LatticePoint was built")

    monkeypatch.setattr(lattice, "LatticePoint", refuse)
    assert [row[2] for row in ratio_grid(s, nus)] == [None] * len(nus)
    assert len(list(expectation_grid(s, nus))) == len(nus)
    assert lattice.lattice_locator(s)(7.3) is None
    # The patch is live: a hit does build a point.
    with pytest.raises(RuntimeError, match="LatticePoint"):
        list(ratio_grid(s, [underline_nu(s, 1)]))
