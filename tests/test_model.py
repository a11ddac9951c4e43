"""Setup construction, signed energies, and free-well modes."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltabox.errors import DomainError
from deltabox.model import (
    RationalX0,
    RealX0,
    energy_from_nu,
    make_setup,
    nu_n,
    phi_mode,
    phi_mode_grid,
    site_modes,
)

from _examples import examples
from _quad import simpson


def test_make_setup_populates_widths():
    s = make_setup(L=2.0, x0=RationalX0(1, 4), c=1.0)
    assert s.x0_value == pytest.approx(0.25)
    assert s.width_right == pytest.approx(2.0 / 2 - 0.25)
    assert s.width_left == pytest.approx(2.0 / 2 + 0.25)
    assert s.q_ratio == pytest.approx(s.width_right / s.width_left)
    assert isinstance(s.x0, RationalX0)


def test_make_setup_real_site():
    s = make_setup(L=1.0, x0=RealX0(0.3), c=2.0)
    assert s.x0_value == pytest.approx(0.3)
    assert not isinstance(s.x0, RationalX0)
    assert s.c == 2.0


def test_rational_site_reduces_to_lowest_terms():
    x0 = RationalX0(2, 8)
    assert (x0.p, x0.q) == (1, 4)


def test_centered_site_is_rational_zero():
    s = make_setup(L=1.0, x0=RationalX0(0, 1), c=1.0)
    assert s.x0_value == 0.0
    assert s.q_ratio == 1.0


@pytest.mark.parametrize(
    "L, x0, c",
    [
        (0.0, RationalX0(1, 4), 1.0),
        (-1.0, RationalX0(1, 4), 1.0),
        (1.0, RationalX0(1, 4), 0.0),
        (1.0, RealX0(0.7), 1.0),  # outside [0, L/2)
        (math.nan, RationalX0(1, 4), 1.0),
    ],
)
def test_make_setup_rejects_bad_parameters(L, x0, c):
    with pytest.raises(DomainError):
        make_setup(L=L, x0=x0, c=c)


def test_rational_site_rejects_out_of_range():
    with pytest.raises(DomainError):
        RationalX0(5, 4)
    with pytest.raises(DomainError):
        RationalX0(1, 0)
    with pytest.raises(DomainError):
        RationalX0(-1, 4)


def test_energy_is_signed_and_monotone():
    s = make_setup(L=1.0, x0=RationalX0(1, 4), c=1.0)
    nus = [-10.0, -1.0, 0.0, 1.0, 10.0]
    energies = [energy_from_nu(s, nu) for nu in nus]
    assert energies == sorted(energies)
    assert energy_from_nu(s, 4.0) == pytest.approx(4.0)
    assert energy_from_nu(s, -4.0) == pytest.approx(-4.0)
    assert energy_from_nu(s, 0.0) == 0.0


def test_mode_wavenumber_and_mode_index_validation():
    s = make_setup(L=2.0, x0=RationalX0(0, 1), c=1.0)
    assert nu_n(s, 3) == pytest.approx(3 * math.pi)
    with pytest.raises(DomainError):
        nu_n(s, 0)
    with pytest.raises(DomainError):
        phi_mode(s, 0, 0.0)
    with pytest.raises(DomainError):
        phi_mode(s, 1, 1.5 * s.L)


@pytest.mark.parametrize("n", [1, 2, 5, 11])
def test_mode_function_normalized_and_vanishes_at_walls(n):
    s = make_setup(L=1.7, x0=RationalX0(1, 4), c=1.0)
    norm = simpson(lambda x: phi_mode(s, n, x) ** 2, -s.L / 2, s.L / 2, n=4001)
    assert norm == pytest.approx(1.0, rel=1e-10)
    assert phi_mode(s, n, -s.L / 2) == pytest.approx(0.0, abs=1e-12)
    assert phi_mode(s, n, s.L / 2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("L", [1.0, 1.7, 2.0, 1e-3])
def test_mode_function_is_positive_zero_at_both_walls(L):
    s = make_setup(L=L, x0=RationalX0(1, 4), c=1.0)
    for n in range(1, 400):
        for x in (-L / 2, L / 2):
            value = phi_mode(s, n, x)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, (n, x)


@pytest.mark.parametrize("n", [1, 3, 8, 255, 1024, 1999, 2000])
def test_mode_function_left_half_against_40_digits(n):
    """Left of the centre the phase runs from the left wall, so the error
    stays within about n eps of the amplitude up to the wall."""
    mpmath = pytest.importorskip("mpmath")
    s = make_setup(L=1.0, x0=RationalX0(1, 4), c=1.0)
    xs = [-0.5 + i / 1024 for i in range(512)] + [-0.5 + i * 0.001 for i in range(500)]
    amp, eps = math.sqrt(2 / s.L), sys.float_info.epsilon
    with mpmath.workdps(40):
        for x in xs:
            exact = mpmath.sqrt(2) * mpmath.sin(n * mpmath.pi * (mpmath.mpf(0.5) - mpmath.mpf(x)))
            assert abs(phi_mode(s, n, x) - exact) <= 2 * (n + 4) * eps * amp, x


@pytest.mark.parametrize(
    "L, x0",
    [(1.0, RationalX0(1, 4)), (1.0, RationalX0(0, 1)), (2.5, RationalX0(3, 7)), (1.0, RealX0(0.125))],
)
def test_phi_mode_grid_is_phi_mode_at_every_point(L, x0):
    """The list form equals the point form bit for bit, in any order, at the
    walls, at the site (site_modes' value, 0.0 at a node there), at the
    mode's own nodes and between them; a wall and the site print 0.0, never
    -0.0, and an x outside the box anywhere in the list is a DomainError."""
    s = make_setup(L=L, x0=x0, c=1.0)
    for n in (1, 2, 3, 8, 14):
        nodes = [-L / 2 + j * L / n for j in range(n + 1)]
        xs = [*nodes, s.x0_value, -0.3 * L, 0.1 * L, math.nextafter(s.x0_value, L), -L / 2]
        values = phi_mode_grid(s, n, xs)
        assert repr(values) == repr([phi_mode(s, n, x) for x in xs]), n
        assert repr(phi_mode_grid(s, n, xs[::-1])) == repr(values[::-1]), n
        assert values[xs.index(s.x0_value)] == site_modes(s, n)[n - 1]
        for x in (-L / 2, L / 2):
            assert repr(values[xs.index(x)]) == "0.0"
    with pytest.raises(DomainError):
        phi_mode_grid(s, 1, [0.0, 0.75 * L, 0.1])
    with pytest.raises(DomainError):
        phi_mode_grid(s, 1, [0.0, math.nan, 0.1])


def test_real_site_stores_negative_zero_as_zero():
    x0 = RealX0(-0.0)
    assert math.copysign(1.0, x0.value_abs) == 1.0
    assert math.copysign(1.0, make_setup(L=1.0, x0=x0, c=1.0).x0_value) == 1.0


@pytest.mark.parametrize(
    "L, x0",
    [(1.0, RationalX0(1, 4)), (1.0, RationalX0(0, 1)), (2.5, RationalX0(3, 4)), (1.0, RealX0(0.3))],
)
def test_site_modes_are_phi_mode_at_the_site(L, x0):
    """site_modes is phi_mode at x0 bit for bit, and within the float phase's
    own rounding, about m eps absolute, of sqrt(2/L) sin(m pi / L (L/2 - x0))."""
    s = make_setup(L=L, x0=x0, c=1.0)
    M = 16384
    values = site_modes(s, M)
    assert values == [phi_mode(s, m, s.x0_value) for m in range(1, M + 1)]
    norm, arm, eps = math.sqrt(2 / s.L), s.L / 2 - s.x0_value, sys.float_info.epsilon
    for m, value in enumerate(values, start=1):
        float_phase = norm * math.sin(m * math.pi / s.L * arm)
        assert abs(value - float_phase) <= 2 * m * eps * norm, m


@pytest.mark.parametrize("p, q", [(0, 1), (1, 4), (1, 7), (2, 5), (1, 500)])
def test_site_modes_against_40_digits(p, q):
    """Every value within 2e-15 relative of sqrt(2/L) sin(pi m (q - p) / (2 q)),
    and exactly 0.0 at every node, m (q - p) = 0 mod 2q."""
    mpmath = pytest.importorskip("mpmath")
    s = make_setup(L=1.0, x0=RationalX0(p, q), c=1.0)
    with mpmath.workdps(40):
        for m, value in enumerate(site_modes(s, 16384), start=1):
            if m * (q - p) % (2 * q) == 0:
                assert value == 0.0 and math.copysign(1.0, value) == 1.0, m
                continue
            exact = mpmath.sqrt(2) * mpmath.sinpi(mpmath.mpf(m * (q - p)) / (2 * q))
            assert abs(value - exact) <= 2e-15 * abs(exact), m


def test_site_modes_next_to_the_centre():
    """A float site a few ulps from the centre has a fraction whose q is beyond
    float range; its values stay finite, at the centre's to within 1e-300."""
    s = make_setup(L=1.0, x0=RealX0(5e-324), c=1.0)
    assert s.q > 1e308
    centre = site_modes(make_setup(L=1.0, x0=RationalX0(0, 1), c=1.0), 8)
    assert site_modes(s, 8) == pytest.approx(centre, abs=1e-300)


@given(
    n=st.integers(min_value=1, max_value=50),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@examples(40)
def test_mode_function_satisfies_free_equation(n, frac):
    """Second differences reproduce -(nu_n/2)^2 phi away from the walls."""
    s = make_setup(L=1.0, x0=RationalX0(0, 1), c=1.0)
    x = -s.L / 2 + frac * s.L
    h = 1e-5 * s.L
    if abs(x) > s.L / 2 - 2 * h:
        return
    second = (phi_mode(s, n, x - h) - 2 * phi_mode(s, n, x) + phi_mode(s, n, x + h)) / h**2
    target = -((nu_n(s, n) / 2) ** 2) * phi_mode(s, n, x)
    scale = (nu_n(s, n) / 2) ** 2 * math.sqrt(2 / s.L)
    assert abs(second - target) <= 1e-4 * scale
