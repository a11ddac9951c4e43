"""Sine-basis expansions: coefficients, partial sums, tails."""

import functools
import math
from operator import mul

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from deltabox import cli, fourier as fourier_mod
from deltabox.cli import parse_x0
from deltabox.errors import DomainError, InK, NotInK
from deltabox.fourier import (
    coeffs_general,
    coeffs_limit,
    fold_to_grid,
    partial_sum,
)
from deltabox.lattice import kappa_base, over_in_shared, overline_nu, under_in_shared, underline_nu
from deltabox.model import RationalX0, RealX0, make_setup, nu_n, phi_mode, phi_mode_grid, site_modes
from deltabox.wavefn import (
    eval_normalized,
    limit_state,
    upsilon_hat,
    upsilon_over,
    upsilon_under,
)

from _examples import examples
from _quad import extrapolate_to_zero, simpson_panels, split_nodes
from _reference import parseval_defect, tail_bound


def setup_pq(p, q, L=1.0, c=1.0):
    return make_setup(L=L, x0=RationalX0(p, q), c=c)


def assert_coefficients_match_quadrature(expansion, f, n=8001):
    """Each a_m equals the Simpson overlap of f with Phi_m within 2e-9.

    Every m integrates on the same nodes, so f is sampled once per panel
    and its values are reused for every m; Phi_m is sampled once per panel
    and m.
    """
    setup = expansion.setup
    panels = [
        (xs, list(map(f, xs)), h)
        for xs, h in split_nodes(-setup.L / 2, setup.L / 2, setup.x0_value, n)
    ]
    for m, a in expansion.coefficients:
        quad = simpson_panels(
            (list(map(mul, fs, phi_mode_grid(setup, m, xs))), h) for xs, fs, h in panels
        )
        assert a == pytest.approx(quad, abs=2e-9), m


# ======================================================================
# Coefficients against direct quadrature
# ======================================================================


@pytest.mark.parametrize("nu", [7.3, 22.1, -9.0, 0.0, 1e-6])
def test_general_coefficients_match_quadrature(nu):
    s = setup_pq(1, 4)
    expansion = coeffs_general(s, nu, M=12)
    f = lambda x: eval_normalized(s, nu, x).value
    assert_coefficients_match_quadrature(expansion, f)


def test_general_coefficients_match_quadrature_real_site():
    s = make_setup(L=2.0, x0=RealX0(0.37), c=1.0)
    for nu in (4.1, -3.3):
        expansion = coeffs_general(s, nu, M=8)
        f = lambda x: eval_normalized(s, nu, x).value
        assert_coefficients_match_quadrature(expansion, f)


def test_expansion_is_one_hot_at_free_modes():
    s = setup_pq(1, 4)
    expansion = coeffs_general(s, nu_n(s, 5), M=16)
    for m, a in expansion.coefficients:
        assert a == (1.0 if m == 5 else 0.0)
    assert tail_bound(expansion) == 0.0


def test_one_hot_and_linear_expansions_take_no_norm(monkeypatch):
    """A free mode off the shared lattice is one-hot and the linear state has
    a closed-form prefactor, so neither calls rho; a shared mode still
    reaches the limit window first."""
    s = setup_pq(1, 4)  # shared modes at multiples of 8
    linear = [coeffs_general(s, nu, M=16).coefficients for nu in (0.0, 1e-12, -1e-12)]

    def no_norm(setup, nu):
        raise AssertionError(f"rho called at nu={nu!r}")

    monkeypatch.setattr("deltabox.wavefn.rho", no_norm)
    for nu in (nu_n(s, 1), nu_n(s, 3), nu_n(s, 3) * (1 + 5e-13), nu_n(s, 9)):
        n = round(nu / nu_n(s, 1))
        coeffs = coeffs_general(s, nu, M=16).coefficients
        assert coeffs == [(m, 1.0 if m == n else 0.0) for m in range(1, 17)]
    assert [coeffs_general(s, nu, M=16).coefficients for nu in (0.0, 1e-12, -1e-12)] == linear
    assert coeffs_general(s, nu_n(s, 8), M=16).kind.label == "limit_hat"


def test_hat_coefficients_match_quadrature():
    s = setup_pq(3, 4)
    nu_hat = nu_n(s, 16)
    expansion = coeffs_limit(limit_state(s, "hat", nu_hat), M=24)
    f = lambda x: upsilon_hat(s, nu_hat, x).value
    assert_coefficients_match_quadrature(expansion, f)


def test_hat_expansion_active_mode_coefficient_is_exactly_zero():
    s = setup_pq(1, 4)
    expansion = coeffs_limit(limit_state(s, "hat", nu_n(s, 8)), M=64)
    coeffs = dict(expansion.coefficients)
    assert coeffs[8] == 0.0
    # Every mode vanishing at x0 (multiples of the base) is also absent.
    for m in (16, 24, 32):
        assert abs(coeffs[m]) < 1e-13


def test_under_coefficients_match_quadrature():
    s = setup_pq(1, 4)
    expansion = coeffs_limit(limit_state(s, "under", 2), M=16)
    f = lambda x: upsilon_under(s, 2, "below", x).value
    assert_coefficients_match_quadrature(expansion, f)


def test_over_coefficients_match_quadrature():
    s = setup_pq(1, 4)
    expansion = coeffs_limit(limit_state(s, "over", 2), M=16)
    f = lambda x: upsilon_over(s, 2, x).value
    assert_coefficients_match_quadrature(expansion, f)


def test_under_sides_differ_by_overall_sign():
    s = setup_pq(1, 4)
    below = coeffs_limit(limit_state(s, "under", 1, "below"), M=8)
    above = coeffs_limit(limit_state(s, "under", 1, "above"), M=8)
    for (m1, a1), (m2, a2) in zip(below.coefficients, above.coefficients):
        assert m1 == m2 and a1 == -a2


def test_limit_expansions_reject_wrong_lattice_membership():
    s = setup_pq(1, 4)
    with pytest.raises(InK):
        coeffs_limit(limit_state(s, "under", 5), M=8)
    with pytest.raises(InK):
        coeffs_limit(limit_state(s, "over", 3), M=8)
    with pytest.raises(NotInK):
        coeffs_limit(limit_state(s, "hat", nu_n(s, 7)), M=8)
    with pytest.raises(DomainError):
        coeffs_general(s, 5.0, M=0)


# ======================================================================
# Partial sums and tails
# ======================================================================


def sup_reconstruction_error(setup, expansion, reference, exclude_radius=0.0, n=241):
    xs = [-setup.L / 2 + i * setup.L / (n - 1) for i in range(n)]
    worst = 0.0
    for x in xs:
        if abs(x - setup.x0_value) < exclude_radius:
            continue
        worst = max(worst, abs(partial_sum(expansion, x) - reference(x)))
    return worst


def test_partial_sums_reconstruct_smooth_states():
    s = setup_pq(1, 4)
    for nu in (7.3, -4.0, 0.0):
        expansion = coeffs_general(s, nu, M=2048)
        f = lambda x: eval_normalized(s, nu, x).value
        assert sup_reconstruction_error(s, expansion, f) < 1e-3


def test_partial_sums_reconstruct_limit_states_away_from_site():
    s = setup_pq(1, 4)
    cases = [
        (
            coeffs_limit(limit_state(s, "hat", nu_n(s, 8)), M=2048),
            lambda x: upsilon_hat(s, nu_n(s, 8), x).value,
        ),
        (
            coeffs_limit(limit_state(s, "under", 1), M=2048),
            lambda x: upsilon_under(s, 1, "below", x).value,
        ),
        (
            coeffs_limit(limit_state(s, "over", 1), M=2048),
            lambda x: upsilon_over(s, 1, x).value,
        ),
    ]
    for expansion, f in cases:
        err = sup_reconstruction_error(s, expansion, f, exclude_radius=s.L / 64)
        assert err < 4e-3


@pytest.mark.parametrize("p, q, n", [(1, 4, 8), (3, 4, 16)])
def test_general_expansion_at_shared_mode_matches_eval_normalized(p, q, n):
    """At a shared-lattice value both modules give the continuous limit state."""
    s = setup_pq(p, q)
    nu = nu_n(s, n)
    expansion = coeffs_general(s, nu, M=2048)
    f = lambda x: eval_normalized(s, nu, x).value
    err = sup_reconstruction_error(s, expansion, f, exclude_radius=s.L / 64)
    assert err < 4e-3


def mp_terms(expansion, x, mpmath):
    """The terms a_m Phi_m(x) of the float coefficients at mpmath's precision."""
    L = mpmath.mpf(expansion.setup.L)
    theta = mpmath.pi * (L / 2 - mpmath.mpf(x)) / L
    norm = mpmath.sqrt(2 / L)
    return [norm * mpmath.mpf(a) * mpmath.sin(m * theta) for m, a in expansion.coefficients]


def mp_partial_sum(expansion, x, mpmath):
    """Sum_m a_m Phi_m(x) of the float coefficients in 40-digit arithmetic."""
    return mpmath.fsum(mp_terms(expansion, x, mpmath))


@pytest.mark.parametrize(
    "x0", [RationalX0(1, 4), RationalX0(0, 1), RealX0(0.3)], ids=["1/4", "0/1", "real0.3"]
)
def test_partial_sums_are_relatively_accurate_at_both_walls(x0):
    """Within L/1000 to L*1e-9 of either wall, where every term is small."""
    mpmath = pytest.importorskip("mpmath")
    s = make_setup(L=1.0, x0=x0, c=1.0)
    expansions = [coeffs_general(s, nu, M=1024) for nu in (37.3, -9.0, 0.0)]
    if x0 == RationalX0(1, 4):
        expansions.append(coeffs_limit(limit_state(s, "hat", nu_n(s, 8)), M=1024))
    with mpmath.workdps(40):
        for expansion in expansions:
            for delta in (1e-3, 1e-4, 1e-6, 1e-9):
                for x in (s.L / 2 - delta * s.L, -(s.L / 2 - delta * s.L)):
                    exact = mp_partial_sum(expansion, x, mpmath)
                    rel = abs((partial_sum(expansion, x) - exact) / exact)
                    assert rel <= 1e-13, (expansion.kind, x)


@pytest.mark.parametrize("M", [1, 2, 3, 2048])
def test_partial_sums_match_direct_summation(M):
    s = setup_pq(1, 4)
    expansions = [
        coeffs_general(s, 7.3, M=M),
        coeffs_limit(limit_state(s, "hat", nu_n(s, 8)), M=M),
        coeffs_limit(limit_state(s, "under", 2), M=M),
        coeffs_limit(limit_state(s, "over", 2), M=M),
    ]
    xs = [-s.L / 2 + i * s.L / 64 for i in range(65)]
    for expansion in expansions:
        for x in xs:
            direct = math.fsum(a * phi_mode(s, m, x) for m, a in expansion.coefficients)
            assert abs(partial_sum(expansion, x) - direct) <= 1e-13, (expansion.kind, x)


def test_one_hot_partial_sum_is_the_mode():
    s = setup_pq(1, 4)
    expansion = coeffs_general(s, nu_n(s, 5), M=16)
    for i in range(65):
        x = -s.L / 2 + i * s.L / 64
        assert partial_sum(expansion, x) == pytest.approx(phi_mode(s, 5, x), abs=1e-14)


def test_partial_sum_rejects_points_outside_the_box():
    s = setup_pq(1, 4)
    expansion = coeffs_general(s, 7.3, M=8)
    for x in (-s.L / 2 - 1e-12, s.L / 2 + 1e-12, 2 * s.L, math.nan):
        with pytest.raises(DomainError):
            partial_sum(expansion, x)


# ======================================================================
# Folding onto the CLI's sampling grid
# ======================================================================


_FOLD_SITE = setup_pq(1, 4)
FOLD_FAMILIES = {
    "trig": lambda M: coeffs_general(_FOLD_SITE, 7.3, M),
    "linear": lambda M: coeffs_general(_FOLD_SITE, 0.0, M),
    "hyper": lambda M: coeffs_general(_FOLD_SITE, -9.0, M),
    "deep": lambda M: coeffs_general(_FOLD_SITE, -2000.0, M),
    "one_hot": lambda M: coeffs_general(_FOLD_SITE, nu_n(_FOLD_SITE, 5), M),
    "hat": lambda M: coeffs_limit(limit_state(_FOLD_SITE, "hat", nu_n(_FOLD_SITE, 8)), M),
    "under": lambda M: coeffs_limit(limit_state(_FOLD_SITE, "under", 1), M),
    "over": lambda M: coeffs_limit(limit_state(_FOLD_SITE, "over", 1), M),
}


@functools.lru_cache(maxsize=None)
def fold_expansion(family, M):
    return FOLD_FAMILIES[family](M)


def sum_grid(points):
    return cli._linspace(-_FOLD_SITE.L / 2, _FOLD_SITE.L / 2, points, "--sum-points")


@pytest.mark.parametrize("points", [1, 2, 3, 65, 257])
@pytest.mark.parametrize("family", sorted(FOLD_FAMILIES))
def test_folded_expansion_sums_as_the_full_one_on_the_grid(family, points):
    """On the sum grid the fold changes only rounding, and keeps at most P - 2 terms.

    It is the identity for M <= P - 2 and for grids of the two walls or
    fewer; otherwise it keeps exactly P - 2 terms.  kind and setup are
    always kept.  The values agree within 1e-13 of the
    largest on the grid, or of 1% of sqrt(2/L) sum |a_m| if that is larger:
    the one interior point of P = 3 is the centre, where the deep, hat and
    over sums cancel to 1e-9 of their terms and carry rounding of the terms'
    size in either order.
    """
    xs = sum_grid(points)
    for M in sorted({M for M in (1, points - 3, points - 2, points - 1, 2048, 16384) if M >= 1}):
        expansion = fold_expansion(family, M)
        folded = fold_to_grid(expansion, points)
        assert (folded.kind, folded.setup) == (expansion.kind, expansion.setup)
        if points <= 2 or M <= points - 2:
            assert folded.coefficients == expansion.coefficients
        else:
            assert [m for m, _ in folded.coefficients] == list(range(1, points - 1))
        # At most P - 2 Clenshaw steps per point once the grid has an interior.
        assert points <= 2 or len(folded.coefficients) <= points - 2
        full = [partial_sum(expansion, x) for x in xs]
        envelope = math.fsum(abs(a) for _, a in expansion.coefficients)
        scale = max(max(map(abs, full)), math.sqrt(2 / _FOLD_SITE.L) * envelope / 100)
        for x, value in zip(xs, full):
            assert abs(partial_sum(folded, x) - value) <= 1e-13 * scale, (M, x)


@pytest.mark.parametrize(
    "family, points, M",
    [(f, p, 2048) for f in sorted(FOLD_FAMILIES) for p in (65, 257)] + [("hat", 65, 16384)],
)
def test_folded_sum_is_accurate_next_to_both_walls(family, points, M):
    """The points next to each wall are within 1e-13 relative of a 30-digit sum.

    The under, over and deep states are all but zero next to one wall,
    where the full sum cancels to 1e-9 of its terms or less; there no
    summation order is relatively accurate, so the bound is taken relative
    to 1% of sum |a_m Phi_m(x)| when the sum is smaller.
    """
    mpmath = pytest.importorskip("mpmath")
    expansion = fold_expansion(family, M)
    folded = fold_to_grid(expansion, points)
    xs = sum_grid(points)
    with mpmath.workdps(30):
        for x in (xs[1], xs[-2]):
            terms = mp_terms(expansion, x, mpmath)
            exact = mpmath.fsum(terms)
            scale = max(abs(exact), mpmath.fsum(map(abs, terms)) / 100)
            assert abs(partial_sum(folded, x) - exact) <= 1e-13 * scale, x


def test_parseval_defect_shrinks_with_truncation_order():
    s = setup_pq(1, 4)
    defects = [abs(parseval_defect(coeffs_general(s, 7.3, M=M))) for M in (64, 256, 1024)]
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 1e-3


def test_parseval_defect_small_for_all_state_families():
    s = setup_pq(1, 4)
    expansions = [
        coeffs_general(s, 7.3, M=4096),
        coeffs_general(s, -9.0, M=4096),
        coeffs_general(s, 0.0, M=4096),
        coeffs_limit(limit_state(s, "hat", nu_n(s, 8)), M=4096),
        coeffs_limit(limit_state(s, "under", 1), M=4096),
        coeffs_limit(limit_state(s, "over", 1), M=4096),
    ]
    for expansion in expansions:
        assert abs(parseval_defect(expansion)) < 1e-3


def test_tail_bound_controls_the_dropped_remainder():
    s = setup_pq(1, 4)
    for nu in (7.3, -4.0):
        small = coeffs_general(s, nu, M=256)
        large = coeffs_general(s, nu, M=2048)
        xs = [-s.L / 2 + i * s.L / 40 for i in range(41)]
        gap = max(abs(partial_sum(small, x) - partial_sum(large, x)) for x in xs)
        assert gap <= tail_bound(small) * 1.05


def test_deep_evanescent_prefactor_crosses_log_switch_smoothly():
    """Coefficient magnitudes vary smoothly where the deep rescaled path begins."""
    s = setup_pq(1, 4)
    direct = coeffs_general(s, -599.0, M=8)
    logged = coeffs_general(s, -601.0, M=8)
    for (m1, a1), (m2, a2) in zip(direct.coefficients, logged.coefficients):
        assert m1 == m2
        assert a1 == pytest.approx(a2, rel=2e-2)
    assert abs(parseval_defect(coeffs_general(s, -650.0, M=4096))) < 1e-3


@pytest.mark.parametrize("p, q", [(0, 1), (1, 4), (3, 4)])
def test_deep_evanescent_coefficients_at_every_depth(p, q):
    """a_m = 2 sqrt(2/t) Phi_m(x0) once (pi m / L)**2 is negligible beside
    (t/2)**2, up to t = 1e300, where the resonance denominator t**2 / 4
    alone would overflow."""
    s = setup_pq(p, q)
    for e in range(10, 301):
        t = 10.0**e
        for (m, a), phi0 in zip(coeffs_general(s, -t, M=3).coefficients, site_modes(s, 3)):
            expected = 2 * math.sqrt(2 / t) * phi0
            assert abs(a - expected) <= 1e-14 * abs(expected), (t, m)  # a node: both 0.0


# ======================================================================
# Boxes far from unit length
# ======================================================================

FAMILIES = ("trig", "linear", "hyper", "mode", "hat", "under", "over")


def _site(site, L):
    """RationalX0(*site), or a real site whose fraction has a large q, in a box of length L."""
    return RealX0(0.1259881576697424 * L) if site == "real" else RationalX0(*site)


def _expansion(family, L, site, nu, index, side, M):
    """The expansion of one state family in a box of length L; nu is the
    branch parameter in units of 1/L, index the mode or lattice index."""
    s = make_setup(L=L, x0=_site(site, L), c=1.0)
    if family in ("trig", "linear", "hyper"):
        nu = {"trig": nu, "linear": 1e-12 * nu, "hyper": -nu}[family] / L
        return coeffs_general(s, nu, M)
    if family == "mode":
        return coeffs_general(s, nu_n(s, index), M)
    if family == "hat":
        return coeffs_limit(limit_state(s, "hat", nu_n(s, index * kappa_base(s))), M)
    return coeffs_limit(limit_state(s, family, index, side), M)


@given(
    family=st.sampled_from(FAMILIES),
    site=st.sampled_from([(1, 4), (1, 7), (0, 1), (2, 5), (11, 13), "real"]),
    L=st.floats(min_value=0.25, max_value=4.0),
    nu=st.floats(min_value=0.01, max_value=3000.0),
    index=st.integers(min_value=1, max_value=12),
    side=st.sampled_from(["below", "above"]),
    M=st.integers(min_value=1, max_value=40),
    j=st.integers(min_value=-500, max_value=500),
)
@examples(150)
def test_coefficients_of_a_box_four_to_the_j_times_as_long_are_the_same_bits(
    family, site, L, nu, index, side, M, j
):
    """a_m has no unit: with every length in units of a power of four near
    L, the coefficients at (4**j L, 4**-j nu) are those at (L, nu), bit for
    bit, on every branch and limit, for |j| up to 500, where 4**j L leaves
    the range in which (pi m / L)**2, L**2 and L**1.5 are floats."""
    if family == "hat":
        assume(site != "real")  # a real site's shared lattice starts near 1e8 modes
    if family in ("under", "over"):
        s = make_setup(L=L, x0=_site(site, L), c=1.0)
        assume((under_in_shared if family == "under" else over_in_shared)(s, index) is None)
    unit = _expansion(family, L, site, nu, index, side, M)
    scaled = _expansion(family, math.ldexp(L, 2 * j), site, nu, index, side, M)
    assert scaled.kind == unit.kind
    assert repr(scaled.values) == repr(unit.values)


@pytest.mark.parametrize("j", [-200, -1, 1, 100])
def test_trig_coefficients_far_beyond_the_box_modes_keep_their_bits(j):
    """At nu L = 7.3e200, beyond 2**500, (nu/2)**2 in units of L would leave
    float range; in units near 2**500 / nu the coefficients are finite, obey
    Bessel's inequality and are those at (4**j L, 4**-j nu) bit for bit."""
    unit = coeffs_general(make_setup(L=1e200, x0=RationalX0(1, 4), c=1.0), 7.3, 64).values
    L, nu = math.ldexp(1e200, 2 * j), math.ldexp(7.3, -2 * j)
    scaled = coeffs_general(make_setup(L=L, x0=RationalX0(1, 4), c=1.0), nu, 64).values
    assert repr(scaled) == repr(unit)
    assert all(map(math.isfinite, unit)) and math.fsum(a * a for a in unit) <= 1.0


# Requests that printed wrong coefficients (the first two) or exited 4 in
# absolute units, and the unit-box requests of the same nu L.
FAR_BOX_REQUESTS = [
    (("--nu=-3e-200", "--L", "1e200"), ("--nu=-3",)),
    (("--nu=-3e-160", "--L", "1e160"), ("--nu=-3",)),
    (("--nu", "0", "--L", "1e300"), ("--nu", "0")),
    (("--nu", "3e-300", "--L", "1e300"), ("--nu", "3")),
    (("--limit", "over", "--l", "1", "--L", "1e300"), ("--limit", "over", "--l", "1")),
    (("--limit", "hat", "--nu-mode", "8", "--L", "1e300"), ("--limit", "hat", "--nu-mode", "8")),
    (("--nu", "0", "--L", "1e-300"), ("--nu", "0")),
    (("--limit", "under", "--k", "1", "--L", "1e-300"), ("--limit", "under", "--k", "1")),
]


@pytest.mark.parametrize("far, unit", FAR_BOX_REQUESTS, ids=lambda argv: " ".join(argv))
def test_coefficients_far_from_a_unit_box_are_those_of_the_unit_box(capsys, far, unit):
    """(pi m / L)**2, L**2 and L**1.5 left float range at these lengths;
    in box units the coefficients are those of the unit box with the same
    nu L, to rounding (L is no power of two), and obey Bessel's inequality."""
    far_values = [float(a) for _, a in _coefficient_fields(capsys, "--M", "64", *far)]
    unit_values = [float(a) for _, a in _coefficient_fields(capsys, "--M", "64", *unit)]
    assert far_values == pytest.approx(unit_values, rel=1e-12)
    assert math.fsum(a * a for a in far_values) <= 1.0


# ======================================================================
# Exact zeros at the site's nodes
# ======================================================================

# General states on the trig, linear, hyper and deep branches.
_BRANCH_NUS = ("7.3", "0", "-5", "-3000")


def _limit_argvs(s):
    """fourier arguments of the hat limit state of s and of its first under
    and over limit states off the shared lattice, where those exist."""
    argvs = [("--limit", "hat", "--nu-mode", str(kappa_base(s)))]
    k = next((k for k in range(1, 50) if under_in_shared(s, k) is None), None)
    l = next((l for l in range(1, 50) if over_in_shared(s, l) is None), None)
    if k is not None:
        argvs += [("--limit", "under", "--k", str(k), "--side", side) for side in ("below", "above")]
    if l is not None:
        argvs.append(("--limit", "over", "--l", str(l)))
    return argvs


def _coefficient_fields(capsys, *argv):
    assert cli.main(["fourier", *argv]) == 0
    return [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]


@pytest.mark.parametrize(
    "site, x0",
    [
        ("rational:0/1", RationalX0(0, 1)),
        ("rational:1/4", RationalX0(1, 4)),
        ("rational:1/7", RationalX0(1, 7)),
        ("rational:2/5", RationalX0(2, 5)),
        ("rational:1/2", RationalX0(1, 2)),
        ("real:0.125", RealX0(0.125)),
    ],
)
def test_nodes_of_the_site_print_exactly_zero(capsys, site, x0):
    """a_m is proportional to Phi_m(x0): every m with m (q - p) = 0 mod 2q
    prints 0.0 (never -0.0 or rounding noise), on every branch and limit."""
    s = make_setup(L=1.0, x0=x0, c=1.0)
    argvs = [("--nu=" + nu,) for nu in _BRANCH_NUS] + _limit_argvs(s)
    assert {argv[1] for argv in argvs[4:]} >= ({"hat"} if s.p == 0 else {"hat", "under"})
    for argv in argvs:
        rows = _coefficient_fields(capsys, "--x0", site, "--M", "64", *argv)
        assert [int(m) for m, _ in rows] == list(range(1, 65))
        for m, a in rows:
            node = int(m) * (s.q - s.p) % (2 * s.q) == 0
            assert (a == "0.0") == node, (argv, m, a)


def test_every_third_coefficient_is_zero_at_one_third(capsys):
    rows = _coefficient_fields(capsys, "--x0", "rational:1/3", "--nu", "7.3", "--M", "4096")
    zeros = [int(m) for m, a in rows if a == "0.0"]
    assert zeros == list(range(3, 4097, 3)) and len(zeros) == 1365


def _float_phase_modes(setup, M):
    # The float phase m pi / L (L/2 - x0) that Phi_m(x0) was formed from before
    # the site's fraction was used.
    norm, arm = math.sqrt(2 / setup.L), setup.L / 2 - setup.x0_value
    return [norm * math.sin(m * math.pi / setup.L * arm) for m in range(1, M + 1)]


@pytest.mark.parametrize("p, q", [(0, 1), (1, 4), (1, 7), (2, 5), (1, 500)])
def test_coefficients_closer_to_40_digits_than_float_phases(monkeypatch, p, q):
    """Summed over each table, |a_m - reference| is no larger than with
    float phases.  The reference runs the same prefactor and denominators
    on 40-digit Phi_m(x0), so only the site values differ among the three."""
    mpmath = pytest.importorskip("mpmath")
    s = setup_pq(p, q)
    M = 512
    builds = [lambda nu=nu: coeffs_general(s, nu, M) for nu in (37.3, -5.0, -3000.0)]
    builds.append(lambda: coeffs_limit(limit_state(s, "hat", nu_n(s, kappa_base(s))), M))
    if p:
        builds.append(lambda: coeffs_limit(limit_state(s, "over", 1), M))

    def exact_modes(setup, M):
        return [mpmath.sqrt(2) * mpmath.sinpi(mpmath.mpf(m * (q - p)) / (2 * q)) for m in range(1, M + 1)]

    with mpmath.workdps(40):
        for build in builds:
            new = build().coefficients
            monkeypatch.setattr("deltabox.fourier.site_modes", _float_phase_modes)
            old = build().coefficients
            monkeypatch.setattr("deltabox.fourier.site_modes", exact_modes)
            reference = build().coefficients
            monkeypatch.undo()
            new_error = mpmath.fsum(abs(a - r) for (_, a), (_, r) in zip(new, reference))
            old_error = mpmath.fsum(abs(a - r) for (_, a), (_, r) in zip(old, reference))
            assert new_error <= old_error, (new[0], float(new_error), float(old_error))


# ======================================================================
# One flat list of floats per expansion
# ======================================================================


def _fourier_run(monkeypatch, capsys, *argv):
    """The fourier command's output and the expansion it built."""
    built = []
    for name in ("coeffs_general", "coeffs_limit"):
        build = getattr(fourier_mod, name)
        monkeypatch.setattr(fourier_mod, name, lambda *a, _b=build: built.append(_b(*a)) or built[-1])
    assert cli.main(["fourier", *argv]) == 0
    monkeypatch.undo()
    return capsys.readouterr().out, built[-1]


@pytest.mark.parametrize("site", ["rational:1/4", "rational:1/7", "real:0.125"])
def test_values_are_one_flat_list_and_the_table_its_pairs(monkeypatch, capsys, site):
    """values holds a_m at index m - 1 as M floats; coefficients is that
    list as (m, a_m) pairs, and the CSV and JSON tables are written from
    them.  Trig, linear, hyper and deep states, a free mode, and the hat,
    under (both sides) and over limits."""
    s = make_setup(L=1.0, x0=parse_x0(site), c=1.0)
    argvs = [("--nu=" + nu,) for nu in _BRANCH_NUS] + [("--nu-mode", "3")] + _limit_argvs(s)
    assert {argv[1] for argv in argvs[5:]} == {"hat", "under", "over"}
    for argv in argvs:
        args = ("--x0", site, "--M", "70", *argv)
        csv_text, expansion = _fourier_run(monkeypatch, capsys, *args)
        values = expansion.values
        assert type(values) is list and len(values) == 70
        assert all(type(a) is float for a in values), argv
        assert expansion.coefficients == list(enumerate(values, 1))
        assert csv_text == cli._csv_table(["m", "a_m"], expansion.coefficients)
        json_text, again = _fourier_run(monkeypatch, capsys, "--format", "json", *args)
        assert again.values == values
        assert json_text == cli._json_table(["m", "a_m"], expansion.coefficients)
        for points in (2, 17, 65):
            folded = fold_to_grid(expansion, points).values
            assert type(folded) is list and all(type(a) is float for a in folded)
            assert len(folded) == (70 if points == 2 else points - 2)


def test_one_hot_beyond_the_truncation_is_all_zeros():
    s = setup_pq(1, 4)
    assert coeffs_general(s, nu_n(s, 3), M=2).values == [0.0, 0.0]
    assert coeffs_general(s, nu_n(s, 3), M=3).values == [0.0, 0.0, 1.0]


# ======================================================================
# Coefficient limits at the lattice
# ======================================================================


def test_general_coefficients_converge_to_over_limit():
    s = setup_pq(1, 4)
    o1 = overline_nu(s, 1)
    target = dict(coeffs_limit(limit_state(s, "over", 1), M=10).coefficients)
    eps_list = [1e-4, 1e-5, 1e-6]
    for m in (1, 2, 3, 7):
        values = [
            dict(coeffs_general(s, o1 * (1 + e), M=10).coefficients)[m]
            for e in eps_list
        ]
        extrapolated = extrapolate_to_zero(eps_list, values)
        assert extrapolated == pytest.approx(target[m], abs=1e-6)


def test_general_coefficients_converge_to_under_limit_both_sides():
    s = setup_pq(1, 4)
    u1 = underline_nu(s, 1)
    eps_list = [1e-4, 1e-5, 1e-6]
    for side, orient in (("below", -1), ("above", +1)):
        target = dict(coeffs_limit(limit_state(s, "under", 1, side), M=6).coefficients)
        for m in (1, 2, 5):
            values = [
                dict(coeffs_general(s, u1 * (1 + orient * e), M=6).coefficients)[m]
                for e in eps_list
            ]
            extrapolated = extrapolate_to_zero(eps_list, values)
            assert extrapolated == pytest.approx(target[m], abs=1e-6)
