"""Singular wave-number lattice: points, shared modes, intervals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltabox.errors import DomainError, SingularPoint
from deltabox.lattice import (
    IntervalDescriptor,
    LatticePoint,
    kappa_base,
    lattice_locator,
    nearest_lattice_point,
    overline_nu,
    partition,
    singular_guard_radius,
    underline_nu,
)
from deltabox.model import RationalX0, RealX0, make_setup, nu_n, phi_mode
from deltabox.observables import expectation_grid, ratio_grid

from _examples import examples
from _reference import classify_mode


def setup_pq(p, q, L=1.0, c=1.0):
    return make_setup(L=L, x0=RationalX0(p, q), c=c)


def ratio_at(setup, nu):
    return next(ratio_grid(setup, (nu,)))[1]


def mean_at(setup, nu):
    return next(expectation_grid(setup, (nu,), skip_one_sided=False))[1]


def brute_force_shared(p, q, limit=200):
    """Exact intersection of the two sub-box lattices, in units of 2 pi / L.

    With x0 = (p/q)(L/2) the left lattice sits at k 2q/(q+p) and the right
    lattice at l 2q/(q-p); members are compared as exact fractions.
    """
    under = {Fraction(2 * q * k, q + p) for k in range(1, limit + 1)}
    over = {Fraction(2 * q * l, q - p) for l in range(1, limit + 1)}
    return under & over


# ======================================================================
# Individual lattice points
# ======================================================================


def test_lattice_point_values():
    s = setup_pq(1, 4)
    assert underline_nu(s, 1) == pytest.approx(2 * math.pi / s.width_left, rel=1e-15)
    assert underline_nu(s, 7) == pytest.approx(7 * underline_nu(s, 1), rel=1e-14)
    assert overline_nu(s, 1) == pytest.approx(2 * math.pi / s.width_right, rel=1e-15)
    assert overline_nu(s, 3) == pytest.approx(3 * overline_nu(s, 1), rel=1e-14)


def test_lattice_point_index_validation():
    s = setup_pq(1, 4)
    with pytest.raises(DomainError):
        underline_nu(s, 0)
    with pytest.raises(DomainError):
        overline_nu(s, -1)


@pytest.mark.parametrize(
    "p, q, expected_base",
    [(1, 4, 8), (3, 4, 8), (1, 2, 4), (3, 5, 5), (11, 13, 13), (0, 1, 2)],
)
def test_shared_lattice_base(p, q, expected_base):
    assert kappa_base(setup_pq(p, q)) == expected_base


def test_real_site_has_no_shared_lattice():
    """A generic float site's shared lattice starts beyond mode 1e8."""
    s = make_setup(L=1.0, x0=RealX0(1 / (10 * math.sqrt(2))), c=1.0)
    assert kappa_base(s) > 10**8


@pytest.mark.parametrize("p, q", [(1, 4), (3, 4), (1, 2), (3, 5), (11, 13)])
def test_shared_points_are_exactly_the_base_multiples(p, q):
    """Brute-force lattice intersection equals {m * base} in mode units."""
    base = kappa_base(setup_pq(p, q))
    shared = brute_force_shared(p, q, limit=200)
    assert all(fr.denominator == 1 for fr in shared)
    cap = min(Fraction(2 * q * 200, q + p), Fraction(2 * q * 200, q - p))
    expected = {Fraction(m * base) for m in range(1, int(cap / base) + 1)}
    assert shared == expected


@pytest.mark.parametrize("p, q", [(1, 4), (3, 5), (11, 13)])
def test_mode_membership_matches_brute_force(p, q):
    s = setup_pq(p, q)
    base = kappa_base(s)
    shared_values = brute_force_shared(p, q, limit=200)
    for n in range(1, 120):
        tagged = classify_mode(s, n).in_shared_lattice
        assert tagged == (n % base == 0)
        assert tagged == (Fraction(n) in shared_values or n > max(shared_values))
        if n % base == 0:
            # A shared mode's free wave vanishes at the interaction point.
            assert abs(phi_mode(s, n, s.x0_value)) < 1e-9 * n


# ======================================================================
# Partition into intervals
# ======================================================================


def test_partition_tiles_the_axis():
    s = setup_pq(1, 4)
    points, intervals = partition(s, nu_max=60.0)
    nus = [pt.nu for pt in points]
    assert nus == sorted(nus)
    assert len(set(nus)) == len(nus)
    assert intervals[0].lower is None
    for a, b in zip(intervals, intervals[1:]):
        assert a.upper.nu == b.lower.nu
        assert b.index == a.index + 1
    assert intervals[-1].upper.nu >= 60.0


def test_partition_shared_points_carry_both_indices():
    s = setup_pq(1, 4)
    points, _ = partition(s, nu_max=60.0)
    both = [pt for pt in points if pt.kind == "both"]
    assert len(both) == 1
    pt = both[0]
    assert pt.nu == pytest.approx(16 * math.pi, rel=1e-14)
    assert (pt.k, pt.l) == (5, 3)


def test_partition_centered_site_is_all_shared():
    s = setup_pq(0, 1)
    points, _ = partition(s, nu_max=40.0)
    assert points
    assert all(pt.kind == "both" for pt in points)
    for i, pt in enumerate(points, start=1):
        assert pt.nu == pytest.approx(nu_n(s, 2 * i), rel=1e-14)


def test_partition_interval_case_tags():
    """x0 = L/8: the first eight modes land in the documented case pattern."""
    s = setup_pq(1, 4)
    tags = {n: classify_mode(s, n).case_tag for n in range(1, 10)}
    assert tags[1] == "G"
    assert tags[2] == "B"
    assert tags[3] == "C"
    assert tags[4] == "A"
    assert tags[8] == "Z"
    assert tags[9] == "E"
    assert tags[5] == "B"
    assert tags[6] == "C"
    assert tags[7] == "F"


def test_partition_intervals_contain_their_modes():
    for p, q in [(1, 4), (3, 5), (0, 1)]:
        s = setup_pq(p, q)
        _, intervals = partition(s, nu_max=80.0)
        for iv in intervals:
            if iv.contains_mode is None:
                continue
            nu = nu_n(s, iv.contains_mode)
            lower = -math.inf if iv.lower is None else iv.lower.nu
            assert lower < nu < iv.upper.nu
        # Conversely every mode below the last point that is not shared is
        # reported, including one just below a shared upper point.
        reported = {iv.contains_mode for iv in intervals} - {None}
        last = intervals[-1].upper.nu
        n_last = math.ceil(last / nu_n(s, 1))
        expected = {
            n
            for n in range(1, n_last + 1)
            if nu_n(s, n) < last and n % kappa_base(s) != 0
        }
        assert reported == expected


def test_classify_mode_agrees_with_partition():
    s = setup_pq(3, 5)
    _, intervals = partition(s, nu_max=100.0)
    by_mode = {iv.contains_mode: iv for iv in intervals if iv.contains_mode is not None}
    for n, iv in by_mode.items():
        cls = classify_mode(s, n)
        assert cls.case_tag == iv.case_tag
        assert cls.interval.index == iv.index
        assert cls.interval.upper.nu == pytest.approx(iv.upper.nu, rel=1e-14)


def test_real_site_partition_has_no_shared_points():
    s = make_setup(L=1.0, x0=RealX0(1 / (10 * math.sqrt(2))), c=1.0)
    points, intervals = partition(s, nu_max=80.0)
    assert all(pt.kind in ("under", "over") for pt in points)
    for a, b in zip(intervals, intervals[1:]):
        assert a.upper.nu == b.lower.nu


def test_nearest_lattice_point_simple_probes():
    s = setup_pq(1, 4)
    u1 = underline_nu(s, 1)
    pt, dist = nearest_lattice_point(s, u1 * 1.001)
    assert pt.kind == "under" and pt.k == 1
    assert dist == pytest.approx(0.001 * u1, rel=1e-9)
    pt, dist = nearest_lattice_point(s, 16 * math.pi)
    assert pt.kind == "both"
    assert dist < 1e-12
    pt, dist = nearest_lattice_point(s, -3.0)
    assert pt is None and dist == math.inf


def test_singular_guard_radius_is_tiny_but_positive():
    s = setup_pq(1, 4)
    g = singular_guard_radius(s)
    assert 0 < g < 1e-6 * underline_nu(s, 1)


# ======================================================================
# Property-based checks
# ======================================================================


@st.composite
def coprime_pq(draw):
    q = draw(st.integers(min_value=2, max_value=30))
    p = draw(st.integers(min_value=1, max_value=q - 1))
    g = math.gcd(p, q)
    return p // g, q // g


@given(pq=coprime_pq(), k=st.integers(min_value=1, max_value=40))
@examples(60)
def test_under_point_sharing_matches_exact_arithmetic(pq, k):
    p, q = pq
    s = setup_pq(p, q)
    value = Fraction(2 * q * k, q + p)
    is_shared_exact = value.denominator == 1 and value % kappa_base(s) == 0
    pt, dist = nearest_lattice_point(s, underline_nu(s, k))
    assert dist < 1e-9
    assert (pt.kind == "both") == is_shared_exact


@given(pq=coprime_pq(), n=st.integers(min_value=1, max_value=100))
@examples(60)
def test_classified_interval_brackets_the_mode(pq, n):
    p, q = pq
    s = setup_pq(p, q)
    cls = classify_mode(s, n)
    if cls.in_shared_lattice:
        assert n % kappa_base(s) == 0
        return
    nu = nu_n(s, n)
    iv = cls.interval
    lower = -math.inf if iv.lower is None else iv.lower.nu
    assert lower < nu < iv.upper.nu


# ======================================================================
# Float sites: the lattice of the simplest fraction within half an ulp
# ======================================================================


@pytest.mark.parametrize("v, pq", [(0.125, (1, 4)), (0.2, (2, 5)), (0.3, (3, 5)), (0.0, (0, 1))])
def test_float_site_takes_its_exact_fraction(v, pq):
    s = make_setup(L=1.0, x0=RealX0(v), c=1.0)
    assert (s.p, s.q) == pq
    assert s.x0_value == v


def test_float_twin_of_one_quarter_sees_the_shared_point():
    """real:0.125 is exactly L/8: 16 pi is the shared point of rational:1/4."""
    s = make_setup(L=1.0, x0=RealX0(0.125), c=1.0)
    nu = 16 * math.pi
    point, _ = nearest_lattice_point(s, nu)
    assert point.kind == "both" and (point.k, point.l) == (5, 3)
    assert ratio_at(s, nu) == pytest.approx(5 / 3, rel=1e-15)
    assert mean_at(s, nu) == 0.125
    assert classify_mode(s, 8).case_tag == "Z"


def _outcome(f, *args):
    # The value, or the type of the exception raised: twins must agree on both.
    try:
        return f(*args)
    except (SingularPoint, ArithmeticError) as exc:
        return type(exc).__name__


@given(pq=coprime_pq(), data=st.data())
@examples(60)
def test_float_twin_agrees_with_rational_site(pq, data):
    p, q = pq
    exact = setup_pq(p, q)
    twin = make_setup(L=1.0, x0=RealX0(RationalX0(p, q).value(1.0)), c=1.0)
    assert (twin.p, twin.q) == (p, q)
    assert kappa_base(twin) == kappa_base(exact)
    index = st.integers(min_value=1, max_value=60)
    nu = data.draw(
        st.one_of(
            st.floats(min_value=-50.0, max_value=400.0),
            index.map(lambda n: nu_n(exact, n)),
            index.map(lambda k: underline_nu(exact, k)),
            index.map(lambda l: overline_nu(exact, l)),
        )
    )
    assert nearest_lattice_point(twin, nu) == nearest_lattice_point(exact, nu)
    ratio_row = lambda setup: next(ratio_grid(setup, (nu,)))
    assert _outcome(ratio_row, twin) == _outcome(ratio_row, exact)
    assert _outcome(mean_at, twin, nu) == _outcome(mean_at, exact, nu)
    n = data.draw(st.integers(min_value=1, max_value=120))
    assert classify_mode(twin, n) == classify_mode(exact, n)
    assert partition(twin, 200.0) == partition(exact, 200.0)


# ======================================================================
# The bound locator's gap and partition's walk, against fresh references
# ======================================================================

# The large-q real sites of the benchmark workloads (q from 1.7e8 to 5e8).
LARGE_Q_SITES = (0.1259881576697424, 0.07071067811865475, 0.4225771273642583)


@st.composite
def lattice_sites(draw):
    """A rational site p/q (p = 0 included) or a large-q real site."""
    if draw(st.booleans()):
        return make_setup(L=1.0, x0=RealX0(draw(st.sampled_from(LARGE_Q_SITES))), c=1.0)
    q = draw(st.integers(min_value=1, max_value=60))
    return setup_pq(draw(st.integers(min_value=0, max_value=q - 1)), q)


@given(s=lattice_sites(), rtol=st.sampled_from([1e-9, math.inf]), data=st.data())
@examples(80)
def test_bound_locator_answers_as_a_fresh_one_in_any_order(s, rtol, data):
    """One locator kept across calls in ascending, descending and shuffled
    order answers each nu as a fresh locate does: within 1e8 ulps of under,
    over and shared points, at the edges of the rtol window and of the
    2 rtol gap, and anywhere between points."""
    index = st.integers(min_value=1, max_value=60)
    anchor = st.one_of(
        index.map(lambda k: underline_nu(s, k)),
        index.map(lambda l: overline_nu(s, l)),
        index.map(lambda m: nu_n(s, m * kappa_base(s))),
    )

    def near(point):
        ulp = math.ulp(point)
        edges = [round(w * point / ulp) for w in (1e-9, 2e-9)]
        offset = st.one_of(
            st.integers(min_value=-(10**8), max_value=10**8),
            st.sampled_from(edges).flatmap(
                lambda e: st.integers(min_value=-3, max_value=3).map(lambda d: e + d)
            ),
        )
        sign = st.sampled_from([-1, 1])
        return st.tuples(sign, offset).map(lambda so: point + so[0] * so[1] * ulp)

    nus = data.draw(
        st.lists(
            st.one_of(anchor.flatmap(near), st.floats(min_value=0.0, max_value=400.0)),
            min_size=1,
            max_size=40,
        )
    )
    expected = {nu: lattice_locator(s, rtol)(nu) for nu in nus}
    shuffled = data.draw(st.permutations(nus))
    for order in (sorted(nus), sorted(nus, reverse=True), shuffled):
        locate = lattice_locator(s, rtol)
        assert [locate(nu) for nu in order] == [expected[nu] for nu in order]


_TAGS = {
    ("under", "under"): "A",
    ("under", "over"): "B",
    ("over", "under"): "C",
    ("both", "both"): "D",
    ("both", "under"): "E",
    ("under", "both"): "F",
}


def _reference_partition(s, nu_max):
    """partition rebuilt from Fraction positions in units of 2 pi / L."""
    under, over = Fraction(2 * s.q, s.q + s.p), Fraction(2 * s.q, s.q - s.p)
    indices = {}
    k = 1
    while underline_nu(s, k) <= nu_max:
        k += 1
    for j in range(1, k + 1):
        indices.setdefault(j * under, [None, None])[0] = j
    l = 1
    while overline_nu(s, l) <= nu_max:
        l += 1
    for j in range(1, l + 1):
        indices.setdefault(j * over, [None, None])[1] = j
    points, positions = [], []
    for position in sorted(indices):
        k, l = indices[position]
        kind = "both" if k and l else ("under" if k else "over")
        nu = underline_nu(s, k) if k else overline_nu(s, l)
        points.append(LatticePoint(nu, kind, k, l))
        positions.append(position)
        if nu > nu_max:
            break
    intervals = []
    for i, (upper, hi) in enumerate(zip(points, positions)):
        lower, lo = (points[i - 1], positions[i - 1]) if i else (None, Fraction(0))
        modes = [n for n in range(math.floor(lo) + 1, math.ceil(hi)) if lo < n < hi]
        assert len(modes) <= 1
        tag = "G" if lower is None else _TAGS[(lower.kind, upper.kind)]
        intervals.append(IntervalDescriptor(i, lower, upper, tag, modes[0] if modes else None))
    return points, intervals


@given(s=lattice_sites(), nu_max=st.floats(min_value=0.01, max_value=300.0))
@examples(80)
def test_partition_matches_a_fraction_reference(s, nu_max):
    """Points (floats as underline_nu/overline_nu make them, kinds, indices)
    and intervals (case tags, contained modes) of partition equal those
    built independently from exact Fraction positions."""
    assert partition(s, nu_max) == _reference_partition(s, nu_max)
