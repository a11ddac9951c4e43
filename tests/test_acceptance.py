"""Acceptance gate: one test per release criterion, tolerances pinned.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per
criterion.  Each test states its tolerance inline; none of them consults
the per-module suites.
"""

import contextlib
import io
import math
import random
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from deltabox import cli, oracle
from deltabox.fourier import coeffs_general, coeffs_limit, partial_sum
from deltabox.lattice import kappa_base, overline_nu, partition, underline_nu
from deltabox.model import RationalX0, RealX0, make_setup, nu_n
from deltabox.observables import amplitude_extrema, expectation_grid, ratio_grid
from deltabox.spectrum import alpha_from_nu, dispersion, solve_nu
from deltabox.wavefn import eval_normalized, limit_state, upsilon_hat

from _quad import extrapolate_to_zero, simpson
from _reference import jump_ratio, parseval_defect

README = Path(__file__).resolve().parent.parent / "README.md"


def setup_pq(p, q, L=1.0, c=1.0):
    return make_setup(L=L, x0=RationalX0(p, q), c=c)


def ratio_at(setup, nu):
    return next(ratio_grid(setup, (nu,)))[1]


def mean_at(setup, nu):
    return next(expectation_grid(setup, (nu,), skip_one_sided=False))[1]


# ======================================================================
# 1. Jump-condition identity
# ======================================================================


def test_criterion_01_jump_condition_identity():
    """Derivative jump over value at the site equals the dispersion
    function: 50 random (site, nu) pairs across all branches, 1e-9
    relative."""
    rng = random.Random(20260814)
    for case in range(50):
        s = make_setup(L=1.0, x0=RealX0(rng.uniform(0.0, 0.45)), c=1.0)
        branch = case % 3
        if branch == 0:
            nu = rng.uniform(-80.0, -0.5)
        elif branch == 1:
            nu = rng.uniform(0.5, 80.0)
        else:
            nu = rng.uniform(-0.4, 0.4)
        assert jump_ratio(s, nu) == pytest.approx(dispersion(s, nu), rel=1e-9)


# ======================================================================
# 2. Round-trip spectrum
# ======================================================================


def test_criterion_02_round_trip_spectrum():
    """solve_nu(alpha_from_nu(nu), interval) recovers nu to 1e-10 relative
    over 100 cases, branch intervals 0..10, four sites."""
    sites = [
        RationalX0(0, 1),
        RationalX0(1, 4),
        RationalX0(3, 4),
        RealX0(1.0 / (10.0 * math.sqrt(2.0))),
    ]
    setups = [make_setup(L=1.0, x0=site, c=1.0) for site in sites]
    tables = [partition(s, nu_max=200.0)[1] for s in setups]
    rng = random.Random(63)
    for case in range(100):
        s = setups[case % 4]
        iv = tables[case % 4][(case // 4) % 11]
        assert iv.index == (case // 4) % 11
        upper = iv.upper.nu
        lower = iv.lower.nu if iv.lower is not None else upper - 30.0
        nu = lower + rng.uniform(0.05, 0.95) * (upper - lower)
        recovered = solve_nu(s, alpha_from_nu(s, nu), iv)
        assert recovered == pytest.approx(nu, rel=1e-10)


# ======================================================================
# 3. Shared-lattice structure
# ======================================================================


def brute_force_shared(p, q, limit=200):
    """Exact intersection of the two one-sided lattices, in units of the
    first free-mode value, for site indices up to `limit`."""
    under = {Fraction(2 * q * k, q + p) for k in range(1, limit + 1)}
    over = {Fraction(2 * q * l, q - p) for l in range(1, limit + 1)}
    return under & over


@pytest.mark.parametrize("p,q", [(1, 4), (3, 4), (1, 2), (3, 5), (11, 13)])
def test_criterion_03_shared_lattice_structure(p, q):
    """Brute-force lattice intersection (k, l <= 200) equals the multiples
    of the base mode exactly; the base is 8 for x0 = L/8."""
    s = setup_pq(p, q)
    base = kappa_base(s)
    assert base is not None
    if (p, q) == (1, 4):
        assert base == 8
    brute = brute_force_shared(p, q)
    bound = Fraction(400 * q, q + p)
    expected = set()
    value = Fraction(base)
    while value <= bound:
        expected.add(value)
        value += base
    assert brute == expected


# ======================================================================
# 4. Hat limit shape
# ======================================================================


def test_criterion_04_hat_limit_shape():
    """At x0 = 3L/8 and the 16th mode: the normalized state at relative
    offset 1e-5 is within 1e-3 sup-norm of the hat limit, whose amplitude
    ratio right/left is 7 to 1e-9."""
    s = setup_pq(3, 4)
    nu_hat = nu_n(s, 16)
    xs = [-s.L / 2 + i * s.L / 2048 for i in range(2049)]
    hat = [upsilon_hat(s, nu_hat, x).value for x in xs]
    for offset in (1e-5, -1e-5):
        nu = nu_hat * (1 + offset)
        sup = max(
            abs(eval_normalized(s, nu, x).value - h) for x, h in zip(xs, hat)
        )
        assert sup < 1e-3
    right = max(abs(h) for x, h in zip(xs, hat) if x > s.x0_value)
    left = max(abs(h) for x, h in zip(xs, hat) if x < s.x0_value)
    assert right / left == pytest.approx(7.0, abs=1e-9)


# ======================================================================
# 5. Probability ratios
# ======================================================================


def test_criterion_05_probability_ratios():
    """r(0) equals the width ratio (1e-12); r on the shared lattice equals
    its inverse exactly; r(-50) = 1 (1e-6); and the site (m-1)/(m+1) puts
    r at the (m+1)-th mode exactly at m, for m = 2..12 (1e-9)."""
    s = setup_pq(1, 4)
    assert ratio_at(s, 0.0) == pytest.approx(s.q_ratio, rel=1e-12)
    _, r, kind = next(ratio_grid(s, (nu_n(s, 8),)))
    assert kind == "both"
    assert r == 1.0 / s.q_ratio
    assert ratio_at(s, -50.0) == pytest.approx(1.0, abs=1e-6)
    for m in range(2, 13):
        site = setup_pq(m - 1, m + 1)
        assert ratio_at(site, nu_n(site, m + 1)) == pytest.approx(
            float(m), abs=1e-9
        )


# ======================================================================
# 6. Expectation values
# ======================================================================


def quadrature_expectation(setup, nu, n=8001):
    f = lambda x: x * eval_normalized(setup, nu, x).value ** 2
    left = simpson(f, -setup.L / 2, setup.x0_value, n)
    right = simpson(f, setup.x0_value, setup.L / 2, n)
    return left + right


def test_criterion_06_expectation_values():
    """Mean position: the site itself on the shared lattice (1e-10), half
    the site at nu = 0 (1e-12), the site again at nu = -50 (1e-3), and the
    closed forms against quadrature at 1e-8."""
    s = setup_pq(1, 4)
    assert mean_at(s, nu_n(s, 8)) == pytest.approx(s.x0_value, abs=1e-10)
    assert mean_at(s, 0.0) == pytest.approx(s.x0_value / 2, abs=1e-12)
    assert mean_at(s, -50.0) == pytest.approx(s.x0_value, abs=1e-3)
    for nu in (0.9, 7.3, 22.1, -2.0, -9.0, -60.0, 0.0, 1e-6):
        assert mean_at(s, nu) == pytest.approx(
            quadrature_expectation(s, nu), abs=1e-8
        )


# ======================================================================
# 7. Interior-point scenario at x0 = L/sqrt(63)
# ======================================================================


def scenario_site_and_nu(L=1.0, c=1.0):
    s = make_setup(L=L, x0=RealX0(L / math.sqrt(63.0)), c=c)
    nu7 = nu_n(s, 7)
    check_nu = nu7 + (2.0 / 3.0) * (underline_nu(s, 5) - nu7)
    return s, check_nu


def test_criterion_07_interior_ratio():
    """Two thirds of the way from the 7th mode to the next under point,
    the right/left ratio sits at 1.28 within 0.02."""
    s, check_nu = scenario_site_and_nu()
    assert ratio_at(s, check_nu) == pytest.approx(1.28, abs=0.02)


def test_criterion_07_coupling_scale():
    """Stated coupling scale for the same point: 13.5 within 0.3, in units
    of c * nu_1 = 2 pi c / L.

    alpha_from_nu is absolute (c times an inverse length), so alpha/c
    scales as 1/L; the stated number is the dimensionless alpha L / (2 pi c).
    The check runs on several (L, c) pairs to show the conversion is a unit
    and not a constant: the dimensionless value is the same on all of them,
    and at L = 2 pi, where nu_1 = 1, the raw alpha/c meets it too.
    """
    for L, c in [(1.0, 1.0), (2 * math.pi, 1.0), (3.0, 0.5)]:
        s, check_nu = scenario_site_and_nu(L=L, c=c)
        alpha = alpha_from_nu(s, check_nu)
        scale = alpha / (s.c * nu_n(s, 1))
        assert scale == pytest.approx(13.5, abs=0.3), (
            f"L={L}, c={c}: alpha/(c nu_1) = {scale:.4f}, alpha/c = {alpha / s.c:.4f}"
        )
        if L == 2 * math.pi:
            assert alpha / s.c == pytest.approx(13.5, abs=0.3)


# ======================================================================
# 8. Amplitude envelope of the centered-site family
# ======================================================================


def test_criterion_08_amplitude_envelope():
    """Centered-site amplitude extrema: first maximum sqrt(3/2) (1e-12),
    tabulated first/third/thirty-third extrema, and the interlacing swing
    sandwich for every odd n in [3, 99]."""
    max1, min1 = amplitude_extrema(1)
    assert max1.value == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert min1.value == pytest.approx(0.906, abs=5e-3)
    max3, min3 = amplitude_extrema(3)
    assert max3.value == pytest.approx(1.0711, abs=5e-4)
    assert min3.value == pytest.approx(0.9572, abs=5e-4)
    max33, min33 = amplitude_extrema(33)
    assert max33.value == pytest.approx(1.004933, abs=5e-6)
    assert min33.value == pytest.approx(0.995282, abs=5e-6)
    for n in range(3, 100, 2):
        maximum, minimum = amplitude_extrema(n)
        over = maximum.value - 1.0
        assert 1 / (2 * n * math.pi) + 1 / (3 * n**2 * math.pi**2) < over
        assert over < 1 / (2 * (n - 1) * math.pi) + 1 / (2 * (n - 1) ** 2 * math.pi**2)
        under = 1.0 - minimum.value
        assert 1 / (2 * (n + 1) * math.pi) - 1 / (2 * (n + 1) ** 2 * math.pi**2) < under
        assert under < 1 / (2 * n * math.pi) - 1 / (3 * n**2 * math.pi**2)


# ======================================================================
# 9. Sine-series expansions
# ======================================================================


def test_criterion_09_fourier_expansions():
    """Hat expansions drop the active mode exactly; Parseval defect below
    1e-3 at M = 4096; partial sums match direct evaluation (5e-4 smooth,
    2e-3 for limit states away from the site); coefficient limits match
    the hat/under/over formulas within 1e-6 after extrapolation."""
    s = setup_pq(1, 4)
    nu8 = nu_n(s, 8)
    s34 = setup_pq(3, 4)
    hat = coeffs_limit(limit_state(s, "hat", nu8), M=64)
    assert dict(hat.coefficients)[8] == 0.0
    assert dict(coeffs_limit(limit_state(s34, "hat", nu_n(s34, 16)), M=64).coefficients)[16] == 0.0

    assert parseval_defect(coeffs_general(s, 7.3, 4096)) < 1e-3
    assert parseval_defect(coeffs_limit(limit_state(s, "hat", nu8), 4096)) < 1e-3
    assert parseval_defect(coeffs_limit(limit_state(s, "under", 1), 4096)) < 1e-3
    assert parseval_defect(coeffs_limit(limit_state(s, "over", 1), 4096)) < 1e-3

    xs = [-s.L / 2 + i * s.L / 240 for i in range(241)]
    smooth = coeffs_general(s, 7.3, 2048)
    sup = max(
        abs(partial_sum(smooth, x) - eval_normalized(s, 7.3, x).value) for x in xs
    )
    assert sup < 5e-4
    from deltabox.wavefn import upsilon_over

    limit = coeffs_limit(limit_state(s, "over", 1), 2048)
    sup = max(
        abs(partial_sum(limit, x) - upsilon_over(s, 1, x).value)
        for x in xs
        if abs(x - s.x0_value) > s.L / 64
    )
    assert sup < 2e-3

    eps_list = [1e-4, 1e-5, 1e-6]
    hat_target = dict(coeffs_limit(limit_state(s, "hat", nu8), M=12).coefficients)
    for m in (1, 2, 8):
        values = [
            dict(coeffs_general(s, nu8 * (1 + e), M=12).coefficients)[m]
            for e in eps_list
        ]
        assert extrapolate_to_zero(eps_list, values) == pytest.approx(
            hat_target[m], abs=1e-6
        )
    over_target = dict(coeffs_limit(limit_state(s, "over", 1), M=10).coefficients)
    o1 = overline_nu(s, 1)
    for m in (1, 3):
        values = [
            dict(coeffs_general(s, o1 * (1 + e), M=10).coefficients)[m]
            for e in eps_list
        ]
        assert extrapolate_to_zero(eps_list, values) == pytest.approx(
            over_target[m], abs=1e-6
        )
    under_target = dict(coeffs_limit(limit_state(s, "under", 1, "below"), M=6).coefficients)
    u1 = underline_nu(s, 1)
    for m in (1, 2):
        values = [
            dict(coeffs_general(s, u1 * (1 - e), M=6).coefficients)[m]
            for e in eps_list
        ]
        assert extrapolate_to_zero(eps_list, values) == pytest.approx(
            under_target[m], abs=1e-6
        )


# ======================================================================
# 10. Oracle equivalence
# ======================================================================


def test_criterion_10_oracle_equivalence():
    """Free well at N = 2047 within 1e-5; site coupling 5c at N = 4095
    within 5e-3; deep bound state within 1e-2; the shared-lattice mode is
    coupling-independent to 1e-10; all under 60 seconds."""
    started = time.monotonic()
    s = setup_pq(1, 4)
    assert oracle.compare(s, 0.0, 2047, 6).max_rel_energy_error < 1e-5
    assert oracle.compare(s, 5.0 * s.c, 4095, 6).max_rel_energy_error < 5e-3
    bound = oracle.compare(s, -1000.0 * s.c, 4095, 1)
    assert bound.levels[0].analytic_energy < 0
    assert bound.max_rel_energy_error < 1e-2
    from deltabox.model import energy_from_nu

    target = energy_from_nu(s, nu_n(s, 8))
    found = []
    for alpha in (0.0, 1000.0 * s.c):
        T = oracle.build_hamiltonian(s, alpha, 4095)
        pairs = oracle.eig_lowest(T, 9)
        found.append(min((lam for lam, _ in pairs), key=lambda v: abs(v - target)))
    assert abs(found[0] - found[1]) <= 1e-10 * abs(found[0])
    assert time.monotonic() - started < 60.0


# ======================================================================
# 11. Deep-coupling concentration
# ======================================================================


def test_criterion_11_delta_concentration():
    """At nu = -1e5 the normalized state carries less than 1e-6 of its
    mass outside |x - x0| > 0.01 L."""
    s = setup_pq(1, 4)
    nu = -1e5
    f = lambda x: eval_normalized(s, nu, x).value ** 2
    outer = simpson(f, -s.L / 2, s.x0_value - 0.01 * s.L, 4001) + simpson(
        f, s.x0_value + 0.01 * s.L, s.L / 2, 4001
    )
    assert outer < 1e-6


# ======================================================================
# 12. Data-gallery smoke test
# ======================================================================

GALLERY_LABELS = [
    "fig1",
    "fig2",
    "x_nu",
    "line",
    "line-zero",
    "x0",
    "um",
    "dois",
    "tres",
    "quatro",
    "sete",
    "oito",
    "nove",
    "right",
    "ratio",
    "media8",
    "media63",
    "ratio45",
    "media34",
    "ratio50",
    "ratio14",
    "muitopequeno",
    "media0",
    "superimposed",
]


def gallery_sections(text):
    """Map each gallery heading to the deltabox command lines under it."""
    sections = {}
    current = None
    for line in text.splitlines():
        heading = re.match(r"^### (\S+): ", line)
        if heading:
            current = heading.group(1)
            sections[current] = []
        elif current is not None and line.strip().startswith("deltabox "):
            sections[current].append(line.strip())
    return sections


def run_command(line):
    argv = shlex.split(line)[1:]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def test_criterion_12_readme_gallery_smoke():
    """Every documented dataset label has commands, and every command
    emits finite, NaN-free tables with no -0.0 cell."""
    text = README.read_text(encoding="utf-8")
    sections = gallery_sections(text)
    for label in GALLERY_LABELS:
        assert label in sections, f"no gallery section for {label}"
        assert sections[label], f"no commands under {label}"
    for label, lines in sections.items():
        for line in lines:
            code, out = run_command(line)
            assert code == 0, f"{line!r} exited {code}"
            rows = out.splitlines()
            header = rows[0].split(",")
            at_lattice_col = (
                header.index("at_lattice") if "at_lattice" in header else None
            )
            for row in rows[1:]:
                cells = row.split(",")
                marked = (
                    at_lattice_col is not None and cells[at_lattice_col] != ""
                )
                for cell in cells:
                    assert cell != "-0.0", f"-0.0 in {line!r}: {row}"
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert not math.isnan(value), f"NaN in {line!r}: {row}"
                    if not marked:
                        assert math.isfinite(value), f"inf in {line!r}: {row}"


def test_readme_library_quickstart_runs():
    """The README's Library quickstart block runs as printed, and its
    coupling round-trips as its comment says."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["alpha"] == pytest.approx(5.0, rel=1e-9)
    for name in ("psi", "r", "mean_x"):
        assert math.isfinite(namespace[name]), name


# ======================================================================
# 13. The abstract's strong-coupling claims against the oracle
# ======================================================================

# Site p/q, a grid of N nodes holding it (x0 on node (N+1)(q+p)/(2q)) and
# the couplings; the worst cases measured on these are quoted per bound.
ABSTRACT_SITES = [(1, 4, 4095), (1, 7, 4479), (2, 5, 4479)]
ABSTRACT_COUPLINGS = (1e3, 1e5)


def oracle_pairs(setup, alpha, N, count):
    """The lowest levels of the finite-difference Hamiltonian with the mean
    position sum(x v**2) dx of each eigenvector, from the oracle alone."""
    dx = setup.L / (N + 1)
    xs = [-setup.L / 2 + j * dx for j in range(1, N + 1)]
    pairs = oracle.eig_lowest(oracle.build_hamiltonian(setup, alpha, N), count)
    return [(lam, math.fsum(x * v * v for x, v in zip(xs, vec)) * dx) for lam, vec in pairs]


@pytest.mark.parametrize("p,q,N", ABSTRACT_SITES)
def test_criterion_13_abstract_limits_against_the_oracle(p, q, N):
    """At the first shared mode n = 2q / gcd(q+p, q-p) of a rational site,
    one level is coupling-blind: it stays at the free level n of the grid
    (worst drift measured 7.2e-12 relative, bound 8e-11).  A second level
    approaches it from below as alpha -> +inf and from above as alpha ->
    -inf, with its gap shrinking as 1/|alpha|: gap * |alpha| at 1e5 is
    within 0.09 of its value at 1e3 (worst measured 0.0086).  That level's
    eigenvector has mean position x0 in the limit: within 4e-7 of it at
    |alpha| = 1e5 (worst measured 3.1e-8), its error at 1e5 at most 1.3e-3
    of the error at 1e3 (worst measured 1.2e-4).  At site 1/4 the gap goes
    5.351 -> 0.0539 for alpha > 0 and 5.420 -> 0.0539 for alpha < 0."""
    s = setup_pq(p, q)
    n = 2 * q // math.gcd(q + p, q - p)
    free = oracle_pairs(s, 0.0, N, n)[-1][0]
    for sign in (1.0, -1.0):
        gaps, errors = [], []
        for a in ABSTRACT_COUPLINGS:
            levels = oracle_pairs(s, sign * a, N, n + 1)
            i = min(range(len(levels)), key=lambda i: abs(levels[i][0] - free))
            mode, (moving, mean) = levels[i][0], levels[i - int(sign)]
            assert abs(mode - free) < 8e-11 * free
            gap = mode - moving
            assert sign * gap > 0  # from below for alpha > 0, from above for alpha < 0
            gaps.append(abs(gap) * a)
            errors.append(abs(mean - s.x0_value))
        assert abs(gaps[1] / gaps[0] - 1) < 0.09
        assert errors[1] < 4e-7
        assert errors[1] < 1.3e-3 * errors[0]
