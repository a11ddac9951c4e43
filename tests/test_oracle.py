"""Finite-difference oracle: discretization, eigensolver, cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from deltabox import oracle
from deltabox.cli import parse_x0
from deltabox.errors import ConvergenceError, DomainError, GridMismatch
from deltabox.model import RationalX0, RealX0, energy_from_nu, make_setup, nu_n
from deltabox.oracle import (
    Tridiagonal,
    _pivmin,
    _site_node,
    _sturm,
    build_hamiltonian,
    compare,
    eig_lowest,
)
from deltabox.spectrum import analytic_levels

from _examples import examples


def setup_pq(p, q, L=1.0, c=1.0):
    return make_setup(L=L, x0=RationalX0(p, q), c=c)


def dense_eigvalsh(diag, offdiag):
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))


def split_eigvalsh(diag, offdiag, solve=dense_eigvalsh):
    """Sorted eigenvalues of a symmetric tridiagonal, from its blocks split at
    each |e_i| <= eps * max|T_ij|, which moves no eigenvalue by more than
    |e_i|.  LAPACK's eigvalsh of the whole matrix can be worse: for diag
    [0, 0, 0, 1, 0] and offdiag [0, 0, 8.3e-80, 2] it returns -1.56155302
    for (1 - sqrt(17)) / 2 = -1.5615528128."""
    scale = max(map(abs, [*diag, *offdiag]))
    cuts = [i + 1 for i, e in enumerate(offdiag) if abs(e) <= np.finfo(float).eps * scale]
    values = []
    for a, b in zip([0, *cuts], [*cuts, len(diag)]):
        values.extend(np.asarray(solve(np.array(diag[a:b]), np.array(offdiag[a:b - 1]))).tolist())
    return np.sort(values)


@st.composite
def tridiagonals(draw, entries, off_entries, max_size):
    """(diag, offdiag) of a symmetric tridiagonal with 2..max_size rows."""
    diag = draw(st.lists(entries, min_size=2, max_size=max_size))
    offdiag = draw(st.lists(off_entries, min_size=len(diag) - 1, max_size=len(diag) - 1))
    return diag, offdiag


def tridiag_apply(T, v):
    diag, offdiag = np.asarray(T.diag), np.asarray(T.offdiag)
    out = diag * v
    out[:-1] += offdiag * v[1:]
    out[1:] += offdiag * v[:-1]
    return out


# ======================================================================
# Grid placement of the interaction site
# ======================================================================


def test_site_node_lands_on_exact_grid_point():
    s = setup_pq(1, 4)
    j = _site_node(s, 4095)
    assert j == 2560
    dx = s.L / 4096
    assert -s.L / 2 + j * dx == s.x0_value


def test_site_node_centered():
    s = setup_pq(0, 1)
    j = _site_node(s, 4095)
    assert j == 2048
    assert -s.L / 2 + j * (s.L / 4096) == 0.0


def test_off_grid_rational_site_raises_grid_mismatch():
    s = setup_pq(1, 4)
    with pytest.raises(GridMismatch, match="multiple of 8"):
        build_hamiltonian(s, 0.0, 2046)


def test_real_site_off_grid_raises_grid_mismatch():
    s = make_setup(L=1.0, x0=RealX0(0.1259881576697424), c=1.0)
    with pytest.raises(GridMismatch, match="choose a grid with the site on a node"):
        build_hamiltonian(s, 0.0, 511)


def test_real_site_on_grid_needs_no_snap():
    s = make_setup(L=1.0, x0=RealX0(0.125), c=1.0)
    T = build_hamiltonian(s, 7.0, 4095)
    dx = s.L / 4096
    bumped = int(np.argmax(T.diag))
    assert bumped == 2559
    assert T.diag[bumped] == pytest.approx(2 * s.c / dx**2 + 7.0 / dx)
    assert np.all(np.asarray(T.offdiag) == -s.c / dx**2)


def test_build_hamiltonian_rejects_tiny_grids():
    with pytest.raises(DomainError):
        build_hamiltonian(setup_pq(1, 4), 0.0, 8)


# ======================================================================
# Self-contained eigensolver against a dense reference
# ======================================================================


def test_sturm_counts_match_dense_solver():
    s = setup_pq(1, 4)
    T = build_hamiltonian(s, 3.0, 127)
    dense = np.diag(T.diag) + np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1)
    ref = np.linalg.eigvalsh(dense)
    shifts = np.array(
        [
            ref[0] - 1.0,
            0.5 * (ref[0] + ref[1]),
            0.5 * (ref[3] + ref[4]),
            0.5 * (ref[-2] + ref[-1]),
            ref[-1] + 1.0,
        ]
    )
    e2 = [e * e for e in T.offdiag]
    counts = [_sturm(T.diag, e2, sh, _pivmin(e2))[0] for sh in shifts.tolist()]
    expected = [int((ref < sh).sum()) for sh in shifts]
    assert counts == expected


def test_sturm_counts_clamp_exactly_zero_pivot():
    """A shift equal to diag[0] makes the first pivot exactly zero; the
    pivmin clamp must keep the count exact (and avoid dividing by zero)."""
    diag = np.array([4.0, 1.0, 3.0, 1.0, 5.0, 2.0])
    offdiag = np.array([1.0, 0.5, 2.0, 1.0, 0.25])
    dense = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    ref = np.linalg.eigvalsh(dense)
    shift = diag[0]
    assert np.min(np.abs(ref - shift)) > 1e-3
    e2 = (offdiag**2).tolist()
    count = _sturm(diag.tolist(), e2, float(shift), _pivmin(e2))[0]
    assert count == int((ref < shift).sum())


@given(matrix=tridiagonals(st.floats(-10, 10), st.floats(-5, 5), 12), shift=st.floats(-25, 25))
@example(matrix=([0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 8.28472148763232e-80, 2.0]), shift=1.0)
@examples(200)
def test_sturm_count_and_slope_match_dense_spectrum(matrix, shift):
    """The count equals the dense count.  The slope is sum 1/(shift - lambda_i)
    to rel 1e-9 of sum |1/(shift - lambda_i)|, the scale its rounding has;
    it is not finite only where a pivot was clamped, that is, where the
    shift is an eigenvalue of a leading block to rounding."""
    diag, offdiag = matrix
    n = len(diag)
    ref = split_eigvalsh(diag, offdiag)
    assume(np.min(np.abs(ref - shift)) >= 1e-3)
    e2 = [e * e for e in offdiag]
    count, slope = _sturm(diag, e2, shift, _pivmin(e2))
    assert count == int((ref < shift).sum())
    terms = 1.0 / (shift - ref)
    if math.isfinite(slope):
        assert abs(slope - float(np.sum(terms))) <= 1e-9 * float(np.sum(np.abs(terms)))
    else:
        blocks = [split_eigvalsh(diag[:i], offdiag[:i - 1]) for i in range(1, n)]
        assert min(float(np.min(np.abs(mu - shift))) for mu in blocks) <= 1e-12 * (1 + abs(shift))


def test_eig_lowest_matches_dense_solver():
    s = setup_pq(1, 4)
    T = build_hamiltonian(s, 3.0, 127)
    dense = np.diag(T.diag) + np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1)
    ref = np.linalg.eigvalsh(dense)[:8]
    pairs = eig_lowest(T, 8)
    for (lam, _), expected in zip(pairs, ref):
        assert lam == pytest.approx(expected, rel=1e-11)


def test_eigenpairs_satisfy_matrix_equation():
    T = build_hamiltonian(setup_pq(3, 4), -20.0, 255)
    scale = float(np.max(np.abs(T.diag)))
    for lam, v in eig_lowest(T, 6):
        v = np.asarray(v)
        residual = np.max(np.abs(tridiag_apply(T, v) - lam * v))
        assert residual < 1e-12 * scale * float(np.max(np.abs(v)))


def test_eigenvectors_normalized_and_sign_fixed():
    T = build_hamiltonian(setup_pq(1, 4), 5.0, 511)
    for _, v in eig_lowest(T, 5):
        v = np.asarray(v)
        assert float(v @ v) * T.dx == pytest.approx(1.0, rel=1e-12)
        support = np.flatnonzero(np.abs(v) > 1e-8 * float(np.max(np.abs(v))))
        assert v[support[-1]] > 0


def test_eig_lowest_is_deterministic():
    T = build_hamiltonian(setup_pq(1, 4), 5.0, 255)
    first = eig_lowest(T, 6)
    second = eig_lowest(T, 6)
    for (l1, v1), (l2, v2) in zip(first, second):
        assert l1 == l2
        assert np.array_equal(v1, v2)


def test_eig_lowest_prefix_is_independent_of_count():
    """Targets share one Sturm count cache; no pair may depend on `count`."""
    T = build_hamiltonian(setup_pq(1, 4), 5.0, 1023)
    full = list(eig_lowest(T, 12))
    for j in range(1, 12):
        for (l1, v1), (l2, v2) in zip(eig_lowest(T, j), full[:j]):
            assert l1 == l2
            assert np.array_equal(v1, v2)


@pytest.mark.parametrize("N", [1023, 4095])
@pytest.mark.parametrize("alpha, count", [(0.0, 6), (5.0, 5), (-5.0, 4), (1000.0, 9), (-1000.0, 1), (1e6, 12)])
def test_eig_lowest_matches_lapack_to_rounding(N, alpha, count):
    """Every eigenvalue is within 8 eps * max|diag| of LAPACK's, on each
    oracle site of the benchmark, at couplings from -1000 to 1e6."""
    linalg = pytest.importorskip("scipy.linalg")
    sites = ("rational:0/1", "rational:1/4", "rational:1/2", "rational:3/4",
             "rational:1/8", "rational:3/8", "real:0.125")
    for site in sites:
        T = build_hamiltonian(make_setup(1.0, parse_x0(site), 1.0), alpha, N)
        ref = linalg.eigh_tridiagonal(
            np.array(T.diag), np.array(T.offdiag), eigvals_only=True,
            select="i", select_range=(0, count - 1),
        )
        bound = 8 * np.finfo(float).eps * max(map(abs, T.diag))
        found = [lam for lam, _ in eig_lowest(T, count)]
        assert np.max(np.abs(np.array(found) - ref)) <= bound, site


def test_eig_lowest_isolates_then_takes_newton_steps(monkeypatch):
    """Bisection to relative 1e-12 took 256 Sturm passes for these six
    eigenvalues, and halving to isolation plus Newton 43 full passes.
    Isolating each level with count-only passes and starting Newton from
    its estimate takes 8 of those and 26 full passes."""
    T = build_hamiltonian(setup_pq(1, 4), 5.0, 1023)
    full, count_only = [], []
    sturm, sturm_count = oracle._sturm, oracle._sturm_count

    def counted(*args):
        full.append(args[2])
        return sturm(*args)

    def counted_only(*args):
        count_only.append(args[2])
        return sturm_count(*args)

    monkeypatch.setattr(oracle, "_sturm", counted)
    monkeypatch.setattr(oracle, "_sturm_count", counted_only)
    eig_lowest(T, 6)
    assert len(count_only) <= 10 and len(full) <= 30


def stebz_eigvalsh(diag, offdiag):
    """split_eigvalsh with each block solved by LAPACK's bisection (stebz),
    within about eps * max|T_ij|."""
    linalg = pytest.importorskip("scipy.linalg")
    return split_eigvalsh(
        diag, offdiag, lambda d, e: linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stebz")
    )


@given(
    matrix=tridiagonals(
        st.sampled_from([0.0, 1.0, -1.0, 2.5, -3.0, 1e3, 1e-30, 3.9e-222]) | st.floats(-10, 10),
        st.sampled_from([0.0, 1e-30, 1e-12, 1.0, -2.0, 1e-150, 1e-100])
        | st.floats(-5, 5).filter(lambda x: x == 0.0 or abs(x) >= 1e-150),
        10,
    ),
    data=st.data(),
)
@examples(300)
def test_eig_lowest_matches_split_blocks_on_irregular_spectra(matrix, data):
    """Spectra far from the k**2 law of the grid: zero and tiny off-diagonals
    split the matrix into blocks, and repeated diagonal values give exact
    and near clusters, zero among them, and levels hundreds of decades
    nearer zero than the rest.  Every level is within 8 eps * max|T_ij| of
    the split-block reference, with no ConvergenceError.  The largest entry
    is at least 1, and off-diagonals are 0 or at least 1e-150 in size: the
    Sturm count squares an off-diagonal below 1e-154 to an underflow
    (ROADMAP item 3).  The dense eigvalsh is up to 8.6 times stebz's error
    off on such matrices (diag [0, -2.35, 6.56, 6.56, 1, 3.74, -8.09, 1,
    -2.35, 9])."""
    diag, offdiag = matrix
    assume(max(map(abs, [*diag, *offdiag])) >= 1.0)
    count = data.draw(st.integers(1, min(len(diag), 12)))
    ref = stebz_eigvalsh(diag, offdiag)[:count]
    found = [lam for lam, _ in eig_lowest(Tridiagonal(diag, offdiag, len(diag), 1.0), count)]
    bound = 8 * np.finfo(float).eps * max(map(abs, [*diag, *offdiag]))
    assert np.max(np.abs(np.array(found) - ref)) <= bound


@pytest.mark.parametrize(
    "diag, offdiag",
    [
        ([0.0, 0.0, 0.0, 1.0], [0.0, 1e-30, 0.0]),
        ([0.0, -1.0, 0.0, 3.9e-222], [0.0, 0.0, 0.0]),
        ([0.0, 1000.0, 0.0], [1e-12, 1e-12]),
        ([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1e-150]),
        (
            [1.0, 1.0, 1e-100, -5.0, -5.0, 5.0, 5.0, -5.0],
            [1e-30, 1e-30, 1e-100, -3.9333480595399872, 4.489889641124712, 5.0, -5.0],
        ),
    ],
    ids=[
        "tiny-pair-beside-zeros", "zeros-beside-1e-222", "weak-pair-beside-1000", "pair-of-1e-150",
        "near-double-level",
    ],
)
def test_eig_lowest_finishes_clusters(diag, offdiag):
    """Exact and near clusters, with the rest of T up to hundreds of
    decades larger.  Before the split at zero couplings and the one bracket
    test, the first four ran out of Sturm passes (after 216, 852, 165 and
    615).  Newton converges only linearly into the near-double level 1 of
    the last, and its predicted-error stop, taken there, left that level
    11.2 eps * max|T_ij| off.  Each level is within 8 eps * max|T_ij| of
    the split-block reference."""
    ref = stebz_eigvalsh(diag, offdiag)
    found = [lam for lam, _ in eig_lowest(Tridiagonal(diag, offdiag, len(diag), 1.0), len(diag))]
    bound = 8 * np.finfo(float).eps * max(map(abs, [*diag, *offdiag]))
    assert np.max(np.abs(np.array(found) - ref)) <= bound


@pytest.mark.parametrize(
    "diag, expected",
    [([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0]), ([1.0, 2.2e-309], [2.2e-309, 1.0])],
)
def test_eig_lowest_levels_of_split_blocks_are_exact(diag, expected):
    """Zero couplings split T into one-row blocks, each its own eigenvalue.
    Bisecting the whole T returned the double level 2 as
    1.9999999999999998, and the level 2.2e-309 as 0.0."""
    T = Tridiagonal(diag, [0.0] * (len(diag) - 1), len(diag), 1.0)
    assert [lam for lam, _ in eig_lowest(T, len(diag))] == expected


def test_free_grid_levels_match_discrete_laplacian():
    s = setup_pq(1, 4)
    N = 4095
    T = build_hamiltonian(s, 0.0, N)
    norm = 4 * s.c / T.dx**2
    for k, (lam, _) in enumerate(eig_lowest(T, 12), start=1):
        exact = norm * math.sin(k * math.pi / (2 * (N + 1))) ** 2
        assert abs(lam - exact) <= 2 * np.finfo(float).eps * norm


def test_eig_lowest_rejects_large_residual(monkeypatch):
    """A solve that returns no eigenvector fails the residual check."""
    T = build_hamiltonian(setup_pq(1, 4), 5.0, 255)
    monkeypatch.setattr(oracle, "_twisted_vector", lambda d, e, sigma, tiny: [1.0] * len(d))
    with pytest.raises(ConvergenceError, match="residual"):
        list(eig_lowest(T, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_eig_lowest_rejects_vector_without_finite_norm(monkeypatch, bad):
    """Python's max skips a nan that is not first, so the residual alone
    cannot see it; the 2-norm must.  A zero vector has no norm at all."""
    T = build_hamiltonian(setup_pq(1, 4), 5.0, 255)

    def broken(d, e, sigma, tiny):
        return [0.0, 0.0, 0.0, bad] + [0.0] * (len(d) - 4)

    monkeypatch.setattr(oracle, "_twisted_vector", broken)
    with pytest.raises(ConvergenceError, match="residual"):
        list(eig_lowest(T, 1))


def test_eig_lowest_survives_exactly_singular_shift():
    """Eigenvalue 0 of this path-graph Laplacian leaves an exactly zero last
    pivot in the shifted solve; its 1e-300 stand-in must not overflow v."""
    T = Tridiagonal([1.0, 2.0, 1.0], [-1.0, -1.0], 3, 1.0)
    dense = np.diag(T.diag) + np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1)
    ref_values, ref_vectors = np.linalg.eigh(dense)
    pairs = eig_lowest(T, 3)
    for (lam, v), expected, ref in zip(pairs, ref_values, ref_vectors.T):
        v = np.asarray(v)
        assert lam == pytest.approx(expected, abs=1e-12)
        assert np.all(np.isfinite(v))
        assert float(v @ v) == pytest.approx(1.0, rel=1e-12)
        assert abs(float(v @ ref)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "diag, offdiag",
    [([-1.0, 0.0, 0.0], [1e-300, 1e-150]), ([0.0, 1.0], [1e-150]), ([1.0, 2.2e-309], [0.0])],
    ids=["two-tiny-pivots", "zero-pivot-beside-a-tiny-one", "subnormal-diagonal"],
)
def test_eig_lowest_survives_tiny_pivots(diag, offdiag):
    """Couplings far below the rounding of T leave pivots whose reciprocals
    overflow when multiplied (1e-300 * 1e-150), or an exactly zero pivot
    beside a tiny one; the back-substitution then scales down as it goes.
    Every pair passes the residual check, with a finite unit vector."""
    T = Tridiagonal(diag, offdiag, len(diag), 1.0)
    ref = split_eigvalsh(diag, offdiag)
    for (lam, v), expected in zip(eig_lowest(T, len(diag)), ref):
        assert abs(lam - expected) <= 8 * np.finfo(float).eps
        assert all(map(math.isfinite, v))
        assert math.fsum(x * x for x in v) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "diag, expected",
    [([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0]), ([-1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0])],
)
def test_eig_lowest_resolves_repeated_levels(diag, expected):
    """A cluster no shift splits ends at the rounding of T: bisecting a
    double level 2 to relative 1e-12 left it 4e-13 off, a Newton step from
    the clamped pivot at 2.0 returned 2.0 for the level 3.0, and a double
    level 0 ran out of passes."""
    T = Tridiagonal(diag, [0.0] * (len(diag) - 1), len(diag), 1.0)
    found = [lam for lam, _ in eig_lowest(T, len(diag))]
    assert np.max(np.abs(np.array(found) - expected)) <= 8 * np.finfo(float).eps * 3.0


def test_eig_lowest_resolves_an_exact_zero_eigenvalue():
    """With exact Sturm counts the bracket of eigenvalue 0 straddles 0, where
    relative width 1e-12 is never reached; Newton must still land on it."""
    T = Tridiagonal([-1.0, 0.0, 1.0], [0.0, 0.0], 3, 1.0)
    values = [lam for lam, _ in eig_lowest(T, 3)]
    assert values[0] == -1.0 and values[2] == 1.0
    assert abs(values[1]) <= 1e-300


def test_eig_lowest_checks_residuals_of_a_zero_diagonal_matrix():
    """The residual scale takes max|offdiag| too; from max|diag| alone it is 0
    here and rejects every eigenpair, however exact."""
    T = Tridiagonal([0.0, 0.0, 0.0], [1.0, 1.0], 3, 1.0)
    dense_values, dense_vectors = np.linalg.eigh(np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1))
    pairs = eig_lowest(T, 3)
    for (lam, v), exact, w in zip(pairs, dense_values, dense_vectors.T):
        assert lam == pytest.approx(exact, abs=1e-14)
        assert abs(np.dot(v, w)) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(x * x for x in v) * T.dx == pytest.approx(1.0, rel=1e-12)


def test_eig_lowest_solves_levels_in_the_call_and_vectors_when_drawn(monkeypatch):
    """Every Sturm pass runs before eig_lowest returns; each eigenvector is
    computed, and its residual checked, only when its pair is drawn."""
    T = build_hamiltonian(setup_pq(1, 4), 5.0, 255)
    passes, solves = [], []
    sturm, sturm_count = oracle._sturm, oracle._sturm_count

    def counted(*args):
        passes.append(args[2])
        return sturm(*args)

    def counted_only(*args):
        passes.append(args[2])
        return sturm_count(*args)

    def no_vector(d, e, sigma, tiny):
        solves.append(sigma)
        return [1.0] * len(d)

    monkeypatch.setattr(oracle, "_sturm", counted)
    monkeypatch.setattr(oracle, "_sturm_count", counted_only)
    monkeypatch.setattr(oracle, "_twisted_vector", no_vector)
    pairs = eig_lowest(T, 3)
    solved = len(passes)
    assert solved > 0 and solves == []
    with pytest.raises(ConvergenceError, match="residual"):
        next(pairs)
    assert len(passes) == solved and len(solves) == 1


def test_eig_lowest_out_of_sturm_passes_raises_in_the_call(monkeypatch):
    """A level that exhausts its Sturm passes raises before any pair is drawn.
    The budget is twice the 54 halvings of the Gershgorin width plus
    `_NEWTON_PASSES`: at -98 that is 10 passes, and this level takes 20."""
    T = build_hamiltonian(setup_pq(1, 4), -1000.0, 511)
    monkeypatch.setattr(oracle, "_NEWTON_PASSES", 10 - 2 * 54)
    with pytest.raises(ConvergenceError, match="did not converge in 10 Sturm passes"):
        eig_lowest(T, 1)


def test_eig_lowest_midpoints_stay_in_float_range():
    """Both ends of the bracket of the level near -1.024e308 lie beyond half
    the float range, where 0.5 * (lo + hi) overflows to -inf and inverse
    iteration at -inf left a nan residual; the midpoint 0.5 * lo + 0.5 * hi
    stays finite, and the pair is a finite unit vector."""
    T = build_hamiltonian(setup_pq(1, 4, c=0.5), -1e305, 1023)
    [(lam, v)] = eig_lowest(T, 1)
    assert lam == pytest.approx(-1.024e308, rel=1e-12)
    assert all(map(math.isfinite, v))
    assert math.fsum(x * x for x in v) * T.dx == pytest.approx(1.0, rel=1e-12)


def test_eig_lowest_validates_count():
    T = build_hamiltonian(setup_pq(1, 4), 0.0, 127)
    for bad in (0, 13, -2):
        with pytest.raises(DomainError):
            eig_lowest(T, bad)


# ======================================================================
# Analytic reference levels
# ======================================================================


def test_analytic_levels_sorted_with_mode_flags():
    s = setup_pq(1, 4)
    levels = analytic_levels(s, 2.0, 9)
    nus = [nu for nu, _ in levels]
    assert nus == sorted(nus)
    assert all(b > a for a, b in zip(nus, nus[1:]))
    modes = [nu for nu, is_mode in levels if is_mode]
    assert modes == [nu_n(s, 8)]


def test_analytic_levels_zero_coupling_recovers_free_modes():
    s = setup_pq(1, 4)
    levels = analytic_levels(s, 0.0, 6)
    for n, (nu, _) in enumerate(levels, start=1):
        assert nu == pytest.approx(nu_n(s, n), rel=1e-9)


# ======================================================================
# Full comparisons
# ======================================================================


def test_free_well_levels_converge_quadratically():
    s = setup_pq(1, 4)
    errors = []
    for N in (511, 1023, 2047):
        result = compare(s, 0.0, N, 6)
        errors.append(result.max_rel_energy_error)
        # Free modes discretize to exact sampled sine vectors.
        assert result.max_sup_wave_error < 1e-9
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)
    assert errors[2] < 1e-5


def test_weak_coupling_matches_analytic_levels():
    s = setup_pq(1, 4)
    result = compare(s, 5.0 * s.c, 4095, 5)
    assert result.max_rel_energy_error < 5e-3
    assert result.max_sup_wave_error < 1e-5
    indices = [lv.index for lv in result.levels]
    assert indices == [1, 2, 3, 4, 5]
    energies = [lv.oracle_energy for lv in result.levels]
    assert energies == sorted(energies)


@pytest.mark.parametrize("alpha", [1e10, 1e12])
def test_strong_coupling_levels_match_the_closed_forms_in_sign(alpha):
    """At these couplings the right compartment of levels 3 and 4 holds
    below 1e-10 of their peak, under eig_lowest's 1e-8 sign cutoff; the
    comparison aligns the sign of the eigenvector to the closed form's."""
    s = setup_pq(1, 4)
    result = compare(s, alpha, 1023, 4)
    assert result.max_sup_wave_error < 1e-10


def test_compare_holds_one_eigenvector_at_a_time():
    """compare draws each eigenpair as it compares that level and keeps only
    its LevelComparison, so its traced peak does not grow with count: at
    N = 4095 twelve levels peak within 1.1 times one level's peak and at
    most 400 bytes per grid node.  Holding all twelve pairs took 715."""
    s = setup_pq(1, 4)
    N = 4095
    compare(s, 1000.0, 1023, 3)  # first-call allocations are not the oracle's working set
    peaks = {}
    for count in (1, 12):
        tracemalloc.start()
        try:
            compare(s, 1000.0, N, count)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[12] <= 1.1 * peaks[1]
    assert peaks[12] <= 400 * N


def test_deep_attractive_bound_state():
    s = setup_pq(1, 4)
    result = compare(s, -1000.0 * s.c, 4095, 1)
    level = result.levels[0]
    assert level.nu == pytest.approx(-1000.0, rel=1e-6)
    assert level.analytic_energy == pytest.approx(-250000.0 * s.c, rel=1e-6)
    assert level.oracle_energy < 0
    assert level.rel_energy_error < 1e-2


def test_mode_level_ignores_coupling():
    """The level on the shared lattice is coupling-blind even on the grid:
    its discrete eigenvector has an exact node where the weight sits."""
    s = setup_pq(1, 4)
    target = energy_from_nu(s, nu_n(s, 8))
    found = []
    for alpha in (0.0, 1000.0 * s.c):
        T = build_hamiltonian(s, alpha, 4095)
        pairs = eig_lowest(T, 9)
        found.append(min((lam for lam, _ in pairs), key=lambda v: abs(v - target)))
    assert abs(found[0] - found[1]) <= 1e-10 * abs(found[0])
    assert found[0] == pytest.approx(target, rel=1e-5)


def test_mode_eigenvector_vanishes_at_site():
    s = setup_pq(1, 4)
    T = build_hamiltonian(s, 0.0, 2047)
    target = energy_from_nu(s, nu_n(s, 8))
    lam, vec = min(eig_lowest(T, 9), key=lambda p: abs(p[0] - target))
    j = _site_node(s, 2047)
    assert abs(vec[j - 1]) < 1e-6 * float(np.max(np.abs(vec)))


@pytest.mark.parametrize(
    "p, q, alpha, count, bound",
    [
        (0, 1, 1e4, 3, 4.1e-10),
        (0, 1, 1e6, 3, 4.2e-8),
        (1, 4, -1e7, 9, 2.1e-7),
        (1, 2, 1e8, 4, 1.8e-6),
    ],
)
def test_mode_level_eigenvectors_are_the_sampled_sine(p, q, alpha, count, bound):
    """On the grid the exact eigenvector at a mode level is the sampled sine,
    so its sup_wave_error is the eigensolver's own.  A strong coupling
    pushes another level next to the mode, where inverse iteration from a
    start vector left 1.6e-8, 1.5e-6, 2.2e-6 and 1.1e-4; each bound is 10
    times the worst error of the twisted factorization (N = 4095)."""
    levels = compare(setup_pq(p, q), alpha, 4095, count).levels
    modes = [lv for lv in levels if lv.is_mode]
    assert modes
    assert max(lv.sup_wave_error for lv in modes) <= bound


@pytest.mark.parametrize(
    "diag, offdiag",
    [
        ([1.0, 1.0], [1e-30]),
        ([0.0, -1.0, -1.0], [0.0, 1e-30]),
        ([0.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1e-12, 1.0, 1.0]),
    ],
    ids=["tiny-coupled-pair", "split-tiny-coupled-pair", "split-near-cluster-at-zero"],
)
def test_eig_lowest_vectors_of_split_clusters(diag, offdiag):
    """Exact and near clusters split by zero and tiny couplings: with pivots
    floored at pivmin alone, rather than at the rounding of T, the twisted
    vectors left residuals of nan, 0.5 and 0.5 here.  Every pair passes the
    residual check, with a finite unit vector."""
    T = Tridiagonal(diag, offdiag, len(diag), 1.0)
    for lam, v in eig_lowest(T, len(diag)):
        v = np.asarray(v)
        assert np.all(np.isfinite(v))
        assert float(v @ v) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(tridiag_apply(T, v) - lam * v)) <= 1e-10 * np.max(np.abs(v))


@pytest.mark.parametrize("p, q, alpha", [(1, 2, -2091.764655756995), (0, 1, -10926.00861117378)])
def test_deep_bound_state_vector_peaks_at_the_site(p, q, alpha):
    """Away from the site of a deep bound state both pivot recurrences sit
    at their fixed points, where top_r + bottom_r - (d_r - lambda) is
    exactly 0.0 on almost every row: a twist taken as the first smallest
    of those sums lay in a tail, and z overflowed on its way to the site.
    The twist from the ratios of the pivots lies at the peak."""
    s = setup_pq(p, q)
    T = build_hamiltonian(s, alpha, 4095)
    lam, v = next(eig_lowest(T, 1))
    assert all(map(math.isfinite, v))
    assert v.index(max(v)) == _site_node(s, 4095) - 1
