import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_hermite

import gpexact as gx
from gpexact.errors import ResolutionError
from gpexact.model import symplectic_unit
from gpexact.moments import centered_apply

from conftest import KAPPA


def hermite_gaussian(axis, n, m_omega, hbar=1.0, x0=0.0):
    """Independent n-th oscillator eigenfunction with analytic normalization."""
    xi = np.sqrt(m_omega / hbar) * (axis.points - x0)
    norm = (m_omega / (np.pi * hbar)) ** 0.25 \
        / math.sqrt(2.0 ** n * math.factorial(n))
    psi = norm * eval_hermite(n, xi) * np.exp(-xi ** 2 / 2.0)
    return gx.GridState((axis,), psi.astype(complex), 0.0, hbar)


def test_norm_gaussian(axis_2048):
    psi = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [0.0], [1.0])
    assert gx.norm_squared(psi) == pytest.approx(1.0, abs=1e-12)
    doubled = psi.with_psi(2.0 * psi.psi)
    assert gx.norm_squared(doubled) == pytest.approx(4.0, abs=1e-11)


def test_norm_hermite_gaussian(axis_2048):
    psi = hermite_gaussian(axis_2048, 2, 1.0)
    assert gx.norm_squared(psi) == pytest.approx(1.0, abs=1e-10)


def test_first_moments_centered(axis_2048):
    psi = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [0.0], [1.0])
    assert np.allclose(gx.first_moments(psi), [0.0, 0.0], atol=1e-10)


def test_first_moments_boost_shift(axis_2048):
    psi = gx.gaussian_packet((axis_2048,), 1.0, [1.3], [0.7], [1.0])
    z = gx.first_moments(psi)
    assert z[0] == pytest.approx(0.7, abs=1e-9)
    assert z[1] == pytest.approx(1.3, abs=1e-9)


def test_second_moments_ground_gaussian(axis_2048):
    m_omega = 1.7
    psi = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [0.0], [m_omega])
    d = gx.second_moments(psi)
    assert d[1, 1] == pytest.approx(1.0 / (2.0 * m_omega), rel=1e-10)
    assert d[0, 0] == pytest.approx(m_omega / 2.0, rel=1e-10)
    assert d[0, 1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_second_moments_hermite_tower(axis_2048, n):
    m_omega = 1.0488088481701516
    psi = hermite_gaussian(axis_2048, n, m_omega)
    d = gx.second_moments(psi)
    assert d[1, 1] == pytest.approx((2 * n + 1) / (2.0 * m_omega), rel=1e-9)
    assert d[0, 0] == pytest.approx(m_omega * (2 * n + 1) / 2.0, rel=1e-9)


def test_centered_moment_invariance(axis_2048):
    base = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [0.0], [0.9])
    boosted = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [1.1], [0.9])
    shifted = gx.gaussian_packet((axis_2048,), 1.0, [2.0], [0.0], [0.9])
    d0 = gx.second_moments(base)
    db = gx.second_moments(boosted)
    ds = gx.second_moments(shifted)
    assert db[0, 0] == pytest.approx(d0[0, 0], rel=1e-10)
    assert ds[0, 1] == pytest.approx(d0[0, 1], abs=1e-10)
    assert ds[1, 1] == pytest.approx(d0[1, 1], rel=1e-10)


def test_global_phase_invariance(axis_1024):
    psi = gx.gaussian_packet((axis_1024,), 1.0, [0.4], [0.6], [1.2])
    rotated = psi.with_psi(np.exp(1j * 0.83) * psi.psi)
    assert np.allclose(gx.first_moments(psi), gx.first_moments(rotated),
                       rtol=0, atol=5e-15)
    assert np.allclose(gx.second_moments(psi), gx.second_moments(rotated),
                       rtol=0, atol=5e-15)


def test_normalization_convention_for_unnormalized_input(axis_1024):
    psi = gx.gaussian_packet((axis_1024,), 1.0, [0.8], [0.3], [1.0])
    scaled = psi.with_psi(3.0 * psi.psi)
    assert np.allclose(gx.first_moments(scaled), gx.first_moments(psi),
                       atol=1e-12)
    assert np.allclose(gx.second_moments(scaled), gx.second_moments(psi),
                       atol=1e-12)


def test_superposition_moments_from_combined_array(axis_2048):
    # two equal-width real Gaussians: <x> has an interference correction
    # relative to the norm-weighted average of centers
    alpha, a, b = 1.0, -1.0, 1.5
    p1 = gx.gaussian_packet((axis_2048,), 1.0, [a], [0.0], [alpha])
    p2 = gx.gaussian_packet((axis_2048,), 1.0, [b], [0.0], [alpha])
    c1, c2 = 0.6, 0.8
    comb = p1.with_psi(c1 * p1.psi + c2 * p2.psi)
    # analytic overlap of unit Gaussians: s = exp(-alpha (a-b)^2 / (4 hbar))
    s = math.exp(-alpha * (a - b) ** 2 / 4.0)
    norm_sq = c1 ** 2 + c2 ** 2 + 2 * c1 * c2 * s
    mean_x = (c1 ** 2 * a + c2 ** 2 * b
              + 2 * c1 * c2 * s * (a + b) / 2.0) / norm_sq
    z = gx.first_moments(comb)
    assert gx.norm_squared(comb) == pytest.approx(norm_sq, rel=1e-10)
    assert z[1] == pytest.approx(mean_x, rel=1e-9)
    naive = (c1 ** 2 * a + c2 ** 2 * b) / (c1 ** 2 + c2 ** 2)
    assert abs(mean_x - naive) > 1e-3  # the cross term genuinely matters


def test_uncertainty_relation_sanity(axis_1024):
    rng = np.random.default_rng(11)
    for _ in range(10):
        alpha = rng.uniform(0.5, 2.0)
        x0, p0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        c2 = rng.uniform(-0.3, 0.3)
        base = gx.gaussian_packet((axis_1024,), 1.0, [x0], [p0], [alpha])
        xi = np.sqrt(alpha) * (axis_1024.points - x0)
        psi = base.with_psi(base.psi * (1.0 + c2 * xi ** 2))
        d = gx.second_moments(psi)
        assert d[0, 0] * d[1, 1] - d[0, 1] ** 2 >= 0.25 - 1e-9


def test_constants_of_motion_bundle(model_1d, axis_2048):
    psi = gx.gaussian_packet((axis_2048,), 1.0, [1.0], [0.2], [1.0])
    cons = gx.constants_of_motion(model_1d, psi)
    assert cons.norm_sq == pytest.approx(1.0, abs=1e-12)
    assert cons.kappa_tilde == pytest.approx(KAPPA, abs=1e-12)
    assert cons.point.z[1] == pytest.approx(1.0, abs=1e-9)
    assert gx.effective_coupling(model_1d, psi) == pytest.approx(KAPPA,
                                                                 abs=1e-12)


def _unnormalized_state(n):
    if n == 1:
        one = gx.gaussian_packet((gx.Axis(-12.0, 12.0, 1024),), 1.0, [0.7],
                                 [-0.4], [1.3])
        return one.with_psi(1.7 * one.psi)
    if n == 2:
        two = gx.gaussian_packet((gx.Axis(-9.0, 9.0, 96),) * 2, 1.0,
                                 [0.5, -0.3], [-0.2, 0.3], [1.1, 0.9])
        x, y = two.grids()
        return two.with_psi(1.3 * two.psi * np.exp(0.15j * x * y))
    three = gx.gaussian_packet((gx.Axis(-8.0, 8.0, 48),) * 3, 1.0,
                               [0.3, -0.2, 0.1], [0.4, 0.1, -0.3],
                               [1.0, 1.3, 0.8])
    x, y, _ = three.grids()
    return three.with_psi(0.6 * three.psi * np.exp(0.2j * x * y))


@pytest.mark.parametrize("n", [1, 2, 3], ids=["1d", "2d", "3d"])
def test_moment_record_matches_the_moment_functions(model_1d, n):
    """The record shares |psi|^2 (and in 1D the spectrum) with the gate;
    the moment functions read the state afresh.  Both agree bitwise."""
    psi = _unnormalized_state(n)
    cons = gx.constants_of_motion(model_1d, psi)
    z = gx.first_moments(psi)
    assert np.array_equal(cons.norm_sq, gx.norm_squared(psi))
    assert np.array_equal(cons.point.z, z)
    assert np.array_equal(cons.point.Delta, gx.second_moments(psi))
    assert np.array_equal(cons.point.Delta, gx.second_moments(psi, z))


@pytest.mark.parametrize("n, num, half, seed", [(2, 96, 9.0, 5),
                                                 (3, 48, 8.0, 6)],
                         ids=["2d", "3d"])
def test_chirped_gaussian_cross_blocks(n, num, half, seed):
    """A Gaussian of inverse widths A = diag(alpha) chirped by
    exp(i dx^T B dx / 2 hbar): p psi = (p0 + (B + iA) dx) psi, so
    Sigma_xx = hbar/2 A^-1, Sigma_px = B Sigma_xx and
    Sigma_pp = hbar/2 A + B Sigma_xx B, about z = (p0, x0)."""
    rng = np.random.default_rng(seed)
    hbar = 1.0
    alpha = rng.uniform(0.8, 1.4, n)
    B = rng.uniform(-0.3, 0.3, (n, n))
    B = B + B.T
    x0, p0 = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)
    base = gx.gaussian_packet((gx.Axis(-half, half, num),) * n, hbar, x0, p0,
                              alpha)
    dx = [g - c for g, c in zip(base.grids(), x0)]
    chirp = sum(B[a, b] * dx[a] * dx[b] for a in range(n) for b in range(n))
    psi = base.with_psi(base.psi * np.exp(0.5j * chirp / hbar))
    sxx = 0.5 * hbar * np.diag(1.0 / alpha)
    spx = B @ sxx
    want = np.block([[0.5 * hbar * np.diag(alpha) + spx @ B, spx],
                     [spx.T, sxx]])
    assert np.max(np.abs(spx - spx.T)) > 1e-4  # a transposed block shows
    z = gx.first_moments(psi)
    assert np.max(np.abs(z - np.concatenate([p0, x0]))) < 1e-12
    assert np.max(np.abs(gx.second_moments(psi) - want)) < 1e-12


@st.composite
def three_gaussians(draw):
    """A resolved superposition of three random Gaussian packets on a 2D or
    3D grid of 48 points per axis over [-8, 8)."""
    n = draw(st.sampled_from([2, 3]))
    axes = (gx.Axis(-8.0, 8.0, 48),) * n

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n,
                                      max_size=n)))

    psi = 0.0
    for _ in range(3):
        packet = gx.gaussian_packet(axes, 1.0, vec(-1.0, 1.0), vec(-0.5, 0.5),
                                    vec(0.8, 1.25))
        coeff = draw(st.floats(0.3, 1.0)) \
            * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        psi = psi + coeff * packet.psi
    return packet.with_psi(psi)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(three_gaussians())
def test_moment_record_obeys_the_uncertainty_relation(psi):
    """Delta + (i hbar / 2) J is the Gram matrix <c_i psi, c_j psi> / |psi|^2
    of the centered operators, so it has no negative eigenvalue."""
    d = gx.second_moments(psi)
    gram = d + 0.5j * psi.hbar * symplectic_unit(psi.n)
    assert np.linalg.eigvalsh(gram).min() >= -1e-12 * np.max(np.abs(d))


def gram_record(psi, z=None):
    """The moment record by definition: the 2n images z_i psi from
    centered_apply, the means Re<psi, z_i psi>/|psi|^2 unless z is given,
    and Delta_ij = Re<c_i psi, c_j psi>/|psi|^2 for c_i = z_i - z[i]."""
    d = 2 * psi.n
    nrm = psi.weight * np.vdot(psi.psi, psi.psi).real
    if z is None:
        z = np.array([psi.weight * np.vdot(psi.psi, centered_apply(
            psi, psi.psi, i, 0.0)).real / nrm for i in range(d)])
    c = [centered_apply(psi, psi.psi, i, z[i]) for i in range(d)]
    return z, np.array([[psi.weight * np.vdot(ci, cj).real / nrm
                         for cj in c] for ci in c])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(three_gaussians(), st.lists(st.floats(-0.6, 0.6), min_size=6,
                                   max_size=6))
def test_moment_record_matches_its_gram_reference(psi, shift):
    """Means and Delta from the marginals and the momentum currents against
    the Gram matrix of all 2n centered images, about the state's own mean
    and about a center off it (where Delta gains the outer product of the
    offset in every block, p-x included)."""
    want_z, want = gram_record(psi)
    spread = np.max(np.abs(want))
    z = gx.first_moments(psi)
    assert np.max(np.abs(z - want_z)) <= 1e-12 * math.sqrt(spread)
    got = gx.second_moments(psi)
    assert np.max(np.abs(got - want)) <= 1e-12 * spread
    off = want_z + np.array(shift[:2 * psi.n])
    _, want = gram_record(psi, off)
    got = gx.second_moments(psi, off)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("x0, p0, alpha, name", [
    ([1.0, 5.0], [0.2, 3.0], [1.0, 1.0], "x0"),
    ([1.0], [0.2, 3.0], [1.0], "p0"),
    ([1.0], [0.2], [1.0, 1.0], "alpha")])
def test_gaussian_packet_needs_one_entry_per_axis(axis_1024, x0, p0, alpha,
                                                  name):
    """No entry is dropped: a packet with more entries than axes is refused,
    a scalar alpha serves every axis."""
    with pytest.raises(ValueError, match=f"{name} needs one entry per axis"):
        gx.gaussian_packet((axis_1024,), 1.0, x0, p0, alpha)
    axes = (gx.Axis(-8.0, 8.0, 64),) * 2
    assert np.array_equal(
        gx.gaussian_packet(axes, 1.0, [0.1, 0.2], [0.0, 0.3], 1.2).psi,
        gx.gaussian_packet(axes, 1.0, [0.1, 0.2], [0.0, 0.3], [1.2, 1.2]).psi)


@pytest.mark.parametrize("alpha", [[0.0], [-1.0], [math.nan], math.inf])
def test_gaussian_packet_alpha_must_be_finite_and_positive(axis_1024, alpha):
    with pytest.raises(ValueError, match="alpha = .* finite and positive"):
        gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.2], alpha)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_grid_state_time_must_be_finite(model_1d, axis_1024, t):
    """A non-finite time label is refused where the state is built, with
    the name t: by the packet constructor, by a relabelling, and so before
    the oracle can count its steps from it."""
    with pytest.raises(ValueError, match="t = .* is not a finite time"):
        gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.2], [1.0], t=t)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.2], [1.0])
    with pytest.raises(ValueError, match="t = .* is not a finite time"):
        psi.at_time(t)
    with pytest.raises(ValueError, match="t = .* is not a finite time"):
        gx.split_step_evolve(model_1d, psi.at_time(t), 1.0)


@pytest.mark.parametrize("hbar", [math.nan, math.inf, 0.0, -1.0])
def test_grid_state_hbar_must_be_finite_and_positive(axis_1024, hbar):
    with pytest.raises(ValueError, match="hbar = .* finite and positive"):
        gx.GridState((axis_1024,), np.ones(axis_1024.num, dtype=complex),
                     0.0, hbar)


def test_axis_num_must_be_an_integer():
    """A float point count is refused where the axis is built, not later
    where a packet samples it."""
    with pytest.raises(ValueError, match="axis num = 8.0 is not an integer"):
        gx.Axis(-1.0, 1.0, 8.0)
    assert gx.Axis(-1.0, 1.0, np.int64(8)).points.shape == (8,)


def test_axis_tables_are_cached_and_read_only():
    """points and wavenumbers are computed once per axis and shared, so no
    caller may write into them; a replaced, copied or unpickled axis has
    read-only tables of its own, and the cache is no part of equality or
    hashing."""
    ax = gx.Axis(-3.0, 5.0, 16)
    for name in ("points", "wavenumbers"):
        table = getattr(ax, name)
        assert getattr(ax, name) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0
        for twin in (dataclasses.replace(ax), copy.deepcopy(ax),
                     pickle.loads(pickle.dumps(ax))):
            assert twin == ax
            assert np.array_equal(getattr(twin, name), table)
            assert getattr(twin, name) is not table
            assert not getattr(twin, name).flags.writeable
    assert np.array_equal(ax.points, -3.0 + 0.5 * np.arange(16))
    moved = dataclasses.replace(ax, hi=7.0)
    assert np.array_equal(moved.points, -3.0 + 0.625 * np.arange(16))
    twin = gx.Axis(-3.0, 5.0, 16)
    assert twin == ax and hash(twin) == hash(ax) == hash((-3.0, 5.0, 16))
    assert moved != ax


@pytest.mark.parametrize("size", [1, 3])
def test_second_moments_reject_a_center_of_the_wrong_length(axis_1024, size):
    psi = gx.gaussian_packet((axis_1024,), 1.0, [0.4], [0.6], [1.2])
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        gx.second_moments(psi, np.zeros(size))


def test_moment_record_applies_each_momentum_once(model_1d, monkeypatch):
    from gpexact import moments
    from gpexact.state import momentum_apply
    calls = []

    def spy(state, psi, axis):
        calls.append(axis)
        return momentum_apply(state, psi, axis)

    monkeypatch.setattr(moments, "momentum_apply", spy)
    psi = _unnormalized_state(3)
    gx.constants_of_motion(model_1d, psi)
    assert sorted(calls) == list(range(psi.n))


def test_zero_state_rejected(model_1d, axis_1024):
    zero = gx.GridState((axis_1024,), np.zeros(axis_1024.num, dtype=complex),
                        0.0, 1.0)
    with pytest.raises(ResolutionError):
        gx.constants_of_motion(model_1d, zero)


def test_unresolved_state_rejected():
    axis = gx.Axis(-3.0, 3.0, 64)
    wide = gx.gaussian_packet((axis,), 1.0, [0.0], [0.0], [0.05])
    with pytest.raises(ResolutionError):
        gx.norm_squared(wide)


@pytest.mark.parametrize("center, where", [
    ([0.0, 2.0], "upper face of axis 1"),
    ([-2.0, 0.0], "lower face of axis 0"),
])
def test_boundary_gate_names_the_face(center, where):
    axes = tuple(gx.Axis(-3.0, 3.0, 32) for _ in range(2))
    psi = gx.gaussian_packet(axes, 1.0, center, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ResolutionError, match=f"boundary tail .* on the "
                                              f"{where} exceeds"):
        gx.check_resolved(psi)


def test_aliasing_rejected():
    axis = gx.Axis(-12.0, 12.0, 64)
    fast = gx.gaussian_packet((axis,), 1.0, [0.0], [7.0], [1.0])
    with pytest.raises(ResolutionError):
        gx.first_moments(fast)


def test_fock_first_moments_follow_trajectory(model_1d):
    """Means of the n = 1 basis state sit on the steady orbit at any time."""
    params = model_1d.example
    x0 = params.steady_center(KAPPA)
    axis = gx.Axis(x0 - 12.0, x0 + 12.0, 2048)
    g0 = gx.constants_of_motion(
        model_1d, gx.fock_state(model_1d, 1, 0.0, axis=axis)).point
    traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, 1.3)
    for t in (0.0, 0.6, 1.3):
        f1 = gx.fock_state(model_1d, 1, t, axis=axis)
        z = gx.first_moments(f1)
        assert np.allclose(z, traj.z(t), atol=1e-9)


def test_constants_of_ground_state(model_1d):
    params = model_1d.example
    om = params.Omega(KAPPA)
    x0 = params.steady_center(KAPPA)
    axis = gx.Axis(x0 - 12.0, x0 + 12.0, 2048)
    cons = gx.constants_of_motion(model_1d,
                                  gx.fock_state(model_1d, 0, 0.0, axis=axis))
    assert cons.point.z[0] == pytest.approx(0.0, abs=1e-10)
    assert cons.point.z[1] == pytest.approx(x0, abs=1e-10)
    assert cons.point.Delta[1, 1] == pytest.approx(1.0 / (2 * om), rel=1e-10)
    assert cons.point.Delta[0, 0] == pytest.approx(om / 2.0, rel=1e-10)
    assert cons.point.Delta[0, 1] == pytest.approx(0.0, abs=1e-11)
