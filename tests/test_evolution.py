import math

import numpy as np
import pytest
import scipy.fft as sp_fft
from hypothesis import assume, given, settings, strategies as st

import gpexact as gx
from gpexact import evolution
from gpexact.errors import (CausticError, ModelError, PlanError,
                            ResolutionError)
from gpexact.evolution import (EvolveOptions, _apply_kernel, _bluestein,
                               _chirp, _chirp_z_pair, _recentered,
                               plan_evolution)
from gpexact.kernel import conjugate_point_units

from conftest import KAPPA, forced_oscillator_mean, oracle_models, \
    signed_models


def test_harmonic_coherent_orbit(axis_1024):
    model = gx.harmonic_model(omega=1.0)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [1.0])
    for t in (0.8, 2.1):
        out = gx.evolve(model, psi, t)
        z = gx.first_moments(out)
        assert z[1] == pytest.approx(math.cos(t), abs=1e-9)
        assert z[0] == pytest.approx(-math.sin(t), abs=1e-9)
        d = gx.second_moments(out)
        assert d[1, 1] == pytest.approx(0.5, abs=1e-9)  # width constant


def test_fock0_density_matches_closed_form(model_1d, params_1d):
    om = params_1d.Omega(KAPPA)
    x0 = params_1d.steady_center(KAPPA)
    axis = gx.Axis(x0 - 12.0, x0 + 12.0, 2048)
    psi = gx.fock_state(model_1d, 0, 0.0, axis=axis)
    for t in np.linspace(0.2, 0.8 * math.pi / om, 4):
        out = gx.evolve(model_1d, psi, t)
        ref = gx.fock_state(model_1d, 0, t, axis=axis)
        dens_err = math.sqrt(axis.delta * np.sum(
            (np.abs(out.psi) - np.abs(ref.psi)) ** 2))
        assert dens_err <= 1e-8
        assert gx.l2_distance(out, ref) <= 1e-8


def test_displaced_gaussian_vs_oracle(model_1d, displaced_gaussian):
    out = gx.evolve(model_1d, displaced_gaussian, 1.0)
    ref = gx.split_step_evolve(model_1d, displaced_gaussian, 1.0,
                               gx.OracleConfig(dt=4.5e-3))
    assert gx.l2_distance(out, ref) <= 1e-6


def test_norm_conservation(model_1d, displaced_gaussian):
    for t in (0.6, 1.7):
        out = gx.evolve(model_1d, displaced_gaussian, t)
        assert abs(gx.norm_squared(out) - 1.0) <= 1e-8


def test_moments_track_trajectory(model_1d, params_1d, displaced_gaussian):
    """Evolved-state moments follow the moment system launched from the
    initial record (the integrals-of-motion property)."""
    cons = gx.constants_of_motion(model_1d, displaced_gaussian)
    traj = gx.integrate_moments(model_1d, cons.kappa_tilde, cons.point,
                                0.0, 2.0)
    for t in np.linspace(0.1, 2.0, 8):
        out = gx.evolve(model_1d, displaced_gaussian, float(t))
        z = gx.first_moments(out)
        d = gx.second_moments(out, z)
        assert np.max(np.abs(z - traj.z(t))) <= 1e-6
        assert np.max(np.abs(d - traj.Delta(t))) <= 1e-6
        p_ref, x_ref = forced_oscillator_mean(params_1d, cons.kappa_tilde,
                                              cons.point.z[0],
                                              cons.point.z[1], t)
        assert z[0] == pytest.approx(p_ref, abs=1e-6)
        assert z[1] == pytest.approx(x_ref, abs=1e-6)


def test_inverse_roundtrip(model_1d, displaced_gaussian):
    Psi = gx.evolve(model_1d, displaced_gaussian, 1.3)
    back = gx.evolve_inverse(model_1d, Psi, 0.0)
    assert gx.l2_distance(back, displaced_gaussian) <= 1e-8
    # and the other order, on a genuine solution
    again = gx.evolve(model_1d, back, 1.3)
    assert gx.l2_distance(again, Psi) <= 1e-8


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_evolve_rejects_a_non_finite_time(model_1d, displaced_gaussian, t):
    with pytest.raises(ValueError, match="t = .* must be finite"):
        gx.evolve(model_1d, displaced_gaussian, t)


def test_inverse_at_coincident_times(model_1d, displaced_gaussian):
    same = gx.evolve_inverse(model_1d, displaced_gaussian, 0.0)
    assert same is displaced_gaussian


def test_group_law_midpoint(model_1d, displaced_gaussian):
    direct = gx.evolve(model_1d, displaced_gaussian, 1.4)
    comp = gx.evolve_composed(model_1d, displaced_gaussian, 0.0, 0.7, 1.4)
    assert gx.l2_distance(comp, direct) <= 1e-7


def test_group_law_trivial_split(model_1d, displaced_gaussian):
    direct = gx.evolve(model_1d, displaced_gaussian, 0.9)
    comp = gx.evolve_composed(model_1d, displaced_gaussian, 0.0, 0.0, 0.9)
    assert gx.l2_distance(comp, direct) <= 1e-10


def test_composition_across_conjugate_point(model_1d, params_1d,
                                            displaced_gaussian):
    """Landing almost on the caustic forces a split; the result must agree
    with the independent integrator."""
    om = params_1d.Omega(KAPPA)
    t_c = math.pi / om
    out = gx.evolve(model_1d, displaced_gaussian, t_c)
    ref = gx.split_step_evolve(model_1d, displaced_gaussian, t_c,
                               gx.OracleConfig(dt=4.5e-3))
    assert gx.l2_distance(out, ref) <= 1e-5


def test_plan_splits_near_caustic(model_1d, params_1d, displaced_gaussian):
    om = params_1d.Omega(KAPPA)
    t_c = math.pi / om
    cons = gx.constants_of_motion(model_1d, displaced_gaussian)
    traj = gx.integrate_moments(model_1d, cons.kappa_tilde, cons.point,
                                0.0, t_c)
    plan = plan_evolution(traj, displaced_gaussian, EvolveOptions())
    assert len(plan.splits) >= 2
    assert plan.splits[0][0] == 0.0 and plan.splits[-1][1] == t_c
    for (a0, b0), (a1, _) in zip(plan.splits[:-1], plan.splits[1:]):
        assert b0 == a1  # no gaps, no overlap


def test_plan_splits_at_a_conjugate_point_in_2d():
    """A rotated anisotropic trap at t = pi/w2: l3 is rank 1 with no zero
    row, so the alias gate passes the whole interval and only the caustic
    check of the kernel context sees the conjugate point; the plan splits
    the interval, and each leg writes the input grid."""
    w2 = 2.3
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    R = np.array([[c, -s], [s, c]])
    hzz = np.block([[np.eye(2), np.zeros((2, 2))],
                    [np.zeros((2, 2)), R @ np.diag([1.0, w2 ** 2]) @ R.T]])
    model = gx.make_model(2, 1.0, 1.0, 0.0, hzz, np.zeros(4))
    axes = tuple(gx.Axis(-8.0, 8.0, 128) for _ in range(2))
    psi = gx.gaussian_packet(axes, 1.0, [0.3, -0.2], [0.1, 0.2], [1.0, 1.0])
    t = math.pi / w2
    cons = gx.constants_of_motion(model, psi)
    traj = gx.integrate_moments(model, cons.kappa_tilde, cons.point, 0.0, t)
    with pytest.raises(CausticError):
        gx.build_kernel_context(traj, 0.0, t)
    plan = plan_evolution(traj, psi, EvolveOptions())
    assert len(plan.legs) > 1
    assert plan.grids == (axes,) * len(plan.legs)
    back = gx.evolve_inverse(model, gx.evolve(model, psi, t), 0.0)
    assert gx.l2_distance(back, psi) <= 1e-8


def test_superposition_identity_and_linear_limit(model_1d, axis_1024):
    psi1 = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [1.0])
    psi2 = gx.gaussian_packet((axis_1024,), 1.0, [-0.6], [0.3], [1.0])
    P1 = gx.evolve(model_1d, psi1, 0.8)
    P2 = gx.evolve(model_1d, psi2, 0.8)
    only1 = gx.superpose(model_1d, P1, P2, 1.0, 0.0)
    assert gx.l2_distance(only1, P1) <= 1e-8

    linear = gx.harmonic_model(omega=1.0)
    Q1 = gx.evolve(linear, psi1, 0.8)
    Q2 = gx.evolve(linear, psi2, 0.8)
    sup = gx.superpose(linear, Q1, Q2, 0.6, 0.8)
    lin = Q1.with_psi(0.6 * Q1.psi + 0.8 * Q2.psi)
    assert gx.l2_distance(sup, lin) <= 1e-8


def test_superposition_nonlinear_dual_evaluation(model_1d, axis_1024):
    psi1 = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [1.0])
    psi2 = gx.gaussian_packet((axis_1024,), 1.0, [-0.6], [0.3], [1.0])
    P1 = gx.evolve(model_1d, psi1, 0.8)
    P2 = gx.evolve(model_1d, psi2, 0.8)
    sup = gx.superpose(model_1d, P1, P2, 0.6, 0.8)
    direct = gx.evolve(model_1d,
                       psi1.with_psi(0.6 * psi1.psi + 0.8 * psi2.psi), 0.8)
    assert gx.l2_distance(sup, direct) <= 1e-7


def test_superposition_zero_norm_rejected(model_1d, axis_1024):
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [1.0])
    P = gx.evolve(model_1d, psi, 0.5)
    with pytest.raises(ResolutionError):
        gx.superpose(model_1d, P, P, 1.0, -1.0)


def test_recentered_output_grid(model_1d, params_1d, axis_2048):
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_2048,), 1.0, [2.0], [0.0], [om])
    out = gx.evolve(model_1d, psi, 1.1, EvolveOptions(recenter=True))
    z = gx.first_moments(out)
    assert out.axes[0].center == pytest.approx(z[1], abs=1e-8)
    span = out.axes[0].hi - out.axes[0].lo
    assert span == pytest.approx(24.0, abs=1e-12)
    assert out.axes[0].num == 2048
    # ground-width packet keeps a stationary envelope around the moving
    # center, so the density is known in closed form
    env = (om / math.pi) ** 0.25 \
        * np.exp(-om * (out.axes[0].points - z[1]) ** 2 / 2.0)
    assert np.max(np.abs(np.abs(out.psi) - env)) < 1e-8


def test_plan_error_on_coarse_grid(model_1d):
    axis = gx.Axis(-12.0, 12.0, 128)
    om = 1.0488088481701516
    psi = gx.gaussian_packet((axis,), 1.0, [1.0], [0.0], [om])
    with pytest.raises((PlanError, ResolutionError)):
        gx.evolve(model_1d, psi, 0.02)


def test_plan_error_names_the_requested_interval(model_1d, params_1d):
    axis = gx.Axis(-12.0, 12.0, 128)
    psi = gx.gaussian_packet((axis,), 1.0, [1.0], [0.2],
                             [params_1d.m * params_1d.Omega(KAPPA)])
    with pytest.raises(PlanError, match=r"over \[0, 0\.5\]: grid too coarse"):
        gx.evolve(model_1d, psi, 0.5)


@pytest.mark.parametrize("t", [2.05, 2.1, 2.15, 2.2])
def test_evolve_returns_only_states_it_accepts(t):
    """A free packet spreading onto the box edge: evolve either refuses the
    leg or returns a state that the inverse and the moments take as input."""
    model = gx.free_model()
    psi = gx.gaussian_packet((gx.Axis(-10.0, 10.0, 256),), 1.0, [0.0], [0.0],
                             [1.0])
    try:
        out = gx.evolve(model, psi, t)
    except ResolutionError:
        return
    gx.first_moments(out)
    gx.evolve_inverse(model, out, 0.0)


def test_2d_isotropic_coherent_state():
    model = gx.harmonic_model(omega=1.0, n=2)
    axes = (gx.Axis(-9.0, 9.0, 96), gx.Axis(-9.0, 9.0, 96))
    psi = gx.gaussian_packet(axes, 1.0, [1.0, -0.5], [0.0, 0.3], [1.0, 1.0])
    out = gx.evolve(model, psi, 0.9)
    z = gx.first_moments(out)
    exp_p = np.array([0.0, 0.3]) * math.cos(0.9) \
        - np.array([1.0, -0.5]) * math.sin(0.9)
    exp_x = np.array([1.0, -0.5]) * math.cos(0.9) \
        + np.array([0.0, 0.3]) * math.sin(0.9)
    assert np.max(np.abs(z - np.r_[exp_p, exp_x])) < 1e-9
    assert gx.norm_squared(out) == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def setup_3d():
    params = gx.Example3DParams(H_field=0.4)
    model = gx.model_3d(params, hbar=1.0, kappa=0.5)
    w1, w2 = params.frequencies(0.5)
    axes = tuple(gx.Axis(-8.0, 8.0, 64) for _ in range(3))
    psi = gx.gaussian_packet(axes, 1.0, [0.5, 0.0, -0.3], [0.0, 0.2, 0.0],
                             [params.m * w1, params.m * w1, params.m * w2])
    return params, model, psi


def test_3d_group_law(setup_3d):
    _, model, psi = setup_3d
    direct = gx.evolve(model, psi, 1.6)
    comp = gx.evolve_composed(model, psi, 0.0, 0.8, 1.6)
    assert gx.l2_distance(comp, direct) <= 1e-8
    assert gx.norm_squared(direct) == pytest.approx(1.0, abs=1e-8)


def test_3d_against_oracle_without_field(setup_3d):
    _, _, psi = setup_3d
    params0 = gx.Example3DParams(H_field=0.0)
    model0 = gx.model_3d(params0, hbar=1.0, kappa=0.5)
    out = gx.evolve(model0, psi, 0.8)
    ref = gx.split_step_evolve(model0, psi, 0.8, gx.OracleConfig(dt=3.2e-2))
    assert gx.l2_distance(out, ref) <= 2e-6


def test_3d_moment_transport(setup_3d):
    _, model, psi = setup_3d
    cons = gx.constants_of_motion(model, psi)
    traj = gx.integrate_moments(model, cons.kappa_tilde, cons.point, 0.0, 1.6)
    out = gx.evolve(model, psi, 1.6)
    z = gx.first_moments(out)
    assert np.max(np.abs(z - traj.z(1.6))) <= 1e-6


def test_state_io_roundtrip(tmp_path, displaced_gaussian, model_1d):
    out = gx.evolve(model_1d, displaced_gaussian, 0.8)
    path = tmp_path / "state.npz"
    gx.save_state(out, path)
    loaded = gx.load_state(path)
    assert loaded.axes == out.axes
    assert loaded.t == out.t and loaded.hbar == out.hbar
    assert np.array_equal(loaded.psi, out.psi)  # bit-exact

    from gpexact.state import dump_state_csv
    csv_path = tmp_path / "state.csv"
    dump_state_csv(out, csv_path)
    first = csv_path.read_text().splitlines()
    assert first[0] == "x0,re,im"
    assert len(first) == out.axes[0].num + 1


def test_2d_nonlocal_model_vs_oracle():
    """Dense two-dimensional quadrature with genuine nonlocal coupling."""
    a, b, c = 0.2, 0.1, 0.3
    eye2 = np.eye(2)
    zero = np.zeros((2, 2))
    hzz = np.block([[eye2, zero], [zero, eye2]])  # m = 1, omega0 = 1
    wzz = np.block([[zero, zero], [zero, a * eye2]])
    wzw = np.block([[zero, zero], [zero, b * eye2]])
    www = np.block([[zero, zero], [zero, c * eye2]])
    model = gx.make_model(2, 1.0, 1.0, 0.5, hzz, np.zeros(4),
                          wzz, wzw, www)
    om = math.sqrt(1.0 + 0.5 * a)
    axes = (gx.Axis(-9.0, 9.0, 96), gx.Axis(-9.0, 9.0, 96))
    psi = gx.gaussian_packet(axes, 1.0, [0.8, -0.4], [0.0, 0.2], [om, om])
    out = gx.evolve(model, psi, 0.9)
    ref = gx.split_step_evolve(model, psi, 0.9, gx.OracleConfig(dt=4.5e-3))
    assert gx.l2_distance(out, ref) <= 5e-7
    assert gx.norm_squared(out) == pytest.approx(1.0, abs=1e-9)


def test_excited_state_vs_oracle(model_1d, params_1d, axis_2048):
    """Non-Gaussian initial data: Gaussian times a quadratic polynomial."""
    om = params_1d.Omega(KAPPA)
    base = gx.gaussian_packet((axis_2048,), 1.0, [0.6], [0.1],
                              [params_1d.m * om])
    xi = np.sqrt(om) * (axis_2048.points - 0.6)
    psi = base.with_psi(base.psi * (1.0 + 0.4 * xi - 0.25 * xi ** 2))
    psi = psi.with_psi(psi.psi / math.sqrt(gx.norm_squared(psi)))
    out = gx.evolve(model_1d, psi, 1.2)
    ref = gx.split_step_evolve(model_1d, psi, 1.2, gx.OracleConfig(dt=4.5e-3))
    assert gx.l2_distance(out, ref) <= 1e-6


def test_amplitude_homogeneity_at_fixed_coupling(model_1d, axis_1024):
    """With kappa_tilde pinned, the map is linear in the amplitude; with the
    default norm-scaled coupling it is not."""
    om = 1.0488088481701516
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [om])
    scaled = psi.with_psi(1.7 * psi.psi)
    fixed = EvolveOptions(kappa_tilde=0.5)
    a = gx.evolve(model_1d, scaled, 0.9, fixed)
    b = gx.evolve(model_1d, psi, 0.9, fixed)
    assert gx.l2_distance(a, b.with_psi(1.7 * b.psi)) <= 1e-10
    # default coupling rescales with the squared norm and breaks linearity
    c = gx.evolve(model_1d, scaled, 0.9)
    assert gx.l2_distance(c, b.with_psi(1.7 * b.psi)) > 1e-3


def test_long_time_roundtrip_is_exact(model_1d, params_1d):
    """The README packet on 256 points, to t = 8 (several conjugate
    points) and back: the closed-form trajectory leaves only roundoff."""
    axis = gx.Axis(-12.0, 12.0, 256)
    psi = gx.gaussian_packet((axis,), 1.0, [1.0], [0.2],
                             [params_1d.m * params_1d.Omega(KAPPA)])
    back = gx.evolve_inverse(model_1d, gx.evolve(model_1d, psi, 8.0), 0.0)
    assert gx.l2_distance(back, psi) <= 1e-12


def test_parametric_oscillator_vs_oracle(axis_2048, parametric_model):
    """A callable Hzz(t) = diag(1/m, m w(t)^2), with the interaction blocks
    of the 1D setup, takes the Magnus trajectory; the oracle samples Hzz at
    every step."""
    model = parametric_model
    assert model.drive is None
    psi = gx.gaussian_packet((axis_2048,), 1.0, [0.8], [0.3], [model.mass])
    t = 3.6  # past the first conjugate point
    out = gx.evolve(model, psi, t)
    ref = gx.split_step_evolve(model, psi, t, gx.OracleConfig(dt=4.5e-3))
    assert gx.l2_distance(out, ref) <= 1e-6


# -- the chirp-z kernel application against the dense quadrature ----------

def dense_kernel_apply(ctx, state, axes_out):
    """Trapezoid quadrature with the kernel matrix formed point by point,
    in blocks of output rows."""
    n, rows = state.n, 256
    X = np.stack(np.meshgrid(*(ax.points for ax in axes_out), indexing="ij"),
                 axis=-1).reshape(-1, n)
    Y = np.stack(state.grids(sparse=False), axis=-1).reshape(-1, n)
    out = np.concatenate([
        gx.green_function(ctx, X[i:i + rows, None, :], Y[None, :, :])
        @ state.psi.ravel() for i in range(0, X.shape[0], rows)])
    return state.weight * out.reshape(tuple(ax.num for ax in axes_out))


def relative_l2(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def random_state(axes, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(ax.num for ax in axes)
    return gx.GridState(axes, rng.normal(size=shape)
                        + 1j * rng.normal(size=shape), 0.0)


@st.composite
def kernel_legs(draw, n):
    """A leg of a random stable 1D or 2D model with a drive (2D: a cross
    term m_xy that is not diagonal), forward or backward, with the output
    grid either the input grid or recentered on the moving packet."""
    d = 2 * n
    entries = draw(st.lists(st.floats(-0.7, 0.7), min_size=d * d,
                            max_size=d * d))
    M = np.array(entries).reshape(d, d)
    floor = draw(st.floats(0.5, 2.0))
    drive = draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d))
    model = gx.make_model(n, 1.0, 1.0, 0.0, M @ M.T + floor * np.eye(d),
                          np.array(drive))
    z0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    g0 = gx.MomentPoint(np.array(z0), 0.5 * np.eye(d))
    t = draw(st.floats(0.2, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    traj = gx.integrate_moments(model, 0.0, g0, 0.0, t)
    try:
        ctx = gx.build_kernel_context(traj, 0.0, t)
    except CausticError:
        assume(False)
    assume(np.max(np.abs(ctx.m_xy)) < 20.0)  # away from conjugate points
    if n == 2:
        assume(abs(ctx.m_xy[0, 1]) > 1e-2 and abs(ctx.m_xy[1, 0]) > 1e-2)
    num = draw(st.sampled_from([64, 128, 200] if n == 1 else [12, 16, 20]))
    axes = tuple(gx.Axis(-6.0, 6.0, num) for _ in range(n))
    recenter = draw(st.booleans())
    axes_out = _recentered(axes, traj.position(t)) if recenter else axes
    return ctx, random_state(axes, draw(st.integers(0, 2 ** 16))), axes_out


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernel_application_matches_dense_quadrature(n, data):
    ctx, state, axes_out = data.draw(kernel_legs(n))
    got = _apply_kernel(ctx, state, axes_out)
    assert relative_l2(got, dense_kernel_apply(ctx, state, axes_out)) <= 1e-12


@pytest.mark.parametrize("h_field", [0.4, 0.0], ids=["coupled-plane",
                                                   "uncoupled-axes"])
def test_3d_kernel_application_matches_dense_quadrature(h_field):
    """The magnetic trap couples the (x1, x2) plane through m_xy; without
    the field all three axes are uncoupled."""
    params = gx.Example3DParams(H_field=h_field)
    model = gx.model_3d(params, kappa=0.5)
    g0 = gx.MomentPoint(np.array([0.1, -0.05, 0.2, 0.3, 0.4, -0.1]),
                        np.diag([0.5, 0.6, 0.55, 0.5, 0.45, 0.5]))
    axes = tuple(gx.Axis(-6.0, 6.0, 12) for _ in range(3))
    state = random_state(axes, 3)
    for t, recenter in ((0.8, True), (-0.6, False)):
        traj = gx.integrate_moments(model, 0.5, g0, 0.0, t)
        ctx = gx.build_kernel_context(traj, 0.0, t)
        assert (ctx.m_xy[0, 1] != 0.0) == (h_field != 0.0)
        axes_out = _recentered(axes, traj.position(t)) if recenter else axes
        got = _apply_kernel(ctx, state, axes_out)
        ref = dense_kernel_apply(ctx, state, axes_out)
        assert relative_l2(got, ref) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chirp_factors_match_the_quadratic_form(n):
    """The chirp from its 1D and 2D factors against one exp of the whole
    form (lin.d - d^T Q d / 2) / hbar, for a non-symmetric Q (only its
    symmetric part enters) and an input strided along every axis; in 1D the
    one factor is that expression itself."""
    rng = np.random.default_rng(40 + n)
    hbar = 0.7
    shape = (12, 9, 10)[:n]
    d = np.meshgrid(*(np.sort(rng.uniform(-3.0, 3.0, m)) for m in shape),
                    indexing="ij", sparse=True)
    lin = rng.uniform(-2.0, 2.0, n)
    Q = rng.uniform(-1.5, 1.5, (n, n))
    scalar = 0.8 * np.exp(0.3j)
    size = tuple(2 * m for m in shape)
    big = rng.normal(size=size) + 1j * rng.normal(size=size)
    f = big[(slice(None, None, 2),) * n]
    assert not f.flags.c_contiguous
    phase = sum((lin[a] - 0.5 * sum(Q[a, b] * d[b] for b in range(n)))
                * d[a] for a in range(n))
    want = f * (scalar * np.exp(1j * phase / hbar))
    got = _chirp(f, tuple(d), lin, Q, hbar, scalar)
    assert got.flags.c_contiguous
    if n == 1:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("c, n", [(0.003, 2048), (-0.7, 9), (2.5, 64),
                                  (1e-5, 1)])
def test_bluestein_weights_match_the_full_length_formula(c, n):
    """The n weights w[0..n-1], and the lag chirp filled from them, are
    bitwise those of exp(i c m^2 / 2) over every lag m in -(n-1)..n-1."""
    size = sp_fft.next_fast_len(2 * n - 1)
    m = np.arange(-(n - 1), n)
    full = np.exp(0.5j * c * m.astype(float) ** 2)
    full_lags = np.zeros(size, dtype=complex)
    full_lags[m % size] = full.conj()
    w, k, lags = _bluestein(c, n)
    assert w.tobytes() == full[n - 1:].tobytes()
    assert lags.tobytes() == full_lags.tobytes()
    assert np.array_equal(k[m % size], m)


def test_evolve_refuses_a_state_of_another_hbar(axis_1024):
    """A state's hbar must be the model's: the kernel, the moments and the
    output label would otherwise each take one of the two."""
    psi = gx.gaussian_packet((axis_1024,), 2.0, [1.0], [0.2], [1.0])
    with pytest.raises(ModelError, match="hbar = 2.0 .* hbar = 1.0"):
        gx.evolve(gx.harmonic_model(), psi, 0.5)


def test_evolve_composed_checks_its_times(model_1d, displaced_gaussian):
    """The state must carry the start time, and the intermediate time must
    lie between start and end, in either direction of time."""
    psi = displaced_gaussian
    with pytest.raises(ValueError, match="carry time label s"):
        gx.evolve_composed(model_1d, psi, 0.1, 0.2, 0.4)
    for r in (-0.1, 0.5):
        with pytest.raises(ValueError, match="must lie between s and t"):
            gx.evolve_composed(model_1d, psi, 0.0, r, 0.4)
    with pytest.raises(ValueError, match="must lie between s and t"):
        gx.evolve_composed(model_1d, psi, 0.0, 0.1, -0.4)


def test_superpose_checks_its_solutions(model_1d, displaced_gaussian,
                                        axis_1024):
    """Both solutions must be given at one time on one grid."""
    psi = displaced_gaussian
    with pytest.raises(ValueError, match="at a common time"):
        gx.superpose(model_1d, psi, psi.at_time(0.1), 0.6, 0.8)
    other = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.2], [1.0])
    with pytest.raises(ValueError, match="share a grid"):
        gx.superpose(model_1d, psi, other, 0.6, 0.8)


READERS = {
    "evolve": lambda model, psi: gx.evolve(model, psi, 0.5),
    "evolve_inverse": lambda model, psi: gx.evolve_inverse(model, psi, -0.5),
    "split_step_evolve": lambda model, psi: gx.split_step_evolve(model, psi,
                                                                 0.5),
    "constants_of_motion": gx.constants_of_motion,
    "apply_effective_hamiltonian": gx.apply_effective_hamiltonian,
    "gpe_residual": lambda model, psi: gx.gpe_residual(
        model, [psi.at_time(k * 1e-2) for k in range(3)], 1e-2),
}


@pytest.mark.parametrize("on_face", [False, True], ids=["inside", "on-face"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_refuses_a_state_of_another_hbar(reader, on_face,
                                                      axis_1024):
    """Every reader that takes a model reads the state through one entry,
    whose hbar check comes first: a state at hbar = 2 under a model at
    hbar = 1 is refused with both values named, also where the state sits
    on a face of the box and the resolution gate would refuse it too."""
    psi = gx.gaussian_packet((axis_1024,), 2.0, [11.9 if on_face else 1.0],
                             [0.2], [1.0])
    if on_face:
        with pytest.raises(ResolutionError):
            gx.check_resolved(psi)
    with pytest.raises(ModelError, match="hbar = 2.0 .* hbar = 1.0"):
        READERS[reader](gx.harmonic_model(), psi)


def brute_force_pair(f, C, a, b):
    """The coupled-pair sum with its full exp{i (C_aa i_a j_a + C_ab i_a j_b
    + C_ba i_b j_a + C_bb i_b j_b)} tensor formed."""
    i_a, i_b, j_a, j_b = np.ix_(np.arange(f.shape[a]), np.arange(f.shape[b]),
                                np.arange(f.shape[a]), np.arange(f.shape[b]))
    phase = (C[a, a] * i_a * j_a + C[a, b] * i_a * j_b
             + C[b, a] * i_b * j_a + C[b, b] * i_b * j_b)
    g = np.moveaxis(f, (a, b), (-2, -1))
    out = np.einsum("ABab,...ab->...AB", np.exp(1j * phase), g)
    return np.moveaxis(out, (-2, -1), (a, b))


# the ids of the unnamed cases are test names that reports track: keep them
@pytest.mark.parametrize("shape, pair", [
    pytest.param((11, 9), (0, 1), id="shape0-n_out0-pair0"),
    pytest.param((11, 9), (0, 1), id="shape1-n_out1-pair1"),
    pytest.param((9, 7, 10), (0, 1), id="shape2-n_out2-pair2"),
    pytest.param((9, 7, 10), (0, 1), id="shape3-n_out3-pair3"),
    pytest.param((9, 7, 10), (0, 2), id="shape4-n_out4-pair4"),
    pytest.param((9, 7, 10), (0, 2), id="shape5-n_out5-pair5"),
    pytest.param((9, 7, 10), (1, 2), id="shape6-n_out6-pair6"),
    pytest.param((9, 7, 10), (1, 2), id="shape7-n_out7-pair7"),
    pytest.param((9, 7, 10), (0, 1), id="C_ab=0"),
    pytest.param((9, 7, 10), (1, 2), id="C_ba=0"),
    pytest.param((11, 9), (0, 1), id="large-C"),
    pytest.param((9, 7, 10), (0, 2), id="large-C-3d"),
    pytest.param((6, 5, 23), (0, 1), id="slices>n_b"),
    pytest.param((21, 7, 6), (1, 2), id="slices>n_b-first"),
])
def test_chirp_z_pair_matches_brute_force_sum(shape, pair, request):
    """Uneven grids and a cross term with all four entries nonzero, each
    case drawn from a seed of its own id; the named cases zero one cross
    entry (only one of the two cross terms of the lag kernel), draw |C| up
    to 3 (lag phases that wrap many times), or hold more slices than the
    pair's second axis has points."""
    case = request.node.callspec.id
    rng = np.random.default_rng(list(case.encode()))
    n = len(shape)
    scale = 3.0 if case.startswith("large-C") else 0.7
    C = rng.uniform(0.1, scale, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    a, b = pair
    if case == "C_ab=0":
        C[a, b] = 0.0
    elif case == "C_ba=0":
        C[b, a] = 0.0
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = _chirp_z_pair(f, C, *pair)
    assert got.shape == shape
    assert relative_l2(got, brute_force_pair(f, C, *pair)) <= 1e-12


def _fully_coupled_3d():
    """A 3D trap whose position block couples every axis pair, and a packet
    at rest on a grid that carries it."""
    coupling = np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3))
    hzz = np.block([[np.eye(3), np.zeros((3, 3))],
                    [np.zeros((3, 3)), coupling]])
    model = gx.make_model(3, 1.0, 1.0, 0.0, hzz, np.zeros(6))
    axes = tuple(gx.Axis(-8.0, 8.0, 48) for _ in range(3))
    psi = gx.gaussian_packet(axes, 1.0, [0.0] * 3, [0.0] * 3, [1.0] * 3)
    return model, psi


def test_fully_coupled_3d_cross_term_rejected():
    rng = np.random.default_rng(4)
    M = rng.normal(scale=0.4, size=(6, 6))
    model = gx.make_model(3, 1.0, 1.0, 0.0, M @ M.T + np.eye(6), np.zeros(6))
    traj = gx.integrate_variations(model, 0.0, 0.0, 0.5)
    ctx = gx.build_kernel_context(traj, 0.0, 0.5)
    axes = tuple(gx.Axis(-4.0, 4.0, 8) for _ in range(3))
    with pytest.raises(PlanError, match=r"couples the axis pairs \(0, 1\), "
                                        r"\(0, 2\), \(1, 2\)"):
        _apply_kernel(ctx, random_state(axes, 0), axes)
    # inside evolve the error names the leg it stopped on
    model, psi = _fully_coupled_3d()
    with pytest.raises(PlanError, match=r"^leg \[0, 1\.2\]: .* couples the "
                                        r"axis pairs \(0, 1\), \(0, 2\), "
                                        r"\(1, 2\)"):
        gx.evolve(model, psi, 1.2)


def test_coupled_pairs_refused_before_any_transform(monkeypatch):
    """The planner refuses a leg that couples more than one axis pair, so
    evolve raises before it applies any kernel."""
    calls = []
    apply = evolution._apply_kernel
    monkeypatch.setattr(evolution, "_apply_kernel",
                        lambda *args: calls.append(args) or apply(*args))
    model, psi = _fully_coupled_3d()
    with pytest.raises(PlanError, match=r"^leg \[0, 1\.2\]: .* couples the "
                                        r"axis pairs \(0, 1\), \(0, 2\), "
                                        r"\(1, 2\)"):
        gx.evolve(model, psi, 1.2)
    assert calls == []


def _packet(n, x0=0.3, p0=0.1, alpha=1.0):
    axes = tuple(gx.Axis(-8.0, 8.0, 256 if n == 1 else 64) for _ in range(n))
    return gx.gaussian_packet(axes, 1.0, [x0] * n, [p0] * n, [alpha] * n)


def _carried(fn, *args):
    """fn(*args), discarding the example when the grid cannot carry a leg."""
    try:
        return fn(*args)
    except (PlanError, ResolutionError):
        assume(False)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(signed_models())
def test_random_model_conserves_norm(case):
    model, T = case
    psi = _packet(model.n)
    out = _carried(gx.evolve, model, psi, T)
    assert abs(gx.norm_squared(out) - gx.norm_squared(psi)) <= 1e-9


@settings(max_examples=12, deadline=None, derandomize=True)
@given(signed_models(), st.floats(0.2, 0.8))
def test_random_model_group_law_across_conjugate_points(case, frac):
    model, T = case
    psi = _packet(model.n)
    cons = gx.constants_of_motion(model, psi)
    traj = gx.integrate_moments(model, cons.kappa_tilde, cons.point, 0.0, T)
    assume(conjugate_point_units(traj, 0.0, T) != 0)
    direct = _carried(gx.evolve, model, psi, T)
    composed = _carried(gx.evolve_composed, model, psi, 0.0, frac * T, T)
    assert gx.l2_distance(composed, direct) <= 1e-7


@settings(max_examples=12, deadline=None, derandomize=True)
@given(signed_models())
def test_random_model_superposition_with_zero_weight(case):
    model, T = case
    n = model.n
    P1 = _carried(gx.evolve, model, _packet(n), T)
    P2 = _carried(gx.evolve, model, _packet(n, -0.4, 0.0, 1.2), T)
    only1 = _carried(gx.superpose, model, P1, P2, 1.0, 0.0)
    assert gx.l2_distance(only1, P1) <= 1e-8


@settings(max_examples=8, deadline=None, derandomize=True)
@given(oracle_models())
def test_random_model_agrees_with_oracle(case):
    model, T = case
    psi = _packet(1)
    out = _carried(gx.evolve, model, psi, T)
    ref = gx.split_step_evolve(model, psi, T, gx.OracleConfig(dt=4.5e-3))
    assert gx.l2_distance(out, ref) <= 1e-6
