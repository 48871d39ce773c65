import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

import gpexact as gx
from gpexact.errors import (IntegrationError, ModelError, PlanError,
                            ResolutionError)
from gpexact.ehrenfest import symplectic_defect

from conftest import KAPPA, driven_models, forced_oscillator_mean

TOL = 1e-10  # the Magnus rtol, fixed in ehrenfest


def stationary_width_point(params, kappa_tilde, n=0, hbar=1.0):
    om = params.Omega(kappa_tilde)
    sxx = hbar * (2 * n + 1) / (2.0 * params.m * om)
    delta = np.array([[(params.m * om) ** 2 * sxx, 0.0], [0.0, sxx]])
    z = np.array([0.0, params.steady_center(kappa_tilde)])
    return gx.MomentPoint(z, delta)


def test_harmonic_classical_oscillator():
    model = gx.harmonic_model(omega=1.0)
    g0 = gx.MomentPoint(np.array([0.0, 1.0]),
                        np.array([[0.5, 0.0], [0.0, 0.5]]))
    traj = gx.integrate_moments(model, 0.0, g0, 0.0, 5.0)
    for t in np.linspace(0.0, 5.0, 23):
        assert np.allclose(traj.z(t), [-np.sin(t), np.cos(t)], atol=1e-9)
        assert np.allclose(traj.Delta(t), g0.Delta, atol=1e-9)


def test_example_steady_orbit(model_1d, params_1d):
    g0 = stationary_width_point(params_1d, KAPPA)
    traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, 4.0)
    for t in np.linspace(0.0, 4.0, 17):
        p_ref, x_ref = forced_oscillator_mean(params_1d, KAPPA, 0.0,
                                              g0.z[1], t)
        assert traj.z(t)[0] == pytest.approx(p_ref, abs=1e-9)
        assert traj.z(t)[1] == pytest.approx(x_ref, abs=1e-9)
        assert np.allclose(traj.Delta(t), g0.Delta, atol=1e-9)


def test_example_displaced_mean_closed_form(model_1d, params_1d):
    g0 = gx.MomentPoint(np.array([0.3, 1.2]),
                        np.diag([0.6, 0.4]))
    traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, 3.0)
    for t in (0.5, 1.7, 3.0):
        p_ref, x_ref = forced_oscillator_mean(params_1d, KAPPA, 0.3, 1.2, t)
        assert traj.z(t)[0] == pytest.approx(p_ref, abs=1e-9)
        assert traj.z(t)[1] == pytest.approx(x_ref, abs=1e-9)


def test_stationarity_condition_is_tight(model_1d, params_1d):
    """Only sigma_pp = (m Omega)^2 sigma_xx with zero correlation is steady."""
    g0 = stationary_width_point(params_1d, KAPPA)
    skew = gx.MomentPoint(g0.z, np.array([[0.5, 0.1], [0.1, 0.5]]))
    traj = gx.integrate_moments(model_1d, KAPPA, skew, 0.0, 1.0)
    assert not np.allclose(traj.Delta(1.0), skew.Delta, atol=1e-4)


def test_free_particle_spreading():
    model = gx.free_model(mass=1.5)
    spp, sxx = 0.7, 0.4
    g0 = gx.MomentPoint(np.array([1.0, 0.0]), np.diag([spp, sxx]))
    traj = gx.integrate_moments(model, 0.0, g0, 0.0, 2.5)
    for t in (0.8, 2.5):
        assert traj.z(t)[1] == pytest.approx(t / 1.5, rel=1e-10)
        d = traj.Delta(t)
        assert d[1, 1] == pytest.approx(sxx + spp * t ** 2 / 1.5 ** 2,
                                        rel=1e-10)
        assert d[0, 1] == pytest.approx(spp * t / 1.5, rel=1e-10)
        assert d[0, 0] == pytest.approx(spp, rel=1e-12)


def test_variations_harmonic_closed_form():
    m, om = 1.3, 0.9
    model = gx.harmonic_model(omega=om, mass=m)
    var = gx.integrate_variations(model, 0.0, 0.5, 2.9)
    for t in (0.5, 1.1, 2.9):
        l1, l2, l3, l4 = gx.matriciant_blocks(var.between(0.5, t))
        tau = t - 0.5
        assert l1[0, 0] == pytest.approx(np.cos(om * tau), abs=1e-9)
        assert l4[0, 0] == pytest.approx(np.cos(om * tau), abs=1e-9)
        assert l2[0, 0] == pytest.approx(m * om * np.sin(om * tau), abs=1e-9)
        assert l3[0, 0] == pytest.approx(-np.sin(om * tau) / (m * om),
                                         abs=1e-9)


def test_variations_free_blocks():
    model = gx.free_model(mass=2.0)
    var = gx.integrate_variations(model, 0.0, 0.0, 1.7)
    l1, l2, l3, l4 = gx.matriciant_blocks(var.at_end)
    assert l1[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert l4[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert l2[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert l3[0, 0] == pytest.approx(-1.7 / 2.0, rel=1e-12)


def test_matriciant_invariants(model_1d):
    var = gx.integrate_variations(model_1d, KAPPA, 0.0, 3.0)
    assert np.array_equal(var(0.0), np.eye(2))
    for t in np.linspace(0.2, 3.0, 9):
        A = var(t)
        assert symplectic_defect(A) <= 10 * TOL
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("s, t", [(0.5, 2.5), (2.5, 0.5)])
def test_magnus_matriciant_is_identity_at_start(parametric_model, s, t):
    """On the Magnus path A(s, s) is the stored node flow at s, exactly I
    whichever way the trajectory runs."""
    traj = gx.integrate_variations(parametric_model, KAPPA, s, t)
    assert np.array_equal(traj(traj.s), np.eye(2))
    assert np.array_equal(traj.matriciants([s]), np.eye(2)[None])


@pytest.mark.parametrize("s, t", [(math.nan, 1.0), (0.0, math.nan),
                                  (-math.inf, 1.0), (0.0, math.inf)])
def test_trajectory_rejects_non_finite_times(model_1d, s, t):
    g0 = gx.MomentPoint(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="s = .*, t = .* must be finite"):
        gx.integrate_moments(model_1d, KAPPA, g0, s, t)


def test_matriciant_composition(model_1d):
    var = gx.integrate_variations(model_1d, KAPPA, 0.0, 2.0)
    A_direct = var.between(0.0, 2.0)
    A_comp = var.between(1.3, 2.0) @ var.between(0.0, 1.3)
    assert np.max(np.abs(A_direct - A_comp)) <= 10 * TOL


def test_second_moment_transport(model_1d):
    g0 = gx.MomentPoint(np.array([0.1, 0.8]),
                        np.array([[0.9, 0.2], [0.2, 0.6]]))
    traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, 2.0)
    var = gx.integrate_variations(model_1d, KAPPA, 0.0, 2.0)
    for t in (0.7, 2.0):
        A = var(t)
        assert np.max(np.abs(traj.Delta(t) - A @ g0.Delta @ A.T)) <= 10 * TOL


def test_delta_stays_symmetric(model_1d):
    g0 = gx.MomentPoint(np.array([0.0, 1.0]),
                        np.array([[0.9, 0.2], [0.2, 0.6]]))
    traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, 2.0)
    for t in np.linspace(0.0, 2.0, 7):
        D = traj.Delta(t)
        assert np.array_equal(D, D.T)


def test_blocks_roundtrip():
    i1, i2, i3, i4 = gx.matriciant_blocks(np.eye(4))
    assert np.array_equal(i1, np.eye(2)) and np.array_equal(i4, np.eye(2))
    assert not i2.any() and not i3.any()


def test_3d_blocks_match_rotating_closed_form():
    p = gx.Example3DParams(H_field=0.4, V0=0.3, gamma=1.5)
    kt = 0.5
    model = gx.model_3d(p, kappa=1.0)
    w1, w2 = p.frequencies(kt)
    var = gx.integrate_variations(model, kt, 0.0, 2.2)
    for t in (0.9, 2.2):
        l1, l2, l3, l4 = gx.matriciant_blocks(var(t))
        th = p.omega_H * t / 2.0
        u = np.array([[np.cos(th), -np.sin(th), 0.0],
                      [np.sin(th), np.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        r = np.diag([np.sin(w1 * t) / w1, np.sin(w1 * t) / w1,
                     np.sin(w2 * t) / w2])
        rdot = np.diag([np.cos(w1 * t), np.cos(w1 * t), np.cos(w2 * t)])
        assert np.max(np.abs(l3 + r @ u / p.m)) < 1e-9
        assert np.max(np.abs(l1 - rdot @ u)) < 1e-9
        assert np.max(np.abs(l4 - rdot @ u)) < 1e-9


def test_backward_integration(model_1d):
    g0 = gx.MomentPoint(np.array([0.2, 0.5]), np.diag([0.7, 0.5]))
    fwd = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, 1.5)
    back = gx.integrate_moments(model_1d, KAPPA, fwd.point(1.5), 1.5, 0.0)
    assert np.allclose(back.z(0.0), g0.z, atol=1e-9)
    assert np.allclose(back.Delta(0.0), g0.Delta, atol=1e-9)
    var_b = gx.integrate_variations(model_1d, KAPPA, 1.5, 0.0)
    var_f = gx.integrate_variations(model_1d, KAPPA, 0.0, 1.5)
    assert np.max(np.abs(var_b(0.0) @ var_f(1.5) - np.eye(2))) < 1e-9


def test_trajectory_csv_export(tmp_path, model_1d):
    g0 = gx.MomentPoint(np.array([0.0, 1.0]), np.diag([0.5, 0.5]))
    traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, 1.0)
    times = np.linspace(0.0, 1.0, 5)
    path1 = tmp_path / "traj1.csv"
    path2 = tmp_path / "traj2.csv"
    from gpexact.ehrenfest import trajectory_to_csv
    trajectory_to_csv(traj, times, path1)
    trajectory_to_csv(traj, times, path2)
    b1, b2 = path1.read_bytes(), path2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header.split(",")[:3] == ["t", "z0", "z1"]
    assert "Delta01" in header and "Delta11" in header


def test_moment_point_validation(model_1d):
    with pytest.raises(ValueError):
        gx.MomentPoint(np.zeros(2), np.array([[0.0, 0.5], [-0.5, 0.0]]))
    with pytest.raises(ValueError):
        gx.MomentPoint(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    for z in (np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="even length"):
            gx.MomentPoint(z, np.eye(2))
    g0 = gx.MomentPoint(np.zeros(6), np.eye(6))
    with pytest.raises(ModelError, match="3-D .* model is 1-D"):
        gx.integrate_moments(model_1d, KAPPA, g0, 0.0, 1.0)


@pytest.mark.parametrize("name", ["model_1d", "parametric_model"])
def test_dense_output_satisfies_the_equations(request, name):
    """Finite-difference the dense output and compare with the stated
    right-hand side, at a scale set by the integration tolerance: the one
    exponential of a constant generator, and Magnus sub-steps between the
    nodes of a callable Hzz."""
    from gpexact.model import mean_drift_hessian, effective_hessian, \
        symplectic_unit
    model = request.getfixturevalue(name)
    g0 = gx.MomentPoint(np.array([0.3, 1.0]),
                        np.array([[0.8, 0.1], [0.1, 0.6]]))
    traj = gx.integrate_moments(model, KAPPA, g0, 0.0, 2.0)
    J = symplectic_unit(1)
    h = 1e-5
    for t in (0.4, 1.2, 1.9):
        zdot_fd = (traj.z(t + h) - traj.z(t - h)) / (2 * h)
        zdot = J @ (model.Hz(t)
                    + mean_drift_hessian(model, KAPPA, t) @ traj.z(t))
        assert np.max(np.abs(zdot_fd - zdot)) < 1e-8
        Ddot_fd = (traj.Delta(t + h) - traj.Delta(t - h)) / (2 * h)
        B = J @ effective_hessian(model, KAPPA, t)
        D = traj.Delta(t)
        assert np.max(np.abs(Ddot_fd - (B @ D + D @ B.T))) < 1e-8


def test_exponential_matches_closed_forms():
    """exp(J h t) of an oscillator over many periods, both directions, and
    of the nilpotent free-particle generator."""
    from gpexact.ehrenfest import Exponential
    m, om = 1.3, 0.9
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    exp = Exponential(J @ np.diag([1.0 / m, m * om ** 2]))
    for t in (1e-3, 0.7, 8.0, -30.0):
        c, s = np.cos(om * t), np.sin(om * t)
        ref = np.array([[c, -m * om * s], [s / (m * om), c]])
        assert np.max(np.abs(exp(t) - ref)) <= 1e-14
    assert np.array_equal(exp(0.0), np.eye(2))
    free = Exponential(J @ np.diag([1.0 / m, 0.0]))
    assert np.max(np.abs(free(2.5) - [[1.0, 0.0], [2.5 / m, 1.0]])) <= 1e-15


def test_stacked_exponential_is_each_call():
    """Unsorted times with scaling exponents 0 to 4 in one stack: each
    member is the one-time call and scipy's expm to roundoff."""
    from scipy.linalg import expm
    from gpexact.ehrenfest import Exponential
    G = np.random.default_rng(3).normal(size=(6, 6))
    exp = Exponential(G)
    hs = [2.5, -0.01, 7.0, 0.3, -4.0, 0.3, 1e-3]
    for h, E in zip(hs, exp.stacked(hs)):
        ref = expm(G * h)
        assert np.max(np.abs(E - exp(h))) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(E - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(driven_models())
def test_closed_form_matches_integrated_trajectory(case):
    data, closure, g0, T = case
    kt = 0.7 * data.kappa
    exact = gx.integrate_moments(data, kt, g0, 0.0, T)
    ode = gx.integrate_moments(closure, kt, g0, 0.0, T)
    for tau in T * np.array([0.0, 0.13, 0.5, 0.77, 1.0]):
        assert np.max(np.abs(exact.z(tau) - ode.z(tau))) <= 1e-9
        assert np.max(np.abs(exact(tau) - ode(tau))) <= 1e-9
        assert np.max(np.abs(exact.Delta(tau) - ode.Delta(tau))) <= 1e-9
        assert abs(exact.action(tau) - ode.action(tau)) <= 1e-9
        assert symplectic_defect(exact(tau)) <= 1e-12
        assert symplectic_defect(ode(tau)) <= 1e-13


@settings(max_examples=12, deadline=None, derandomize=True)
@given(driven_models())
def test_round_trip_on_both_paths(case):
    """evolve -> evolve_inverse on a random driven model, with its drive as
    data and as a closure."""
    data, closure, _, T = case
    n = data.n
    axes = tuple(gx.Axis(-8.0, 8.0, 256 if n == 1 else 64) for _ in range(n))
    psi = gx.gaussian_packet(axes, 1.0, [0.3] * n, [0.1] * n, [1.0] * n)
    for model in (data, closure):
        try:
            out = gx.evolve(model, psi, T)
        except (PlanError, ResolutionError):
            assume(False)  # the grid cannot carry this leg
        back = gx.evolve_inverse(model, out, 0.0)
        assert gx.l2_distance(back, psi) <= 1e-8


def test_output_cut_by_the_box_is_refused():
    """A draw of the round trip above whose exact output holds 8.6e-17 of
    its mass beyond x2 = 8, 9.3e-9 in L2: its outermost plane holds 1.7e-15,
    so the leg-output gate refuses it instead of returning it cut off (the
    round trip would then miss by 1.3e-8)."""
    hzz = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.06640625, 0.0, 0.28125],
                    [0.0, 0.0, 0.75, 0.0], [0.0, 0.28125, 0.0, 1.0]])
    Wzz = np.zeros((4, 4))
    Wzz[3, 3] = 0.25
    model = gx.make_model(2, 1.0, 1.0, -1.0, hzz, np.zeros(4), Wzz)
    axes = tuple(gx.Axis(-8.0, 8.0, 64) for _ in range(2))
    psi = gx.gaussian_packet(axes, 1.0, [0.3] * 2, [0.1] * 2, [1.0] * 2)
    with pytest.raises(ResolutionError, match="boundary tail"):
        gx.evolve(model, psi, 1.0)


def test_closed_form_path_skips_the_integrator(monkeypatch, params_1d):
    """Models with constant Hzz and a drive given as data build their
    generator once per trajectory, with nodes 0.5 / rho(J h_eff) apart; a
    callable Hzz samples it at every Magnus node."""
    calls = []
    hessian = gx.ehrenfest.effective_hessian

    def counted(*args, **kwargs):
        calls.append(1)
        return hessian(*args, **kwargs)

    monkeypatch.setattr(gx.ehrenfest, "effective_hessian", counted)
    g0 = gx.MomentPoint(np.array([0.1, 0.4]), np.diag([0.6, 0.5]))
    g3 = gx.MomentPoint(np.zeros(6), 0.5 * np.eye(6))
    for model, point in ((gx.model_1d(params_1d, kappa=KAPPA), g0),
                         (gx.model_3d(gx.Example3DParams(), kappa=KAPPA), g3),
                         (gx.harmonic_model(omega=1.2), g0),
                         (gx.free_model(), g0)):
        calls.clear()
        traj = gx.integrate_moments(model, KAPPA, point, 0.0, 2.0)
        gx.build_kernel_context(traj, 0.0, 2.0)
        assert calls == [1]
        rho = np.max(np.abs(np.linalg.eigvals(
            gx.model.symplectic_unit(model.n)
            @ gx.effective_hessian(model, KAPPA, 0.0))))
        steps = max(1, int(np.ceil(2.0 * rho / 0.5)))
        assert np.array_equal(traj.step_times, np.linspace(0.0, 2.0,
                                                           steps + 1))
    hzz = gx.harmonic_model(omega=1.2).Hzz(0.0)
    callable_model = gx.make_model(1, 1.0, 1.0, 0.0, lambda t: hzz,
                                   np.zeros(2))
    calls.clear()
    gx.integrate_moments(callable_model, 0.0, g0, 0.0, 2.0)
    assert len(calls) > 1


def test_magnus_path_is_symplectic_and_accurate(parametric_model):
    """The callable-Hzz oscillator to t = 8 at the fixed tolerances: A is
    symplectic to roundoff at every node, and (z, A, S) agree with a DOP853
    run of the same equations at rtol 1e-13."""
    from scipy.integrate import solve_ivp
    model, kt, T = parametric_model, KAPPA, 8.0
    g0 = gx.MomentPoint(np.array([0.3, 0.8]),
                        np.array([[0.7, 0.1], [0.1, 0.5]]))
    traj = gx.integrate_moments(model, kt, g0, 0.0, T)
    J = gx.model.symplectic_unit(1)

    def rhs(tau, y):
        z, A = y[:2], y[2:6].reshape(2, 2)
        zdot = J @ (model.Hz(tau)
                    + gx.mean_drift_hessian(model, kt, tau) @ z)
        M = model.Hzz(tau) + kt * (model.Wzz + 2 * model.Wzw + model.Www)
        energy = 0.5 * z @ M @ z + model.Hz(tau) @ z + 0.5 * kt * np.trace(
            model.Www @ A @ g0.Delta @ A.T)
        return np.concatenate([zdot, (J @ gx.effective_hessian(
            model, kt, tau) @ A).ravel(), [z[0] * zdot[1] - energy]])

    ref = solve_ivp(rhs, (0.0, T), np.concatenate([g0.z, np.eye(2).ravel(),
                                                    [0.0]]),
                    method="DOP853", dense_output=True, rtol=1e-13,
                    atol=1e-15)
    assert max(symplectic_defect(traj(tau))
               for tau in traj.step_times) <= 1e-14
    for tau in np.concatenate([traj.step_times, np.linspace(0.1, T, 17)]):
        y = ref.sol(tau)
        assert np.max(np.abs(traj.z(tau) - y[:2])) <= 1e-9
        assert np.max(np.abs(traj(tau) - y[2:6].reshape(2, 2))) <= 1e-9
        assert abs(traj.action(tau) - y[6]) <= 1e-9


def test_magnus_interval_past_convergence_fails_fast(parametric_model):
    """An interval on which even the largest step count leaves rho h > pi
    raises before any Magnus step is taken: no overflow, no pilot run."""
    g0 = gx.MomentPoint(np.array([0.3, 0.8]),
                        np.array([[0.7, 0.1], [0.1, 0.5]]))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError):
            gx.integrate_moments(parametric_model, KAPPA, g0, 0.0, 1e5)
    assert time.perf_counter() - start < 0.5


def test_import_leaves_the_ode_solvers_out():
    """The trajectory needs no scipy.integrate; importing the package does
    not load it."""
    src = str(Path(gx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gpexact; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
