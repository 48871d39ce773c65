"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each (visible with -s or in the captured output)."""

import math
import time

import numpy as np
import pytest

import gpexact as gx

KAPPA = 0.5
HBAR = 1.0


def report(num, name, value, tol, ok=None):
    ok = (value <= tol) if ok is None else ok
    print(f"ACCEPTANCE {num} [{name}]: value={value:.3e} tol={tol:.1e} "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def setup():
    params = gx.Example1DParams(m=1.0, k=1.0, e=1.0, E=0.1, omega=0.5,
                                a=0.2, b=0.1, c=0.3)
    model = gx.model_1d(params, hbar=HBAR, kappa=KAPPA)
    axis = gx.Axis(-12.0, 12.0, 2048)
    om = params.Omega(KAPPA)
    psi = gx.gaussian_packet((axis,), HBAR, [1.0], [0.2], [params.m * om])
    return params, model, axis, psi


def test_criterion_1_exactness_vs_oracle(setup):
    params, model, axis, psi = setup
    start = time.time()
    exact = gx.evolve(model, psi, 2.0)
    errs = []
    dts = [9e-3, 6.4e-3, 4.5e-3]
    for dt in dts:
        ref = gx.split_step_evolve(model, psi, 2.0, gx.OracleConfig(dt=dt))
        errs.append(gx.l2_distance(exact, ref))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    elapsed = time.time() - start
    ok = report(1, "exactness_vs_oracle_L2", errs[-1], 1e-6)
    ok &= report(1, "oracle_convergence_slope", 1.9 - slope, 0.0,
                 ok=slope >= 1.9)
    ok &= report(1, "runtime_seconds", elapsed, 120.0)
    assert ok


def test_criterion_2_moments_track_trajectory(setup):
    params, model, axis, psi = setup
    cons = gx.constants_of_motion(model, psi)
    traj = gx.integrate_moments(model, cons.kappa_tilde, cons.point, 0.0, 2.0)
    worst = 0.0
    for t in np.linspace(0.05, 2.0, 200):
        out = gx.evolve(model, psi, float(t))
        z = gx.first_moments(out)
        d = gx.second_moments(out, z)
        worst = max(worst, float(np.max(np.abs(z - traj.z(t)))),
                    float(np.max(np.abs(d - traj.Delta(t)))))
    assert report(2, "moment_transport_max_err", worst, 1e-6)


def test_criterion_3_inverse(setup):
    params, model, axis, _ = setup
    rng = np.random.default_rng(2024)
    om = params.Omega(KAPPA)
    worst = 0.0
    for _ in range(5):
        x0 = rng.uniform(-1.5, 1.5)
        p0 = rng.uniform(-0.5, 0.5)
        alpha = params.m * om * rng.uniform(0.7, 1.4)
        base = gx.gaussian_packet((axis,), HBAR, [x0], [p0], [alpha])
        xi = np.sqrt(alpha / HBAR) * (axis.points - x0)
        poly = 1.0 + rng.uniform(-0.3, 0.3) * xi \
            + rng.uniform(-0.2, 0.2) * xi ** 2
        psi = base.with_psi(base.psi * poly)
        psi = psi.with_psi(psi.psi / math.sqrt(gx.norm_squared(psi)))
        t = rng.uniform(0.8, 2.0)
        back = gx.evolve_inverse(model, gx.evolve(model, psi, t), 0.0)
        worst = max(worst, gx.l2_distance(back, psi))
    assert report(3, "inverse_roundtrip_L2", worst, 1e-8)


def test_criterion_4_group_law(setup):
    params, model, axis, psi = setup
    direct = gx.evolve(model, psi, 1.6)
    mid = gx.evolve_composed(model, psi, 0.0, 0.8, 1.6)
    err_mid = gx.l2_distance(mid, direct)
    ok = report(4, "midpoint_composition_L2", err_mid, 1e-7)

    om = params.Omega(KAPPA)
    t_caustic = math.pi / om  # direct kernel is singular here
    out = gx.evolve(model, psi, t_caustic)
    ref = gx.split_step_evolve(model, psi, t_caustic,
                               gx.OracleConfig(dt=4.5e-3))
    err_c = gx.l2_distance(out, ref)
    ok &= report(4, "conjugate_point_vs_oracle_L2", err_c, 1e-5)
    assert ok


def test_criterion_5_superposition(setup):
    params, model, axis, psi1 = setup
    om = params.Omega(KAPPA)
    psi2 = gx.gaussian_packet((axis,), HBAR, [-0.7], [0.0], [params.m * om])
    t = 1.1
    P1 = gx.evolve(model, psi1, t)
    P2 = gx.evolve(model, psi2, t)
    sup = gx.superpose(model, P1, P2, 0.6, 0.8)
    direct = gx.evolve(model,
                       psi1.with_psi(0.6 * psi1.psi + 0.8 * psi2.psi), t)
    assert report(5, "superposition_L2", gx.l2_distance(sup, direct), 1e-7)


def test_criterion_6_fock_hierarchy(setup):
    params, model, _, _ = setup
    x0 = params.steady_center(KAPPA)
    axis = gx.Axis(x0 - 12.0, x0 + 12.0, 2048)
    t = 0.6
    ok = True
    state = gx.fock_state(model, 0, t, axis=axis)
    worst_state, worst_coeff = 0.0, 0.0
    for n in range(5):
        up = gx.ladder_apply(model, +1, state)
        coeff = gx.l2_norm(up)
        worst_coeff = max(worst_coeff, abs(coeff / math.sqrt(n + 1) - 1.0))
        state = up.with_psi(up.psi / coeff)
        ref = gx.fock_state(model, n + 1, t, axis=axis)
        worst_state = max(worst_state, gx.l2_distance(state, ref))
        down = gx.ladder_apply(model, -1, ref)
        worst_coeff = max(worst_coeff,
                          abs(gx.l2_norm(down) / math.sqrt(n + 1) - 1.0))
    ok &= report(6, "ladder_state_L2", worst_state, 1e-7)
    ok &= report(6, "ladder_coefficient_rel_err", worst_coeff, 1e-6)

    states = [gx.fock_state(model, n, t, axis=axis) for n in range(6)]
    worst_orth = max(abs(gx.inner(si, sj) - (1.0 if i == j else 0.0))
                     for i, si in enumerate(states)
                     for j, sj in enumerate(states))
    ok &= report(6, "fock_orthonormality", worst_orth, 1e-8)
    assert ok


def test_criterion_7_quasi_energy(setup):
    params, model, _, _ = setup
    x0 = params.steady_center(KAPPA)
    axis = gx.Axis(x0 - 12.0, x0 + 12.0, 2048)
    T = 2.0 * math.pi / params.omega
    worst = 0.0
    for n in (0, 1, 2):
        fn = gx.fock_state(model, n, 0.0, axis=axis)
        out = gx.evolve(model, fn, T)
        target = np.exp(-1j * gx.quasi_energy(model, n) * T) * fn.psi
        phase = abs(np.angle(np.vdot(target, out.psi)))
        worst = max(worst, phase)
    ok = report(7, "quasi_periodic_phase", worst, 1e-5)

    harmonic = gx.model_1d(gx.Example1DParams(E=0.0), kappa=0.0)
    w0 = math.sqrt(params.k / params.m)
    worst_h = max(abs(gx.quasi_energy(harmonic, n) - HBAR * w0 * (n + 0.5))
                  for n in (0, 1, 2, 5))
    ok &= report(7, "harmonic_limit_formula", worst_h, 1e-12)
    assert ok


def test_criterion_8_kernel_crosschecks(setup):
    params, model, _, _ = setup
    rng = np.random.default_rng(7)
    om = params.Omega(KAPPA)

    # 1D: generic assembly vs driven-oscillator closed form
    g0 = gx.MomentPoint(np.array([0.3, 0.9]),
                        np.diag([om / 2.0, 1.0 / (2.0 * om)]))
    worst_1d = 0.0
    count = 0
    while count < 100:
        t = rng.uniform(0.3, 2.7)
        if abs(math.sin(om * t)) < 0.2:
            continue
        count += 1
        traj = gx.integrate_moments(model, KAPPA, g0, 0.0, t)
        ctx = gx.build_kernel_context(traj, 0.0, t)
        x, y = rng.normal(scale=1.5), rng.normal(scale=1.5)
        got = gx.green_function(ctx, x, y)
        ref = gx.closed_form_kernel_1d(traj, x, y, t, 0.0)
        worst_1d = max(worst_1d, abs(got - ref))
    ok = report(8, "kernel_1d_crosscheck", worst_1d, 1e-9)

    # 3D: generic assembly vs magnetic-trap closed form
    p3 = gx.Example3DParams(H_field=0.4, V0=0.3, gamma=1.5)
    m3 = gx.model_3d(p3, hbar=HBAR, kappa=1.0)
    kt3 = 0.5
    w1, w2 = p3.frequencies(kt3)
    g3 = gx.MomentPoint(np.array([0.1, -0.05, 0.2, 0.3, 0.4, -0.1]),
                        np.diag([0.5, 0.6, 0.55, 0.5, 0.45, 0.5]))
    worst_3d = 0.0
    count = 0
    while count < 100:
        t = rng.uniform(0.3, 2.9)
        if min(abs(math.sin(w1 * t)), abs(math.sin(w2 * t))) < 0.2:
            continue
        count += 1
        traj = gx.integrate_moments(m3, kt3, g3, 0.0, t)
        ctx = gx.build_kernel_context(traj, 0.0, t)
        x = rng.normal(scale=1.0, size=3)
        y = rng.normal(scale=1.0, size=3)
        got = gx.green_function(ctx, x, y)
        ref = gx.closed_form_kernel_3d(traj, x, y, t, 0.0)
        worst_3d = max(worst_3d, abs(got - ref))
    ok &= report(8, "kernel_3d_crosscheck", worst_3d, 1e-9)

    # free particle: closed form to machine precision
    free = gx.free_model(mass=1.4)
    gf = gx.MomentPoint(np.array([0.6, -0.2]), np.diag([0.5, 0.5]))
    traj = gx.integrate_moments(free, 0.0, gf, 0.0, 1.3)
    ctx = gx.build_kernel_context(traj, 0.0, 1.3)
    xs, ys = rng.normal(size=50), rng.normal(size=50)
    ref = np.sqrt(1.4 / (2j * np.pi * 1.3)) \
        * np.exp(1j * 1.4 * (xs - ys) ** 2 / (2 * 1.3))
    err_free = float(np.max(np.abs(gx.green_function(ctx, xs, ys) - ref)))
    ok &= report(8, "kernel_free_particle", err_free, 1e-12)

    # delta limit against the spectrally exact short-time evolution
    ax = gx.Axis(-8.0, 8.0, 32768)
    psi = gx.gaussian_packet((ax,), HBAR, [0.3], [0.4], [4.0])
    tau = 1e-3
    cons = gx.constants_of_motion(gx.free_model(), psi)
    traj = gx.integrate_moments(gx.free_model(), 0.0, cons.point, 0.0, tau)
    ctx = gx.build_kernel_context(traj, 0.0, tau)
    idx = np.arange(12288, 20480, 512)
    vals = np.array([ax.delta * np.sum(gx.green_function(
        ctx, np.full(ax.num, ax.points[i]), ax.points) * psi.psi)
        for i in idx])
    k = ax.wavenumbers
    exact = np.fft.ifft(np.exp(-1j * k ** 2 * tau / 2.0)
                        * np.fft.fft(psi.psi))
    err_delta = float(np.max(np.abs(vals - exact[idx])))
    ok &= report(8, "kernel_delta_limit", err_delta, 1e-6)
    assert ok


def test_criterion_9_structural_invariants(setup):
    params, model, axis, psi = setup
    var = gx.integrate_variations(model, KAPPA, 0.0, 2.5)
    worst_symp = max(gx.symplectic_defect(var(t))
                     for t in np.linspace(0.1, 2.5, 25))
    ok = report(9, "matriciant_symplecticity", worst_symp, 1e-9)

    worst_norm = 0.0
    for t in (0.7, 1.5, 2.0):
        out = gx.evolve(model, psi, t)
        worst_norm = max(worst_norm, abs(gx.norm_squared(out) - 1.0))
    ok &= report(9, "norm_conservation", worst_norm, 1e-8)

    axis_r = gx.Axis(-12.0, 12.0, 1024)
    om = params.Omega(KAPPA)
    psi_r = gx.gaussian_packet((axis_r,), HBAR, [1.0], [0.0],
                               [params.m * om])
    dts = [8e-3, 4e-3, 2e-3]
    res = []
    for dt in dts:
        snaps = [gx.evolve(model, psi_r, 0.8 + k * dt) for k in (-1, 0, 1)]
        res.append(gx.gpe_residual(model, snaps, dt))
    slope = float(np.polyfit(np.log(dts), np.log(res), 1)[0])
    ok &= report(9, "gpe_residual_slope", 1.9 - slope, 0.0, ok=slope >= 1.9)
    assert ok
