import dataclasses
import math

import numpy as np
import pytest

import gpexact as gx
from gpexact.errors import ModelError, ResolutionError, StabilityError
from gpexact.oracle import _potential_terms
from gpexact.state import TAIL_TOL

from conftest import KAPPA

# Suzuki's five substep lengths, in units of the step, and the offsets of
# the kinetic boundaries from the start of the step, where the merged
# potential flows stand
P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SUZUKI = (P, P, 1.0 - 4.0 * P, P, P)
BOUNDARIES = (0.0, P, 2.0 * P, 1.0 - 2.0 * P, 1.0 - P)


def test_free_gaussian_spreading(axis_2048):
    model = gx.free_model()
    alpha = 1.0
    psi = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [0.0], [alpha])
    out = gx.split_step_evolve(model, psi, 1.5, gx.OracleConfig(dt=4.5e-3))
    d = gx.second_moments(out)
    # free spreading from the initial record: sigma_xx + sigma_pp t^2 / m^2
    sxx0, spp0 = 1.0 / (2 * alpha), alpha / 2.0
    assert d[1, 1] == pytest.approx(sxx0 + spp0 * 1.5 ** 2, rel=1e-8)
    assert d[0, 0] == pytest.approx(spp0, rel=1e-8)


def test_harmonic_coherent_center(axis_1024):
    model = gx.harmonic_model(omega=1.0)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [1.0])
    out = gx.split_step_evolve(model, psi, 1.2, gx.OracleConfig(dt=4.5e-3))
    z = gx.first_moments(out)
    assert z[1] == pytest.approx(math.cos(1.2), abs=1e-8)
    assert z[0] == pytest.approx(-math.sin(1.2), abs=1e-8)


def test_norm_conservation(model_1d, displaced_gaussian):
    out = gx.split_step_evolve(model_1d, displaced_gaussian, 1.0,
                               gx.OracleConfig(dt=4.5e-3))
    assert abs(gx.norm_squared(out) - 1.0) <= 1e-10


def test_convergence_to_kernel_evolution(model_1d, axis_1024, params_1d):
    """The reference integrator converges to the kernel propagator, not
    the other way around."""
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.2], [om])
    exact = gx.evolve(model_1d, psi, 1.0)
    dts = [9e-3, 6.4e-3, 4.5e-3]
    errs = [gx.l2_distance(exact, gx.split_step_evolve(
        model_1d, psi, 1.0, gx.OracleConfig(dt=dt))) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 3.8  # the composition is fourth order
    assert errs[-1] < errs[0] / 10.0


def test_oracle_rejects_magnetic_models():
    params = gx.Example3DParams(H_field=0.4)
    model = gx.model_3d(params, kappa=0.5)
    axes = tuple(gx.Axis(-8.0, 8.0, 32) for _ in range(3))
    psi = gx.gaussian_packet(axes, 1.0, [0.0] * 3, [0.0] * 3, [1.0] * 3)
    with pytest.raises(ModelError):
        gx.split_step_evolve(model, psi, 0.5)


def test_oracle_checks_the_kinetic_split_at_every_time(axis_1024):
    """A momentum block that leaves I/m after t = 0 is rejected, not
    evolved with the wrong kinetic term."""
    model = gx.make_model(1, 1.0, 1.0, 0.0,
                          lambda t: np.diag([1.0 + t / 2.0, 1.0]),
                          np.zeros(2))
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [1.0])
    with pytest.raises(ModelError, match="Hpp"):
        gx.split_step_evolve(model, psi, 2.0)


def test_oracle_refuses_a_state_of_another_hbar(axis_1024):
    """The oracle evolves with the model's hbar, so a state of another one
    is refused, not returned relabelled."""
    psi = gx.gaussian_packet((axis_1024,), 2.0, [1.0], [0.2], [1.0])
    with pytest.raises(ModelError, match="hbar = 2.0 .* hbar = 1.0"):
        gx.split_step_evolve(gx.harmonic_model(), psi, 0.5)


def count_transforms(monkeypatch):
    """Record every forward and inverse transform the oracle makes."""
    from gpexact import oracle
    calls = []

    def spy(name):
        fn = getattr(oracle, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(oracle, name, counted)

    spy("fftn")
    spy("ifftn")
    return calls


def test_model_refused_before_the_first_transform(monkeypatch, axis_1024):
    """The model is read at every potential flow's time before the loop:
    an Hpp that leaves I/m only after the second-latest flow time is
    refused at the latest one, the closing half flow at the end time t,
    and the state is never transformed."""
    calls = count_transforms(monkeypatch)
    dt, steps = 4.5e-3, 20
    t = steps * dt
    # the second-latest flow stands at 2p dt into the last step, past
    # 1 - p, since the middle kinetic flow between them runs backward
    cut = t - 0.5 * (1.0 - 2.0 * P) * dt
    model = gx.make_model(
        1, 1.0, 1.0, 0.0,
        lambda t: np.diag([1.0 if t < cut else 1.5, 1.0]), np.zeros(2))
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [1.0])
    with pytest.raises(ModelError, match=rf"Hpp = I/m \(t = {t:.6g}\)"):
        gx.split_step_evolve(model, psi, t, gx.OracleConfig(dt=dt))
    assert calls == []


def spy_on_hz(model):
    """The model with its Hz wrapped to record every time it is read at."""
    calls = []

    def hz(t):
        calls.append(t)
        return model.Hz(t)
    return dataclasses.replace(model, Hz=hz), calls


def test_drive_data_read_in_one_pass():
    """A model whose Hz is data, here two drive terms over a constant, is
    read off ``model.drive`` at all times at once: the rows agree with Hz
    at each time to 1e-15, and Hz itself is never called."""
    terms = [(0.7, [0.0, 0.0, 0.3, -0.2], [0.0, 0.0, 0.0, 0.15]),
             (1.9, [0.0, 0.0, -0.05, 0.1], [0.0, 0.0, 0.2, -0.25])]
    model = gx.make_model(2, 1.0, 1.0, 0.5, np.eye(4),
                          np.array([0.0, 0.0, 0.1, -0.05]), drive=terms)
    taus = np.linspace(-0.7, 3.1, 257)
    ref = np.array([model.Hz(tau)[2:] for tau in taus])
    spied, calls = spy_on_hz(model)
    _, hz, *_ = _potential_terms(spied, taus)
    assert np.max(np.abs(hz - ref)) <= 1e-15
    assert np.max(np.abs(ref - np.array([0.1, -0.05]))) > 0.1
    assert calls == []


def test_callable_hz_read_at_each_potential_flow(parametric_model,
                                                 axis_1024):
    """A model with a callable of time is called once per potential flow,
    in run order: at every kinetic boundary of every step, then at the end
    time for the closing half flow."""
    model, calls = spy_on_hz(parametric_model)
    assert model.drive is None
    psi = gx.gaussian_packet((axis_1024,), 1.0, [0.8], [0.3], [model.mass])
    dt, steps = 4.5e-3, 20
    gx.split_step_evolve(model, psi, steps * dt, gx.OracleConfig(dt=dt))
    flows = np.append((np.arange(steps)[:, None] + BOUNDARIES) * dt,
                      steps * dt)
    assert len(calls) == 5 * steps + 1
    np.testing.assert_allclose(calls, flows, rtol=0, atol=1e-15)


def residual_of_evolved_triple(model, psi, t, dt):
    snaps = [gx.evolve(model, psi, t + k * dt) for k in (-1, 0, 1)]
    return gx.gpe_residual(model, snaps, dt)


def test_residual_second_order(model_1d, axis_1024, params_1d):
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [om])
    dts = [8e-3, 4e-3, 2e-3]
    res = [residual_of_evolved_triple(model_1d, psi, 0.8, dt) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(res), 1)[0]
    assert slope >= 1.9


def test_residual_detects_perturbation(model_1d, axis_1024, params_1d):
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [om])
    dt = 2e-3
    snaps = [gx.evolve(model_1d, psi, 0.8 + k * dt) for k in (-1, 0, 1)]
    clean = gx.gpe_residual(model_1d, snaps, dt)
    rng = np.random.default_rng(4)
    # relative amplitude noise, localized by the state's own envelope
    noise = 1e-3 * rng.normal(size=snaps[1].psi.shape) * np.abs(snaps[1].psi)
    dirty = [snaps[0], snaps[1].with_psi(snaps[1].psi + noise), snaps[2]]
    noisy = gx.gpe_residual(model_1d, dirty, dt)
    assert noisy > 1e-3
    assert noisy > 10.0 * clean


def test_only_the_residual_reads_past_the_gate(model_1d, axis_1024,
                                               params_1d):
    """apply_effective_hamiltonian and constants_of_motion refuse a state
    that the box cuts off; the residual, a diagnostic, still reads it."""
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [om])
    dt = 2e-3
    before, _, after = [gx.evolve(model_1d, psi, 0.8 + k * dt)
                        for k in (-1, 0, 1)]
    edge = gx.gaussian_packet((axis_1024,), 1.0, [11.0], [0.0], [om], t=0.8)
    for apply in (gx.constants_of_motion, gx.apply_effective_hamiltonian):
        with pytest.raises(ResolutionError, match="boundary tail"):
            apply(model_1d, edge)
    assert np.isfinite(gx.gpe_residual(model_1d, [before, edge, after], dt))


def test_residual_of_fock_triple(model_1d):
    x0 = model_1d.example.steady_center(KAPPA)
    axis = gx.Axis(x0 - 12.0, x0 + 12.0, 1024)
    res = []
    for dt in (8e-3, 4e-3, 2e-3):
        snaps = [gx.fock_state(model_1d, 0, k * dt, axis=axis)
                 for k in (-1, 0, 1)]
        res.append(gx.gpe_residual(model_1d, snaps, dt))
    slope = np.polyfit(np.log([8e-3, 4e-3, 2e-3]), np.log(res), 1)[0]
    assert slope >= 1.9


def test_residual_second_order_2d_rotation():
    """The 2D model with an antisymmetric p-x rotation coupling, so the
    mixed Weyl-ordered terms of the Hamiltonian are exercised.  The packet
    is anisotropic: on an isotropic one those terms leave the residual
    unchanged."""
    rot = 0.2
    hzz = np.array([[1.0, 0.0, 0.0, rot],
                    [0.0, 1.0, -rot, 0.0],
                    [0.0, -rot, 1.0 + rot ** 2, 0.0],
                    [rot, 0.0, 0.0, 1.0 + rot ** 2]])

    def position_block(c):
        return np.block([[np.zeros((2, 2)), np.zeros((2, 2))],
                         [np.zeros((2, 2)), c * np.eye(2)]])

    model = gx.make_model(2, 1.0, 1.0, 0.5, hzz, np.zeros(4),
                          position_block(0.2), position_block(0.1),
                          position_block(0.3))
    om = math.sqrt(1.0 + rot ** 2 + 0.5 * 0.2)
    axes = (gx.Axis(-9.0, 9.0, 80), gx.Axis(-9.0, 9.0, 80))
    psi = gx.gaussian_packet(axes, 1.0, [0.5, -0.3], [0.2, 0.1],
                             [0.7 * om, 1.3 * om])
    dts = [8e-3, 4e-3, 2e-3]
    res = [residual_of_evolved_triple(model, psi, 0.9, dt) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(res), 1)[0]
    assert slope >= 1.9


def test_effective_hamiltonian_on_the_harmonic_ground_state(axis_1024):
    """Without coupling the effective Hamiltonian is the oscillator's own,
    so it maps the ground state to hbar omega / 2 times itself."""
    omega, hbar = 1.3, 0.7
    model = gx.harmonic_model(omega=omega, hbar=hbar)
    psi = gx.gaussian_packet((axis_1024,), hbar, [0.0], [0.0], [omega])
    h_psi = gx.apply_effective_hamiltonian(model, psi)
    assert h_psi.shape == psi.psi.shape
    assert np.max(np.abs(h_psi - 0.5 * hbar * omega * psi.psi)) <= 1e-12


def test_residual_step_must_be_finite_and_nonzero(model_1d, axis_1024):
    """Three snapshots at one time and dt = 0 would make the central
    difference 0 / 0; the step is refused by name instead."""
    psi = gx.gaussian_packet((axis_1024,), 1.0, [0.0], [0.0], [1.0])
    for dt in (0.0, math.nan):
        with pytest.raises(ValueError, match="dt = .* finite and nonzero"):
            gx.gpe_residual(model_1d, [psi] * 3, dt)


def test_grid_mismatch_rejected(model_1d, axis_1024, axis_2048):
    p1 = gx.gaussian_packet((axis_1024,), 1.0, [0.0], [0.0], [1.0])
    p2 = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        gx.gpe_residual(model_1d, [p1, p2, p1], 1e-3)


def test_phase_step_bound_enforced(model_1d, axis_1024, params_1d):
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [om])
    with pytest.raises(StabilityError):
        gx.split_step_evolve(model_1d, psi, 1.0, gx.OracleConfig(dt=0.5))


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
def test_oracle_dt_must_be_finite_and_positive(dt):
    with pytest.raises(ValueError, match="dt = .*: not a finite positive"):
        gx.OracleConfig(dt=dt)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_oracle_rejects_a_non_finite_end_time(model_1d, displaced_gaussian,
                                              t):
    with pytest.raises(ValueError, match="end time t = .* is not finite"):
        gx.split_step_evolve(model_1d, displaced_gaussian, t)


def spanning_packet(axis, t=0.0):
    """A wide packet whose mass region spans the box: the densities on both
    faces lie between TAIL_TOL / npts and TAIL_TOL of the norm, so it
    passes the resolution gate while the region bound reaches the faces,
    where it reads the grid bound's numbers."""
    psi = gx.gaussian_packet((axis,), 1.0, [0.0], [0.0], [0.24], t=t)
    dens = np.abs(psi.psi) ** 2 / np.sum(np.abs(psi.psi) ** 2)
    assert TAIL_TOL / axis.num < min(dens[0], dens[-1])
    gx.check_resolved(psi)
    return psi


def half_range(v):
    """(max v - min v) / 2 over the grid points: the spread the phase
    bound reads, a constant in v a global phase."""
    return 0.5 * float(np.max(v) - np.min(v))


def test_phase_bound_checks_each_substep(axis_1024):
    """The bound is taken against each potential flow's own length: the
    longest is p dt, the merged halves of two outer substeps.  Just over
    the bound on the spread of v on it, the run stops at the first such
    flow, at p dt, though the opening half flow and the two
    (1 - 3p) dt / 2 flows around the backward kinetic step stay under it;
    just under it, the run goes through."""
    model = gx.harmonic_model(omega=1.0)  # no coupling: V = x^2 / 2
    psi = spanning_packet(axis_1024)
    spread = half_range(0.5 * axis_1024.points ** 2)
    dt = 0.51 / (spread * P)
    assert 0.51 * abs(1.0 - 3.0 * P) / (2.0 * P) < 0.5
    with pytest.raises(StabilityError, match=f"at t = {P * dt:.4g};"):
        gx.split_step_evolve(model, psi, 4 * dt, gx.OracleConfig(dt=dt))
    dt = 0.49 / (spread * P)
    gx.split_step_evolve(model, psi, 4 * dt, gx.OracleConfig(dt=dt))


def test_phase_bound_is_never_looser(axis_1024):
    """With a linear drive the spread of the potential is not that of its
    quadratic part: v = x^2 / 2 - E x peaks at the low edge and dips at
    x = E.  Where the exact spread on the grid, times the longest flow
    p dt, is just over the bound the run stops at the first such flow,
    though the quadratic part alone is under it; just under the bound, the
    run goes through, at a dt where max |v| is far over it."""
    E = 1.0
    model = gx.make_model(1, 1.0, 1.0, 0.0, np.eye(2), np.array([0.0, -E]))
    psi = spanning_packet(axis_1024)
    x = axis_1024.points
    v = 0.5 * x ** 2 - E * x
    dt = 0.51 / (half_range(v) * P)
    assert half_range(0.5 * x ** 2) * P * dt < 0.5
    with pytest.raises(StabilityError, match=f"at t = {P * dt:.4g};"):
        gx.split_step_evolve(model, psi, 4 * dt, gx.OracleConfig(dt=dt))
    dt = 0.49 / (half_range(v) * P)
    assert float(np.max(np.abs(v))) * P * dt > 0.9
    gx.split_step_evolve(model, psi, 4 * dt, gx.OracleConfig(dt=dt))


def test_phase_bound_over_the_mass_region(axis_1024):
    """Where the grid bound fails, the bound over the mass region decides.
    On the oscillator's ground state the region is the box [lo, hi] of the
    points either of whose squares exceeds TAIL_TOL / 2 of their mean, and
    v = x^2 / 2 spreads from 0 to max(lo^2, hi^2) / 2 on it; the first of
    the longest potential flows, p dt, is refused just over a half-range
    times p dt / hbar of 0.5, and the run goes through just under it, at a
    dt the grid bound alone refuses."""
    model = gx.harmonic_model(omega=1.0)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [0.0], [0.0], [1.0])
    squares = np.square(psi.psi.view(np.float64))
    marked = squares > 0.5 * TAIL_TOL * squares.sum() / axis_1024.num
    x = axis_1024.points
    inside = x[marked.reshape(-1, 2).any(axis=1)]
    spread = half_range(0.5 * x[(x >= inside[0]) & (x <= inside[-1])] ** 2)
    dt = 0.52 / (spread * P)
    with pytest.raises(StabilityError, match=f"at t = {P * dt:.4g};"):
        gx.split_step_evolve(model, psi, 4 * dt, gx.OracleConfig(dt=dt))
    dt = 0.48 / (spread * P)
    assert half_range(0.5 * x ** 2) * P * dt >= 0.5
    gx.split_step_evolve(model, psi, 4 * dt, gx.OracleConfig(dt=dt))


def test_phase_bound_ignores_a_constant_offset():
    """Www enters a flow's potential only through its constant scal, a
    global phase: two models that differ only in Www get the same verdict
    at every rung of a ladder that crosses the bound, and their accepted
    outputs differ by one global phase."""
    axis = gx.Axis(-10.0, 10.0, 512)
    psi = gx.gaussian_packet((axis,), 1.0, [1.0], [0.2], [1.0])

    def run(www, dt):
        model = gx.make_model(1, 1.0, 1.0, 0.5, np.eye(2), np.zeros(2),
                              np.diag([0.0, 0.2]), np.diag([0.0, 0.1]),
                              np.diag([0.0, www]))
        try:
            return gx.split_step_evolve(model, psi, 1.0,
                                        gx.OracleConfig(dt=dt)).psi
        except StabilityError:
            return None

    verdicts = []
    for dt in (0.02, 0.04, 0.06, 0.08, 0.16):
        a, b = run(0.3, dt), run(5.3, dt)
        assert (a is None) == (b is None)
        verdicts.append(a is not None)
        if a is not None:
            phase = np.vdot(a, b) / abs(np.vdot(a, b))
            resid = np.sqrt(axis.delta * np.sum(np.abs(b - phase * a) ** 2))
            assert resid <= 1e-12
    assert verdicts == [True, True, True, False, False]


def test_displaced_packet_admitted_at_a_step_its_offset_refused(axis_1024):
    """A harmonic-trap packet displaced to x0 = 4 has v = x^2 / 2 up to
    hi^2 / 2 on its mass region [lo, hi], and down to 0 inside it: at a dt
    where that maximum times p dt / hbar is well over the bound, the
    spread is under it, the run is accepted, and it agrees with evolve."""
    model = gx.harmonic_model(omega=1.0)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [4.0], [0.0], [1.0])
    squares = np.square(psi.psi.view(np.float64))
    marked = squares > 0.5 * TAIL_TOL * squares.sum() / axis_1024.num
    inside = axis_1024.points[marked.reshape(-1, 2).any(axis=1)]
    dt = 0.035
    assert 0.5 * max(inside[0] ** 2, inside[-1] ** 2) * P * dt >= 0.75
    out = gx.split_step_evolve(model, psi, 2.0, gx.OracleConfig(dt=dt))
    assert gx.l2_distance(out, gx.evolve(model, psi, 2.0)) <= 2e-6


def test_run_opens_with_half_a_flow(axis_1024):
    """The run opens with a potential flow of p dt / 2 at the start time s:
    at a dt where p dt is well over the bound but p dt / 2 is under it,
    the opening flow is admitted and the run is refused at the next one,
    at s + p dt."""
    model = gx.harmonic_model(omega=1.0)
    psi = spanning_packet(axis_1024, t=0.3)
    spread = half_range(0.5 * axis_1024.points ** 2)
    dt = 0.9 / (spread * P)
    with pytest.raises(StabilityError,
                       match=f"at t = {0.3 + P * dt:.4g};"):
        gx.split_step_evolve(model, psi, 0.3 + 4 * dt, gx.OracleConfig(dt=dt))


def test_opening_flow_refused_before_the_first_transform(monkeypatch,
                                                         axis_1024):
    """At a dt where even the opening half flow, p dt / 2, is over the
    bound, the run is refused at its start time, before any transform."""
    calls = count_transforms(monkeypatch)
    model = gx.harmonic_model(omega=1.0)
    psi = spanning_packet(axis_1024, t=0.3)
    spread = half_range(0.5 * axis_1024.points ** 2)
    dt = 1.1 / (spread * P)
    with pytest.raises(StabilityError, match=r"at t = 0\.3;"):
        gx.split_step_evolve(model, psi, 0.3 + 4 * dt, gx.OracleConfig(dt=dt))
    assert calls == []


@pytest.mark.parametrize("x0", [0.5, 1.5])
@pytest.mark.parametrize("p0", [-0.3, 0.3])
def test_coarsest_default_rung_at_the_draw_corners(model_1d, params_1d,
                                                   axis_2048, x0, p0):
    """The CLI's coarsest default rung, 2 x 2.8e-2, is accepted to t = 2
    at each corner of the packets the certify benchmark draws on the README
    grid."""
    psi = gx.gaussian_packet((axis_2048,), 1.0, [x0], [p0],
                             [params_1d.m * params_1d.Omega(KAPPA)])
    ref = gx.split_step_evolve(model_1d, psi, 2.0,
                               gx.OracleConfig(dt=2.0 * 2.8e-2))
    assert gx.l2_distance(gx.evolve(model_1d, psi, 2.0), ref) <= 1e-6


def test_packet_driven_into_a_face_is_refused(axis_1024):
    """A drive that pushes the packet onto the upper face of the box, at a
    dt every phase bound admits, ends in a ResolutionError that names the
    axis, the face and the time."""
    E = 5.5  # v = x^2 / 2 - E x: the packet swings out to x = 2 E = 11
    model = gx.make_model(1, 1.0, 1.0, 0.0, np.eye(2), np.array([0.0, -E]))
    psi = gx.gaussian_packet((axis_1024,), 1.0, [0.0], [0.0], [1.0])
    with pytest.raises(ResolutionError,
                       match="upper face of axis 0 exceeds .* at t = "):
        gx.split_step_evolve(model, psi, math.pi, gx.OracleConfig(dt=5e-3))


def test_face_is_checked_at_every_potential_flow(model_1d, params_1d,
                                                 axis_2048):
    """A packet that swings out onto the upper face and back is resolved at
    both ends, and the box-wide phase bound admits the run; the periodic
    box carried the tail it lost there round to the other side, so it
    ends 3e-6 from evolve's.  The boundary tail is checked where every
    potential flow stands, so the run is refused."""
    psi = gx.gaussian_packet((axis_2048,), 1.0, [5.5], [5.0],
                             [params_1d.m * params_1d.Omega(KAPPA)])
    gx.check_resolved(gx.evolve(model_1d, psi, 2.0))
    with pytest.raises(ResolutionError, match="upper face of axis 0"):
        gx.split_step_evolve(model_1d, psi, 2.0, gx.OracleConfig(dt=4.5e-3))


def test_output_gate_refuses_a_spectral_tail():
    """A linear potential kicks a free packet's momentum to 10, toward the
    band edge of a 128-point box but not across it: the state is inside
    the box wherever a potential flow stands, and the output's spectral
    tail is refused."""
    axis = gx.Axis(-12.0, 12.0, 128)
    model = gx.make_model(1, 1.0, 1.0, 0.0, np.diag([1.0, 0.0]),
                          np.array([0.0, -40.0]))
    psi = gx.gaussian_packet((axis,), 1.0, [0.0], [0.0], [1.0])
    with pytest.raises(ResolutionError, match="spectral tail fraction"):
        gx.split_step_evolve(model, psi, 0.25, gx.OracleConfig(dt=1e-3))


def test_oracle_rejects_zero_state(model_1d, axis_1024):
    """Both tails of a zero state read 0, so the norm check refuses it."""
    zero = gx.GridState((axis_1024,), np.zeros(axis_1024.num, dtype=complex),
                        0.0, 1.0)
    with pytest.raises(ResolutionError):
        gx.split_step_evolve(model_1d, zero, 0.5)


def test_momentum_drive_rejected_before_the_state(axis_1024):
    """A p-linear term in Hz is not a position potential; the model is
    refused even when the state is unresolved too."""
    zero = np.zeros((2, 2))
    model = gx.make_model(1, 1.0, 1.0, 0.0, np.eye(2), np.array([0.5, 0.0]),
                          zero, zero, zero)
    edge = gx.gaussian_packet((axis_1024,), 1.0, [12.0], [0.0], [1.0])
    with pytest.raises(ModelError, match="position-only Hz"):
        gx.split_step_evolve(model, edge, 1.0, gx.OracleConfig(dt=4.5e-3))


def test_oracle_makes_one_fft_pair_per_substep(monkeypatch, model_1d,
                                               displaced_gaussian):
    """Adjacent half potential steps are merged, and the state starts and
    ends in position space: a run of `steps` composed steps of five
    substeps makes one forward and one inverse transform per substep, for
    its kinetic multiplier, and no other."""
    calls = count_transforms(monkeypatch)
    steps = 40
    gx.split_step_evolve(model_1d, displaced_gaussian, steps * 4.5e-3,
                         gx.OracleConfig(dt=4.5e-3))
    assert len(calls) == 10 * steps
    assert calls.count("fftn") == calls.count("ifftn") == 5 * steps


def unfused_strang(model, psi, t, dt):
    """Suzuki's composition of plain Strang substeps, V/2 K V/2 on every
    substep of the five-stage step, each half potential step with the
    moments of the state where it stands read by direct sums over the grid
    and the model read at that time (numpy only)."""
    n, hbar = model.n, model.hbar
    kt = gx.constants_of_motion(model, psi).kappa_tilde
    Wa, Wb, Wc = (W[n:, n:] for W in (model.Wzz, model.Wzw, model.Www))
    pts = psi.grids()
    k2 = sum(np.meshgrid(*(ax.wavenumbers ** 2 for ax in psi.axes),
                         indexing="ij", sparse=True))
    steps = round((t - psi.t) / dt)
    dt = (t - psi.t) / steps  # the oracle's rule: equal steps that end at t

    def half_potential(arr, tau, h):
        dens = np.abs(arr) ** 2
        nrm = dens.sum()
        mean = np.array([np.sum(dens * p) / nrm for p in pts])
        cov = np.array([[np.sum(dens * (pa - ma) * (pb - mb)) / nrm
                         for pb, mb in zip(pts, mean)]
                        for pa, ma in zip(pts, mean)])
        hxx = model.Hzz(tau)[n:, n:] + kt * Wa
        lin = model.Hz(tau)[n:] + kt * (Wb @ mean)
        v = 0.5 * kt * (mean @ Wc @ mean + np.trace(Wc @ cov))
        for a in range(n):
            v = v + lin[a] * pts[a]
            for b in range(n):
                v = v + 0.5 * hxx[a, b] * pts[a] * pts[b]
        return arr * np.exp(-0.5j * h * v / hbar)

    arr = np.array(psi.psi)
    for step in range(steps):
        start = psi.t + step * dt
        for w in SUZUKI:
            h = w * dt
            arr = half_potential(arr, start, h)
            kin = np.exp(-1j * hbar * k2 * h / (2.0 * model.mass))
            arr = np.fft.ifftn(kin * np.fft.fftn(arr))
            start += h
            arr = half_potential(arr, start, h)
    return psi.with_psi(arr, t)


def test_fused_loop_matches_unfused_strang_1d(model_1d, displaced_gaussian):
    out = gx.split_step_evolve(model_1d, displaced_gaussian, 1.0,
                               gx.OracleConfig(dt=4.5e-3))
    ref = unfused_strang(model_1d, displaced_gaussian, 1.0, 4.5e-3)
    assert gx.l2_distance(out, ref) <= 1e-12


def test_fused_loop_matches_unfused_strang_1d_awkward_size(model_1d):
    """74 = 2 x 37 points: the axis has no divisor near sqrt(74), so its
    linear factor is a 37 x 2 product of tables."""
    axis = gx.Axis(-8.0, 8.0, 74)
    psi = gx.gaussian_packet((axis,), 1.0, [1.0], [0.2], [1.1])
    out = gx.split_step_evolve(model_1d, psi, 1.0, gx.OracleConfig(dt=4.5e-3))
    ref = unfused_strang(model_1d, psi, 1.0, 4.5e-3)
    assert gx.l2_distance(out, ref) <= 1e-12


def coupled_2d_model():
    """An anisotropic 2D trap whose interaction couples the two axes, so
    every monomial of the potential is present."""
    def position_block(m):
        return np.block([[np.zeros((2, 2)), np.zeros((2, 2))],
                         [np.zeros((2, 2)), np.array(m)]])

    hzz = np.diag([1.0, 1.0, 1.0, 1.5])
    return gx.make_model(
        2, 1.0, 1.0, 0.6, hzz, np.array([0.0, 0.0, 0.1, -0.05]),
        position_block([[0.2, 0.05], [0.05, 0.1]]),
        position_block([[0.1, 0.02], [0.02, 0.05]]),
        position_block([[0.3, 0.1], [0.1, 0.2]]))


def test_fused_loop_matches_unfused_strang_2d():
    model = coupled_2d_model()
    axes = (gx.Axis(-8.0, 8.0, 64), gx.Axis(-8.0, 8.0, 64))
    psi = gx.gaussian_packet(axes, 1.0, [0.6, -0.3], [0.1, 0.2], [1.0, 1.2])
    out = gx.split_step_evolve(model, psi, 0.5, gx.OracleConfig(dt=4.5e-3))
    ref = unfused_strang(model, psi, 0.5, 4.5e-3)
    assert gx.l2_distance(out, ref) <= 1e-12


def test_fused_loop_matches_unfused_strang_2d_unequal_axes():
    """Unequal boxes and point counts, 74 = 2 x 37 on the first axis and
    48 = 8 x 6 on the second, so each axis splits its own way."""
    model = coupled_2d_model()
    axes = (gx.Axis(-8.0, 8.0, 74), gx.Axis(-7.0, 7.0, 48))
    psi = gx.gaussian_packet(axes, 1.0, [0.6, -0.3], [0.1, 0.2], [1.0, 1.2])
    out = gx.split_step_evolve(model, psi, 0.5, gx.OracleConfig(dt=4.5e-3))
    ref = unfused_strang(model, psi, 0.5, 4.5e-3)
    assert gx.l2_distance(out, ref) <= 1e-12


def test_fused_loop_matches_unfused_strang_3d():
    """A 3D trap on 32^3 whose drive and interaction give every axis its
    own linear phase, with a position coupling between all three axes."""
    def position_block(m):
        out = np.zeros((6, 6))
        out[3:, 3:] = m
        return out

    hzz = np.eye(6)
    hzz[3:, 3:] = [[1.0, 0.1, 0.0], [0.1, 1.3, 0.05], [0.0, 0.05, 0.8]]
    model = gx.make_model(
        3, 1.0, 1.0, 0.5, hzz, np.array([0.0, 0.0, 0.0, 0.1, -0.05, 0.08]),
        position_block(np.diag([0.2, 0.1, 0.15])),
        position_block([[0.1, 0.02, 0.01], [0.02, 0.05, 0.0],
                        [0.01, 0.0, 0.08]]),
        position_block(np.diag([0.3, 0.2, 0.1])),
        drive=[(0.7, np.zeros(6), np.array([0.0, 0.0, 0.0, 0.05, 0.1, 0.0]))])
    axes = tuple(gx.Axis(-7.0, 7.0, 32) for _ in range(3))
    psi = gx.gaussian_packet(axes, 1.0, [0.4, -0.3, 0.2], [0.1, 0.0, -0.2],
                             [1.0, 1.1, 0.9])
    out = gx.split_step_evolve(model, psi, 0.2, gx.OracleConfig(dt=4.5e-3))
    ref = unfused_strang(model, psi, 0.2, 4.5e-3)
    assert gx.l2_distance(out, ref) <= 1e-12


def test_fused_loop_matches_unfused_strang_callable_hz(model_1d, axis_1024):
    """A constant Hzz with a callable Hz: no drive data, so the quadratic
    table is rebuilt at every potential flow although it never changes."""
    model = gx.make_model(1, 1.0, 1.0, KAPPA, model_1d.Hzz(0.0), model_1d.Hz,
                          model_1d.Wzz, model_1d.Wzw, model_1d.Www)
    assert model.drive is None
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.2], [1.1])
    out = gx.split_step_evolve(model, psi, 1.0, gx.OracleConfig(dt=4.5e-3))
    ref = unfused_strang(model, psi, 1.0, 4.5e-3)
    assert gx.l2_distance(out, ref) <= 1e-12


def test_fused_loop_matches_unfused_strang_parametric(parametric_model,
                                                      axis_1024):
    """A callable Hzz changes the quadratic phase at every potential
    flow."""
    psi = gx.gaussian_packet((axis_1024,), 1.0, [0.8], [0.3],
                             [parametric_model.mass])
    out = gx.split_step_evolve(parametric_model, psi, 1.0,
                               gx.OracleConfig(dt=4.5e-3))
    ref = unfused_strang(parametric_model, psi, 1.0, 4.5e-3)
    assert gx.l2_distance(out, ref) <= 1e-12
