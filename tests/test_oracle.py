import math

import numpy as np
import pytest

import gpexact as gx
from gpexact.errors import ModelError

from conftest import KAPPA


def test_free_gaussian_spreading(axis_2048):
    model = gx.free_model()
    alpha = 1.0
    psi = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [0.0], [alpha])
    out = gx.split_step_evolve(model, psi, 1.5, gx.OracleConfig(dt=1e-3))
    d = gx.second_moments(out)
    # free spreading from the initial record: sigma_xx + sigma_pp t^2 / m^2
    sxx0, spp0 = 1.0 / (2 * alpha), alpha / 2.0
    assert d[1, 1] == pytest.approx(sxx0 + spp0 * 1.5 ** 2, rel=1e-8)
    assert d[0, 0] == pytest.approx(spp0, rel=1e-8)


def test_harmonic_coherent_center(axis_1024):
    model = gx.harmonic_model(omega=1.0)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [1.0])
    out = gx.split_step_evolve(model, psi, 1.2, gx.OracleConfig(dt=2e-4))
    z = gx.first_moments(out)
    assert z[1] == pytest.approx(math.cos(1.2), abs=1e-8)
    assert z[0] == pytest.approx(-math.sin(1.2), abs=1e-8)


def test_norm_conservation(model_1d, displaced_gaussian):
    out = gx.split_step_evolve(model_1d, displaced_gaussian, 1.0,
                               gx.OracleConfig(dt=1e-3))
    assert abs(gx.norm_squared(out) - 1.0) <= 1e-10


def test_convergence_to_kernel_evolution(model_1d, axis_1024, params_1d):
    """The reference integrator converges quadratically to the kernel
    propagator, not the other way around."""
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.2], [om])
    exact = gx.evolve(model_1d, psi, 1.0)
    dts = [4e-3, 2e-3, 1e-3]
    errs = [gx.l2_distance(exact, gx.split_step_evolve(
        model_1d, psi, 1.0, gx.OracleConfig(dt=dt))) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 1.9
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


def test_grid_mismatch_rejected(model_1d, axis_1024, axis_2048):
    p1 = gx.gaussian_packet((axis_1024,), 1.0, [0.0], [0.0], [1.0])
    p2 = gx.gaussian_packet((axis_2048,), 1.0, [0.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        gx.gpe_residual(model_1d, [p1, p2, p1], 1e-3)


def test_phase_step_bound_enforced(model_1d, axis_1024, params_1d):
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_1024,), 1.0, [1.0], [0.0], [om])
    from gpexact.errors import StabilityError
    with pytest.raises(StabilityError):
        gx.split_step_evolve(model_1d, psi, 1.0, gx.OracleConfig(dt=0.5))


def test_momentum_drive_rejected_before_the_state(axis_1024):
    """A p-linear term in Hz is not a position potential; the model is
    refused even when the state is unresolved too."""
    zero = np.zeros((2, 2))
    model = gx.make_model(1, 1.0, 1.0, 0.0, np.eye(2), np.array([0.5, 0.0]),
                          zero, zero, zero)
    edge = gx.gaussian_packet((axis_1024,), 1.0, [12.0], [0.0], [1.0])
    with pytest.raises(ModelError, match="position-only Hz"):
        gx.split_step_evolve(model, edge, 1.0, gx.OracleConfig(dt=1e-3))
