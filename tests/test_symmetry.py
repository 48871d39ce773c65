import math

import numpy as np
import pytest

import gpexact as gx
from gpexact.errors import ModelError, ResolutionError
from gpexact.symmetry import apply_polynomial

from conftest import KAPPA


@pytest.fixture(scope="module")
def fock_axis(params_1d):
    x0 = params_1d.steady_center(KAPPA)
    return gx.Axis(x0 - 12.0, x0 + 12.0, 2048)


def test_identity_operator(model_1d, fock_axis):
    psi = gx.fock_state(model_1d, 0, 0.6, axis=fock_axis)
    ident = gx.IntertwinedOperator(((1.0, ""),))
    out = gx.apply_symmetry(model_1d, ident, psi)
    assert gx.l2_distance(out, psi) <= 1e-8


def test_raising_maps_ground_to_first(model_1d, fock_axis):
    t = 0.6
    f0 = gx.fock_state(model_1d, 0, t, axis=fock_axis)
    f1 = gx.fock_state(model_1d, 1, t, axis=fock_axis)
    up = gx.ladder_apply(model_1d, +1, f0)
    assert gx.l2_norm(up) == pytest.approx(1.0, abs=1e-7)
    assert gx.l2_distance(up, f1) <= 1e-7


def test_lowering_annihilates_ground(model_1d, fock_axis):
    f0 = gx.fock_state(model_1d, 0, 0.6, axis=fock_axis)
    out = gx.ladder_apply(model_1d, -1, f0)
    assert gx.l2_norm(out) <= 1e-7


def test_ladder_coefficients(model_1d, fock_axis):
    """|A+ psi_n| = sqrt(n+1) and |A- psi_n| = sqrt(n), tightly."""
    t = 0.4
    for n in range(0, 9, 2):
        fn = gx.fock_state(model_1d, n, t, axis=fock_axis)
        up = gx.ladder_apply(model_1d, +1, fn)
        assert abs(gx.l2_norm(up) / math.sqrt(n + 1) - 1.0) <= 1e-6
        if n:
            down = gx.ladder_apply(model_1d, -1, fn)
            assert abs(gx.l2_norm(down) / math.sqrt(n) - 1.0) <= 1e-6


def test_ladder_commutator_is_identity(model_1d, fock_axis):
    t = 0.3
    for n in (0, 2):
        fn = gx.fock_state(model_1d, n, t, axis=fock_axis)
        down_up = gx.ladder_apply(model_1d, -1,
                                  gx.ladder_apply(model_1d, +1, fn))
        up_down = fn.with_psi(np.zeros_like(fn.psi)) if n == 0 else \
            gx.ladder_apply(model_1d, +1, gx.ladder_apply(model_1d, -1, fn))
        comm = down_up.with_psi(down_up.psi - up_down.psi)
        assert gx.l2_distance(comm, fn) <= 1e-6


def test_ladder_chain_matches_closed_forms(model_1d, fock_axis):
    t = 0.5
    state = gx.fock_state(model_1d, 0, t, axis=fock_axis)
    for n in range(1, 6):
        state = gx.ladder_apply(model_1d, +1, state)
        state = state.with_psi(state.psi / math.sqrt(n))  # normalize
        ref = gx.fock_state(model_1d, n, t, axis=fock_axis)
        assert gx.l2_distance(state, ref) <= 1e-7


def test_fock_orthonormality(model_1d, fock_axis):
    t = 0.7
    states = [gx.fock_state(model_1d, n, t, axis=fock_axis) for n in range(5)]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            expect = 1.0 if i == j else 0.0
            assert abs(gx.inner(si, sj) - expect) <= 1e-8


def test_fock_harmonic_limit():
    params = gx.Example1DParams(E=0.0)
    model = gx.model_1d(params, kappa=0.0)
    axis = gx.Axis(-12.0, 12.0, 1024)
    t = 0.9
    f0 = gx.fock_state(model, 0, t, axis=axis)
    ref = (1.0 / math.pi) ** 0.25 * np.exp(-axis.points ** 2 / 2.0) \
        * np.exp(-0.5j * t)  # ground state with its energy phase
    assert np.max(np.abs(f0.psi - ref)) <= 1e-10


def test_fock2_profile_at_t0(model_1d, params_1d, fock_axis):
    om = params_1d.Omega(KAPPA)
    x0 = params_1d.steady_center(KAPPA)
    f2 = gx.fock_state(model_1d, 2, 0.0, axis=fock_axis)
    dx = fock_axis.points - x0
    profile = (2.0 * om * dx ** 2 - 1.0) * np.exp(-om * dx ** 2 / 2.0)
    profile /= math.sqrt(fock_axis.delta * np.sum(profile ** 2))
    # i^2 = -1 prefactor; compare densities and the real-part shape
    overlap = fock_axis.delta * np.sum(np.conj(f2.psi) * profile)
    assert abs(abs(overlap) - 1.0) <= 1e-10


def test_fock_evolves_exactly(model_1d, fock_axis):
    for n in (1, 3):
        f = gx.fock_state(model_1d, n, 0.0, axis=fock_axis)
        out = gx.evolve(model_1d, f, 0.9)
        ref = gx.fock_state(model_1d, n, 0.9, axis=fock_axis)
        assert gx.l2_distance(out, ref) <= 1e-7


def test_momentum_op_matches_heisenberg_transport(fock_axis):
    """kappa = 0: conjugating the centered momentum operator through the
    evolution equals its classically transported combination."""
    params = gx.Example1DParams(E=0.0, a=0.0, b=0.0, c=0.0)
    model = gx.model_1d(params, kappa=0.0)
    om = params.Omega(0.0)
    axis = gx.Axis(-12.0, 12.0, 2048)
    psi = gx.gaussian_packet((axis,), 1.0, [0.8], [0.3], [om])
    t = 1.1
    mom = gx.IntertwinedOperator(((1.0, "p"),))
    got = gx.apply_symmetry(model, mom, gx.evolve(model, psi, t))
    # transported operator: cos(om t) dp + m om sin(om t) dx about z(t)
    Psi = gx.evolve(model, psi, t)
    z = gx.first_moments(Psi)
    op_t = gx.IntertwinedOperator(
        ((math.cos(om * t), "p"), (params.m * om * math.sin(om * t), "x")),
        center=(z[:1], z[1:]))
    ref = apply_polynomial(op_t, Psi)
    assert gx.l2_distance(got, ref) <= 1e-8


def test_one_parameter_family_group_law(model_1d, fock_axis):
    psi = gx.fock_state(model_1d, 0, 0.8, axis=fock_axis)
    gen = (1.0, 0.0, 0.0)  # i * dx
    b2 = gx.one_parameter_family(model_1d, gen, 0.2, psi)
    b12 = gx.one_parameter_family(model_1d, gen, 0.3, b2)
    b3 = gx.one_parameter_family(model_1d, gen, 0.5, psi)
    assert gx.l2_distance(b12, b3) <= 1e-7


def test_maps_in_a_non_default_coupling_family(model_1d, params_1d):
    """With kappa_tilde pinned away from model.kappa, the ladder and the
    one-parameter group act within that family."""
    kt = 0.3
    opts = gx.EvolveOptions(kappa_tilde=kt)
    x0 = params_1d.steady_center(kt)
    axis = gx.Axis(x0 - 12.0, x0 + 12.0, 2048)
    t = 0.6
    for n in (0, 2):
        fn = gx.fock_state(model_1d, n, t, axis=axis, kappa_tilde=kt)
        up = gx.ladder_apply(model_1d, +1, fn, opts=opts)
        ref = gx.fock_state(model_1d, n + 1, t, axis=axis, kappa_tilde=kt)
        coeff = gx.l2_norm(up)
        assert abs(coeff / math.sqrt(n + 1) - 1.0) <= 1e-6
        assert gx.l2_distance(up.with_psi(up.psi / coeff), ref) <= 1e-7
    psi = gx.fock_state(model_1d, 0, 0.8, axis=axis, kappa_tilde=kt)
    gen = (1.0, 0.0, 0.0)
    b2 = gx.one_parameter_family(model_1d, gen, 0.2, psi, opts=opts)
    b12 = gx.one_parameter_family(model_1d, gen, 0.3, b2, opts=opts)
    b3 = gx.one_parameter_family(model_1d, gen, 0.5, psi, opts=opts)
    assert gx.l2_distance(b12, b3) <= 1e-7


def test_one_parameter_family_alpha_zero(model_1d, fock_axis):
    psi = gx.fock_state(model_1d, 0, 0.8, axis=fock_axis)
    assert gx.one_parameter_family(model_1d, (1.0, 0.0, 0.0), 0.0, psi) is psi


@pytest.mark.parametrize("alpha", [0.0, 0.1])
@pytest.mark.parametrize("hbar, error", [(2.0, ModelError),
                                         (1.0, ResolutionError)])
def test_one_parameter_family_checks_the_state_at_every_alpha(alpha, hbar,
                                                              error):
    """A packet on the face of the box is refused at alpha = 0 as at any
    other alpha: at hbar = 2 by the model's hbar check, which comes first,
    and at the model's hbar by the resolution gate."""
    axis = gx.Axis(-6.0, 6.0, 256)
    psi = gx.gaussian_packet((axis,), hbar, [5.5], [0.0], [1.0])
    with pytest.raises(error):
        gx.one_parameter_family(gx.harmonic_model(), (1.0, 0.0, 0.0), alpha,
                                psi)


def test_scalar_generator_is_global_phase(model_1d, fock_axis):
    psi = gx.fock_state(model_1d, 0, 0.8, axis=fock_axis)
    out = gx.one_parameter_family(model_1d, (0.0, 0.0, 1.0), 0.7, psi)
    assert gx.l2_distance(out, psi.with_psi(np.exp(0.7j) * psi.psi)) <= 1e-8


def test_boost_generator_shifts_momentum(model_1d, fock_axis):
    psi = gx.fock_state(model_1d, 0, 0.0, axis=fock_axis)
    out = gx.one_parameter_family(model_1d, (1.0, 0.0, 0.0), 0.4, psi)
    z0 = gx.first_moments(psi)
    z1 = gx.first_moments(out)
    assert z1[0] == pytest.approx(z0[0] + 0.4, abs=1e-8)


def test_generator_central_difference_converges(model_1d, fock_axis):
    """(B(eps) - B(-eps)) / (2 eps) approaches a fixed grid function at
    second order in eps."""
    psi = gx.fock_state(model_1d, 0, 0.6, axis=fock_axis)
    gen = (1.0, 0.0, 0.0)

    def central(eps):
        plus = gx.one_parameter_family(model_1d, gen, eps, psi)
        minus = gx.one_parameter_family(model_1d, gen, -eps, psi)
        return (plus.psi - minus.psi) / (2.0 * eps)

    d1 = central(0.2)
    d2 = central(0.1)
    d3 = central(0.05)
    e1 = np.sqrt(psi.weight * np.sum(np.abs(d1 - d3) ** 2))
    e2 = np.sqrt(psi.weight * np.sum(np.abs(d2 - d3) ** 2))
    # second order: quartering eps shrinks the defect by ~4/... within the
    # Richardson pattern (e1/e2 -> 4 + 1 correction from the d3 anchor)
    assert e2 < 0.4 * e1


def test_symmetry_output_solves_equation(model_1d, fock_axis):
    """Continue the normalized symmetry image with the independent
    integrator and compare against the family's closed form."""
    t1, t2 = 0.5, 0.9
    f0 = gx.fock_state(model_1d, 0, t1, axis=fock_axis)
    up = gx.ladder_apply(model_1d, +1, f0)  # = Psi_1 at t1, unit norm
    cont = gx.split_step_evolve(model_1d, up, t2, gx.OracleConfig(dt=4.5e-3))
    ref = gx.fock_state(model_1d, 1, t2, axis=fock_axis)
    assert gx.l2_distance(cont, ref) <= 1e-5


def test_quasi_energy_harmonic_limit():
    params = gx.Example1DParams(E=0.0)
    model = gx.model_1d(params, kappa=0.0)
    w0 = math.sqrt(params.k / params.m)
    for n in range(4):
        assert gx.quasi_energy(model, n) == \
            pytest.approx(w0 * (n + 0.5), abs=1e-12)


def test_quasi_energy_undriven_nonlinear(model_1d, params_1d):
    params = gx.Example1DParams(E=0.0)
    model = gx.model_1d(params, kappa=KAPPA)
    om = params.Omega(KAPPA)
    for n in range(3):
        expect = (om + KAPPA * params.c / (2.0 * params.m * om)) * (n + 0.5)
        assert gx.quasi_energy(model, n) == pytest.approx(expect, rel=1e-14)


def test_quasi_periodicity_via_evolution(model_1d, params_1d, fock_axis):
    T = 2.0 * math.pi / params_1d.omega
    f0 = gx.fock_state(model_1d, 0, 0.0, axis=fock_axis)
    out = gx.evolve(model_1d, f0, T)
    expect = f0.with_psi(np.exp(-1j * gx.quasi_energy(model_1d, 0) * T)
                         * f0.psi, t=T)
    assert gx.l2_distance(out, expect) <= 1e-6


def test_polynomial_word_validation():
    with pytest.raises(Exception):
        gx.IntertwinedOperator(((1.0, "xxx"),))
    with pytest.raises(Exception):
        gx.IntertwinedOperator(((1.0, "q"),))


@pytest.mark.parametrize("n", [-1, 1.5])
def test_quasi_energy_needs_a_nonnegative_integer_level(model_1d, n):
    """A negative or fractional level has no quasi-energy: the formula
    alone would give one for either."""
    with pytest.raises(ValueError, match=f"quantum number n = {n}"):
        gx.quasi_energy(model_1d, n)


def test_fock_state_needs_an_integer_level(model_1d, fock_axis):
    """A fractional level is named before the Hermite polynomial is
    evaluated."""
    with pytest.raises(ValueError, match="quantum number n = 1.5"):
        gx.fock_state(model_1d, 1.5, 0.3, axis=fock_axis)


def test_ladder_sign_is_plus_or_minus_one(model_1d, fock_axis):
    """A sign of 0 is refused before the pullback, not taken as lowering."""
    psi = gx.fock_state(model_1d, 1, 0.3, axis=fock_axis)
    with pytest.raises(ValueError, match="ladder sign = 0"):
        gx.ladder_apply(model_1d, 0, psi)


def test_fock_state_default_axis(model_1d, params_1d, fock_axis):
    """Without an axis, the state is sampled on 2048 points across +-12
    around the steady center: the grid of ``fock_axis``."""
    state = gx.fock_state(model_1d, 2, 0.3)
    assert state.axes == (fock_axis,)
    assert state.hbar == model_1d.hbar and state.t == 0.3
    assert np.array_equal(state.psi,
                          gx.fock_state(model_1d, 2, 0.3, axis=fock_axis).psi)
    assert gx.norm_squared(state) == pytest.approx(1.0, abs=1e-10)
