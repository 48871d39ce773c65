import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gpexact as gx
from gpexact import kernel
from gpexact.ehrenfest import symplectic_inverse
from gpexact.errors import CausticError, ModelError
from gpexact.kernel import conjugate_point_units

from conftest import KAPPA, driven_models, signed_models


def make_context(model, kt, g0, s, t, rtol=1e-12, atol=1e-14):
    traj = gx.integrate_moments(model, kt, g0, s, t, rtol=rtol, atol=atol)
    return gx.build_kernel_context(traj, s, t), traj


def plain_point(n=1, z=None, width=0.5):
    z = np.zeros(2 * n) if z is None else np.asarray(z, float)
    d = np.diag([0.5 / width] * n + [width] * n)
    return gx.MomentPoint(z, d)


def test_action_free_particle():
    model = gx.free_model(mass=1.4)
    p0 = 0.8
    g0 = plain_point(z=[p0, 0.0])
    traj = gx.integrate_moments(model, 0.0, g0, 0.2, 1.9)
    assert traj.action(1.9) - traj.action(0.2) == \
        pytest.approx(p0 ** 2 * 1.7 / (2 * 1.4), rel=1e-10)


def test_action_harmonic_at_rest():
    model = gx.harmonic_model(omega=1.1)
    g0 = gx.MomentPoint(np.zeros(2), np.diag([0.55, 1.0 / (2 * 1.1)]))
    traj = gx.integrate_moments(model, 0.0, g0, 0.0, 2.0)
    assert traj.action(2.0) - traj.action(0.0) == \
        pytest.approx(0.0, abs=1e-12)


def test_action_secular_rate_matches_quasi_energy(model_1d, params_1d):
    """Over one drive period the action's secular part must reproduce the
    non-oscillator share of the quasi-energy."""
    om = params_1d.Omega(KAPPA)
    for n in (0, 2):
        sxx = (2 * n + 1) / (2.0 * params_1d.m * om)
        g0 = gx.MomentPoint(
            np.array([0.0, params_1d.steady_center(KAPPA)]),
            np.diag([(params_1d.m * om) ** 2 * sxx, sxx]))
        T = 2.0 * math.pi / params_1d.omega
        traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, T)
        dS = traj.action(T) - traj.action(0.0)
        expected = om * (n + 0.5) - dS / T
        assert expected == pytest.approx(gx.quasi_energy(model_1d, n),
                                         rel=1e-9)


def test_free_propagator_closed_form():
    m = 1.4
    model = gx.free_model(mass=m)
    ctx, _ = make_context(model, 0.0, plain_point(z=[0.6, -0.2]), 0.0, 1.3)
    rng = np.random.default_rng(0)
    xs, ys = rng.normal(size=50), rng.normal(size=50)
    got = gx.green_function(ctx, xs, ys)
    ref = np.sqrt(m / (2j * np.pi * 1.3)) \
        * np.exp(1j * m * (xs - ys) ** 2 / (2 * 1.3))
    assert np.max(np.abs(got - ref)) < 1e-12


def test_delta_limit_reproduces_short_time_evolution():
    """tau -> s: quadrature against the kernel matches the spectrally exact
    free evolution pointwise."""
    model = gx.free_model()
    ax = gx.Axis(-8.0, 8.0, 32768)
    psi = gx.gaussian_packet((ax,), 1.0, [0.3], [0.4], [4.0])
    tau = 1e-3
    ctx, _ = make_context(model, 0.0,
                             gx.constants_of_motion(model, psi).point,
                             0.0, tau)
    idx = np.arange(12288, 20480, 256)  # sample exact grid points
    xs = ax.points[idx]
    w = ax.delta
    vals = np.array([w * np.sum(gx.green_function(
        ctx, np.full(ax.num, xv), ax.points) * psi.psi) for xv in xs])
    k = ax.wavenumbers
    exact = np.fft.ifft(np.exp(-1j * k ** 2 * tau / 2.0) * np.fft.fft(psi.psi))
    assert np.max(np.abs(vals - exact[idx])) < 1e-6


def test_harmonic_kernel_vs_closed_form_1d(model_1d, params_1d):
    om = params_1d.Omega(KAPPA)
    g0 = plain_point(z=[0.3, 0.9], width=1.0 / (2 * om))
    rng = np.random.default_rng(5)
    for t in (0.7, 1.9, 2.7):
        ctx, traj = make_context(model_1d, KAPPA, g0, 0.0, t)
        xs = rng.normal(scale=1.5, size=100)
        ys = rng.normal(scale=1.5, size=100)
        got = gx.green_function(ctx, xs, ys)
        ref = gx.closed_form_kernel_1d(traj, xs, ys, t, 0.0)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_closed_form_kernel_past_caustic(model_1d, params_1d):
    """Winding branch of the closed form stays consistent with the tracked
    generic assembly beyond the first conjugate point."""
    om = params_1d.Omega(KAPPA)
    g0 = plain_point(width=1.0 / (2 * om))
    t = 1.2 * math.pi / om
    ctx, traj = make_context(model_1d, KAPPA, g0, 0.0, t)
    xs = np.linspace(-1.0, 1.0, 17)
    got = gx.green_function(ctx, xs, xs[::-1])
    ref = gx.closed_form_kernel_1d(traj, xs, xs[::-1], t, 0.0)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_closed_forms_need_their_example(model_1d):
    """Each closed form reads its parameters off the trajectory's model and
    refuses a model built from anything else."""
    traj = gx.integrate_moments(model_1d, KAPPA, plain_point(), 0.0, 1.0)
    free = gx.integrate_moments(gx.free_model(), 0.0, plain_point(), 0.0, 1.0)
    for t in (traj, free):
        with pytest.raises(ModelError, match="Example3DParams"):
            gx.closed_form_kernel_3d(t, np.zeros(3), np.zeros(3), 1.0, 0.0)
    with pytest.raises(ModelError, match="Example1DParams"):
        gx.closed_form_kernel_1d(free, 0.0, 0.0, 1.0, 0.0)


def test_quarter_period_pure_cross_kernel():
    om, m = 1.0, 1.0
    model = gx.harmonic_model(omega=om, mass=m)
    t = 0.5 * math.pi / om
    ctx, _ = make_context(model, 0.0, plain_point(), 0.0, t)
    # cos(om t) = 0: no diagonal quadratic terms remain
    assert abs(ctx.m_xx[0, 0]) < 1e-9 and abs(ctx.m_yy[0, 0]) < 1e-9
    g = gx.green_function(ctx, 1.3, 0.7)
    ref = math.sqrt(m * om / (2 * math.pi)) * np.exp(-0.25j * math.pi) \
        * np.exp(-1j * m * om * 1.3 * 0.7)
    assert abs(g - ref) < 1e-10


def test_prefactor_modulus_and_determinant_identity(model_1d, params_1d):
    om = params_1d.Omega(KAPPA)
    g0 = plain_point(width=1.0 / (2 * om))
    for t in (0.5, 1.4, 2.6):
        ctx, _ = make_context(model_1d, KAPPA, g0, 0.0, t)
        expect = math.sqrt(om / (2 * math.pi * abs(math.sin(om * t))))
        assert abs(ctx.prefactor) == pytest.approx(expect, rel=1e-9)
        # branch-tracked square root still squares back to the determinant
        D = (-2j * math.pi) ** 1 * ctx.det_l3
        assert ctx.prefactor ** 2 * D == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_hermitian_reversal(model_1d):
    g0 = plain_point(z=[0.2, 0.8])
    for t in (1.1, 3.4):  # the second crosses a conjugate point
        traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, t)
        ctx_f = gx.build_kernel_context(traj, 0.0, t)
        traj_b = gx.integrate_moments(model_1d, KAPPA, traj.point(t), t, 0.0)
        ctx_b = gx.build_kernel_context(traj_b, t, 0.0)
        xs = np.linspace(-1.5, 1.5, 11)
        ys = np.linspace(-1.0, 2.0, 11)
        fwd = gx.green_function(ctx_f, xs, ys)
        bwd = gx.green_function(ctx_b, ys, xs)
        assert np.max(np.abs(fwd - np.conj(bwd))) < 1e-9


def test_branch_continuity_no_jumps(model_1d):
    g0 = plain_point()
    phases = []
    times = np.linspace(0.15, 2.6, 40)
    for t in times:
        ctx, _ = make_context(model_1d, KAPPA, g0, 0.0, t)
        phases.append(np.angle(ctx.prefactor))
    diffs = np.abs(np.diff(np.unwrap(phases)))
    assert diffs.max() < 0.5


def test_kernel_columns_unit_norm_at_critical_sampling():
    """The chirped kernel matrix is unitary when one box side maps exactly
    onto one reciprocal cell: delta = 2 pi hbar |l3| / L."""
    m, om, t = 1.0, 1.0, 1.0
    model = gx.harmonic_model(omega=om, mass=m)
    L = 20.0
    l3 = abs(math.sin(om * t) / (m * om))
    num = int(round(L ** 2 / (2 * math.pi * l3)))
    num += num % 2
    ax = gx.Axis(-L / 2, L / 2, num)
    ctx, _ = make_context(model, 0.0, plain_point(), 0.0, t)
    cols = gx.green_function(ctx, ax.points[:, None, None],
                             ax.points[None, :, None])
    colnorm = np.sqrt(np.sum(np.abs(cols * ax.delta) ** 2, axis=0))
    # N is the nearest even integer to the critical count, so the column
    # norms deviate from one by that rounding alone
    crit = L ** 2 * abs(ctx.prefactor) ** 2 / num
    assert np.max(np.abs(colnorm - math.sqrt(crit))) < 1e-10
    assert crit == pytest.approx(1.0, abs=0.02)


def test_norm_preservation_through_quadrature(model_1d, axis_2048, params_1d):
    om = params_1d.Omega(KAPPA)
    psi = gx.gaussian_packet((axis_2048,), 1.0, [1.0], [0.0], [om])
    out = gx.evolve(model_1d, psi, 1.2)
    assert gx.norm_squared(out) == pytest.approx(1.0, abs=1e-9)


def test_caustic_raises(model_1d, params_1d):
    om = params_1d.Omega(KAPPA)
    g0 = plain_point(width=1.0 / (2 * om))
    t = math.pi / om  # conjugate point
    traj = gx.integrate_moments(model_1d, KAPPA, g0, 0.0, t)
    with pytest.raises(CausticError):
        gx.build_kernel_context(traj, 0.0, t)
    with pytest.raises(CausticError):
        gx.oscillator_kernel_factor(0.1, 0.2, t, 0.0, 0.0, 1.0, 1.0, om)


def make_3d_setup(h_field=0.4):
    p = gx.Example3DParams(H_field=h_field, V0=0.3, gamma=1.5)
    model = gx.model_3d(p, kappa=1.0)
    kt = 0.5
    z0 = np.array([0.1, -0.05, 0.2, 0.3, 0.4, -0.1])
    delta = np.diag([0.5, 0.6, 0.55, 0.5, 0.45, 0.5])
    return p, model, kt, gx.MomentPoint(z0, delta)


def test_3d_kernel_generic_vs_closed_form():
    p, model, kt, g0 = make_3d_setup()
    rng = np.random.default_rng(21)
    for t in (0.9, 2.4, 3.8):  # last crosses both kinds of conjugate point
        traj = gx.integrate_moments(model, kt, g0, 0.0, t)
        ctx = gx.build_kernel_context(traj, 0.0, t)
        xs = rng.normal(scale=1.0, size=(50, 3))
        ys = rng.normal(scale=1.0, size=(50, 3))
        got = gx.green_function(ctx, xs, ys)
        ref = gx.closed_form_kernel_3d(traj, xs, ys, t, 0.0)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_3d_closed_form_reduces_without_field():
    p, model, kt, g0 = make_3d_setup(h_field=0.0)
    t = 1.1
    traj = gx.integrate_moments(model, kt, g0, 0.0, t)
    xs = np.array([0.3, -0.2, 0.5])
    ys = np.array([-0.1, 0.4, 0.2])
    full = gx.closed_form_kernel_3d(traj, xs, ys, t, 0.0)
    w1, w2 = p.frequencies(kt)
    parts = 1.0
    for a, w in ((0, w1), (1, w1), (2, w2)):
        parts = parts * gx.oscillator_kernel_factor(
            xs[a] - traj.position(t)[a], ys[a] - traj.position(0.0)[a], t,
            traj.momentum(t)[a], traj.momentum(0.0)[a], p.m, 1.0, w)
    parts = parts * np.exp(1j * (traj.action(t) - traj.action(0.0)))
    assert abs(full - parts) < 1e-12


def test_3d_isotropic_limit_is_harmonic_product():
    p = gx.Example3DParams(H_field=0.0, V0=0.0, E_field=0.0, k=1.0)
    model = gx.model_3d(p, kappa=0.0)
    w1, w2 = p.frequencies(0.0)
    assert w1 == pytest.approx(w2, rel=1e-14) == pytest.approx(1.0, rel=1e-14)
    g0 = gx.MomentPoint(np.zeros(6), np.diag([0.5] * 6))
    t = 0.9
    ctx, _ = make_context(model, 0.0, g0, 0.0, t)
    x = np.array([0.4, -0.3, 0.2])
    y = np.array([0.1, 0.5, -0.2])
    got = gx.green_function(ctx, x, y)
    one_d = [gx.oscillator_kernel_factor(x[a], y[a], t, 0.0, 0.0, 1.0, 1.0,
                                         1.0) for a in range(3)]
    assert abs(got - one_d[0] * one_d[1] * one_d[2]) < 1e-12


def test_kernel_csv_dump(tmp_path, model_1d):
    from gpexact.kernel import dump_kernel_csv
    ctx, _ = make_context(model_1d, KAPPA, plain_point(), 0.0, 1.0)
    path = tmp_path / "kernel.csv"
    dump_kernel_csv(ctx, [0.0, 0.5], [-0.5, 0.5], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 5


@st.composite
def stable_legs(draw):
    """A random quadratic model with positive-definite Hzz (a stable flow
    with positive-definite Hpp), its trajectory, and a leg a -> b of it in
    either time direction."""
    n = draw(st.sampled_from([1, 2]))
    d = 2 * n
    entries = draw(st.lists(st.floats(-0.7, 0.7), min_size=d * d,
                            max_size=d * d))
    M = np.array(entries).reshape(d, d)
    floor = draw(st.floats(0.5, 2.0))  # bounds every frequency below
    model = gx.make_model(n, 1.0, 1.0, 0.0, M @ M.T + floor * np.eye(d),
                          np.zeros(d))
    T = draw(st.floats(3.0, 15.0)) * draw(st.sampled_from([1.0, -1.0]))
    traj = gx.integrate_variations(model, 0.0, 0.0, T)
    fa, fb = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    assume(abs(fa - fb) > 0.05)
    return model, traj, fa * T, fb * T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(stable_legs())
def test_leg_count_matches_sign_changes(leg):
    """The exact count equals the sign changes of det l3(tau, a) on a fine
    grid, on legs whose zeros are all simple and resolved by the grid."""
    _, traj, a, b = leg
    taus = a + (b - a) * np.arange(1, 3001) / 3000.0
    A = traj.matriciants(taus) @ symplectic_inverse(traj(a))  # A(tau, a)
    d = np.linalg.det(-A[:, traj.n:, :traj.n])  # l3 = -A[n:, :n]^T
    scale = np.max(np.abs(d))
    assume(abs(d[-1]) > 1e-3 * scale)
    flips = np.flatnonzero(np.sign(d[:-1]) != np.sign(d[1:]))
    assume(np.all(np.diff(flips) > 10))  # zeros well apart
    ad = np.abs(d)
    for i in range(1, ad.size - 1):
        if ad[i] <= ad[i - 1] and ad[i] <= ad[i + 1] and \
                not (set(flips) & {i - 1, i}):
            assume(ad[i] > 0.05 * scale)  # no near-touch of zero
    assert conjugate_point_units(traj, a, b) == flips.size


@settings(max_examples=40, deadline=None, derandomize=True)
@given(stable_legs())
def test_prefactor_squares_to_inverse_determinant(leg):
    model, traj, a, b = leg
    try:
        ctx = gx.build_kernel_context(traj, a, b)
    except CausticError:
        assume(False)
    D = np.linalg.det(-2j * math.pi * model.hbar * ctx.l3)
    assert ctx.prefactor ** 2 * D == pytest.approx(1.0 + 0.0j, abs=1e-9)


def test_trajectory_rejects_times_outside_its_range(model_1d):
    traj = gx.integrate_variations(model_1d, KAPPA, 0.0, 2.0)
    for tau in (-0.1, 2.1):
        with pytest.raises(ValueError):
            traj(tau)
        with pytest.raises(ValueError):
            traj.between(0.0, tau)


def test_branch_for_negative_momentum_block():
    """Reversing the sign of H runs the flow backward in time: the kernel
    of -H over +t is the kernel of H over -t, and a model whose momentum
    block is indefinite factors into one forward and one backward axis."""
    h = np.diag([1.0, 1.0])
    model = gx.make_model(1, 1.0, 1.0, 0.0, h, np.zeros(2))
    flipped = gx.make_model(1, 1.0, 1.0, 0.0, -h, np.zeros(2))
    mixed = gx.make_model(2, 1.0, 1.0, 0.0, np.diag([1.0, -1.0, 1.0, -1.0]),
                          np.zeros(4))
    for t in (0.5, 2.0, 4.0, 7.0):  # 0, 0, 1 and 2 conjugate points
        fwd = make_context(model, 0.0, plain_point(), 0.0, t)[0].prefactor
        bwd = make_context(model, 0.0, plain_point(), 0.0, -t)[0].prefactor
        neg = make_context(flipped, 0.0, plain_point(), 0.0, t)[0].prefactor
        mix = make_context(mixed, 0.0, plain_point(2), 0.0, t)[0].prefactor
        assert neg == pytest.approx(bwd, abs=1e-10)
        assert mix == pytest.approx(fwd * bwd, abs=1e-10)


# -- the stacked branch tracker against the tracker one node at a time -----

def winding_node_by_node(traj, a, b):
    """The winding of the leg a -> b with one ``traj(tau)`` and one det per
    node, halving every step whose phase increment exceeds pi/4."""
    n = traj.n
    frame_a = symplectic_inverse(traj(a))[:, :n]

    def det_u(tau):
        F = traj(tau) @ frame_a
        return complex(np.linalg.det(F[n:] + 1j * F[:n]))

    lo, hi = min(a, b), max(a, b)
    nodes = [tau for tau in sorted(traj.step_times, reverse=bool(b < a))
             if lo < tau < hi] + [b]
    tau0, u0, half_theta = a, 1j ** n, 0.0
    for node in nodes:
        pending = [(node, det_u(node))]
        while pending:
            tau1, u1 = pending[-1]
            step = float(np.angle(u1 / u0))
            if abs(step) > math.pi / 4:
                assert len(pending) <= 50
                mid = 0.5 * (tau0 + tau1)
                pending.append((mid, det_u(mid)))
                continue
            half_theta += step
            tau0, u0 = pending.pop()
    theta = n * math.pi + 2.0 * half_theta
    F = traj(b) @ frame_a
    U = F[n:] + 1j * F[:n]
    W = U @ np.linalg.inv(U.conj())
    return round((float(np.sum(np.angle(np.linalg.eigvals(W)))) - theta)
                 / (2.0 * math.pi))


def legs_of(T, fa, fb):
    """The whole interval both ways, and a sub-leg with ends off the nodes
    both ways, as the planner's bisection makes them."""
    return [(0.0, T), (T, 0.0), (fa * T, fb * T), (fb * T, fa * T)]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(driven_models(), st.floats(0.05, 0.45), st.floats(0.55, 0.95))
def test_stacked_winding_matches_node_by_node(case, fa, fb):
    """Drive as data (one batched exponential) and as a closure (stored
    Magnus node flows, a sub-step off the nodes), in either direction."""
    data, closure, g0, T = case
    for model in (data, closure):
        traj = gx.integrate_moments(model, model.kappa, g0, 0.0, T)
        for a, b in legs_of(T, fa, fb):
            assert kernel._frame_winding(traj, a, b) == \
                winding_node_by_node(traj, a, b)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(signed_models(), st.floats(0.05, 0.45), st.floats(0.55, 0.95))
def test_stacked_winding_matches_node_by_node_signed(case, fa, fb):
    model, T = case
    traj = gx.integrate_variations(model, model.kappa, 0.0, T)
    for a, b in legs_of(T, fa, fb):
        assert kernel._frame_winding(traj, a, b) == \
            winding_node_by_node(traj, a, b)


def count_matriciants(monkeypatch) -> list:
    """Spy on ``MomentTrajectory.matriciants``: one entry per stacked call."""
    calls = []
    stacked = gx.ehrenfest.MomentTrajectory.matriciants

    def counted(traj, times):
        calls.append(times)
        return stacked(traj, times)

    monkeypatch.setattr(gx.ehrenfest.MomentTrajectory, "matriciants", counted)
    return calls


def test_winding_falls_back_to_halving_on_thinned_nodes(monkeypatch, model_1d,
                                                        parametric_model):
    """With only the ends of a leg across Omega t = pi as nodes, the phase
    increments exceed pi/4 and are halved in stacked rounds: the winding
    is the same as on the full node set."""
    calls = count_matriciants(monkeypatch)
    g0 = plain_point()
    for model in (model_1d, parametric_model):
        traj = gx.integrate_moments(model, KAPPA, g0, 0.0, 4.5)
        calls.clear()
        full = kernel._frame_winding(traj, 0.0, 4.5)
        assert len(calls) == 1 and full == winding_node_by_node(traj, 0.0, 4.5)
        traj.step_times = traj.step_times[[0, -1]]
        calls.clear()
        assert kernel._frame_winding(traj, 0.0, 4.5) == full
        assert len(calls) > 1


def test_nd_winding_refines_in_stacked_rounds(monkeypatch):
    """A 3D leg whose det phase turns by more than pi/4 between nodes is
    refined in whole rounds, not one exponential per midpoint."""
    model = gx.model_3d(gx.Example3DParams(), kappa=0.5)
    g0 = gx.MomentPoint(np.zeros(6), 0.5 * np.eye(6))
    traj = gx.integrate_moments(model, 0.5, g0, 0.0, 2.5)
    calls = count_matriciants(monkeypatch)
    for (a, b), m in (((0.0, 2.5), 0), ((2.5, 0.0), -3)):
        calls.clear()
        assert kernel._frame_winding(traj, a, b) == m
        assert len(calls) <= 2
        assert winding_node_by_node(traj, a, b) == m


def test_branch_samples_do_not_grow_with_the_nodes(monkeypatch, model_1d):
    """A leg's context asks the trajectory's memoized ``__call__`` for the
    ends of the leg only; the node frames come from one stacked
    evaluation."""
    calls = []
    call = gx.ehrenfest.MomentTrajectory.__call__

    def counted(traj, tau):
        calls.append(tau)
        return call(traj, tau)

    monkeypatch.setattr(gx.ehrenfest.MomentTrajectory, "__call__", counted)
    counts = []
    for T, nodes in ((1.0, 4), (7.5, 17)):
        traj = gx.integrate_moments(model_1d, KAPPA, plain_point(), 0.0, T)
        assert len(traj.step_times) == nodes
        calls.clear()
        gx.build_kernel_context(traj, 0.0, T)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4
