"""Independent split-step spectral reference integrator and residual checks.

The second-order Strang step K/2 V K/2 (K a kinetic step, a spectral
multiplier; V a potential step) is composed into Suzuki's symmetric
fourth-order scheme (M. Suzuki, Phys. Lett. A 146, 319 (1990)): one step of
length dt is five Strang substeps of lengths p dt, p dt, (1 - 4p) dt, p dt,
p dt with p = 1/(4 - 4^(1/3)), so the middle one runs backward.  The half
kinetic steps that meet between consecutive substeps are fused into one, so
each substep costs one forward/inverse FFT pair.  The potential of a
substep is built from the position moments of the state at the substep's
midpoint, read in position space after its first kinetic half, exactly
where the unfused composition reads them.  The nonlocal quadratic coupling
collapses exactly to a time-dependent quadratic potential built from those
moments, so no convolution is needed.  Both part flows are exact for either
sign of the substep, and the potential flow leaves |psi|^2 unchanged, so
the composition is fourth order in dt; used only to certify the kernel
propagator, never the other way around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fftn, ifftn

from .errors import ModelError, ResolutionError, StabilityError
from .model import QuadraticModel
from .moments import _moment_pass, centered_apply
from .state import GridState, check_resolved


NORM_DRIFT_TOL = 1e-6  # largest relative norm drift over a run
PHASE_STEP_BOUND = 0.5  # largest |V| |substep| / hbar of one potential step

_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
# substep lengths in units of dt, and each substep's midpoint offset from
# the start of its step
_WEIGHTS = np.array([_P, _P, 1.0 - 4.0 * _P, _P, _P])
_MIDPOINTS = np.cumsum(_WEIGHTS) - 0.5 * _WEIGHTS


@dataclass(frozen=True)
class OracleConfig:
    dt: float = 4.5e-3


def _kinetic_split(model: QuadraticModel, tau: float, kinetic: np.ndarray):
    """Hzz(tau) and Hz(tau), checked to split into the kinetic term (the
    momentum rows of Hzz are ``kinetic`` = [I/m, 0]) and a potential."""
    n = model.n
    hzz, hz = model.Hzz(tau), model.Hz(tau)
    dev = np.abs(hzz[:n] - kinetic)
    if dev[:, n:].max() > 1e-14:
        raise ModelError("split-step oracle requires vanishing momentum-"
                         f"position coupling in Hzz (t = {tau:.6g})")
    if dev[:, :n].max() > 1e-12:
        raise ModelError(f"split-step oracle requires Hpp = I/m (t = {tau:.6g})")
    if np.abs(hz[:n]).max() > 1e-14:
        raise ModelError("split-step oracle requires a position-only Hz "
                         f"(t = {tau:.6g})")
    return hzz, hz


def _position_blocks(model: QuadraticModel):
    """The oracle needs a pure kinetic + position-potential split."""
    n = model.n
    kinetic = np.eye(n, 2 * n) / model.mass
    _kinetic_split(model, 0.0, kinetic)
    for name, W in (("Wzz", model.Wzz), ("Wzw", model.Wzw), ("Www", model.Www)):
        if np.max(np.abs(W[:n, :])) > 0.0 or np.max(np.abs(W[:, :n])) > 0.0:
            raise ModelError(f"{name} must couple positions only")
    return kinetic, model.Wzz[n:, n:], model.Wzw[n:, n:], model.Www[n:, n:]


def split_step_evolve(model: QuadraticModel, psi: GridState, t: float,
                      cfg: OracleConfig | None = None) -> GridState:
    """Propagate from the state's time label to t with the composed
    splitting; the model is checked first, then the state."""
    cfg = cfg or OracleConfig()
    kinetic, Wa, Wb, Wc = _position_blocks(model)
    check_resolved(psi)
    s = psi.t
    if t == s:
        return psi
    n = model.n
    hbar = model.hbar
    w = psi.weight
    # the norm sets the coupling, as in the moment record
    norm0 = float(w * np.sum(np.abs(psi.psi) ** 2))
    if norm0 == 0.0:
        raise ResolutionError("zero-norm state has no mean field")
    kt = model.kappa * norm0
    kt_Wa = kt * Wa

    steps = max(1, round(abs(t - s) / cfg.dt))
    dt = (t - s) / steps

    # everything that does not change from substep to substep: the position
    # monomials x_a x_b and x_a as the rows of one matrix (the moments and
    # the potential of a substep are each one product with it), and the
    # three fused kinetic multipliers
    axes = psi.axes
    shape = tuple(ax.num for ax in axes)
    x = np.stack([g.ravel() for g in psi.grids(sparse=False)])
    mono = np.vstack([(x[:, None] * x[None, :]).reshape(n * n, -1), x])
    k2 = sum(np.meshgrid(*(ax.wavenumbers ** 2 for ax in axes),
                         indexing="ij", sparse=True))

    def kinetic_step(frac):
        return np.exp(-1j * hbar * k2 * (frac * dt) / (2.0 * model.mass))

    kin_edge = kinetic_step(_P / 2.0)
    kin_outer = kinetic_step(_P)
    kin_inner = kinetic_step((1.0 - 3.0 * _P) / 2.0)
    # the fused kinetic step after each substep of a step
    after = (kin_outer, kin_inner, kin_inner, kin_outer, kin_outer)
    phase = np.empty(x.shape[1], dtype=np.complex128)

    spec = fftn(psi.psi)
    spec *= kin_edge
    for sub in range(5 * steps):
        step, j = divmod(sub, 5)
        h = _WEIGHTS[j] * dt
        tau_mid = s + (step + _MIDPOINTS[j]) * dt
        arr = ifftn(spec, overwrite_x=True).reshape(-1)
        # the position moments at the substep's midpoint set its potential
        dens = arr.real ** 2
        dens += arr.imag ** 2
        mom = (mono @ dens) / dens.sum()
        mean = mom[n * n:]
        cov = mom[:n * n].reshape(n, n) - np.outer(mean, mean)
        hzz, hz = _kinetic_split(model, tau_mid, kinetic)
        lin = hz[n:] + kt * (Wb @ mean)
        scal = 0.5 * kt * (float(mean @ Wc @ mean) + float(np.trace(Wc @ cov)))
        coef = np.concatenate([0.5 * (hzz[n:, n:] + kt_Wa).ravel(), lin])
        v = coef @ mono
        v += scal
        if float(np.max(np.abs(v))) * abs(h) / hbar >= PHASE_STEP_BOUND:
            raise StabilityError(
                f"potential phase step exceeds {PHASE_STEP_BOUND} rad "
                f"at t = {tau_mid:.4g}; reduce dt")
        v *= -h / hbar
        np.cos(v, out=phase.real)
        np.sin(v, out=phase.imag)
        arr *= phase
        spec = fftn(arr.reshape(shape), overwrite_x=True)
        spec *= after[j] if sub + 1 < 5 * steps else kin_edge
    arr = ifftn(spec, overwrite_x=True)

    norm1 = float(w * np.sum(np.abs(arr) ** 2))
    if abs(norm1 - norm0) > NORM_DRIFT_TOL * norm0:
        raise StabilityError(
            f"norm drifted by {abs(norm1 - norm0) / norm0:.3e} over the run")
    return GridState(axes, arr, t, hbar)


def apply_effective_hamiltonian(model: QuadraticModel,
                                state: GridState) -> np.ndarray:
    """Act with the full mean-field Hamiltonian on the state, the moment
    record taken from the state itself: scal + <hz, dz> + 1/2 <dz, hzz dz>
    in the centered operators dz = z - <z> (spectral momenta).  The double
    sum runs over both orders of every pair, and hzz is symmetric, so it is
    exactly the Weyl ordering of the mixed p-x terms."""
    check_resolved(state)
    return _apply_hamiltonian(model, state)


def _apply_hamiltonian(model: QuadraticModel, state: GridState) -> np.ndarray:
    """:func:`apply_effective_hamiltonian` without the resolution gate."""
    n = state.n
    nrm, z, Delta = _moment_pass(state)
    kt = model.kappa * nrm
    t = state.t
    hzz = model.Hzz(t) + kt * model.Wzz
    hz = model.Hz(t) + (model.Hzz(t) + kt * (model.Wzz + model.Wzw)) @ z
    M = model.Hzz(t) + kt * (model.Wzz + 2.0 * model.Wzw + model.Www)
    scal = 0.5 * float(z @ M @ z) + float(model.Hz(t) @ z) \
        + 0.5 * kt * float(np.trace(model.Www @ Delta))
    c = [centered_apply(state, state.psi, i, z[i]) for i in range(2 * n)]
    out = scal * state.psi
    for i in range(2 * n):
        out = out + hz[i] * c[i]
    for i, j in zip(*np.nonzero(hzz)):
        out = out + 0.5 * hzz[i, j] * centered_apply(state, c[j], i, z[i])
    return out


def gpe_residual(model: QuadraticModel, snapshots, dt: float) -> float:
    """L2 residual of the equation on three consecutive snapshots, time
    derivative by central difference, spatial operators spectral.

    A diagnostic: it stays evaluatable on deliberately imperfect states, so
    the Hamiltonian is applied without the resolution gate of
    :func:`apply_effective_hamiltonian`.
    """
    before, mid, after = snapshots
    if before.axes != mid.axes or mid.axes != after.axes:
        raise ValueError("snapshots must share one grid")
    if not math.isclose(after.t - mid.t, dt, rel_tol=1e-9) or \
            not math.isclose(mid.t - before.t, dt, rel_tol=1e-9):
        raise ValueError("snapshots must be uniformly spaced by dt")
    dpsi_dt = (after.psi - before.psi) / (2.0 * dt)
    resid = -1j * model.hbar * dpsi_dt + _apply_hamiltonian(model, mid)
    return float(np.sqrt(mid.weight * np.sum(np.abs(resid) ** 2)))
