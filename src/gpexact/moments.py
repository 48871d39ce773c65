"""Norms and symmetrized phase-space moments of grid states.

A state's moment record (its norm, its means z and its centered second
moments Delta) is read in one pass: |psi|^2, the norm, the grids and each
p_a psi are formed once, z is read off them and Delta from z.  Means follow
the normalized convention <A> = <psi|A|psi>/|psi|^2, also for unnormalized
inputs.  Momentum operators act spectrally; position moments use the
trapezoid rule, which is spectrally accurate for states that decay inside
the box.  Every function here holds its input to :func:`check_resolved`;
only :func:`constants_of_motion` can be told to skip that gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ehrenfest import MomentPoint
from .errors import ResolutionError
from .model import QuadraticModel
from .state import GridState, check_resolved, momentum_apply


def _moment_pass(state: GridState, z: np.ndarray | None = None,
                 second: bool = True
                 ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """(norm^2, z, Delta) in one pass; z is computed unless given, and
    Delta is None unless ``second``."""
    n = state.n
    w = state.weight
    psi = state.psi
    dens = np.abs(psi) ** 2
    nrm = float(w * dens.sum())
    if nrm == 0.0:
        raise ResolutionError("zero-norm state has no moments")
    pts = state.grids()
    dpsi = [momentum_apply(state, psi, a) for a in range(n)]  # p_a psi
    if z is None:
        z = np.empty(2 * n)
        for a in range(n):
            z[n + a] = float(w * np.sum(dens * pts[a])) / nrm
            z[a] = float(np.real(w * np.vdot(psi, dpsi[a]))) / nrm
    if not second:
        return nrm, z, None
    dx = [pts[a] - z[n + a] for a in range(n)]
    for a in range(n):
        dpsi[a] -= z[a] * psi  # now (p_a - <p_a>) psi

    spp = np.empty((n, n))
    spx = np.empty((n, n))
    sxx = np.empty((n, n))
    for a in range(n):
        for b in range(a, n):
            spp[a, b] = spp[b, a] = float(
                np.real(w * np.vdot(dpsi[a], dpsi[b]))) / nrm
            sxx[a, b] = sxx[b, a] = float(
                w * np.sum(dens * dx[a] * dx[b])) / nrm
        for b in range(n):
            spx[a, b] = float(
                np.real(w * np.vdot(psi, dx[b] * dpsi[a]))) / nrm
    out = np.block([[spp, spx], [spx.T, sxx]])
    return nrm, z, 0.5 * (out + out.T)


def norm_squared(state: GridState) -> float:
    check_resolved(state)
    return float(state.weight * np.sum(np.abs(state.psi) ** 2))


def first_moments(state: GridState) -> np.ndarray:
    """Return (<p_1..p_n>, <x_1..x_n>), normalized by the squared norm."""
    check_resolved(state)
    return _moment_pass(state, second=False)[1]


def second_moments(state: GridState, z: np.ndarray | None = None) -> np.ndarray:
    """Centered, symmetrized second moments as the 2n x 2n block matrix
    [[sigma_pp, sigma_px], [sigma_xp, sigma_xx]], about ``z`` if given."""
    check_resolved(state)
    return _moment_pass(state, z)[2]


@dataclass(frozen=True)
class StateConstants:
    """Moment record of an initial state: the invariants that parametrize
    its exact evolution."""

    point: MomentPoint
    norm_sq: float
    kappa_tilde: float


def effective_coupling(model: QuadraticModel, state: GridState) -> float:
    """kappa_tilde = kappa * |psi|^2, recomputed from the actual state."""
    return model.kappa * norm_squared(state)


def constants_of_motion(model: QuadraticModel, state: GridState,
                        validate: bool = True) -> StateConstants:
    if validate:
        check_resolved(state)
    nrm, z, Delta = _moment_pass(state)
    return StateConstants(MomentPoint(z, Delta), nrm, model.kappa * nrm)
