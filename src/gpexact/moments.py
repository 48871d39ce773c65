"""Norms and symmetrized phase-space moments of grid states.

A state's moment record (its norm, its means z and its centered second
moments Delta) is read in one pass from the 2n images z_i psi, each formed
once by :func:`centered_apply`, the one centered phase-space operator
(spectral momenta, pointwise positions): z_i = Re<psi, z_i psi>/|psi|^2 and,
with c_i = z_i - <z_i>, Delta_ij = 1/2 <c_i c_j + c_j c_i> = Re<c_i psi,
c_j psi>/|psi|^2, the real part of a Gram matrix.  Means are normalized by
|psi|^2, also for unnormalized inputs; sums are trapezoid rules, spectrally
accurate for states that decay inside the box.  Every function here holds
its input to :func:`check_resolved`; only :func:`constants_of_motion` can be
told to skip that gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ehrenfest import MomentPoint
from .errors import ResolutionError
from .model import QuadraticModel
from .state import GridState, check_resolved, momentum_apply


def centered_apply(state: GridState, arr: np.ndarray, i: int,
                   center: float) -> np.ndarray:
    """(z_i - center) arr for the phase-space coordinate z = (p, x) on the
    state's grid: spectral for a momentum (i < n), a product with the points
    of axis i - n for a position."""
    n = state.n
    if i >= n:
        return (state.grids()[i - n] - center) * arr
    out = momentum_apply(state, arr, i)
    if center:
        out -= center * arr
    return out


def _moment_pass(state: GridState, z: np.ndarray | None = None,
                 second: bool = True
                 ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """(norm^2, z, Delta) in one pass; z is computed unless given, and
    Delta is None unless ``second``."""
    d = 2 * state.n
    if z is not None and np.shape(z) != (d,):
        raise ValueError(f"center z must have shape ({d},), not {np.shape(z)}")
    w = state.weight
    psi = state.psi
    nrm = float(w * np.sum(np.abs(psi) ** 2))
    if nrm == 0.0:
        raise ResolutionError("zero-norm state has no moments")
    img = [centered_apply(state, psi, i, 0.0) for i in range(d)]  # z_i psi
    if z is None:
        z = np.array([w * np.vdot(psi, c).real / nrm for c in img])
    if not second:
        return nrm, z, None
    for c, zi in zip(img, z):
        c -= zi * psi  # now (z_i - <z_i>) psi
    Delta = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            Delta[i, j] = Delta[j, i] = w * np.vdot(img[i], img[j]).real / nrm
    return nrm, z, Delta


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
