"""Norms and symmetrized phase-space moments of grid states.

A state's moment record (its norm, its means z and its centered second
moments Delta_ij = 1/2 <c_i c_j + c_j c_i> = Re<c_i psi, c_j psi>/|psi|^2,
c_i = z_i - <z_i>) is read in one pass.  Each entry is a sum of terms in
at most two axes, so on the product grid only per-axis and per-pair data
enter.  The momentum half comes from the n spectral images p_a psi:
z_p = Re<psi, p_a psi>/|psi|^2, and, centered in place, their Gram matrix
is the pp block.  The position means and the xx block come from the 1D and
2D marginals of |psi|^2, contracted with the centered axis offsets
x_a - z_a; the px block from the 1D marginals of the real currents
Re(conj(psi) (p_a - z_a) psi), exact about any given center.  Delta is
positive semidefinite to roundoff.  :func:`centered_apply` is the one
centered phase-space operator (spectral momenta, pointwise positions) for
the operators that act with it.  Means are normalized by |psi|^2, also for
unnormalized inputs; sums are trapezoid rules, spectrally accurate for
states that decay inside the box.  Every public function here reads its
input through the one entry, :func:`~gpexact.state._resolved`, which
checks the model's hbar where a model is given (:func:`constants_of_motion`)
and then runs the resolution gate; the pass reads the gate's |psi|^2, and
in 1D its spectrum of psi as the forward transform of the momentum image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ehrenfest import MomentPoint
from .errors import ResolutionError
from .model import QuadraticModel
from .state import GridState, _resolved, _spectral_momentum, momentum_apply


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


def _marginal(arr: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Sum of ``arr`` over every axis not in ``keep``; ``arr`` itself if
    there is none."""
    other = tuple(a for a in range(arr.ndim) if a not in keep)
    return arr.sum(axis=other) if other else arr


def _moment_pass(state: GridState, dens: np.ndarray,
                 spec: np.ndarray | None, z: np.ndarray | None = None,
                 second: bool = True
                 ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """(norm^2, z, Delta) in one pass; z is computed unless given, and
    Delta is None unless ``second``.  ``dens`` and ``spec`` are what the
    resolution gate returns (:func:`~gpexact.state._resolved`): |psi|^2,
    and in 1D the transform of psi, which the pass overwrites in place of
    its own forward transform (None: one transform per axis here)."""
    n = state.n
    d = 2 * n
    if z is not None and np.shape(z) != (d,):
        raise ValueError(f"center z must have shape ({d},), not {np.shape(z)}")
    w = state.weight
    psi = state.psi
    nrm = float(w * np.sum(dens))
    if nrm == 0.0:
        raise ResolutionError("zero-norm state has no moments")
    img = [momentum_apply(state, psi, a) for a in range(n)] if spec is None \
        else [_spectral_momentum(state, spec, 0)]  # p_a psi
    marg = [_marginal(dens, (a,)) for a in range(n)]
    x = [ax.points for ax in state.axes]
    if z is None:
        z = np.array([w * np.vdot(psi, c).real / nrm for c in img]
                     + [w * (m @ xa) / nrm for m, xa in zip(marg, x)])
    if not second:
        return nrm, z, None
    u = [xa - za for xa, za in zip(x, z[n:])]  # centered axis offsets
    Delta = np.empty((d, d))
    for a, c in enumerate(img):
        c -= z[a] * psi  # now (p_a - z_a) psi
        for b in range(a + 1):
            Delta[a, b] = Delta[b, a] = w * np.vdot(img[b], c).real / nrm
        current = (np.conj(psi) * c).real
        for b in range(n):
            Delta[a, n + b] = Delta[n + b, a] \
                = w * (_marginal(current, (b,)) @ u[b]) / nrm
    for a in range(n):
        Delta[n + a, n + a] = w * (marg[a] @ u[a] ** 2) / nrm
        for b in range(a + 1, n):
            Delta[n + a, n + b] = Delta[n + b, n + a] \
                = w * (u[a] @ _marginal(dens, (a, b)) @ u[b]) / nrm
    return nrm, z, Delta


def norm_squared(state: GridState) -> float:
    return float(state.weight * np.sum(_resolved(state)[0]))


def first_moments(state: GridState) -> np.ndarray:
    """Return (<p_1..p_n>, <x_1..x_n>), normalized by the squared norm."""
    return _moment_pass(state, *_resolved(state), second=False)[1]


def second_moments(state: GridState, z: np.ndarray | None = None) -> np.ndarray:
    """Centered, symmetrized second moments as the 2n x 2n block matrix
    [[sigma_pp, sigma_px], [sigma_xp, sigma_xx]], about ``z`` if given."""
    return _moment_pass(state, *_resolved(state), z)[2]


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


def constants_of_motion(model: QuadraticModel,
                        state: GridState) -> StateConstants:
    """The moment record of ``state``, read in one pass past the one
    entry: ModelError unless its hbar is the model's, then the resolution
    gate, whose |psi|^2 (and in 1D its spectrum of psi) the pass reads."""
    nrm, z, Delta = _moment_pass(state, *_resolved(state, model))
    return StateConstants(MomentPoint(z, Delta), nrm, model.kappa * nrm)
