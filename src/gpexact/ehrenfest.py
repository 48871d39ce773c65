"""Transport of first/second moments and the variational fundamental matrix.

The first moments follow the classical drift of the mean-field Hamiltonian;
centered second moments are transported congruently by the fundamental matrix
(matriciant) A(t,s) of the variational system dA/dt = J h_zz(t) A.  One ODE
solve carries the means, A and the phase action, so the propagator reads all
of them at matching accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .model import (QuadraticModel, action_hamiltonian, effective_hessian,
                    mean_drift_hessian, symplectic_unit)
from .state import write_csv

RTOL_DEFAULT = 1e-10
ATOL_DEFAULT = 1e-12


@dataclass(frozen=True)
class MomentPoint:
    """Phase-space mean z = (<p>, <x>) and centered second-moment matrix."""

    z: np.ndarray
    Delta: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        D = np.asarray(self.Delta, dtype=float)
        d = z.shape[0]
        if D.shape != (d, d):
            raise ValueError("Delta must be square of the same phase-space size")
        if np.max(np.abs(D - D.T)) > 1e-10 * max(1.0, np.max(np.abs(D))):
            raise ValueError("Delta must be symmetric")
        n = d // 2
        sxx = 0.5 * (D[n:, n:] + D[n:, n:].T)
        if np.linalg.eigvalsh(sxx).min() < -1e-10 * max(1.0, np.max(np.abs(sxx))):
            raise ValueError("position block of Delta must be positive semidefinite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "Delta", 0.5 * (D + D.T))

    @property
    def n(self) -> int:
        return self.z.shape[0] // 2


class MomentTrajectory:
    """Dense-in-time solution of one (z, A, S) solve: the phase-space mean
    z, the fundamental matrix A(tau, s) of the variational system, and the
    phase action S.  Centered second moments are carried by A exactly,
    Delta(tau) = A(tau, s) Delta(s) A(tau, s)^T.

    Calling the trajectory returns A(tau, s); ``Matriciant`` is the same
    class under the name of that role.
    """

    def __init__(self, model: QuadraticModel, kappa_tilde: float,
                 g0: MomentPoint, sol, s: float, t: float):
        self.model = model
        self.kappa_tilde = kappa_tilde
        self.g0 = g0
        self._sol = sol  # None for the empty interval t == s
        self.s = s
        self.t = t
        self.n = model.n
        # accepted solver steps, in the direction of integration
        self.step_times = np.array([s]) if sol is None else sol.t

    def _state(self, tau: float) -> np.ndarray:
        lo, hi = min(self.s, self.t), max(self.s, self.t)
        if tau < lo - 1e-12 or tau > hi + 1e-12:
            raise ValueError(f"time {tau} outside trajectory range [{lo}, {hi}]")
        if self._sol is None:
            d = 2 * self.n
            return np.concatenate([self.g0.z, np.eye(d).ravel(), [0.0]])
        return self._sol.sol(tau)

    def __call__(self, tau: float) -> np.ndarray:
        """A(tau, s)."""
        d = 2 * self.n
        if tau == self.s:
            return np.eye(d)
        return self._state(tau)[d: d + d * d].reshape(d, d)

    def between(self, a: float, b: float) -> np.ndarray:
        """A(b, a) through the group property, using the exact symplectic
        inverse of A(a, s)."""
        return self(b) @ symplectic_inverse(self(a))

    @property
    def at_end(self) -> np.ndarray:
        return self(self.t)

    def z(self, tau: float) -> np.ndarray:
        return self._state(tau)[: 2 * self.n]

    def Delta(self, tau: float) -> np.ndarray:
        A = self(tau)
        D = A @ self.g0.Delta @ A.T
        return 0.5 * (D + D.T)

    def action(self, tau: float) -> float:
        return float(self._state(tau)[-1])

    def point(self, tau: float) -> MomentPoint:
        return MomentPoint(self.z(tau), self.Delta(tau))

    def momentum(self, tau: float) -> np.ndarray:
        return self.z(tau)[: self.n]

    def position(self, tau: float) -> np.ndarray:
        return self.z(tau)[self.n:]


Matriciant = MomentTrajectory


def integrate_moments(model: QuadraticModel, kappa_tilde: float,
                      g0: MomentPoint, s: float, t: float,
                      rtol: float = RTOL_DEFAULT,
                      atol: float = ATOL_DEFAULT) -> MomentTrajectory:
    """Integrate the means, the fundamental matrix and the phase action over
    [s, t] (backward if t < s) in one solve."""
    n = model.n
    d = 2 * n
    J = symplectic_unit(n)

    def rhs(tau, y):
        z = y[:d]
        A = y[d: d + d * d].reshape(d, d)
        zdot = J @ (model.Hz(tau) + mean_drift_hessian(model, kappa_tilde, tau) @ z)
        Adot = J @ effective_hessian(model, kappa_tilde, tau) @ A
        sdot = float(z[:n] @ zdot[n:]) - action_hamiltonian(
            model, kappa_tilde, tau, z, A @ g0.Delta @ A.T)
        return np.concatenate([zdot, Adot.ravel(), [sdot]])

    if t == s:
        return MomentTrajectory(model, kappa_tilde, g0, None, s, t)

    y0 = np.concatenate([g0.z, np.eye(d).ravel(), [0.0]])
    sol = solve_ivp(rhs, (s, t), y0, method="DOP853", dense_output=True,
                    rtol=rtol, atol=atol)
    if not sol.success or not np.all(np.isfinite(sol.y)):
        raise IntegrationError(f"moment integration failed: {sol.message}")
    # cheap endpoint residual guard against silent integrator trouble
    if not np.all(np.isfinite(rhs(t, sol.y[:, -1]))):
        raise IntegrationError("moment system right-hand side is non-finite")
    return MomentTrajectory(model, kappa_tilde, g0, sol, s, t)


def symplectic_inverse(A: np.ndarray) -> np.ndarray:
    n = A.shape[0] // 2
    J = symplectic_unit(n)
    return -J @ A.T @ J


def integrate_variations(model: QuadraticModel, kappa_tilde: float,
                         s: float, t: float,
                         rtol: float = RTOL_DEFAULT,
                         atol: float = ATOL_DEFAULT) -> Matriciant:
    """Integrate dA/dt = J h_zz(t) A with A(s, s) = I (backward allowed):
    the trajectory of a state with vanishing moments."""
    d = 2 * model.n
    return integrate_moments(model, kappa_tilde,
                             MomentPoint(np.zeros(d), np.zeros((d, d))),
                             s, t, rtol=rtol, atol=atol)


def matriciant_blocks(A: np.ndarray):
    """Split A = [[l4^T, -l2^T], [-l3^T, l1^T]] into (l1, l2, l3, l4)."""
    d = A.shape[0]
    n = d // 2
    l4 = A[:n, :n].T.copy()
    l2 = -A[:n, n:].T.copy()
    l3 = -A[n:, :n].T.copy()
    l1 = A[n:, n:].T.copy()
    return l1, l2, l3, l4


def blocks_to_matriciant(l1, l2, l3, l4) -> np.ndarray:
    n = l1.shape[0]
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = l4.T
    A[:n, n:] = -l2.T
    A[n:, :n] = -l3.T
    A[n:, n:] = l1.T
    return A


def symplectic_defect(A: np.ndarray) -> float:
    n = A.shape[0] // 2
    J = symplectic_unit(n)
    return float(np.max(np.abs(A.T @ J @ A - J)))


def write_moment_series(path, n: int, points) -> None:
    """CSV of a moment series: t, the means z_i, and the upper triangle
    Delta_ij (i <= j); ``points`` yields (t, z, Delta)."""
    upper = np.triu_indices(2 * n)
    header = ["t"] + [f"z{i}" for i in range(2 * n)] \
        + [f"Delta{i}{j}" for i, j in zip(*upper)]
    write_csv(path, header, ([t, *z, *D[upper]] for t, z, D in points))


def trajectory_to_csv(traj: MomentTrajectory, times, path) -> None:
    """CSV export: t, mean vector, upper triangle of Delta."""
    write_moment_series(path, traj.n, ((tau, traj.z(tau), traj.Delta(tau))
                                       for tau in times))
