"""Transport of first/second moments and the variational fundamental matrix.

The first moments follow the classical drift of the mean-field Hamiltonian;
centered second moments are transported congruently by the fundamental matrix
(matriciant) A(t,s) of the variational system dA/dt = J h_zz(t) A.  One
trajectory carries the means, A and the phase action, by one of two paths:

- closed form, for every model whose Hzz is constant and whose drive is data
  (``model.drive`` set: the built-in 1D and 3D setups, ``harmonic_model``,
  ``free_model``, custom JSON models, and ``make_model`` without callables):
  A = exp(J h_eff (t - s)), the means and the action are read from one Van
  Loan block exponential (Van Loan, IEEE TAC 23, 1978), all by a numpy-only
  Pade-13 with scaling and squaring (Higham, SIMAX 26, 2005).  Exact to
  roundoff at any time; ``rtol``/``atol`` do not apply.
- integrated, for a model with a callable Hzz or Hz: one ``solve_ivp``
  (DOP853) run at ``rtol``/``atol``, read through its dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .model import (QuadraticModel, action_hamiltonian, action_hessian,
                    effective_hessian, mean_drift_hessian, symplectic_unit)
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
    """Dense-in-time solution of one (z, A, S) transport: the phase-space
    mean z, the fundamental matrix A(tau, s) of the variational system, and
    the phase action S.  Centered second moments are carried by A exactly,
    Delta(tau) = A(tau, s) Delta(s) A(tau, s)^T.

    ``step_times`` are the nodes along which the branch of the propagator
    is tracked: the solver's accepted steps on the integrated path, and
    nodes 0.5 / rho(J h_eff) apart on the closed-form path.

    Calling the trajectory returns A(tau, s); ``Matriciant`` is the same
    class under the name of that role.
    """

    def __init__(self, model: QuadraticModel, kappa_tilde: float,
                 g0: MomentPoint, flow, s: float, t: float):
        self.model = model
        self.kappa_tilde = kappa_tilde
        self.g0 = g0
        self._flow = flow
        self.s = s
        self.t = t
        self.n = model.n
        # in the direction of integration, both ends included
        self.step_times = flow.nodes

    def _check(self, tau: float) -> None:
        lo, hi = min(self.s, self.t), max(self.s, self.t)
        if tau < lo - 1e-12 or tau > hi + 1e-12:
            raise ValueError(f"time {tau} outside trajectory range [{lo}, {hi}]")

    def __call__(self, tau: float) -> np.ndarray:
        """A(tau, s)."""
        if tau == self.s:
            return np.eye(2 * self.n)
        self._check(tau)
        return self._flow.matriciant(tau)

    def between(self, a: float, b: float) -> np.ndarray:
        """A(b, a) through the group property, using the exact symplectic
        inverse of A(a, s)."""
        return self(b) @ symplectic_inverse(self(a))

    @property
    def at_end(self) -> np.ndarray:
        return self(self.t)

    def z(self, tau: float) -> np.ndarray:
        self._check(tau)
        return self._flow.mean_action(tau)[0]

    def Delta(self, tau: float) -> np.ndarray:
        A = self(tau)
        D = A @ self.g0.Delta @ A.T
        return 0.5 * (D + D.T)

    def action(self, tau: float) -> float:
        self._check(tau)
        return self._flow.mean_action(tau)[1]

    def point(self, tau: float) -> MomentPoint:
        return MomentPoint(self.z(tau), self.Delta(tau))

    def momentum(self, tau: float) -> np.ndarray:
        return self.z(tau)[: self.n]

    def position(self, tau: float) -> np.ndarray:
        return self.z(tau)[self.n:]


Matriciant = MomentTrajectory


class _IntegratedFlow:
    """(z, A, S) read from the dense output of one ``solve_ivp`` run; with
    ``sol`` None, the empty interval at s."""

    def __init__(self, sol, g0: MomentPoint, s: float):
        self._sol = sol
        self._g0 = g0
        self.nodes = np.array([s]) if sol is None else sol.t

    def _y(self, tau: float) -> np.ndarray:
        if self._sol is None:
            d = self._g0.z.shape[0]
            return np.concatenate([self._g0.z, np.eye(d).ravel(), [0.0]])
        return self._sol.sol(tau)

    def matriciant(self, tau: float) -> np.ndarray:
        d = self._g0.z.shape[0]
        return self._y(tau)[d: d + d * d].reshape(d, d)

    def mean_action(self, tau: float) -> tuple[np.ndarray, float]:
        y = self._y(tau)
        return y[: self._g0.z.shape[0]], float(y[-1])


class _ExactFlow:
    """(z, A, S) in closed form for a model with constant Hzz and a drive
    given as data (``model.drive``).

    The means follow a constant linear system in u = (z, cos w_k t,
    sin w_k t, ..., 1), u(tau) = exp(M_u (tau - s)) u(s), and A(tau, s) =
    exp(G_A (tau - s)) with G_A = J h_eff.  The action rate is a quadratic
    form of u plus -(kt/2) tr(Www A Delta0 A^T); with G = blockdiag(M_u,
    G_A) and Q the matching block-diagonal form, the Van Loan exponential
    exp([[-G^T, Q], [0, G]] h) = [[., X], [0, exp(G h)]] gives the integral
    of exp(G r)^T Q exp(G r) over [0, h] as exp(G h)^T X.  Results are
    memoized by time and returned read-only.
    """

    def __init__(self, model: QuadraticModel, kappa_tilde: float,
                 g0: MomentPoint, s: float, t: float):
        n = model.n
        d = 2 * n
        J = symplectic_unit(n)
        h0, terms = model.drive
        m = d + 2 * len(terms) + 1
        # Hz(t) = H_u u and z = u[:d]
        H_u = np.zeros((d, m))
        M_u = np.zeros((m, m))
        u0 = np.zeros(m)
        u0[:d] = g0.z
        for k, (omega, cos_vec, sin_vec) in enumerate(terms):
            i = d + 2 * k
            H_u[:, i], H_u[:, i + 1] = cos_vec, sin_vec
            M_u[i, i + 1], M_u[i + 1, i] = -omega, omega
            u0[i], u0[i + 1] = math.cos(omega * s), math.sin(omega * s)
        H_u[:, -1] = h0
        u0[-1] = 1.0
        M_m = mean_drift_hessian(model, kappa_tilde, s)
        M_u[:d, :d] = J @ M_m
        M_u[:d, d:] = J @ H_u[:, d:]
        G_A = J @ effective_hessian(model, kappa_tilde, s)

        # S' = p.x' - z^T M_a z / 2 - Hz.z over z = P u
        P = np.eye(d, m)
        rate = H_u + M_m @ P
        rate[n:] = 0.0  # x' = (Hz + M_m z)[:n], paired with p
        B = P.T @ (rate - 0.5 * action_hessian(model, kappa_tilde, s) @ P
                   - H_u)
        D = m + d
        G = np.zeros((D, D))
        G[:m, :m], G[m:, m:] = M_u, G_A
        V = np.zeros((2 * D, 2 * D))
        V[:D, :D], V[D:, D:] = -G.T, G
        V[:m, D:D + m] = 0.5 * (B + B.T)
        V[m:D, D + m:] = -0.5 * kappa_tilde * model.Www

        self._s, self._m, self._d, self._D = s, m, d, D
        self._u0, self._delta0 = u0, g0.Delta
        self._exp_A, self._exp_V = Exponential(G_A), Exponential(V)
        self._A: dict[float, np.ndarray] = {}
        self._za: dict[float, tuple[np.ndarray, float]] = {}
        # rho, the spectral radius of J h_eff, is the flow's fastest angular
        # rate; the branch tracker halves any step that still turns too far
        rho = float(np.max(np.abs(np.linalg.eigvals(G_A))))
        steps = max(1, math.ceil(abs(t - s) * rho / 0.5))
        self.nodes = np.linspace(s, t, steps + 1)

    def matriciant(self, tau: float) -> np.ndarray:
        A = self._A.get(tau)
        if A is None:
            A = self._A[tau] = self._exp_A(tau - self._s)
            A.flags.writeable = False
        return A

    def mean_action(self, tau: float) -> tuple[np.ndarray, float]:
        out = self._za.get(tau)
        if out is None:
            m, D = self._m, self._D
            E = self._exp_V(tau - self._s)
            u = E[D:D + m, D:D + m] @ self._u0
            S = u @ (E[:m, D:D + m] @ self._u0) + np.sum(
                E[D + m:, D + m:] * (E[m:D, D + m:] @ self._delta0))
            u.flags.writeable = False
            out = self._za[tau] = (u[:self._d], float(S))
        return out


def integrate_moments(model: QuadraticModel, kappa_tilde: float,
                      g0: MomentPoint, s: float, t: float,
                      rtol: float = RTOL_DEFAULT,
                      atol: float = ATOL_DEFAULT) -> MomentTrajectory:
    """The means, the fundamental matrix and the phase action over [s, t]
    (backward if t < s).

    A model with constant Hzz and a drive given as data (``model.drive``
    set: every model built by ``model_1d``, ``model_3d``,
    ``harmonic_model``, ``free_model`` and ``build_model``) evolves in
    closed form, by matrix exponentials; ``rtol``/``atol`` then do not
    apply.  A model with a callable Hzz or Hz is integrated in one
    ``solve_ivp`` (DOP853) run at ``rtol``/``atol``.
    """
    if model.drive is not None:
        return MomentTrajectory(model, kappa_tilde, g0,
                                _ExactFlow(model, kappa_tilde, g0, s, t),
                                s, t)
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
        return MomentTrajectory(model, kappa_tilde, g0,
                                _IntegratedFlow(None, g0, s), s, t)

    y0 = np.concatenate([g0.z, np.eye(d).ravel(), [0.0]])
    sol = solve_ivp(rhs, (s, t), y0, method="DOP853", dense_output=True,
                    rtol=rtol, atol=atol)
    if not sol.success or not np.all(np.isfinite(sol.y)):
        raise IntegrationError(f"moment integration failed: {sol.message}")
    # cheap endpoint residual guard against silent integrator trouble
    if not np.all(np.isfinite(rhs(t, sol.y[:, -1]))):
        raise IntegrationError("moment system right-hand side is non-finite")
    return MomentTrajectory(model, kappa_tilde, g0,
                            _IntegratedFlow(sol, g0, s), s, t)


# Pade-13 coefficients and the 1-norm bound below which the degree-13
# approximant is accurate to double precision (Higham, SIMAX 26, 2005)
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0])
_THETA13 = 5.371920351148152
_DEGREES = np.arange(14)


class Exponential:
    """exp(G h) for one fixed square G and any real h, in numpy alone.

    The degree-13 Pade approximant with scaling and squaring: h G is scaled
    by 2^-k into the 1-norm ball of radius theta_13, and the approximant's
    numerator and denominator are polynomials in G, formed from the powers
    G^0..G^13 computed once, so each h costs one small product, one solve
    and k squarings.
    """

    def __init__(self, G: np.ndarray):
        norm = float(np.max(np.sum(np.abs(G), axis=0)))
        if not math.isfinite(norm):
            raise IntegrationError("matrix exponential of non-finite entries")
        self._norm = norm or 1.0
        unit = G / self._norm
        powers = [np.eye(G.shape[0])]
        for _ in range(13):
            powers.append(powers[-1] @ unit)
        powers = np.array(powers).reshape(14, -1)
        self._shape = G.shape
        self._even, self._odd = powers[0::2], powers[1::2]

    def __call__(self, h: float) -> np.ndarray:
        if h == 0.0:
            return np.eye(self._shape[0])
        k = max(0, math.ceil(math.log2(abs(h) * self._norm / _THETA13)))
        w = _PADE13 * (h * self._norm / 2.0 ** k) ** _DEGREES
        V = (w[0::2] @ self._even).reshape(self._shape)
        U = (w[1::2] @ self._odd).reshape(self._shape)
        E = np.linalg.solve(V - U, V + U)
        for _ in range(k):
            E = E @ E
        if not np.all(np.isfinite(E)):
            raise IntegrationError("matrix exponential overflowed")
        return E


def symplectic_inverse(A: np.ndarray) -> np.ndarray:
    n = A.shape[0] // 2
    J = symplectic_unit(n)
    return -J @ A.T @ J


def integrate_variations(model: QuadraticModel, kappa_tilde: float,
                         s: float, t: float) -> Matriciant:
    """Integrate dA/dt = J h_zz(t) A with A(s, s) = I (backward allowed):
    the trajectory of a state with vanishing moments."""
    d = 2 * model.n
    return integrate_moments(model, kappa_tilde,
                             MomentPoint(np.zeros(d), np.zeros((d, d))),
                             s, t)


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
