"""Transport of first/second moments and the variational fundamental matrix.

The first moments follow the classical drift of the mean-field Hamiltonian;
centered second moments are transported congruently by the fundamental matrix
(matriciant) A(t,s) of the variational system dA/dt = J h_zz(t) A.  The
means, A and the phase action are one linear system whose Van Loan block
generator (Van Loan, IEEE TAC 23, 1978) is assembled in one place from the
effective Hessian at a time; a trajectory is its flow.  A model with data
Hzz and drive (``model.drive`` set: the built-in setups, JSON models,
``make_model`` without callables) evaluates it once: one exponential, exact
to roundoff.  Else it is evaluated at the Gauss nodes of sixth-order Magnus
steps, refined to fixed tolerances.  Exponentials are a numpy-only Pade-13
with scaling and squaring (Higham, SIMAX 26, 2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ModelError
from .model import QuadraticModel, effective_hessian, symplectic_unit
from .state import write_csv


@dataclass(frozen=True)
class MomentPoint:
    """Phase-space mean z = (<p>, <x>) and centered second-moment matrix."""

    z: np.ndarray
    Delta: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        D = np.asarray(self.Delta, dtype=float)
        if z.ndim != 1 or not z.size or z.size % 2:
            raise ValueError("z must be a vector (p, x) of even length, "
                             f"not of shape {z.shape}")
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


def _generator(J: np.ndarray, h_eff: np.ndarray, H_u: np.ndarray,
               M_u: np.ndarray, couplings) -> np.ndarray:
    """The Van Loan block V = [[-G^T, Q], [0, G]] at one time, from the
    effective Hessian there, Hz = H_u u, the drive phases' drift M_u, and
    the time-independent coupling sums kt Wzw, kt (2 Wzw + Www) and
    -kt Www / 2; G_A = J h_eff is its last d x d block."""
    kt_drift, kt_action, kt_width = couplings
    n, m = J.shape[0] // 2, M_u.shape[0]
    d = 2 * n
    M_m = h_eff + kt_drift  # drift Hessian of the means
    M_a = h_eff + kt_action
    M_u = M_u.copy()
    M_u[:d, :d] = J @ M_m
    M_u[:d, d:] = J @ H_u[:, d:]
    # S' = p.x' - z^T M_a z / 2 - Hz.z over z = P u
    P = np.eye(d, m)
    rate = H_u + M_m @ P
    rate[n:] = 0.0  # x' = (Hz + M_m z)[:n], paired with p
    B = P.T @ (rate - 0.5 * M_a @ P - H_u)
    D = m + d
    G = np.zeros((D, D))
    G[:m, :m], G[m:, m:] = M_u, J @ h_eff
    V = np.zeros((2 * D, 2 * D))
    V[:D, :D], V[D:, D:] = -G.T, G
    V[:m, D:D + m] = 0.5 * (B + B.T)
    V[m:D, D + m:] = kt_width
    return V


_GAUSS = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_MAX_STEPS = 10_000  # bounds the refinement of the Magnus step count
_RTOL, _ATOL = 1e-10, 1e-12  # the Magnus flow's error per node


def _magnus(samples, h: float) -> np.ndarray:
    """Sixth-order Magnus exponent of one step of length h from the
    generator at its three Gauss nodes (Blanes, Casas & Ros, BIT 40, 2000)."""
    V1, V2, V3 = samples
    a1 = h * V2
    a2 = (math.sqrt(15.0) / 3.0 * h) * (V3 - V1)
    a3 = (10.0 / 3.0 * h) * (V3 - 2.0 * V2 + V1)
    c1 = a1 @ a2 - a2 @ a1
    x = 2.0 * a3 + c1
    c2 = (x @ a1 - a1 @ x) / 60.0
    x, y = c1 - 20.0 * a1 - a3, a2 + c2
    return a1 + a3 / 12.0 + (x @ y - y @ x) / 240.0


class MomentTrajectory:
    """Dense-in-time solution of one (z, A, S) transport: the phase-space
    mean z, the fundamental matrix A(tau, s) of the variational system, and
    the phase action S.  Centered second moments are carried by A exactly,
    Delta(tau) = A(tau, s) Delta(s) A(tau, s)^T.

    The means ride in u = (z, drive phases cos/sin w_k t, 1), u' = M_u u,
    and A' = G_A A with G_A = J h_eff; the action rate is a quadratic form
    of u plus -(kt/2) tr(Www A Delta0 A^T).  With G = blockdiag(M_u, G_A)
    and Q the matching forms, the flow of V = [[-G^T, Q], [0, G]] is [[.,
    X], [0, Phi]], Phi^T X the integral of Phi^T Q Phi.  A constant V is
    one piece, exp(V (tau - s)), and A = exp(G_A (tau - s)); else the flow
    is a product of equal sixth-order Magnus steps (Iserles & Norsett,
    Phil. Trans. R. Soc. A 357, 1999), so A stays symplectic to roundoff,
    with one Magnus sub-step from the last node below tau between nodes.
    ``step_times`` are the nodes along which the branch of the propagator
    is tracked: 0.5 / rho(J h_eff) apart for a constant V, the Magnus steps
    otherwise.  Results are read-only.  Calling the trajectory returns
    A(tau, s), memoized by time; ``matriciants(times)`` returns it for an
    array of times in one stacked evaluation, without the memo (the branch
    tracker reads every node of a leg this way).  ``Matriciant`` is the
    same class under the name of that role.
    """

    def __init__(self, model: QuadraticModel, kappa_tilde: float,
                 g0: MomentPoint, s: float, t: float):
        if not (math.isfinite(s) and math.isfinite(t)):
            raise ValueError(f"times s = {s}, t = {t} must be finite")
        self.model, self.kappa_tilde, self.g0, self.s, self.t = \
            model, kappa_tilde, g0, s, t
        self.n = n = model.n
        d = 2 * n
        if g0.n != n:
            raise ModelError(f"moment point is {g0.n}-D (z of length "
                             f"{2 * g0.n}) but the model is {n}-D")
        J = symplectic_unit(n)
        h0, terms = model.drive or (None, ())
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
        u0[-1] = 1.0
        self._m, self._D, self._u0 = m, m + d, u0
        self._A, self._za = {}, {}  # memos by time
        couplings = (kappa_tilde * model.Wzw,
                     kappa_tilde * (2.0 * model.Wzw + model.Www),
                     -0.5 * kappa_tilde * model.Www)

        def generator(tau: float) -> np.ndarray:  # one Hzz, one Hz
            H_u[:, -1] = model.Hz(tau) if h0 is None else h0
            return _generator(J, effective_hessian(model, kappa_tilde, tau),
                              H_u, M_u, couplings)

        V = generator(min(s, t))  # one rho for either way
        G_A = V[-d:, -d:]
        self._generator = generator if h0 is None else None
        if h0 is not None:
            self._exp_A, self._exp_V = Exponential(G_A), Exponential(V)
        # rho(J h_eff) is the flow's fastest angular rate: one-piece nodes
        # turn by 0.5 (the branch tracker halves any step that turns too
        # far), a first Magnus run's steps by 2; nodes in the direction of
        # integration, both ends included
        turns = abs(t - s) * float(np.max(np.abs(np.linalg.eigvals(G_A))))
        if self._generator is None:
            self.step_times = np.linspace(
                s, t, max(1, math.ceil(turns / 0.5)) + 1)
        else:
            if turns > math.pi * _MAX_STEPS:  # Magnus needs rho h < pi
                raise IntegrationError(
                    f"{_MAX_STEPS} Magnus steps over [{s:.6g}, {t:.6g}] "
                    f"would each turn by {turns / _MAX_STEPS:.3g} > pi")
            self._edges, self._R = self._refine(
                min(max(1, math.ceil(turns / 2)), _MAX_STEPS // 2))
            self.step_times = self._edges[::1 if t >= s else -1]

    def _exponents(self, edges) -> list[np.ndarray]:
        return [_magnus([self._generator(a + c * (b - a)) for c in _GAUSS],
                        b - a) for a, b in zip(edges[:-1], edges[1:])]

    def _flows(self, omegas, sign: float = 1.0) -> np.ndarray:
        """The right half [X; Phi] of the flow at each node."""
        R = [np.eye(2 * self._D, self._D, -self._D)]
        for omega in omegas:
            R.append(Exponential(omega)(sign) @ R[-1])
        return np.array(R)

    def _refine(self, steps: int):
        """Ascending nodes and their flows: the step count grows k-fold
        until no node flow [X; Phi] moves by more than (k^6 - 1) (_ATOL +
        _RTOL max|[X; Phi]|), so the finer run's estimated error is within
        tolerance.  Both directions of one interval take the same steps."""
        lo, hi = sorted((self.s, self.t))
        coarse = self._flows(self._exponents(np.linspace(lo, hi, steps + 1)))
        k = 2
        while steps * k <= _MAX_STEPS:
            steps *= k
            edges = np.linspace(lo, hi, steps + 1)
            omegas = self._exponents(edges)
            fine = self._flows(omegas)
            size = np.abs(fine[::k]).max(axis=(1, 2))
            err = float(np.max(np.abs(fine[::k] - coarse).max(axis=(1, 2))
                               / (_ATOL + _RTOL * size))) / (k ** 6 - 1)
            if err <= 1.0:
                return edges, (fine if self.t >= self.s  # else flows from hi
                               else self._flows(omegas[::-1], -1.0)[::-1])
            if not math.isfinite(err):
                break
            coarse, k = fine, max(2, math.ceil(1.1 * err ** (1.0 / 6.0)))
        raise IntegrationError(f"Magnus steps miss rtol = {_RTOL:.1e}, "
                               f"atol = {_ATOL:.1e} within {_MAX_STEPS} steps")

    def _flow(self, tau: float) -> np.ndarray:
        """[X; Phi], the right half of the flow of V from s to tau."""
        if self._generator is None:
            return self._exp_V(tau - self.s)[:, self._D:]
        k = max(int(np.searchsorted(self._edges, tau, side="right")) - 1, 0)
        a = float(self._edges[k])
        if tau == a:
            return self._R[k]
        return Exponential(self._exponents([a, tau])[0])(1.0) @ self._R[k]

    def _check(self, tau: float) -> None:
        lo, hi = min(self.s, self.t), max(self.s, self.t)
        if tau < lo - 1e-12 or tau > hi + 1e-12:
            raise ValueError(f"time {tau} outside trajectory range [{lo}, {hi}]")

    def __call__(self, tau: float) -> np.ndarray:
        """A(tau, s)."""
        self._check(tau)
        A = self._A.get(tau)
        if A is None:
            A = (self._exp_A(tau - self.s) if self._generator is None
                 else self._flow(tau)[self._D + self._m:, self._m:].copy())
            A.flags.writeable = False
            self._A[tau] = A
        return A

    def matriciants(self, times) -> np.ndarray:
        """A(tau, s) for each of ``times``, stacked, without filling the
        memo of ``__call__``: one batched exponential for a constant
        generator; else the stored node flows, with one Magnus sub-step
        for each time that is not a node."""
        times = np.asarray(times, dtype=float)
        for tau in (times.min(), times.max()):
            self._check(tau)
        if self._generator is None:
            return self._exp_A.stacked(times - self.s)
        return np.array([self._flow(tau)[self._D + self._m:, self._m:]
                         for tau in times.tolist()])

    def _mean_action(self, tau: float) -> tuple[np.ndarray, float]:
        self._check(tau)
        out = self._za.get(tau)
        if out is None:
            m, D = self._m, self._D
            R = self._flow(tau)
            u = R[D:D + m, :m] @ self._u0
            S = u @ (R[:m, :m] @ self._u0) + np.sum(
                R[D + m:, m:] * (R[m:D, m:] @ self.g0.Delta))
            u.flags.writeable = False
            out = self._za[tau] = (u[:D - m], float(S))
        return out

    def between(self, a: float, b: float) -> np.ndarray:
        """A(b, a) through the group property, using the exact symplectic
        inverse of A(a, s)."""
        return self(b) @ symplectic_inverse(self(a))

    @property
    def at_end(self) -> np.ndarray:
        return self(self.t)

    def z(self, tau: float) -> np.ndarray:
        return self._mean_action(tau)[0]

    def Delta(self, tau: float) -> np.ndarray:
        A = self(tau)
        D = A @ self.g0.Delta @ A.T
        return 0.5 * (D + D.T)

    def action(self, tau: float) -> float:
        return self._mean_action(tau)[1]

    def point(self, tau: float) -> MomentPoint:
        return MomentPoint(self.z(tau), self.Delta(tau))

    def momentum(self, tau: float) -> np.ndarray:
        return self.z(tau)[: self.n]

    def position(self, tau: float) -> np.ndarray:
        return self.z(tau)[self.n:]


Matriciant = MomentTrajectory


def integrate_moments(model: QuadraticModel, kappa_tilde: float,
                      g0: MomentPoint, s: float, t: float) -> MomentTrajectory:
    """The means, the fundamental matrix and the phase action over [s, t]
    (backward if t < s).  A model with constant Hzz and a drive given as
    data is exact.  A model with a callable Hzz or Hz takes Magnus steps
    refined until the estimated error of the flow at every node is at most
    1e-12 + 1e-10 times the flow's largest entry, or raises
    ``IntegrationError`` past 10 000 steps."""
    return MomentTrajectory(model, kappa_tilde, g0, s, t)


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
        if h == 0.0:  # exactly I; the approximant is an ulp off
            return np.eye(self._shape[0])
        return self.stacked([h])[0]

    def stacked(self, hs) -> np.ndarray:
        """exp(G h) for each of ``hs`` in one stacked evaluation; each h
        keeps its own scaling exponent k and takes k squarings."""
        hs = np.asarray(hs, dtype=float).tolist()
        ks = [max(0, e - (f == 0.5)) for f, e in  # ceil(log2(.)), exactly
              (math.frexp(abs(h) * (self._norm / _THETA13)) for h in hs)]
        scaled = [h * self._norm / 2.0 ** k for h, k in zip(hs, ks)]
        E = self._pade(_PADE13 * np.array(scaled)[:, None] ** _DEGREES)
        for j in range(max(ks)):  # square the members that still need it
            sq = (slice(None) if min(ks) > j  # all of them: views, no copies
                  else [i for i, k in enumerate(ks) if k > j])
            E[sq] = E[sq] @ E[sq]
        if not np.isfinite(E).all():
            raise IntegrationError("matrix exponential overflowed")
        return E

    def _pade(self, w: np.ndarray) -> np.ndarray:
        """The approximant for the weights w[..., :] of G^0..G^13."""
        shape = w.shape[:-1] + self._shape
        V = (w[..., 0::2] @ self._even).reshape(shape)
        U = (w[..., 1::2] @ self._odd).reshape(shape)
        return np.linalg.solve(V - U, V + U)


def symplectic_inverse(A: np.ndarray) -> np.ndarray:
    """-J A^T J, written out by blocks."""
    n = A.shape[0] // 2
    inv = np.empty_like(A)
    inv[:n, :n], inv[:n, n:] = A[n:, n:].T, -A[:n, n:].T
    inv[n:, :n], inv[n:, n:] = -A[n:, :n].T, A[:n, :n].T
    return inv


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
