"""Gaussian propagator of the moment-linearized equation.

The kernel of a leg is read off one moment trajectory alone, which fixes
the model, the coupling family kappa_tilde and the interval: it is
assembled from the endpoint moments, the matriciant blocks l1, l3, l4 of
A(t, s), and the accumulated phase action:

    G(x, y) = det(-2*pi*i*hbar*l3)^(-1/2)
              * exp{ (i/hbar) [ dS + <P(t), dx> - <P(s), dy>
                                - <dy, l1 l3^(-1) dy>/2
                                + <dx, l3^(-1) dy>
                                - <dx, l3^(-1) l4 dx>/2 ] }

with dx = x - X(t), dy = y - X(s).  The square-root branch is read off the
Lagrangian frame of the leg alone (Littlejohn, Phys. Rep. 138, 1986): the
frame F = A(tau, a)[:, :n] gives the never-singular U = X + iP.  The
frames at all of the trajectory's nodes on the leg are one stacked
evaluation, and the determinant phase Theta = 2 arg det U is the sum of
their increments; every interval whose increment exceeds pi/4 is halved
in one stacked round, until none does.  With the eigen-angles phi of the
unitary U conj(U)^(-1) at the end of the leg it fixes the winding integer
m = round((sum phi - Theta) / 2 pi) and arg det(-2*pi*i*hbar*l3) =
pi (n/2 + m).  No sample of det l3, no short-time asymptote, and neither
the sign of Hpp nor the direction of time enter the branch; a leg crosses
any number of conjugate points.

The signed number of conjugate points of a leg (its Maslov index) is the
same winding shifted by the directions of Hpp that leave the caustic at
the start of the leg by wrapping; it is reported, not used, by the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ehrenfest import MomentTrajectory, matriciant_blocks, symplectic_inverse
from .errors import CausticError, IntegrationError
from .model import (Example1DParams, Example3DParams, QuadraticModel,
                    effective_hessian, example_params)
from .state import write_csv


@dataclass(frozen=True)
class KernelContext:
    """Everything needed to evaluate the propagator between two fixed times."""

    model: QuadraticModel
    s: float
    t: float
    P_s: np.ndarray
    X_s: np.ndarray
    P_t: np.ndarray
    X_t: np.ndarray
    l3: np.ndarray
    action_diff: float
    prefactor: complex
    det_l3: float
    m_xx: np.ndarray  # l3^(-1) l4
    m_xy: np.ndarray  # l3^(-1)
    m_yy: np.ndarray  # l1 l3^(-1)

    @property
    def n(self) -> int:
        return self.model.n


def _frame_winding(traj: MomentTrajectory, a: float, b: float) -> int:
    """Winding integer m = round((sum phi - Theta) / 2 pi) of the leg a -> b.

    The leg frame F = A(tau, a)[:, :n] spans a Lagrangian plane, so
    U = X + iP (position and momentum rows of F) is never singular and
    W = U conj(U)^(-1) is unitary.  The frames at the trajectory's nodes
    (``step_times``) inside the leg and at b are one stacked evaluation,
    their determinants one stacked ``det``, and the phase Theta = 2 arg
    det U = arg det W is the sum of the increments between them.  While an
    increment exceeds pi/4, every such interval is halved in one round: its
    midpoint frames are one more stacked evaluation and ``det``.  Theta is
    compared with the principal eigen-angles phi of W at b.
    """
    n = traj.n
    frame_a = symplectic_inverse(traj(a))[:, :n]

    def frame_u(A: np.ndarray) -> np.ndarray:
        F = A @ frame_a
        return F[..., n:, :] + 1j * F[..., :n, :]

    lo, hi = min(a, b), max(a, b)
    times = np.array([a] + [tau for tau in sorted(
        traj.step_times.tolist(), reverse=bool(b < a)) if lo < tau < hi] + [b])
    U = frame_u(traj.matriciants(times[1:]))
    dets = np.concatenate(([1j ** n], np.linalg.det(U)))
    for rounds in range(51):
        steps = np.angle(dets[1:] / dets[:-1])
        wide = np.flatnonzero(np.abs(steps) > math.pi / 4)
        if not wide.size:
            break
        if rounds == 50:
            raise IntegrationError(
                "frame determinant phase does not resolve on the leg")
        mids = 0.5 * (times[wide] + times[wide + 1])
        times = np.insert(times, wide + 1, mids)
        dets = np.insert(dets, wide + 1,
                         np.linalg.det(frame_u(traj.matriciants(mids))))
    theta = n * math.pi + 2.0 * float(steps.sum())

    W = U[-1] @ np.linalg.inv(U[-1].conj())
    sum_phi = float(np.sum(np.angle(np.linalg.eigvals(W))))
    return round((sum_phi - theta) / (2.0 * math.pi))


def conjugate_point_units(traj: MomentTrajectory, a: float, b: float) -> int:
    """Signed count of conjugate points on the leg a -> b (the Maslov index
    of the leg), each weighted by its order.

    Conjugate points are the times where W = U conj(U)^(-1) of
    :func:`_frame_winding` has the eigenvalue -1.  At a all eigenvalues sit
    at -1; the ones that leave it by wrapping (the negative directions of
    Hpp going forward, the positive ones going backward) are not conjugate
    points and are taken off the winding.  With a positive-definite
    momentum block every crossing has the same sense and the count is
    nonnegative both ways.
    """
    m = _frame_winding(traj, a, b)
    n = traj.n
    hpp = effective_hessian(traj.model, traj.kappa_tilde, a)[:n, :n]
    negative = int(np.sum(np.linalg.eigvalsh(hpp) < 0.0))
    return m + negative if b > a else negative - n - m


def build_kernel_context(traj: MomentTrajectory, a: float,
                         b: float) -> KernelContext:
    """Assemble the propagator context for the leg a -> b of a trajectory,
    whose model and coupling family it carries; raises CausticError when
    |det l3| is at most the free-particle value scaled down by 1e-8."""
    model = traj.model
    n = model.n
    hbar = model.hbar

    A = traj.between(a, b)
    l1, _, l3, l4 = matriciant_blocks(A)
    det_l3 = float(np.linalg.det(l3))
    if abs(det_l3) <= 1e-8 * max(abs(b - a), 1e-6) ** n / model.mass ** n:
        raise CausticError(
            f"|det l3| = {abs(det_l3):.3e} at dt = {b - a:.4g}: conjugate "
            "point; split the interval via the group property")

    # arg det(-2*pi*i*hbar*l3) = pi (n/2 + m); its parity fixes sign det l3
    m = _frame_winding(traj, a, b)
    if (-1.0) ** (n + m) != math.copysign(1.0, det_l3):
        raise IntegrationError(
            "branch phase inconsistent with the sign of det l3")
    arg_D = math.pi * (n / 2.0 + m)
    prefactor = complex(
        ((2.0 * math.pi * hbar) ** n * abs(det_l3)) ** -0.5
        * np.exp(-0.5j * arg_D))

    inv_l3 = np.linalg.inv(l3)
    dS = traj.action(b) - traj.action(a)
    return KernelContext(
        model=model, s=a, t=b,
        P_s=traj.momentum(a), X_s=traj.position(a),
        P_t=traj.momentum(b), X_t=traj.position(b), l3=l3,
        action_diff=dS, prefactor=prefactor, det_l3=det_l3,
        m_xx=inv_l3 @ l4, m_xy=inv_l3, m_yy=l1 @ inv_l3)


def _coords(arr, n: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if n == 1:
        if arr.ndim == 0 or arr.shape[-1] != 1:
            arr = arr[..., None]
        return arr
    if arr.ndim == 0 or arr.shape[-1] != n:
        raise ValueError(f"points must have trailing dimension {n}")
    return arr


def green_function(ctx: KernelContext, x, y) -> np.ndarray | complex:
    """Evaluate the propagator at points x (time t) and y (time s);
    broadcasting over leading dimensions."""
    n = ctx.n
    scalar = np.asarray(x).ndim == 0 and np.asarray(y).ndim == 0
    dx = _coords(x, n) - ctx.X_t
    dy = _coords(y, n) - ctx.X_s
    dx, dy = np.broadcast_arrays(dx, dy)
    phase = (ctx.action_diff
             + dx @ ctx.P_t - dy @ ctx.P_s
             - 0.5 * np.einsum("...i,ij,...j->...", dy, ctx.m_yy, dy)
             + np.einsum("...i,ij,...j->...", dx, ctx.m_xy, dy)
             - 0.5 * np.einsum("...i,ij,...j->...", dx, ctx.m_xx, dx))
    out = ctx.prefactor * np.exp(1j * phase / ctx.model.hbar)
    return complex(out) if scalar else out


def oscillator_kernel_factor(dx, dy, tau: float, p_t: float, p_s: float,
                             m: float, hbar: float, omega: float,
                             omega_h: float = 0.0) -> np.ndarray:
    """One-axis oscillator propagator factor in closed form.

    The branch carries a quarter-turn per conjugate point: the winding index
    floor(|omega*tau|/pi) advances the determinant phase by pi in the
    direction of the path.
    """
    sin_wt = math.sin(omega * tau)
    if abs(sin_wt) < 1e-12:
        raise CausticError(f"sin(omega*dt) ~ 0 at dt = {tau:.4g}")
    nu = math.floor(abs(omega * tau) / math.pi) * math.copysign(1.0, tau)
    arg_d = math.pi / 2.0 + math.pi * nu
    pref = (m * omega / (2.0 * math.pi * hbar * abs(sin_wt))) ** 0.5 \
        * np.exp(-0.5j * arg_d)
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    phase = (p_t * dx - p_s * dy
             + (omega * m / (2.0 * sin_wt))
             * (math.cos(omega * tau) * (dx ** 2 + dy ** 2)
                - 2.0 * math.cos(omega_h * tau / 2.0) * dx * dy))
    return pref * np.exp(1j * phase / hbar)


def closed_form_kernel_1d(traj: MomentTrajectory, x, y, t: float,
                          s: float) -> np.ndarray | complex:
    """Driven-oscillator propagator for the 1D setup, assembled from the
    closed-form factor and the trajectory action."""
    params = example_params(traj.model, Example1DParams,
                            "the closed-form 1D kernel")
    hbar = traj.model.hbar
    omega = params.Omega(traj.kappa_tilde)
    tau = t - s
    dx = np.asarray(x, dtype=float) - traj.position(t)[0]
    dy = np.asarray(y, dtype=float) - traj.position(s)[0]
    fac = oscillator_kernel_factor(dx, dy, tau,
                                   traj.momentum(t)[0], traj.momentum(s)[0],
                                   params.m, hbar, omega)
    dS = traj.action(t) - traj.action(s)
    out = fac * np.exp(1j * dS / hbar)
    return complex(out) if np.asarray(x).ndim == 0 and np.asarray(y).ndim == 0 \
        else out


def closed_form_kernel_3d(traj: MomentTrajectory, x, y, t: float,
                          s: float) -> np.ndarray | complex:
    """Magnetic-trap propagator for the 3D setup: two in-plane factors at
    omega_1, an axial factor at omega_2, and the magnetic cross term."""
    params = example_params(traj.model, Example3DParams,
                            "the closed-form 3D kernel")
    hbar = traj.model.hbar
    w1, w2 = params.frequencies(traj.kappa_tilde)
    wh = params.omega_H
    tau = t - s
    scalar = np.asarray(x).ndim == 1 and np.asarray(y).ndim == 1
    dx = _coords(x, 3) - traj.position(t)
    dy = _coords(y, 3) - traj.position(s)
    dx, dy = np.broadcast_arrays(dx, dy)
    P_t, P_s = traj.momentum(t), traj.momentum(s)
    out = oscillator_kernel_factor(dx[..., 0], dy[..., 0], tau,
                                   P_t[0], P_s[0], params.m, hbar, w1, wh)
    out = out * oscillator_kernel_factor(dx[..., 1], dy[..., 1], tau,
                                         P_t[1], P_s[1], params.m, hbar, w1, wh)
    out = out * oscillator_kernel_factor(dx[..., 2], dy[..., 2], tau,
                                         P_t[2], P_s[2], params.m, hbar, w2)
    sin_w1 = math.sin(w1 * tau)
    cross = (-params.m * w1 * math.sin(wh * tau / 2.0) / sin_w1) \
        * (dx[..., 0] * dy[..., 1] - dx[..., 1] * dy[..., 0])
    dS = traj.action(t) - traj.action(s)
    out = out * np.exp(1j * (cross + dS) / hbar)
    return complex(out) if scalar else out


def dump_kernel_csv(ctx: KernelContext, xs, ys, path) -> None:
    """Debug dump of pointwise kernel samples (1D contexts)."""
    ys = np.asarray(ys, dtype=float)
    rows = []
    for xv in np.asarray(xs, dtype=float):
        g = np.atleast_1d(green_function(ctx, np.full_like(ys, xv), ys))
        rows += [(xv, yv, gv.real, gv.imag) for yv, gv in zip(ys, g)]
    write_csv(path, ["x", "y", "re", "im"], rows)
