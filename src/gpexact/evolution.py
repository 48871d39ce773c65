"""The nonlinear evolution operator and its inverse, composition and
superposition on grid states.

The operator integrates the moment system from the input state's own moment
record, builds the Gaussian propagator for the resulting trajectory, and
applies it by dense trapezoid quadrature.  Conjugate points are never crossed
inside a single quadrature leg: the plan splits the interval and composes,
which is legitimate because the legs share one trajectory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .ehrenfest import (Matriciant, MomentTrajectory, integrate_moments,
                        matriciant_blocks)
from .errors import PlanError, ResolutionError
from .kernel import KernelContext, build_kernel_context, caustic_tolerance
from .model import QuadraticModel
from .moments import constants_of_motion
from .state import Axis, GridState, check_resolved, support_radius

_MAX_DENSE_BLOCK = 1 << 23  # complex entries per quadrature block


@dataclass(frozen=True)
class EvolveOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    recenter: bool = False
    kappa_tilde: float | None = None
    caustic_factor: float = 1.0
    alias_margin: float = 1.1
    max_depth: int = 8
    threads: int = 1
    tail_tol: float = 1e-9
    spectral_tol: float = 1e-8


@dataclass(frozen=True)
class EvolutionPlan:
    """Caustic-free legs covering [s, t], with one propagator context each."""

    s: float
    t: float
    splits: tuple[tuple[float, float], ...]
    contexts: tuple[KernelContext, ...] = field(default=())


def _box_distance(axes: tuple[Axis, ...], point: np.ndarray) -> float:
    d2 = 0.0
    for a, ax in enumerate(axes):
        d2 += max(ax.lo - point[a], 0.0, point[a] - ax.hi) ** 2
    return math.sqrt(d2)


def _alias_images_ok(model: QuadraticModel, l3: np.ndarray,
                     axes_in: tuple[Axis, ...], axes_out: tuple[Axis, ...],
                     x_b: np.ndarray, r_in: float, margin: float) -> bool:
    """Sampling the kernel aliases the input boosted by one reciprocal-grid
    momentum per axis; each image is a packet displaced by -l3^T (2 pi hbar /
    delta) e_a whose support must clear the output box."""
    for a, ax in enumerate(axes_in):
        vec = (2.0 * math.pi * model.hbar / ax.delta) * l3[a, :]
        for sgn in (1.0, -1.0):
            center = x_b - sgn * vec
            if _box_distance(axes_out, center) < margin * r_in:
                return False
    return True


def plan_evolution(model: QuadraticModel, kappa_tilde: float,
                   traj: MomentTrajectory, var: Matriciant,
                   state: GridState, s: float, t: float,
                   opts: EvolveOptions) -> EvolutionPlan:
    n = model.n
    r0 = support_radius(state, traj.position(s))
    sxx0 = float(np.trace(traj.Delta(s)[n:, n:]))

    def r_in(a: float) -> float:
        sxx = float(np.trace(traj.Delta(a)[n:, n:]))
        return r0 * max(1.0, math.sqrt(sxx / sxx0))

    def gates(a: float, b: float) -> tuple[bool, bool]:
        A = var.between(a, b)
        _, _, l3, _ = matriciant_blocks(A)
        det = abs(float(np.linalg.det(l3)))
        caustic_ok = det > caustic_tolerance(model, b - a, opts.caustic_factor)
        axes_out = _recentered(state.axes, traj.position(b)) \
            if opts.recenter else state.axes
        alias_ok = _alias_images_ok(model, l3, state.axes, axes_out,
                                    traj.position(b), r_in(a),
                                    opts.alias_margin)
        return caustic_ok, alias_ok

    splits: list[tuple[float, float]] = []

    def recurse(a: float, b: float, depth: int) -> None:
        caustic_ok, alias_ok = gates(a, b)
        if caustic_ok and alias_ok:
            splits.append((a, b))
            return
        if depth >= opts.max_depth:
            why = "conjugate point" if not caustic_ok else "grid too coarse"
            raise PlanError(
                f"no admissible evolution plan over [{a:.6g}, {b:.6g}]: {why}")
        mid = 0.5 * (a + b)
        recurse(a, mid, depth + 1)
        recurse(mid, b, depth + 1)

    recurse(s, t, 0)
    return EvolutionPlan(s, t, tuple(splits))


def _phase_outer_1d(ctx: KernelContext, xs: np.ndarray,
                    ys: np.ndarray) -> np.ndarray:
    hbar = ctx.model.hbar
    dx = xs - ctx.X_t[0]
    dy = ys - ctx.X_s[0]
    fx = (ctx.P_t[0] * dx - 0.5 * ctx.m_xx[0, 0] * dx ** 2) / hbar
    fy = (-ctx.P_s[0] * dy - 0.5 * ctx.m_yy[0, 0] * dy ** 2) / hbar
    cross = (ctx.m_xy[0, 0] / hbar) * np.outer(dx, dy)
    return fx[:, None] + fy[None, :] + cross


def _apply_dense(ctx: KernelContext, state: GridState,
                 axes_out: tuple[Axis, ...], threads: int) -> np.ndarray:
    """Chunked dense quadrature for n = 1, 2."""
    n = ctx.n
    hbar = ctx.model.hbar
    scalar = ctx.prefactor * np.exp(1j * ctx.action_diff / hbar)
    w = state.weight
    src = state.psi.ravel()

    if n == 1:
        xs = axes_out[0].points
        ys = state.axes[0].points
        rows_per_block = max(1, _MAX_DENSE_BLOCK // ys.size)

        def do_block(i0: int) -> np.ndarray:
            i1 = min(i0 + rows_per_block, xs.size)
            phase = _phase_outer_1d(ctx, xs[i0:i1], ys)
            return (np.exp(1j * phase) @ src) * (w * scalar)

        blocks = range(0, xs.size, rows_per_block)
        if threads > 1:
            with ThreadPoolExecutor(threads) as pool:
                parts = list(pool.map(do_block, blocks))
        else:
            parts = [do_block(i0) for i0 in blocks]
        return np.concatenate(parts)

    # generic dense path, n = 2
    ypts = state.grids(sparse=False)
    Y = np.stack([p.ravel() for p in ypts], axis=-1)
    xg = np.meshgrid(*(ax.points for ax in axes_out), indexing="ij",
                     sparse=False)
    X = np.stack([p.ravel() for p in xg], axis=-1)
    dy = Y - ctx.X_s
    gy = (-dy @ ctx.P_s - 0.5 * np.einsum("yi,ij,yj->y", dy, ctx.m_yy, dy)) / hbar
    rows_per_block = max(1, _MAX_DENSE_BLOCK // Y.shape[0])

    def do_block2(i0: int) -> np.ndarray:
        i1 = min(i0 + rows_per_block, X.shape[0])
        dx = X[i0:i1] - ctx.X_t
        gx = (dx @ ctx.P_t - 0.5 * np.einsum("xi,ij,xj->x", dx, ctx.m_xx, dx)) / hbar
        cross = (dx @ ctx.m_xy @ dy.T) / hbar
        kern = np.exp(1j * (gx[:, None] + gy[None, :] + cross))
        return (kern @ src) * (w * scalar)

    blocks = range(0, X.shape[0], rows_per_block)
    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(do_block2, blocks))
    else:
        parts = [do_block2(i0) for i0 in blocks]
    return np.concatenate(parts)


def _block_structure_ok(M: np.ndarray, tol: float = 1e-9) -> bool:
    scale = max(1.0, float(np.max(np.abs(M))))
    off = max(float(np.max(np.abs(M[:2, 2:]))), float(np.max(np.abs(M[2:, :2]))))
    return off <= tol * scale


def _apply_factorized_3d(ctx: KernelContext, state: GridState,
                         axes_out: tuple[Axis, ...]) -> np.ndarray:
    """Separable quadrature for 3D models whose variational blocks decouple
    the (x1, x2) plane from x3 (in-plane rotation times axial oscillator)."""
    hbar = ctx.model.hbar
    for M in (ctx.m_xx, ctx.m_xy, ctx.m_yy):
        if not _block_structure_ok(M):
            raise PlanError("3D quadrature requires plane/axis separable "
                            "variational blocks; generic dense 3D is not "
                            "supported")
    ax1, ax2, ax3 = state.axes
    ox1, ox2, ox3 = axes_out
    w12 = ax1.delta * ax2.delta
    w3 = ax3.delta

    # axial factor
    dx3 = ox3.points - ctx.X_t[2]
    dy3 = ax3.points - ctx.X_s[2]
    ph3 = (ctx.P_t[2] * dx3[:, None] - ctx.P_s[2] * dy3[None, :]
           - 0.5 * ctx.m_yy[2, 2] * dy3[None, :] ** 2
           + ctx.m_xy[2, 2] * np.outer(dx3, dy3)
           - 0.5 * ctx.m_xx[2, 2] * dx3[:, None] ** 2) / hbar
    k3 = np.exp(1j * ph3)

    # in-plane factor, shape (ox1, ox2, ax1, ax2)
    dx1 = (ox1.points - ctx.X_t[0])[:, None, None, None]
    dx2 = (ox2.points - ctx.X_t[1])[None, :, None, None]
    dy1 = (ax1.points - ctx.X_s[0])[None, None, :, None]
    dy2 = (ax2.points - ctx.X_s[1])[None, None, None, :]
    mxx, mxy, myy = ctx.m_xx, ctx.m_xy, ctx.m_yy
    ph12 = (ctx.P_t[0] * dx1 + ctx.P_t[1] * dx2
            - ctx.P_s[0] * dy1 - ctx.P_s[1] * dy2
            - 0.5 * (myy[0, 0] * dy1 ** 2 + 2.0 * myy[0, 1] * dy1 * dy2
                     + myy[1, 1] * dy2 ** 2)
            + (mxy[0, 0] * dx1 * dy1 + mxy[0, 1] * dx1 * dy2
               + mxy[1, 0] * dx2 * dy1 + mxy[1, 1] * dx2 * dy2)
            - 0.5 * (mxx[0, 0] * dx1 ** 2 + 2.0 * mxx[0, 1] * dx1 * dx2
                     + mxx[1, 1] * dx2 ** 2)) / hbar
    scalar = ctx.prefactor * np.exp(1j * ctx.action_diff / hbar)
    k12 = np.exp(1j * ph12)

    tmp = np.einsum("cf,def->dec", k3, state.psi) * w3
    flat = k12.reshape(ox1.num * ox2.num, ax1.num * ax2.num)
    out = flat @ tmp.reshape(ax1.num * ax2.num, ox3.num)
    out = out.reshape(ox1.num, ox2.num, ox3.num) * (w12 * scalar)
    return out


def _apply_context(ctx: KernelContext, state: GridState,
                   axes_out: tuple[Axis, ...], opts: EvolveOptions) -> GridState:
    if ctx.n <= 2:
        psi = _apply_dense(ctx, state, axes_out, opts.threads)
        psi = psi.reshape(tuple(ax.num for ax in axes_out))
    else:
        psi = _apply_factorized_3d(ctx, state, axes_out)
    return GridState(tuple(axes_out), psi, ctx.t, state.hbar)


def _recentered(axes: tuple[Axis, ...], center: np.ndarray) -> tuple[Axis, ...]:
    out = []
    for a, ax in enumerate(axes):
        span = ax.hi - ax.lo
        out.append(Axis(center[a] - span / 2.0, center[a] + span / 2.0, ax.num))
    return tuple(out)


def _propagate(model: QuadraticModel, state: GridState, g0, kappa_tilde: float,
               target: float, opts: EvolveOptions) -> GridState:
    s = state.t
    if target == s:
        return state
    traj = integrate_moments(model, kappa_tilde, g0, s, target,
                             rtol=opts.rtol, atol=opts.atol)
    plan = plan_evolution(model, kappa_tilde, traj, traj, state, s, target,
                          opts)
    contexts = tuple(
        build_kernel_context(model, kappa_tilde, traj, traj, a, b,
                             caustic_tol=caustic_tolerance(
                                 model, b - a, opts.caustic_factor))
        for (a, b) in plan.splits)
    plan = EvolutionPlan(plan.s, plan.t, plan.splits, contexts)

    current = state
    for (a, b), ctx in zip(plan.splits, plan.contexts):
        axes_out = _recentered(current.axes, traj.position(b)) \
            if opts.recenter else current.axes
        current = _apply_context(ctx, current, axes_out, opts)
        try:
            check_resolved(current, opts.tail_tol, opts.spectral_tol)
        except ResolutionError as err:
            raise ResolutionError(
                f"state unresolved after leg [{a:.4g}, {b:.4g}]: {err}") from err
    return current


def evolve(model: QuadraticModel, psi: GridState, t: float,
           opts: EvolveOptions | None = None) -> GridState:
    """Propagate a localized state from its own time label to t."""
    opts = opts or EvolveOptions()
    cons = constants_of_motion(model, psi)
    kt = cons.kappa_tilde if opts.kappa_tilde is None else opts.kappa_tilde
    return _propagate(model, psi, cons.point, kt, t, opts)


def evolve_inverse(model: QuadraticModel, Psi: GridState, s: float,
                   opts: EvolveOptions | None = None) -> GridState:
    """Left inverse of :func:`evolve`: the propagator with swapped time
    arguments, its moment record read off the state itself."""
    return evolve(model, Psi, s, opts)


def evolve_composed(model: QuadraticModel, psi: GridState, s: float, r: float,
                    t: float, opts: EvolveOptions | None = None) -> GridState:
    """Group-law composition: re-launch the evolution from the intermediate
    state at r, whose moment record is recomputed from scratch."""
    if psi.t != s:
        raise ValueError("initial state must carry time label s")
    if not (min(s, t) <= r <= max(s, t)):
        raise ValueError("intermediate time must lie between s and t")
    mid = evolve(model, psi, r, opts)
    return evolve(model, mid, t, opts)


def superpose(model: QuadraticModel, Psi1: GridState, Psi2: GridState,
              c1: float, c2: float, s: float = 0.0,
              opts: EvolveOptions | None = None) -> GridState:
    """Nonlinear superposition: pull both solutions back to s, combine
    linearly, and evolve the combination as a fresh initial state.

    The pullbacks stay on the shared input grid (no recentering), so the
    combination is a plain pointwise sum.
    """
    if Psi1.t != Psi2.t:
        raise ValueError("solutions must be given at a common time")
    if Psi1.axes != Psi2.axes:
        raise ValueError("solutions must share a grid")
    opts = opts or EvolveOptions()
    fixed = replace(opts, recenter=False)
    t = Psi1.t
    psi1 = evolve_inverse(model, Psi1, s, fixed)
    psi2 = evolve_inverse(model, Psi2, s, fixed)
    combined = psi1.with_psi(c1 * psi1.psi + c2 * psi2.psi)
    if float(np.sum(np.abs(combined.psi) ** 2)) == 0.0:
        raise ResolutionError("superposition has zero norm")
    return evolve(model, combined, t, opts)
