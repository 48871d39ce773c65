"""The nonlinear evolution operator and its inverse, composition and
superposition on grid states.

The operator integrates the moment system from the input state's own moment
record, builds the Gaussian propagator for the resulting trajectory, and
applies it by trapezoid quadrature on the uniform grid: a discrete linear
canonical transform whose one-body chirps are products of 1D and 2D
factors and whose cross term dx^T l3^(-1) dy is a Bluestein chirp
convolution, O(N log N) per uncoupled axis; one axis pair coupled through
l3^(-1) is contracted in Fourier space (:func:`_chirp_z_pair`).  A leg may
cross conjugate points, its branch read off the trajectory's frame.  The
plan decides every leg: it splits the interval, composing the legs of the
one trajectory, only where a leg would alias or end within the caustic
tolerance of a conjugate point; it refuses a leg whose kernel couples more
than one axis pair; and it fixes each leg's output grid, so :func:`evolve`
only applies legs.  Every leg's output passes the input resolution gate,
so a returned state is a valid input of every other operation; a state
whose hbar is not the model's is refused before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sp_fft

from .ehrenfest import MomentTrajectory, integrate_moments, matriciant_blocks
from .errors import CausticError, PlanError, ResolutionError
from .kernel import KernelContext, build_kernel_context
from .model import QuadraticModel
from .moments import constants_of_motion
from .state import Axis, GridState, _unit, check_resolved, support_radius

ALIAS_MARGIN = 1.1  # alias-image clearance of the box, in support radii
MAX_DEPTH = 8  # deepest bisection the planner tries
# largest phase, in radians, that a dropped cross-term entry may add over
# the grid: below it two axes count as uncoupled
_DROP_PHASE = 1e-13


@dataclass(frozen=True)
class EvolveOptions:
    """``recenter``: output grids follow the mean; ``kappa_tilde``: pinned
    coupling family (default: the state's own)."""

    recenter: bool = False
    kappa_tilde: float | None = None


@dataclass(frozen=True)
class EvolutionPlan:
    """Caustic-free legs covering [s, t], each as its kernel context, and
    the output grid of each leg, the one its alias test checked."""

    s: float
    t: float
    legs: tuple[KernelContext, ...]
    grids: tuple[tuple[Axis, ...], ...]

    @property
    def splits(self) -> tuple[tuple[float, float], ...]:
        return tuple((leg.s, leg.t) for leg in self.legs)


def _alias_images_ok(model: QuadraticModel, l3: np.ndarray,
                     axes_in: tuple[Axis, ...], axes_out: tuple[Axis, ...],
                     x_b: np.ndarray, r_in: float) -> bool:
    """Sampling the kernel aliases the input boosted by one reciprocal-grid
    momentum per axis; each image is a packet displaced by -l3^T (2 pi hbar /
    delta) e_a whose support must clear the output box."""
    for a, ax in enumerate(axes_in):
        vec = (2.0 * math.pi * model.hbar / ax.delta) * l3[a, :]
        for center in (x_b - vec, x_b + vec):
            d2 = sum(max(o.lo - c, 0.0, c - o.hi) ** 2
                     for o, c in zip(axes_out, center))
            if math.sqrt(d2) < ALIAS_MARGIN * r_in:
                return False
    return True


def plan_evolution(traj: MomentTrajectory, state: GridState,
                   opts: EvolveOptions) -> EvolutionPlan:
    """Split the trajectory's interval [s, t] into legs that the grid of
    ``state`` carries without aliasing and that end off the caustics, and
    refuse a leg whose kernel couples more than one axis pair."""
    model, n, s, t = traj.model, traj.n, traj.s, traj.t
    r0 = support_radius(state, traj.position(s))
    sxx0 = float(np.trace(traj.Delta(s)[n:, n:]))

    def r_in(a: float) -> float:
        sxx = float(np.trace(traj.Delta(a)[n:, n:]))
        return r0 * max(1.0, math.sqrt(sxx / sxx0))

    legs: list[KernelContext] = []
    grids: list[tuple[Axis, ...]] = [state.axes]  # input, then leg outputs

    def recurse(a: float, b: float, depth: int) -> None:
        _, _, l3, _ = matriciant_blocks(traj.between(a, b))
        axes_out = _recentered(state.axes, traj.position(b)) \
            if opts.recenter else state.axes
        why = "grid too coarse"
        if _alias_images_ok(model, l3, state.axes, axes_out,
                            traj.position(b), r_in(a)):
            try:
                ctx = build_kernel_context(traj, a, b)
            except CausticError:
                why = "conjugate point"
            else:
                _coupled_pair(ctx, grids[-1], axes_out)
                legs.append(ctx)
                grids.append(axes_out)
                return
        if depth >= MAX_DEPTH:
            raise PlanError(
                f"no admissible evolution plan over [{s:.6g}, {t:.6g}]: "
                f"{why} on [{a:.6g}, {b:.6g}]")
        mid = 0.5 * (a + b)
        recurse(a, mid, depth + 1)
        recurse(mid, b, depth + 1)

    recurse(s, t, 0)
    return EvolutionPlan(s, t, tuple(legs), tuple(grids[1:]))


def _index_cross(ctx: KernelContext, axes_in: tuple[Axis, ...],
                 axes_out: tuple[Axis, ...]) -> np.ndarray:
    """The leg's index cross term C = diag(dX) m_xy diag(dY) / hbar."""
    return np.outer([o.delta for o in axes_out],
                    [o.delta for o in axes_in]) * ctx.m_xy / ctx.model.hbar


def _coupled_pair(ctx: KernelContext, axes_in: tuple[Axis, ...],
                  axes_out: tuple[Axis, ...]) -> tuple[int, int] | None:
    """The one axis pair that the leg's cross term couples beyond
    _DROP_PHASE, or None; more than one raises PlanError, naming the leg."""
    last = np.array([o.num for o in axes_in]) - 1
    reach = np.abs(_index_cross(ctx, axes_in, axes_out)) \
        * np.outer(last, last)
    pairs = [(a, b) for a in range(ctx.n) for b in range(a + 1, ctx.n)
             if max(reach[a, b], reach[b, a]) > _DROP_PHASE]
    if len(pairs) > 1:
        raise PlanError(f"leg [{ctx.s:.4g}, {ctx.t:.4g}]: the kernel cross "
                        "term couples the axis pairs "
                        f"{', '.join(map(str, pairs))}; only one coupled "
                        "axis pair is supported")
    return pairs[0] if pairs else None


def _chirp(f: np.ndarray, offsets: tuple[np.ndarray, ...], lin: np.ndarray,
           quad: np.ndarray, hbar: float, scalar: complex = 1.0) -> np.ndarray:
    """scalar f exp{(i/hbar) [lin.d - d^T quad d / 2]} on the sparse grid of
    per-axis offsets d, as a new C-contiguous array.

    The chirp is never summed over the full grid: it is the product of n 1D
    factors exp{(i/hbar) (lin_a - quad_aa d_a / 2) d_a}, the scalar folded
    into the first, and n(n-1)/2 2D factors exp{-(i/2hbar) (quad_ab +
    quad_ba) d_a d_b}.  Each 1D factor joins the first 2D factor that
    spans its axis, so f is multiplied once per 2D factor (once in 1D).
    """
    n = len(offsets)
    # times 1/hbar, not over hbar: numpy evaluates exp(1j * x / hbar) with
    # the phase x * (1/hbar), and the factors stay bitwise those
    inv = 1.0 / hbar
    ones = [_unit(((lin[a] - 0.5 * (quad[a, a] * d)) * d) * inv)
            for a, d in enumerate(offsets)]
    ones[0] = scalar * ones[0]
    tables = [_unit(-0.5 * (quad[a, b] + quad[b, a])
                    * (offsets[a] * offsets[b]) * inv)
              for a in range(n) for b in range(a + 1, n)]
    for fac in ones:
        for i, tab in enumerate(tables):
            if np.broadcast_shapes(tab.shape, fac.shape) == tab.shape:
                tables[i] = tab * fac
                break
        else:
            tables.append(fac)
    out = np.multiply(f, tables[0], order="C")
    for tab in tables[1:]:
        out *= tab
    return out


def _bluestein(c: float, n: int):
    """Setup of sum_j exp(i c i j) f[j] for i, j < n, by Bluestein's
    identity i j = (i^2 + j^2 - (i - j)^2) / 2: with w[m] = exp(i c m^2 / 2)
    the sum is w[i] sum_j conj(w[i - j]) w[j] f[j], one FFT convolution at
    a length that holds every lag k = i - j without wrap-around.

    Returns w[m] for m from 0 to n - 1 (w is even, so these are all its
    values); the lag k held by each slot of the convolution (lag k sits at
    slot k mod size); and the lag chirp conj(w[k]) in those slots, zero on
    the padding.
    """
    size = sp_fft.next_fast_len(2 * n - 1)
    w = _unit(0.5 * c * np.arange(n, dtype=float) ** 2)
    k = np.arange(size)
    k[n:] -= size
    lags = np.zeros(size, dtype=complex)
    lags[:n] = w.conj()  # lags 0 .. n - 1
    lags[size - n + 1:] = w[:0:-1].conj()  # lags -(n - 1) .. -1
    return w, k, lags


def _chirp_z(f: np.ndarray, c: float) -> np.ndarray:
    """sum_j exp(i c i j) f[..., j] for i over the points of the last axis,
    by one Bluestein convolution along it."""
    n = f.shape[-1]
    w, _, lags = _bluestein(c, n)
    buf = np.zeros(f.shape[:-1] + lags.shape, dtype=complex)
    np.multiply(f, w, out=buf[..., :n])
    spec = sp_fft.fft(buf, overwrite_x=True)
    spec *= sp_fft.fft(lags)
    out = sp_fft.ifft(spec, overwrite_x=True)[..., :n]
    return out * w


def _chirp_z_pair(f: np.ndarray, C: np.ndarray, a: int, b: int) -> np.ndarray:
    """sum over (j_a, j_b) of exp{i (C_aa i_a j_a + C_ab i_a j_b + C_ba i_b
    j_a + C_bb i_b j_b)} f for two coupled axes, for all slices of the
    other axes at once.  Output index i and input index j run over the
    same points of each axis.

    With the Bluestein lag k = i_a - j_a of axis a, both cross terms split
    into a lag part and a part free of one output index:

        C_ab i_a j_b = C_ab k j_b + C_ab j_a j_b,
        C_ba i_b j_a = C_ba i_b i_a - C_ba i_b k.

    So the lag kernel L[i_b, j_b, k] = conj(w[k]) exp{i k (C_ab j_b - C_ba
    i_b)} carries them, the input no longer depends on i_b, and

        out[i_a, i_b] = w[i_a] exp(i C_ba i_a i_b) IFFT_q( sum_j_b T[i_b,
            q, j_b] FFT_j_a( exp(i C_ab j_a j_b) w[j_a] f[j_a, j_b] )[q] ),

    with the table T = exp(i C_bb i_b j_b) FFT_k L.  Per call: n_b^2 table
    transforms, one forward transform per input line, one batched matrix
    product over q and one inverse transform per output line, O(N^4) in 3D
    and O(N^3 log N) in 2D.  The input is dropped after its forward
    transform, before the table is built, so at most three arrays of the
    table's size (transformed input, table, product) live at once.
    """
    g = np.moveaxis(f, (b, a), (0, 1))  # [j_b, j_a, other axes]
    nb, na = g.shape[:2]
    other = g.shape[2:]
    w, k, lags = _bluestein(C[a, a], na)
    ia = ja = np.arange(na)
    ib = jb = np.arange(nb)
    in_factor = _unit(C[a, b] * np.outer(jb, ja)) * w
    spec = sp_fft.fft(g.reshape(nb, na, -1) * in_factor[..., None],
                      n=lags.size, axis=1, overwrite_x=True)  # [j_b, q, .]
    del f, g  # the input is not needed past its transform
    table = _unit(-C[b, a] * np.outer(ib, k))[:, :, None] \
        * (lags[:, None] * _unit(C[a, b] * np.outer(k, jb)))
    table *= _unit(C[b, b] * np.outer(ib, jb))[:, None, :]
    table = sp_fft.fft(table, axis=1, overwrite_x=True)  # [i_b, q, j_b]
    prod = np.empty((nb, lags.size, spec.shape[-1]), dtype=complex)
    # each q-matrix of the transposed views has unit stride along its rows,
    # so BLAS takes them as they are: no transpose copies
    np.matmul(table.transpose(1, 0, 2), spec.transpose(1, 0, 2),
              out=prod.transpose(1, 0, 2))
    del table, spec
    out = sp_fft.ifft(prod, axis=1, overwrite_x=True)[:, :na]
    out *= (_unit(C[b, a] * np.outer(ib, ia)) * w)[..., None]
    out = out.reshape((nb, na) + other)
    return np.moveaxis(out, (0, 1), (b, a))


def _apply_kernel(ctx: KernelContext, state: GridState,
                  axes_out: tuple[Axis, ...]) -> np.ndarray:
    """Trapezoid quadrature of the propagator against the state, for every
    dimension, in O(N log N) per uncoupled axis.

    The output axes have the input's point counts.  With dx = x0 + i dX
    and dy = y0 + j dY (x0, y0 the offsets of the first output and input
    points), the phase splits into one-body chirps of y and of x and the
    index cross term i^T C j, C = diag(dX) m_xy diag(dY) / hbar.  Each
    uncoupled axis takes one chirp-z; the coupled pair of
    :func:`_coupled_pair` takes :func:`_chirp_z_pair`.
    """
    hbar = ctx.model.hbar
    m_xy = ctx.m_xy
    x0 = np.array([o.lo for o in axes_out]) - ctx.X_t
    y0 = np.array([o.lo for o in state.axes]) - ctx.X_s
    dx = np.meshgrid(*(o.points - c for o, c in zip(axes_out, ctx.X_t)),
                     indexing="ij", sparse=True)
    dy = np.meshgrid(*(o.points - c for o, c in zip(state.axes, ctx.X_s)),
                     indexing="ij", sparse=True)
    C = _index_cross(ctx, state.axes, axes_out)
    pair = _coupled_pair(ctx, state.axes, axes_out)

    chirp_in = (dy, m_xy.T @ x0 - ctx.P_s, ctx.m_yy, hbar)
    if pair:
        a, b = pair
        # a temporary argument, passed by position (no local, no *args), is
        # referenced by the pair alone, which frees it after its forward
        # transform (CPython 3.11+ hands such arguments to the callee)
        f = _chirp_z_pair(_chirp(state.psi, *chirp_in), C, a, b)
    else:
        f = _chirp(state.psi, *chirp_in)
    for a in sorted(set(range(ctx.n)).difference(pair or ())):  # uncoupled
        f = np.moveaxis(_chirp_z(np.moveaxis(f, a, -1), C[a, a]), -1, a)
    scalar = ctx.prefactor * state.weight \
        * np.exp(1j * (ctx.action_diff - x0 @ m_xy @ y0) / hbar)
    return _chirp(f, dx, ctx.P_t + m_xy @ y0, ctx.m_xx, hbar, scalar)


def _recentered(axes: tuple[Axis, ...], center: np.ndarray) -> tuple[Axis, ...]:
    return tuple(Axis(c - (ax.hi - ax.lo) / 2.0, c + (ax.hi - ax.lo) / 2.0,
                      ax.num) for ax, c in zip(axes, center))


def evolve(model: QuadraticModel, psi: GridState, t: float,
           opts: EvolveOptions | None = None) -> GridState:
    """Propagate a localized state from its own time label to t; raises
    ResolutionError rather than return a state it would refuse as input,
    and ModelError for a state whose hbar is not the model's."""
    opts = opts or EvolveOptions()
    cons = constants_of_motion(model, psi)
    if t == psi.t:
        return psi
    kt = cons.kappa_tilde if opts.kappa_tilde is None else opts.kappa_tilde
    traj = integrate_moments(model, kt, cons.point, psi.t, t)
    plan = plan_evolution(traj, psi, opts)
    current = psi
    for leg, axes_out in zip(plan.legs, plan.grids):
        current = GridState(axes_out, _apply_kernel(leg, current, axes_out),
                            leg.t, current.hbar)
        try:
            check_resolved(current)
        except ResolutionError as err:
            raise ResolutionError(f"state unresolved after leg "
                                  f"[{leg.s:.4g}, {leg.t:.4g}]: {err}") from err
    return current


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
    psi1 = evolve_inverse(model, Psi1, s, fixed)
    psi2 = evolve_inverse(model, Psi2, s, fixed)
    combined = psi1.with_psi(c1 * psi1.psi + c2 * psi2.psi)
    return evolve(model, combined, Psi1.t, opts)
