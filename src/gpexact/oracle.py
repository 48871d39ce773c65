"""Independent split-step spectral reference integrator and residual checks.

The second-order Strang step V/2 K V/2 (V a potential step; K a kinetic
step, a spectral multiplier) is composed into Suzuki's symmetric
fourth-order scheme (M. Suzuki, Phys. Lett. A 146, 319 (1990)): one step of
length dt is five Strang substeps of lengths p dt, p dt, (1 - 4p) dt, p dt,
p dt with p = 1/(4 - 4^(1/3)), so the middle one runs backward.  A potential
flow leaves |psi|^2 unchanged, so the half potential steps that meet
between consecutive substeps read the same moments at the same time and
merge exactly into one.  A step is then five kinetic multipliers of lengths
p, p, 1 - 4p, p, p times dt, each one forward/inverse FFT pair (in 1D
through the one-axis transforms), with a potential flow at each kinetic
boundary s + (k + B) dt, B = 0, p, 2p, 1 - 2p, 1 - p, of length p, p,
(1 - 3p)/2, (1 - 3p)/2, p times dt; the run opens at s and closes at t
with a flow of p/2 dt.  The state starts and ends in position space, so
n steps make 5n transforms each way.  The phase gate below binds on the
longest potential flow, p dt ~ 0.41 dt; with the kinetic step outside
(K/2 V K/2) it would be the backward |1 - 4p| dt ~ 0.66 dt.  The nonlocal
quadratic coupling collapses exactly to a quadratic potential built from
the position moments of the state where the flow stands, so no
convolution is needed.  Both part flows are exact for either sign of their
length, so the composition is fourth order in dt; used only to certify
the kernel propagator, never the other way around.

A flow does only the work that depends on the state.  The model is read
once per run, before the first transform: Hzz and Hz at every potential
flow's time, checked in one pass; a model whose Hzz and Hz are data has its
drive evaluated at all those times in one vectorized cos/sin over
``model.drive``, a callable one is called at each.  What the state does not
set is a per-run list, one entry per flow: its length, the drive's
position row, and the kinetic multiplier before it.  In the loop, the
moments are one product of a fixed map with the squared float64 view of
the state, taken to Python floats once.  The potential phase
exp(-i h v / hbar) is a quadratic phase table times one linear factor per
axis times a scalar.  A data model's quadratic coefficient is constant, so
it builds one table per flow length (three of them); a callable model
rebuilds its table at every flow.  An axis of num points splits as
num = coarse * fine, fine the largest divisor of num up to sqrt(num); its
linear factor is the outer product of a coarse and a fine table, cos and
sin of one angle vector of coarse + fine points, written into buffers
allocated once per run and applied to the state through a reshape.

Three gates hold the run to the box.  At every potential flow, the boundary
tail of :func:`check_resolved`: the squares of each face of the box,
gathered and summed per face, against TAIL_TOL of their total.  At every
flow, the phase bound w |h| / hbar < PHASE_STEP_BOUND on its own length h,
w an upper bound (:func:`_spread`) on the half-range (max v - min v) / 2 of
v where the state has mass: a constant in v is a global phase, which
commutes with every flow and sets no splitting error.  w is taken over the
grid's box and, only where that fails, over the flow's mass region
(:func:`_region_box`); a run the grid admits does the same arithmetic as
without the region.  At the end, the output must pass
:func:`check_resolved`, as the output of every ``evolve`` leg does; then
its norm, read off that gate's |psi|^2, may differ from the input's (off
the input gate's) by NORM_DRIFT_TOL of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ResolutionError, StabilityError
from .model import QuadraticModel, check_hbar
from .moments import _moment_pass, centered_apply
from .state import TAIL_TOL, GridState, _resolved
from .state import _fftn as fftn, _ifftn as ifftn, _unit


NORM_DRIFT_TOL = 1e-6  # largest relative norm drift over a run
PHASE_STEP_BOUND = 0.5  # largest (max v - min v) / 2 |h| / hbar of a flow

_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
# per step, in units of dt: the kinetic flow lengths, the offsets of the
# kinetic boundaries from the step's start, and the potential flow at each
# boundary, the merged halves of the two Strang substeps that meet there
_KINETIC = np.array([_P, _P, 1.0 - 4.0 * _P, _P, _P])
_BOUNDARIES = np.cumsum(_KINETIC) - _KINETIC
_POTENTIAL = 0.5 * (_KINETIC + np.roll(_KINETIC, 1))


@dataclass(frozen=True)
class OracleConfig:
    dt: float = 4.5e-3

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt = {self.dt}: not a finite positive step")


_SPLIT_ERRORS = ("vanishing momentum-position coupling in Hzz",
                 "Hpp = I/m", "a position-only Hz")


def _potential_terms(model: QuadraticModel, taus: np.ndarray):
    """The position blocks of Hzz and Hz at every potential flow's time and
    of the interaction, checked in one pass to split into the kinetic term
    (the momentum rows of Hzz are [I/m, 0]) and a position potential; the
    first of ``taus``, in run order, where they do not is named.  A model
    whose Hzz and Hz are data is read off ``model.drive`` at all times at
    once; a callable one is called at each."""
    n = model.n
    if model.drive is None:
        hzz = np.array([model.Hzz(tau) for tau in taus])
        hz = np.array([model.Hz(tau) for tau in taus])
    else:
        h0, terms = model.drive
        hzz = np.broadcast_to(model.Hzz(taus[0]), (len(taus), 2 * n, 2 * n))
        hz = np.broadcast_to(h0, (len(taus), 2 * n))
        if terms:
            omegas, cos_vecs, sin_vecs = zip(*terms)
            phase = np.multiply.outer(taus, omegas)
            hz = hz + np.cos(phase) @ np.array(cos_vecs) \
                + np.sin(phase) @ np.array(sin_vecs)
    dev = np.abs(hzz[:, :n] - np.eye(n, 2 * n) / model.mass)
    bad = np.stack([dev[:, :, n:].max(axis=(1, 2)) > 1e-14,
                    dev[:, :, :n].max(axis=(1, 2)) > 1e-12,
                    np.abs(hz[:, :n]).max(axis=1) > 1e-14])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        raise ModelError(f"split-step oracle requires "
                         f"{_SPLIT_ERRORS[int(np.argmax(bad[:, i]))]} "
                         f"(t = {taus[i]:.6g})")
    for name, W in (("Wzz", model.Wzz), ("Wzw", model.Wzw), ("Www", model.Www)):
        if np.max(np.abs(W[:n, :])) > 0.0 or np.max(np.abs(W[:, :n])) > 0.0:
            raise ModelError(f"{name} must couple positions only")
    return (hzz[:, n:, n:], hz[:, n:],
            model.Wzz[n:, n:], model.Wzw[n:, n:], model.Www[n:, n:])


def _spread(q, lin, box) -> float:
    """An upper bound on (max v - min v) / 2, v = x.q.x + lin.x + scal, on
    the box [lo_a, hi_a] per axis, by interval arithmetic: each axis's
    parabola q_aa x_a^2 + lin_a x_a over its exact range (ends and vertex),
    each q_ab x_a x_b (a != b) over the hull of its corner products, summed;
    a smaller box never gives a larger bound."""
    width = 0.0
    for a, (qa, (la, ha)) in enumerate(zip(q.tolist(), box)):
        for b, (c, (lb, hb)) in enumerate(zip(qa, box)):
            if a == b:  # the axis's parabola, at its ends and its vertex
                ends = [(c * la + lin[a]) * la, (c * ha + lin[a]) * ha]
                if c != 0.0 and la < -0.5 * lin[a] / c < ha:
                    ends.append(-0.25 * lin[a] ** 2 / c)
            else:
                ends = [c * la * lb, c * la * hb, c * ha * lb, c * ha * hb]
            width += max(ends) - min(ends)
    return 0.5 * width


def _region_box(squares, total, points) -> list[tuple[float, float]]:
    """Per axis, (lo_a, hi_a) of a box holding all but TAIL_TOL of the norm.
    ``squares`` is the squared float64 view of the state, (re, im) pairs in
    grid order, ``total`` their sum.  With thr = TAIL_TOL total / npts, the
    box bounds the points either of whose squares exceeds thr / 2: each of
    the fewer than npts points outside has |psi|^2 <= thr, and the largest
    square, at least total / (2 npts), is inside."""
    # a point's pair of marks viewed as one uint16: nonzero when either is
    marks = (squares > 0.5 * TAIL_TOL * total / (squares.size // 2)) \
        .view(np.uint16).reshape(tuple(len(x) for x in points))
    box = []
    for x in points:  # axis by axis, the marks collapsed over those before
        hit = marks.reshape(len(x), -1).any(axis=1)
        lo, hi = hit.argmax(), len(x) - 1 - hit[::-1].argmax()
        box.append((float(x[lo]), float(x[hi])))
        if len(box) < len(points):
            marks = marks.max(axis=0)
    return box


def split_step_evolve(model: QuadraticModel, psi: GridState, t: float,
                      cfg: OracleConfig | None = None) -> GridState:
    """Propagate from the state's time label to t with the composed
    splitting; the model is checked first, at every potential flow's time,
    then the state's hbar, then the state, whose gate gives its norm."""
    if not math.isfinite(t):
        raise ValueError(f"oracle end time t = {t} is not finite")
    cfg = cfg or OracleConfig()
    s = psi.t
    steps = max(1, round(abs(t - s) / cfg.dt))
    dt = (t - s) / steps
    taus = np.append(
        (s + (np.arange(steps)[:, None] + _BOUNDARIES) * dt).ravel(), t)
    hxx, hx, Wa, Wb, Wc = _potential_terms(model, taus)
    # the norm sets the coupling, as in the moment record
    norm0 = float(psi.weight * np.sum(_resolved(psi, model)[0]))
    if t == s:
        return psi
    n, hbar = model.n, model.hbar
    if norm0 == 0.0:
        raise ResolutionError("zero-norm state has no mean field")
    kt = model.kappa * norm0

    # the potential of a flow is v = x.quad.x + lin.x + scal; its
    # density-dependent parts come from one linear map of |psi|^2, rows 1,
    # kt Wb x and kt x.Wc.x / 2 (so after dividing by the first, lin =
    # hx + kt Wb <x> and scal = kt tr(Wc <x x^T>) / 2), acting on the
    # squared float64 view of the state, each column repeated per pair
    axes = psi.axes
    shape = tuple(ax.num for ax in axes)
    x = np.stack([g.ravel() for g in psi.grids(sparse=False)])

    def quadratic_form(m):
        return np.sum(x * (m @ x), axis=0)

    coef_map = np.repeat(np.vstack([np.ones(x.shape[1]), kt * (Wb @ x),
                                    0.5 * kt * quadratic_form(Wc)]),
                         2, axis=1)
    squares = np.empty(coef_map.shape[1])
    quad = 0.5 * (hxx + kt * Wa)
    # the boundary tail at every flow: the squares of each face of the
    # box, lower then upper per axis, gathered at once and summed per face
    pairs = np.arange(squares.size).reshape(shape + (2,))
    faces = [(a, face, pairs.take(idx, axis=a).ravel())
             for a in range(n) for idx, face in ((0, "lower"), (-1, "upper"))]
    face_index = np.concatenate([f[2] for f in faces])
    face_starts = np.cumsum([0] + [f[2].size for f in faces[:-1]])
    axis_points = [ax.points for ax in axes]
    grid_box = [(float(x.min()), float(x.max())) for x in axis_points]

    # per potential flow, what the state does not set: its length h and
    # the drive's position row; the run opens and closes with half a flow
    lengths = np.tile(_POTENTIAL, steps + 1)[:5 * steps + 1]
    lengths[[0, -1]] = 0.5 * _P
    hs = (lengths * dt).tolist()
    hx = hx.tolist()

    def quadratic_table(q, h):
        return _unit(quadratic_form(q).reshape(shape) * (-h / hbar))

    # a data model's quad is constant: one table per flow length
    tables = None if model.drive is None else {
        h: quadratic_table(quad[0], h) for h in set(hs)}

    # an axis's linear factor at point j = fine * c + f is the product of a
    # coarse table (the points j = fine * c) and a fine one (the offsets
    # f * delta), fine the largest divisor of num up to sqrt(num): cos and
    # sin of coarse + fine angles, whose outer product is the factor
    factors = []
    for a, ax in enumerate(axes):
        fine = max(d for d in range(1, math.isqrt(ax.num) + 1)
                   if ax.num % d == 0)
        coarse = ax.num // fine
        points = np.concatenate([ax.points[::fine],
                                 ax.delta * np.arange(fine)])
        angle = np.empty(coarse + fine)
        wave = np.empty(coarse + fine, dtype=np.complex128)
        outer = np.empty((coarse, fine), dtype=np.complex128)
        factors.append((points, coarse, angle, wave.real, wave.imag,
                        wave[:coarse, None], wave[None, coarse:], outer,
                        outer.reshape((1,) * a + (-1,) + (1,) * (n - a - 1))))

    k2 = sum(np.meshgrid(*(ax.wavenumbers ** 2 for ax in axes),
                         indexing="ij", sparse=True))

    kinetic = {w: np.exp(-1j * hbar * k2 * (w * dt) / (2.0 * model.mass))
               for w in set(_KINETIC.tolist())}
    before = [kinetic[w] for w in _KINETIC.tolist()] * steps

    arr = psi.psi.copy()
    for sub, h in enumerate(hs):
        neg = -h / hbar
        if sub:  # the kinetic flow that leads to this one
            spec = fftn(arr, overwrite_x=True)
            spec *= before[sub - 1]
            arr = ifftn(spec, overwrite_x=True)
        # the position moments where the flow stands set its potential
        np.square(arr.reshape(-1).view(np.float64), out=squares)
        coef = (coef_map @ squares).tolist()
        face_mass = np.add.reduceat(squares[face_index], face_starts)
        if face_mass.max() >= TAIL_TOL * coef[0]:
            i = int(np.argmax(face_mass))
            raise ResolutionError(
                f"boundary tail mass fraction {face_mass[i] / coef[0]:.3e} "
                f"on the {faces[i][1]} face of axis {faces[i][0]} exceeds "
                f"{TAIL_TOL:.1e} at t = {taus[sub]:.4g}")
        lin = [b + c / coef[0] for b, c in zip(hx[sub], coef[1:])]
        scal = coef[n + 1] / coef[0]
        # the spread of v over the grid, else over the mass region's box
        spread = _spread(quad[sub], lin, grid_box)
        if spread * abs(h) / hbar >= PHASE_STEP_BOUND:
            spread = _spread(quad[sub], lin,
                             _region_box(squares, coef[0], axis_points))
        if spread * abs(h) / hbar >= PHASE_STEP_BOUND:
            raise StabilityError(
                f"potential phase step exceeds {PHASE_STEP_BOUND} rad "
                f"at t = {taus[sub]:.4g}; reduce dt")
        arr *= tables[h] if tables else quadratic_table(quad[sub], h)
        for a, (points, coarse, angle, cos, sin, col, row, outer,
                factor) in enumerate(factors):
            np.multiply(points, lin[a] * neg, out=angle)
            if a == 0:  # the scalar phase rides on axis 0
                angle[:coarse] += scal * neg
            np.cos(angle, out=cos)
            np.sin(angle, out=sin)
            np.multiply(col, row, out=outer)
            arr *= factor

    out = GridState(axes, arr, t, hbar)
    norm1 = float(out.weight * np.sum(_resolved(out)[0]))
    if abs(norm1 - norm0) > NORM_DRIFT_TOL * norm0:
        raise StabilityError(
            f"norm drifted by {abs(norm1 - norm0) / norm0:.3e} over the run")
    return out


def apply_effective_hamiltonian(model: QuadraticModel,
                                state: GridState) -> np.ndarray:
    """Act with the full mean-field Hamiltonian on the state, the moment
    record taken from the state itself: scal + <hz, dz> + 1/2 <dz, hzz dz>
    in the centered operators dz = z - <z> (spectral momenta).  The double
    sum runs over both orders of every pair, and hzz is symmetric, so it is
    exactly the Weyl ordering of the mixed p-x terms.  ModelError unless
    the state's hbar is the model's."""
    return _apply_hamiltonian(model, state, *_resolved(state, model))


def _apply_hamiltonian(model: QuadraticModel, state: GridState,
                       dens, spec) -> np.ndarray:
    """:func:`apply_effective_hamiltonian` past the entry that returned
    ``dens`` and ``spec``."""
    n = state.n
    nrm, z, Delta = _moment_pass(state, dens, spec)
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
    it is the one reader past the resolution gate; of the entry it keeps
    only the hbar check, on every snapshot.
    """
    if not (math.isfinite(dt) and dt != 0.0):
        raise ValueError(f"residual step dt = {dt} is not finite and nonzero")
    before, mid, after = snapshots
    for snap in (before, mid, after):
        check_hbar(model, snap.hbar)
    if before.axes != mid.axes or mid.axes != after.axes:
        raise ValueError("snapshots must share one grid")
    if not math.isclose(after.t - mid.t, dt, rel_tol=1e-9) or \
            not math.isclose(mid.t - before.t, dt, rel_tol=1e-9):
        raise ValueError("snapshots must be uniformly spaced by dt")
    dpsi_dt = (after.psi - before.psi) / (2.0 * dt)
    resid = -1j * model.hbar * dpsi_dt \
        + _apply_hamiltonian(model, mid, np.abs(mid.psi) ** 2, None)
    return float(np.sqrt(mid.weight * np.sum(np.abs(resid) ** 2)))
