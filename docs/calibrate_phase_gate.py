#!/usr/bin/env python3
"""Calibrate the split-step oracle's gates against `evolve`.

For seeded 1D, 2D and 3D cases over a ladder of steps, each run is made
twice.  Once by an independent numpy loop over the same composition
(Suzuki's five Strang substeps V/2 K V/2, the two potential halves that
meet between substeps merged into one flow, with the moments read where
each flow stands by direct sums) that refuses nothing and measures, per
run, each gate value as the largest over the potential flows of a bound
on the flow's potential v times |h| / hbar:
- magnitude gate: the gate the oracle used before it read the spread,
  min(box, region) of max |v| bounds, the box bound over the grid and the
  region bound over the mass region with |x_a| <= max(|lo_a|, |hi_a|);
- spread gate: the oracle's gate, an interval-arithmetic bound on
  (max v - min v) / 2 over the grid's box, else over the region's box
  (`oracle._spread` and `oracle._region_box`): each axis's parabola over
  its exact range, each cross term over the hull of its corner products;
  a constant in v is a global phase and counts toward it nowhere;
- exact spread: (max v - min v) / 2 over the grid points in the region's
  box, which the spread bound must never undercut;
the largest boundary tail fraction at any potential flow; and whether the
output passes `check_resolved`.  Once with `split_step_evolve`, whose
verdict must be the one those numbers predict: "phase" (a spread step at
or over PHASE_STEP_BOUND), "face" (a boundary tail at or over TAIL_TOL
where a flow stands), "output" (an unresolved output) or "accept", each at
the first flow where it fails.  The error is the L2 distance to `evolve`
of the oracle's output where it accepts, else of the loop's.  Prints one
Markdown row per run and exits 1 if the oracle accepts a run whose error
exceeds 2e-6.

Usage: OPENBLAS_NUM_THREADS=1 python docs/calibrate_phase_gate.py
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gpexact as gx  # noqa: E402
from gpexact.errors import ResolutionError, StabilityError  # noqa: E402
from gpexact.oracle import PHASE_STEP_BOUND  # noqa: E402
from gpexact.state import TAIL_TOL  # noqa: E402

ERROR_BOUND = 2e-6
P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SUZUKI = (P, P, 1.0 - 4.0 * P, P, P)


def region_box(arr):
    """Per axis, the first and last index of the bounding box of the points
    either of whose squares exceeds TAIL_TOL / 2 of the mean density."""
    squares = np.stack([arr.real ** 2, arr.imag ** 2])
    marked = (squares > 0.5 * TAIL_TOL * squares.sum() / arr.size).any(axis=0)
    return [(i.min(), i.max()) for i in np.nonzero(marked)]


def interval_spread(q, lin, lo, hi):
    """Half the summed widths of the intervals that hold, on the box
    [lo, hi], each axis's parabola q_aa x_a^2 + lin_a x_a (its exact range,
    at the ends and the vertex) and each q_ab x_a x_b, a != b (the hull of
    its corner products)."""
    corners = np.stack([np.multiply.outer(u, w) for u in (lo, hi)
                        for w in (lo, hi)])
    cross = np.abs(q) * (corners.max(axis=0) - corners.min(axis=0))
    width = cross.sum() - np.trace(cross)
    for c, b, x_lo, x_hi in zip(np.diag(q), lin, lo, hi):
        xs = [x_lo, x_hi]
        if c != 0.0 and x_lo < -b / (2.0 * c) < x_hi:
            xs.append(-b / (2.0 * c))
        values = [c * x * x + b * x for x in xs]
        width += max(values) - min(values)
    return 0.5 * width


def face_fraction(dens):
    total = dens.sum()
    return max(float(dens.take(idx, axis=a).sum()) / total
               for a in range(dens.ndim) for idx in (0, -1))


def open_run(model, psi, t, dt):
    """The composition with every gate held open: (the gate values, the
    first failing potential flow per gate, the output)."""
    n, hbar = model.n, model.hbar
    kt = model.kappa * gx.norm_squared(psi)
    Wa, Wb, Wc = (W[n:, n:] for W in (model.Wzz, model.Wzw, model.Www))
    grids = psi.grids()
    points = [ax.points for ax in psi.axes]
    xmax = np.array([np.max(np.abs(x)) for x in points])
    grid_lo = np.array([x.min() for x in points])
    grid_hi = np.array([x.max() for x in points])
    k2 = sum(np.meshgrid(*(ax.wavenumbers ** 2 for ax in psi.axes),
                         indexing="ij", sparse=True))
    steps = max(1, round(abs(t - psi.t) / dt))
    dt = (t - psi.t) / steps
    arr = np.array(psi.psi)
    gates = {"magnitude": 0.0, "spread": 0.0, "exact": 0.0, "face": 0.0}
    first = {}

    def potential_flow(arr, tau, h, sub):
        dens = np.abs(arr) ** 2
        nrm = dens.sum()
        mean = np.array([np.sum(dens * x) / nrm for x in grids])
        second = np.array([[np.sum(dens * xa * xb) / nrm for xb in grids]
                           for xa in grids])
        q = 0.5 * (model.Hzz(tau)[n:, n:] + kt * Wa)
        lin = model.Hz(tau)[n:] + kt * (Wb @ mean)
        scal = 0.5 * kt * np.trace(Wc @ second)
        quad = sum(q[a, b] * grids[a] * grids[b]
                   for a in range(n) for b in range(n))
        v = quad + sum(b * x for b, x in zip(lin, grids)) + scal
        ends = region_box(arr)
        lo = np.array([x[i] for x, (i, _) in zip(points, ends)])
        hi = np.array([x[j] for x, (_, j) in zip(points, ends)])
        X = np.maximum(np.abs(lo), np.abs(hi))
        box = np.max(np.abs(quad)) + np.abs(lin) @ xmax + abs(scal)
        region = X @ np.abs(q) @ X + np.abs(lin) @ X + abs(scal)
        spread = min(interval_spread(q, lin, grid_lo, grid_hi),
                     interval_spread(q, lin, lo, hi))
        inside = v[tuple(slice(i, j + 1) for i, j in ends)]
        exact = 0.5 * (inside.max() - inside.min())
        if spread < exact * (1.0 - 1e-12):
            raise RuntimeError(f"spread bound {spread} under the exact "
                               f"half-range {exact} at t = {tau}")
        scale = abs(h) / hbar
        sub_face = face_fraction(dens)
        if sub_face >= TAIL_TOL:
            first.setdefault("face", sub)
        if spread * scale >= PHASE_STEP_BOUND:
            first.setdefault("phase", sub)
        for key, value in (("magnitude", min(box, region) * scale),
                           ("spread", spread * scale),
                           ("exact", exact * scale), ("face", sub_face)):
            gates[key] = max(gates[key], value)
        return arr * np.exp(-1j * h * v / hbar)

    # each substep's closing potential half waits for the next substep's
    # opening half at the same time, with the same density, and both run
    # as one flow
    kinetic = {w: np.exp(-1j * hbar * k2 * w * dt / (2.0 * model.mass))
               for w in set(SUZUKI)}
    tau, pending, sub = psi.t, 0.0, 0
    for step in range(steps):
        for w in SUZUKI:
            h = w * dt
            arr = potential_flow(arr, tau, pending + 0.5 * h, sub)
            arr = np.fft.ifftn(kinetic[w] * np.fft.fftn(arr))
            tau, pending, sub = tau + h, 0.5 * h, sub + 1
    arr = potential_flow(arr, t, pending, sub)
    return gates, first, psi.with_psi(arr, t)


def predicted(first, out):
    """The oracle's verdict from the held-open run: within a flow the face
    is checked before the phase step."""
    if first:
        return min(first, key=lambda k: (first[k], k != "face"))
    try:
        gx.check_resolved(out)
    except ResolutionError:
        return "output"
    return "accept"


def gated_run(model, psi, t, dt):
    try:
        return "accept", gx.split_step_evolve(model, psi, t,
                                              gx.OracleConfig(dt=dt))
    except StabilityError:
        return "phase", None
    except ResolutionError as err:
        return ("face" if "at t =" in str(err) else "output"), None


def readme_model(E=0.1):
    params = gx.Example1DParams(m=1.0, k=1.0, e=1.0, E=E, omega=0.5,
                                a=0.2, b=0.1, c=0.3)
    return gx.model_1d(params, hbar=1.0, kappa=0.5), params.Omega(0.5)


def readme_packet(x0, p0, alpha):
    axis = gx.Axis(-12.0, 12.0, 2048)
    return gx.gaussian_packet((axis,), 1.0, [x0], [p0], [alpha])


def static_drive_model(E):
    """v = x^2 / 2 - E x: the packet swings between 0 and 2 E."""
    return gx.make_model(1, 1.0, 1.0, 0.5, np.eye(2), np.array([0.0, -E]),
                         np.diag([0.0, 0.2]), np.diag([0.0, 0.1]),
                         np.diag([0.0, 0.3]))


def oracle_model_draw(rng):
    """A 1D model drawn as the test suite's `oracle_models` draws it."""
    mass = rng.uniform(0.5, 2.0)
    hzz = np.diag([1.0 / mass, rng.uniform(0.5, 2.0)])
    Wzz, Wzw, Www = (np.diag([0.0, rng.uniform(-0.4, 0.4)])
                     for _ in range(3))
    kappa = rng.uniform(0.2, 1.0) * rng.choice([1.0, -1.0])
    terms = [(rng.uniform(0.2, 2.0), [0.0, rng.uniform(-0.3, 0.3)],
              [0.0, rng.uniform(-0.3, 0.3)])
             for _ in range(rng.integers(0, 3))]
    h0 = [0.0, rng.uniform(-0.3, 0.3)]
    model = gx.make_model(1, 1.0, mass, kappa, hzz, h0, Wzz, Wzw, Www,
                          drive=terms)
    return model, rng.uniform(0.3, 0.8) * rng.choice([1.0, -1.0])


def model_2d(rng, drive):
    """Anisotropic 2D trap, random position couplings and a static linear
    drive of size `drive`."""
    hzz = np.diag([1.0, 1.0, *rng.uniform(0.6, 1.6, 2)])
    blocks = []
    for symmetric in (True, False, True):
        W = np.zeros((4, 4))
        B = rng.uniform(-0.2, 0.2, (2, 2))
        W[2:, 2:] = B + B.T if symmetric else B
        blocks.append(W)
    h0 = np.array([0.0, 0.0, *rng.uniform(-drive, drive, 2)])
    return gx.make_model(2, 1.0, 1.0, 0.5, hzz, h0, *blocks)


def cases():
    """(label, model, psi, t, dts) for every calibrated case."""
    r2 = math.sqrt(2.0)
    ladder = [1.4e-2 * f for f in (1.0, r2, 2.0, 2.0 * r2, 8.0 / 3.0, 4.0,
                                 8.0, 16.0)]
    coarse = ladder[2:]
    model, om = readme_model()
    yield "README packet (1.0, 0.2)", model, readme_packet(1.0, 0.2, om), \
        2.0, ladder
    for x0 in (0.5, 1.5):
        for p0 in (-0.3, 0.3):
            yield f"README model, corner ({x0}, {p0})", model, \
                readme_packet(x0, p0, om), 2.0, coarse
    for x0, p0 in ((6.0, 0.0), (-6.0, 0.0), (5.5, 1.5), (5.5, 5.0)):
        yield f"README model, near a face ({x0}, {p0})", model, \
            readme_packet(x0, p0, om), 2.0, [7e-3] + ladder[:5]
    for E in (1.0, 3.0):
        model_e, om_e = readme_model(E)
        yield f"README model, drive E = {E}", model_e, \
            readme_packet(1.0, 0.2, om_e), 2.0, coarse
    for E in (3.0, 4.0):
        yield f"static drive E = {E}", static_drive_model(E), \
            readme_packet(0.0, 0.0, 1.0), 2.0, coarse
    axis = gx.Axis(-8.0, 8.0, 256)
    for seed in range(8):
        model, T = oracle_model_draw(np.random.default_rng(seed))
        psi = gx.gaussian_packet((axis,), 1.0, [0.3], [0.1], [1.0])
        yield f"oracle_models draw, seed {seed}", model, psi, T, \
            [7e-3, 2.8e-2, 5.6e-2, 0.112, 0.224]
    axes = (gx.Axis(-8.0, 8.0, 64),) * 2
    for seed, drive in ((0, 0.3), (1, 0.3), (2, 3.0)):
        model = model_2d(np.random.default_rng(seed), drive)
        psi = gx.gaussian_packet(axes, 1.0, [0.5, -0.3], [0.2, 0.1], 1.0)
        yield f"2D draw, seed {seed}, drive {drive}", model, psi, 1.0, \
            [1.4e-2, 2.8e-2, 5.6e-2, 0.112, 0.224]
    params = gx.Example3DParams(H_field=0.0)
    model = gx.model_3d(params, hbar=1.0, kappa=0.5)
    w1, w2 = params.frequencies(0.5)
    alpha = [params.m * w1, params.m * w1, params.m * w2]
    for num, dts in ((64, [1.6e-2, 2.4e-2, 3.2e-2]),):
        axes = (gx.Axis(-8.0, 8.0, num),) * 3
        psi = gx.gaussian_packet(axes, 1.0, [0.5, 0.0, -0.3],
                                 [0.0, 0.2, 0.0], alpha)
        yield f"3D setup, H = 0, {num}^3", model, psi, 0.8, dts


def main():
    print("| case | dt | magnitude gate | spread gate | exact spread "
          "| max face fraction | L2 error | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    worst = 0.0
    for label, model, psi, t, dts in cases():
        exact = gx.evolve(model, psi, t)
        for dt in dts:
            gates, first, ref = open_run(model, psi, t, dt)
            verdict, out = gated_run(model, psi, t, dt)
            if verdict != predicted(first, ref):
                raise RuntimeError(f"{label}, dt = {dt}: the oracle says "
                                   f"{verdict}, its numbers say "
                                   f"{predicted(first, ref)}")
            err = gx.l2_distance(exact, ref if out is None else out)
            if out is not None:
                worst = max(worst, err)
            print(f"| {label} | {dt:.3g} | {gates['magnitude']:.3g} "
                  f"| {gates['spread']:.3g} | {gates['exact']:.3g} "
                  f"| {gates['face']:.1e} | {err:.2e} | {verdict} |",
                  flush=True)
    print(f"\nlargest error of an accepted run: {worst:.2e} "
          f"(bound {ERROR_BOUND:.0e})")
    return 0 if worst <= ERROR_BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
