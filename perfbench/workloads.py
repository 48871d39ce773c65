"""The four benchmark workloads: seeded inputs, timed operations, gates.

Each workload is built from a seed alone. ``build`` makes the models and a
cycle of cases; ``Workload.ops()`` yields the operations of a closed loop in
a fixed order, cycling through the cases as often as the run lasts. An op's
``run(lap)`` is the timed call into gpexact; a long op calls ``lap()`` at
layer boundaries, where the stopwatch pauses to read the machine's speed
(speed.py). Its ``gate`` runs afterwards, outside the timed span, and returns
(value, tolerance) per check.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Gate tolerances, taken from the test suite.
NORM_TOL = 1e-8        # norm drift (cli DEFAULT_TOLS["norm"])
ROUNDTRIP_TOL = 1e-8   # inverse round trip, L2 (criterion 3)
MOMENT_TOL = 1e-6      # first/second moments vs integrate_moments
#                        (criterion 2, test_3d_moment_transport)

# The driven 1D model of the README (kappa = 0.5).
MODEL_1D = {"example": "1d", "hbar": 1.0, "kappa": 0.5, "m": 1.0, "k": 1.0,
            "e": 1.0, "E": 0.1, "omega": 0.5, "a": 0.2, "b": 0.1, "c": 0.3}
# The 3D magnetic trap at H = 0.4 (factorized quadrature path).
MODEL_3D = {"example": "3d", "hbar": 1.0, "kappa": 0.5, "H_field": 0.4}
# A 2D model with a p-x rotation coupling, so the kernel's m_xy is not
# diagonal and the generic dense quadrature runs.
ROT = 0.2
MODEL_2D = {
    "example": "custom", "n": 2, "hbar": 1.0, "m": 1.0, "kappa": 0.5,
    "Hzz": [1.0, 0.0, 0.0, ROT,
            0.0, 1.0, -ROT, 0.0,
            0.0, -ROT, 1.0 + ROT ** 2, 0.0,
            ROT, 0.0, 0.0, 1.0 + ROT ** 2],
    "Wzz": [0.0] * 10 + [0.2, 0.0, 0.0, 0.0, 0.0, 0.2],
    "Wzw": [0.0] * 10 + [0.1, 0.0, 0.0, 0.0, 0.0, 0.1],
    "Www": [0.0] * 10 + [0.3, 0.0, 0.0, 0.0, 0.0, 0.3],
}
# The scenario of the README; the initial packet is drawn from the seed.
README_SCENARIO = {
    "model": MODEL_1D,
    "grid": {"lo": -12.0, "hi": 12.0, "n": 2048},
    "initial_state": {"kind": "gaussian", "x0": 1.0, "p0": 0.2},
    "schedule": [0.5, 1.0, 2.0],
    "tasks": ["evolve", "inverse-roundtrip", "oracle-compare",
              "ladder", "quasi-energy", "kernel-crosscheck"],
    "tolerances": {"oracle": 1e-6, "roundtrip": 1e-8},
}


@dataclass
class Op:
    kind: str
    inputs: dict
    run: Callable[[Callable[[], None]], object]
    gate: Callable[[object], dict]
    result: object = None


@dataclass
class Workload:
    name: str
    models: dict                 # name -> model spec (JSON schema)
    build_ms: float              # time spent building models
    ops: Callable[[], Iterator[Op]]
    workdir: Path | None = None    # where the ops write files


def _bit_reversed(k: int) -> list[int]:
    """0..k-1 in bit-reversed order (k a power of two), so that every prefix
    of the cycle spreads over the whole range."""
    bits = k.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
            for i in range(k)]


def _stratified(rng, lo: float, hi: float, k: int) -> list[float]:
    """One seeded draw from each of k equal strata of [lo, hi]."""
    u = rng.uniform(size=k)
    return [lo + (hi - lo) * (j + u[j]) / k for j in _bit_reversed(k)]


def _axis_record(axes) -> list:
    return [[ax.lo, ax.hi, ax.num] for ax in axes]


def _build_models(gx, specs: dict) -> tuple[dict, float]:
    t0 = time.perf_counter()
    models = {name: gx.build_model(dict(spec)) for name, spec in specs.items()}
    return models, 1e3 * (time.perf_counter() - t0)


def _transport_checks(gx, model, psi_in, out) -> dict:
    """Norm drift, and the output's first and second moments against the
    moment system integrated from the input's own moment record."""
    cons = gx.constants_of_motion(model, psi_in)
    traj = gx.integrate_moments(model, cons.kappa_tilde, cons.point,
                                psi_in.t, out.t)
    z = gx.first_moments(out)
    delta = gx.second_moments(out, z)
    return {
        "norm_drift": (abs(gx.norm_squared(out) - cons.norm_sq), NORM_TOL),
        "moments_z": (float(np.max(np.abs(z - traj.z(out.t)))), MOMENT_TOL),
        "moments_delta": (float(np.max(np.abs(delta - traj.Delta(out.t)))),
                          MOMENT_TOL),
    }


# -- 1D packets: forward then inverse, each propagation one op ----------

def _packets(gx, rng, name: str, num: int, t_lo: float, t_hi: float,
             k: int = 32) -> Workload:
    models, build_ms = _build_models(gx, {"1d": MODEL_1D})
    model = models["1d"]
    params = model.example
    omega = params.Omega(model.kappa)
    axis = gx.Axis(-12.0, 12.0, num)
    times = _stratified(rng, t_lo, t_hi, k)
    cases = []
    states = []
    for t in times:
        x0 = float(rng.uniform(-1.5, 1.5))
        p0 = float(rng.uniform(-0.5, 0.5))
        alpha = float(params.m * omega * rng.uniform(0.7, 1.4))
        cases.append({"model": "1d", "grid": _axis_record((axis,)),
                      "x0": [x0], "p0": [p0], "alpha": [alpha], "t": t})
        states.append(gx.gaussian_packet((axis,), model.hbar, [x0], [p0],
                                         [alpha]))

    def ops() -> Iterator[Op]:
        for case, psi0 in itertools.cycle(zip(cases, states)):
            t = case["t"]
            fwd = Op("evolve", case,
                     lambda lap, psi0=psi0, t=t: gx.evolve(model, psi0, t),
                     lambda out, psi0=psi0: _transport_checks(
                         gx, model, psi0, out))
            yield fwd

            def back_gate(back, psi0=psi0, fwd=fwd):
                checks = _transport_checks(gx, model, fwd.result, back)
                checks["roundtrip_l2"] = (gx.l2_distance(back, psi0),
                                          ROUNDTRIP_TOL)
                return checks

            yield Op("evolve_inverse", case,
                     lambda lap, fwd=fwd: gx.evolve_inverse(model, fwd.result,
                                                            0.0),
                     back_gate)

    return Workload(name, {"1d": MODEL_1D}, build_ms, ops)


# -- n-D kernel paths: one 3D and one 2D propagation per op -------------

def _multid(gx, rng, k: int = 8) -> Workload:
    specs = {"3d": MODEL_3D, "2d": MODEL_2D}
    models, build_ms = _build_models(gx, specs)
    m3, m2 = models["3d"], models["2d"]
    w1, w2 = m3.example.frequencies(m3.kappa)
    axes3 = tuple(gx.Axis(-8.0, 8.0, 64) for _ in range(3))
    axes2 = tuple(gx.Axis(-9.0, 9.0, 80) for _ in range(2))
    # trap frequency at unit norm: 1 + ROT^2 + kappa * Wzz_xx
    om2 = math.sqrt(1.0 + ROT ** 2 + m2.kappa * 0.2)
    t3s = _stratified(rng, 1.0, 2.5, k)
    t2s = _stratified(rng, 0.8, 1.4, k)
    cases = []
    states = []
    for t3, t2 in zip(t3s, t2s):
        f3, f2 = rng.uniform(0.8, 1.25, size=2)
        c3 = {"model": "3d", "grid": _axis_record(axes3),
              "x0": rng.uniform(-0.6, 0.6, 3).tolist(),
              "p0": rng.uniform(-0.3, 0.3, 3).tolist(),
              "alpha": [m3.mass * w1 * f3, m3.mass * w1 * f3,
                        m3.mass * w2 * f3], "t": t3}
        c2 = {"model": "2d", "grid": _axis_record(axes2),
              "x0": rng.uniform(-0.8, 0.8, 2).tolist(),
              "p0": rng.uniform(-0.3, 0.3, 2).tolist(),
              "alpha": [om2 * f2, om2 * f2], "t": t2}
        cases.append({"3d": c3, "2d": c2})
        states.append(tuple(
            gx.gaussian_packet(axes, 1.0, c["x0"], c["p0"], c["alpha"])
            for axes, c in ((axes3, c3), (axes2, c2))))

    def ops() -> Iterator[Op]:
        for case, (psi3, psi2) in itertools.cycle(zip(cases, states)):
            def run(lap, psi3=psi3, psi2=psi2, case=case):
                out3 = gx.evolve(m3, psi3, case["3d"]["t"])
                lap()
                return out3, gx.evolve(m2, psi2, case["2d"]["t"])

            def gate(outs, psi3=psi3, psi2=psi2):
                checks = {}
                for tag, model, psi, out in (("3d", m3, psi3, outs[0]),
                                             ("2d", m2, psi2, outs[1])):
                    for key, val in _transport_checks(gx, model, psi,
                                                      out).items():
                        checks[f"{tag}.{key}"] = val
                return checks

            yield Op("evolve_3d+evolve_2d", case, run, gate)

    return Workload("multid-2d3d", specs, build_ms, ops)


# -- CLI certification: README scenario, then `gpexact verify` ----------

def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@contextlib.contextmanager
def _lap_after(lap, namespace: dict, keys):
    """Call ``lap()`` after every call of ``namespace[key]`` in the block."""
    saved = {key: namespace[key] for key in keys}

    def lapped(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                lap()
        return call

    namespace.update({key: lapped(fn) for key, fn in saved.items()})
    try:
        yield
    finally:
        namespace.update(saved)


def _certify(gx, rng, workdir: Path, k: int = 8) -> Workload:
    import gpexact.cli as cli
    # run_scenario builds its own model; this validates the spec up front
    _, build_ms = _build_models(gx, {"1d": MODEL_1D})
    cases = []
    for _ in range(k):
        cfg = {**README_SCENARIO,
               "initial_state": {"kind": "gaussian",
                                 "x0": float(rng.uniform(0.5, 1.5)),
                                 "p0": float(rng.uniform(-0.3, 0.3))}}
        cases.append(cfg)

    def ops() -> Iterator[Op]:
        for cfg in itertools.cycle(cases):
            scen, ver = workdir / "scenario", workdir / "verify"
            shutil.rmtree(workdir, ignore_errors=True)

            def run(lap, cfg=cfg, scen=scen, ver=ver):
                # laps after each CLI task and each oracle integration
                with _lap_after(lap, cli.TASKS, list(cli.TASKS)), \
                        _lap_after(lap, vars(cli), ["split_step_evolve"]), \
                        contextlib.redirect_stdout(io.StringIO()):
                    report = cli.run_scenario(cfg, scen)
                    status = cli.main(["verify", "--out", str(ver)])
                return report, status

            def gate(result, ver=ver):
                report, status = result
                checks = {"scenario_pass": (0.0 if report["pass"] else 1.0,
                                            0.0),
                          "verify_status": (float(status), 0.0)}
                for name in cli.GOLDEN_SCENARIOS:
                    rep = json.loads((ver / name / "report.json")
                                     .read_text())
                    checks[f"verify.{name}"] = (0.0 if rep["pass"] else 1.0,
                                                0.0)
                return checks

            yield Op("scenario+verify", {"config": cfg}, run, gate)

    return Workload("certify-cli", {"1d": MODEL_1D}, build_ms, ops,
                    workdir=workdir)


NAMES = ("packets-1d-n2048", "longtime-1d-n256", "multid-2d3d",
         "certify-cli")


def build(gx, name: str, seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    if name == "packets-1d-n2048":
        return _packets(gx, rng, name, 2048, 0.05, 2.5)
    if name == "longtime-1d-n256":
        return _packets(gx, rng, name, 256, 0.5, 8.0)
    if name == "multid-2d3d":
        return _multid(gx, rng)
    if name == "certify-cli":
        return _certify(gx, rng, workdir)
    raise ValueError(f"unknown workload {name!r}")
