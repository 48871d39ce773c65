"""Command-line front end: scenario execution and data emission.

Subcommands: evolve, fock, spectrum, verify, scenario.  Configs and reports
are JSON; numeric series are CSV with headers, scientific notation, 17
significant digits, and no timestamps, so identical configs give bitwise
identical bodies.  GPX_LOG in {error, info, debug} controls verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GpexactError, _reject_unknown
from .evolution import evolve, evolve_inverse
from .kernel import build_kernel_context, closed_form_kernel_1d
from .ehrenfest import integrate_moments, write_moment_series
from .model import Example1DParams, build_model, example_params
from .moments import constants_of_motion, norm_squared
from .oracle import OracleConfig, split_step_evolve
from .state import Axis, GridState, gaussian_packet, l2_distance, l2_norm, \
    load_state, write_csv
from .symmetry import fock_state, ladder_apply, quasi_energy

log = logging.getLogger("gpexact")

DEFAULT_TOLS = {
    "norm": 1e-8,
    "roundtrip": 1e-8,
    "oracle": 1e-6,
    "ladder": 1e-6,
    "quasi_energy": 1e-5,
    "kernel": 1e-9,
}

# every top-level field some subcommand reads from a config file
_CONFIG_FIELDS = ("model", "grid", "initial_state", "schedule", "tasks",
                  "tolerances", "oracle_dt", "ladder_levels",
                  "spectrum_levels", "fock_n", "fock_t")

_REQUIRED = object()


def _field(spec, key: str, kind=float, default=_REQUIRED,
           where: str = "config", lo: int | None = None):
    """Field ``key`` of the config object ``spec`` as ``kind``: numbers and
    strings are converted without loss, a number must be finite, objects
    and lists are checked, and an integer is at least ``lo`` when given.
    A missing field takes ``default``, and is an error without one."""
    if not isinstance(spec, dict):
        raise GpexactError(f"{where} must be an object")
    val = spec.get(key, default)
    if val is _REQUIRED:
        raise GpexactError(f"{where} has no field {key!r}")
    if val is default:
        return val
    out = val if isinstance(val, kind) else None
    lossy = kind is int and isinstance(val, float) and not val.is_integer()
    if out is None and kind not in (dict, list) and not lossy:
        with contextlib.suppress(TypeError, ValueError):
            out = kind(val)
    if out is None:
        what = {dict: "an object", list: "a list", int: "an integer"}
        raise GpexactError(f"{where} field {key!r} must be "
                           f"{what.get(kind, 'a number')}, not {val!r}")
    if isinstance(out, float) and not math.isfinite(out):
        raise GpexactError(f"{where} field {key!r} must be finite, "
                           f"not {val!r}")
    if lo is not None and out < lo:
        raise GpexactError(f"{where} field {key!r} must be at least {lo}, "
                           f"not {val!r}")
    return out


def _positive(spec, key: str, default, where: str = "config"):
    """Number field ``key`` of ``spec`` that must be positive when given."""
    val = _field(spec, key, float, default, where)
    if val is not default and val <= 0.0:
        raise GpexactError(f"{where} field {key!r} must be positive, "
                           f"not {val!r}")
    return val


def emit_report(checks: list[dict]) -> dict:
    """Machine-readable report: per-check name, value, tolerance, flag."""
    return {"pass": all(c["pass"] for c in checks), "checks": checks}


def _check(name: str, value: float, tol: float) -> dict:
    ok = bool(value <= tol)
    log.info("check %-28s value=%.3e tol=%.1e %s",
             name, value, tol, "ok" if ok else "FAIL")
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "pass": ok}


def _build_axis(cfg: dict, grid_override: int | None) -> Axis:
    grid = _field(cfg, "grid", dict, {})
    _reject_unknown(grid, ("lo", "hi", "n"), "grid")
    num = _field(grid, "n", int, 2048, "grid") if grid_override is None \
        else grid_override
    try:
        return Axis(_field(grid, "lo", float, -12.0, "grid"),
                    _field(grid, "hi", float, 12.0, "grid"), num)
    except ValueError as err:
        raise GpexactError(f"invalid grid: {err}") from err


def _build_model(cfg: dict):
    return build_model(_field(cfg, "model", dict))


def _build_state(spec: dict, model, axis: Axis) -> GridState:
    where = "initial_state"
    kind = _field(spec, "kind", str, "gaussian", where)
    fields = {"gaussian": ("x0", "p0", "norm_sq", "alpha"), "fock": ("n",),
              "superposition": ("parts",), "file": ("path",)}.get(kind)
    if fields is None:
        raise GpexactError(f"unknown initial state kind {kind!r}")
    _reject_unknown(spec, ("kind",) + fields, where)
    if kind == "gaussian":
        x0 = [_field(spec, "x0", float, 1.0, where)]
        p0 = [_field(spec, "p0", float, 0.0, where)]
        kt = model.kappa * _field(spec, "norm_sq", float, 1.0, where)
        alpha = _positive(spec, "alpha", None, where)
        if alpha is None:
            alpha = 1.0 if model.example is None \
                else model.mass * model.example.Omega(kt)
        return gaussian_packet((axis,), model.hbar, x0, p0, [alpha])
    if kind == "fock":
        return fock_state(model, _field(spec, "n", int, 0, where, lo=0), 0.0,
                          axis=axis)
    if kind == "superposition":
        parts = _field(spec, "parts", list, where=where)
        if not parts:
            raise GpexactError("initial_state field 'parts' is empty")
        terms = [complex(_field(part, "re", float, 1.0, "parts entry"),
                         _field(part, "im", float, 0.0, "parts entry"))
                 * _build_state(_field(part, "state", dict, _REQUIRED,
                                       "parts entry"), model, axis).psi
                 for part in parts]
        for part in parts:  # each an object, as _field has checked
            _reject_unknown(part, ("re", "im", "state"), "parts entry")
        return GridState((axis,), sum(terms[1:], terms[0]), 0.0, model.hbar)
    path = _field(spec, "path", str, where=where)
    try:
        return load_state(path)
    except (OSError, KeyError, ValueError) as err:
        raise GpexactError(f"cannot load {path}: {err}") from err


def _schedule(cfg: dict) -> list[float]:
    sched = _field(cfg, "schedule", list, [0.5, 1.0])
    times = [_field({"time": t}, "time", where="schedule") for t in sched]
    if not times:
        raise GpexactError("schedule is empty")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise GpexactError("schedule times must be strictly increasing")
    return times


def _task_evolve(cfg, model, psi, times, out, tols) -> list[dict]:
    checks = []
    series = []
    norm0 = norm_squared(psi)
    for k, t in enumerate(times):
        state = evolve(model, psi, t)
        cons = constants_of_motion(model, state)
        series.append((t, cons.point.z, cons.point.Delta))
        write_csv(out / f"density_t{k}.csv", ["x", "density"],
                  zip(state.axes[0].points, np.abs(state.psi) ** 2))
        checks.append(_check(f"norm_conservation_t{k}",
                             abs(cons.norm_sq - norm0), tols["norm"]))
    write_moment_series(out / "moments.csv", model.n, series)
    return checks


def _task_roundtrip(cfg, model, psi, times, out, tols) -> list[dict]:
    state = evolve(model, psi, times[-1])
    back = evolve_inverse(model, state, psi.t)
    return [_check("inverse_roundtrip", l2_distance(back, psi),
                   tols["roundtrip"])]


def _task_oracle(cfg, model, psi, times, out, tols) -> list[dict]:
    dt0 = _positive(cfg, "oracle_dt", 4.5e-3)
    t = times[-1]
    exact = evolve(model, psi, t)
    rows = []
    err = math.nan
    for dt in (2.0 * dt0, math.sqrt(2.0) * dt0, dt0):
        ref = split_step_evolve(model, psi, t, OracleConfig(dt=dt))
        err = l2_distance(exact, ref)
        rows.append([dt, err])
    write_csv(out / "oracle_error.csv", ["dt", "l2_error"], rows)
    slope = np.polyfit(np.log([r[0] for r in rows]),
                       np.log([r[1] for r in rows]), 1)[0]
    return [_check("oracle_l2", err, tols["oracle"]),
            _check("oracle_slope_defect", max(0.0, 1.9 - slope), 0.0)]


def _task_ladder(cfg, model, psi, times, out, tols) -> list[dict]:
    checks = []
    axis = psi.axes[0]
    t = times[0]
    for n in range(_field(cfg, "ladder_levels", int, 2, lo=0)):
        fn = fock_state(model, n, t, axis=axis)
        up = ladder_apply(model, +1, fn)
        ref = fock_state(model, n + 1, t, axis=axis)
        coeff = l2_norm(up)
        checks.append(_check(f"ladder_up_coeff_n{n}",
                             abs(coeff / math.sqrt(n + 1) - 1.0),
                             tols["ladder"]))
        checks.append(_check(f"ladder_up_state_n{n}",
                             l2_distance(up.with_psi(up.psi / coeff), ref),
                             10 * tols["ladder"]))
    return checks


def _write_quasi_energies(model, out: Path, levels: int) -> list[float]:
    energies = [quasi_energy(model, n) for n in range(levels)]
    write_csv(out / "quasi_energy.csv", ["n", "energy"],
              ([float(n), e] for n, e in enumerate(energies)))
    return energies


def _task_quasi_energy(cfg, model, psi, times, out, tols) -> list[dict]:
    omega = example_params(model, Example1DParams).omega
    if omega == 0.0:
        raise GpexactError("the quasi-energy task needs a drive: model "
                           "field 'omega' must be nonzero")
    energies = _write_quasi_energies(
        model, out, _field(cfg, "spectrum_levels", int, 3, lo=1))
    T = 2.0 * math.pi / omega
    f0 = fock_state(model, 0, 0.0, axis=psi.axes[0])
    one_period = evolve(model, f0, T)
    target = np.exp(-1j * energies[0] * T) * f0.psi
    phase_err = abs(np.angle(np.vdot(target, one_period.psi)))
    return [_check("quasi_energy_phase", phase_err, tols["quasi_energy"])]


def _task_kernel(cfg, model, psi, times, out, tols) -> list[dict]:
    from .kernel import green_function
    cons = constants_of_motion(model, psi)
    t = times[-1]
    traj = integrate_moments(model, cons.kappa_tilde, cons.point, psi.t, t)
    ctx = build_kernel_context(traj, psi.t, t)
    rng = np.random.default_rng(0)
    xs = rng.normal(scale=1.5, size=100)
    ys = rng.normal(scale=1.5, size=100)
    got = green_function(ctx, xs, ys)
    ref = closed_form_kernel_1d(traj, xs, ys, t, psi.t)
    return [_check("kernel_crosscheck",
                   float(np.max(np.abs(got - ref))), tols["kernel"])]


TASKS = {
    "evolve": _task_evolve,
    "inverse-roundtrip": _task_roundtrip,
    "oracle-compare": _task_oracle,
    "ladder": _task_ladder,
    "quasi-energy": _task_quasi_energy,
    "kernel-crosscheck": _task_kernel,
}


def run_scenario(cfg: dict, out_dir: Path, tol_override: float | None = None,
                 grid_override: int | None = None) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    model = _build_model(cfg)
    if model.n != 1:
        raise GpexactError("scenarios run 1D models only (initial states, "
                           f"density_t*.csv); the model has n = {model.n}")
    axis = _build_axis(cfg, grid_override)
    psi = _build_state(_field(cfg, "initial_state", dict,
                              {"kind": "gaussian"}), model, axis)
    times = _schedule(cfg)
    tols = dict(DEFAULT_TOLS)
    given = _field(cfg, "tolerances", dict, {})
    _reject_unknown(given, DEFAULT_TOLS, "tolerances")
    tols.update({k: _positive(given, k, _REQUIRED, "tolerances")
                 for k in given})
    if tol_override is not None:
        if not (math.isfinite(tol_override) and tol_override > 0.0):
            raise GpexactError(f"--tol must be a positive number, not "
                               f"{tol_override!r}")
        tols = {k: tol_override for k in tols}

    checks = []
    for task in _field(cfg, "tasks", list, ["evolve"]):
        if not isinstance(task, str) or task not in TASKS:
            raise GpexactError(f"unknown task {task!r}")
        log.info("running task %s", task)
        checks.extend(TASKS[task](cfg, model, psi, times, out_dir, tols))
    report = emit_report(checks)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


GOLDEN_SCENARIOS = {
    "driven-1d": {
        "model": {"example": "1d", "hbar": 1.0, "kappa": 0.5, "m": 1.0,
                  "k": 1.0, "e": 1.0, "E": 0.1, "omega": 0.5, "a": 0.2,
                  "b": 0.1, "c": 0.3},
        "grid": {"lo": -12.0, "hi": 12.0, "n": 1024},
        "initial_state": {"kind": "gaussian", "x0": 1.0, "p0": 0.2},
        "schedule": [0.5, 1.0],
        "tasks": ["evolve", "inverse-roundtrip", "kernel-crosscheck",
                  "ladder"],
    },
    "harmonic-limit": {
        "model": {"example": "1d", "hbar": 1.0, "kappa": 0.0, "m": 1.0,
                  "k": 1.0, "e": 1.0, "E": 0.0, "omega": 0.5, "a": 0.0,
                  "b": 0.0, "c": 0.0},
        "grid": {"lo": -12.0, "hi": 12.0, "n": 1024},
        "initial_state": {"kind": "fock", "n": 1},
        "schedule": [0.8],
        "tasks": ["evolve", "inverse-roundtrip", "kernel-crosscheck"],
    },
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise GpexactError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise GpexactError(f"malformed config {path}: {err}")
    if not isinstance(cfg, dict):
        raise GpexactError(f"config {path} must be a JSON object")
    _reject_unknown(cfg, _CONFIG_FIELDS, f"config {path}")
    return cfg


def _cmd_scenario(args) -> int:
    cfg = _load_config(args.config)
    report = run_scenario(cfg, Path(args.out), args.tol, args.grid)
    print("pass" if report["pass"] else "FAIL",
          f"({len(report['checks'])} checks)")
    return 0 if report["pass"] else 1


def _cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    cfg["tasks"] = ["evolve"]
    report = run_scenario(cfg, Path(args.out), args.tol, args.grid)
    return 0 if report["pass"] else 1


def _cmd_fock(args) -> int:
    cfg = _load_config(args.config) if args.config else \
        dict(GOLDEN_SCENARIOS["driven-1d"])
    model = _build_model(cfg)
    axis = _build_axis(cfg, args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = _field(cfg, "fock_n", int, 2, lo=0)
    t = _field(cfg, "fock_t", float, 0.0)
    state = fock_state(model, n, t, axis=axis)
    write_csv(out / f"fock_n{n}.csv", ["x", "re", "im", "density"],
              zip(axis.points, state.psi.real, state.psi.imag,
                  np.abs(state.psi) ** 2))
    print(f"wrote fock_n{n}.csv")
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args.config) if args.config else \
        dict(GOLDEN_SCENARIOS["driven-1d"])
    model = _build_model(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_max = _field(cfg, "spectrum_levels", int, 6, lo=1)
    _write_quasi_energies(model, out, n_max)
    print(f"wrote quasi_energy.csv ({n_max} levels)")
    return 0


def _cmd_verify(args) -> int:
    status = 0
    for name, cfg in GOLDEN_SCENARIOS.items():
        out = Path(args.out) / name
        report = run_scenario(dict(cfg), out, args.tol, args.grid)
        print(f"{name}: " + ("pass" if report["pass"] else "FAIL"))
        if not report["pass"]:
            status = 1
    return status


def main(argv=None) -> int:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("GPX_LOG", "error"),
                                         logging.ERROR)
    logging.basicConfig(level=level, format="[%(name)s] %(message)s")

    parser = argparse.ArgumentParser(
        prog="gpexact",
        description="Exact kernel evolution for quadratic nonlocal "
                    "Gross-Pitaevskii models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    overrides = {"--tol": float, "--grid": int}
    # config: required, optional, or not read at all (None)
    for name, handler, config, takes in (
            ("evolve", _cmd_evolve, True, ("--tol", "--grid")),
            ("fock", _cmd_fock, False, ("--grid",)),
            ("spectrum", _cmd_spectrum, False, ()),
            ("verify", _cmd_verify, None, ("--tol", "--grid")),
            ("scenario", _cmd_scenario, True, ("--tol", "--grid"))):
        p = sub.add_parser(name)
        if config is not None:
            p.add_argument("--config", required=config)
        p.add_argument("--out", default="out")
        for flag in takes:
            p.add_argument(flag, type=overrides[flag], default=None)
        p.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GpexactError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
