import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpexact as gx
from gpexact.cli import GOLDEN_SCENARIOS, emit_report, main

SCENARIO = {
    "model": {"example": "1d", "hbar": 1.0, "kappa": 0.5, "m": 1.0, "k": 1.0,
              "e": 1.0, "E": 0.1, "omega": 0.5, "a": 0.2, "b": 0.1, "c": 0.3},
    "grid": {"lo": -12.0, "hi": 12.0, "n": 1024},
    "initial_state": {"kind": "gaussian", "x0": 1.0, "p0": 0.2},
    "schedule": [0.5, 1.0],
    "tasks": ["evolve", "inverse-roundtrip", "kernel-crosscheck"],
}


def write_config(tmp_path, cfg=SCENARIO):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_scenario_runs_and_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["scenario", "--config", cfg, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])
    for name in ("moments.csv", "density_t0.csv", "density_t1.csv",
                 "report.json"):
        assert (out / name).exists()
    header = (out / "moments.csv").read_text().splitlines()[0]
    assert header.startswith("t,z0,z1,Delta00")


def test_missing_config_fails_cleanly(tmp_path, capsys):
    code = main(["scenario", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_config_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["scenario", "--config", str(bad), "--out",
                 str(tmp_path / "o")])
    assert code == 2
    assert "malformed" in capsys.readouterr().err


def test_unknown_task_rejected(tmp_path, capsys):
    cfg = dict(SCENARIO)
    cfg["tasks"] = ["transmogrify"]
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("grid", ["1023", "0"])
def test_invalid_grid_fails_cleanly(tmp_path, capsys, grid):
    code = main(["scenario", "--config", write_config(tmp_path), "--out",
                 str(tmp_path / "o"), "--grid", grid])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_config_without_model_fails_cleanly(tmp_path, capsys):
    cfg = {k: v for k, v in SCENARIO.items() if k != "model"}
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("model", [
    {"example": "custom"},           # no dimension
    {"example": "1d", "m": "abc"},   # non-numeric parameter
    {"example": "custom", "n": 1, "Hzz": [1.0, 0.0, 0.0, 1.0],
     "drive": [[0.5, [0.0, "x"], [0.0, 0.0]]]},  # malformed drive
], ids=["custom-without-n", "non-numeric-mass", "custom-malformed-drive"])
def test_malformed_model_spec_fails_cleanly(tmp_path, capsys, model):
    cfg = dict(SCENARIO, model=model)
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_3d_scenario_fails_cleanly(tmp_path, capsys):
    cfg = dict(SCENARIO, model={"example": "3d"})
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "1D" in err


def test_decreasing_schedule_rejected(tmp_path):
    cfg = dict(SCENARIO)
    cfg["schedule"] = [1.0, 0.5]
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["scenario", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scenario", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("moments.csv", "density_t0.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    assert len(names) == 4  # density_t0/t1.csv, moments.csv, report.json
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_failing_tolerance_reported(tmp_path):
    cfg = dict(SCENARIO)
    cfg["tolerances"] = {"roundtrip": 1e-18}  # unattainably tight
    cfg["tasks"] = ["inverse-roundtrip"]
    out = tmp_path / "o"
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing and failing[0]["name"] == "inverse_roundtrip"


def test_emit_report_shapes():
    rep = emit_report([])
    assert rep == {"pass": True, "checks": []}
    rep = emit_report([{"name": "a", "value": 1.0, "tolerance": 0.5,
                        "pass": False}])
    assert rep["pass"] is False


def test_verify_golden_configs(tmp_path):
    assert main(["verify", "--out", str(tmp_path / "v"), "--grid", "512"]) == 0


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "s"
    assert main(["spectrum", "--out", str(out)]) == 0
    lines = (out / "quasi_energy.csv").read_text().splitlines()
    assert lines[0] == "n,energy"
    assert len(lines) == 7


def test_fock_subcommand(tmp_path):
    out = tmp_path / "f"
    assert main(["fock", "--out", str(out), "--grid", "512"]) == 0
    lines = (out / "fock_n2.csv").read_text().splitlines()
    assert lines[0] == "x,re,im,density"
    assert len(lines) == 513


def test_evolve_subcommand_runs_the_evolve_task_alone(tmp_path):
    """``gpexact evolve`` runs the config's scenario with its evolve task
    only: it passes, and writes the tree that ``gpexact scenario`` writes
    for the same config with ``tasks: ["evolve"]``, byte for byte."""
    out = tmp_path / "evolve"
    assert main(["evolve", "--config", write_config(tmp_path),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    alone = tmp_path / "alone"
    alone.mkdir()
    assert main(["scenario", "--config",
                 write_config(alone, dict(SCENARIO, tasks=["evolve"])),
                 "--out", str(alone / "out")]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "moments.csv" in names and "report.json" in names
    assert names == sorted(p.name for p in (alone / "out").iterdir())
    for name in names:
        assert (out / name).read_bytes() == (alone / "out" / name).read_bytes()


@pytest.mark.parametrize("command", ["scenario", "evolve", "fock",
                                     "spectrum"])
def test_unknown_config_field_rejected_by_every_subcommand(tmp_path, capsys,
                                                          command):
    cfg = write_config(tmp_path, dict(SCENARIO, shedule=[0.5]))
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "'shedule'" in err


def test_subcommand_rejects_flags_it_does_not_read(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--out", str(tmp_path / "s"), "--grid", "512"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(tmp_path / "nope.json"),
              "--out", str(tmp_path / "v")])
    assert exc.value.code == 2
    assert not (tmp_path / "v").exists()


def test_gpx_log_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GPX_LOG", "info")
    out = tmp_path / "s"
    assert main(["spectrum", "--out", str(out)]) == 0


def test_superposition_initial_state(tmp_path):
    cfg = dict(SCENARIO)
    cfg["initial_state"] = {
        "kind": "superposition",
        "parts": [
            {"re": 0.6, "state": {"kind": "gaussian", "x0": 1.0, "p0": 0.0}},
            {"re": 0.8, "state": {"kind": "gaussian", "x0": -0.5, "p0": 0.2}},
        ],
    }
    cfg["tasks"] = ["evolve"]
    out = tmp_path / "o"
    assert main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0


def test_oracle_and_quasi_energy_tasks(tmp_path):
    cfg = dict(SCENARIO)
    cfg["grid"] = {"lo": -12.0, "hi": 12.0, "n": 512}
    cfg["schedule"] = [0.5]
    cfg["tasks"] = ["oracle-compare", "quasi-energy"]
    cfg["oracle_dt"] = 4.5e-3
    cfg["tolerances"] = {"oracle": 5e-5, "quasi_energy": 1e-5}
    out = tmp_path / "o"
    assert main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    # the ladder's rungs are (2, sqrt 2, 1) x oracle_dt, coarsest first
    rows = (out / "oracle_error.csv").read_text().splitlines()
    assert rows[0] == "dt,l2_error"
    assert [float(r.split(",")[0]) for r in rows[1:]] == \
        [2.0 * 4.5e-3, math.sqrt(2.0) * 4.5e-3, 4.5e-3]
    assert (out / "quasi_energy.csv").exists()


def test_oracle_ladder_default(tmp_path):
    """An omitted oracle_dt gives the rungs (2, sqrt 2, 1) x 2.8e-2, and the
    ladder passes the default oracle tolerance and slope check."""
    cfg = dict(SCENARIO)
    cfg["grid"] = {"lo": -12.0, "hi": 12.0, "n": 512}
    cfg["tasks"] = ["oracle-compare"]
    out = tmp_path / "o"
    assert main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = (out / "oracle_error.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == \
        [2.0 * 2.8e-2, math.sqrt(2.0) * 2.8e-2, 2.8e-2]


def test_file_initial_state(tmp_path):
    import gpexact as gx
    axis = gx.Axis(-12.0, 12.0, 1024)
    psi = gx.gaussian_packet((axis,), 1.0, [1.0], [0.0],
                             [1.0488088481701516])
    state_path = tmp_path / "init.npz"
    gx.save_state(psi, state_path)
    cfg = dict(SCENARIO)
    cfg["initial_state"] = {"kind": "file", "path": str(state_path)}
    cfg["tasks"] = ["evolve"]
    assert main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0


def test_tol_override_applies_to_all_checks(tmp_path):
    cfg = dict(SCENARIO)
    cfg["tasks"] = ["inverse-roundtrip"]
    out = tmp_path / "o"
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--tol", "1e-30"])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][0]["tolerance"] == 1e-30


@pytest.mark.parametrize("fields, message", [
    ({"initial_state": {"kind": "superposition"}}, "parts"),
    ({"initial_state": {"kind": "superposition",
                        "parts": [{"re": 1.0}]}}, "state"),
    ({"initial_state": {"kind": "file"}}, "path"),
    ({"initial_state": {"kind": "file", "path": "no-such-state.npz"}},
     "no-such-state.npz"),
    ({"initial_state": {"kind": "gaussian", "x0": "abc"}}, "x0"),
    ({"initial_state": 3}, "initial_state"),
    ({"grid": 5}, "grid"),
    ({"grid": {"n": "abc"}}, "'n'"),
    ({"schedule": ["a"]}, "schedule"),
    ({"tolerances": {"oracle": "x"}}, "oracle"),
    ({"oracle_dt": "q", "tasks": ["oracle-compare"]}, "oracle_dt"),
    ({"tasks": "evolve"}, "list"),
    ({"tolerances": {"orcale": 1e-6}}, "'orcale'"),
    ({"model": dict(SCENARIO["model"], omgea=0.3)}, "'omgea'"),
    ({"grid": {"lo": -12.0, "hi": 12.0, "num": 256}}, "'num'"),
    ({"initial_state": {"kind": "gaussian", "xo": 1.0}}, "'xo'"),
    ({"initial_state": {"kind": "superposition",
                        "parts": [{"state": {"kind": "fock"}, "weight": 1}]}},
     "'weight'"),
], ids=["superposition-without-parts", "part-without-state",
        "file-without-path", "missing-file", "non-numeric-x0",
        "initial-state-not-object", "grid-not-object",
        "non-numeric-grid-size", "non-numeric-schedule",
        "non-numeric-tolerance", "non-numeric-oracle-dt", "tasks-not-list",
        "unknown-tolerance", "misspelled-model-field",
        "unknown-grid-field", "unknown-state-field", "unknown-part-field"])
def test_malformed_scenario_field_fails_cleanly(tmp_path, capsys, fields,
                                                message):
    cfg = dict(SCENARIO, **fields)
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err


NAN, INF = float("nan"), float("inf")
CUSTOM_1D = {"example": "custom", "n": 1, "hbar": 1.0, "m": 1.0,
             "kappa": 0.5, "Hzz": [1.0, 0.0, 0.0, 1.0]}


@pytest.mark.parametrize("fields, message", [
    ({"initial_state": {"kind": "fock", "n": -1}}, "at least 0"),
    ({"spectrum_levels": 0, "tasks": ["quasi-energy"]}, "at least 1"),
    ({"model": CUSTOM_1D, "tasks": ["kernel-crosscheck"]}, "Example1DParams"),
    ({"model": CUSTOM_1D, "tasks": ["quasi-energy"]}, "Example1DParams"),
    ({"grid": {"n": 256.5}}, "integer"),
    ({"initial_state": {"kind": "gaussian", "x0": NAN}}, "finite"),
    ({"initial_state": {"kind": "gaussian", "p0": INF}}, "finite"),
    ({"initial_state": {"kind": "gaussian", "x0": -INF}}, "finite"),
    ({"grid": {"lo": -12.0, "hi": INF, "n": 1024}}, "finite"),
    ({"schedule": [NAN]}, "finite"),
    ({"schedule": [INF]}, "finite"),
    ({"schedule": []}, "empty"),
    ({"initial_state": {"kind": "gaussian", "alpha": -1.0}}, "positive"),
    ({"initial_state": {"kind": "gaussian", "alpha": 0.0}}, "positive"),
    ({"model": dict(SCENARIO["model"], m=0.0)}, "nonzero"),
    ({"model": {"example": "3d", "m": 0.0}}, "nonzero"),
    ({"model": {"example": "3d", "c_light": 0.0}}, "nonzero"),
    ({"model": {"example": "3d", "gamma": 0.0}}, "nonzero"),
    ({"oracle_dt": 0.0, "tasks": ["oracle-compare"]}, "positive"),
    ({"model": dict(SCENARIO["model"], omega=0.0), "tasks": ["quasi-energy"]},
     "drive"),
    ({"tolerances": {"norm": NAN}}, "finite"),
    ({"tolerances": {"norm": -1}}, "positive"),
    ({"tolerances": {"roundtrip": 0}}, "positive"),
], ids=["negative-fock-level", "no-spectrum-levels",
        "custom-model-kernel-crosscheck", "custom-model-quasi-energy",
        "fractional-grid-size",
        "nan-x0", "infinite-p0", "negative-infinite-x0", "infinite-grid-hi",
        "nan-schedule", "infinite-schedule", "empty-schedule",
        "negative-alpha", "zero-alpha", "zero-mass-1d", "zero-mass-3d",
        "zero-light-speed-3d", "zero-gamma-3d", "zero-oracle-dt",
        "quasi-energy-without-drive", "nan-tolerance", "negative-tolerance",
        "zero-tolerance"])
def test_out_of_range_scenario_value_fails_cleanly(tmp_path, capsys, fields,
                                                   message):
    cfg = dict(SCENARIO, **fields)
    code = main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err


def test_zero_tol_override_fails_cleanly(tmp_path, capsys):
    code = main(["scenario", "--config", write_config(tmp_path),
                 "--out", str(tmp_path / "o"), "--tol", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "--tol" in err


def test_quasi_energy_without_drive_writes_no_spectrum(tmp_path):
    cfg = dict(SCENARIO, model=dict(SCENARIO["model"], omega=0.0),
               tasks=["quasi-energy"])
    out = tmp_path / "o"
    assert main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert not (out / "quasi_energy.csv").exists()


def _cli_csvs(tmp_path):
    cfg = dict(SCENARIO, tasks=["evolve"])
    out = tmp_path / "o"
    assert main(["scenario", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    return [(out / "moments.csv", "t,z0,z1,Delta00,Delta01,Delta11"),
            (out / "density_t0.csv", "x,density"),
            (out / "density_t1.csv", "x,density")]


def _state_csv(tmp_path):
    from gpexact.state import dump_state_csv
    axis = gx.Axis(-4.0, 4.0, 16)
    path = tmp_path / "state.csv"
    dump_state_csv(gx.gaussian_packet((axis,), 1.0, [0.3], [0.2], [1.0]),
                   path)
    return [(path, "x0,re,im")]


def _trajectory():
    model = gx.build_model(SCENARIO["model"])
    g0 = gx.MomentPoint([0.2, 1.0], [[0.5, 0.0], [0.0, 0.5]])
    return model, gx.integrate_moments(model, 0.5, g0, 0.0, 1.0)


def _trajectory_csv(tmp_path):
    from gpexact.ehrenfest import trajectory_to_csv
    path = tmp_path / "traj.csv"
    trajectory_to_csv(_trajectory()[1], [0.0, 0.5, 1.0], path)
    return [(path, "t,z0,z1,Delta00,Delta01,Delta11")]


def _kernel_csv(tmp_path):
    from gpexact.kernel import dump_kernel_csv
    model, traj = _trajectory()
    ctx = gx.build_kernel_context(traj, 0.0, 1.0)
    path = tmp_path / "kernel.csv"
    dump_kernel_csv(ctx, [0.0, 0.5], [-0.5, 0.5], path)
    return [(path, "x,y,re,im")]


@pytest.mark.parametrize("produce", [_cli_csvs, _state_csv, _trajectory_csv,
                                     _kernel_csv],
                         ids=["cli", "state", "trajectory", "kernel"])
def test_one_csv_format(tmp_path, produce):
    """Every CSV the package writes: a header line, %.16e values, LF."""
    value = re.compile(rb"-?\d\.\d{16}e[+-]\d{2,3}")
    for path, header in produce(tmp_path):
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.split(b"\n")[:-1]
        assert lines[0] == header.encode()
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(b",")
            assert len(fields) == header.count(",") + 1
            assert all(value.fullmatch(f) for f in fields), line


def test_write_csv_bytes_pinned(tmp_path):
    """write_csv's rows are the bytes of formatting each value with
    f"{v:.16e}" and joining with commas, for numpy and Python floats
    alike, signed zero, subnormals, huge values and non-finite ones
    included."""
    from gpexact.state import write_csv
    values = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf,
              -math.inf, 1.0 / 3.0, -2.5e-17, 123456789.125, 1.0]
    windows = [values[i:i + 4] for i in range(len(values) - 3)]
    rows = [tuple(np.float64(v) for v in row) if i % 2 else row
            for i, row in enumerate(windows)]
    rows.append([np.float64(-0.0), 5e-324, np.float64(math.nan), 1e300])
    path = tmp_path / "pinned.csv"
    write_csv(path, ["a", "b", "c", "d"], iter(rows))
    expected = "a,b,c,d\n" + "".join(
        ",".join(f"{v:.16e}" for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()
    assert b"-0.0000000000000000e+00" in path.read_bytes()
    assert b"4.9406564584124654e-324" in path.read_bytes()


@pytest.mark.parametrize("rows, bad", [([(1.0, 2.0), (3.0,)], "row 1 has 1"),
                                       ([(1.0, 2.0, 3.0), (4.0,)],
                                        "row 0 has 3")])
def test_write_csv_rejects_a_row_of_the_wrong_length(tmp_path, rows, bad):
    """A row whose length is not the header's is refused before the file
    is opened, also when a long and a short row hold the right total."""
    from gpexact.state import write_csv
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"{bad} values for 2 columns"):
        write_csv(path, ["a", "b"], rows)
    assert not path.exists()


# The driven-1d golden scenario on a grid small enough to run each mutation
# in milliseconds ([-8, 8] keeps the base config past the alias gate at 128
# points), with the default tolerances spelled out so they can be mutated.
FUZZ_BASE = dict(GOLDEN_SCENARIOS["driven-1d"],
                 grid={"lo": -8.0, "hi": 8.0, "n": 128},
                 tasks=["evolve", "inverse-roundtrip"],
                 tolerances={"norm": 1e-8, "roundtrip": 1e-8})
_MISSING = object()
FUZZ_VALUES = [_MISSING, NAN, INF, -INF, 0, -1, 0.5, "abc", [1.0, "x"],
               [], {"a": 1}]


def _field_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _field_paths(val, prefix + (key,))


FUZZ_PATHS = list(_field_paths(FUZZ_BASE)) + [("initial_state", "alpha"),
                                             ("initial_state", "norm_sq")]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES))
def test_mutated_scenario_exits_cleanly(path, value):
    """One field of the scenario replaced (or removed): the CLI returns 0,
    1 or 2 without raising, and 2 comes with exactly one error line."""
    cfg = copy.deepcopy(FUZZ_BASE)
    node = functools.reduce(operator.getitem, path[:-1], cfg)
    if value is _MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        config = os.path.join(tmp, "scenario.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        code = main(["scenario", "--config", config, "--out",
                     os.path.join(tmp, "o")])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
