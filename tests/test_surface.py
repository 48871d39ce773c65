"""The public names, and the module attributes that outside instrumentation
(the span tracer and workloads under perfbench/) looks up and wraps.  A
refactor that renames or bypasses one of them silently drops a traced span,
so each is pinned here.  So is the numerical policy: the evolve path and
the oracle take no tolerance or step setting beyond the ones below."""

import dataclasses
import inspect

import gpexact as gx
from gpexact import (cli, ehrenfest, evolution, kernel, model, moments,
                     oracle, state, symmetry)

PUBLIC_NAMES = [
    "Axis", "CausticError", "EvolutionPlan", "EvolveOptions",
    "Example1DParams", "Example3DParams", "FockSolution", "GpexactError",
    "GridState", "IntegrationError", "IntertwinedOperator", "KernelContext",
    "Matriciant", "ModelError", "MomentPoint", "MomentTrajectory",
    "OracleConfig", "PlanError", "QuadraticModel", "ResolutionError",
    "ResonanceError", "StabilityError", "StateConstants",
    "apply_effective_hamiltonian", "apply_symmetry", "build_kernel_context",
    "build_model", "check_resolved", "closed_form_kernel_1d",
    "closed_form_kernel_3d", "constants_of_motion", "effective_coupling",
    "effective_hessian", "ehrenfest", "errors", "evolution", "evolve",
    "evolve_composed", "evolve_inverse", "first_moments", "fock_state",
    "free_model", "gaussian_packet", "gpe_residual", "green_function",
    "harmonic_model", "inner", "integrate_moments", "integrate_variations",
    "kernel", "l2_distance", "l2_norm", "ladder_apply", "ladder_operators",
    "load_state", "make_model", "matriciant_blocks", "mean_drift_hessian",
    "model", "model_1d", "model_3d", "model_to_spec", "moments",
    "norm_squared", "one_parameter_family", "oracle",
    "oscillator_kernel_factor", "plan_evolution", "quasi_energy",
    "save_state", "second_moments", "split_step_evolve", "state",
    "superpose", "symmetry", "symplectic_defect",
]


def test_public_names_pinned():
    assert sorted(gx.__all__) == PUBLIC_NAMES


def test_numerical_policy_pinned():
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert fields(gx.EvolveOptions) == ["recenter", "kappa_tilde"]
    assert fields(gx.OracleConfig) == ["dt"]
    for fn in (gx.integrate_moments, gx.MomentTrajectory):
        assert params(fn) == ["model", "kappa_tilde", "g0", "s", "t"]


def test_traced_names_exist():
    for mod, name in [
            (moments, "constants_of_motion"),
            (ehrenfest, "integrate_moments"),
            (ehrenfest, "integrate_variations"),
            (ehrenfest, "effective_hessian"),
            (kernel, "build_kernel_context"),
            (evolution, "plan_evolution"),
            (evolution, "evolve"),
            (evolution, "evolve_inverse"),
            (evolution, "check_resolved"),
            (state, "check_resolved"),
            (oracle, "split_step_evolve"),
            (symmetry, "ladder_apply"),
            (symmetry, "fock_state"),
            (symmetry, "quasi_energy"),
            (cli, "run_scenario"),
            (cli, "main")]:
        assert callable(getattr(mod, name)), f"{mod.__name__}.{name}"
    assert ehrenfest.effective_hessian is model.effective_hessian
    assert callable(ehrenfest.Matriciant.__call__)
    assert cli.split_step_evolve is oracle.split_step_evolve
    assert sorted(cli.TASKS) == sorted([
        "evolve", "inverse-roundtrip", "oracle-compare", "ladder",
        "quasi-energy", "kernel-crosscheck"])
    assert all(callable(fn) for fn in cli.TASKS.values())
    assert sorted(cli.GOLDEN_SCENARIOS) == ["driven-1d", "harmonic-limit"]


def test_traced_names_are_looked_up_at_call_time(monkeypatch, model_1d,
                                                 displaced_gaussian):
    """evolve reaches the planner, the kernel context, the matriciant and
    the trajectory right-hand side through the module attributes that the
    tracer replaces; the planner's result carries its legs."""
    calls = []

    def spy(mod, name):
        fn = getattr(mod, name)

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, result))
            return result

        monkeypatch.setattr(mod, name, wrapped)

    spy(evolution, "plan_evolution")
    spy(evolution, "build_kernel_context")
    spy(evolution, "check_resolved")
    spy(ehrenfest, "effective_hessian")
    spy(ehrenfest.Matriciant, "__call__")
    gx.evolve(model_1d, displaced_gaussian, 0.4)
    names = {name for name, _ in calls}
    assert names == {"plan_evolution", "build_kernel_context",
                     "check_resolved", "effective_hessian", "__call__"}
    plans = [res for name, res in calls if name == "plan_evolution"]
    assert len(plans) == 1 and len(plans[0].splits) >= 1
