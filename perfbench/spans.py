"""Spans and counters at the layer boundaries of gpexact.

The tracer wraps public functions at every module attribute that callers
look up (``from .x import f`` copies a reference into the caller's module,
so a function is replaced wherever that same object appears). Spans are kept
in memory and written out when the run ends; nothing inside ``src/`` changes.

A span is (name, start, end, parent span id, op id). Work done outside an op
(input generation, correctness gates) is not recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Layer of each wrapped name. Keys are span names; the values group them for
# the per-layer metrics.
LAYER_OF = {
    "moments.constants_of_motion": "moments",
    "ehrenfest.integrate_moments": "ehrenfest",
    "ehrenfest.integrate_variations": "ehrenfest",
    "kernel.build_kernel_context": "kernel",
    "evolution.plan_evolution": "plan",
    "evolution.evolve": "apply",
    "evolution.evolve_inverse": "apply",
    "state.check_resolved": "state",
    "oracle.split_step_evolve": "oracle",
    "symmetry.ladder_apply": "symmetry",
    "symmetry.fock_state": "symmetry",
    "symmetry.quasi_energy": "symmetry",
}
CLI_TASK_PREFIX = "cli.task."
OP_SPAN = "op"


class Tracer:
    """Records spans and counters for the op that is currently running."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, op)
        self.counts = defaultdict(float)
        self.op: int | None = None
        self._stack: list[tuple[int, str]] = []   # open (span id, name)
        self._undo: list = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._t0 = time.perf_counter()
        self._stack = [(self._reserve(), OP_SPAN)]

    def end_op(self) -> None:
        sid, _ = self._stack.pop()
        self.spans[sid] = (OP_SPAN, self._t0, time.perf_counter(), None,
                           self.op)
        self.op = None

    def _reserve(self) -> int:
        self.spans.append(None)
        return len(self.spans) - 1

    def count(self, key: str, n: float = 1.0) -> None:
        if self.op is not None:
            self.counts[key] += n

    def innermost(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name: str, fn, after=None):
        """Span around ``fn``; ``after(tracer, args, kwargs, result)`` may
        add counters from the call's arguments and result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0]
            sid = tracer._reserve()
            tracer._stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[sid] = (name, t0, time.perf_counter(), parent,
                                     tracer.op)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def replace_everywhere(self, original, replacement, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self, gx) -> None:
        """Wrap the layer boundaries of the imported package ``gx``."""
        cli = importlib.import_module("gpexact.cli")
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "gpexact" or k.startswith("gpexact.")]
        ev, eh, ke, mo, st, orc, sy = (
            gx.evolution, gx.ehrenfest, gx.kernel, gx.moments, gx.state,
            gx.oracle, gx.symmetry)

        def legs(tr, args, kwargs, plan):
            tr.count("evolution.legs", len(plan.splits))

        def oracle_steps(tr, args, kwargs, result):
            psi, t = args[1], args[2]
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
            dt = (cfg or orc.OracleConfig()).dt
            # the oracle's own step rule
            tr.count("oracle.steps", max(1, round(abs(t - psi.t) / dt)))

        everywhere = [
            (mo.constants_of_motion, "moments.constants_of_motion", None),
            (eh.integrate_moments, "ehrenfest.integrate_moments", None),
            (eh.integrate_variations, "ehrenfest.integrate_variations", None),
            (ke.build_kernel_context, "kernel.build_kernel_context", None),
            (ev.plan_evolution, "evolution.plan_evolution", legs),
            (ev.evolve, "evolution.evolve", None),
            (ev.evolve_inverse, "evolution.evolve_inverse", None),
            (orc.split_step_evolve, "oracle.split_step_evolve", oracle_steps),
            (sy.ladder_apply, "symmetry.ladder_apply", None),
            (sy.fock_state, "symmetry.fock_state", None),
            (sy.quasi_energy, "symmetry.quasi_energy", None),
        ]
        for fn, name, after in everywhere:
            self.replace_everywhere(fn, self.wrap(name, fn, after), mods)
        # post-leg resolution checks only; the moment functions' own
        # validation stays inside their spans
        self.replace_everywhere(
            st.check_resolved,
            self.wrap("state.check_resolved", st.check_resolved), [ev])
        for task, fn in list(cli.TASKS.items()):
            cli.TASKS[task] = self.wrap(CLI_TASK_PREFIX + task, fn)
            self._undo.append((cli.TASKS, task, fn))

        # counters without spans
        hess = eh.effective_hessian

        def counted_hessian(*args, **kwargs):
            self.count("ehrenfest.rhs_evals")
            return hess(*args, **kwargs)

        self.replace_everywhere(hess, counted_hessian, [eh])
        call = eh.Matriciant.__call__

        def counted_call(matriciant, tau):
            if self.innermost() == "kernel.build_kernel_context":
                self.count("kernel.branch_samples")
            return call(matriciant, tau)

        eh.Matriciant.__call__ = counted_call
        self._undo.append((eh.Matriciant, "__call__", call))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction -----------------------------------------------------
    def self_times(self) -> list[float]:
        """Duration of each span minus the part its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def records(self) -> list[dict]:
        return [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "op": s[4]}
                for i, s in enumerate(self.spans)]


def layer_metrics(tracer: Tracer, task_names) -> dict[str, float]:
    """Per-op layer metrics of all recorded ops (values, no units)."""
    spans = tracer.spans
    own = tracer.self_times()
    ops = [s for s in spans if s[0] == OP_SPAN]
    n = max(1, len(ops))
    op_time = sum(s[2] - s[1] for s in ops)
    total = defaultdict(float)   # inclusive seconds per span name
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for s, t_own in zip(spans, own):
        total[s[0]] += s[2] - s[1]
        calls[s[0]] += 1
        if s[0] == OP_SPAN:
            layer_self["unattributed"] += t_own
        elif s[0].startswith(CLI_TASK_PREFIX):
            layer_self["cli"] += t_own
        else:
            layer_self[LAYER_OF[s[0]]] += t_own

    def ms(*names):
        return 1e3 * sum(total[k] for k in names) / n

    def per_op(*names):
        return sum(calls[k] for k in names) / n

    c = tracer.counts
    eh = ("ehrenfest.integrate_moments", "ehrenfest.integrate_variations")
    sym = ("symmetry.ladder_apply", "symmetry.fock_state",
           "symmetry.quasi_energy")
    steps = c["oracle.steps"]
    out = {
        "op_ms": 1e3 * op_time / n,
        "moments.calls": per_op("moments.constants_of_motion"),
        "moments.ms": ms("moments.constants_of_motion"),
        "ehrenfest.solves": per_op(*eh),
        "ehrenfest.ms": ms(*eh),
        "ehrenfest.rhs_evals": c["ehrenfest.rhs_evals"] / n,
        "kernel.contexts": per_op("kernel.build_kernel_context"),
        "kernel.context_ms": ms("kernel.build_kernel_context"),
        "kernel.branch_samples": c["kernel.branch_samples"] / n,
        "evolution.plan_ms": ms("evolution.plan_evolution"),
        "evolution.legs": c["evolution.legs"] / n,
        "evolution.apply_self_ms": 1e3 * layer_self["apply"] / n,
        "state.checks": per_op("state.check_resolved"),
        "state.check_ms": ms("state.check_resolved"),
        "oracle.steps": steps / n,
        "oracle.ms": ms("oracle.split_step_evolve"),
        "oracle.step_us": (1e6 * total["oracle.split_step_evolve"] / steps
                           if steps else 0.0),
        "symmetry.calls": per_op(*sym),
        "symmetry.ms": ms(*sym),
    }
    for task in task_names:
        out[f"cli.task_ms.{task}"] = ms(CLI_TASK_PREFIX + task)
    for layer in ("moments", "ehrenfest", "kernel", "plan", "apply", "state",
                  "oracle", "symmetry", "cli", "unattributed"):
        out[f"share.{layer}"] = layer_self[layer] / op_time if op_time else 0.0
    return out
