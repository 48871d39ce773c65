"""Solution-to-solution maps built by conjugating grid operators with the
evolution operator, plus the ladder hierarchy and quasi-energies of the 1D
driven example.

All maps here act within one coupling family at fixed kappa_tilde, which by
default is the model's coupling times unit norm.  At fixed kappa_tilde the
evolution is homogeneous in amplitude, so scaled family members (such as the
unnormalized ladder images sqrt(n+1) psi_{n+1}) transform exactly and the
ladder coefficients come out sharp.  Pass ``kappa_tilde`` through the options
to act within a different family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.fft import fft, ifft
from scipy.special import eval_hermite, gammaln

from .ehrenfest import MomentPoint, integrate_moments
from .errors import ModelError, ResonanceError
from .evolution import EvolveOptions, evolve, evolve_inverse
from .model import Example1DParams, QuadraticModel, example_params
from .moments import centered_apply, first_moments
from .state import Axis, GridState, _resolved, l2_norm

ANNIHILATED_CUT = 1e-9


@dataclass(frozen=True)
class IntertwinedOperator:
    """Polynomial of degree <= 2 in the centered operators (dp, dx), applied
    at the pullback time.  ``terms`` maps operator words to complex
    coefficients; letters act right to left, e.g. "xp" is dx*(dp psi).
    Centers default to the pulled-back state's own first moments."""

    terms: tuple[tuple[complex, str], ...]
    center: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for _, word in self.terms:
            if len(word) > 2 or any(ch not in "xp" for ch in word):
                raise ModelError(f"unsupported operator word {word!r}")


def apply_polynomial(op: IntertwinedOperator, state: GridState) -> GridState:
    if state.n != 1:
        raise ModelError("polynomial grid operators are implemented in 1D")
    if op.center is None:
        c = first_moments(state)
    else:
        c = [np.atleast_1d(v)[0] for v in op.center]
    out = np.zeros_like(state.psi)
    for coeff, word in op.terms:
        cur = state.psi
        for ch in reversed(word):
            i = "px".index(ch)  # z = (p, x)
            cur = centered_apply(state, cur, i, c[i])
        out = out + coeff * cur
    return state.with_psi(out)


def _quantum_number(n) -> None:
    """ValueError unless ``n`` is a nonnegative integer."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"quantum number n = {n!r} is not a nonnegative "
                         "integer")


def _family(model: QuadraticModel, kappa_tilde: float | None) -> float:
    """kappa_tilde if pinned, else the model's coupling at unit norm."""
    return model.kappa if kappa_tilde is None else kappa_tilde


def _conjugate(model: QuadraticModel, act, Psi: GridState, s: float,
               opts: EvolveOptions | None) -> GridState:
    """The grid map ``act`` conjugated with the evolution: pull Psi back to
    s within its coupling family, act, and re-evolve to Psi.t.  A state that
    ``act`` annihilates stays zero, since U maps 0 to 0."""
    opts = opts or EvolveOptions()
    fam = replace(opts, kappa_tilde=_family(model, opts.kappa_tilde))
    psi0 = evolve_inverse(model, Psi, s, fam)
    phi0 = act(psi0)
    if l2_norm(phi0) ** 2 <= ANNIHILATED_CUT * l2_norm(psi0) ** 2:
        return phi0.at_time(Psi.t)
    return evolve(model, phi0, Psi.t, fam)


def apply_symmetry(model: QuadraticModel, a_op: IntertwinedOperator,
                   Psi: GridState, s: float = 0.0,
                   opts: EvolveOptions | None = None) -> GridState:
    """Map a solution at time t to another solution: pull back to s, apply
    the operator, re-evolve with refreshed moment constants."""
    return _conjugate(model, partial(apply_polynomial, a_op), Psi, s, opts)


def one_parameter_family(model: QuadraticModel, generator, alpha: float,
                         Psi: GridState, s: float = 0.0,
                         opts: EvolveOptions | None = None) -> GridState:
    """exp(alpha * i(u dx + v dp + w)) conjugated with the evolution operator.

    ``generator`` is the real triple (u, v, w); the exponential acts in
    closed form as a boost, a translation, and scalar phases (Weyl ordering
    supplies the alpha^2 cross phase).  At alpha = 0 it returns Psi itself,
    after the hbar check and resolution gate that every other alpha runs.
    """
    u, v, w0 = (float(g) for g in generator)
    if Psi.n != 1:
        raise ModelError("closed-form generator exponentials are 1D")
    if alpha == 0.0:
        _resolved(Psi, model)
        return Psi

    def exponential(psi0: GridState) -> GridState:
        p0, x0 = first_moments(psi0)
        hbar = psi0.hbar
        # exp(i a u dx) exp(i a v dp) with the central commutator phase
        spec = fft(psi0.psi)
        k = psi0.axes[0].wavenumbers
        spec *= np.exp(1j * alpha * v * hbar * k)  # shift by alpha*v*hbar
        arr = ifft(spec)
        arr = arr * np.exp(-1j * alpha * v * p0)
        arr = arr * np.exp(1j * alpha * u * (psi0.axes[0].points - x0))
        arr = arr * np.exp(1j * (alpha * w0 + 0.5 * hbar * alpha ** 2 * u * v))
        return psi0.with_psi(arr)

    return _conjugate(model, exponential, Psi, s, opts)


def ladder_operators(model: QuadraticModel, kappa_tilde: float,
                     center: tuple[float, float] | None = None
                     ) -> tuple[IntertwinedOperator, IntertwinedOperator]:
    """Lowering/raising pair (dp -+ i m Omega dx)/sqrt(2 hbar m Omega) about
    a phase-space center; without one, each operator centers on the first
    moments of the state it acts on."""
    params = example_params(model, Example1DParams)
    m = params.m
    Om = params.Omega(kappa_tilde)
    norm = 1.0 / math.sqrt(2.0 * model.hbar * m * Om)
    lower = IntertwinedOperator(((norm, "p"), (-1j * m * Om * norm, "x")),
                                center=center)
    raise_ = IntertwinedOperator(((norm, "p"), (1j * m * Om * norm, "x")),
                                 center=center)
    return lower, raise_


def ladder_apply(model: QuadraticModel, sign: int, Psi: GridState,
                 s: float = 0.0,
                 opts: EvolveOptions | None = None) -> GridState:
    """Apply the raising (+1) or lowering (-1) solution map; on the n-th
    basis solution this yields sqrt(n+1) or sqrt(n) times its neighbor."""
    if sign not in (1, -1):
        raise ValueError(f"ladder sign = {sign!r} is neither +1 (raise) nor "
                         "-1 (lower)")
    opts = opts or EvolveOptions()
    lower, raise_ = ladder_operators(model, _family(model, opts.kappa_tilde))
    return apply_symmetry(model, raise_ if sign > 0 else lower, Psi, s, opts)


@dataclass(frozen=True)
class FockSolution:
    """Closed-form n-th basis solution riding the steady forced orbit."""

    model: QuadraticModel
    n_index: int
    kappa_tilde: float

    @property
    def params(self) -> Example1DParams:
        return example_params(self.model, Example1DParams)

    def initial_constants(self) -> MomentPoint:
        p = self.params
        kt = self.kappa_tilde
        Om = p.Omega(kt)
        hbar = self.model.hbar
        x0 = p.steady_center(kt)
        sig = hbar * (2 * self.n_index + 1) / (2.0 * p.m * Om)
        Delta = np.array([[(p.m * Om) ** 2 * sig, 0.0], [0.0, sig]])
        return MomentPoint(np.array([0.0, x0]), Delta)

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        p = self.params
        kt = self.kappa_tilde
        hbar = self.model.hbar
        Om = p.Omega(kt)
        nq = self.n_index
        traj = integrate_moments(self.model, kt, self.initial_constants(),
                                 0.0, t)
        S = traj.action(t)
        P = traj.momentum(t)[0]
        X = traj.position(t)[0]
        dx = np.asarray(x, dtype=float) - X
        xi = np.sqrt(p.m * Om / hbar) * dx
        log_norm = -0.5 * (nq * math.log(2.0) + float(gammaln(nq + 1)))
        herm = eval_hermite(nq, xi) * np.exp(log_norm)
        gauss = (p.m * Om / (math.pi * hbar)) ** 0.25 \
            * np.exp(1j * (S + P * dx) / hbar - p.m * Om * dx ** 2 / (2 * hbar))
        phase = (1j) ** nq * np.exp(-1j * (nq + 0.5) * Om * t)
        return phase * herm * gauss


def fock_state(model: QuadraticModel, n: int, t: float,
               axis: Axis | None = None,
               kappa_tilde: float | None = None) -> GridState:
    """Sample the n-th closed-form solution on a grid at time t.

    The family coupling defaults to model.kappa, i.e. unit-norm members.
    """
    _quantum_number(n)
    kt = _family(model, kappa_tilde)
    sol = FockSolution(model, n, kt)
    if axis is None:
        p = sol.params
        x0 = p.steady_center(kt)
        axis = Axis(x0 - 12.0, x0 + 12.0, 2048)
    psi = sol.evaluate(axis.points, t)
    return GridState((axis,), psi.astype(np.complex128), t, model.hbar)


def quasi_energy(model: QuadraticModel, n: int,
                 kappa_tilde: float | None = None) -> float:
    """Phase rate of the n-th solution over one drive period."""
    _quantum_number(n)
    p = example_params(model, Example1DParams)
    kt = _family(model, kappa_tilde)
    hbar = model.hbar
    Om = p.Omega(kt)
    Oms_t = p.OmegaTilde_sq(kt)
    denom = Oms_t - p.omega ** 2
    if abs(denom) < 1e-12:
        raise ResonanceError("quasi-energies are undefined at resonance")
    eE = p.e * p.E
    term1 = -eE ** 2 / (2.0 * p.m * denom)
    shift = p.omega ** 2 - p.omega0_sq - kt * (p.a + 2 * p.b + p.c) / p.m
    term2 = -eE ** 2 * shift / (4.0 * p.m * denom ** 2)
    term3 = hbar * (Om + kt * p.c / (2.0 * p.m * Om)) * (n + 0.5)
    return term1 + term2 + term3
