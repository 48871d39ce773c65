"""Uniform Cartesian grids, sampled wave functions, and state I/O.

Axes are endpoint-exclusive: an axis (lo, hi, num) samples lo + j*(hi-lo)/num
for j = 0..num-1, the natural convention for FFT-based spectral operators.
An axis computes its points and wavenumbers once and hands out that one
read-only array.  States are expected to decay well inside the box;
:func:`check_resolved`, the one resolution gate, holds every input and
every propagated state to TAIL_TOL and SPECTRAL_TOL.  Its private form
:func:`_resolved` is the one entry of every reader of a state (the moment
functions, ``evolve`` through its moment record, the oracle's input and
output, the effective Hamiltonian): given the reader's model it checks the
state's hbar first, then runs the gate and returns |psi|^2 and, in 1D, the
spectrum it computed, so the reader uses them instead of forming them
again.  A transform over every axis of a 1D array goes through the one-axis
routine (:func:`_fftn`, :func:`_ifftn`): bitwise the same, without scipy's
n-D dispatch; and :func:`_unit` forms exp(i phase) of a real phase as its
cos and sin, bitwise the complex exp, for the kernel's and the oracle's
phase factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.fft import fft, fftfreq, fftn, ifft, ifftn

from .errors import ResolutionError
from .model import check_hbar

TAIL_TOL = 1e-16  # mass fraction: 1e-8 in L2 amplitude, the round-trip unit
SPECTRAL_TOL = 1e-10
SUPPORT_CUT = 1e-12


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    num: int

    def __post_init__(self):
        if not isinstance(self.num, (int, np.integer)):
            raise ValueError(f"axis num = {self.num!r} is not an integer")
        if self.num < 8 or self.num % 2:
            raise ValueError("axis needs an even number of points, at least 8")
        if not self.hi > self.lo:
            raise ValueError("axis upper bound must exceed lower bound")

    @property
    def delta(self) -> float:
        return (self.hi - self.lo) / self.num

    @cached_property
    def points(self) -> np.ndarray:
        """The sample points, computed once per axis; read-only."""
        return _read_only(self.lo + self.delta * np.arange(self.num))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """The FFT wavenumbers, computed once per axis; read-only."""
        return _read_only(2.0 * np.pi * fftfreq(self.num, d=self.delta))

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __getstate__(self) -> dict:
        """The fields alone: a pickled or copied axis computes read-only
        tables of its own, where copies of the cached ones would be
        writable."""
        return {"lo": self.lo, "hi": self.hi, "num": self.num}


@dataclass(frozen=True, eq=False)
class GridState:
    """Complex wave function sampled on a uniform Cartesian grid."""

    axes: tuple[Axis, ...]
    psi: np.ndarray
    t: float
    hbar: float = 1.0

    def __post_init__(self):
        shape = tuple(ax.num for ax in self.axes)
        if self.psi.shape != shape:
            raise ValueError(f"psi shape {self.psi.shape} does not match grid {shape}")
        if self.psi.dtype != np.complex128:
            object.__setattr__(self, "psi", self.psi.astype(np.complex128))
        if not np.all(np.isfinite(self.psi.view(np.float64))):
            raise ValueError("psi contains non-finite amplitudes")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar = {self.hbar} must be finite and positive")
        if not math.isfinite(self.t):
            raise ValueError(f"t = {self.t} is not a finite time")
        self.psi.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def weight(self) -> float:
        """Quadrature weight of one grid cell (trapezoid on a periodic box)."""
        w = 1.0
        for ax in self.axes:
            w *= ax.delta
        return w

    def grids(self, sparse: bool = True) -> list[np.ndarray]:
        return list(np.meshgrid(*(ax.points for ax in self.axes),
                                indexing="ij", sparse=sparse))

    def with_psi(self, psi: np.ndarray, t: float | None = None) -> "GridState":
        return GridState(self.axes, psi, self.t if t is None else t, self.hbar)

    def at_time(self, t: float) -> "GridState":
        return replace(self, t=t)


def _fftn(x: np.ndarray, **kwargs) -> np.ndarray:
    """scipy's fftn, through fft for a 1D array: bitwise the same, without
    the n-D dispatch."""
    return (fft if x.ndim == 1 else fftn)(x, **kwargs)


def _ifftn(x: np.ndarray, **kwargs) -> np.ndarray:
    """scipy's ifftn, through ifft for a 1D array, as :func:`_fftn`."""
    return (ifft if x.ndim == 1 else ifftn)(x, **kwargs)


def _unit(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for a real phase, as cos and sin written into one
    complex array: bitwise np.exp(1j * phase), without the complex exp."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def momentum_apply(state: GridState, psi: np.ndarray, axis: int) -> np.ndarray:
    """Apply the momentum operator -i*hbar*d/dx_axis spectrally to ``psi``,
    any amplitude array on the state's grid (the state supplies only the
    grid and hbar): the package's one spectral derivative."""
    return _spectral_momentum(state, fft(psi, axis=axis), axis)


def _spectral_momentum(state: GridState, spec: np.ndarray,
                       axis: int) -> np.ndarray:
    """:func:`momentum_apply` from ``spec``, the transform of the amplitudes
    along ``axis``, which it overwrites."""
    shape = [1] * state.n
    shape[axis] = state.axes[axis].num
    spec *= (state.hbar * state.axes[axis].wavenumbers).reshape(shape)
    return ifft(spec, axis=axis)


def _boundary_tail(dens: np.ndarray) -> tuple[float, int, str]:
    """Largest per-hyperface mass fraction of the density ``dens`` sitting
    on the outermost grid plane, with the axis and the face ("lower" or
    "upper") that holds it."""
    total = float(dens.sum())
    worst = (0.0, 0, "lower")
    if total == 0.0:
        return worst
    for a in range(dens.ndim):
        for idx, face in ((0, "lower"), (-1, "upper")):
            frac = float(dens.take(idx, axis=a).sum()) / total
            if frac > worst[0]:
                worst = (frac, a, face)
    return worst


def _spectral_tail(axes: tuple[Axis, ...], spec: np.ndarray) -> float:
    """Spectral mass fraction beyond 3/4 of the Nyquist band (aliasing
    guard) of the amplitudes whose transform is ``spec``."""
    spec = np.abs(spec) ** 2
    total = float(spec.sum())
    if total == 0.0:
        return 0.0
    inner = np.ones(spec.shape, dtype=bool)
    for a, ax in enumerate(axes):
        k = np.abs(ax.wavenumbers)
        shape = [1] * len(axes)
        shape[a] = ax.num
        inner &= (k < 0.75 * k.max()).reshape(shape)
    return float(spec[~inner].sum()) / total


def check_resolved(state: GridState) -> None:
    """ResolutionError unless both tails lie below their tolerances."""
    _resolved(state)


def _resolved(state: GridState, model=None
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """The one entry of every reader: ``model``'s hbar check if given, then
    :func:`check_resolved`, returning what its tests computed for the
    reader to reuse: |psi|^2 and, in 1D only, the transform of psi, which
    is also the forward transform of :func:`momentum_apply` along axis 0.
    An n-D transform is dropped here, so it never lives on alongside the
    record's spectral images."""
    if model is not None:
        check_hbar(model, state.hbar)
    dens = np.abs(state.psi) ** 2
    tail, axis, face = _boundary_tail(dens)
    if tail >= TAIL_TOL:
        raise ResolutionError(
            f"boundary tail mass fraction {tail:.3e} on the {face} face of "
            f"axis {axis} exceeds {TAIL_TOL:.1e}")
    spec = _fftn(state.psi)
    alias = _spectral_tail(state.axes, spec)
    if alias >= SPECTRAL_TOL:
        raise ResolutionError(
            f"spectral tail fraction {alias:.3e} exceeds {SPECTRAL_TOL:.1e}")
    return dens, spec if state.n == 1 else None


def support_radius(state: GridState, center: np.ndarray) -> float:
    """Radius around ``center`` containing all samples above
    SUPPORT_CUT*max|psi|."""
    dens = np.abs(state.psi)
    mask = dens > SUPPORT_CUT * dens.max()
    r2 = sum((g - c) ** 2 for g, c in zip(state.grids(), center))
    return float(np.sqrt(r2[mask].max()))


def inner(bra: GridState, ket: GridState) -> complex:
    if bra.axes != ket.axes:
        raise ValueError("states live on different grids")
    return complex(bra.weight * np.vdot(bra.psi, ket.psi))


def l2_norm(state: GridState) -> float:
    return float(np.sqrt(state.weight * np.sum(np.abs(state.psi) ** 2)))


def l2_distance(s1: GridState, s2: GridState) -> float:
    if s1.axes != s2.axes:
        raise ValueError("states live on different grids")
    return float(np.sqrt(s1.weight * np.sum(np.abs(s1.psi - s2.psi) ** 2)))


def gaussian_packet(axes: tuple[Axis, ...], hbar: float,
                    x0, p0, alpha, t: float = 0.0) -> GridState:
    """Normalized Gaussian packet exp(-alpha_a dx_a^2/(2 hbar) + i p0.dx/hbar).

    ``alpha`` sets per-axis inverse width, finite and positive; alpha =
    m*Omega gives the ground state of an oscillator with that frequency.
    ``x0``, ``p0`` and a non-scalar ``alpha`` have one entry per axis.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    alpha = np.asarray(alpha, dtype=float)
    for name, v in (("x0", x0), ("p0", p0), ("alpha", alpha)):
        if v.ndim and v.shape != (len(axes),):  # a scalar alpha: every axis
            raise ValueError(f"{name} needs one entry per axis, not {v}")
    if not np.all(np.isfinite(alpha) & (alpha > 0.0)):
        raise ValueError(f"alpha = {alpha} must be finite and positive")
    alpha = np.broadcast_to(alpha, (len(axes),))
    pts = np.meshgrid(*(ax.points for ax in axes), indexing="ij", sparse=True)
    psi = np.ones(tuple(ax.num for ax in axes), dtype=np.complex128)
    for a in range(len(axes)):
        dx = pts[a] - x0[a]
        psi = psi * np.exp(-alpha[a] * dx ** 2 / (2.0 * hbar)
                           + 1j * p0[a] * dx / hbar)
        psi *= (alpha[a] / (np.pi * hbar)) ** 0.25
    return GridState(tuple(axes), psi, t, hbar)


def save_state(state: GridState, path) -> None:
    """Binary dump; round-trips bit-exactly through :func:`load_state`."""
    np.savez(path,
             psi=state.psi,
             t=np.float64(state.t),
             hbar=np.float64(state.hbar),
             lo=np.array([ax.lo for ax in state.axes], dtype=np.float64),
             hi=np.array([ax.hi for ax in state.axes], dtype=np.float64),
             num=np.array([ax.num for ax in state.axes], dtype=np.int64))


def load_state(path) -> GridState:
    with np.load(path) as data:
        axes = tuple(Axis(float(lo), float(hi), int(num))
                     for lo, hi, num in zip(data["lo"], data["hi"], data["num"]))
        return GridState(axes, data["psi"], float(data["t"]), float(data["hbar"]))


def write_csv(path, header: list[str], rows) -> None:
    """The package's one CSV format: a header, %.16e values, LF line ends;
    every row has one value per header column, else ValueError before the
    file is opened.  The body is formatted by one % operation."""
    width = len(header)
    rows = list(map(tuple, rows))
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ValueError(f"CSV row {i} has {len(rows[i])} values for "
                         f"{width} columns")
    line = ",".join(["%.16e"] * width) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * len(rows) % tuple(chain.from_iterable(rows)))


def dump_state_csv(state: GridState, path) -> None:
    """CSV dump: coordinate columns, then interleaved (Re, Im)."""
    coords = [p.ravel() for p in state.grids(sparse=False)]
    psi = state.psi.ravel()
    write_csv(path, [f"x{a}" for a in range(state.n)] + ["re", "im"],
              zip(*coords, psi.real, psi.imag))
