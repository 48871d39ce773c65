"""Quadratic external/interaction models in momentum-first phase-space ordering.

Every 2n x 2n matrix in this package uses the ordering z = (p_1..p_n,
x_1..x_n), with symplectic unit J = [[0, -I], [I, 0]].  The external
Hamiltonian is (1/2) <z, Hzz(t) z> + <Hz(t), z>; the two-body potential is
(1/2) <z, Wzz z> + <z, Wzw w> + (1/2) <w, Www w>, integrated against the
density of the second argument.  All interaction effects enter the dynamics
through the state-norm-scaled coupling kappa_tilde = kappa * |psi|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import ModelError, ResonanceError, _reject_unknown

SYMMETRY_TOL = 1e-12


def symplectic_unit(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _symmetrized(name: str, mat: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ModelError(f"{name} has non-finite entries")
    skew = np.max(np.abs(mat - mat.T))
    scale = max(1.0, np.max(np.abs(mat)))
    if skew > tol * scale:
        raise ModelError(f"{name} is asymmetric beyond tolerance ({skew:.3e})")
    return 0.5 * (mat + mat.T)


def _nonzero(params, *names: str) -> None:
    """The example parameters that divide must not be zero."""
    for name in names:
        if getattr(params, name) == 0.0:
            raise ModelError(f"example parameter {name!r} must be nonzero")


@dataclass(frozen=True)
class Example1DParams:
    """Driven anharmonic-free 1D setup: kinetic + k x^2/2 - e E x cos(wt),
    two-body potential (a x^2 + 2 b x y + c y^2)/2."""

    m: float = 1.0
    k: float = 1.0
    e: float = 1.0
    E: float = 0.1
    omega: float = 0.5
    a: float = 0.2
    b: float = 0.1
    c: float = 0.3

    def __post_init__(self):
        _nonzero(self, "m")

    @property
    def omega0_sq(self) -> float:
        return self.k / self.m

    def Omega_sq(self, kappa_tilde: float) -> float:
        return self.omega0_sq + kappa_tilde * self.a / self.m

    def Omega(self, kappa_tilde: float) -> float:
        val = self.Omega_sq(kappa_tilde)
        if val <= 0.0:
            raise ModelError(f"effective frequency squared {val:.3e} <= 0")
        return math.sqrt(val)

    def OmegaTilde_sq(self, kappa_tilde: float) -> float:
        return self.omega0_sq + kappa_tilde * (self.a + self.b) / self.m

    def steady_center(self, kappa_tilde: float) -> float:
        """Center of the periodic orbit the drive settles onto."""
        denom = self.OmegaTilde_sq(kappa_tilde) - self.omega ** 2
        if abs(denom) < 1e-12:
            raise ResonanceError("drive resonates with the mean-motion frequency")
        return self.e * self.E / (self.m * denom)


@dataclass(frozen=True)
class Example3DParams:
    """Isotropic trap + rotating electric drive + uniform magnetic field along
    x3, with a Gaussian-shaped two-body potential truncated at second order."""

    m: float = 1.0
    e: float = 1.0
    c_light: float = 1.0
    H_field: float = 0.2
    E_field: float = 0.1
    omega: float = 0.5
    k: float = 1.0
    V0: float = 0.3
    gamma: float = 1.5

    def __post_init__(self):
        _nonzero(self, "m", "c_light", "gamma")

    @property
    def omega_H(self) -> float:
        return self.e * self.H_field / (self.m * self.c_light)

    @property
    def omega0_sq(self) -> float:
        return self.k / self.m

    @property
    def eta(self) -> float:
        return self.V0 / self.gamma ** 2

    def omega1_sq(self, kappa_tilde: float) -> float:
        return self.omega0_sq + (self.omega_H / 2.0) ** 2 - kappa_tilde * self.eta / self.m

    def omega2_sq(self, kappa_tilde: float) -> float:
        return self.omega0_sq - kappa_tilde * self.eta / self.m

    def frequencies(self, kappa_tilde: float) -> tuple[float, float]:
        w1s, w2s = self.omega1_sq(kappa_tilde), self.omega2_sq(kappa_tilde)
        if w1s <= 0.0 or w2s <= 0.0:
            raise ModelError("effective trap frequencies must stay positive")
        return math.sqrt(w1s), math.sqrt(w2s)


@dataclass(frozen=True)
class QuadraticModel:
    n: int
    hbar: float
    mass: float
    kappa: float
    Hzz: Callable[[float], np.ndarray]
    Hz: Callable[[float], np.ndarray]
    Wzz: np.ndarray
    Wzw: np.ndarray
    Www: np.ndarray
    example: object = None
    spec: dict = field(default=None, repr=False)
    # (h0, ((omega, cos_vec, sin_vec), ...)) when Hzz and Hz are data, so
    # Hz(t) = h0 + sum(cos_vec cos(omega t) + sin_vec sin(omega t)); None
    # when either is a callable of time
    drive: tuple = field(default=None, repr=False)


def check_hbar(model: QuadraticModel, hbar: float) -> None:
    """ModelError unless a state's ``hbar`` is the model's: a propagation
    has one hbar, in its kernel, its moments and its output label."""
    if hbar != model.hbar:
        raise ModelError(f"the state's hbar = {hbar} differs from the "
                         f"model's hbar = {model.hbar}")


def example_params(model: QuadraticModel, kind: type,
                   what: str = "this operation"):
    """The parameters of the example that built ``model``, which must be a
    ``kind``; ``what`` names the operation that reads them."""
    if not isinstance(model.example, kind):
        raise ModelError(f"{what} needs a model built from {kind.__name__}")
    return model.example


def make_model(n: int, hbar: float, mass: float, kappa: float,
               Hzz, Hz, Wzz=None, Wzw=None, Www=None,
               example=None, drive=()) -> QuadraticModel:
    """Validate and assemble a model; matrix arguments may be constants or
    callables of time.

    ``drive`` is a sequence of (omega, cos_vec, sin_vec) terms added to a
    constant ``Hz``: Hz(t) = Hz + sum(cos_vec cos(omega t) + sin_vec
    sin(omega t)).  A model whose Hzz and Hz are data carries them in
    ``model.drive`` and its moments evolve in closed form.

    Constant matrices are checked once here and returned frozen on every
    call; callables are checked on every call, the momentum block of Hzz
    included.  A model without callables or an ``example`` records its own
    spec, drive terms included, so :func:`model_to_spec` can serialize it;
    :func:`build_model` records the spec it was given.
    """
    if n not in (1, 2, 3):
        raise ModelError("spatial dimension must be 1, 2 or 3")
    if not all(math.isfinite(v) for v in (hbar, mass, kappa)):
        raise ModelError("hbar, mass and kappa must be finite")
    if hbar <= 0 or mass <= 0:
        raise ModelError("hbar and mass must be positive")
    d = 2 * n

    zeros = np.zeros((d, d))
    Wzz = zeros if Wzz is None else np.asarray(Wzz, dtype=float)
    Wzw = zeros if Wzw is None else np.asarray(Wzw, dtype=float)
    Www = zeros if Www is None else np.asarray(Www, dtype=float)
    for name, mat in (("Wzz", Wzz), ("Wzw", Wzw), ("Www", Www)):
        if mat.shape != (d, d):
            raise ModelError(f"{name} must be {d}x{d}, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ModelError(f"{name} has non-finite entries")
    Wzz = _freeze(_symmetrized("Wzz", Wzz))
    Www = _freeze(_symmetrized("Www", Www))
    Wzw = _freeze(Wzw)

    def hzz(t: float) -> np.ndarray:
        mat = np.asarray(Hzz(t) if callable(Hzz) else Hzz, dtype=float)
        if mat.shape != (d, d):
            raise ModelError(f"Hzz must be {d}x{d}, got {mat.shape}")
        mat = _symmetrized("Hzz", mat)
        if abs(np.linalg.det(mat[:n, :n])) < 1e-12:
            raise ModelError(f"momentum-momentum block of Hzz is singular "
                             f"at t = {t:.6g}")
        return mat

    def vector(name: str, vec) -> np.ndarray:
        try:
            vec = np.asarray(vec, dtype=float)
        except (TypeError, ValueError) as err:
            raise ModelError(f"{name} must hold {d} numbers") from err
        if vec.shape != (d,) or not np.all(np.isfinite(vec)):
            raise ModelError(f"{name} must hold {d} finite entries, "
                             f"got {vec.shape}")
        return vec

    def hz(t: float) -> np.ndarray:
        return vector("Hz", Hz(t) if callable(Hz) else np.ravel(Hz))

    terms = []
    try:
        drive = list(drive)
    except TypeError as err:
        raise ModelError("drive must be a sequence of (omega, cos_vec, "
                         "sin_vec) terms") from err
    for term in drive:
        try:
            omega, cos_vec, sin_vec = term
            omega = float(omega)
        except (TypeError, ValueError) as err:
            raise ModelError("a drive term is (omega, cos_vec, sin_vec)") \
                from err
        if not math.isfinite(omega):
            raise ModelError("drive frequency must be finite")
        terms.append((omega, _freeze(vector("drive cos_vec", cos_vec)),
                      _freeze(vector("drive sin_vec", sin_vec))))
    if terms and callable(Hz):
        raise ModelError("drive terms need a constant Hz")

    if not callable(Hzz):
        const_hzz = _freeze(hzz(0.0))
        hzz = lambda t: const_hzz
    if not callable(Hz):
        const_hz = _freeze(hz(0.0))
        hz = lambda t: const_hz
    if terms:
        omegas = np.array([w for w, _, _ in terms])
        cos_mat = np.array([c for _, c, _ in terms]).T
        sin_mat = np.array([s for _, _, s in terms]).T

        def hz(t: float) -> np.ndarray:
            return const_hz + cos_mat @ np.cos(omegas * t) \
                + sin_mat @ np.sin(omegas * t)
    hzz(0.0)  # time-dependent matrices are checked at build time too
    hz(0.0)

    data = not callable(Hzz) and not callable(Hz)
    spec = None
    if data and example is None:
        spec = {
            "example": "custom", "n": n, "hbar": hbar, "m": mass,
            "kappa": kappa,
            "Hzz": const_hzz.reshape(d * d).tolist(),
            "Hz": const_hz.tolist(),
            "Wzz": Wzz.reshape(d * d).tolist(),
            "Wzw": Wzw.reshape(d * d).tolist(),
            "Www": Www.reshape(d * d).tolist(),
        }
        if terms:
            spec["drive"] = [[w, c.tolist(), s.tolist()] for w, c, s in terms]
    return QuadraticModel(n, hbar, mass, kappa, hzz, hz, Wzz, Wzw, Www,
                          example=example, spec=spec,
                          drive=(const_hz, tuple(terms)) if data else None)


def model_1d(params: Example1DParams, hbar: float = 1.0,
             kappa: float = 0.0) -> QuadraticModel:
    p = params
    Hzz = np.array([[1.0 / p.m, 0.0], [0.0, p.k]])
    Wzz = np.array([[0.0, 0.0], [0.0, p.a]])
    Wzw = np.array([[0.0, 0.0], [0.0, p.b]])
    Www = np.array([[0.0, 0.0], [0.0, p.c]])
    drive = [(p.omega, [0.0, -p.e * p.E], [0.0, 0.0])]
    return make_model(1, hbar, p.m, kappa, Hzz, np.zeros(2), Wzz, Wzw, Www,
                      example=p, drive=drive)


def model_3d(params: Example3DParams, hbar: float = 1.0,
             kappa: float = 0.0) -> QuadraticModel:
    p = params
    eye3 = np.eye(3)
    Hzz = np.zeros((6, 6))
    Hzz[:3, :3] = eye3 / p.m
    Hpx = np.zeros((3, 3))
    Hpx[0, 1] = p.omega_H / 2.0
    Hpx[1, 0] = -p.omega_H / 2.0
    Hzz[:3, 3:] = Hpx
    Hzz[3:, :3] = Hpx.T
    # bare trap: isotropic k plus the diamagnetic (omega_H/2)^2 term in-plane
    whalf = (p.omega_H / 2.0) ** 2
    Hzz[3:, 3:] = p.m * np.diag([p.omega0_sq + whalf, p.omega0_sq + whalf,
                                 p.omega0_sq])
    Wzz = np.zeros((6, 6))
    Wzz[3:, 3:] = -p.eta * eye3
    Wzw = np.zeros((6, 6))
    Wzw[3:, 3:] = p.eta * eye3
    Www = np.zeros((6, 6))
    Www[3:, 3:] = -p.eta * eye3
    # rotating electric field in the x1-x2 plane
    amp = -p.e * p.E_field
    drive = [(p.omega, [0.0, 0.0, 0.0, amp, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, amp, 0.0])]
    return make_model(3, hbar, p.m, kappa, Hzz, np.zeros(6), Wzz, Wzw, Www,
                      example=p, drive=drive)


def free_model(n: int = 1, hbar: float = 1.0, mass: float = 1.0) -> QuadraticModel:
    d = 2 * n
    Hzz = np.zeros((d, d))
    Hzz[:n, :n] = np.eye(n) / mass
    return make_model(n, hbar, mass, 0.0, Hzz, np.zeros(d))


def harmonic_model(omega: float = 1.0, n: int = 1, hbar: float = 1.0,
                   mass: float = 1.0, kappa: float = 0.0) -> QuadraticModel:
    d = 2 * n
    Hzz = np.zeros((d, d))
    Hzz[:n, :n] = np.eye(n) / mass
    Hzz[n:, n:] = mass * omega ** 2 * np.eye(n)
    return make_model(n, hbar, mass, kappa, Hzz, np.zeros(d))


def effective_hessian(model: QuadraticModel, kappa_tilde: float,
                      t: float) -> np.ndarray:
    """Hessian of the moment-linearized Hamiltonian, Hzz(t) + kt*Wzz."""
    out = model.Hzz(t) + kappa_tilde * model.Wzz
    return 0.5 * (out + out.T)


def mean_drift_hessian(model: QuadraticModel, kappa_tilde: float,
                       t: float) -> np.ndarray:
    """Matrix driving the first moments: Hzz(t) + kt*(Wzz + Wzw)."""
    return model.Hzz(t) + kappa_tilde * (model.Wzz + model.Wzw)


def _field(spec: dict, key: str, default=0.0, shape=()):
    """Numeric field of a model spec: a float, or an array of ``shape``."""
    try:
        val = np.array(spec.get(key, default), dtype=float).reshape(shape)
    except (TypeError, ValueError) as err:
        raise ModelError(f"model field {key!r} must hold {math.prod(shape)} "
                         "number(s)") from err
    if not np.all(np.isfinite(val)):
        raise ModelError(f"model field {key!r} must be finite")
    return float(val) if shape == () else val


def build_model(spec: dict) -> QuadraticModel:
    """Build a model from a JSON-style dict (see README for the schema);
    a malformed spec, or one with a field its example kind does not read,
    raises :class:`ModelError`."""
    if not isinstance(spec, dict):
        raise ModelError("model spec must be a JSON object")
    kind = spec.get("example", "custom")
    if not isinstance(kind, str) or kind not in ("1d", "3d", "custom"):
        raise ModelError(f"unknown example kind {kind!r}")
    params_type = {"1d": Example1DParams, "3d": Example3DParams}.get(kind)
    keys = ([f.name for f in fields(params_type)] if params_type else
            ["n", "m", "Hzz", "Hz", "Wzz", "Wzw", "Www", "drive"])
    _reject_unknown(spec, (*keys, "example", "hbar", "kappa"),
                   f"{kind!r} model", ModelError)
    hbar = _field(spec, "hbar", 1.0)
    kappa = _field(spec, "kappa")
    if params_type:
        params = params_type(**{k: _field(spec, k) for k in keys if k in spec})
        build = model_1d if kind == "1d" else model_3d
        model = build(params, hbar=hbar, kappa=kappa)
    else:
        if spec.get("n") not in (1, 2, 3):
            raise ModelError("custom model needs 'n', the spatial dimension "
                             "1, 2 or 3")
        n = int(spec["n"])
        d = 2 * n
        mats = {key: _field(spec, key, shape=(d, d)) if key in spec else None
                for key in ("Hzz", "Wzz", "Wzw", "Www")}
        model = make_model(n, hbar, _field(spec, "m", 1.0), kappa,
                           mats["Hzz"], _field(spec, "Hz", np.zeros(d), (d,)),
                           mats["Wzz"], mats["Wzw"], mats["Www"],
                           drive=spec.get("drive", ()))
    object.__setattr__(model, "spec", dict(spec))
    return model


def model_to_spec(model: QuadraticModel) -> dict:
    """Serialize a model back to the JSON schema; round-trips bitwise.

    Models with callable Hzz/Hz, and example models built outside
    :func:`build_model`, have no spec and raise :class:`ModelError`.
    """
    if model.spec is None:
        raise ModelError("model has no spec (callable Hzz/Hz, or an example "
                         "built outside build_model); it cannot be "
                         "serialized")
    return dict(model.spec)
