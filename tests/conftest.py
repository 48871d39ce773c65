import math

import numpy as np
import pytest
from hypothesis import strategies as st

import gpexact as gx

KAPPA = 0.5


@pytest.fixture(scope="session")
def params_1d():
    return gx.Example1DParams(m=1.0, k=1.0, e=1.0, E=0.1, omega=0.5,
                              a=0.2, b=0.1, c=0.3)


@pytest.fixture(scope="session")
def model_1d(params_1d):
    return gx.model_1d(params_1d, hbar=1.0, kappa=KAPPA)


@pytest.fixture(scope="session")
def axis_2048():
    return gx.Axis(-12.0, 12.0, 2048)


@pytest.fixture(scope="session")
def axis_1024():
    return gx.Axis(-12.0, 12.0, 1024)


@pytest.fixture(scope="session")
def displaced_gaussian(model_1d, params_1d, axis_2048):
    """Unit-norm packet displaced off the steady orbit; the standard probe."""
    om = params_1d.Omega(KAPPA)
    return gx.gaussian_packet((axis_2048,), 1.0, [1.0], [0.2],
                              [params_1d.m * om])


@pytest.fixture(scope="session")
def parametric_model():
    """A callable Hzz(t) = diag(1/m, m w(t)^2), m = 1.2, with the
    interaction blocks of the 1D setup: a model without ``drive`` data."""
    def hzz(t):
        return np.diag([1.0 / 1.2, 1.2 * (1.0 + 0.3 * math.sin(1.3 * t))])

    W = np.diag([0.0, 1.0])
    return gx.make_model(1, 1.0, 1.2, KAPPA, hzz, np.zeros(2), 0.2 * W,
                         0.1 * W, 0.3 * W)


def forced_oscillator_mean(params, kappa_tilde, p0, x0, t):
    """Independent closed form for the driven mean motion.

    x(t) = Xs cos(w t) + (x0 - Xs) cos(Wt t) + p0 sin(Wt t)/(m Wt),
    with Xs the steady amplitude and Wt the mean-motion frequency.
    """
    wt = np.sqrt(params.OmegaTilde_sq(kappa_tilde))
    xs = params.steady_center(kappa_tilde)
    w = params.omega
    x = xs * np.cos(w * t) + (x0 - xs) * np.cos(wt * t) \
        + p0 * np.sin(wt * t) / (params.m * wt)
    p = params.m * (-xs * w * np.sin(w * t) - (x0 - xs) * wt * np.sin(wt * t)
                    + p0 * np.cos(wt * t) / params.m)
    return p, x


@st.composite
def driven_models(draw):
    """A random model with positive-definite Hzz, kappa != 0, position-only
    interaction blocks and 0-2 drive terms over a constant h0, built once with
    the drive as data and once with the same drive as a closure Hz; an initial
    moment point, and a horizon T of either sign."""
    n = draw(st.sampled_from([1, 2]))
    d = 2 * n

    def matrix(rows, cols, lim):
        vals = draw(st.lists(st.floats(-lim, lim), min_size=rows * cols,
                             max_size=rows * cols))
        return np.array(vals).reshape(rows, cols)

    def vector(lim):
        return matrix(d, 1, lim).ravel()

    M = matrix(d, d, 0.6)
    hzz = M @ M.T + draw(st.floats(0.5, 1.5)) * np.eye(d)

    def position_block(symmetric):
        W = np.zeros((d, d))
        B = matrix(n, n, 0.2)
        W[n:, n:] = B + B.T if symmetric else B
        return W

    Wzz, Wzw, Www = (position_block(True), position_block(False),
                     position_block(True))
    kappa = draw(st.floats(0.2, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
    h0 = vector(0.3)
    terms = [(draw(st.floats(0.2, 2.0)), vector(0.3), vector(0.3))
             for _ in range(draw(st.integers(0, 2)))]

    def hz(t):
        return h0 + sum((c * np.cos(w * t) + s * np.sin(w * t)
                         for w, c, s in terms), np.zeros(d))

    data = gx.make_model(n, 1.0, 1.0, kappa, hzz, h0, Wzz, Wzw, Www,
                         drive=terms)
    closure = gx.make_model(n, 1.0, 1.0, kappa, hzz, hz, Wzz, Wzw, Www)
    L = matrix(d, d, 0.5)
    g0 = gx.MomentPoint(vector(1.0), L @ L.T + 0.3 * np.eye(d))
    T = draw(st.floats(1.0, 6.0)) * draw(st.sampled_from([1.0, -1.0]))
    return data, closure, g0, T


@st.composite
def signed_models(draw):
    """A model of :func:`driven_models` (drive as data) whose Hamiltonian
    keeps its sign, changes it as a whole, or (n = 2) splits into one
    forward and one backward decoupled axis, so its momentum block is
    positive, negative or indefinite while the flow stays bounded; with a
    horizon T of either sign."""
    model, _, _, T = draw(driven_models())
    n = model.n
    axis = np.arange(2 * n) % n
    mode = draw(st.sampled_from(["plus", "minus", "mixed"] if n == 2
                                else ["plus", "minus"]))
    if mode == "mixed":
        sign = np.where(axis == 0, 1.0, -1.0)
        scale = np.where(axis[:, None] == axis[None, :], sign[:, None], 0.0)
    else:
        sign = np.full(2 * n, 1.0 if mode == "plus" else -1.0)
        scale = np.outer(sign, np.ones(2 * n))
    h0, terms = model.drive
    flipped = gx.make_model(
        n, model.hbar, model.mass, model.kappa, scale * model.Hzz(0.0),
        sign * h0, scale * model.Wzz, scale * model.Wzw, scale * model.Www,
        drive=[(w, sign * c, sign * s) for w, c, s in terms])
    return flipped, T


@st.composite
def oracle_models(draw):
    """A 1D model like :func:`driven_models` that the split-step oracle
    takes: Hpp = I/m, no p-x block, and a drive on the position only; with
    a horizon T of either sign."""
    mass = draw(st.floats(0.5, 2.0))
    hzz = np.diag([1.0 / mass, draw(st.floats(0.5, 2.0))])

    def position_block():
        W = np.zeros((2, 2))
        W[1, 1] = draw(st.floats(-0.4, 0.4))
        return W

    def position_vector():
        return np.array([0.0, draw(st.floats(-0.3, 0.3))])

    Wzz, Wzw, Www = position_block(), position_block(), position_block()
    kappa = draw(st.floats(0.2, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
    terms = [(draw(st.floats(0.2, 2.0)), position_vector(), position_vector())
             for _ in range(draw(st.integers(0, 2)))]
    model = gx.make_model(1, 1.0, mass, kappa, hzz, position_vector(),
                          Wzz, Wzw, Www, drive=terms)
    T = draw(st.floats(0.3, 0.8)) * draw(st.sampled_from([1.0, -1.0]))
    return model, T
