import numpy as np
import pytest

import gpexact as gx
from gpexact.errors import ModelError, ResonanceError

from conftest import KAPPA


def test_example_1d_matrices(model_1d, params_1d):
    p = params_1d
    assert np.array_equal(model_1d.Hzz(0.3), [[1.0 / p.m, 0.0], [0.0, p.k]])
    for t in (0.0, 0.7, 2.1):
        expect = np.array([0.0, -p.e * p.E * np.cos(p.omega * t)])
        assert np.allclose(model_1d.Hz(t), expect, atol=0, rtol=1e-15)
    assert np.array_equal(model_1d.Wzz, [[0.0, 0.0], [0.0, p.a]])
    assert np.array_equal(model_1d.Wzw, [[0.0, 0.0], [0.0, p.b]])
    assert np.array_equal(model_1d.Www, [[0.0, 0.0], [0.0, p.c]])


def test_zero_potentials_give_free_model():
    model = gx.free_model(n=1, mass=2.0)
    assert np.array_equal(model.Hzz(0.0), [[0.5, 0.0], [0.0, 0.0]])
    assert np.array_equal(model.Hz(1.0), [0.0, 0.0])
    assert not model.Wzz.any() and not model.Www.any()


def test_example_3d_matrices():
    p = gx.Example3DParams(H_field=0.4, V0=0.3, gamma=1.5)
    model = gx.model_3d(p, kappa=0.5)
    hzz = model.Hzz(0.0)
    wh = p.omega_H
    assert hzz[0, 4] == wh / 2.0 and hzz[1, 3] == -wh / 2.0
    assert hzz[0, 3] == 0.0 and hzz[2, 5] == 0.0
    eta = p.V0 / p.gamma ** 2
    assert np.allclose(model.Wzz[3:, 3:], -eta * np.eye(3))
    assert np.allclose(model.Wzw[3:, 3:], eta * np.eye(3))
    assert np.allclose(model.Www[3:, 3:], -eta * np.eye(3))
    assert not model.Wzz[:3, :].any()


def test_effective_hessian_1d_example(model_1d, params_1d):
    h = gx.effective_hessian(model_1d, KAPPA, 0.0)
    assert h[1, 1] == pytest.approx(1.1, abs=1e-15)
    assert params_1d.Omega_sq(KAPPA) == pytest.approx(1.1, abs=1e-15)
    # zero coupling falls back to the bare Hessian
    h0 = gx.effective_hessian(model_1d, 0.0, 0.0)
    assert np.array_equal(h0, model_1d.Hzz(0.0))


def test_effective_hessian_position_entry_property(params_1d):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0)
        kt = rng.uniform(-0.5, 2.0)
        p = gx.Example1DParams(a=a)
        model = gx.model_1d(p, kappa=1.0)
        h = gx.effective_hessian(model, kt, 0.0)
        assert h[1, 1] == pytest.approx(p.m * (p.omega0_sq + kt * a / p.m),
                                        rel=1e-14)
        assert np.array_equal(h, h.T)


def test_effective_hessian_3d_frequencies():
    p = gx.Example3DParams(H_field=0.4, V0=0.3, gamma=1.5)
    kt = 0.5
    model = gx.model_3d(p, kappa=1.0)
    h = gx.effective_hessian(model, kt, 0.0)
    w1s, w2s = p.omega1_sq(kt), p.omega2_sq(kt)
    assert np.allclose(np.diag(h[3:, 3:]), p.m * np.array([w1s, w1s, w2s]),
                       rtol=1e-14)


def test_model_spec_roundtrip_bitwise():
    spec = {"example": "1d", "hbar": 1.0, "kappa": 0.5, "m": 1.0, "k": 1.0,
            "e": 1.0, "E": 0.1, "omega": 0.5, "a": 0.2, "b": 0.1, "c": 0.3}
    m1 = gx.build_model(spec)
    m2 = gx.build_model(gx.model_to_spec(m1))
    for t in (0.0, 0.9):
        assert np.array_equal(m1.Hzz(t), m2.Hzz(t))
        assert np.array_equal(m1.Hz(t), m2.Hz(t))
    assert np.array_equal(m1.Wzz, m2.Wzz)
    assert np.array_equal(m1.Wzw, m2.Wzw)
    assert np.array_equal(m1.Www, m2.Www)


def test_custom_spec_roundtrip_bitwise():
    spec = {"example": "custom", "n": 1, "hbar": 0.7, "m": 1.3, "kappa": -0.2,
            "Hzz": [1 / 1.3, 0.0, 0.0, 2.0], "Hz": [0.0, 0.3],
            "Wzz": [0.0, 0.0, 0.0, 0.25]}
    m1 = gx.build_model(spec)
    m2 = gx.build_model(gx.model_to_spec(m1))
    assert np.array_equal(m1.Hzz(0.0), m2.Hzz(0.0))
    assert np.array_equal(m1.Wzz, m2.Wzz)


DRIVEN_SPEC = {"example": "custom", "n": 1, "hbar": 1.0, "m": 1.0,
               "kappa": 0.5, "Hzz": [1.0, 0.0, 0.0, 1.0],
               "Wzz": [0.0, 0.0, 0.0, 0.2], "Wzw": [0.0, 0.0, 0.0, 0.1],
               "Www": [0.0, 0.0, 0.0, 0.3],
               "drive": [[0.5, [0.0, -0.1], [0.0, 0.0]]]}


def test_custom_drive_matches_the_example_model(model_1d):
    """The README's 1D model written as a custom JSON model with a drive."""
    custom = gx.build_model(DRIVEN_SPEC)
    for t in (0.0, 0.9, 3.7):
        assert np.array_equal(custom.Hz(t), model_1d.Hz(t))
        assert np.array_equal(custom.Hzz(t), model_1d.Hzz(t))


def test_driven_custom_model_roundtrips_bitwise():
    drive = [(0.7, [0.0, 0.0, 0.1, -0.2], [0.3, 0.0, 0.0, 0.05]),
             (1.9, [0.0, 0.4, 0.0, 0.0], [0.0, 0.0, -0.15, 0.0])]
    m1 = gx.make_model(2, 1.0, 1.0, 0.3, np.diag([1.0, 1.0, 2.0, 0.5]),
                       [0.1, 0.0, 0.2, 0.0], Wzz=np.diag([0, 0, 0.2, 0.2]),
                       drive=drive)
    spec = gx.model_to_spec(m1)
    assert spec["drive"] == [[w, list(c), list(s)] for w, c, s in drive]
    m2 = gx.build_model(spec)
    for t in (0.0, 0.4, 2.3):
        assert np.array_equal(m1.Hz(t), m2.Hz(t))
        assert np.array_equal(m1.Hzz(t), m2.Hzz(t))
    assert np.array_equal(m1.Wzz, m2.Wzz)
    assert gx.model_to_spec(m2) == spec


@pytest.mark.parametrize("drive", [
    0.5,                                      # not a list
    [[0.5, [0.0, 1.0]]],                      # two entries, not three
    [0.5, [0.0, 1.0], [0.0, 0.0]],            # one term, not a list of them
    [[0.5, [0.0, 1.0, 2.0], [0.0, 0.0]]],     # wrong length of cos_vec
    [[0.5, ["a", "b"], [0.0, 0.0]]],          # non-numeric sin/cos entries
    [[0.5, {"x": 1}, [0.0, 0.0]]],            # not an array at all
    [["fast", [0.0, 1.0], [0.0, 0.0]]],       # non-numeric frequency
    [[float("nan"), [0.0, 1.0], [0.0, 0.0]]],  # non-finite frequency
    [[0.5, [0.0, float("inf")], [0.0, 0.0]]],  # non-finite amplitude
])
def test_malformed_custom_drive_rejected(drive):
    with pytest.raises(ModelError):
        gx.build_model(dict(DRIVEN_SPEC, drive=drive))


def test_rejects_bad_models():
    with pytest.raises(ModelError):
        gx.make_model(4, 1.0, 1.0, 0.0, np.eye(8), np.zeros(8))
    with pytest.raises(ModelError):  # asymmetric Hzz
        gx.make_model(1, 1.0, 1.0, 0.0, [[1.0, 0.5], [0.0, 1.0]], np.zeros(2))
    with pytest.raises(ModelError):  # singular momentum block
        gx.make_model(1, 1.0, 1.0, 0.0, [[0.0, 0.0], [0.0, 1.0]], np.zeros(2))
    with pytest.raises(ModelError):  # wrong W shape
        gx.make_model(1, 1.0, 1.0, 0.0, [[1.0, 0.0], [0.0, 1.0]], np.zeros(2),
                      Wzz=np.eye(4))


def test_symmetrization_within_tolerance():
    hzz = np.array([[1.0, 1e-14], [0.0, 1.0]])
    model = gx.make_model(1, 1.0, 1.0, 0.0, hzz, np.zeros(2))
    out = model.Hzz(0.0)
    assert np.array_equal(out, out.T)


def test_derived_parameters(params_1d):
    assert params_1d.OmegaTilde_sq(KAPPA) == pytest.approx(1.15, abs=1e-15)
    assert params_1d.steady_center(KAPPA) == pytest.approx(1.0 / 9.0, rel=1e-14)
    p3 = gx.Example3DParams(e=2.0, H_field=0.3, m=0.5, c_light=2.0)
    assert p3.omega_H == pytest.approx(2.0 * 0.3 / (0.5 * 2.0), rel=1e-15)


def test_resonance_and_negative_frequency_rejected():
    p = gx.Example1DParams(k=0.25, a=0.0, b=0.0, omega=0.5)
    with pytest.raises(ResonanceError):
        p.steady_center(0.7)  # OmegaTilde == omega exactly
    p2 = gx.Example1DParams(a=-3.0)
    with pytest.raises(ModelError):
        p2.Omega(1.0)  # focusing coupling drives Omega^2 below zero


def test_model_immutability(model_1d):
    with pytest.raises(ValueError):
        model_1d.Wzz[0, 0] = 1.0


def test_constant_matrices_validated_once_and_frozen():
    hzz = np.array([[1.0, 1e-14], [0.0, 2.0]])
    model = gx.make_model(1, 1.0, 1.0, 0.0, hzz, [0.0, 0.3])
    assert model.Hzz(0.0) is model.Hzz(1.7)
    assert model.Hz(0.0) is model.Hz(1.7)
    assert not model.Hzz(0.5).flags.writeable
    assert not model.Hz(0.5).flags.writeable
    assert np.array_equal(model.Hzz(0.5), model.Hzz(0.5).T)


def test_callable_matrices_checked_per_call():
    def hzz(t):
        return np.array([[1.0, 0.0], [0.0, 1.0 if t < 1.0 else np.nan]])

    model = gx.make_model(1, 1.0, 1.0, 0.0, hzz, np.zeros(2))
    assert model.Hzz(0.5)[1, 1] == 1.0
    with pytest.raises(ModelError):
        model.Hzz(1.5)


@pytest.mark.parametrize("key", ["kappa", "hbar", "m", "k", "a", "E"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameters_rejected(key, bad):
    spec = {"example": "1d", "hbar": 1.0, "kappa": 0.5, key: bad}
    with pytest.raises(ModelError):
        gx.build_model(spec)


@pytest.mark.parametrize("spec, message", [
    ({"example": "1d", "omgea": 0.3}, "'omgea'"),
    ({"example": "3d", "a": 0.2}, "'a'"),
    ({"example": "custom", "n": 1, "Hzz": [1.0, 0.0, 0.0, 1.0],
      "Wzx": [0.0, 0.0, 0.0, 0.2]}, "'Wzx'"),
    ({"example": [1.0, "x"]}, "unknown example kind"),
    ({"example": {"a": 1}}, "unknown example kind"),
], ids=["misspelled-1d", "1d-field-on-3d", "misspelled-custom",
        "list-kind", "object-kind"])
def test_unknown_spec_field_rejected(spec, message):
    """A field the example kind does not read is named, not ignored."""
    with pytest.raises(ModelError, match=message):
        gx.build_model(spec)


@pytest.mark.parametrize("field", ["Hzz", "Hz", "Wzz", "Wzw", "Www"])
def test_non_finite_custom_matrices_rejected(field):
    args = {"Hzz": np.eye(2), "Hz": np.zeros(2), "Wzz": np.zeros((2, 2)),
            "Wzw": np.zeros((2, 2)), "Www": np.zeros((2, 2))}
    args[field] = np.array(args[field])
    args[field].flat[-1] = np.inf
    with pytest.raises(ModelError):
        gx.make_model(1, 1.0, 1.0, 0.0, **args)


def test_model_to_spec_rejects_time_dependent_model(model_1d):
    with pytest.raises(ModelError):
        gx.model_to_spec(model_1d)
    constant = gx.harmonic_model(omega=1.3, kappa=0.2)
    again = gx.build_model(gx.model_to_spec(constant))
    assert np.array_equal(again.Hzz(0.4), constant.Hzz(0.4))
    assert again.kappa == constant.kappa


def test_callable_momentum_block_checked_per_call():
    def hzz(t):
        return np.diag([1.0 - t, 1.0])

    model = gx.make_model(1, 1.0, 1.0, 0.0, hzz, np.zeros(2))
    assert model.Hzz(0.5)[0, 0] == 0.5
    with pytest.raises(ModelError, match="singular"):
        model.Hzz(1.0)


def test_drive_terms_are_data():
    """The built-in setups carry their sinusoidal drive as data; the sum
    it stands for is what Hz(t) returns."""
    p = gx.Example3DParams(E_field=0.2, omega=0.7)
    model = gx.model_3d(p, kappa=0.5)
    h0, terms = model.drive
    assert not h0.any() and len(terms) == 1
    for t in (0.0, 0.4, 2.3):
        expect = [0.0, 0.0, 0.0, -0.2 * np.cos(0.7 * t),
                  -0.2 * np.sin(0.7 * t), 0.0]
        assert np.allclose(model.Hz(t), expect, atol=0, rtol=1e-15)
    assert gx.harmonic_model().drive[1] == ()
    closure = gx.make_model(1, 1.0, 1.0, 0.0, np.eye(2), lambda t: np.zeros(2))
    assert closure.drive is None
    with pytest.raises(ModelError):
        gx.make_model(1, 1.0, 1.0, 0.0, np.eye(2), lambda t: np.zeros(2),
                      drive=[(1.0, [0.0, 1.0], [0.0, 0.0])])
    for bad in ([(np.nan, [0.0, 1.0], [0.0, 0.0])], [(1.0, [0.0, 1.0])],
                [(1.0, [0.0, 1.0, 2.0], [0.0, 0.0])]):
        with pytest.raises(ModelError):
            gx.make_model(1, 1.0, 1.0, 0.0, np.eye(2), np.zeros(2),
                          drive=bad)
