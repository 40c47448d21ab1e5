import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from nudgelab.eos import EquationOfState, default_convexity_constant

densities = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_pressure_examples():
    assert EquationOfState(2.0, 1.0).pressure(0.0) == 0.0
    assert EquationOfState(2.0, 1.0).pressure(3.0) == 9.0
    assert EquationOfState(1.4, 1.0).pressure(1.0) == 1.0


def test_pressure_monotone():
    eos = EquationOfState(1.4, 1.0)
    rho = np.linspace(0.0, 10.0, 500)
    assert np.all(np.diff(eos.pressure(rho)) > 0.0)


def test_pressure_domain_errors():
    eos = EquationOfState(1.4, 1.0)
    with pytest.raises(ValueError):
        eos.pressure(-1.0)
    with pytest.raises(ValueError):
        eos.pressure(np.nan)
    with pytest.raises(ValueError):
        eos.pressure(np.inf)
    with pytest.raises(ValueError, match="must be finite"):
        eos.pressure([1.0, -np.inf])


def test_potential_closed_form_against_quadrature():
    # P solves P' * rho - P = p with P(0) = 0, equivalently
    # P(rho) = rho * integral of p(s)/s^2 from 0 to rho
    for gamma, kappa, rho in [(2.0, 1.0, 1.0), (2.0, 1.0, 3.0), (1.4, 0.7, 2.5)]:
        eos = EquationOfState(gamma, kappa)
        val, err = quad(lambda s: eos.pressure(s) / s**2, 0.0, rho)
        assert abs(rho * val - eos.pressure_potential(rho)) <= 1e-9 * max(1.0, abs(val))
    assert EquationOfState(2.0, 1.0).pressure_potential(0.0) == 0.0
    assert EquationOfState(2.0, 1.0).pressure_potential(1.0) == 1.0
    assert EquationOfState(2.0, 1.0).pressure_potential(3.0) == 9.0


@pytest.mark.parametrize("gamma,kappa", [(1.4, 1.0), (2.0, 1.0), (5.0 / 3.0, 0.5)])
def test_potential_identity_finite_difference(gamma, kappa):
    # P' rho - P = p checked with high-precision central differences of the
    # closed form, on a log grid spanning near-vacuum to dense states
    mpmath.mp.dps = 50
    g, k = mpmath.mpf(gamma), mpmath.mpf(kappa)

    def potential(r):
        return k * r**g / (g - 1)

    eos = EquationOfState(gamma, kappa)
    for rho in np.geomspace(1e-6, 1e3, 200):
        r = mpmath.mpf(float(rho))
        h = r * mpmath.mpf("1e-20")
        dP = (potential(r + h) - potential(r - h)) / (2 * h)
        resid = abs(dP * r - potential(r) - k * r**g)
        p_val = float(k * r**g)
        assert float(resid) <= 1e-12 * max(1.0, p_val)
        # double-precision implementation agrees with the exact form
        assert abs(eos.pressure_potential(float(rho)) - float(potential(r))) <= 4e-15 * max(
            1.0, float(potential(r))
        )


def test_bregman_examples():
    eos = EquationOfState(2.0, 1.0)
    assert eos.potential_bregman(1.0, 1.0) == 0.0
    assert eos.potential_bregman(2.0, 1.0) == 1.0
    # at vacuum argument the divergence equals the reference pressure
    assert eos.potential_bregman(0.0, 1.0) == 1.0
    assert eos.potential_bregman(0.0, 1.0) == eos.pressure(1.0)


def test_bregman_reference_must_be_positive():
    eos = EquationOfState(1.4, 1.0)
    with pytest.raises(ValueError):
        eos.potential_bregman(1.0, 0.0)
    with pytest.raises(ValueError):
        eos.potential_bregman(1.0, -2.0)


@given(rho=st.floats(min_value=0.0, max_value=1e3), rtilde=densities)
def test_bregman_nonnegative(rho, rtilde):
    eos = EquationOfState(1.4, 1.0)
    assert eos.potential_bregman(rho, rtilde) >= 0.0


def test_bregman_zero_iff_equal():
    eos = EquationOfState(1.4, 1.0)
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.1, 10.0, 10_000)
    rtilde = rho * (1.0 + rng.choice([-1.0, 1.0], rho.size) * rng.uniform(1e-6, 1.0, rho.size))
    vals = eos.potential_bregman(rho, rtilde)
    assert np.all(vals > 0.0)
    assert np.all(np.abs(eos.potential_bregman(rho, rho)) <= 1e-12)


def test_fenchel_young_examples():
    eos = EquationOfState(2.0, 1.0)
    assert eos.fenchel_young_gap(1.0, 1.0) == 0.0
    assert eos.fenchel_young_gap(1.0, 4.0) == 9.0
    with pytest.raises(ValueError):
        eos.fenchel_young_gap(0.0, 1.0)


def test_fenchel_young_nonnegative_bulk():
    eos = EquationOfState(1.4, 1.0)
    rng = np.random.default_rng(2)
    rho = rng.uniform(1e-3, 1e3, 10_000)
    s = rng.uniform(0.0, 1e3, 10_000)
    assert np.min(eos.fenchel_young_gap(rho, s)) >= -1e-12


@given(rho=densities, s=st.floats(min_value=0.0, max_value=1e3))
def test_fenchel_young_nonnegative(rho, s):
    eos = EquationOfState(1.4, 1.0)
    assert eos.fenchel_young_gap(rho, s) >= -1e-12 * max(1.0, rho, s) ** 2


@pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
def test_midpoint_convexity(gamma):
    eos = EquationOfState(gamma, 1.0)
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 50.0, 10_000)
    b = rng.uniform(0.0, 50.0, 10_000)
    mid = 0.5 * (a + b)
    for fn in (eos.pressure, eos.pressure_potential):
        assert np.all(fn(mid) <= 0.5 * (fn(a) + fn(b)) + 1e-9)
    shifted = lambda r: eos.pressure_potential(r) - eos.a * eos.pressure(r)
    assert np.all(shifted(mid) <= 0.5 * (shifted(a) + shifted(b)) + 1e-9)


def test_constructor_invariants():
    with pytest.raises(ValueError):
        EquationOfState(1.0, 1.0)
    with pytest.raises(ValueError):
        EquationOfState(1.4, 0.0)


def test_default_convexity_constant():
    assert default_convexity_constant(1.4) == 0.4
    assert default_convexity_constant(2.0) == 0.4
    assert default_convexity_constant(3.0) == 0.25
    eos = EquationOfState(3.0, 1.0)
    assert eos.a == 0.25


def test_sound_speed():
    eos = EquationOfState(2.0, 1.0)
    assert eos.sound_speed(2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        eos.sound_speed(0.0)
    empty = eos.sound_speed(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
