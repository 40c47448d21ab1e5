import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from nudgelab import harness
from nudgelab.eos import EquationOfState
from nudgelab.errors import VacuumError
from nudgelab.field import FluidState, Grid1D, Trajectory
from nudgelab.sampler import MeasurementSet, build_decomposition

densities = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_pressure_examples():
    assert EquationOfState(2.0, 1.0).pressure(0.0) == 0.0
    assert EquationOfState(2.0, 1.0).pressure(3.0) == 9.0
    assert EquationOfState(1.4, 1.0).pressure(1.0) == 1.0


def test_pressure_monotone():
    eos = EquationOfState(1.4, 1.0)
    rho = np.linspace(0.0, 10.0, 500)
    assert np.all(np.diff(eos.pressure(rho)) > 0.0)


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


@pytest.mark.parametrize("gamma", [1.2, 1.4, 2.0, 3.0])
@pytest.mark.parametrize("mismatch", [1e-3, 1e-5, 1e-8])
def test_bregman_at_small_mismatch_matches_mpmath(gamma, mismatch):
    # the subtraction form loses every digit here (and can go negative);
    # the reference evaluates that form at 50 digits on the same floats
    eos = EquationOfState(gamma, 1.7)
    rtilde = np.array([0.3, 0.7, 1.0, 1.9, 42.0])
    rho = np.concatenate((rtilde * (1.0 - mismatch), rtilde * (1.0 + mismatch)))
    rtilde = np.concatenate((rtilde, rtilde))
    with mpmath.workdps(50):
        g, k = mpmath.mpf(gamma), mpmath.mpf(eos.kappa)

        def bregman(r, rt):
            r, rt = mpmath.mpf(float(r)), mpmath.mpf(float(rt))
            return k / (g - 1) * (r**g - g * rt ** (g - 1) * (r - rt) - rt**g)

        ref = np.array([float(bregman(r, rt)) for r, rt in zip(rho, rtilde)])
    for got in (eos.potential_bregman(rho, rtilde), eos.fenchel_young_gap(rtilde, rho)):
        assert np.all(got > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-11


def test_fenchel_young_examples():
    eos = EquationOfState(2.0, 1.0)
    assert eos.fenchel_young_gap(1.0, 1.0) == 0.0
    # expm1(gamma * log1p(3)) carries two ulp of 16
    assert eos.fenchel_young_gap(1.0, 4.0) == pytest.approx(9.0, rel=1e-15, abs=0.0)


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


def test_constructor_invariants():
    with pytest.raises(ValueError):
        EquationOfState(1.0, 1.0)
    with pytest.raises(ValueError):
        EquationOfState(1.4, 0.0)


def test_sound_speed():
    eos = EquationOfState(2.0, 1.0)
    assert eos.sound_speed(2.0) == pytest.approx(2.0)
    empty = eos.sound_speed(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


# -- the density domain ------------------------------------------------------
# The EOS value methods do not inspect their densities; the objects that hold
# densities check them where they enter.


def _with_bad_cell(shape, bad):
    rho = np.ones(shape)
    rho.flat[rho.size // 2] = bad
    return rho


def _measurement_set(bad):
    dec = build_decomposition(0.2, 1.0, 1.0)
    shape = (dec.n_time_slabs, dec.n_space_blocks)
    return MeasurementSet(dec, _with_bad_cell(shape, bad), np.zeros(shape))


DENSITY_HOLDERS = {
    "FluidState": (
        lambda bad: FluidState(0.0, _with_bad_cell(8, bad), np.zeros(8)),
        (ValueError, "state fields must be finite"),
        (VacuumError, "nonpositive density"),
    ),
    "Trajectory": (
        lambda bad: Trajectory(
            Grid1D(8, 1.0), [0.0, 1.0], _with_bad_cell((2, 8), bad), np.zeros((2, 8)),
        ),
        (ValueError, "trajectory fields must be finite"),
        (VacuumError, "trajectory contains nonpositive density"),
    ),
    "MeasurementSet": (
        _measurement_set,
        (ValueError, "samples must be finite"),
        (ValueError, "sampled densities must be positive"),
    ),
}


@pytest.mark.parametrize("holder", sorted(DENSITY_HOLDERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5])
def test_density_holders_reject_densities_outside_the_domain(holder, bad):
    build, non_finite, nonpositive = DENSITY_HOLDERS[holder]
    error, message = non_finite if not np.isfinite(bad) else nonpositive
    with pytest.raises(error, match=message):
        build(bad)
    build(1.0)  # the same holder around a valid density builds


def test_every_density_the_eos_sees_is_finite_and_positive(lite_config, tmp_path, monkeypatch):
    # a twin with persisted output, its audit and the solver validation: the
    # holders and the stage check keep every density the EOS reads in the
    # domain its formulas need
    calls, outside = {}, []

    def watch(name):
        method = getattr(EquationOfState, name)

        def checked(self, *densities):
            calls[name] = calls.get(name, 0) + 1
            for rho in densities:
                rho = np.asarray(rho)
                if not (np.isfinite(rho).all() and (rho > 0.0).all()):
                    outside.append((name, rho.min()))
            return method(self, *densities)

        monkeypatch.setattr(EquationOfState, name, checked)

    for name in ("pressure", "sound_speed", "pressure_potential", "dpotential",
                 "potential_bregman", "fenchel_young_gap"):
        watch(name)
    harness.run_twin(lite_config, out_dir=tmp_path / "twin")
    assert harness.audit_twin(tmp_path / "twin").ok
    harness.validate_solver()
    assert outside == []
    # every method; the energy budget is the caller of fenchel_young_gap
    assert set(calls) == {"pressure", "sound_speed", "pressure_potential", "dpotential",
                          "potential_bregman", "fenchel_young_gap"}, calls
