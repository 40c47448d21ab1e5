"""Isentropic equation of state and the convex energy structure built on it.

The pressure law is the power law p(rho) = kappa * rho**gamma with gamma > 1.
Its pressure potential P is the primitive solving

    P'(rho) * rho - P(rho) = p(rho),   P(0) = 0,

which for the power law is P(rho) = kappa * rho**gamma / (gamma - 1).  The
convexity of P is what turns its Bregman divergence into a usable distance
between density fields, so the constructor enforces the structural
constraints (monotone pressure, convex P) up front rather than trusting
callers.

All value functions accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EquationOfState"]


@dataclass(frozen=True)
class EquationOfState:
    """Power-law pressure p = kappa * rho**gamma.

    gamma must exceed 1 (and should exceed 6/5 for the synchronization
    guarantees to apply) and kappa is positive; the constructor checks both.

    The value methods are their formulas alone: they do not inspect their
    density arguments.  Densities must be finite and nonnegative, and
    strictly positive for ``sound_speed``, for the reference ``rtilde`` of
    ``potential_bregman`` and for the first argument of
    ``fenchel_young_gap``; outside that domain the result is NaN, infinite
    or complex.  The objects that hold densities enforce the domain where a
    density enters: ``FluidState`` and ``Trajectory`` (every state a run
    starts from or reads back, ``load_trajectory`` included),
    ``MeasurementSet`` (the samples), the stage check of ``dynamics.step``
    (every RK stage and relaxed state) and ``ExperimentConfig.validate``
    (the initial profile).
    """

    gamma: float
    kappa: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 1.0):
            raise ValueError("gamma must be finite and > 1")
        if not (np.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError("kappa must be finite and > 0")

    # -- pressure and potential -------------------------------------------

    def pressure(self, rho):
        """p(rho) = kappa * rho**gamma; strictly increasing, p(0) = 0."""
        return self.kappa * rho**self.gamma

    def sound_speed(self, rho):
        """c(rho) = sqrt(p'(rho)), defined for rho > 0."""
        return np.sqrt(self.kappa * self.gamma * rho ** (self.gamma - 1.0))

    def pressure_potential(self, rho):
        """P(rho) = kappa * rho**gamma / (gamma - 1).

        Unique solution of P'(rho)*rho - P(rho) = p(rho) with P(0) = 0;
        the test suite cross-checks this closed form against quadrature of
        the defining relation.
        """
        return self.kappa * rho**self.gamma / (self.gamma - 1.0)

    def dpotential(self, rho):
        """P'(rho) = kappa * gamma * rho**(gamma-1) / (gamma - 1)."""
        return self.kappa * self.gamma / (self.gamma - 1.0) * rho ** (self.gamma - 1.0)

    # -- convexity gaps ----------------------------------------------------

    def potential_bregman(self, rho, rtilde):
        """Bregman divergence P(rho) - P'(rtilde)*(rho - rtilde) - P(rtilde).

        Written as P(rtilde) * phi(s) with the relative mismatch
        s = (rho - rtilde) / rtilde and phi(s) = (1 + s)**gamma - 1 - gamma*s,
        evaluated without cancellation: expm1(gamma * log1p(s)) - gamma*s for
        |s| >= 1e-3, and the series through s**5 below that (truncation
        below 1e-12 relative).  Both factors are nonnegative, so the result
        is too, and it is zero at rho == rtilde.  The reference density
        rtilde must be strictly positive; for gamma < 2 the curvature of P
        blows up at vacuum, so divergences from a vacuum reference are not
        meaningful.
        """
        s = (rho - rtilde) / rtilde
        g = self.gamma
        with np.errstate(divide="ignore"):  # rho = 0: log1p(-1) = -inf, phi = g - 1
            phi = np.where(
                np.abs(s) >= 1e-3,
                np.expm1(g * np.log1p(s)) - g * s,
                s * s * g * (g - 1.0) / 2.0
                * (1.0 + s * (g - 2.0) / 3.0
                   * (1.0 + s * (g - 3.0) / 4.0 * (1.0 + s * (g - 4.0) / 5.0))),
            )
        return self.pressure_potential(rtilde) * phi[()]

    def fenchel_young_gap(self, rho, s):
        """Slack in P'(rho)*(rho - s) >= P(rho) - P(s); nonnegative.

        The slack is the Bregman divergence of P at s from rho, so it is
        ``potential_bregman(s, rho)``.  This is the quantity that turns the
        density-nudging work term into a potential-difference sink in the
        energy budget.
        """
        return self.potential_bregman(s, rho)
