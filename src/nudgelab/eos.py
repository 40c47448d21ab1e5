"""Isentropic equation of state and the convex energy structure built on it.

The pressure law is the power law p(rho) = kappa * rho**gamma with gamma > 1.
Its pressure potential P is the primitive solving

    P'(rho) * rho - P(rho) = p(rho),   P(0) = 0,

which for the power law is P(rho) = kappa * rho**gamma / (gamma - 1).  The
convexity of P is what turns its Bregman divergence into a usable distance
between density fields, so the constructor enforces the structural
constraints (monotone pressure, convex P, convex P - a*p) up front rather
than trusting callers.

All value functions accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EquationOfState", "default_convexity_constant"]


def default_convexity_constant(gamma: float) -> float:
    """Default constant a making rho -> P(rho) - a*p(rho) convex.

    For the power law that convexity is equivalent to a <= 1/(gamma - 1),
    so 0.4 is safe for gamma <= 2 and 1/(2*(gamma - 1)) beyond.
    """
    if gamma <= 2.0:
        return 0.4
    return min(0.4, 0.5 / (gamma - 1.0))


def _as_density(rho, *, name: str = "rho", positive: bool = False):
    """Validate a density argument; returns a float or float array."""
    arr = np.asarray(rho, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if positive:
        if (arr <= 0.0).any():
            raise ValueError(f"{name} must be strictly positive")
    elif (arr < 0.0).any():
        raise ValueError(f"{name} must be nonnegative")
    return arr if arr.ndim else float(arr)


@dataclass(frozen=True)
class EquationOfState:
    """Power-law pressure p = kappa * rho**gamma with convexity constant a.

    gamma must exceed 1 (and should exceed 6/5 for the synchronization
    guarantees to apply), kappa is positive, and a lies in (0, 1/2) with
    a * (gamma - 1) <= 1 so that P - a*p stays convex.  a defaults to
    ``default_convexity_constant(gamma)``.
    """

    gamma: float
    kappa: float = 1.0
    a: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 1.0):
            raise ValueError("gamma must be finite and > 1")
        if not (np.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError("kappa must be finite and > 0")
        a = self.a
        if a is None:
            a = default_convexity_constant(self.gamma)
            object.__setattr__(self, "a", a)
        if not (0.0 < a < 0.5):
            raise ValueError("a must lie in (0, 1/2)")
        if a * (self.gamma - 1.0) > 1.0:
            raise ValueError("a*(gamma-1) must not exceed 1 (P - a*p convexity)")

    # -- pressure and potential -------------------------------------------

    def pressure(self, rho):
        """p(rho) = kappa * rho**gamma; strictly increasing, p(0) = 0."""
        rho = _as_density(rho)
        return self.kappa * rho**self.gamma

    def sound_speed(self, rho):
        """c(rho) = sqrt(p'(rho)), defined for rho > 0."""
        rho = _as_density(rho, positive=True)
        return np.sqrt(self.kappa * self.gamma * rho ** (self.gamma - 1.0))

    def pressure_potential(self, rho):
        """P(rho) = kappa * rho**gamma / (gamma - 1).

        Unique solution of P'(rho)*rho - P(rho) = p(rho) with P(0) = 0;
        the test suite cross-checks this closed form against quadrature of
        the defining relation.
        """
        rho = _as_density(rho)
        return self.kappa * rho**self.gamma / (self.gamma - 1.0)

    def dpotential(self, rho):
        """P'(rho) = kappa * gamma * rho**(gamma-1) / (gamma - 1)."""
        rho = _as_density(rho)
        return self.kappa * self.gamma / (self.gamma - 1.0) * rho ** (self.gamma - 1.0)

    # -- convexity gaps ----------------------------------------------------

    def potential_bregman(self, rho, rtilde):
        """Bregman divergence P(rho) - P'(rtilde)*(rho - rtilde) - P(rtilde).

        Nonnegative by convexity of P, zero only at rho == rtilde.  The
        reference density rtilde must be strictly positive; for gamma < 2
        the curvature of P blows up at vacuum, so divergences from a
        vacuum reference are not meaningful.
        """
        rho = _as_density(rho)
        rtilde = _as_density(rtilde, name="rtilde", positive=True)
        return (
            self.pressure_potential(rho)
            - self.dpotential(rtilde) * (rho - rtilde)
            - self.pressure_potential(rtilde)
        )

    def fenchel_young_gap(self, rho, s):
        """Slack in P'(rho)*(rho - s) >= P(rho) - P(s); nonnegative.

        This is the quantity that turns the density-nudging work term into
        a potential-difference sink in the energy budget.
        """
        rho = _as_density(rho, positive=True)
        s = _as_density(s, name="s")
        dP = self.dpotential(rho)
        return (dP * rho - dP * s) - (self.pressure_potential(rho) - self.pressure_potential(s))
