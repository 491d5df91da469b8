"""Carbon intensity (paper Eq. (1)) and emission-cost functions ``V_j``.

The paper only assumes ``V_j`` is non-decreasing and convex, and
explicitly motivates ADM-G with the observation that real carbon
pricing — flat taxes, stepped taxes, cap-and-trade — is *not* strongly
convex.  This module implements all of those shapes plus a quadratic
variant, each exposing exactly what the solvers need:

- ``cost(emission_kg)`` — dollars charged for a slot's grid emissions;
- ``prox_nu(...)`` — the exact ``nu``-minimization (paper Eq. (19));
- ``nu_quadratic(...)`` / ``nu_epigraph(...)`` — coefficients letting
  the centralized interior-point reference absorb ``V_j`` into a QP
  (directly for quadratics, via an epigraph variable for
  piecewise-linear functions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Sequence

import numpy as np

from repro.optim.scalar import PiecewiseLinearConvex

__all__ = [
    "FUEL_CARBON_RATES_G_PER_KWH",
    "CAP_AND_TRADE_DEFAULT_PERMIT_PRICE",
    "carbon_intensity",
    "EmissionCostFunction",
    "NoEmissionCost",
    "LinearCarbonTax",
    "SteppedCarbonTax",
    "CapAndTrade",
    "QuadraticEmissionCost",
]

#: Carbon dioxide emission per kWh for the most common fuel types
#: (paper Table III), in g/kWh == kg/MWh.
FUEL_CARBON_RATES_G_PER_KWH: Mapping[str, float] = {
    "nuclear": 15.0,
    "coal": 968.0,
    "gas": 440.0,
    "oil": 890.0,
    "hydro": 13.5,
    "wind": 22.5,
    "solar": 53.0,  # not in Table III; commonly cited lifecycle figure
    "other": 600.0,  # conservative catch-all for unreported fuels
}

#: EU-ETS-like default permit price, $/tonne.
CAP_AND_TRADE_DEFAULT_PERMIT_PRICE: float = 12.0

_KG_PER_TONNE = 1000.0


def carbon_intensity(
    generation_mwh: Mapping[str, float],
    rates: Mapping[str, float] = FUEL_CARBON_RATES_G_PER_KWH,
) -> float:
    """Average carbon intensity of a generation mix, paper Eq. (1).

    Args:
        generation_mwh: electricity generated per fuel type (any
            consistent energy unit; only the proportions matter).
        rates: per-fuel emission rates in g/kWh.

    Returns:
        The weighted intensity in kg/MWh (== g/kWh).

    Raises:
        KeyError: if a fuel type has no known emission rate.
        ValueError: on negative generation or an all-zero mix.
    """
    total = 0.0
    weighted = 0.0
    for fuel, amount in generation_mwh.items():
        if amount < 0:
            raise ValueError(f"negative generation for {fuel!r}: {amount}")
        if fuel not in rates:
            raise KeyError(f"no emission rate known for fuel type {fuel!r}")
        total += amount
        weighted += amount * rates[fuel]
    if total <= 0:
        raise ValueError("generation mix sums to zero")
    return weighted / total


class EmissionCostFunction(ABC):
    """A convex, non-decreasing emission cost ``V(E)``, ``E`` in kg."""

    @abstractmethod
    def cost(self, emission_kg: float) -> float:
        """Dollar cost of emitting ``emission_kg`` kilograms of CO2."""

    @abstractmethod
    def prox_nu(self, c_rate: float, linear: float, d: float, rho: float) -> float:
        """Solve ``min_{nu >= 0} V(c_rate * nu) + linear*nu + rho/2 (nu-d)^2``.

        This is the paper's per-datacenter ``nu``-minimization (19) with
        ``linear = p_j + phi_j`` and ``d`` the power-balance target.
        ``c_rate`` is the slot's carbon intensity in kg/MWh.
        """

    def nu_quadratic(self, c_rate: float) -> tuple[float, float] | None:
        """Coefficients ``(a, b)`` with ``V(c_rate * nu) = a nu^2 + b nu``
        (up to a constant), or None when ``V`` is not quadratic."""
        return None

    def nu_epigraph(self, c_rate: float) -> list[tuple[float, float]] | None:
        """Segments ``(slope, intercept)`` such that
        ``V(c_rate * nu) = max_k slope_k * nu + intercept_k``,
        or None when ``V`` is not piecewise linear."""
        return None


class NoEmissionCost(EmissionCostFunction):
    """``V(E) = 0`` — carbon priced at nothing (ablation baseline)."""

    def cost(self, emission_kg: float) -> float:
        return 0.0

    def prox_nu(self, c_rate: float, linear: float, d: float, rho: float) -> float:
        return max(0.0, d - linear / rho)

    def nu_quadratic(self, c_rate: float) -> tuple[float, float]:
        return (0.0, 0.0)

    def nu_epigraph(self, c_rate: float) -> list[tuple[float, float]]:
        return [(0.0, 0.0)]


class LinearCarbonTax(EmissionCostFunction):
    """Flat carbon tax: ``V(E) = rate/1000 * E`` dollars, ``rate`` in $/tonne.

    This is the paper's evaluation default (``r_j = $25/tonne``).
    """

    def __init__(self, rate_per_tonne: float) -> None:
        if rate_per_tonne < 0:
            raise ValueError(f"tax rate must be non-negative, got {rate_per_tonne}")
        self.rate_per_tonne = float(rate_per_tonne)
        self._rate_per_kg = self.rate_per_tonne / _KG_PER_TONNE

    def cost(self, emission_kg: float) -> float:
        return self._rate_per_kg * emission_kg

    def prox_nu(self, c_rate: float, linear: float, d: float, rho: float) -> float:
        return max(0.0, d - (linear + self._rate_per_kg * c_rate) / rho)

    def nu_quadratic(self, c_rate: float) -> tuple[float, float]:
        return (0.0, self._rate_per_kg * c_rate)

    def nu_epigraph(self, c_rate: float) -> list[tuple[float, float]]:
        return [(self._rate_per_kg * c_rate, 0.0)]

    def __repr__(self) -> str:
        return f"LinearCarbonTax({self.rate_per_tonne:g} $/tonne)"


class SteppedCarbonTax(EmissionCostFunction):
    """Progressive (stepped) carbon tax: marginal rate increases above
    emission thresholds, as in tiered tax systems.

    ``thresholds_kg`` are emission breakpoints (first must be 0) and
    ``rates_per_tonne`` the marginal rate on each bracket; rates must be
    non-decreasing for convexity.
    """

    def __init__(
        self, thresholds_kg: Sequence[float], rates_per_tonne: Sequence[float]
    ) -> None:
        slopes = np.asarray(rates_per_tonne, dtype=float) / _KG_PER_TONNE
        self._pl = PiecewiseLinearConvex(thresholds_kg, slopes)
        self.thresholds_kg = np.asarray(thresholds_kg, dtype=float)
        self.rates_per_tonne = np.asarray(rates_per_tonne, dtype=float)

    def cost(self, emission_kg: float) -> float:
        return self._pl(emission_kg)

    def prox_nu(self, c_rate: float, linear: float, d: float, rho: float) -> float:
        if c_rate <= 0:
            return max(0.0, d - linear / rho)
        return self._pl.scaled(c_rate).prox(d, rho, linear=linear)

    def nu_epigraph(self, c_rate: float) -> list[tuple[float, float]]:
        if c_rate <= 0:
            return [(0.0, 0.0)]
        pl = self._pl.scaled(c_rate)
        segments = []
        for j in range(len(pl.breakpoints)):
            slope = pl.slopes[j]
            # Line through (t_j, f(t_j)) with this slope.
            intercept = pl._values_at_bp[j] - slope * pl.breakpoints[j]
            segments.append((float(slope), float(intercept)))
        return segments

    def __repr__(self) -> str:
        return (
            f"SteppedCarbonTax(thresholds={self.thresholds_kg.tolist()}, "
            f"rates={self.rates_per_tonne.tolist()} $/tonne)"
        )


class CapAndTrade(EmissionCostFunction):
    """Cap-and-trade: permits up to ``cap_kg`` are held; emissions above
    the cap buy permits at ``buy_price`` $/tonne, emissions below it sell
    surplus permits at ``sell_price`` $/tonne (a negative cost).

    Convex when ``sell_price <= buy_price``; with equal prices this is
    the linear pricing the paper mentions for the EU scheme.
    """

    def __init__(
        self,
        cap_kg: float,
        buy_price_per_tonne: float = CAP_AND_TRADE_DEFAULT_PERMIT_PRICE,
        sell_price_per_tonne: float | None = None,
    ) -> None:
        if cap_kg < 0:
            raise ValueError(f"cap must be non-negative, got {cap_kg}")
        if sell_price_per_tonne is None:
            sell_price_per_tonne = buy_price_per_tonne
        if sell_price_per_tonne > buy_price_per_tonne:
            raise ValueError(
                "sell price above buy price would make the cost non-convex"
            )
        self.cap_kg = float(cap_kg)
        self.buy_price_per_tonne = float(buy_price_per_tonne)
        self.sell_price_per_tonne = float(sell_price_per_tonne)
        sell = self.sell_price_per_tonne / _KG_PER_TONNE
        buy = self.buy_price_per_tonne / _KG_PER_TONNE
        if cap_kg == 0:
            self._pl = PiecewiseLinearConvex([0.0], [buy])
        else:
            self._pl = PiecewiseLinearConvex(
                [0.0, self.cap_kg], [sell, buy], offset=-sell * self.cap_kg
            )

    def cost(self, emission_kg: float) -> float:
        return self._pl(emission_kg)

    def prox_nu(self, c_rate: float, linear: float, d: float, rho: float) -> float:
        if c_rate <= 0:
            return max(0.0, d - linear / rho)
        return self._pl.scaled(c_rate).prox(d, rho, linear=linear)

    def nu_epigraph(self, c_rate: float) -> list[tuple[float, float]]:
        if c_rate <= 0:
            return [(0.0, 0.0)]
        pl = self._pl.scaled(c_rate)
        return [
            (
                float(pl.slopes[j]),
                float(pl._values_at_bp[j] - pl.slopes[j] * pl.breakpoints[j]),
            )
            for j in range(len(pl.breakpoints))
        ]

    def __repr__(self) -> str:
        return (
            f"CapAndTrade(cap={self.cap_kg:g} kg, "
            f"buy={self.buy_price_per_tonne:g}, "
            f"sell={self.sell_price_per_tonne:g} $/tonne)"
        )


class QuadraticEmissionCost(EmissionCostFunction):
    """Strongly convex emission cost
    ``V(E) = quad * E^2 + rate/1000 * E`` with ``quad`` in $/kg^2.

    Used by the ablations comparing ADM-G against plain multi-block
    ADMM (which needs exactly this strong convexity to behave).
    """

    def __init__(self, rate_per_tonne: float, quad_per_kg2: float) -> None:
        if rate_per_tonne < 0 or quad_per_kg2 < 0:
            raise ValueError("coefficients must be non-negative")
        self.rate_per_tonne = float(rate_per_tonne)
        self.quad_per_kg2 = float(quad_per_kg2)
        self._rate_per_kg = self.rate_per_tonne / _KG_PER_TONNE

    def cost(self, emission_kg: float) -> float:
        return self.quad_per_kg2 * emission_kg**2 + self._rate_per_kg * emission_kg

    def prox_nu(self, c_rate: float, linear: float, d: float, rho: float) -> float:
        # Objective: (quad c^2) nu^2 + (rate_kg c + linear) nu + rho/2 (nu-d)^2.
        a = self.quad_per_kg2 * c_rate * c_rate
        b = self._rate_per_kg * c_rate + linear
        return max(0.0, (rho * d - b) / (2.0 * a + rho))

    def nu_quadratic(self, c_rate: float) -> tuple[float, float]:
        return (self.quad_per_kg2 * c_rate * c_rate, self._rate_per_kg * c_rate)

    def __repr__(self) -> str:
        return (
            f"QuadraticEmissionCost(rate={self.rate_per_tonne:g} $/tonne, "
            f"quad={self.quad_per_kg2:g} $/kg^2)"
        )
