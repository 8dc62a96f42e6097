"""Startup-cost curve thinning.

Startup-cost constraints grow quadratically with the horizon if every
offline duration gets its own cost step.  Thinning groups consecutive
durations and represents each group by a single step value, keeping the
per-point relative error below a tolerance while using the minimal number of
groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, NonMonotoneCurve
from .instance import Instance, StartupCostCurve


@dataclass(frozen=True)
class ThinnedCurve:
    """Grouped startup costs: one step value per contiguous duration group."""

    unit_id: int
    steps: dict[int, float] = field(default_factory=dict)        # group start -> step
    group_extents: dict[int, int] = field(default_factory=dict)  # group start -> end

    def group_starts(self) -> list[int]:
        return sorted(self.steps)


def best_error(cost_a: float, cost_b: float) -> float:
    """Minimal achievable relative error when one step covers both costs.

    Requires 0 <= cost_a <= cost_b; equals (b - a) / (b + a), or 0 when both
    costs are zero.
    """
    _check_pair(cost_a, cost_b)
    if cost_a == 0.0 and cost_b == 0.0:
        return 0.0
    return (cost_b - cost_a) / (cost_b + cost_a)


def best_step(cost_a: float, cost_b: float) -> float:
    """Step value attaining :func:`best_error` (0 when both costs are zero)."""
    _check_pair(cost_a, cost_b)
    if cost_a == cost_b:
        return cost_a
    # 2ab/(a+b), ordered so intermediate products cannot under- or overflow
    return 2.0 * cost_a * (cost_b / (cost_a + cost_b))


def _check_pair(cost_a: float, cost_b: float) -> None:
    if cost_a < 0.0 or cost_b < 0.0:
        raise DomainError(f"costs must be nonnegative, got ({cost_a}, {cost_b})")
    if cost_a > cost_b:
        raise DomainError(f"expected cost_a <= cost_b, got ({cost_a}, {cost_b})")


def _mergeable(cost_a: float, cost_b: float, tol: float) -> bool:
    # Exactly equal endpoints always merge; this only matters at tol = 0,
    # where a strict comparison would split runs of identical values.
    return cost_a == cost_b or best_error(cost_a, cost_b) < tol


def _curve_prefix(curve: StartupCostCurve) -> list[float]:
    values = curve.prefix_values()
    for i, value in enumerate(values):
        if value < 0.0:
            raise DomainError(
                f"unit {curve.unit_id}: negative startup cost at t={i + 1}")
        if i and value < values[i - 1]:
            raise NonMonotoneCurve(
                f"unit {curve.unit_id}: startup costs decrease at t={i + 1}")
    return values


def thin_curve(curve: StartupCostCurve, tol: float) -> ThinnedCurve:
    """Greedy left-to-right grouping of a monotone startup-cost curve.

    Each group is extended while the relative error between its first value
    and the candidate's value stays below ``tol``; the group's step is the
    error-minimizing value for its endpoints.  The number of groups produced
    is minimal (checked against :func:`min_groups_oracle` in the tests).

    Undefined durations terminate the curve: only the contiguous prefix
    starting at t = 1 is grouped.
    """
    if not 0.0 <= tol <= 1.0:
        raise DomainError(f"tolerance must lie in [0, 1], got {tol}")
    values = _curve_prefix(curve)
    n = len(values)

    steps: dict[int, float] = {}
    extents: dict[int, int] = {}
    t_a = t_b = 1
    while t_a <= n:
        while t_b + 1 <= n and _mergeable(values[t_a - 1], values[t_b], tol):
            t_b += 1
        steps[t_a] = best_step(values[t_a - 1], values[t_b - 1])
        extents[t_a] = t_b
        t_a = t_b = t_b + 1
    return ThinnedCurve(curve.unit_id, steps, extents)


def min_groups_oracle(curve: StartupCostCurve, tol: float) -> int:
    """Exact minimum number of contiguous groups meeting the tolerance.

    Dynamic program over group boundaries: best[i] is the minimal group count
    for the first i values, scanning candidate last-group starts backwards
    until the group's endpoint error becomes too large (valid because the
    error grows as the group widens on a monotone curve).  Independent of the
    greedy code path by construction.
    """
    if not 0.0 <= tol <= 1.0:
        raise DomainError(f"tolerance must lie in [0, 1], got {tol}")
    values = _curve_prefix(curve)
    n = len(values)
    if n == 0:
        return 0

    best = [0] + [n + 1] * n
    for i in range(1, n + 1):
        for j in range(i - 1, -1, -1):
            if not _mergeable(values[j], values[i - 1], tol):
                break
            if best[j] + 1 < best[i]:
                best[i] = best[j] + 1
    return best[n]


def thin_all(instance: Instance, tol: float | None = None) -> dict[int, ThinnedCurve]:
    """Thin every unit's startup curve (default tolerance from the config)."""
    if tol is None:
        tol = instance.general.startup_tol
    return {
        u.unit_id: thin_curve(instance.curve(u.unit_id), tol)
        for u in instance.units
    }
