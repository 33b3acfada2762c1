"""Experiment runner: alpha/n sweep grids and their CSV emission.

A sweep solves one instance per (alpha, n, weight) grid point for a fixed
payment rule, with one high-value bidder at alpha and the remaining n-1
bidders at ``low_value``.  Rows come back in deterministic grid order and
serialize to a stable CSV so that repeated runs diff cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError
from .mechanism import AuctionInstance, PaymentRule
from .solver import EquilibriumResult, SolverConfig, solve
from .weights import WeightSpec

CSV_HEADER = "alpha,n,rule,weight,revenue,efficiency,epsilon,iterations,converged,bids"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep.

    The alpha grid is geometric from ``alpha_start`` to ``alpha_stop`` with
    ``alpha_points`` points, endpoints included.  ``solver`` replaces the
    default ``SolverConfig()``, the same one :func:`solve` uses, when given.
    """

    rule: PaymentRule
    weights: tuple[WeightSpec, ...]
    alpha_start: float
    alpha_stop: float
    alpha_points: int
    ns: tuple[int, ...] = (2,)
    low_value: float = 1.0
    solver: SolverConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rule", PaymentRule.parse(self.rule))
        weights = tuple(WeightSpec.parse(w) for w in self.weights)
        if not weights:
            raise DomainError("a sweep needs at least one weight")
        object.__setattr__(self, "weights", weights)
        start = float(self.alpha_start)
        stop = float(self.alpha_stop)
        if not (math.isfinite(start) and start >= 1.0):
            raise DomainError(f"alpha_start must be >= 1, got {self.alpha_start!r}")
        if not (math.isfinite(stop) and stop >= start):
            raise DomainError(
                f"alpha_stop must be >= alpha_start, got {self.alpha_stop!r}"
            )
        object.__setattr__(self, "alpha_start", start)
        object.__setattr__(self, "alpha_stop", stop)
        points = self.alpha_points
        if isinstance(points, bool) or not isinstance(points, int) or points < 1:
            raise DomainError(f"alpha_points must be a positive int, got {points!r}")
        if points == 1 and stop != start:
            raise DomainError("a single-point alpha grid needs alpha_stop == alpha_start")
        ns = tuple(self.ns)
        if not ns:
            raise DomainError("a sweep needs at least one bidder count")
        for n in ns:
            if isinstance(n, bool) or not isinstance(n, int) or n < 2:
                raise DomainError(f"bidder counts must be ints >= 2, got {n!r}")
        object.__setattr__(self, "ns", ns)
        low = float(self.low_value)
        if not (math.isfinite(low) and low > 0.0):
            raise DomainError(f"low_value must be finite and > 0, got {self.low_value!r}")
        object.__setattr__(self, "low_value", low)
        if self.solver is not None and not isinstance(self.solver, SolverConfig):
            raise DomainError("solver must be a SolverConfig or None")

    @staticmethod
    def default_alpha_points(start: float, stop: float) -> int:
        """Geometric grid sized at 25 points per decade, endpoints included."""
        if not (math.isfinite(start) and math.isfinite(stop) and 1.0 <= start <= stop):
            raise DomainError("need 1 <= start <= stop")
        if start == stop:
            return 1
        return max(2, round(25.0 * math.log10(stop / start)) + 1)

    @property
    def alphas(self) -> tuple[float, ...]:
        if self.alpha_points == 1:
            return (self.alpha_start,)
        return tuple(
            float(a)
            for a in np.geomspace(self.alpha_start, self.alpha_stop, self.alpha_points)
        )

    def points(self) -> Iterator[tuple[float, int, WeightSpec]]:
        """Grid points in row order: alpha-major, then n, then weight."""
        for alpha in self.alphas:
            for n in self.ns:
                for weight in self.weights:
                    yield (alpha, n, weight)

    def values_for(self, alpha: float, n: int) -> tuple[float, ...]:
        return (alpha,) + (self.low_value,) * (n - 1)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "weights": [w.tag for w in self.weights],
            "alpha_start": self.alpha_start,
            "alpha_stop": self.alpha_stop,
            "alpha_points": self.alpha_points,
            "ns": list(self.ns),
            "low_value": self.low_value,
            "solver": None if self.solver is None else self.solver.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise DomainError("sweep spec must be a JSON object")
        known = {
            "rule",
            "weights",
            "alpha_start",
            "alpha_stop",
            "alpha_points",
            "ns",
            "low_value",
            "solver",
        }
        extra = set(data) - known
        if extra:
            raise DomainError(f"unknown sweep spec keys: {sorted(extra)}")
        for key in ("rule", "weights", "alpha_start", "alpha_stop", "alpha_points"):
            if key not in data:
                raise DomainError(f"sweep spec missing {key!r}")
        solver = data.get("solver")
        if solver is not None:
            if not isinstance(solver, dict):
                raise DomainError("solver overrides must be a JSON object")
            unknown = set(solver) - {f.name for f in fields(SolverConfig)}
            if unknown:
                raise DomainError(f"unknown solver keys: {sorted(unknown)}")
            solver = SolverConfig(**solver)
        return cls(
            rule=data["rule"],
            weights=tuple(data["weights"]),
            alpha_start=data["alpha_start"],
            alpha_stop=data["alpha_stop"],
            alpha_points=data["alpha_points"],
            ns=tuple(data.get("ns", (2,))),
            low_value=data.get("low_value", 1.0),
            solver=solver,
        )


@dataclass(frozen=True)
class SweepRow:
    """One solved grid point."""

    alpha: float
    n: int
    rule: PaymentRule
    weight: str
    revenue: float
    efficiency: float
    epsilon: float
    iterations: int
    converged: bool
    bids: tuple[float, ...]

    @classmethod
    def from_result(
        cls,
        alpha: float,
        n: int,
        rule: PaymentRule,
        weight: WeightSpec,
        result: EquilibriumResult,
    ) -> "SweepRow":
        return cls(
            alpha=float(alpha),
            n=int(n),
            rule=PaymentRule.parse(rule),
            weight=WeightSpec.parse(weight).tag,
            revenue=result.revenue,
            efficiency=result.efficiency,
            epsilon=result.epsilon,
            iterations=result.iterations,
            converged=result.converged,
            bids=result.bids.bids,
        )

    def csv_line(self) -> str:
        return ",".join(
            (
                _fmt(self.alpha),
                str(self.n),
                self.rule.value,
                self.weight,
                _fmt(self.revenue),
                _fmt(self.efficiency),
                _fmt(self.epsilon),
                str(self.iterations),
                "true" if self.converged else "false",
                ";".join(_fmt(b) for b in self.bids),
            )
        )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Solve every grid point in this process; rows follow ``spec.points()``.

    Unconverged points are kept and flagged, never dropped.  ``workers``
    is kept for callers that pass it and accepts only 1.
    """
    if isinstance(workers, bool) or workers != 1:
        raise DomainError(
            f"workers must be 1, got {workers!r}; the sweep process pool was removed"
        )
    config = spec.solver if spec.solver is not None else SolverConfig()
    rows = []
    for alpha, n, weight in spec.points():
        instance = AuctionInstance.make(spec.rule, spec.values_for(alpha, n), weight)
        result = solve(instance, config)
        rows.append(SweepRow.from_result(alpha, n, spec.rule, weight, result))
    return rows


def format_csv(rows: Iterable[SweepRow]) -> str:
    lines = [CSV_HEADER]
    lines.extend(row.csv_line() for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(rows: Iterable[SweepRow], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(format_csv(rows), encoding="utf-8")
    return path


def read_csv(path: str | Path) -> list[SweepRow]:
    """Parse a file produced by :func:`write_csv`."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise DomainError("not a sweep CSV: bad or missing header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_HEADER.split(",")):
            raise DomainError(f"malformed sweep CSV line: {line!r}")
        alpha, n, rule, weight, rev, eff, eps, iters, conv, bids = parts
        if conv not in ("true", "false"):
            raise DomainError(f"malformed converged flag: {conv!r}")
        rows.append(
            SweepRow(
                alpha=float(alpha),
                n=int(n),
                rule=PaymentRule.parse(rule),
                weight=WeightSpec.parse(weight).tag,
                revenue=float(rev),
                efficiency=float(eff),
                epsilon=float(eps),
                iterations=int(iters),
                converged=conv == "true",
                bids=tuple(float(b) for b in bids.split(";")),
            )
        )
    return rows
