"""Concave bid-weight functions and their exact derivatives.

A weight function w maps a bid to a nonnegative score; a bidder wins with
probability w(b_i) / sum_j w(b_j).  Supported family:

* ``power``    w(x) = x**gamma with gamma in (0, 1]
* ``iterlog``  depth-1: w(x) = log(x + 1); depth-2: w(x) = log(log(x + 1) + 1)

All members satisfy w(0) = 0, are strictly increasing, and are concave on
[0, inf).  Derivatives are analytic (no finite differencing happens here).
Inputs are trusted up to about 1e9; beyond that no accuracy claim is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

_POWER = "power"
_ITERLOG = "iterlog"
_MAX_LOG_DEPTH = 2  # only the plotted depths are supported; deeper nests are untested


@dataclass(frozen=True)
class WeightSpec:
    """One member of the supported weight family.

    Use the factories :meth:`power`, :meth:`log1p`, :meth:`loglog` or
    :meth:`parse` rather than spelling out fields.  ``gamma`` is read only for
    kind ``"power"``; ``depth`` only for kind ``"iterlog"``.
    """

    kind: str
    gamma: float = 1.0
    depth: int = 1

    def __post_init__(self) -> None:
        if self.kind == _POWER:
            g = self.gamma
            if not isinstance(g, (int, float)) or not math.isfinite(g) or not (0.0 < g <= 1.0):
                raise DomainError(f"power exponent must lie in (0, 1], got {g!r}")
            object.__setattr__(self, "gamma", float(g))
        elif self.kind == _ITERLOG:
            d = self.depth
            if not isinstance(d, int) or isinstance(d, bool) or not (1 <= d <= _MAX_LOG_DEPTH):
                raise DomainError(
                    f"iterated-log depth must be an integer in [1, {_MAX_LOG_DEPTH}], got {d!r}"
                )
        else:
            raise DomainError(f"unknown weight kind {self.kind!r}")

    # -- factories ---------------------------------------------------------

    @classmethod
    def power(cls, gamma: float) -> "WeightSpec":
        return cls(kind=_POWER, gamma=gamma)

    @classmethod
    def log1p(cls) -> "WeightSpec":
        return cls(kind=_ITERLOG, depth=1)

    @classmethod
    def loglog(cls) -> "WeightSpec":
        return cls(kind=_ITERLOG, depth=2)

    @classmethod
    def iterated_log(cls, depth: int) -> "WeightSpec":
        return cls(kind=_ITERLOG, depth=depth)

    @classmethod
    def parse(cls, tag: "str | WeightSpec") -> "WeightSpec":
        """Build a spec from its string tag: "power:<gamma>", "log1p", "loglog"."""
        if isinstance(tag, cls):
            return tag
        if not isinstance(tag, str):
            raise DomainError(f"weight tag must be a string, got {tag!r}")
        text = tag.strip()
        if text == "log1p":
            return cls.log1p()
        if text == "loglog":
            return cls.loglog()
        if text.startswith("power:"):
            try:
                gamma = float(text.split(":", 1)[1])
            except ValueError:
                raise DomainError(f"bad power exponent in weight tag {tag!r}") from None
            return cls.power(gamma)
        raise DomainError(f"unknown weight tag {tag!r}")

    @property
    def tag(self) -> str:
        """Canonical string form; parse(tag) round-trips exactly."""
        if self.kind == _ITERLOG:
            return "log1p" if self.depth == 1 else "loglog"
        short = format(self.gamma, "g")
        if float(short) == self.gamma:
            return f"power:{short}"
        return f"power:{self.gamma!r}"

    # -- evaluation --------------------------------------------------------

    def value(self, x):
        """w(x) for a scalar or array of nonnegative finite bids."""
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise DomainError("weight argument must be finite and >= 0")
        if self.kind == _POWER:
            out = np.power(arr, self.gamma)
        else:
            out = np.log1p(arr)
            for _ in range(self.depth - 1):
                out = np.log1p(out)
        if arr.ndim == 0:
            return float(out)
        return out

    def deriv(self, x):
        """w'(x) for x strictly positive (scalar or array)."""
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("weight derivative requires finite x > 0")
        if self.kind == _POWER:
            out = self.gamma * np.power(arr, self.gamma - 1.0)
        else:
            out = 1.0 / (1.0 + arr)
            inner = np.log1p(arr)
            for _ in range(self.depth - 1):
                out = out / (1.0 + inner)
                inner = np.log1p(inner)
        if arr.ndim == 0:
            return float(out)
        return out

    def deriv_limit_at_zero(self) -> float:
        """Right limit of w' at 0; math.inf when the derivative diverges."""
        if self.kind == _POWER and self.gamma < 1.0:
            return math.inf
        return 1.0

    def scalar_functions(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """(w, w') as plain-float callables for hot loops. No domain checks."""
        if self.kind == _POWER:
            g = self.gamma
            if g == 1.0:
                return (lambda x: x), (lambda x: 1.0)

            def wf(x: float, g: float = g) -> float:
                return x ** g

            def wd(x: float, g: float = g) -> float:
                return g * x ** (g - 1.0)

            return wf, wd
        if self.depth == 1:
            return (lambda x: math.log1p(x)), (lambda x: 1.0 / (1.0 + x))

        def wf2(x: float) -> float:
            return math.log1p(math.log1p(x))

        def wd2(x: float) -> float:
            return 1.0 / ((1.0 + x) * (1.0 + math.log1p(x)))

        return wf2, wd2

    def lane_functions(self) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
        """(w, w') over 1-D float64 arrays, bit for bit :meth:`scalar_functions`
        applied to each element.  No domain checks; a result may be ``x`` itself.

        ``np.power`` and ``np.log1p`` are not used: numpy's own loops for them
        differ from ``x ** g`` and ``math.log1p`` in the last bit on some
        inputs (about 5% of log-uniform inputs for ``np.power``, 0.1% for
        ``np.log1p``).  ``np.float_power`` calls libm ``pow`` per element, as
        Python's ``**`` does, and the logs go through ``math.log1p`` itself.
        """
        if self.kind == _POWER:
            g = self.gamma
            if g == 1.0:
                return (lambda x: x), np.ones_like

            def wf(x: np.ndarray, g: float = g) -> np.ndarray:
                return np.float_power(x, g)

            def wd(x: np.ndarray, g: float = g) -> np.ndarray:
                return g * np.float_power(x, g - 1.0)

            return wf, wd

        def log1p(x: np.ndarray) -> np.ndarray:
            return np.fromiter(map(math.log1p, x.tolist()), float, x.size)

        if self.depth == 1:
            return log1p, (lambda x: 1.0 / (1.0 + x))

        def wd2(x: np.ndarray) -> np.ndarray:
            return 1.0 / ((1.0 + x) * (1.0 + log1p(x)))

        return (lambda x: log1p(log1p(x))), wd2
