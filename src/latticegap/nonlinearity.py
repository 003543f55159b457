"""Pluggable nonlinearities f(u) with primitive F and derivative df/du,
plus a sampled validator for the structural hypotheses the variational
solver relies on.

Every model is autonomous (the same f at every site) and closed-form in u:
f, F and df are vectorized functions of the value array alone.  A model
must be continuous in u, grow at most like a * (1 + |u|^(p-1)) with p > 2,
vanish faster than linearly at 0, be superquadratic at infinity
(F(u)/u^2 -> inf), have a non-decreasing slope f(u)/|u| on each half-line,
and satisfy the gap bound f(u) u - 2 F(u) >= b |u|^q with 2 < q <= p.  The
validator checks all of this on a finite sample grid; it reports, it does
not prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError


class Nonlinearity:
    """Base interface: f, F and df, elementwise on an array of site values.

    Growth parameters (a, p) and gap parameters (b, q) are exposed for the
    validator.
    """

    growth_a: float | None = None
    growth_p: float | None = None
    gap_b: float | None = None
    gap_q: float | None = None

    def f(self, u):
        raise NotImplementedError

    def F(self, u):
        raise NotImplementedError

    def df(self, u):
        raise NotImplementedError


@dataclass(frozen=True)
class PowerNonlinearity(Nonlinearity):
    """Pure power model f(u) = |u|^(p-2) u with p > 2.

    F = |u|^p / p and f u - 2 F = (1 - 2/p) |u|^p, so the model satisfies
    every hypothesis with a = 1, b = (p-2)/p, q = p.
    """

    p: float = 4.0

    def __post_init__(self):
        if not self.p > 2:
            raise InvalidInputError(f"power exponent must satisfy p > 2, got {self.p}")

    @property
    def growth_a(self):
        return 1.0

    @property
    def growth_p(self):
        return self.p

    @property
    def gap_b(self):
        return (self.p - 2.0) / self.p

    @property
    def gap_q(self):
        return self.p

    def f(self, u):
        u = np.asarray(u, dtype=float)
        return np.abs(u) ** (self.p - 2.0) * u

    def F(self, u):
        # one buffer: the certificate calls F on a batch of 200 states
        out = np.abs(np.asarray(u, dtype=float))
        out **= self.p
        out /= self.p
        return out

    def df(self, u):
        u = np.asarray(u, dtype=float)
        return (self.p - 1.0) * np.abs(u) ** (self.p - 2.0)


@dataclass(frozen=True)
class ZeroNonlinearity(Nonlinearity):
    """f = F = df = 0.  Fails the superquadratic hypotheses; used to probe
    degenerate behavior of the solver."""

    def f(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def F(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def df(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class CustomNonlinearity(Nonlinearity):
    """Wrap explicit callables for f, its primitive F and its derivative df."""

    f_fn: Callable = None
    F_fn: Callable = None
    df_fn: Callable = None
    growth_a: float | None = None
    growth_p: float | None = None
    gap_b: float | None = None
    gap_q: float | None = None

    def __post_init__(self):
        missing = [n for n in ("f_fn", "F_fn", "df_fn") if getattr(self, n) is None]
        if missing:
            raise InvalidInputError("CustomNonlinearity needs f, F and df in "
                                    f"closed form; missing {', '.join(missing)}")

    def f(self, u):
        return np.asarray(self.f_fn(np.asarray(u, dtype=float)), dtype=float)

    def F(self, u):
        return np.asarray(self.F_fn(np.asarray(u, dtype=float)), dtype=float)

    def df(self, u):
        return np.asarray(self.df_fn(np.asarray(u, dtype=float)), dtype=float)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    worst_u: float
    detail: str = ""

    def to_dict(self) -> dict:
        def finite(x):
            return float(x) if np.isfinite(x) else None
        return {"name": self.name, "passed": self.passed,
                "worst_violation": finite(self.worst_violation),
                "worst_u": finite(self.worst_u), "detail": self.detail}


@dataclass
class HypothesisReport:
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failed_names(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.passed]

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": {name: c.to_dict() for name, c in sorted(self.checks.items())}}


# sample grid and thresholds of `validate_hypotheses`
U_MAX = 10.0
N_POINTS = 2000
SLOPE_TOL = 1e-3
SMALL_U = 1e-3
GROWTH_THRESHOLD = 10.0


def validate_hypotheses(model: Nonlinearity) -> HypothesisReport:
    """Sampled hypothesis check; returns a per-check pass/fail report.

    N_POINTS = 2000 geometric samples span [-U_MAX, U_MAX], U_MAX = 10.
    Thresholds for the asymptotic conditions are finite-sample heuristics:
    near-zero slope is tested as |f(u)/u| <= SLOPE_TOL = 1e-3 for |u| <=
    SMALL_U = 1e-3, and superquadratic growth as F(u)/u^2 >= GROWTH_THRESHOLD
    = 10 at |u| = U_MAX.
    """
    pos = np.geomspace(1e-8, U_MAX, N_POINTS // 2)
    us = np.concatenate([-pos[::-1], [0.0], pos])
    fs = model.f(us)
    Fs = model.F(us)
    report = HypothesisReport()

    def record(name, margins, scale, detail=""):
        # margins >= 0 means satisfied; rounding is judged per sample against
        # `scale`, the size of the terms compared there (up to U_MAX^p)
        idx = int(np.argmin(margins))
        report.checks[name] = CheckResult(
            name=name,
            passed=bool(np.all(margins >= -1e-10 * np.maximum(1.0, scale))),
            worst_violation=float(min(margins[idx], 0.0)),
            worst_u=float(us[idx]), detail=detail)

    report.checks["periodicity"] = CheckResult(
        "periodicity", True, 0.0, 0.0, "autonomous model, periodic in x trivially")

    if model.growth_a is not None and model.growth_p is not None:
        envelope = model.growth_a * (1.0 + np.abs(us) ** (model.growth_p - 1.0))
        record("growth_envelope", envelope - np.abs(fs), envelope + np.abs(fs),
               f"|f| <= a (1 + |u|^(p-1)) with a={model.growth_a}, p={model.growth_p}")
    else:
        report.checks["growth_envelope"] = CheckResult(
            "growth_envelope", False, -np.inf, np.nan, "model declares no growth constants")

    small = (np.abs(us) <= SMALL_U) & (us != 0.0)
    ratios = np.abs(fs[small] / us[small])
    report.checks["vanishing_at_zero"] = CheckResult(
        "vanishing_at_zero", bool(np.max(ratios) <= SLOPE_TOL),
        float(SLOPE_TOL - np.max(ratios)), float(us[small][int(np.argmax(ratios))]),
        f"|f(u)/u| <= {SLOPE_TOL} for |u| <= {SMALL_U}")

    edge = np.abs(np.abs(us) - U_MAX) < 1e-9 * U_MAX
    growth = Fs[edge] / us[edge] ** 2
    report.checks["superquadratic_growth"] = CheckResult(
        "superquadratic_growth", bool(np.min(growth) >= GROWTH_THRESHOLD),
        float(np.min(growth) - GROWTH_THRESHOLD), U_MAX,
        f"F(u)/u^2 >= {GROWTH_THRESHOLD} at |u| = {U_MAX}")

    # each step is judged against its two slopes, not the largest slope
    worst_mono, monotone = 0.0, True
    for half in (us < 0.0, us > 0.0):
        slopes = fs[half] / np.abs(us[half])
        steps = np.diff(slopes)
        worst_mono = min(worst_mono, float(np.min(steps, initial=0.0)))
        monotone &= bool(np.all(steps >= -1e-10 * np.maximum(
            1.0, np.abs(slopes[1:]) + np.abs(slopes[:-1]))))
    report.checks["monotone_slope"] = CheckResult(
        "monotone_slope", monotone, worst_mono, np.nan,
        "f(u)/|u| non-decreasing on each half-line")

    fu = fs * us
    if model.gap_b is not None and model.gap_q is not None:
        bound = model.gap_b * np.abs(us) ** model.gap_q
        record("superquadratic_gap", fu - 2.0 * Fs - bound,
               np.abs(fu) + 2.0 * np.abs(Fs) + bound,
               f"f u - 2F >= b |u|^q with b={model.gap_b}, q={model.gap_q}")
    else:
        report.checks["superquadratic_gap"] = CheckResult(
            "superquadratic_gap", False, -np.inf, np.nan, "model declares no gap constants")

    record("sign_condition", np.minimum(fu - 2.0 * Fs, 2.0 * Fs),
           np.abs(fu) + 2.0 * np.abs(Fs), "f u >= 2F >= 0 pointwise")
    return report
