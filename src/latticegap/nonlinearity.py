"""Pluggable nonlinearities f(x, u) with primitive F and derivative df/du,
plus a sampled validator for the structural hypotheses the variational
solver relies on.

A model must be continuous in u and T-periodic in x, grow at most like
a * (1 + |u|^(p-1)) with p > 2, vanish faster than linearly at 0, be
superquadratic at infinity (F(x,u)/u^2 -> inf), have a non-decreasing
slope f(x,u)/|u| on each half-line, and satisfy the gap bound
f(x,u) u - 2 F(x,u) >= b |u|^q with 2 < q <= p.  The validator checks all
of this on a finite sample grid; it reports, it does not prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError


class Nonlinearity:
    """Base interface: vectorized f, F, df over site values.

    `sites` is an (M, N) integer array for x-dependent models and is ignored
    by autonomous ones.  Growth parameters (a, p) and gap parameters (b, q)
    are exposed for the validator.
    """

    period: tuple[int, ...] | None = None
    growth_a: float | None = None
    growth_p: float | None = None
    gap_b: float | None = None
    gap_q: float | None = None

    def f(self, u, sites=None):
        raise NotImplementedError

    def F(self, u, sites=None):
        raise NotImplementedError

    def df(self, u, sites=None):
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

    def f(self, u, sites=None):
        u = np.asarray(u, dtype=float)
        return np.abs(u) ** (self.p - 2.0) * u

    def F(self, u, sites=None):
        u = np.asarray(u, dtype=float)
        return np.abs(u) ** self.p / self.p

    def df(self, u, sites=None):
        u = np.asarray(u, dtype=float)
        return (self.p - 1.0) * np.abs(u) ** (self.p - 2.0)


@dataclass(frozen=True)
class ZeroNonlinearity(Nonlinearity):
    """f = F = df = 0.  Fails the superquadratic hypotheses; used to probe
    degenerate behavior of the solver."""

    def f(self, u, sites=None):
        return np.zeros_like(np.asarray(u, dtype=float))

    def F(self, u, sites=None):
        return np.zeros_like(np.asarray(u, dtype=float))

    def df(self, u, sites=None):
        return np.zeros_like(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class CustomNonlinearity(Nonlinearity):
    """Wrap explicit callables.  A missing primitive falls back to composite
    Simpson quadrature of f from 0 (slow; fine for validation grids)."""

    f_fn: Callable = None
    F_fn: Callable | None = None
    df_fn: Callable | None = None
    growth_a: float | None = None
    growth_p: float | None = None
    gap_b: float | None = None
    gap_q: float | None = None
    period: tuple[int, ...] | None = None

    def f(self, u, sites=None):
        return np.asarray(self.f_fn(np.asarray(u, dtype=float)), dtype=float)

    def F(self, u, sites=None):
        if self.F_fn is not None:
            return np.asarray(self.F_fn(np.asarray(u, dtype=float)), dtype=float)
        return simpson_primitive(self.f_fn, u)

    def df(self, u, sites=None):
        if self.df_fn is not None:
            return np.asarray(self.df_fn(np.asarray(u, dtype=float)), dtype=float)
        u = np.asarray(u, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(u))
        return (self.f(u + h) - self.f(u - h)) / (2.0 * h)


def simpson_primitive(f: Callable, u, panels: int = 10000):
    """Composite-Simpson quadrature of f from 0 to each entry of u."""
    u = np.asarray(u, dtype=float)
    flat = np.atleast_1d(u).ravel()
    out = np.empty_like(flat)
    nodes = np.linspace(0.0, 1.0, 2 * panels + 1)
    weights = np.ones(nodes.size)
    weights[1:-1:2] = 4.0
    weights[2:-2:2] = 2.0
    for i, ui in enumerate(flat):
        ts = nodes * ui
        out[i] = (ui / (2 * panels)) / 3.0 * float(weights @ f(ts))
    return out.reshape(np.shape(u)) if np.ndim(u) else float(out[0])


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

    def record(name, margins, detail=""):
        # margins >= 0 means satisfied; worst (most negative) sample decides
        margins = np.asarray(margins, dtype=float)
        idx = int(np.argmin(margins))
        tol = 1e-10 * max(1.0, float(np.max(np.abs(margins))))
        report.checks[name] = CheckResult(
            name=name, passed=bool(margins[idx] >= -tol),
            worst_violation=float(min(margins[idx], 0.0)),
            worst_u=float(us[idx] if us.size == margins.size else np.nan),
            detail=detail)

    if model.period is None:
        report.checks["periodicity"] = CheckResult(
            "periodicity", True, 0.0, 0.0, "autonomous model, periodic in x trivially")
    else:
        shift = np.array(model.period)
        sites = np.stack([np.zeros_like(shift), shift, 3 * shift], axis=0)
        probe = us[:: max(1, us.size // 64)]
        diffs = [np.max(np.abs(model.f(probe, sites[:1].repeat(probe.size, 0))
                               - model.f(probe, (sites[:1] + shift).repeat(probe.size, 0))))]
        worst = float(max(diffs))
        report.checks["periodicity"] = CheckResult(
            "periodicity", worst <= 1e-12, -worst, 0.0, "f(x + T, u) == f(x, u) on samples")

    if model.growth_a is not None and model.growth_p is not None:
        envelope = model.growth_a * (1.0 + np.abs(us) ** (model.growth_p - 1.0))
        record("growth_envelope", envelope - np.abs(fs),
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

    slopes = fs[us != 0.0] / np.abs(us[us != 0.0])
    nz = us[us != 0.0]
    neg_slopes = slopes[nz < 0]
    pos_slopes = slopes[nz > 0]
    worst_mono = min(float(np.min(np.diff(neg_slopes), initial=0.0)),
                     float(np.min(np.diff(pos_slopes), initial=0.0)))
    report.checks["monotone_slope"] = CheckResult(
        "monotone_slope", worst_mono >= -1e-10 * max(1.0, float(np.max(np.abs(slopes)))),
        worst_mono, np.nan, "f(u)/|u| non-decreasing on each half-line")

    if model.gap_b is not None and model.gap_q is not None:
        record("superquadratic_gap",
               fs * us - 2.0 * Fs - model.gap_b * np.abs(us) ** model.gap_q,
               f"f u - 2F >= b |u|^q with b={model.gap_b}, q={model.gap_q}")
    else:
        report.checks["superquadratic_gap"] = CheckResult(
            "superquadratic_gap", False, -np.inf, np.nan, "model declares no gap constants")

    record("sign_condition", np.minimum(fs * us - 2.0 * Fs, 2.0 * Fs),
           "f u >= 2F >= 0 pointwise")
    return report
