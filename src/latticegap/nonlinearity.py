"""Pluggable nonlinearities f(u) with primitive F and derivative df/du,
plus a sampled validator for the structural hypotheses the variational
solver relies on.

Every model is autonomous (the same f at every site) and closed-form in u:
f, F and df are vectorized functions of the value array alone.  A model
must grow at most like a * (1 + |u|^(p-1)) with p > 2, vanish faster than
linearly at 0 (|f(u)| <= a0 |u|^(1+e) at |u| <= 1, e > 0), have a
non-decreasing slope f(u)/|u| on each half-line, and satisfy f u >= 2F >= 0
and the gap bound f u - 2F >= b |u|^q with b > 0, 2 < q <= p, which makes
it superquadratic (F(u)/u^2 -> inf).  The validator samples all of this
against the constants the model declares; it reports, it does not prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidInputError


class Nonlinearity:
    """Base interface: f, F and df, elementwise on an array of site values.

    Growth parameters (a, p), vanishing parameters (a0, e) and gap
    parameters (b, q) are exposed for the validator.
    """

    growth_a: float | None = None
    growth_p: float | None = None
    vanishing_a0: float | None = None
    vanishing_e: float | None = None
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
    every hypothesis with a = 1, a0 = 1, e = p - 2, b = (p-2)/p, q = p.
    """

    p: float = 4.0
    growth_a = 1.0  # class constants, not fields: every power shares them
    vanishing_a0 = 1.0

    def __post_init__(self):
        if not self.p > 2:
            raise InvalidInputError(f"power exponent must satisfy p > 2, got {self.p}")

    @property
    def growth_p(self):
        return self.p

    @property
    def vanishing_e(self):
        return self.p - 2.0

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
        return np.abs(np.asarray(u, dtype=float)) ** self.p / self.p

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
    """Explicit callables for f, F and df, with the constants they declare."""

    f_fn: Callable = None
    F_fn: Callable = None
    df_fn: Callable = None
    growth_a: float | None = None
    growth_p: float | None = None
    vanishing_a0: float | None = None
    vanishing_e: float | None = None
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


# sample grid of `validate_hypotheses`
U_MAX = 10.0
N_POINTS = 2000


def validate_hypotheses(model: Nonlinearity) -> HypothesisReport:
    """Sampled hypothesis check; returns a per-check pass/fail report.

    Each check has a margin per sample of N_POINTS in [-U_MAX, U_MAX], >= 0
    where it holds; it passes when no margin is below -1e-10 of the terms
    compared at its sample, and reports the least relative margin (capped
    at 0) and its sample.  Every bound is one the model declares; the
    near-zero one is sampled at |u| <= 1.  Superquadratic growth is derived:
    for u > 0, d/du (F/u^2) = (f u - 2F)/u^3 >= b u^(q-3), so F(u)/u^2 >=
    F(1) + b (u^(q-2) - 1)/(q - 2) -> inf (u < 0 mirrors it).  A model that
    overflows on the grid or declares no constant (or e <= 0) fails on NaN
    margins, without warnings.
    """
    pos = np.geomspace(1e-8, U_MAX, N_POINTS // 2)
    us = np.concatenate([-pos[::-1], [0.0], pos])
    report = HypothesisReport()

    def check(name, at, margins, terms, detail):
        # |margin| <= terms, so the relative margin lies in [-1, 1]; a NaN
        # (an overflowed sample, an undeclared constant) fails, reported first
        rel = margins / np.maximum(terms, np.finfo(float).tiny)
        idx = int(np.argmin(rel))
        report.checks[name] = CheckResult(
            name, bool(np.all(rel >= -1e-10)), float(min(rel[idx], 0.0)),
            float(at[idx]), detail)

    with np.errstate(all="ignore"):
        fs, Fs = model.f(us), model.F(us)
        a, p = model.growth_a, model.growth_p
        envelope = np.nan if a is None or p is None else a * (1.0 + np.abs(us) ** (p - 1.0))
        check("growth_envelope", us, envelope - np.abs(fs), envelope + np.abs(fs),
              f"|f| <= a (1 + |u|^(p-1)) with a={a}, p={p}")

        a0, e = model.vanishing_a0, model.vanishing_e
        small = np.abs(us) <= 1.0
        near, fn = us[small], np.abs(fs[small])
        declared = a0 is not None and (e or 0.0) > 0.0
        cap = a0 * np.abs(near) ** (1.0 + e) if declared else np.nan
        check("vanishing_at_zero", near, cap - fn, cap + fn,
              f"|f(u)| <= a0 |u|^(1+e) for |u| <= 1, e > 0, with a0={a0}, e={e}")

        at = us[us != 0.0]
        slopes = fs[us != 0.0] / np.abs(at)

        # each step within a half-line is judged against its two slopes
        half = np.diff(np.sign(at)) == 0.0
        check("monotone_slope", at[1:][half], np.diff(slopes)[half],
              (np.abs(slopes[1:]) + np.abs(slopes[:-1]))[half],
              "f(u)/|u| non-decreasing on each half-line")

        fu = fs * us
        b, q = model.gap_b, model.gap_q
        bound = np.nan if b is None or q is None else b * np.abs(us) ** q
        check("superquadratic_gap", us, fu - 2.0 * Fs - bound,
              np.abs(fu) + 2.0 * np.abs(Fs) + np.abs(bound),
              f"f u - 2F >= b |u|^q with b={b}, q={q}")
        check("sign_condition", us, np.minimum(fu - 2.0 * Fs, 2.0 * Fs),
              np.abs(fu) + 2.0 * np.abs(Fs), "f u >= 2F >= 0 pointwise")

    # reported as the failing (else the tighter) of the two checks it rests on
    basis = min(report.checks["superquadratic_gap"], report.checks["sign_condition"],
                key=lambda c: (c.passed, c.worst_violation))
    report.checks["superquadratic_growth"] = replace(
        basis, name="superquadratic_growth",
        passed=basis.passed and (b or 0.0) > 0.0 and (q or 0.0) > 2.0,
        detail=f"F(u)/u^2 -> inf: the gap bound with b > 0, q > 2 (b={b}, q={q})")
    return report
