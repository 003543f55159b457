"""Acceptance suite: one criterion per test, each printing a pass line with
its runtime (fixture build time included for the fixtures it consumes).

Instance under test: N = 3, checkerboard potential with amplitude 1 and
shift -2N, quartic nonlinearity, boxes up to 17^3.  Experiments target
interior states (boundary-mass filter 0.25); the 5^3 oracle comparison runs
on the unconstrained box problem, whose minimizers are corner-pinned.
"""

import time

import numpy as np
import pytest

import latticegap as lg
from latticegap.cli import main

from conftest import TIMINGS, random_field
from oracle_constants import rho_plus_descent
from oracle_lattice import inner_l2, laplacian_apply
from oracle_newton import critical_levels
from test_cli import write_config


def report(number, budget_s, used_fixtures, started, detail):
    elapsed = time.perf_counter() - started
    total = elapsed + sum(TIMINGS.get(name, 0.0) for name in used_fixtures)
    print(f"[criterion {number}] PASS {detail} ({total:.1f}s of {budget_s:.0f}s budget)")
    assert total < budget_s, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_band_oracle(potential, band_table):
    started = time.perf_counter()
    assert abs(band_table.sigma_minus - (-1.0)) < 1e-8
    assert abs(band_table.sigma_plus - 1.0) < 1e-8
    # every sampled band value matches +-sqrt(c^2 + gamma^2) for an
    # admissible gamma, and the extreme edges are +-sqrt(c^2 + 4 N^2)
    gammas = 2.0 * np.cos(band_table.k_points).sum(axis=1)
    assert abs(band_table.bands.min() + np.sqrt(37.0)) < 1e-8
    assert abs(band_table.bands.max() - np.sqrt(37.0)) < 1e-8
    for k, lams in zip(band_table.k_points[::37], band_table.bands[::37]):
        expected = []
        for b in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]:
            g = 2.0 * np.sum(np.cos(k + np.pi * np.array(b)))
            lam = np.sqrt(1.0 + g * g)
            expected.extend([-lam, lam])
        np.testing.assert_allclose(lams, np.sort(expected), rtol=0, atol=1e-8)
    report(1, 10.0, ["band_table"], started,
           f"gap endpoints ({band_table.sigma_minus:.12f}, "
           f"{band_table.sigma_plus:.12f}) match the checkerboard formula")


def test_criterion_2_calculus_suite(split_r2, model):
    started = time.perf_counter()
    box = split_r2.box
    rng = np.random.default_rng(20)
    # summation by parts
    for _ in range(20):
        u = random_field(box, rng)
        energy = lg.dirichlet_energy(u)
        assert abs(energy + inner_l2(laplacian_apply(u), u)) \
            <= 1e-12 * max(1.0, energy)
    # gradient versus central finite differences
    h = 1e-5
    u = random_field(box, rng)
    g = lg.gradient(split_r2, model, u, 0.05)
    for _ in range(20):
        phi = random_field(box, rng)
        up = lg.LatticeField(box, u.values + h * phi.values)
        um = lg.LatticeField(box, u.values - h * phi.values)
        fd = (lg.evaluate_energy(split_r2, model, up, 0.05).value
              - lg.evaluate_energy(split_r2, model, um, 0.05).value) / (2 * h)
        assert abs(inner_l2(g, phi) - fd) <= 1e-6 * (1 + lg.lp_norm(phi, 2))
    # interpolation inequality on 100 random fields
    for i in range(100):
        u = random_field(box, rng)
        for p, q in ((2, 4), (2, 6), (4, 8)):
            lhs = lg.lp_norm(u, q) ** q
            rhs = lg.lp_norm(u, p) ** p * lg.lp_norm(u, np.inf) ** (q - p)
            assert lhs <= rhs * (1 + 1e-12)
    report(2, 30.0, ["split_r2"], started,
           "summation by parts, finite-difference gradient, interpolation")


def test_criterion_3_constants(split_r3):
    started = time.perf_counter()
    kappa0 = lg.best_hardy_constant(lg.BoxDomain(3, 0)).kappa
    assert kappa0 == pytest.approx(1.0 / 6.0, abs=1e-14)
    kappas = [lg.best_hardy_constant(lg.BoxDomain(3, r)).kappa
              for r in (2, 4, 6, 8)]
    assert all(b >= a - 1e-10 for a, b in zip(kappas, kappas[1:]))
    pencil = lg.rho_plus(split_r3).value
    descent = rho_plus_descent(split_r3, n_starts=10, seed=0)
    assert pencil > 0
    assert abs(pencil - descent) <= 1e-6 * max(1.0, pencil)
    report(3, 300.0, ["split_r3"], started,
           f"kappa(0)=1/6, kappa(2..8)={[round(k, 6) for k in kappas]} "
           f"non-decreasing; rho_plus={pencil:.9f} by two methods")


def test_criterion_4_ground_state(split_r6, model, ground_r6, split_r2):
    started = time.perf_counter()
    l2 = lg.lp_norm(ground_r6.u, 2)
    assert ground_r6.residual_full <= 1e-8 * (1 + l2)
    assert ground_r6.c_rho > 0
    assert abs(ground_r6.residual_along_u) <= 1e-8 * (1 + l2 ** 2)
    assert ground_r6.residual_along_minus <= 1e-8
    identity = 0.25 * lg.lp_norm(ground_r6.u, 4) ** 4
    assert abs(ground_r6.c_rho - identity) <= 1e-8 * max(1.0, identity)
    # regression pin: value frozen from the first converged run
    assert ground_r6.c_rho == pytest.approx(1.832008410336, rel=1e-6)

    # 5^3 instance, box-global problem: level agrees with an independent
    # 50-start brute-force Newton oracle
    small = lg.solve_ground_state(split_r2, model, 0.0,
                                  lg.SolverConfig(seed=1, multistart=6))
    oracle = critical_levels(split_r2.box, split_r2.operator, p=4.0,
                             n_starts=50, seed=0)
    assert oracle, "brute-force oracle found no nontrivial critical points"
    assert abs(min(oracle) - small.c_rho) <= 1e-8
    report(4, 600.0, ["split_r6", "ground_r6", "split_r2"], started,
           f"c_0 = {ground_r6.c_rho:.12f} at residual "
           f"{ground_r6.residual_full:.2e}; 5^3 level matches brute force")


def test_criterion_5_level_ordering(sweep_r6):
    started = time.perf_counter()
    c0 = sweep_r6[-1].c_rho
    for rec in sweep_r6[:-1]:
        assert rec.c_rho <= c0 + 1e-8, f"ordering violated at rho={rec.rho}"
    report(5, 1800.0, ["sweep_r6"], started,
           "c_rho <= c_0 + 1e-8 along {0.4, 0.2, 0.1, 0.05} rho_max")


def test_criterion_6_limit_behavior(sweep_r6, split_r6):
    started = time.perf_counter()
    baseline = sweep_r6[-1]
    gaps = [abs(r.c_rho - baseline.c_rho) for r in sweep_r6[:-1]]
    assert all(b <= a + 1e-8 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.02 * baseline.c_rho
    assert sweep_r6[-2].d_to_baseline <= 0.05 * baseline.u_norm
    record_report = lg.convergence_report(sweep_r6[:-1], baseline)
    assert record_report["flags"]["level_ordering_ok"]
    assert record_report["flags"]["final_gap_ok"]
    assert record_report["flags"]["final_distance_ok"]
    report(6, 1800.0, ["sweep_r6", "split_r6"], started,
           f"final gap {gaps[-1]:.3e} <= 2% of c_0, recentered distance "
           f"{sweep_r6[-2].d_to_baseline:.3e} <= 5% of |u_0| "
           f"(fit slope {record_report['slope']})")


def test_criterion_7_maximality_certificates(split_r6, model, ground_r6, sweep_r6):
    started = time.perf_counter()
    checked = 0
    for rho, field in [(0.0, ground_r6.u)] + [(r.rho, r.field) for r in sweep_r6]:
        ok, worst = lg.maximality_certificate(
            split_r6, model, field, rho, seed=123)
        assert ok, f"certificate violated by {worst:.3e} at rho={rho}"
        checked += 1
    report(7, 600.0, [], started,
           f"J(u) >= J(t u + v) on 200 samples at {checked} accepted states")


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        cfg_solve = write_config(tmp_path, name=f"solve_{run}.cfg")
        assert main(["certify-gap", "--config", str(cfg_solve),
                     "--out", str(base)]) == 0
        assert main(["constants", "--config", str(cfg_solve),
                     "--out", str(base)]) == 0
        assert main(["solve", "--config", str(cfg_solve),
                     "--out", str(base)]) == 0
        assert main(["validate", "--config", str(cfg_solve),
                     "--out", str(base)]) == 0
        cfg_sweep = write_config(
            tmp_path, name=f"sweep_{run}.cfg",
            **{"box.radius": "3", "rho.mode": "fraction",
               "rho.values": "0.4, 0.2, 0.1, 0.0",
               "solver.multistart": "2",
               "solver.max_boundary_mass": "0.25"})
        assert main(["sweep", "--config", str(cfg_sweep),
                     "--out", str(base / "sweep")]) == 0
        outputs.append(base)
    first, second = outputs
    compared = 0
    for path in sorted(first.rglob("*")):
        if path.is_file():
            twin = second / path.relative_to(first)
            assert twin.exists(), f"missing artifact {twin}"
            assert path.read_bytes() == twin.read_bytes(), \
                f"artifact differs between runs: {path.name}"
            compared += 1
    assert compared >= 10
    report(8, 600.0, [], started,
           f"{compared} artifacts byte-identical across repeated runs")
