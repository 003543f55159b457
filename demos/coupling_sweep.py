"""Sweep the Hardy coupling rho -> 0+ and watch the ground state converge.

Two facts are theorem-backed for the admissible range: the baseline level
dominates (c_0 >= c_rho), and c_rho -> c_0 with the ground states
converging to the baseline (up to lattice translations on Z^N; on the
Dirichlet box the fields are compared as they are).  The sweep solves
each coupling warm-started from the previous one, then tabulates levels,
distances and the fitted decay rate of the level gap.
"""

import latticegap as lg

potential = lg.checkerboard_potential(3, 1.0)
table = lg.bloch_band_edges(potential, grid=8)
box = lg.BoxDomain(3, 5)
split = lg.spectral_split(box, lg.assemble_operator(box, potential), table.gap)
model = lg.PowerNonlinearity(4.0)

constants = lg.compute_constants(split)
print(f"admissible coupling bound rho_max = {constants.rho_max:.6f}")

plan = lg.SweepPlan(tuple(f * constants.rho_max for f in (0.4, 0.2, 0.1, 0.05))
                    + (0.0,))
config = lg.SolverConfig(seed=7, multistart=5, max_boundary_mass=0.25)
records = lg.sweep_rho(plan, split, model, config, constants=constants)

print(f"\n{'rho':>12} {'c_rho':>16} {'c_0 - c_rho':>13} {'dist to u_0':>12} {'sum G':>14}")
c0 = records[-1].c_rho
for rec in records:
    print(f"{rec.rho:12.6f} {rec.c_rho:16.10f} {c0 - rec.c_rho:13.3e} "
          f"{rec.d_to_baseline:12.3e} {rec.sum_G:14.10f}")

report = lg.convergence_report(records[:-1], records[-1])
print(f"\nfitted decay rate of |c_rho - c_0| vs rho: slope = {report['slope']:.3f}")
print("flags:", ", ".join(f"{k}={v}" for k, v in report["flags"].items()))
