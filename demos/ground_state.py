"""Compute a gap soliton: the ground state of -Delta u + V u = |u|^2 u.

The energy is strongly indefinite (half the spectrum of A = -Delta + V is
negative), so the ground state is found by the reduced min-max: maximize
over each slab R+ w (+) X^-, minimize over unit w in X^+, then polish with
damped Newton.  Dirichlet walls support corner-pinned critical points below
the bulk soliton level, so the search filters boundary-localized candidates
(the interior state is the finite-box surrogate of the lattice soliton).
"""

import numpy as np

import latticegap as lg

potential = lg.checkerboard_potential(3, 1.0)
table = lg.bloch_band_edges(potential, grid=8)
box = lg.BoxDomain(3, 5)
split = lg.spectral_split(box, lg.assemble_operator(box, potential), table.gap)
model = lg.PowerNonlinearity(4.0)

config = lg.SolverConfig(seed=7, multistart=5, max_boundary_mass=0.25)
result = lg.solve_ground_state(split, model, 0.0, config)

print(f"ground state on the {box.side}^3 box")
print(f"  level c_0            = {result.c_rho:.12f}")
print(f"  gradient residual    = {result.residual.full:.2e}")
print(f"  Nehari residuals     = ({result.residual.along_u:.2e}, "
      f"{result.residual.along_minus:.2e})")
print(f"  winning start        = #{result.start_index}, "
      f"{result.outer_iterations} outer / {result.polish_iterations} polish steps")
print(f"  boundary mass        = {result.diagnostics['boundary_mass']:.2e}")

# the quartic level identity: at a critical point c = (1/2 - 1/p) |u|_p^p
identity = 0.25 * lg.lp_norm(result.u, 4) ** 4
print(f"  (1/2 - 1/4)|u|_4^4   = {identity:.12f}   (level identity)")

# the soliton decays away from its peak
print("\nprofile along the x-axis:")
for x in range(0, box.radius + 1):
    print(f"  u({x},0,0) = {result.u.at((x, 0, 0)):+.6f}")

# certificate: u maximizes the energy J_0, one SiteTerms, over its own slab
# R+ u (+) X^-
ok, bound = lg.maximality_certificate(lg.SiteTerms(split, model, 0.0), result.u)
print(f"\nmaximality certificate: J(t u + v) - J(u) <= {bound:.2e} for t in [0, 3], "
      f"v in X^- ({'holds' if ok else 'fails'})")

lg.write_field(result.u, "ground_state.field")
print("field written to ground_state.field")
