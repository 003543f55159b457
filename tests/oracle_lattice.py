"""Stencil forms of the discrete calculus, for checking the package's.

The package assembles the Laplacian as a sparse matrix (`laplacian_matrix`)
and sums the Dirichlet form over lattice edges (`dirichlet_form`).  Here the
Laplacian is summed as neighbor differences on the zero-padded grid and the
carre du champ site by site, as second derivations of the same objects.
`site_of` and `inner_l2` are small helpers of the tests."""

import numpy as np

from latticegap.errors import InvalidInputError
from latticegap.lattice import LatticeField


def _check_same_box(u, v):
    if u.box != v.box:
        raise InvalidInputError("fields live on different boxes")


def site_of(box, index):
    """The site at enumeration index `index` of the box."""
    if not 0 <= index < box.site_count:
        raise InvalidInputError(f"index {index} out of range [0, {box.site_count})")
    return np.array(np.unravel_index(index, box.shape)) - box.radius


def laplacian_apply(u):
    """Discrete Laplacian  (Delta u)(x) = sum_{y~x} (u(y) - u(x)),  u = 0 off-box.

    Summed as neighbor differences, so constant fields give exact zeros at
    interior sites.
    """
    gp = np.pad(u.grid, 1)
    n = u.box.dimension
    core = tuple(slice(1, -1) for _ in range(n))
    out = np.zeros(u.box.shape)
    for axis in range(n):
        for step in (1, -1):
            sl = list(core)
            sl[axis] = slice(1 + step, gp.shape[axis] - 1 + step)
            out += gp[tuple(sl)] - u.grid
    return LatticeField(u.box, out.ravel())


def carre_du_champ(u, site, v=None):
    """Pointwise gradient form  Gamma(u,v)(x) = 1/2 sum_{y~x} (u(y)-u(x))(v(y)-v(x)).

    With v omitted this is the squared gradient length Gamma(u)(x).  The site
    must lie inside the box; neighbors outside contribute through the zero
    extension.
    """
    if v is None:
        v = u
    _check_same_box(u, v)
    site = np.asarray(site, dtype=int)
    if not u.box.contains(site):
        raise InvalidInputError(f"site {tuple(site)} outside box")
    ux, vx = u.at(site), v.at(site)
    total = 0.0
    for axis in range(u.box.dimension):
        for step in (1, -1):
            y = site.copy()
            y[axis] += step
            total += (u.at(y) - ux) * (v.at(y) - vx)
    return 0.5 * total


def inner_l2(u, v):
    _check_same_box(u, v)
    return float(u.values @ v.values)
