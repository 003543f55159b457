"""Reference Bloch reduction, one quasimomentum at a time.

Builds the |cell| x |cell| matrix with a site-major loop over the cell:
for each site, each axis and each step +1, -1, subtract the hopping phase
into the neighbour's column.  This is how `spectral.bloch_matrix` built
every matrix before it took a whole stack of quasimomenta at once; the
batched build must give the same matrices bit for bit.  Shares no code
with the package."""

import numpy as np


def bloch_matrix(potential, k):
    k = np.asarray(k, dtype=float)
    n = potential.dimension
    period = potential.period
    size = potential.cell_size
    cell_sites = np.indices(period).reshape(n, -1).T
    index = {tuple(s): i for i, s in enumerate(cell_sites)}
    mat = np.zeros((size, size), dtype=complex)
    mat[np.diag_indices(size)] = 2.0 * n + potential.cell[tuple(cell_sites.T)]
    for i, site in enumerate(cell_sites):
        for axis in range(n):
            for step in (1, -1):
                y = site.copy()
                y[axis] += step
                wrap = 0
                if y[axis] == period[axis]:
                    y[axis] = 0
                    wrap = 1
                elif y[axis] == -1:
                    y[axis] = period[axis] - 1
                    wrap = -1
                phase = np.exp(1j * wrap * k[axis] * period[axis])
                mat[i, index[tuple(y)]] -= phase
    return mat
