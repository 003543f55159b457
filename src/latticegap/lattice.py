"""Finite boxes of the integer lattice and the discrete calculus on them.

Fields live on the box {x in Z^N : max_i |x_i| <= R} and are extended by
zero outside, which makes the discrete Laplacian the Dirichlet one.  Site
enumeration is lexicographic in the coordinates (axis 0 most significant),
so index arithmetic matches row-major reshapes and Kronecker assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .jsonio import atomic_open, real

MAX_DIMENSION = 32  # site arrays have one axis per dimension; numpy 1.x allows 32


@dataclass(frozen=True)
class BoxDomain:
    """Truncation box {max-norm <= radius} of Z^N with a fixed site order."""

    dimension: int
    radius: int

    def __post_init__(self):
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise InvalidInputError(
                f"dimension must be in [1, {MAX_DIMENSION}], got {self.dimension}")
        if self.radius < 0:
            raise InvalidInputError(f"radius must be >= 0, got {self.radius}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.dimension

    @property
    def site_count(self) -> int:
        return self.side ** self.dimension

    @cached_property
    def sites(self) -> np.ndarray:
        """All sites as an (site_count, N) int array in enumeration order."""
        grids = np.meshgrid(*[np.arange(-self.radius, self.radius + 1)] * self.dimension,
                            indexing="ij")
        out = np.stack([g.ravel() for g in grids], axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """Euclidean |x|^2 per site."""
        out = (self.sites.astype(np.int64) ** 2).sum(axis=1).astype(float)
        out.flags.writeable = False
        return out

    @cached_property
    def graph_norms(self) -> np.ndarray:
        """Graph (l1) distance to the origin per site."""
        out = np.abs(self.sites.astype(np.int64)).sum(axis=1).astype(float)
        out.flags.writeable = False
        return out

    def contains(self, site) -> bool:
        site = np.asarray(site, dtype=int)
        if site.shape != (self.dimension,):
            raise InvalidInputError(
                f"site has shape {site.shape}, expected ({self.dimension},)")
        return bool(np.all(np.abs(site) <= self.radius))

    def index_of(self, site) -> int:
        """Enumeration index of an in-box site."""
        site = np.asarray(site, dtype=int)
        if not self.contains(site):
            raise InvalidInputError(
                f"site {tuple(site.tolist())} outside box of radius {self.radius}")
        return int(np.ravel_multi_index(tuple(site + self.radius), self.shape))


@dataclass(frozen=True)
class LatticeField:
    """Real field on a box, implicitly zero outside it."""

    box: BoxDomain
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.box.site_count,):
            raise InvalidInputError(
                f"values have shape {values.shape}, expected ({self.box.site_count},)")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("field values must be finite (no NaN/Inf)")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def grid(self) -> np.ndarray:
        """Values reshaped to the (side,)*N grid (read-only view)."""
        return self.values.reshape(self.box.shape)

    def at(self, site) -> float:
        """Value at a site, 0 outside the box."""
        if not self.box.contains(site):
            return 0.0
        return float(self.values[self.box.index_of(site)])


def zero_field(box: BoxDomain) -> LatticeField:
    return LatticeField(box, np.zeros(box.site_count))


def delta_field(box: BoxDomain, site=None) -> LatticeField:
    """Indicator of a single site (the origin by default)."""
    values = np.zeros(box.site_count)
    site = np.zeros(box.dimension, dtype=int) if site is None else np.asarray(site, dtype=int)
    values[box.index_of(site)] = 1.0
    return LatticeField(box, values)


def dirichlet_form(u: LatticeField, v: LatticeField) -> float:
    """Bilinear Dirichlet form: sum over lattice edges meeting the box of
    (u(y)-u(x))(v(y)-v(x)).  Equals (-Delta u, v)_2 by summation by parts."""
    if u.box != v.box:
        raise InvalidInputError("fields live on different boxes")
    gu, gv = np.pad(u.grid, 1), np.pad(v.grid, 1)
    total = 0.0
    for axis in range(u.box.dimension):
        total += float(np.sum(np.diff(gu, axis=axis) * np.diff(gv, axis=axis)))
    return total


def dirichlet_energy(u: LatticeField) -> float:
    """Total squared gradient, summed over the box enlarged by one layer."""
    return dirichlet_form(u, u)


def lp_norm(u: LatticeField, p: float) -> float:
    """Counting-measure l^p norm; p = inf gives the max of |u|."""
    if p == np.inf:
        return float(np.max(np.abs(u.values))) if u.values.size else 0.0
    if not p >= 1:  # also refuses NaN
        raise InvalidInputError(f"p must satisfy p >= 1 or p = inf, got {p}")
    return float(np.sum(np.abs(u.values) ** p) ** (1.0 / p))


def write_field(u: LatticeField, path) -> None:
    """Dump one line per site: "x_1 ... x_N value" in enumeration order."""
    # Python ints and floats from tolist() format faster than numpy scalars
    with atomic_open(path) as fh:
        for site, value in zip(u.box.sites.tolist(), u.values.tolist()):
            fh.write(" ".join(map(str, site)) + f" {real(value)}\n")


def read_field(path) -> LatticeField:
    """Read a field dump back; box geometry is inferred from the sites."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                try:
                    if len(parts) < 2:
                        raise ValueError("no site coordinates")
                    rows.append(([int(t) for t in parts[:-1]], float(parts[-1])))
                except ValueError as exc:
                    raise InvalidInputError(
                        f"{path}:{lineno}: expected 'x_1 ... x_N value', "
                        f"got {line!r}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"field file {path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise InvalidInputError(f"empty field file: {path}")
    dimension = len(rows[0][0])
    radius = max(max(abs(c) for c in site) for site, _ in rows)
    box = BoxDomain(dimension, radius)
    if len(rows) != box.site_count:
        raise InvalidInputError(
            f"field file has {len(rows)} sites, expected {box.site_count} "
            f"for a radius-{radius} box in dimension {dimension}")
    index = [box.index_of(site) for site, _ in rows]
    if len(set(index)) != len(index):
        raise InvalidInputError(f"field file {path} lists a site twice")
    values = np.empty(box.site_count)
    values[index] = [value for _, value in rows]
    return LatticeField(box, values)
