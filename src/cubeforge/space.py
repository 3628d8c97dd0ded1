"""Finite quasi-metric point sets.

A space is a set of point ids 0..n-1 with a symmetric distance that is
positive off the diagonal and satisfies the inflated triangle inequality
rho(x, y) <= tri_const * (rho(x, z) + rho(z, y)). Balls are strict:
ball(x, r) = {y : rho(y, x) < r}. Distances live either in a dense table
(n <= TABLE_CAP) or behind a block oracle, (ids, cols) -> the (len(ids),
len(cols)) block, so the same API scales to spaces where an n x n table
would not fit. Coordinate distances come from one kernel, `_coord_dists`,
which computes exactly the requested block.

Validation proves what the constructions rely on. Every distance must be
finite, and every dense table is checked whole for positivity and
symmetry. A coordinate space (`from_coords`, `from_line`) proves its
declared triangle constant by a rounding-error certificate
(`_euclid_certificate`) read off the positivity pass's minimum gap, dense
or not. Any other dense table, or a coordinate space whose certificate
fails its range condition or exceeds the declared bound, has its constant
computed exactly by one blocked min-plus kernel. Any other oracle space
(above TABLE_CAP) must declare an analytic bound on the constant, which a
seeded sample of triples then asserts; without one it is refused.

Every ball is a prefix of its center's stably sorted distance row; every
reader of balls sweeps them through `ball_blocks`, a block of centers at a
time, with `ball_radii`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .constants import _REL_TOL
from .errors import (BadSpec, NegativeDistance, SymmetryViolation, ZeroDistance,
                     require_id)

TABLE_CAP = 2048
EXHAUSTIVE_TRIPLE_CAP = TABLE_CAP
SAMPLED_TRIPLES = 1_000_000
# distance cells per block of ball_blocks, and the bound on the sharp
# maximal sweep's (rows, n, n) sub-blocks where n * n is below it
BALL_CELLS = 1 << 15
_SAMPLE_BATCH = 1 << 18
_BLOCK = 32


@dataclass
class SpaceProfile:
    """Numeric profile of a space.

    tri_const: triangle inflation constant A0. A coordinate space stores
    its declared bound, proven by the rounding-error certificate when that
    lies within it. Otherwise a dense table stores the exact constant,
    unless a declared analytic bound within 1e-9 of it (or above it) is
    given, which is then stored; an oracle space stores its declared
    bound, asserted on sampled triples.
    """

    tri_const: float
    diam: float
    min_gap: Optional[float]

    def to_json(self):
        return {
            "A_0": float(self.tri_const),
            "diam": float(self.diam),
            "min_gap": None if self.min_gap is None else float(self.min_gap),
        }

    @classmethod
    def from_json(cls, d):
        return cls(tri_const=float(d["A_0"]),
                   diam=float(d["diam"]),
                   min_gap=None if d.get("min_gap") is None else float(d["min_gap"]))


class QuasiMetricSpace:
    """Point ids 0..n-1 plus a distance accessor and a validated profile."""

    def __init__(self, n, table=None, block_fn=None, coords=None,
                 profile=None, generator=None):
        if table is None and block_fn is None:
            raise BadSpec("need a distance table or a block oracle")
        self.n = int(n)
        self.table = table
        self._block_fn = block_fn
        self.coords = coords
        self.profile = profile
        self.generator = generator

    # -- distances ---------------------------------------------------------

    def dist_row(self, i: int) -> np.ndarray:
        if self.table is not None:
            return self.table[i]
        return self.dist_rows([i])[0]

    def dist_rows(self, ids, cols=None) -> np.ndarray:
        """Distances from each of `ids` (rows) to `cols` (default: every
        point), as one (len(ids), len(cols)) array. An oracle fills the
        output a chunk of _BLOCK rows, or more rows up to _BLOCK * n cells,
        at a time."""
        ids = np.asarray(ids, dtype=int)
        if self.table is not None and cols is None:
            return self.table[ids]
        cols = np.arange(self.n) if cols is None else np.asarray(cols, dtype=int)
        if self.table is not None:
            # the same gather as table[np.ix_(ids, cols)], with the smaller
            # intermediate block read first
            if ids.size <= cols.size:
                return self.table.take(ids, 0).take(cols, 1)
            return self.table.take(cols, 1).take(ids, 0)
        step = max(_BLOCK, _BLOCK * self.n // max(cols.size, 1))
        if ids.size <= step:
            return self._block_fn(ids, cols)
        out = np.empty((ids.size, cols.size))
        for x0 in range(0, ids.size, step):
            out[x0:x0 + step] = self._block_fn(ids[x0:x0 + step], cols)
        return out

    def dist_pairs(self, ids, cols) -> np.ndarray:
        """Distances d(ids[i], cols[i]) for two aligned id arrays."""
        ids, cols = np.asarray(ids, dtype=int), np.asarray(cols, dtype=int)
        if self.table is not None:
            return self.table[ids, cols]
        return _gather(self._block_fn, ids, cols)[0]

    def dist(self, i: int, j: int) -> float:
        if self.table is not None:
            return float(self.table[i, j])
        return float(self.dist_rows([i], [j])[0, 0])

    def points(self):
        return range(self.n)

    # -- derived geometry ----------------------------------------------------

    def _above_diam(self) -> float:
        d = self.profile.diam if self.profile is not None else self._diam_scan()
        return d * 1.25 + 1.0

    def _diam_scan(self) -> float:
        return max(float(self.dist_row(i).max()) for i in self.points())

    def ball_blocks(self):
        """Every ball of the space, as prefixes of sorted distance rows,
        for consecutive blocks of centers in ascending order.

        Yields (ids, order, sorted_rows, last) per block of at most
        max(1, BALL_CELLS // n) centers ids. order[i] is the stable argsort
        of center ids[i]'s row and sorted_rows[i] that row in this order;
        last[i, j] marks the ranks j that end a ball: order[i, :j + 1] is
        ball(ids[i], r) for r = sorted_rows[i, j + 1] (any radius above the
        diameter for j = n - 1): see ball_radii. Serves tables and oracles.
        """
        step = max(1, BALL_CELLS // max(self.n, 1))   # an empty space has none
        for c0 in range(0, self.n, step):
            ids = np.arange(c0, min(c0 + step, self.n))
            rows = (self.table[c0:c0 + step] if self.table is not None
                    else self.dist_rows(ids))
            order = np.argsort(rows, axis=1)
            sorted_rows = np.take_along_axis(rows, order, axis=1)
            last = np.ones(rows.shape, dtype=bool)
            np.less(sorted_rows[:, :-1], sorted_rows[:, 1:], out=last[:, :-1])
            # a row without ties sorts one way; rows with ties sort stably
            tied = np.flatnonzero(~last.all(axis=1))
            if tied.size:
                order[tied] = np.argsort(rows[tied], axis=1, kind="stable")
            yield ids, order, sorted_rows, last

    def realized_balls(self):
        """All distinct balls of the space, deduplicated.

        Returns (masks, meta) where masks is a boolean (m, n) array and
        meta[i] = (center, radius) names one realization of ball i. Unused:
        the analysis reads ball_blocks; benchmarks/tracer.py still wraps it.
        """
        if self.table is None:
            raise BadSpec("realized_balls needs a dense distance table")
        masks, meta = [], []
        top = self._above_diam()
        for ids, _, sorted_rows, last in self.ball_blocks():
            for c, radii, end in zip(ids.tolist(),
                                     ball_radii(sorted_rows, top), last):
                for r in radii[end].tolist():
                    masks.append(self.table[c] < r)
                    meta.append((c, r))
        # each distinct mask's first realization, in order of appearance,
        # from one sort of the masks as opaque items
        masks = np.array(masks)
        items = masks.view(np.dtype((np.void, masks.shape[1]))).ravel()
        first = np.sort(np.unique(items, return_index=True)[1])
        return masks[first], [meta[i] for i in first.tolist()]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_table(cls, table, coords=None, generator=None, declared_tri_const=None):
        table = np.asarray(table, dtype=float)
        n = table.shape[0]
        space = cls(n, table=table, coords=coords, generator=generator)
        space.profile = validate_quasi_metric(range(n), table,
                                              declared_tri_const=declared_tri_const)
        return space

    @classmethod
    def from_coords(cls, coords, generator=None, declared_tri_const=1.0):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim < 2:   # a flat list is points on a line
            coords = coords.reshape(-1, 1)
        table = _coords_table(coords) if len(coords) <= TABLE_CAP else None
        return cls._euclidean(table, coords, generator, declared_tri_const)

    @classmethod
    def from_line(cls, positions, generator=None):
        """1-d point set with the absolute-difference metric."""
        pos = np.asarray(sorted(positions), dtype=float)
        return cls._euclidean(np.abs(pos[:, None] - pos[None, :]),
                              pos.reshape(-1, 1), generator, 1.0)

    @classmethod
    def _euclidean(cls, table, coords, generator, declared_tri_const):
        """The Euclidean space of coords, validated with its certificate:
        `table` is `_coords_table(coords)` or from_line's |a - b|, or None
        for a block oracle on `_coord_dists`. Either way every distance is
        the exact one rounded as `_coord_dists` documents: each axis's
        difference and square once, the squares summed in numpy's pairwise
        order, and the root once."""
        n = len(coords)
        block_fn = None if table is not None else partial(_coord_dists, coords)
        space = cls(n, table=table, block_fn=block_fn, coords=coords,
                    generator=generator)
        space.profile = validate_quasi_metric(
            range(n), space.dist_rows if table is None else table,
            declared_tri_const=declared_tri_const, coord_dim=coords.shape[1])
        return space

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        """The space as a JSON document. A dense table goes in `distances`,
        row-major, unless from_json rebuilds it and the profile from the
        coordinates alone (`_coords_rebuild`); a power_snowflake without
        one is rebuilt from its generator, so an inline base is refused."""
        out = {
            "n": self.n,
            "coords": None if self.coords is None else np.asarray(self.coords).tolist(),
            "generator": self.generator,
            "profile": None if self.profile is None else self.profile.to_json(),
        }
        if self.table is not None and self.n <= TABLE_CAP \
                and not self._coords_rebuild():
            out["distances"] = self.table.ravel().tolist()
        elif _snowflake_base(self.generator) == "inline":
            raise BadSpec("no table to write, and no generator rebuilds a "
                          "power_snowflake of an inline base")
        return out

    def _coords_rebuild(self) -> bool:
        """Whether from_coords(self.coords) gives back this space: the table
        bit for bit, compared _BLOCK rows at a time, and the profile, whose
        declared constant from_coords takes to be 1. A power_snowflake's
        coordinates are its base's."""
        if self.coords is None or self.profile is None \
                or self.profile.tri_const != 1.0 \
                or _snowflake_base(self.generator) is not None:
            return False
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim < 2:   # as from_coords reads a flat list
            coords = coords.reshape(-1, 1)
        every = np.arange(self.n)
        return len(coords) == self.n and all(
            _coord_dists(coords, every[x0:x0 + _BLOCK], every).tobytes()
            == self.table[x0:x0 + _BLOCK].tobytes()
            for x0 in range(0, self.n, _BLOCK))

    @classmethod
    def from_json(cls, d):
        """Read a space back: a document with `distances` keeps its table and
        profile; one without goes through generate_space (a power_snowflake)
        or from_coords, which certify the profile again."""
        n = int(d["n"])
        coords = None if d.get("coords") is None else np.asarray(d["coords"], dtype=float)
        if coords is not None and coords.shape[:1] != (n,):
            raise BadSpec(f"n = {n} but the document's coordinates have "
                          f"shape {coords.shape}")
        if d.get("distances") is not None:
            dist = np.asarray(d["distances"], dtype=float)
            if dist.size != n * n:
                raise BadSpec(f"n = {n} needs {n * n} distances, "
                              f"the document lists {dist.size}")
            table = dist.reshape(n, n)
            space = cls(n, table=table, coords=coords, generator=d.get("generator"))
        elif _snowflake_base(d.get("generator")) is not None:
            space = generate_space(d["generator"])
            if space.n != n:
                raise BadSpec(f"n = {n} but the document's generator builds "
                              f"{space.n} points")
            return space
        elif coords is not None:
            return cls.from_coords(coords, generator=d.get("generator"))
        else:
            raise BadSpec("serialized space has neither distances nor coords")
        if d.get("profile") is not None:
            space.profile = SpaceProfile.from_json(d["profile"])
        return space


def _coords_table(coords) -> np.ndarray:
    """Euclidean distance table of (n, dim) coords, filled by the kernel
    _BLOCK rows at a time (`dist_rows`), so no (n, n, dim) difference
    array is ever held."""
    n = len(coords)
    oracle = QuasiMetricSpace(n, block_fn=partial(_coord_dists, coords))
    return oracle.dist_rows(np.arange(n))


def _coord_dists(coords, ids, cols) -> np.ndarray:
    """Euclidean distances from coords[ids] to coords[cols] of (n, dim)
    coords, as one (len(ids), len(cols)) array: the one coordinate kernel
    behind the dense table and the block oracle.

    Each axis's differences are one np.subtract.outer, squared in place, so
    no (len(ids), len(cols), dim) array is held. `_pairwise_sum` adds the
    squares in numpy's own order (one after the other below 8 axes, eight
    accumulators up to 128, two halves above), so every distance equals
    np.sqrt((diff * diff).sum(axis=-1)) bit for bit.
    """
    pts, qts = coords[ids], coords[cols]
    scratch = np.empty((len(pts), len(qts)))

    def square(k, out=None):
        out = np.subtract.outer(pts[:, k], qts[:, k], out=out)
        return np.multiply(out, out, out=out)

    dim = coords.shape[1]
    if dim == 0:   # the empty sum, as numpy's
        return np.zeros_like(scratch)
    return np.sqrt(_pairwise_sum(square, 0, dim, scratch))


def _pairwise_sum(term, lo, hi, scratch):
    """term(lo) + ... + term(hi - 1) in the order numpy's `.sum(axis=-1)`
    adds a contiguous axis (pairwise summation), where term(k, out) returns
    array k, in `out` when given (the shared `scratch`):
      - fewer than 8 terms: one after the other;
      - 8 to 128: eight accumulators, r[j] summing terms j, j + 8, ... of
        the whole multiples of 8, combined as
        ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
        leftover terms added one after the other;
      - above 128: the sum of two halves, the first one half the count
        rounded down to a multiple of 8.
    numpy starts from 0, and 0 + x is x for the squares summed here."""
    m = hi - lo
    if m > 128:
        half = m // 2 - m // 2 % 8
        res = _pairwise_sum(term, lo, lo + half, scratch)
        res += _pairwise_sum(term, lo + half, hi, scratch)
        return res
    if m < 8:
        res, rest = term(lo), lo + 1
    else:
        acc, rest = [term(lo + j) for j in range(8)], hi - m % 8
        for k0 in range(lo + 8, rest, 8):
            for j, r in enumerate(acc):
                r += term(k0 + j, scratch)
        for step in (1, 2, 4):
            for j in range(0, 8, 2 * step):
                acc[j] += acc[j + step]
        res = acc[0]
    for k in range(rest, hi):
        res += term(k, scratch)
    return res


def _euclid_certificate(dim, min_gap) -> Optional[float]:
    """A proven upper bound on the triangle constant of the Euclidean
    distances of dim-dimensional coordinates as `_coord_dists` rounds them,
    or None when the range condition below fails. `min_gap` is the smallest
    off-diagonal distance (inf for fewer than two points), read by the
    positivity pass after it has proven every distance finite.

    Exact Euclidean distance d obeys the triangle inequality. Let u = 2**-53
    be the unit roundoff and gamma_m = m*u / (1 - m*u). In the model
    fl(a op b) = (a op b)(1 + e) + f, |e| <= u, f = 0, except that a
    product below the normal range has e = 0 and |f| <= 2**-1075 (a sum or
    difference that small is exact; Higham 2002, ch. 2-3), `_coord_dists`
    rounds, per pair:
      - each coordinate difference once, which enters its square twice: 2;
      - each square once: 1, plus |f| <= 2**-1075. Over dim squares that is
        at most dim * 2**-1075 <= u * d**2 whenever d**2 >= dim * 2**-1022,
        which moves each term by at most one more u: 1;
      - the sum of the dim squares, in any order of additions: at most
        dim - 1 roundings on each term.
    So the computed square is d**2 (1 + t) with |t| <= gamma_{dim+3}; the
    root keeps |sqrt(1 + t) - 1| <= |t| and rounds once more. Hence each
    stored distance is d_hat = d (1 + theta), |theta| <= gamma_m, with
    m = dim + 4, and
        d_hat(x, y) <= (1 + gamma_m) (d(x, z) + d(z, y))
                    <= (1 + gamma_m) / (1 - gamma_m) (d_hat(x, z) + d_hat(z, y)).
    The factor is 1 / (1 - 2 m u) <= 1 + 4 m u, which is returned: exactly
    representable, 1 + 2.7e-15 at dim = 2, far inside the 1e-9 slack.
    from_line's |a - b| rounds once and never with an error f, so there
    m = 1 and no range condition is needed; the dim = 1 bound (m = 5) and
    its condition cover it.

    Range condition:
      - every distance is finite, so no difference, square, sum or root
        overflowed (an infinity stays infinite through the sum and the root;
        a non-finite coordinate puts NaN on its diagonal);
      - every off-diagonal distance is at least sqrt(dim * 2**-1020). Then
        the computed square is at least dim * 2**-1021, and so, with at most
        dim * 2**-1074 of error from underflow plus a relative gamma, the
        exact d**2 is at least dim * 2**-1022, as the square step needs.
    The positivity pass has proven the first part, so the second reads:
    min_gap is at least that floor.
    """
    if min_gap >= math.sqrt(dim * 2.0 ** -1020):
        return 1.0 + (dim + 4) * 2.0 ** -51
    return None


# -- validation ----------------------------------------------------------------


def validate_quasi_metric(points, distance, declared_tri_const=None,
                          exhaustive_cap=EXHAUSTIVE_TRIPLE_CAP, *,
                          coord_dim=None) -> SpaceProfile:
    """Check symmetry/positivity and measure the triangle inflation constant.

    `distance` may be a dense (n, n) array or a block oracle (ids, cols) ->
    the (len(ids), len(cols)) block. Dense tables are checked whole:
    finiteness and positivity (the first faulty row, a NaN or infinite
    entry before a negative one before a nonzero diagonal before a zero
    off-diagonal entry), then symmetry to rtol 1e-12. An oracle above the
    exhaustive cap gets the first check, _BLOCK rows per call. `coord_dim`
    says the distances are coordinate distances of that dimension as
    `_coord_dists` (or from_line's |a - b|) rounds them: when the rounding
    certificate `_euclid_certificate` read off the minimum gap lies within
    1e-9 of a declared bound (or below it), the declared bound is returned
    without measuring. Otherwise, for n <= exhaustive_cap (an oracle is read
    into a table first) the constant is exact over all ordered triples.
    Above it only a declared analytic bound is accepted: it is asserted on
    SAMPLED_TRIPLES seeded triples and returned. A declared bound also wins
    over an exact value within 1e-9 of it.
    """
    pts = list(points)
    n = len(pts)
    if pts != list(range(n)):
        raise BadSpec("points must be ids 0..n-1")
    exhaustive = n <= exhaustive_cap
    if not exhaustive and declared_tri_const is None:
        raise BadSpec(f"n = {n} is above the exhaustive cap {exhaustive_cap}: "
                      f"the triangle constant cannot be proven, declare a bound")
    every = np.arange(n)
    if exhaustive and not isinstance(distance, np.ndarray):
        distance = np.asarray(distance(every, every), dtype=float)

    if isinstance(distance, np.ndarray):
        d = np.asarray(distance, dtype=float)
        diam, gap = _check_rows(d)
        symmetric = _check_symmetry(d)
        block_of = QuasiMetricSpace(n, table=d).dist_rows
    else:
        block_of, diam, gap = distance, 0.0, np.inf
        for x0 in range(0, n, _BLOCK):
            top, low = _check_rows(np.asarray(
                block_of(every[x0:x0 + _BLOCK], every), dtype=float), x0)
            diam, gap = max(diam, top), min(gap, low)

    certified = (None if coord_dim is None
                 else _euclid_certificate(coord_dim, gap))
    if (certified is not None and declared_tri_const is not None
            and certified <= declared_tri_const * (1 + _REL_TOL)):
        tri = certified
    elif exhaustive:
        tri = _tri_const_table(d, symmetric)
    else:
        tri = _tri_const_sampled(n, block_of)
    if declared_tri_const is not None:
        if tri > declared_tri_const * (1 + _REL_TOL):
            raise BadSpec(
                f"measured triangle constant {tri} exceeds declared bound "
                f"{declared_tri_const}")
        tri = float(declared_tri_const)
    return SpaceProfile(tri_const=max(1.0, tri), diam=diam,
                        min_gap=None if gap == np.inf else gap)


def _check_rows(rows, x0=0):
    """Raise for the first faulty one of rows x0, x0 + 1, ...: a non-finite
    entry (NaN or +-inf), else a negative entry, else a nonzero diagonal,
    else a zero off-diagonal entry. Returns the largest entry and the
    smallest positive one."""
    ii = np.arange(len(rows))
    diag = rows[ii, x0 + ii]
    # a row's min and max are NaN when it holds one, so this also finds NaN
    low = rows.min(axis=1, initial=np.inf)
    top = rows.max(axis=1, initial=-np.inf)
    bad = np.flatnonzero(~((low >= 0) & (top < np.inf)) | (diag != 0)
                         | ((rows == 0).sum(axis=1) > (diag == 0)))
    if bad.size:
        x, row = x0 + int(bad[0]), rows[bad[0]]
        odd = np.flatnonzero(~np.isfinite(row))
        neg, zeros = np.flatnonzero(row < 0), np.flatnonzero(row == 0)
        if odd.size:
            raise BadSpec(f"d({x},{int(odd[0])}) = {float(row[odd[0]])!r} "
                          f"is not a finite distance")
        if neg.size:
            raise NegativeDistance(x, int(neg[0]), float(row[neg[0]]))
        if row[x] != 0:
            raise BadSpec(f"d({x},{x}) = {row[x]!r}, expected 0")
        raise ZeroDistance(x, int(zeros[zeros != x][0]))
    return (float(top.max(initial=0.0)),
            float(np.min(rows, where=rows > 0, initial=np.inf)))


def _check_symmetry(d) -> bool:
    """Raise for the first pair (x, y), in row-major order, with d(x, y) and
    d(y, x) apart by more than rtol 1e-12; return whether d is exactly
    symmetric."""
    if np.array_equal(d, d.T):
        return True
    far = np.argwhere(~np.isclose(d, d.T, rtol=1e-12, atol=0))
    if far.size:
        i, j = map(int, far[0])
        raise SymmetryViolation(i, j, float(d[i, j]), float(d[j, i]))
    return False


def _tri_const_table(d, symmetric):
    """Exact triangle constant of a dense table: the larger of 1 and the
    max over x != y of d(x, y) / min_z (d(x, z) + d(z, y)).

    Division is monotone in the denominator, so dividing by the smallest
    sum gives bit for bit the largest ratio over z. Rows go in blocks of
    _BLOCK; for each y one (block, n) sum d(X, z) + d(z, y) is reduced
    along z. On an exactly symmetric table column y is row y, and the ratios
    of (x, y) and (y, x) are equal, so a block needs only the columns from
    its first row on.
    """
    n = len(d)
    cols = d if symmetric else d.T   # cols[y][z] = d(z, y)
    sums = np.empty((min(_BLOCK, n), n))
    best = np.empty_like(sums)
    worst = 1.0
    for x0 in range(0, n, _BLOCK):
        rows = d[x0:x0 + _BLOCK]
        b, y0 = len(rows), x0 if symmetric else 0
        bst, s = best[:b, :n - y0], sums[:b]
        for y in range(y0, n):
            np.add(rows, cols[y], out=s)
            np.min(s, axis=1, out=bst[:, y - y0])
        bst[np.arange(b), np.arange(x0 - y0, x0 - y0 + b)] = np.inf
        np.divide(rows[:, y0:], bst, out=bst)
        worst = max(worst, float(bst.max()))
    return worst


def _tri_const_sampled(n, block_of, n_samples=SAMPLED_TRIPLES, seed=0):
    """Largest ratio over n_samples seeded triples (x, y != x, z): a lower
    estimate, only ever checked against a declared bound."""
    rng = np.random.default_rng(seed)
    worst = 1.0
    for done in range(0, n_samples, _SAMPLE_BATCH):
        m = min(_SAMPLE_BATCH, n_samples - done)
        xs, ys, zs = rng.integers(0, n, (3, m))
        keep = ys != xs
        xs, ys, zs = xs[keep], ys[keep], zs[keep]
        dxy, dxz = _gather(block_of, xs, ys, zs)
        (dzy,) = _gather(block_of, zs, ys)
        worst = float(np.max(dxy / (dxz + dzy), initial=worst))
    return worst


def _gather(block_of, ids, *cols):
    """d(ids[i], c[i]) for each aligned column array c, as one (len(cols),
    len(ids)) array, with one block oracle call per distinct id."""
    order = np.argsort(ids, kind="stable")
    uniq, starts = np.unique(ids[order], return_index=True)
    out = np.empty((len(cols), ids.size))
    for i, sel in zip(uniq.tolist(), np.split(order, starts[1:])):
        row = block_of(np.array([i]), np.concatenate([c[sel] for c in cols]))
        out[:, sel] = np.asarray(row, dtype=float).reshape(len(cols), sel.size)
    return out


# -- balls -----------------------------------------------------------------------


def ball(space: QuasiMetricSpace, center: int, radius: float) -> np.ndarray:
    """Ids strictly closer than `radius` to `center` (always includes it)."""
    center = require_id("point", center, 0, space.n, ")")
    return np.where(space.dist_row(center) < radius)[0]


def ball_radii(sorted_rows, top: float) -> np.ndarray:
    """The radius of the prefix ending at each rank of ball_blocks' sorted
    rows: sorted_rows[:, j + 1], and `top` (above the diameter) at the last
    rank. A prefix cut inside a tie gets the radius of the ball below it."""
    radii = np.empty(np.shape(sorted_rows))
    radii[:, :-1], radii[:, -1] = sorted_rows[:, 1:], top
    return radii


# -- generators -------------------------------------------------------------------


# the keys each kind reads; any other key is refused rather than ignored
_SPEC_KEYS = {"euclidean_cloud": ("kind", "n", "dim", "box", "seed"),
              "power_snowflake": ("kind", "base", "exponent"),
              "geometric_line": ("kind", "levels", "delta")}


def _edge_gaps(rows, cube_of, own, eps=None) -> np.ndarray:
    """The edge-distance kernel: each point's distance to the nearest point
    outside its cube own[...] (0 when it lies outside it), inf when that
    cube is the whole space; rows and cube_of give every point's distance
    and cube on the last axis. Given eps: whether each gap is within each
    eps, inclusive, and never for a cube with no complement, even at inf."""
    gaps = np.where(cube_of != np.asarray(own)[..., None], rows,
                    np.inf).min(axis=-1)
    if eps is None:
        return gaps
    # an inf gap (no complement) turns nan, which is within no eps
    return np.less_equal.outer(np.where(gaps < np.inf, gaps, np.nan), eps)


def generate_space(spec: dict) -> QuasiMetricSpace:
    """Build one of the supported synthetic spaces from a descriptor dict.

    kinds: euclidean_cloud(n, dim, box, seed), power_snowflake(base, exponent),
    geometric_line(levels, delta).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise BadSpec(f"descriptor must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise BadSpec(f"unknown space kind {kind!r}")
    unknown = sorted(set(spec) - set(_SPEC_KEYS[kind]), key=str)
    if unknown:
        raise BadSpec(f"{kind}: unknown keys {unknown}")
    if kind == "euclidean_cloud":
        return _gen_cloud(spec)
    if kind == "power_snowflake":
        return _gen_snowflake(spec)
    return _gen_line(spec)


def _req(spec, key, typ=float, default=None):
    """spec[key], or `default` when given and the key is absent, as `typ`.
    BadSpec for a missing key or a boolean; an int field that is fractional
    is refused, not truncated."""
    if key not in spec and default is None:
        raise BadSpec(f"{spec['kind']}: missing {key!r}")
    value = spec.get(key, default)
    try:
        if isinstance(value, (bool, np.bool_)) or (
                typ is int and isinstance(value, float)
                and not value.is_integer()):
            raise ValueError
        return typ(value)
    except (TypeError, ValueError) as e:
        raise BadSpec(f"{spec['kind']}: bad {key!r}: {value!r}") from e


def _gen_cloud(spec):
    n = _req(spec, "n", int)
    dim = _req(spec, "dim", int, 2)
    box = _req(spec, "box", float, 1.0)
    seed = _req(spec, "seed", int, 0)
    if n < 1 or dim < 1 or box <= 0:
        raise BadSpec(f"euclidean_cloud: need n >= 1, dim >= 1, box > 0")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, box, size=(n, dim))
    gen = {"kind": "euclidean_cloud", "n": n, "dim": dim, "box": box, "seed": seed}
    return QuasiMetricSpace.from_coords(coords, generator=gen, declared_tri_const=1.0)


def _gen_snowflake(spec):
    s = _req(spec, "exponent", float)
    if s <= 0:
        raise BadSpec("power_snowflake: exponent must be positive")
    base = spec.get("base")
    if isinstance(base, dict):
        base = generate_space(base)
    if not isinstance(base, QuasiMetricSpace):
        raise BadSpec("power_snowflake: base must be a space or a descriptor")
    base_tri = base.profile.tri_const if base.profile else 1.0
    declared = max(1.0, base_tri ** s * (2.0 ** (s - 1.0) if s > 1 else 1.0))
    gen = {"kind": "power_snowflake", "exponent": s,
           "base": base.generator if base.generator else "inline"}
    if base.table is not None:
        return QuasiMetricSpace.from_table(base.table ** s, coords=base.coords,
                                           generator=gen, declared_tri_const=declared)
    space = QuasiMetricSpace(
        base.n, block_fn=lambda ids, cols: base.dist_rows(ids, cols) ** s,
        coords=base.coords, generator=gen)
    space.profile = validate_quasi_metric(range(base.n), space.dist_rows,
                                          declared_tri_const=declared)
    return space


def _snowflake_base(gen):
    """The innermost base of a power_snowflake descriptor (a descriptor, or
    "inline"); None for any other generator."""
    base = None
    while isinstance(gen, dict) and gen.get("kind") == "power_snowflake":
        gen = base = gen["base"]
    return base


def _gen_line(spec):
    levels = _req(spec, "levels", int)
    delta = _req(spec, "delta", float)
    if levels < 1:
        raise BadSpec("geometric_line: need levels >= 1")
    if not (0 < delta <= 0.5):
        raise BadSpec("geometric_line: need 0 < delta <= 1/2 so gaps stay >= 1")
    q = 1.0 / delta
    # cumulative geometric gaps 1, q, q^2, ...: min gap exactly 1,
    # diameter (q^levels - 1)/(q - 1) <= q^levels
    positions = np.concatenate([[0.0], np.cumsum(q ** np.arange(levels))])
    gen = {"kind": "geometric_line", "levels": levels, "delta": delta}
    return QuasiMetricSpace.from_line(positions, generator=gen)
