"""The full family of shifted cube systems and its ball-covering query.

There is one system per pair label (l, m) with l in {0..L} and m in
{1..M}, K = (L+1)*M systems in all, indexed by the lexicographic bijection
t = l*M + m. System t realizes the specific selection rule for (l, m) (or its
pinned variant when a distinguished point is set); a random adjacent draw
shifts that label level by level, and the fixed family is the draw with no
shift. The systems differ at few levels, so the family is one level table
(`cubes.LevelTable`, which AdjacentFamily extends with the labels, the
covering constant, the pinned point and the draw's shifts). Readers index
the table; `family.system(t)` is a view over its arrays. The builder fills
it a level at a time: the distinct rows of one pick matrix of all K labels
per parent level are its center lists, each distinct (level, coarse, fine)
triple of them is linked once, in batches along the partial order's leading
sample axis, the distinct parent maps are its links (their `tight` flags
are derived where a document is written), and `cubes.close_table` closes
each level once per distinct (link, finer piece) pair, whatever its
centers.

find_containing_cubes answers "which system holds a single cube containing
this ball" for a block of centers and a radius matrix at once, such as a
block of ball_blocks: a ball of radius r gets the level k with
ratio**(k+2) < r <= ratio**(k+1), and each level of the block walks all its
centers once to their nearest reference points one level finer, whose pair
labels name the systems. find_containing_cube is the one-ball view. In
strict mode the returned cube contains the ball and its diameter is at most
C*r, with C the `covering_const` of `constants` at the family's coarsening:
2, or 3 for the pinned variant, which answers one level coarser.
verify_covering queries each block of ball_blocks once, measures each
distinct answered cube once, and checks containment on its own: ball(x, r)
lies in the returned cube exactly when the edge-distance kernel puts x at
least r from the cube's complement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import _TOL
from .cubes import LevelTable, close_table
from .errors import ConfigError, CubeforgeError, require_id
from .labeling import (LabeledHierarchy, index_to_pair, pair_to_index,
                       require_near, selected_order, specific_pick)
from .report import VerificationReport
from . import space as space_module
from .space import _edge_gaps, ball_radii


@dataclass
class CubeQuery:
    t: int
    k: int
    index: int
    flag: str  # "ok" | "clamped_coarse" | "underflow"

    def to_json(self):
        return {"t": self.t, "k": self.k, "index": self.index,
                "flag": self.flag}


@dataclass
class AdjacentFamily(LevelTable):
    """The K systems as one level table (`cubes.LevelTable`; see the module
    docstring), with the labels they select by and the shifts of their
    draw."""

    labeled: LabeledHierarchy
    covering_const: float = 0.0                  # C
    distinguished: Optional[int] = None
    # randomized families record their per-level draw so queries can route
    # to the system whose shifted label realizes a given fine point
    level_shifts: Optional[dict] = None          # k -> shift in 1..K
    ordinal_shifts: Optional[dict] = None        # k -> 1-based array per index

    @property
    def coarsening(self) -> int:
        """Generations from a query radius's scale ratio**(k+2) up to the
        level of the cube that answers it: 2, and 3 for a pinned family,
        whose query steps one level coarser to the pinned point's cube."""
        return 2 if self.distinguished is None else 3

    def route_t(self, k: int, beta) -> np.ndarray:
        """System indices whose level-k choices land on the fine points
        beta, an int array.

        Undoes the family's recorded shifts; without shifts this is just
        pair_to_index of each fine point's pair label.
        """
        lab = self.labeled
        j = lab._window(k, lab.k_min, lab.k_max - 1)   # a parent level
        l, m = lab.duplex[j][beta].T
        if self.ordinal_shifts is not None:
            alpha = lab.order.maps[j][beta]
            start = lab.children[j][1]
            n_kids = start[alpha + 1] - start[alpha]
            m = (m - self.ordinal_shifts[k][alpha] - 1) % n_kids + 1
        t = pair_to_index(l, m, lab.max_children)
        if self.level_shifts is not None:
            t = (t - int(self.level_shifts[k]) - 1) % self.n_systems + 1
        return t

    def piece(self, q: CubeQuery) -> int:
        """Position in `pieces` of the level holding q's cube."""
        return int(self.piece_of[
            require_id("level", q.k, self.k_min, self.k_max) - self.k_min,
            require_id("system index", q.t, 1, self.n_systems) - 1])

    def cube_members(self, q: CubeQuery) -> np.ndarray:
        flat, start = self.pieces[self.piece(q)][1]
        index = require_id("cube", q.index, 0, start.size - 1, ")")
        return flat[start[index]:start[index + 1]]

    def to_json(self):
        """The family as a JSON document around its systems' documents
        (`LevelTable.documents`)."""
        return {
            "K": self.n_systems,
            "C": self.covering_const,
            "distinguished": self.distinguished,
            "phi": [[*index_to_pair(t, self.labeled.max_children), t]
                    for t in range(1, self.n_systems + 1)],
            "systems": self.documents(),
        }


def build_adjacent_family(labeled: LabeledHierarchy,
                          distinguished: Optional[int] = None
                          ) -> AdjacentFamily:
    """Build all K = (L+1)*M systems from the labeled hierarchy: the family
    of the adjacent draw with no shift."""
    if distinguished is not None \
            and labeled.hierarchy.distinguished != distinguished:
        raise ConfigError(
            f"family pins {distinguished!r} but the hierarchy distinguishes "
            f"{labeled.hierarchy.distinguished!r}")
    return _build_family(labeled, pinned=distinguished)


def _build_family(labeled: LabeledHierarchy, levels: Optional[dict] = None,
                  pinned: Optional[int] = None) -> AdjacentFamily:
    """The family of an adjacent draw's `levels` (k -> its level entry; None:
    no shift), with the `pinned` point kept at index 0 of every level.

    System t picks at level k by specific_pick for pair label phi^-1(t),
    moved by the level's entry; the build runs a level at a time (see the
    module docstring). A failure raises what building the systems one by
    one would: the first failing system's first missing near child, levels
    ascending, or else its first failing link.
    """
    K = labeled.n_systems
    shifts = ordinals = None
    if levels is not None:
        shifts = {k: int(levels[k]["shift"]) for k in labeled.parent_ks()}
        ordinals = {k: np.asarray(levels[k]["ordinals"], dtype=int)
                    for k in labeled.parent_ks()
                    if "ordinals" in levels[k]} or None
    centers, center_of, unpicked = _pick_levels(labeled, levels, pinned)
    # systems 0..ok-1 select at every level: link them, then raise what the
    # first failing system raises
    ok = min(unpicked, default=K)
    links, link_of, failed = _link_levels(labeled, centers,
                                          [x[:ok] for x in center_of])
    if failed:
        raise failed[min(failed)]
    if ok < K:
        require_near(labeled, *unpicked[ok])
    distinct = [_distinct_rows(np.array(level)) for level in links]
    links = [rows for rows, _ in distinct]
    link_of = np.array([inverse[of] for (_, inverse), of in zip(
        distinct, link_of)], dtype=int).reshape(len(links), K)
    pieces, piece_of = close_table(labeled.space.n, centers, links, link_of)
    family = AdjacentFamily(
        space=labeled.space, k_min=labeled.k_min, k_max=labeled.k_max,
        constants=labeled.selected_constants, mode=labeled.hierarchy.mode,
        centers=centers, links=links, pieces=pieces,
        center_of=np.array(center_of), link_of=link_of, piece_of=piece_of,
        labeled=labeled, distinguished=pinned, level_shifts=shifts,
        ordinal_shifts=ordinals)
    family.covering_const = labeled.selected_constants.covering_const(
        family.coarsening)
    return family


def _pick_levels(labeled: LabeledHierarchy, levels: Optional[dict],
                 pinned: Optional[int]):
    """(z, of, unpicked): the rows of z[j] are level j's distinct center
    lists and of[j][t - 1] is system t's among them, from one specific_pick
    call per parent level; unpicked[t - 1] = (k, missing) names the first
    level where system t misses a near child, and where."""
    h, K = labeled.hierarchy, labeled.n_systems
    label = index_to_pair(np.arange(1, K + 1), labeled.max_children)
    z, of, unpicked = [], [], {}
    for k in labeled.parent_ks():
        picks = specific_pick(labeled, k, label,
                              None if levels is None else levels[k], pinned)
        missing = picks < 0
        for t in np.flatnonzero(missing.any(axis=1)).tolist():
            unpicked.setdefault(t, (k, missing[t]))
        chosen, inverse = _distinct_rows(picks)
        del picks, missing   # dropped before the kept lists are allocated
        z.append(h.level(k + 1)[chosen])
        of.append(inverse)
    z.append(h.level(labeled.k_max)[None].copy())
    of.append(np.zeros(K, dtype=int))
    return z, of, unpicked


def _link_levels(labeled: LabeledHierarchy, z: list, of: list):
    """(links, link_of, failed): links[j] holds level j's parent maps, one
    per distinct (coarse, fine) pair of center lists that the systems of
    `of` hold, and link_of[j][t - 1] is system t's among them;
    failed[(t - 1, j)] is the error of a system's refused link at level j,
    for the first system holding that link."""
    links, link_of, failed = [], [], {}
    if len(z) == 1:   # a one-level family still links once, for its checks
        selected_order(labeled, z[0])
    # finest first: its blocks are the largest, and the smaller ones fit in
    # the memory they free
    for j in reversed(range(len(z) - 1)):
        width = len(z[j + 1])
        keys, inverse = np.unique(of[j] * width + of[j + 1],
                                  return_inverse=True)
        pairs = [(z[j][a], z[j + 1][b]) for a, b in
                 zip(*map(np.ndarray.tolist, divmod(keys, width)))]
        # a batch's distance block: the ids the fine lists are drawn from
        # against each pair's coarse list
        pool = labeled.hierarchy.level(min(labeled.k_min + j + 2,
                                           labeled.k_max)).size
        step = max(1, space_module.BALL_CELLS // (pool * z[j][0].size))
        level = [link for lo in range(0, len(pairs), step)
                 for link in _link(labeled, j, pairs[lo:lo + step])]
        for x, link in enumerate(level):
            if isinstance(link, CubeforgeError):
                failed.setdefault((int(np.argmax(inverse == x)), j), link)
        links.insert(0, level)
        link_of.insert(0, inverse)
    return links, link_of, failed


def _distinct_rows(rows: np.ndarray):
    """(the distinct rows of a 2-D array, each row's position among them):
    one sort of the rows as opaque items. np.unique(rows, axis=0) gives the
    same groups but compares rows field by field, which took 46 of 85 ms
    per family build on a `build` cloud (numpy 2.4.6)."""
    rows = np.ascontiguousarray(rows)
    items = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(items.ravel(), return_index=True,
                                  return_inverse=True)
    return rows[first], inverse


def _link(labeled: LabeledHierarchy, j: int, block: list) -> list:
    """Each (coarse, fine) center-list pair's parent map at level j, from
    one `selected_order` call along a leading axis; when that call fails,
    each pair's own call's map, or its error in its place."""
    try:
        # the kernel reads one pair's rows faster without the batch axis
        order = selected_order(labeled, list(block[0]) if len(block) == 1
                               else [np.stack(lv) for lv in zip(*block)],
                               k_top=labeled.k_min + j)
    except CubeforgeError as err:
        if len(block) == 1:
            return [err]
        return [link for pair in block for link in _link(labeled, j, [pair])]
    return list(np.atleast_2d(order.maps[0]))


@dataclass
class BlockAnswers:
    """find_containing_cubes' answers for B centers and a (B, m) radius
    matrix. Ball (i, j) falls on query level slot[i, j], counted from the
    block's coarsest radius level; query level p answers center i with cube
    index[p, i] of level heads[p][0] in system t[p, i], flagged heads[p][1].
    A row's entries fall into runs of one query level: run r starts at the
    flat position start[r], in row row[r], on query level level[r]. dist
    holds the centers' distance rows."""

    dist: np.ndarray   # (B, n)
    slot: np.ndarray   # (B, m)
    heads: list        # per query level: (cube level, flag)
    t: np.ndarray      # (P, B)
    index: np.ndarray  # (P, B)
    start: np.ndarray  # per run, as are row and level
    row: np.ndarray
    level: np.ndarray

    def query(self, i: int, j: int) -> CubeQuery:
        p = self.slot[i, j]
        return CubeQuery(t=int(self.t[p, i]), k=self.heads[p][0],
                         index=int(self.index[p, i]), flag=self.heads[p][1])

    def per_ball(self, values) -> np.ndarray:
        """Per-run values, read off at every entry: a (B, m) array."""
        return np.repeat(values, np.diff(self.start, append=self.slot.size)
                         ).reshape(self.slot.shape)

    def count_flags(self, last, counts: dict) -> int:
        """Add the entries where `last` holds to counts[flag]; return how
        many there are."""
        per_run = np.add.reduceat(last.ravel(), self.start, dtype=int)
        for p, (_, flag) in enumerate(self.heads):
            counts[flag] += int(per_run[self.level == p].sum())
        return int(per_run.sum())

    def cubes(self, family: AdjacentFamily):
        """(which, cubes): each distinct cube answering a run once, as the
        answer of one such run, ordered by the integer key ((t - 1) * levels
        + k - k_min) * n + index; cubes[which[r]] is run r's cube."""
        at = self.level, self.row
        k = np.array([head[0] for head in self.heads], dtype=int)[self.level]
        keys = (((self.t[at] - 1) * (family.k_max - family.k_min + 1)
                 + k - family.k_min) * family.space.n + self.index[at])
        _, first, which = np.unique(keys, return_index=True,
                                    return_inverse=True)
        return which, [self.query(*divmod(self.start[r], self.slot.shape[1]))
                       for r in first.tolist()]


def find_containing_cubes(family: AdjacentFamily, ids,
                          radii) -> BlockAnswers:
    """Answer ball(ids[i], radii[i, j]) for centers ids and a (len(ids), m)
    radius matrix at once (one center's radius vector is a block of one);
    see the module docstring.

    Every id is checked before a row is read, and a radius that is not
    positive is refused. Radii outside the level window never error:
    too-coarse queries clamp to the full top cube ("clamped_coarse"),
    too-fine queries return the singleton cube of the center itself
    ("underflow").
    """
    ids = np.array([require_id("point", x, 0, family.space.n, ")")
                    for x in np.atleast_1d(ids).tolist()], dtype=int)
    radii = np.atleast_2d(np.asarray(radii, dtype=float))
    if not radii.min(initial=np.inf) > 0:   # NaN fails this too
        raise ConfigError(f"query radius must be positive, got "
                          f"{radii.flat[np.flatnonzero(~(radii > 0))[0]]}")
    # the coarsest radius level whose answer stays inside the window
    floor_k = family.k_min + family.coarsening - 2
    levels = _levels_for_radii(family.delta, radii, floor_k,
                               max(family.k_max - 1, floor_k - 1))
    k_first = int(levels.min(initial=0))
    slot = levels - k_first
    flat, width = slot.ravel(), max(radii.shape[1], 1)
    new = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    new[::width] = True   # every row starts a run
    start = np.flatnonzero(new)
    t = np.ones((int(slot.max(initial=-1)) + 1, ids.size), dtype=int)
    index = np.zeros(t.shape, dtype=int)
    heads, dist = [], family.space.dist_rows(ids)
    for p, k in enumerate(range(k_first, k_first + len(t))):
        if k < floor_k:
            heads.append((family.k_min, "clamped_coarse"))
        elif k > family.k_max - 1:
            heads.append((family.k_max, "underflow"))
            index[p] = family.pieces[family.piece_of[-1, 0]][0][ids]
        else:   # route by the nearest fine reference point
            beta = np.argmin(dist[:, family.labeled.hierarchy.level(k + 1)],
                             axis=1)
            t[p] = family.route_t(k, beta)
            index[p] = family.labeled.order.maps[k - family.k_min][beta]
            if family.distinguished is None:
                heads.append((k, "ok"))
            else:   # the pinned family answers one level coarser
                heads.append((k - 1, "ok"))
                j = k - 1 - family.k_min
                index[p] = family.links[j][family.link_of[j, t[p] - 1],
                                           index[p]]
    return BlockAnswers(dist=dist, slot=slot, heads=heads, t=t, index=index,
                        start=start, row=start // width, level=flat[start])


def find_containing_cube(family: AdjacentFamily, x: int, r: float) -> CubeQuery:
    """Locate (t, cube) whose members contain ball(x, r): the one-ball
    view of find_containing_cubes."""
    return find_containing_cubes(family, [x], [[r]]).query(0, 0)


def _levels_for_radii(delta: float, radii, k_lo: int, k_hi: int) -> np.ndarray:
    """The generation k with delta**(k+2) < r <= delta**(k+1) of every
    radius, clipped to [k_lo - 1, k_hi + 1] (k_hi >= k_lo - 1): the count of
    window powers delta**j >= r, each power a Python float delta ** j."""
    powers = np.array([delta ** j for j in range(k_hi + 2, k_lo, -1)])
    return k_lo - 1 + powers.size - np.searchsorted(powers, radii, side="left")


def verify_covering(family: AdjacentFamily) -> VerificationReport:
    """Check both query guarantees on every ball of the space, one block
    query per block of ball_blocks.

    Also checks that every fine reference point is realized as a chosen
    center in the system its pair label names (plain families), or that the
    pinned point heads every level of every system (pinned families).
    """
    space = family.space
    C = family.covering_const
    top = space._above_diam()
    rep = VerificationReport("adjacent covering")
    contain_bad, diam_bad, n_queries = [], [], 0
    worst_ratio = 0.0
    flags = {"ok": 0, "clamped_coarse": 0, "underflow": 0}
    diam_of = {}  # (piece, cube index) -> its diameter; systems share cubes
    for ids, _, sorted_rows, last in space.ball_blocks():
        radii = ball_radii(sorted_rows, top)
        qs = find_containing_cubes(family, ids, radii)
        which, cubes = qs.cubes(family)
        diam = np.empty(len(cubes))
        inside = np.zeros((len(cubes), space.n), dtype=bool)
        for u, q in enumerate(cubes):
            m, key = family.cube_members(q), (family.piece(q), q.index)
            if key not in diam_of:
                diam_of[key] = float(space.dist_rows(m, m).max(initial=0.0))
            diam[u], inside[u, m] = diam_of[key], True
        # one containment gap and one diameter per run of a query level
        gap = qs.per_ball(_edge_gaps(qs.dist[qs.row], inside[which], True))
        size = qs.per_ball(diam[which])
        for i, j in zip(*np.nonzero((radii > gap) & last)):
            contain_bad.append((int(ids[i]), float(radii[i, j]),
                                qs.query(i, j).to_json()))
        for i, j in zip(*np.nonzero((size > C * radii * (1 + _TOL)) & last)):
            diam_bad.append((int(ids[i]), float(radii[i, j]),
                             float(size[i, j]), C * radii[i, j]))
        worst_ratio = max(worst_ratio, float(
            np.max(size / radii, where=last, initial=0.0)))
        n_queries += qs.count_flags(last, flags)
    rep.add("ball_containment", not contain_bad, n_queries, contain_bad,
            details={"flags": flags})
    rep.add("diameter_bound", not diam_bad, n_queries, diam_bad,
            details={"worst_ratio": worst_ratio, "C": C})

    if family.distinguished is None:
        cover_bad, cover_n = [], 0
        for j in range(family.k_max - family.k_min):
            k = family.k_min + j + 1
            level = family.labeled.hierarchy.level(k)
            t = family.route_t(k - 1, np.arange(level.size))
            alpha = family.labeled.order.maps[j]
            center = family.centers[j][family.center_of[j, t - 1], alpha]
            cover_bad += [(k, beta, *map(int, (t[beta], alpha[beta],
                                                center[beta])))
                          for beta in np.flatnonzero(center != level).tolist()]
            cover_n += level.size
        rep.add("center_coverage", not cover_bad, cover_n, cover_bad,
                note="every fine point is some system's chosen center")
    else:
        # heads[t - 1, j]: system t's first center on level j
        heads = np.array([c[of, 0] for c, of in zip(family.centers,
                                                    family.center_of)]).T
        pin_bad = [(t + 1, family.k_min + j, int(heads[t, j])) for t, j in
                   np.argwhere(heads != family.distinguished).tolist()]
        rep.add("pinned_center", not pin_bad, heads.size, pin_bad,
                note="the pinned point heads every level of every system")
    return rep
