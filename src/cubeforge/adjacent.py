"""The full family of shifted cube systems and its ball-covering query.

There is one system per pair label (l, m) with l in {0..L} and m in
{1..M}, K = (L+1)*M systems in all, indexed by the lexicographic bijection
t = l*M + m. System t realizes the specific selection rule for (l, m) (or its
pinned variant when a distinguished point is set); a random adjacent draw
shifts that label level by level, and the fixed family is the draw with no
shift. The systems differ at few levels, so one builder makes each
distinct piece once: one parent link per distinct (level, coarse, fine)
triple of center arrays and one assign and grouped-member pair per distinct
level content (cube count and assign), whatever the level's centers. The K
systems then share their center, parent-map, assign and grouped-member
arrays by reference, so none of them is written in place.

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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import _TOL
from .cubes import CubeSystem, ParentMaps, _edge_gaps, build_cube_system
from .errors import ConfigError, require_id
from .labeling import (LabeledHierarchy, SelectionOutcome, index_to_pair,
                       pair_to_index, require_near, selected_order,
                       specific_pick)
from .report import VerificationReport
from .space import ball_radii


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
class AdjacentFamily:
    labeled: LabeledHierarchy
    systems: list = field(default_factory=list)  # index t-1
    covering_const: float = 0.0                  # C
    distinguished: Optional[int] = None
    # randomized families record their per-level draw so queries can route
    # to the system whose shifted label realizes a given fine point
    level_shifts: Optional[dict] = None          # k -> shift in 1..K
    ordinal_shifts: Optional[dict] = None        # k -> 1-based array per index

    @property
    def space(self):
        return self.labeled.space

    @property
    def k_min(self):
        return self.labeled.k_min

    @property
    def k_max(self):
        return self.labeled.k_max

    @property
    def delta(self):
        return self.labeled.hierarchy.delta

    @property
    def n_systems(self) -> int:   # K
        return self.labeled.n_systems

    @property
    def coarsening(self) -> int:
        """Generations from a query radius's scale ratio**(k+2) up to the
        level of the cube that answers it: 2, and 3 for a pinned family,
        whose query steps one level coarser to the pinned point's cube."""
        return 2 if self.distinguished is None else 3

    def phi_inv(self, t: int):
        return index_to_pair(t, self.labeled.max_children)

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

    def system(self, t: int) -> CubeSystem:
        return self.systems[require_id("system index", t, 1,
                                       self.n_systems) - 1]

    def cube_members(self, q: CubeQuery) -> np.ndarray:
        return self.system(q.t).cube(q.k, q.index).members

    def to_json(self):
        """The family as a JSON document. Equal levels and parent entries of
        its systems are one shared object (see CubeSystem.to_json), so the
        document is read-only."""
        K = self.n_systems
        shared = {}
        return {
            "K": K,
            "C": self.covering_const,
            "distinguished": self.distinguished,
            "phi": [[*self.phi_inv(t), t] for t in range(1, K + 1)],
            "systems": [s.to_json(shared) for s in self.systems],
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
    moved by the level's entry. Each distinct level content is kept once,
    each distinct (level, coarse, fine) triple linked by one
    `selected_order` call, and build_cube_system closes each distinct level
    partition once (see its `closed`). A system is picked, checked and
    linked level by level before the next one, so the first failing
    selection or link raises just as building the systems one by one would.
    """
    size, K = labeled.max_children, labeled.n_systems
    shifts = ordinals = None
    if levels is not None:
        shifts = {k: int(levels[k]["shift"]) for k in labeled.parent_ks()}
        ordinals = {k: np.asarray(levels[k]["ordinals"], dtype=int)
                    for k in labeled.parent_ks()
                    if "ordinals" in levels[k]} or None
    family = AdjacentFamily(
        labeled=labeled, distinguished=pinned,
        level_shifts=shifts, ordinal_shifts=ordinals)
    family.covering_const = labeled.selected_constants.covering_const(
        family.coarsening)
    seen, links, closed = {}, {}, {}
    for t in range(1, K + 1):
        chosen = []
        for k in labeled.parent_ks():
            entry = None if levels is None else levels[k]
            chosen.append(specific_pick(labeled, k, index_to_pair(t, size),
                                        entry, pinned))
            require_near(labeled, k, chosen[-1] < 0)
        z = [seen.setdefault((j, lv.tobytes()), lv) for j, lv in enumerate(
            SelectionOutcome(labeled, {}, chosen).new_levels())]
        parts = []
        # a one-level system still makes one call, for its strict checks
        for j in range(max(len(z) - 1, 1)):
            key = (j, *map(id, z[j:j + 2]))
            if key not in links:
                links[key] = selected_order(labeled, z[j:j + 2],
                                            k_top=labeled.k_min + j)
            parts.append(links[key])
        order = ParentMaps(k_top=labeled.k_min, constants=parts[0].constants,
                           mode=parts[0].mode,
                           maps=[m for p in parts for m in p.maps],
                           tight=[x for p in parts for x in p.tight])
        family.systems.append(
            build_cube_system(labeled.space, z, order, closed))
    return family


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
            index[p] = family.system(1).assign[-1][ids]
        else:   # route by the nearest fine reference point
            beta = np.argmin(dist[:, family.labeled.hierarchy.level(k + 1)],
                             axis=1)
            t[p] = family.route_t(k, beta)
            index[p] = family.labeled.order.maps[k - family.k_min][beta]
            if family.distinguished is None:
                heads.append((k, "ok"))
            else:   # the pinned family answers one level coarser
                heads.append((k - 1, "ok"))
                index[p] = [family.system(s).order.parent_of(k - 1, a)
                            for s, a in zip(t[p].tolist(), index[p].tolist())]
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
    diam_of = {}  # member list bytes -> its diameter; systems share cubes
    for ids, _, sorted_rows, last in space.ball_blocks():
        radii = ball_radii(sorted_rows, top)
        qs = find_containing_cubes(family, ids, radii)
        which, cubes = qs.cubes(family)
        diam = np.empty(len(cubes))
        inside = np.zeros((len(cubes), space.n), dtype=bool)
        for u, m in enumerate(map(family.cube_members, cubes)):
            key = m.tobytes()
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
        for k in range(family.k_min + 1, family.k_max + 1):
            level = family.labeled.hierarchy.level(k)
            t = family.route_t(k - 1, np.arange(level.size)).tolist()
            alpha = family.labeled.order.maps[k - 1 - family.k_min].tolist()
            for beta, (s, a, c) in enumerate(zip(t, alpha, level.tolist())):
                center = family.system(s).level_points[k - 1 - family.k_min][a]
                if center != c:
                    cover_bad.append((k, beta, s, a, int(center)))
            cover_n += level.size
        rep.add("center_coverage", not cover_bad, cover_n, cover_bad,
                note="every fine point is some system's chosen center")
    else:
        pin_bad, pin_n = [], 0
        for t in range(1, family.n_systems + 1):
            sys_t = family.system(t)
            for k in sys_t.level_ks():
                pin_n += 1
                center = sys_t.cube(k, 0).center
                if center != family.distinguished:
                    pin_bad.append((t, k, center))
        rep.add("pinned_center", not pin_bad, pin_n, pin_bad,
                note="the pinned point heads every level of every system")
    return rep
