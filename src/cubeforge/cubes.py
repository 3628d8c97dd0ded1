"""Hierarchical cube partitions built over per-level center families.

Construction runs in two stages. build_partial_order links every center on
level k+1 to a parent on level k: a uniquely-close parent when one exists
within `SystemConstants.tight_radius(k)` (a "tight" link; two such
candidates would contradict level separation and raise), otherwise the
first-listed center within cover_const * ratio**k. close_table then closes
the order downward: the cube of a center is the set of finest-level points
whose parent chain passes through it, which partitions the space at every
level by construction.

Every system is a column of a LevelTable: per level, the distinct center
lists and parent maps of its systems; table wide, the distinct (assign,
members) pieces; and per level, each system's index into each. A map's
`tight` flags follow from distances (`tight_flags`): documents derive them
when written and check them when read. A piece holds a level's point ->
cube map assign and its members = (flat, start), the point ids grouped by
cube with the group starts and a final end, so cube i is
flat[start[i]:start[i + 1]]. close_table makes each distinct (cube count,
assign) content one piece (`close_level`), so levels that partition the
space alike share their arrays even when their centers differ, and no array
of a table is written in place. A CubeSystem is a LevelTable with one
column: a table's view `system(t)`, or the column that build_cube_system
closes or from_json reads. It takes its per-level reads from that column
when it is made and is written and swept as a table. Cube values are built
on demand by cube() and cubes_at().

The checker re-derives each system's promised geometry from its realized
member sets: partition, nesting, the inner/outer ball sandwich with the
radii c1 and C1 of `constants.SystemConstants`, containment of descendant
outer balls, and proximity of descendant centers. Nesting and the descendant
checks run over every pair of levels. It takes the systems of one space, a
family say, and runs each check once per distinct level or level pair,
keyed on array bytes. The checks that read distance rows go a level at a
time across the systems: one call per group of levels that differ only in
their center lists, with a leading axis over the group's lists. Each
check's name, its place in the report and its `checked` count are part of
the report contract: run reports and benchmark references digest them.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import space as space_module
from .constants import _TOL, SystemConstants, require_headroom
from .errors import (ConfigError, NoParent, PreconditionFail, TightAmbiguity,
                     require_delta, require_entries, require_id, require_ids,
                     require_keys, require_levels, require_mode)
from .report import Check, VerificationReport
from .space import QuasiMetricSpace

_NONE = 2 ** 31 - 1   # a parent list position past every parent


@dataclass
class ParentMaps:
    """Parent links between consecutive levels of center lists."""

    k_top: int
    constants: SystemConstants
    mode: str
    maps: list = field(default_factory=list)   # maps[j][i] = parent index


@dataclass(frozen=True)
class Cube:
    """One cube, read off its system's level arrays: `members` is a view of
    the level's grouped member array, shared with every system that holds
    the level."""

    center: int
    members: np.ndarray


@dataclass
class LevelTable:
    """K cube systems of one space as one level table (see the module
    docstring). Level j, that is k_min + j, has its distinct center lists
    as the rows of centers[j] and, above the finest level, its distinct
    parent maps from level j + 1 as the rows of links[j]; pieces holds the
    distinct (assign, (flat, start)) levels of the table. On
    level j system t holds row center_of[j, t - 1] of centers[j], row
    link_of[j, t - 1] of links[j] and piece piece_of[j, t - 1]."""

    space: QuasiMetricSpace
    k_min: int
    k_max: int
    constants: SystemConstants
    mode: str
    centers: list
    links: list
    pieces: list
    center_of: np.ndarray
    link_of: np.ndarray
    piece_of: np.ndarray

    @property
    def delta(self) -> float:
        return self.constants.delta

    @property
    def n_systems(self) -> int:   # K
        return self.center_of.shape[1]

    def level_ks(self):
        return range(self.k_min, self.k_max + 1)

    def system(self, t: int) -> CubeSystem:
        """System t: the one-column table over this table's lists."""
        i = require_id("system index", t, 1, self.n_systems) - 1
        col = slice(i, i + 1)
        return CubeSystem(
            space=self.space, k_min=self.k_min, k_max=self.k_max,
            constants=self.constants, mode=self.mode, centers=self.centers,
            links=self.links, pieces=self.pieces,
            center_of=self.center_of[:, col], link_of=self.link_of[:, col],
            piece_of=self.piece_of[:, col])

    @property
    def systems(self) -> tuple:
        """Every system's view, t = 1..K."""
        return tuple(map(self.system, range(1, self.n_systems + 1)))

    def held_pieces(self) -> list:
        """(k, assign, cube count, holders) per piece some system holds: the
        first level k holding it and the indices t - 1 of its holders."""
        held = [(self.pieces[p], self.piece_of == p)
                for p in sorted(set(self.piece_of.ravel().tolist()))]
        return [(self.k_min + int(np.argmax(at.any(axis=1))), idx,
                 start.size - 1, np.flatnonzero(at.any(axis=0)))
                for (idx, (_, start)), at in held]

    def documents(self) -> list:
        """Each system's JSON document, t = 1..K: one level entry per
        (level, center list, piece) and one parent entry per (level, map,
        tight flags), derived by level (`tight_flags`) for its distinct
        (link, coarse, fine) lists; entries are shared, so read-only."""
        ks, z, cs = self.level_ks(), self.centers, self.center_of.tolist()
        parents = []
        for j, (k, maps, xs) in enumerate(zip(ks, self.links, self.link_of)):
            keys = list(dict.fromkeys(zip(xs.tolist(), cs[j], cs[j + 1])))
            x, c, f = np.array(keys).T
            rows = [(key[0], *t) for key, t in zip(keys, tight_flags(
                self.space, self.constants, k, z[j][c], z[j + 1][f],
                maps[x]).tolist())]
            entry = {row: {"k": k, "map": maps[row[0]].tolist(),
                           "tight": list(row[1:])} for row in set(rows)}
            parents.append({key: entry[row] for key, row in zip(keys, rows)})
        levels = [{(c, p): _level_json(k, zk[c], self.pieces[p][1])
                   for c, p in set(zip(c_of, ps.tolist()))}
                  for k, zk, c_of, ps in zip(ks, z, cs, self.piece_of)]
        head = {"delta": self.delta, "mode": self.mode, "k_min": self.k_min,
                "k_max": self.k_max, "constants": self.constants.to_json()}
        return [{**head,
                 "levels": [lv[key] for lv, key in zip(levels, zip(c, p))],
                 "parents": [lv[key] for lv, key in zip(parents, zip(
                     x, c, c[1:]))]}
                for c, p, x in zip(self.center_of.T.tolist(),
                                   self.piece_of.T.tolist(),
                                   self.link_of.T.tolist())]


@dataclass
class CubeSystem(LevelTable):
    """One system: a level table with one column (see the module
    docstring). Its per-level reads are taken from that column when it is
    made: level k_min + j has the centers level_points[j], the point ->
    cube map assign[j], the members[j] = (flat, start) of its cubes and,
    above the finest level, the parent map maps[j] from level j + 1."""

    def __post_init__(self):
        pieces = [self.pieces[p] for p in self.piece_of[:, 0].tolist()]
        self.level_points = [c[x] for c, x in zip(
            self.centers, self.center_of[:, 0].tolist())]
        self.maps = [maps[x] for maps, x in zip(
            self.links, self.link_of[:, 0].tolist())]
        self.members = [m for _, m in pieces]
        self.assign = [a for a, _ in pieces]

    def _level_index(self, k: int) -> int:
        """Position j of level k in the per-level lists."""
        return require_id("level", k, self.k_min, self.k_max) - self.k_min

    def cubes_at(self, k: int) -> list:
        return [self.cube(k, i)
                for i in range(len(self.level_points[self._level_index(k)]))]

    def cube(self, k: int, index: int) -> Cube:
        j = self._level_index(k)
        index = require_id("cube", index, 0, len(self.level_points[j]), ")")
        flat, start = self.members[j]
        return Cube(int(self.level_points[j][index]),
                    flat[start[index]:start[index + 1]])

    def locate(self, k: int, point: int) -> int:
        """Index of the cube containing `point` on level k."""
        j = self._level_index(k)
        return int(self.assign[j][require_id("point", point, 0,
                                             self.space.n, ")")])

    def to_json(self):
        """The system as a JSON document (`LevelTable.documents`)."""
        return self.documents()[0]

    @classmethod
    def of_levels(cls, space, k_min: int, constants: SystemConstants,
                  mode: str, level_points, links, pieces=None) -> CubeSystem:
        """The one-column table of a system's center lists, its parent maps
        (`_links`) and its (assign, members) piece per level: given, or
        closed from the maps (`close_table`)."""
        centers = [np.asarray(lv, dtype=int)[None] for lv in level_points]
        links = list(_links(k_min, centers, links))
        link_of = np.zeros((len(links), 1), dtype=int)
        if pieces is None:
            pieces, piece_of = close_table(space.n, centers, links, link_of)
        else:
            piece_of = np.arange(len(pieces))[:, None]
        return cls(space=space, k_min=k_min, k_max=k_min + len(centers) - 1,
                   constants=constants, mode=mode, centers=centers,
                   links=links, pieces=list(pieces),
                   center_of=np.zeros((len(centers), 1), dtype=int),
                   link_of=link_of, piece_of=piece_of)

    @classmethod
    def from_json(cls, d, space):
        """Read a system back; a point listed in several cubes of one level
        is assigned to the last of them. A missing entry, constants the
        space's A0 does not give (`SystemConstants.from_json`), or a tight
        flag other than `tight_flags` derives, is a ConfigError naming
        where."""
        require_mode(d["mode"])
        consts = SystemConstants.from_json(d["constants"],
                                           require_delta(d["delta"]),
                                           space.profile.tri_const)
        k_min, k_max = int(d["k_min"]), int(d["k_max"])
        require_levels(len(d["levels"]), k_min, k_max)
        level_points, pieces = [], []
        for k, lv in enumerate((lv["cubes"] for lv in d["levels"]), k_min):
            for i, c in enumerate(lv):
                require_keys(c, ("center", "members"), f"level {k}, cube {i}")
            size = np.array([len(c["members"]) for c in lv], dtype=int)
            cube_of = np.repeat(np.arange(size.size), size)
            level_points.append(require_ids([c["center"] for c in lv],
                                            space.n, k, np.arange(size.size),
                                            "center"))
            flat = require_ids([p for c in lv for p in c["members"]], space.n,
                               k, cube_of, "member")
            a = np.full(space.n, -1, dtype=int)
            np.maximum.at(a, flat, cube_of)
            pieces.append((a, (flat, np.concatenate(([0], np.cumsum(size))))))
        for k, p in enumerate(d["parents"], k_min + 1):
            require_keys(p, ("map", "tight"), f"level {k} parent entry")
        system = cls.of_levels(space, k_min, consts, d["mode"], level_points,
                               [p["map"] for p in d["parents"]], pieces)
        # the flags must be those the system writes (`documents`)
        for k, p, mine in zip(itertools.count(k_min + 1), d["parents"],
                              system.to_json()["parents"]):
            require_entries(p["tight"], len(mine["tight"]), k, "tight")
            for i, (f, w) in enumerate(zip(p["tight"], mine["tight"])):
                if type(f) is not bool or f != w:
                    why = ("contradicts its parent distance"
                           if type(f) is bool else "is not a bool")
                    raise ConfigError(
                        f"level {k}, cube {i}: tight flag {f!r} {why}")
        return system


def _level_json(k: int, centers, members) -> dict:
    """Level k's entry: each cube's center and member list."""
    flat, start = members[0].tolist(), members[1].tolist()
    return {"k": k, "cubes": [{"center": c, "members": flat[s:e]}
                              for c, s, e in zip(centers.tolist(), start,
                                                 start[1:])]}


def _links(k_min: int, centers: list, links):
    """One system's parent maps, level by level, as one-row arrays;
    ConfigError naming the level of a missing or extra map, or the level
    and child of the first entry that does not fit `centers`."""
    if len(links) != len(centers) - 1:
        raise ConfigError(
            f"level {k_min + min(len(links), len(centers) - 1) + 1}: "
            f"{len(links)} parent entries for {len(centers)} levels")
    for k, parents, coarse, fine in zip(
            itertools.count(k_min + 1), links, centers, centers[1:]):
        require_entries(parents, fine.size, k, "map")
        yield require_ids(parents, coarse.size, k, np.arange(fine.size),
                         "parent")[None]


def build_partial_order(space: QuasiMetricSpace, level_points, delta: float,
                        sep_const: float, cover_const: float, tri_const: float,
                        k_top: int, mode: str = "strict") -> ParentMaps:
    """Link each center to its parent one level up; see the module docstring
    for the tight/loose rule. Strict mode insists on Theorem 2.2's
    "parent order" headroom (`constants.require_headroom`).

    Each level may carry a leading sample axis: a (B, m) level holds B
    center lists of one length, and its map is (B, m) too; levels of
    unequal sample counts are refused. A batched step compares the
    distances of its distinct ids, one `dist_rows` call, once. Under one
    child list, the parent positions that hold one id in every sample are
    read once for the batch and the others per sample, merged by list
    position. Its floats are those of the one-sample call, and a batched
    call raises at the first failing level what the first sample failing
    there raises alone, with the child index in that sample's list.
    """
    require_mode(mode)
    consts = SystemConstants(delta, tri_const, sep_const, cover_const)
    if mode == "strict":
        require_headroom("parent order", consts)
    out = ParentMaps(k_top=k_top, constants=consts, mode=mode)
    for j in range(len(level_points) - 1):
        k = k_top + j
        parents = np.asarray(level_points[j], dtype=int)
        children = np.asarray(level_points[j + 1], dtype=int)
        if parents.ndim > 1 and len(parents) != len(children):
            raise PreconditionFail(f"level {k} holds {len(parents)} center "
                                   f"lists, level {k + 1} {len(children)}")
        if children.size and not parents.size:
            raise NoParent(k, 0, int(children.flat[0]))
        tight_thr = consts.tight_radius(k)
        loose_thr = cover_const * delta ** k
        if parents.ndim == 1:
            dists = space.dist_rows(children, parents)
            near, in_range = dists < tight_thr, dists < loose_thr
            found = (near.sum(axis=-1), in_range.any(axis=-1),
                     near.argmax(axis=-1), in_range.argmax(axis=-1))
        else:
            one = (children == children[:1]).all()
            cols, cols_at = _distinct(parents, space.n)
            rows, rows_at = (children[0], None) if one else \
                _distinct(children, space.n)
            # d(child, parent) as alone (a table is symmetric only to rtol
            # 1e-12), compared parent-major
            dists = space.dist_rows(rows, cols).T
            near, in_range = dists < tight_thr, dists < loose_thr
            # under one child list, the parent positions that hold one id
            # in every sample are compared once for the batch, the others
            # per sample: (positions, samples, children) blocks whose first
            # tight and in-range positions merge by the least
            same = (cols_at == cols_at[:1]).all(axis=0) & one
            found = np.zeros(children.shape, dtype=int), False, _NONE, _NONE
            for pos, at in ((np.flatnonzero(same), cols_at[:1]),
                            (np.flatnonzero(~same), cols_at)):
                at = at[:, pos].T
                own = at if one else (at[:, :, None], rows_at)
                if pos.size:
                    t, r = near[own], in_range[own]
                    found = (found[0] + t.sum(axis=0),
                             found[1] | r.any(axis=0),
                             *(np.minimum(f, np.where(a.any(axis=0), pos[
                                 a.argmax(axis=0)], _NONE))
                               for f, a in zip(found[2:], (t, r))))
        del dists, near, in_range   # freed before the next level's block
        counts, reached, tight_idx, loose_idx = found
        crowded, orphan = counts > 1, ~reached & (counts == 0)
        if (crowded | orphan).any():
            # the first failing sample raises what it raises alone
            b = tuple(np.argwhere(crowded | orphan)[0][:-1])
            if crowded[b].any():
                i = int(crowded[b].argmax())
                child, cands = int(children[b][i]), parents[b]
                near_i = space.dist_rows([child], cands)[0] < tight_thr
                raise TightAmbiguity(k, i, child, cands[near_i].tolist())
            i = int(orphan[b].argmax())
            raise NoParent(k, i, int(children[b][i]))
        out.maps.append(np.where(counts == 1, tight_idx, loose_idx).astype(int))
    return out


def _distinct(ids, n: int):
    """(the distinct point ids in `ids`, ascending; each id's position
    among them), as np.unique with return_inverse gives them."""
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[ids]


def build_cube_system(space: QuasiMetricSpace, level_points,
                      order: ParentMaps) -> CubeSystem:
    """Close the parent order downward into per-level partitions: the one
    column of a level table (`close_table`), whose links must fit the
    levels (`_links`).

    The finest level list must contain every point of the space (it seeds the
    member closure); coarser members are unions of their children's members.
    """
    if not np.array_equal(np.sort(level_points[-1]), np.arange(space.n)):
        raise PreconditionFail(
            "finest level must enumerate every point of the space")
    return CubeSystem.of_levels(space, order.k_top, order.constants,
                                order.mode, level_points, order.maps)


def tight_flags(space: QuasiMetricSpace, constants: SystemConstants, k: int,
                coarse, fine, maps) -> np.ndarray:
    """The `tight` flags of parent maps from level k + 1 to level k: fine
    center i lies within constants.tight_radius(k) of coarse[maps[i]]. They
    are the kernel's own flags for every map build_partial_order returns.
    The (..., m) arrays align on their leading axes; one dist_pairs call."""
    maps = np.asarray(maps)
    parents = np.take_along_axis(np.asarray(coarse), maps, axis=-1)
    return space.dist_pairs(np.broadcast_to(fine, maps.shape).ravel(),
                            parents.ravel()).reshape(maps.shape) \
        < constants.tight_radius(k)


def close_table(n: int, centers: list, links: list, link_of) -> tuple:
    """(pieces, piece_of) of a level table (see `LevelTable`): its distinct
    (assign, members) pieces and each system's piece per level,
    piece_of[j, t - 1], from its center lists (the finest level one list of
    every point), its links[j], a parent map from level j + 1 per row, and
    its (levels - 1, K) link_of. Finest first, each level is closed once
    per distinct (link, finer piece) pair its systems hold (`close_level`).
    """
    closed, pieces, finest = {}, [], centers[-1][0]
    a = np.empty(n, dtype=int)
    a[finest] = np.arange(finest.size)
    piece_of = [[close_level(closed, pieces, finest.size, a)]
                * link_of.shape[1]]
    for j in range(len(centers) - 2, -1, -1):
        pairs = list(zip(link_of[j].tolist(), piece_of[0]))
        made = dict.fromkeys(pairs)
        for x, p in made:
            made[x, p] = close_level(closed, pieces, centers[j].shape[1],
                                     links[j][x][pieces[p][0]])
        piece_of.insert(0, [made[pair] for pair in pairs])
    return pieces, np.array(piece_of)


def close_level(closed: dict, pieces: list, size: int, a: np.ndarray) -> int:
    """Position in `pieces` of the (assign, members) pair of a level of
    `size` cubes whose point -> cube map is `a`: appended once per distinct
    (cube count, assign) content, whose position `closed` keeps, and the
    same pair for every later level with that content.
    """
    key = (size, a.tobytes())
    if key not in closed:
        # a stable sort keeps each cube's members in ascending point order
        sizes = np.bincount(a, minlength=size)
        closed[key] = len(pieces)
        pieces.append((a, (np.argsort(a, kind="stable"),
                           np.concatenate(([0], np.cumsum(sizes))))))
    return closed[key]


_AXIOMS = (  # the report contract: check names in report order, with notes
    ("partition", "witness: (level, point, multiplicity)"),
    ("nesting", "witness: (coarse level, fine level, cube, coarse indices hit)"),
    ("ball_sandwich_inner", "points inside the inner ball must be members"),
    ("ball_sandwich_outer", "members must stay inside the outer ball"),
    ("descendant_ball_sets", ""),
    ("descendant_ball_radii",
     "one-step arithmetic bound between consecutive levels"),
    ("descendant_center_proximity", ""),
    ("topology",
     "interior/closure coincide on finite point sets; nothing to check"))


def verify_cube_axioms(systems) -> list:
    """One report per system of one space, in order: the _AXIOMS checks with
    their `checked` counts and witnesses, each report the one its system
    gets alone. Cubes are read from the member arrays, never from
    `system.assign` (a point listed twice on a level belongs to the last
    cube), centers from `system.level_points`, linked by the composed parent
    maps `system.maps`. Each check runs once per distinct key of the call: its levels k,
    the constants behind the radii and the bytes of every array it reads.

    The checks that read distance rows run a level index at a time across
    the systems, the index with the fewest distinct center lists first; a
    pair of levels is checked in the later of its two jobs. A job makes one
    call per group of keys that differ only in its own level's center list,
    with a leading axis over the group's lists, in blocks of at most
    space.BALL_CELLS distances. Each list's rows are gathered once, and kept
    only while a later job reads them.
    """
    systems = list(systems)
    if any(s.space is not systems[0].space for s in systems):
        raise PreconditionFail("the systems must share one space")
    tokens, memo, lists = {}, {}, {}

    def tag(a):
        return tokens.setdefault((a.dtype.str, a.tobytes()), len(tokens))

    def once(key, fn, *args):
        return memo[key] if key in memo else memo.setdefault(key, fn(*args))

    ctrs = [[tag(p) for p in s.level_points] for s in systems]
    for s, ctr in zip(systems, ctrs):
        lists.update(zip(ctr, s.level_points))
    depth = max(map(len, ctrs), default=0)
    # level index -> its job's place: fewest distinct center lists first
    rank = {j: r for r, j in enumerate(sorted(range(depth), key=lambda j: (
        len({ctr[j] for ctr in ctrs if j < len(ctr)}), j)))}
    jobs = [{} for _ in rank]   # group key -> (kernel arguments, own lists)
    consts = {}                 # constants -> token

    def ask(ctr, j, group, args):
        """Queue level j's center list in `group` of its job; returns the box
        the job fills with the list's witnesses."""
        own = jobs[rank[j]].setdefault(group, (args, {}))[1]
        return own.setdefault(ctr[j], [None])

    def layout(system, ct, mem, links):
        """A system's checks but for its center lists: the `checked` counts;
        the partition and nesting witnesses; (level, group, kernel
        arguments) per sandwich; and per descendant pair, (own level, other
        level, group but for the other's list, kernel arguments)."""
        n, c, ks = system.space.n, system.constants, list(system.level_ks())
        members, sizes = system.members, [p.size for p in system.level_points]
        parts = [once(("partition", k, *mem[j]), _partition, n, k, *members[j])
                 for j, k in enumerate(ks)]
        nestings = [once(("nesting", ks[a], ks[b], *mem[a], *mem[b]), _nesting,
                         ks[a], ks[b], parts[a][2], *members[b])
                    for a, b in itertools.combinations(range(len(ks)), 2)]
        checked = [n * len(ks), sum(nest[0] for nest in nestings),
                   *[sum(sizes)] * 2,
                   *[sum(b * size for b, size in enumerate(sizes))] * 3, 0]
        sandwiches = [(j, ("sandwich", k, ct, *mem[j]),
                       (k, c, *parts[j][1:], members[j][0]))
                      for j, k in enumerate(ks)]
        descendants = []
        for b, fine in enumerate(ks):
            for a, k in enumerate(ks[:b]):
                own, other = (a, b) if rank[a] > rank[b] else (b, a)
                # the fine cubes' ancestors on level a: the links composed
                descendants.append((own, other, (
                    "descendants", k, fine, ct, sizes[b], *links[a:b],
                    own == a), (k, fine, c, _ancestors(
                        system.maps[a:b], sizes[b]))))
        return (checked, [w for p in parts for w in p[0]],
                [w for nest in nestings for w in nest[1]], sandwiches,
                descendants)

    plans = []   # per system: its layout's counts and witnesses, and boxes
    for system, ctr in zip(systems, ctrs):
        ct = consts.setdefault(system.constants, len(consts))
        mem = [(tag(flat), tag(start)) for flat, start in system.members]
        links = [tag(m) for m in system.maps]
        sizes = tuple(p.size for p in system.level_points)
        checked, parts, nests, sandwiches, descendants = once(
            ("layout", ct, system.k_min, system.k_max, sizes, *mem, *links),
            layout,
            system, ct, mem, links)
        plans.append((checked, parts, nests,
                      [ask(ctr, j, group, args)
                       for j, group, args in sandwiches],
                      [ask(ctr, own, (*group, ctr[other]), args)
                       for own, other, group, args in descendants]))

    last = {}   # center list -> the last job reading its rows
    for r, groups in enumerate(jobs):
        for group, (_, own) in groups.items():
            last.update(dict.fromkeys(own, r))
            if group[0] == "descendants":
                last[group[-1]] = r
    space = systems[0].space if systems else None
    rows = {}   # center list -> its distance rows, while a later job reads them

    def fetch(t, r):
        got = rows.get(t)
        if got is None:
            got = space.dist_rows(lists[t])
            if last[t] > r:
                rows[t] = got
        return got

    unions = {}   # group -> its partner's ball union, until its last call
    for r, groups in enumerate(jobs):
        by_size = {}   # own list length -> group -> its own lists
        for group, (_, own) in groups.items():
            for t in own:
                by_size.setdefault(lists[t].size, {}).setdefault(
                    group, []).append(t)
        for m, sized in by_size.items():
            toks = list(dict.fromkeys(t for own in sized.values() for t in own))
            at = {t: i for i, t in enumerate(toks)}
            spans = {group: sorted(map(at.get, own))
                     for group, own in sized.items()}
            step = max(1, space_module.BALL_CELLS // max(m * space.n, 1))
            for b0 in range(0, len(toks), step):
                chunk = toks[b0:b0 + step]
                if len(chunk) == 1:
                    block = fetch(chunk[0], r)[None]
                else:   # filled a list at a time, so no list's rows linger
                    block = np.empty((len(chunk), m, space.n))
                    for i, t in enumerate(chunk):
                        block[i] = fetch(t, r)
                for group, span in spans.items():
                    idx = span[bisect.bisect_left(span, b0):
                               bisect.bisect_left(span, b0 + step)]
                    if idx:
                        args, boxes = groups[group]
                        own = [toks[i] for i in idx]
                        found = _run_group(group, args, block if len(
                            idx) == len(chunk) else block[np.subtract(
                                idx, b0)], own, rows, lists, unions)
                        for t, f in zip(own, found):
                            boxes[t][0] = f
                        if idx[-1] == span[-1]:
                            unions.pop(group, None)
        for t in [t for t in rows if last[t] == r]:
            del rows[t]

    reports = []
    for checked, parts, nests, sandwiches, descendants in plans:
        bad = [[*parts], [*nests], [], [], [], [], [], []]   # _AXIOMS order
        for (inner, outer), in sandwiches:   # a box holds one result
            bad[2] += inner
            bad[3] += outer
        for (sets, radii, near), in descendants:
            bad[4] += sets
            bad[5] += radii
            bad[6] += near
        reports.append(VerificationReport("cube axioms", [
            Check(name, not w, count, w, note=note)
            for (name, note), count, w in zip(_AXIOMS, checked, bad)]))
    return reports


def _ancestors(maps, size) -> np.ndarray:
    """Each of `size` cubes' ancestor index on the level above maps[0]: the
    parent maps composed."""
    anc = np.arange(size)
    for m in reversed(maps):
        anc = m[anc]
    return anc


def _run_group(group, args, stack, own, rows, lists, unions) -> list:
    """One kernel call for a group's center lists `own`, whose distance rows
    are stacked in `stack`: a witness tuple per list. `unions` keeps the
    ball union of a group whose partner is the fine list, for its later
    calls."""
    if group[0] == "sandwich":
        return _sandwich(stack, *args)
    k, fine, c, anc = args
    coarse, other = group[-2:]
    if coarse:   # the partner is the fine list: one union serves the group
        fine_rows, fine_pts = rows[other][None], lists[other][None]
        if group not in unions:
            unions[group] = _ball_union(fine, c, fine_rows, anc)
        return _descendants(k, fine, c, stack, fine_rows, fine_pts, anc,
                            *unions[group])
    fine_pts = np.stack([lists[t] for t in own])
    return _descendants(k, fine, c, rows[other][None], stack, fine_pts, anc,
                        *_ball_union(fine, c, stack, anc))


def _per_list(size, which, witnesses) -> list:
    """`size` witness lists: witness e goes to list which[e]."""
    out = [[] for _ in range(size)]
    for g, w in zip(which.tolist(), witnesses):
        out[g].append(w)
    return out


def _partition(n, k, flat, start):
    """(witnesses, owner, member_assign): cube owner[e] lists flat[e], and
    cube member_assign[p] is the last to list p."""
    counts = np.bincount(flat, minlength=n)
    owner = np.repeat(np.arange(start.size - 1), np.diff(start))
    member_assign = np.full(n, -1, dtype=int)
    np.maximum.at(member_assign, flat, owner)
    bad = np.flatnonzero(counts != 1)[:1]
    return [(k, int(p), int(counts[p])) for p in bad], owner, member_assign


def _nesting(k, fine, member_assign, flat, start):
    """(checked, witnesses): each nonempty cube of level `fine`, one reduceat
    segment (empty cubes list no entries), sits in one cube of level k."""
    full = np.flatnonzero(np.diff(start))
    up = member_assign[flat]
    lo = np.minimum.reduceat(up, start[full])
    hi = np.maximum.reduceat(up, start[full])
    return full.size, [
        (k, fine, int(i), np.unique(up[start[i]:start[i + 1]]).tolist())
        for i in full[(lo != hi) | (lo < 0)]]


def _sandwich(rows, k, c, owner, member_assign, flat) -> list:
    """(inner, outer) witnesses per center list: rows[g, i] is the row of
    cube i's center in list g."""
    size = rows.shape[1]
    stray = rows < c.inner_const * c.delta ** k
    stray &= member_assign != np.arange(size)[:, None]
    g_in, cube = np.nonzero(stray.any(axis=2))
    miss = stray[g_in, cube].argmax(axis=1)
    g_out, far = np.nonzero(rows[:, owner, flat]
                            >= c.outer_const * c.delta ** k)
    # owner ascends along flat, so each cube's first far entry is its first
    # listed far member
    _, first = np.unique(g_out * size + owner[far], return_index=True)
    g_out, far = g_out[first], far[first]
    return list(zip(
        _per_list(len(rows), g_in, (
            (k, i, p, d) for i, p, d in zip(cube.tolist(), miss.tolist(),
                                            rows[g_in, cube, miss].tolist()))),
        _per_list(len(rows), g_out, (
            (k, i, p, d) for i, p, d in zip(
                owner[far].tolist(), flat[far].tolist(),
                rows[g_out, owner[far], flat[far]].tolist())))))


def _ball_union(fine, c, rows, anc):
    """(q, union): the ancestors q in anc, ascending, and per center list of
    rows (lists, cubes, n) the union of each ancestor's descendants' outer
    balls on level `fine` as point masks, (lists, q, n), built a block of
    at most space.BALL_CELLS distances at a time."""
    order = np.argsort(anc, kind="stable")
    q, first = np.unique(anc[order], return_index=True)
    union = np.empty((len(rows), q.size, rows.shape[2]), dtype=bool)
    step = max(1, space_module.BALL_CELLS // max(len(rows) * rows.shape[1], 1))
    for x in range(0, rows.shape[2], step):
        union[..., x:x + step] = np.logical_or.reduceat(
            rows[:, order, x:x + step] < c.outer_const * c.delta ** fine,
            first, axis=1)
    return q, union


def _descendants(k, fine, c, rows_k, rows_f, pts_f, anc, q, union) -> list:
    """(sets, radii, proximity) witnesses of level k over level `fine` per
    center list. rows_k (lists, coarse cubes, n) holds the rows of the coarse
    centers, rows_f (lists, fine cubes, n) and pts_f (lists, fine cubes) the
    rows and ids of the fine ones; fine cube i has ancestor anc[i], and
    _ball_union gives q and union. One of rows_k and rows_f holds one list,
    which stands for every list of the other."""
    r_c, r_f = c.outer_const * c.delta ** k, c.outer_const * c.delta ** fine
    size = max(len(rows_k), len(rows_f))
    # a fine ball leaves its ancestor's ball only where the union of that
    # ancestor's descendant balls does, so only those fine cubes are scanned
    far = rows_k >= r_c
    if q.size < far.shape[1]:   # else q lists every coarse cube in order
        far = far[:, q]
    # in place when far has every list (a group's union serves many calls)
    leaving = np.logical_and(far, union, out=far if len(far) >= len(union)
                             else None).any(axis=2)
    g_s, sus = np.nonzero(leaving[:, np.searchsorted(q, anc)])
    leaks = np.empty(sus.size, dtype=bool)
    if sus.size:   # the suspects' rows, a fine list's worth at a time
        rows_k, rows_f = (np.broadcast_to(a, (size, *a.shape[1:]))
                          for a in (rows_k, rows_f))
        step = max(rows_f.shape[1], space_module.BALL_CELLS
                   // max(rows_f.shape[2], 1))
        for x in range(0, sus.size, step):
            g, i = g_s[x:x + step], sus[x:x + step]
            leaks[x:x + step] = ((rows_f[g, i] < r_f)
                                 & (rows_k[g, anc[i]] >= r_c)).any(axis=1)
    # ancestor center -> fine center; the index arrays broadcast a lone list
    d_cf = rows_k[np.arange(len(rows_k))[:, None], anc, pts_f]
    radii = [[] for _ in range(size)]
    if fine == k + 1:   # the radii bound is one step; deeper pairs chain it
        gap = c.tri_const * (d_cf + r_f)
        g_o, over = np.nonzero(gap > r_c * (1 + _TOL))
        radii = _per_list(size, g_o, (
            (k, fine, i, d, r_c)
            for i, d in zip(over.tolist(), gap[g_o, over].tolist())))
    g_n, near = np.nonzero(d_cf >= r_c)
    return list(zip(
        _per_list(size, g_s[leaks], ((k, fine, i) for i in
                                     sus[leaks].tolist())),
        radii,
        _per_list(size, g_n, ((k, fine, i, d) for i, d in
                              zip(near.tolist(), d_cf[g_n, near].tolist())))))
