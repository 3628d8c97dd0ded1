"""Label the reference hierarchy and select new center points from it.

Children here are children of the reference order: the partial order built
over the reference nets with unit separation and covering constants, so a
center's tight radius is ratio**k / (2 * tri_const) and its loose radius is
ratio**k. The conflict relation uses the tighter radius of the selected
points instead: two centers of one level are "in conflict" when they sit
closer than aux_sep_const(tri_const) * ratio**(k-1), and two centers are
"neighbours" when some pair of their children is in conflict. Primary labels
are greedy: walking the level in ascending index order, each center takes the
smallest value in {0, 1, 2, ...} unused among its already-labeled neighbours.
Children then carry a pair label: the parent's primary label plus the
child's 1-based ordinal among its siblings (ascending index). build_labels
reads the conflicts of every level below the coarsest off row blocks of at
most space.BALL_CELLS distances, and each parent level's neighbours off one
np.unique over the (min, max) parent-pair codes of the conflicts one level
down; the conflicts themselves are not kept.

build_labels stores the children once per parent level as a table: the child
indices grouped by parent (a stable argsort of the parent map, so siblings
stay in ascending order) plus each group's start offset. Sibling ordinals,
the designated near child (the child closest to the parent, ties to the
smallest index, required to sit within ratio**(k+1)) and the pool of near
children all come from that table; `children_of` slices it, and
`near_pool` keeps the near children in the same grouped layout.

Selection rules pick one child per center, producing one new point per old
point. `LabeledHierarchy.pick_children` is the kernel of the specific
picks: for a whole level and a block of pair labels (l, m) at once it
returns a (labels, centers) pick matrix, each center's child with the
row's pair label, optionally with per-center ordinal shifts, and the
designated near child where there is none; one label is a block of one.
Every specific pick goes through `specific_pick`, so the specific rules,
the family build (one call per parent level for all K labels) and the
adjacent samplers share it. Two picks do not: the general rule (`_general_pick`)
starts from the near children and asks its chooser, and the single sampler
(`OmegaSampler.draw_level`) draws uniformly among all children or the near
pool. `selected_order` links the selected centers with the auxiliary
constants; every function that builds selected-point systems goes through
it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .constants import (SystemConstants, aux_cover_const, aux_sep_const,
                        require_headroom)
from .cubes import ParentMaps, build_partial_order
from .errors import ConfigError, NoNearChild, NotAChild, require_id
from .nets import NetHierarchy, _net_witnesses
from .report import VerificationReport
from . import space as space_module


@dataclass
class LabeledHierarchy:
    hierarchy: NetHierarchy
    order: ParentMaps
    neighbours: list = field(default_factory=list)  # per parent level
    primary: list = field(default_factory=list)     # per parent level: int array
    duplex: list = field(default_factory=list)      # per child level: (n, 2) array
    near: list = field(default_factory=list)        # per parent level: designated
    # per parent level: (child indices grouped by parent, group starts with a
    # final end offset); near_pool keeps only the children within ratio**(k+1)
    children: list = field(default_factory=list)
    near_pool: list = field(default_factory=list)
    max_label: int = 0                              # largest primary label seen
    max_children: int = 1                           # largest sibling count seen

    @property
    def space(self):
        return self.hierarchy.space

    @property
    def k_min(self):
        return self.hierarchy.k_min

    @property
    def k_max(self):
        return self.hierarchy.k_max

    def parent_ks(self):
        return range(self.k_min, self.k_max)

    @property
    def n_systems(self) -> int:
        """K: one system per pair label (l, m), l <= max_label and
        m <= max_children."""
        return (self.max_label + 1) * self.max_children

    @property
    def selected_constants(self) -> SystemConstants:
        """The constants of the systems over selected centers."""
        tri = self.space.profile.tri_const
        return SystemConstants(self.hierarchy.delta, tri, aux_sep_const(tri),
                               aux_cover_const(tri))

    def _window(self, k: int, lo: int, hi: int) -> int:
        """Position of level k in a per-level list of the levels lo..hi:
        k_min..k_max - 1 for the parent levels, which choose children."""
        return require_id("level", k, lo, hi) - lo

    def children_of(self, k: int, index: int) -> np.ndarray:
        kids, start = self.children[self._window(k, self.k_min,
                                                 self.k_max - 1)]
        index = require_id("center", index, 0, len(start) - 1, ")")
        return kids[start[index]:start[index + 1]]

    def require_child(self, k: int, alpha: int, beta) -> int:
        """beta as a Python int when it is a child of the level-k center
        alpha; NotAChild for any other integer."""
        beta = require_id("child", beta, -math.inf, math.inf)
        if beta not in self.children_of(k, alpha):
            raise NotAChild(k, alpha, beta)
        return beta

    def pick_children(self, k: int, l, m, ordinals=None) -> np.ndarray:
        """The child-selection kernel: every level-k center's pick for a
        block of pair labels at once.

        `l` and `m` are equal-length arrays of labels, and row b of the
        (B, n_k) answer picks for (l[b], m[b]); scalar labels are a block of
        one and give one (n_k,) row. A center with primary label l[b] takes
        its child with ordinal m[b]; with `ordinals` (one per center, or
        one row per label) the ordinal is shifted to (m + ordinals - 1) mod
        sibling count + 1. Every other center, and one with no such child,
        takes its designated near child, -1 where it has none (see
        `require_near`).
        """
        j = self._window(k, self.k_min, self.k_max - 1)
        kids, start = self.children[j]
        sizes = np.diff(start)
        l, m = np.asarray(l)[..., None], np.asarray(m)[..., None]
        if ordinals is not None:
            m = (m + np.asarray(ordinals) - 1) % np.maximum(sizes, 1) + 1
        hit = (self.primary[j] == l) & (m >= 1) & (m <= sizes)
        pick = np.broadcast_to(self.near[j], hit.shape).copy()
        at = np.nonzero(hit)   # few: a row's label fits few centers
        pick[at] = kids[start[at[-1]] + np.broadcast_to(m, hit.shape)[at] - 1]
        return pick


@dataclass
class SelectionOutcome:
    labeled: LabeledHierarchy
    rule: dict
    chosen: list = field(default_factory=list)  # per parent level: child index

    @property
    def hierarchy(self):
        return self.labeled.hierarchy

    def new_points(self, k: int) -> np.ndarray:
        """Point ids of the selected centers, aligned with level k indices."""
        h, lab = self.hierarchy, self.labeled
        j = lab._window(k, lab.k_min, lab.k_max)
        if k == lab.k_max:
            return h.level(k).copy()
        return h.level(k + 1)[self.chosen[j]]

    def new_levels(self):
        """Selected center ids for every level; the finest level passes
        through unchanged (deeper selection has nothing left to move)."""
        return [self.new_points(k) for k in self.hierarchy.level_ks()]

    def to_json(self):
        return {"rule": self.rule,
                "chosen": [c.tolist() for c in self.chosen],
                "levels": [lv.tolist() for lv in self.new_levels()]}


def build_labels(hierarchy: NetHierarchy) -> LabeledHierarchy:
    """Reference parent order, conflict/neighbour relations, and labels.

    Strict mode insists on the labeling headroom of `constants`, under
    which the selection guarantees below are proved.

    The parent order is the reference one (unit separation and covering
    constants): a center that is not someone's child sits at least
    ratio**k / (2 * tri_const) away from that parent, and every child sits
    within ratio**k of its parent. Both facts carry the separation and
    covering bounds of the selected points, so the order must not be
    rebuilt with the selected-point constants.
    """
    space, delta = hierarchy.space, hierarchy.delta
    ref = SystemConstants(delta, space.profile.tri_const, 1.0, 1.0)
    if hierarchy.mode == "strict":
        require_headroom("labeling", ref)
    sep = aux_sep_const(ref.tri_const)
    order = build_partial_order(space, hierarchy.levels, delta, ref.sep_const,
                                ref.cover_const, ref.tri_const,
                                k_top=hierarchy.k_min, mode=hierarchy.mode)
    out = LabeledHierarchy(hierarchy=hierarchy, order=order)

    # each parent level's neighbours, from the conflicts one level down,
    # read off blocks of whole distance rows, at most BALL_CELLS distances a
    # block
    step = max(1, space_module.BALL_CELLS // max(space.n, 1))
    for j in range(1, hierarchy.n_levels):
        pts, size = hierarchy.levels[j], hierarchy.levels[j - 1].size
        thr = sep * delta ** (hierarchy.k_min + j - 1)
        codes = []
        for lo in range(0, pts.size, step):
            near = (space.dist_rows(pts[lo:lo + step]) < thr)[:, pts]
            a, b = np.nonzero(np.triu(near, lo + 1))   # row-major, a < b
            codes.append(_cross_codes(order.maps[j - 1], a + lo, b, size))
        # asked for its indices, np.unique does not import numpy.ma (about
        # 1.3 MB) on its first call
        codes, _ = np.unique(np.concatenate(codes), return_index=True)
        out.neighbours.append(list(zip(*map(np.ndarray.tolist,
                                            divmod(codes, size)))))

    max_label = 0
    max_children = 1 if hierarchy.n_levels == 1 else 0
    for k in range(hierarchy.k_min, hierarchy.k_max):
        j = k - hierarchy.k_min
        pmap = order.maps[j]
        n_here = len(hierarchy.level(k))
        out.primary.append(_greedy_labels(n_here, out.neighbours[j]))
        max_label = max(max_label, int(out.primary[-1].max(initial=0)))

        # children table, duplex labels and near-child designation
        kids = np.argsort(pmap, kind="stable")  # siblings stay ascending
        start = _group_starts(pmap, n_here)
        sizes = np.diff(start)
        max_children = max(max_children, int(sizes.max(initial=0)))
        duplex = np.empty((len(pmap), 2), dtype=int)
        duplex[:, 0] = out.primary[j][pmap]
        duplex[kids, 1] = np.arange(len(kids)) - np.repeat(start[:-1], sizes) + 1
        d = space.dist_pairs(hierarchy.level(k)[pmap], hierarchy.level(k + 1))
        # nearest first within each parent's group; the sort is stable, so
        # ties go to the smaller index
        by_dist = np.lexsort((d, pmap))
        close = d < delta ** (k + 1)
        first = by_dist[start[:-1][sizes > 0]]
        near = np.full(n_here, -1, dtype=int)
        near[sizes > 0] = np.where(close[first], first, -1)
        out.children.append((kids, start))
        out.near_pool.append((kids[close[kids]],
                              _group_starts(pmap[close], n_here)))
        out.duplex.append(duplex)
        out.near.append(near)
    out.max_label = max_label
    out.max_children = max_children
    return out


def _cross_codes(pmap, a, b, n_parents: int) -> np.ndarray:
    """min * n_parents + max of the parents pmap[a[e]] and pmap[b[e]] of
    each pair e whose two parents differ."""
    pa, pb = pmap[a], pmap[b]
    cross = pa != pb
    pa, pb = pa[cross], pb[cross]
    return np.minimum(pa, pb) * n_parents + np.maximum(pa, pb)


def _group_starts(pmap, n_parents):
    """Where each parent's group starts in a child list sorted by parent,
    plus the end of the last group."""
    return np.concatenate(([0], np.cumsum(np.bincount(pmap, minlength=n_parents))))


def _greedy_labels(n: int, neighbour_pairs) -> np.ndarray:
    adj = [[] for _ in range(n)]
    for a, b in neighbour_pairs:
        adj[a].append(b)
        adj[b].append(a)
    labels = np.full(n, -1, dtype=int)
    for v in range(n):
        used = {int(labels[u]) for u in adj[v] if labels[u] >= 0}
        c = 0
        while c in used:
            c += 1
        labels[v] = c
    return labels


def select_points(labeled: LabeledHierarchy, rule: dict,
                  chooser: Optional[Callable[[int, int], int]] = None
                  ) -> SelectionOutcome:
    """Pick one child per center according to `rule`.

    rule kinds:
      {"kind": "general", "master": {k: label}} with an optional chooser
        callback (k, alpha) -> child index used when the center's primary
        label matches the master label; the designated near child otherwise
        (and as the default chooser).
      {"kind": "specific", "label": [l, m]}: the child with pair label (l, m)
        when it exists, else the designated near child.
      {"kind": "specific_distinguished", "label": [l, m], "distinguished": x0}:
        as specific, but the center sitting at the distinguished point keeps
        it forever (index 0 of every level by construction).
    """
    kind = rule.get("kind")
    if kind not in ("general", "specific", "specific_distinguished"):
        raise ConfigError(f"unknown selection rule kind: {kind!r}")
    h = labeled.hierarchy
    if kind == "specific_distinguished":
        x0 = rule.get("distinguished")
        if h.distinguished is None or x0 != h.distinguished:
            raise ConfigError(
                f"rule pins {x0!r} but the hierarchy distinguishes "
                f"{h.distinguished!r}")
    if kind == "general":
        master = {int(k): int(v) for k, v in rule.get("master", {}).items()}
        missing = [k for k in labeled.parent_ks() if k not in master]
        if missing:
            raise ConfigError(f"master labels missing for levels {missing}")

    pinned = h.distinguished if kind == "specific_distinguished" else None
    chosen = []
    for k in labeled.parent_ks():
        if kind == "general":
            pick = _general_pick(labeled, k, master[k], chooser)
        else:
            pick = specific_pick(labeled, k, rule["label"], pinned=pinned)
        require_near(labeled, k, pick < 0)
        chosen.append(pick)
    json_rule = dict(rule)
    if kind == "general":
        json_rule["master"] = {str(k): v for k, v in sorted(master.items())}
    return SelectionOutcome(labeled=labeled, rule=json_rule, chosen=chosen)


def pair_to_index(l: int, m: int, max_children: int) -> int:
    """Lexicographic pair label -> system index in {1..K}."""
    return l * max_children + m


def index_to_pair(t: int, max_children: int):
    return (t - 1) // max_children, (t - 1) % max_children + 1


def specific_pick(labeled: LabeledHierarchy, k: int, label, entry=None,
                  pinned: Optional[int] = None) -> np.ndarray:
    """Level-k picks of the specific rule for pair label `label`: an (l, m)
    pair of ints, or of equal-length arrays for a block of labels, one row
    of picks each (see `LabeledHierarchy.pick_children`). An adjacent
    draw's level `entry` moves every label's index by its shift (mod K)
    and, with "ordinals", each center's sibling. The `pinned` point, which
    heads every level, stays its own child. -1 marks a missing near
    child."""
    l, m = label
    if entry is not None:
        size = labeled.max_children
        t = pair_to_index(l, m, size) + int(entry["shift"])
        l, m = index_to_pair((t - 1) % labeled.n_systems + 1, size)
    pick = labeled.pick_children(k, l, m, entry and entry.get("ordinals"))
    if pinned is not None and int(labeled.hierarchy.level(k)[0]) == pinned:
        pick[..., 0] = 0
    return pick


def _general_pick(labeled, k, master, chooser):
    """Near children everywhere, except that the chooser picks for the
    centers labeled `master`, in index order, up to the first childless
    center or other center without a near child."""
    j = k - labeled.k_min
    pick = labeled.near[j].copy()
    if chooser is None:
        return pick
    match = labeled.primary[j] == master
    stop = np.flatnonzero(np.where(match, np.diff(labeled.children[j][1]) == 0,
                                   pick < 0))
    for alpha in np.flatnonzero(match[:stop[0] if stop.size else None]):
        alpha = int(alpha)
        pick[alpha] = labeled.require_child(k, alpha, chooser(k, alpha))
    return pick


def require_near(labeled: LabeledHierarchy, k: int, missing) -> None:
    """Raise NoNearChild for the first level-k center flagged in the boolean
    array `missing`: a center that falls back to a near child it lacks."""
    bad = np.flatnonzero(missing)
    if bad.size:
        alpha = int(bad[0])
        raise NoNearChild(k, alpha, int(labeled.hierarchy.level(k)[alpha]),
                          labeled.hierarchy.delta ** (k + 1))


def selected_order(labeled: LabeledHierarchy, z_levels,
                   k_top: Optional[int] = None) -> ParentMaps:
    """Parent order over selected centers `z_levels` (coarsest level k_top,
    default k_min) with the auxiliary selected-point constants."""
    c = labeled.selected_constants
    return build_partial_order(labeled.space, z_levels, c.delta, c.sep_const,
                               c.cover_const, c.tri_const,
                               k_top=labeled.k_min if k_top is None else k_top,
                               mode=labeled.hierarchy.mode)


def verify_new_point_axioms(outcome: SelectionOutcome) -> VerificationReport:
    """Exhaustive separation/covering sweep over the selected centers."""
    labeled, levels = outcome.labeled, outcome.new_levels()
    c = labeled.selected_constants
    sep_bad, cov_bad = _net_witnesses(labeled.space, levels, labeled.k_min,
                                      c.delta, c.sep_const, c.cover_const)
    rep = VerificationReport("selected point axioms")
    rep.add("new_point_separation", not sep_bad,
            sum(len(pts) * (len(pts) - 1) // 2 for pts in levels), sep_bad,
            note="witness: (level, point, point, dist) of the closest pair")
    rep.add("new_point_covering", not cov_bad,
            labeled.space.n * len(levels), cov_bad,
            note="witness: (level, point, nearest center dist)")
    return rep
