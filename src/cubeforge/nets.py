"""Nested reference nets: one maximal separated point family per scale level.

Level k uses the threshold ratio**k. The window of levels is pinned to the
space: the coarsest level's threshold exceeds the diameter (so its net is a
single point) and the finest level's threshold sits below the minimum gap
(so its net is every point). Greedy insertion runs in a fixed order, which
makes every build reproducible and every net maximal: separation holds by
construction and covering holds because any uncovered point would have been
accepted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import SystemConstants, require_headroom
from .cubes import require_delta, require_mode
from .errors import (ConfigError, DegenerateWindow, ModeViolation,
                     require_id, require_ids, require_levels)
from .report import VerificationReport
from .space import QuasiMetricSpace

_ROW_BLOCK = 64  # centers whose distance rows the net checks read at once


@dataclass
class NetHierarchy:
    space: QuasiMetricSpace
    delta: float
    k_min: int
    k_max: int
    mode: str
    levels: list = field(default_factory=list)  # arrays of ids, index 0 <-> k_min
    distinguished: Optional[int] = None

    def level(self, k: int) -> np.ndarray:
        return self.levels[require_id("level", k, self.k_min, self.k_max)
                           - self.k_min]

    def level_ks(self):
        return range(self.k_min, self.k_max + 1)

    @property
    def n_levels(self) -> int:
        return self.k_max - self.k_min + 1

    def to_json(self):
        return {
            "delta": self.delta,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "mode": self.mode,
            "levels": [lv.tolist() for lv in self.levels],
            "distinguished": self.distinguished,
        }

    @classmethod
    def from_json(cls, d, space):
        """Read a hierarchy back; ConfigError unless it lists one level per
        k in k_min..k_max, each of point ids of the space, and its
        distinguished point, if any, is one of them too. Whether that point
        is pinned is verify_net_axioms' check."""
        require_mode(d["mode"])
        k_min, k_max = int(d["k_min"]), int(d["k_max"])
        require_levels(len(d["levels"]), k_min, k_max)
        pin = d.get("distinguished")
        if pin is not None and (type(pin) is not int or not 0 <= pin < space.n):
            raise ConfigError(f"distinguished: expected a point id in "
                              f"[0, {space.n}), got {pin!r}")
        return cls(space=space, delta=require_delta(d["delta"]),
                   k_min=k_min, k_max=k_max, mode=d["mode"],
                   levels=[require_ids(lv, space.n, k, np.arange(len(lv)),
                                       "center")
                           for k, lv in enumerate(d["levels"], k_min)],
                   distinguished=pin)


def check_mode(mode: str, tri_const: float, delta: float):
    require_mode(mode)
    if not 0 < delta < 1:
        raise ModeViolation(delta, 1.0, "scale ratio must lie in (0, 1)")
    if mode == "strict":
        require_headroom("strict", SystemConstants(delta, tri_const, 1.0, 1.0))


def level_window(space: QuasiMetricSpace, delta: float):
    """(k_min, k_max): the coarsest level with threshold above the diameter
    and the finest with threshold below the minimum gap."""
    if space.n == 1:
        return 0, 0
    diam, min_gap = space.profile.diam, space.profile.min_gap
    k_min = _largest_power_above(delta, diam)
    k_max = _smallest_power_below(delta, min_gap)
    if k_min > k_max:
        raise DegenerateWindow(f"k_min={k_min} > k_max={k_max}")
    return k_min, k_max


def _largest_power_above(delta, bound):
    k = math.floor(math.log(bound) / math.log(delta)) if bound > 0 else 0
    while delta ** k <= bound:
        k -= 1
    while delta ** (k + 1) > bound:
        k += 1
    return k


def _smallest_power_below(delta, bound):
    k = math.ceil(math.log(bound) / math.log(delta))
    while delta ** k >= bound:
        k += 1
    while delta ** (k - 1) < bound:
        k -= 1
    return k


def build_reference_hierarchy(space: QuasiMetricSpace, delta: float,
                              mode: str = "strict",
                              distinguished: Optional[int] = None) -> NetHierarchy:
    """Greedy maximal nets at every level of the window.

    Insertion order is the distinguished point first (if any), then ascending
    id, so the distinguished point sits at index 0 of every level.
    """
    check_mode(mode, space.profile.tri_const, delta)
    if distinguished is not None and not 0 <= distinguished < space.n:
        raise ConfigError(
            f"distinguished id {distinguished} outside 0..{space.n - 1}")
    k_min, k_max = level_window(space, delta)
    order = list(range(space.n))
    if distinguished is not None:
        order.remove(distinguished)
        order.insert(0, distinguished)
    levels = [_greedy_net(space, order, delta ** k) for k in range(k_min, k_max + 1)]
    return NetHierarchy(space=space, delta=delta, k_min=k_min, k_max=k_max,
                        mode=mode, levels=levels, distinguished=distinguished)


def _greedy_net(space, order, threshold):
    min_dist = np.full(space.n, np.inf)
    accepted = []
    for p in order:
        if min_dist[p] >= threshold:
            accepted.append(p)
            min_dist = np.minimum(min_dist, space.dist_row(p))
    return np.array(accepted, dtype=int)


def _net_witnesses(space, levels, k_min: int, delta: float, sep: float = 1.0,
                   cover: float = 1.0):
    """(separation, covering) failures of the center lists `levels`, level
    k_min first, each read _ROW_BLOCK rows at a time: per level k,
    (k, p, q, dist) for the closest pair (first in row-major order of the
    (m, m) block off its diagonal) below sep·δ^k and (k, x, dist) for the
    worst-covered point (first) at or beyond cover·δ^k. The reference nets
    have unit constants."""
    sep_bad, cov_bad = [], []
    for k, pts in enumerate(levels, k_min):
        best = np.full(space.n, np.inf)
        d, i, j = np.inf, 0, 0
        for lo in range(0, len(pts), _ROW_BLOCK):
            rows = space.dist_rows(pts[lo:lo + _ROW_BLOCK])
            best = np.minimum(best, rows.min(axis=0))
            sub = rows[:, pts]
            np.fill_diagonal(sub[:, lo:], np.inf)
            a, b = np.unravel_index(np.argmin(sub), sub.shape)
            if sub[a, b] < d:  # strict: an equal pair of a later block loses
                d, i, j = sub[a, b], lo + a, b
        x = int(np.argmax(best))
        if d < sep * delta ** k:
            sep_bad.append((k, int(pts[i]), int(pts[j]), float(d)))
        if best[x] >= cover * delta ** k:
            cov_bad.append((k, x, float(best[x])))
    return sep_bad, cov_bad


def verify_net_axioms(hierarchy: NetHierarchy) -> VerificationReport:
    """Separation >= ratio**k within each level, covering radius < ratio**k
    over the whole space, plus the structural window facts."""
    space = hierarchy.space
    rep = VerificationReport("net axioms")
    nets = [hierarchy.level(k) for k in hierarchy.level_ks()]
    sep_bad, cov_bad = _net_witnesses(space, nets, hierarchy.k_min,
                                      hierarchy.delta)
    rep.add("separation", not sep_bad,
            sum(len(net) * (len(net) - 1) for net in nets), sep_bad)
    rep.add("covering", not cov_bad, space.n * len(nets), cov_bad,
            note="covering failures also mean the net is not maximal")

    rep.add("coarsest_is_single", len(hierarchy.levels[0]) == 1, 1,
            [] if len(hierarchy.levels[0]) == 1 else [len(hierarchy.levels[0])])
    finest_ok = sorted(hierarchy.levels[-1].tolist()) == list(range(space.n))
    rep.add("finest_is_everything", finest_ok, 1)

    if hierarchy.distinguished is not None:
        pinned = all(int(lv[0]) == hierarchy.distinguished for lv in hierarchy.levels)
        rep.add("distinguished_pinned", pinned, hierarchy.n_levels)
    return rep
