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

from .errors import ConfigError, DegenerateWindow, ModeViolation
from .report import VerificationReport
from .space import QuasiMetricSpace

# strict mode keeps delta fine enough for every construction and bound in the
# package; the binding constraint is 144 * tri_const^8 * delta <= 1
STRICT_PRODUCT_LIMIT = 144.0
_TOL = 1e-12


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
        if not self.k_min <= k <= self.k_max:
            raise IndexError(f"level {k} outside window [{self.k_min}, {self.k_max}]")
        return self.levels[k - self.k_min]

    def level_ks(self):
        return range(self.k_min, self.k_max + 1)

    def scale(self, k: int) -> float:
        return self.delta ** k

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
        return cls(space=space, delta=float(d["delta"]), k_min=int(d["k_min"]),
                   k_max=int(d["k_max"]), mode=d["mode"],
                   levels=[np.asarray(lv, dtype=int) for lv in d["levels"]],
                   distinguished=d.get("distinguished"))


def check_mode(mode: str, tri_const: float, delta: float):
    if mode not in ("strict", "exploratory"):
        raise ValueError(f"mode must be 'strict' or 'exploratory', got {mode!r}")
    if not 0 < delta < 1:
        raise ModeViolation(delta, 1.0, "scale ratio must lie in (0, 1)")
    if mode == "strict":
        product = STRICT_PRODUCT_LIMIT * tri_const ** 8 * delta
        if product > 1.0 + _TOL:
            raise ModeViolation(product, 1.0,
                                f"tri_const={tri_const}, delta={delta}")


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


def verify_net_axioms(hierarchy: NetHierarchy) -> VerificationReport:
    """Separation >= ratio**k within each level, covering radius < ratio**k
    over the whole space, plus the structural window facts."""
    space = hierarchy.space
    rep = VerificationReport("net axioms")

    sep_bad, sep_n = [], 0
    cov_bad, cov_n = [], 0
    for k in hierarchy.level_ks():
        net = hierarchy.level(k)
        thr = hierarchy.scale(k)
        rows = np.array([space.dist_row(int(p)) for p in net])
        sub = rows[:, net]
        m = len(net)
        if m > 1:
            masked = np.where(np.eye(m, dtype=bool), np.inf, sub)
            sep_n += m * (m - 1)
            if masked.min() < thr:
                i, j = np.unravel_index(np.argmin(masked), masked.shape)
                sep_bad.append((k, int(net[i]), int(net[j]), float(sub[i, j])))
        cov = rows.min(axis=0)
        cov_n += space.n
        worst = np.argmax(cov)
        if cov[worst] >= thr:
            cov_bad.append((k, int(worst), float(cov[worst])))
    rep.add("separation", not sep_bad, sep_n, sep_bad)
    rep.add("covering", not cov_bad, cov_n, cov_bad,
            note="covering failures also mean the net is not maximal")

    rep.add("coarsest_is_single", len(hierarchy.levels[0]) == 1, 1,
            [] if len(hierarchy.levels[0]) == 1 else [len(hierarchy.levels[0])])
    finest_ok = sorted(hierarchy.levels[-1].tolist()) == list(range(space.n))
    rep.add("finest_is_everything", finest_ok, 1)

    if hierarchy.distinguished is not None:
        pinned = all(int(lv[0]) == hierarchy.distinguished for lv in hierarchy.levels)
        rep.add("distinguished_pinned", pinned, hierarchy.n_levels)
    return rep
