"""Exception types shared across the package, and the guards that refuse
out-of-contract ids and document entries with them.

Every error carries enough context (ids, levels, offending values) to be
actionable from a failed pipeline run without re-running the build.
"""
from numbers import Integral

import numpy as np


class CubeforgeError(Exception):
    """Base class for all package errors."""


class SpaceError(CubeforgeError):
    """Problems with the point set or its distance data."""


class SymmetryViolation(SpaceError):
    def __init__(self, x, y, dxy, dyx):
        self.x, self.y, self.dxy, self.dyx = x, y, dxy, dyx
        super().__init__(f"distance not symmetric: d({x},{y})={dxy!r} but d({y},{x})={dyx!r}")


class ZeroDistance(SpaceError):
    def __init__(self, x, y):
        self.x, self.y = x, y
        super().__init__(f"distinct points {x} and {y} at distance 0")


class NegativeDistance(SpaceError):
    def __init__(self, x, y, d):
        self.x, self.y, self.d = x, y, d
        super().__init__(f"negative distance d({x},{y})={d!r}")


class BadSpec(SpaceError):
    """Malformed or unsupported generator descriptor."""


class ModeViolation(CubeforgeError):
    """Strict mode requested but the scale ratio is too coarse for the
    triangle constant. The message records the failed product."""

    def __init__(self, product, limit, detail=""):
        self.product, self.limit = product, limit
        msg = f"strict mode needs constraint product <= {limit}, got {product}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateWindow(CubeforgeError):
    """No level window exists between diameter and minimum gap."""


class OrderError(CubeforgeError):
    """Problems assembling the parent relation between consecutive levels."""


class NoParent(OrderError):
    def __init__(self, level, child_index, point):
        self.level, self.child_index, self.point = level, child_index, point
        super().__init__(
            f"point {point} (index {child_index} on level {level + 1}) has no parent "
            f"candidate on level {level}")


class TightAmbiguity(OrderError):
    def __init__(self, level, child_index, point, candidates):
        self.level, self.child_index, self.point = level, child_index, point
        self.candidates = candidates
        super().__init__(
            f"point {point} on level {level + 1} has several close parents {candidates} "
            f"on level {level}; level separation is violated")


class SelectionError(CubeforgeError):
    """Problems applying a child-selection rule."""


class NoNearChild(SelectionError):
    def __init__(self, level, parent_index, point, radius):
        self.level, self.parent_index, self.point = level, parent_index, point
        self.radius = radius
        super().__init__(
            f"no child of index {parent_index} (point {point}) on level {level} "
            f"lies within {radius!r} of it")


class NotAChild(SelectionError):
    def __init__(self, level, parent_index, child_index):
        self.level, self.parent_index, self.child_index = level, parent_index, child_index
        super().__init__(
            f"index {child_index} on level {level + 1} is not a child of "
            f"index {parent_index} on level {level}")


class PreconditionFail(CubeforgeError):
    """A check was invoked outside its admissible parameter range."""


def require_id(what: str, value, lo: int, hi: int, end: str = "]") -> int:
    """`value` as a Python int when it is an integer id (a Python or numpy
    integer, never a bool) in [lo, hi], or in [lo, hi) with end=")";
    PreconditionFail naming `what` otherwise. Every level, point, cube,
    center, child and system index a caller passes in is checked here."""
    if type(value) is not int:  # a plain int skips the slower ABC check
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise PreconditionFail(f"{what} {value!r} is not an integer")
        value = int(value)
    if not lo <= value <= (hi if end == "]" else hi - 1):
        raise PreconditionFail(f"{what} {value} outside [{lo}, {hi}{end}")
    return value


class ConfigError(CubeforgeError):
    """Malformed pipeline configuration."""


class BuildError(CubeforgeError):
    """A pipeline stage failed; the original error is chained."""


# -- the guards both document readers share ----------------------------------


def require_levels(count: int, k_min: int, k_max: int) -> None:
    """ConfigError naming the first missing or extra level unless `count`
    levels are listed for k_min..k_max."""
    if count != k_max - k_min + 1:
        raise ConfigError(
            f"level {k_min + min(count, max(k_max - k_min + 1, 0))}: "
            f"{count} levels listed for k = {k_min}..{k_max}")


def require_keys(d: dict, keys, where: str) -> None:
    """ConfigError naming `where` and the first of `keys` that d lacks."""
    for key in keys:
        if key not in d:
            raise ConfigError(f"{where} lists no {key!r}")


def require_entries(entries, size: int, k: int, name: str) -> None:
    """ConfigError naming level k and the first missing or extra cube
    unless the list `name` has one entry per cube of level k, `size`."""
    if len(entries) != size:
        raise ConfigError(f"level {k}, cube {min(len(entries), size)}: {name}"
                          f" lists {len(entries)} entries for {size} cubes")


def require_ids(ids, n: int, k: int, owner, what: str) -> np.ndarray:
    """Level k's ids as an int array; ConfigError naming the cube owner[i]
    of the first id that is not an integer in [0, n). Of a list's entries
    only ints and whole floats are ids: no bool, string or null is."""
    odd = [] if isinstance(ids, np.ndarray) else [
        i for i, x in enumerate(ids) if type(x) not in (int, float)]
    if odd:
        raise ConfigError(f"level {k}, cube {owner[odd[0]]}: {what} id "
                          f"{ids[odd[0]]!r} is not an integer")
    raw = np.array(ids)
    whole = raw == np.floor(raw)
    bad = np.flatnonzero(~whole | (raw < 0) | (raw >= n))
    if bad.size:
        i = bad[0]
        why = f"outside [0, {n})" if whole[i] else "is not an integer"
        raise ConfigError(
            f"level {k}, cube {owner[i]}: {what} id {raw[i]} {why}")
    return raw.astype(int)
