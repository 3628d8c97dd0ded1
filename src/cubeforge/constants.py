"""The paper's constants, each written once.

Theorem 2.2 of Hytönen and Kairema (arXiv:1012.1985) builds cubes from the
scale ratio delta, the triangle constant A0 (tri_const) and the separation
and covering constants c0 and C0 of the centers. Every radius, bound and
transfer constant derived from them is a property of `SystemConstants`, and
every headroom a builder, sampler or check insists on is one `_HEADROOM`
entry. Only `errors` is imported, so every other module can read this one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, ModeViolation, PreconditionFail, require_keys

_TOL = 1e-12      # slack of the headroom guards and the geometric checks
_REL_TOL = 1e-9   # relative slack of a measured value against its bound


def aux_sep_const(tri_const: float) -> float:
    """c0 = 1/(4·A0²): the separation of the selected points."""
    return 1.0 / (4.0 * tri_const ** 2)


def aux_cover_const(tri_const: float) -> float:
    """C0 = 2·A0: the covering radius of the selected points."""
    return 2.0 * tri_const


@dataclass(frozen=True)
class SystemConstants:
    delta: float
    tri_const: float
    sep_const: float
    cover_const: float

    def tight_radius(self, k: int) -> float:
        """c0·δ^k/(2·A0): a level-(k+1) center links "tight" to the one
        level-k center within this radius (`cubes.build_partial_order`)."""
        return self.sep_const * self.delta ** k / (2.0 * self.tri_const)

    @property
    def inner_const(self) -> float:
        """c1 = c0/(3·A0²): the ball B(z, c1·δ^k) lies in z's cube."""
        return self.sep_const / (3.0 * self.tri_const ** 2)

    @property
    def outer_const(self) -> float:
        """C1 = 2·A0·C0: z's cube lies in the ball B(z, C1·δ^k)."""
        return 2.0 * self.tri_const * self.cover_const

    @property
    def eps_1(self) -> float:
        """c0/(12·A0⁴): chain centers k+a < k+b lie ≥ eps_1·δ^(k+a) apart."""
        return self.sep_const / (12.0 * self.tri_const ** 4)

    def chain_tau(self, depth: int) -> float:
        """c0·δ^depth/(12·A0⁴): the largest tau of 12·A0⁴·tau ≤ c0·δ^depth.

        `scan_chain_separation` reads it; `check_chain_separation` tests the
        inequality on its own tau, as the "chain depth" guard, and compares
        its chain with eps_1·δ^(k+a). The forms agree up to rounding."""
        return self.sep_const * self.delta ** depth / (12.0 * self.tri_const ** 4)

    @property
    def boundary_const(self) -> float:
        """C_2 = 4·A0²/(c1·δ): P(x within tau·δ^k of the edge) ≤ C_2·tau^eta."""
        return 4.0 * self.tri_const ** 2 / (self.inner_const * self.delta)

    def covering_const(self, coarsening: int) -> float:
        """C = 8·A0³/δ^coarsening: diam(cube answering B(x, r)) ≤ C·r."""
        return 8.0 * self.tri_const ** 3 / self.delta ** coarsening

    @property
    def outer_ratio(self) -> float:
        """C1/c1 in C_a = C_mu·(C1/c1)^c_mu: μ(outer ball of Q) ≤ C_a·μ(Q)."""
        return self.outer_const / self.inner_const

    def containing_ratio(self, coarsening: int) -> float:
        """2·A0·C1/δ^coarsening in C_a′: μ(cube answering B) ≤ C_a′·μ(B)."""
        return 2.0 * self.tri_const * self.outer_const / self.delta ** coarsening

    def to_json(self):
        return {"c0": self.sep_const, "C0": self.cover_const,
                "c1": self.inner_const, "C1": self.outer_const}

    @classmethod
    def from_json(cls, d, delta: float, tri_const: float) -> SystemConstants:
        """The constants of a document's `constants` entry under the reading
        space's A0, which a document does not record. ConfigError when an
        entry is missing, c0 or C0 is not finite, or c1 and C1 are not what
        c0, C0 and that A0 give (a system linked under another A0)."""
        keys = ("c0", "C0", "c1", "C1")
        require_keys(d, keys, "constants")
        c0, C0, c1, C1 = (float(d[key]) for key in keys)
        if not (math.isfinite(c0) and math.isfinite(C0)):
            raise ConfigError(f"constants c0={c0} and C0={C0} must be finite")
        consts = cls(delta, tri_const, c0, C0)
        if (c1, C1) != (consts.inner_const, consts.outer_const):
            raise ConfigError(
                f"constants c1={c1} and C1={C1} disagree with the "
                f"c1={consts.inner_const} and C1={consts.outer_const} that "
                f"c0, C0 and the space's A0={tri_const} give")
        return consts


# each guard's (product, limit) from constants c, a threshold tau and a
# chain depth: the guard needs product <= limit
_HEADROOM = {
    # strict mode: the binding constraint of every construction and bound
    "strict": lambda c, tau, depth: (144.0 * c.tri_const ** 8 * c.delta, 1.0),
    # the labels: the selection guarantees are proved under it
    "labeling": lambda c, tau, depth: (96.0 * c.tri_const ** 8 * c.delta, 1.0),
    # the single sampler; the adjacent ones need the strict headroom
    "single": lambda c, tau, depth: (96.0 * c.tri_const ** 6 * c.delta, 1.0),
    # Theorem 2.2's parent order
    "parent order": lambda c, tau, depth: (
        12.0 * c.tri_const ** 3 * c.cover_const * c.delta, c.sep_const),
    # the chain lemma: its scale, and the depth a threshold tau admits
    "chain scale": lambda c, tau, depth: (
        18.0 * c.tri_const ** 5 * c.cover_const * c.delta, c.sep_const),
    "chain depth": lambda c, tau, depth: (
        12.0 * c.tri_const ** 4 * tau, c.sep_const * c.delta ** depth),
}
_HEADROOM["adjacent"] = _HEADROOM["adjacent_refined"] = _HEADROOM["strict"]
# ModeViolation's detail, or the chain guards' PreconditionFail message
_REFUSALS = {
    "strict": "tri_const={c.tri_const}, delta={c.delta}",
    "labeling": "labeling scale headroom",
    "parent order": "parent-order scale headroom",
    "chain scale":
        "scale headroom 18*tri**5*cover_const*ratio <= sep_const required",
    "chain depth": "depth/threshold headroom 12*tri**4*tau <= "
                   "sep_const*ratio**depth required",
}


def require_headroom(name: str, c: SystemConstants, tau: float = 0.0,
                     depth: int = 0) -> None:
    """Raise unless the guard `name` holds for `c`: its product stays within
    limit·(1 + _TOL), which NaN never does. The chain guards raise
    PreconditionFail, the others ModeViolation."""
    product, limit = _HEADROOM[name](c, tau, depth)
    if not product <= limit * (1 + _TOL):
        why = _REFUSALS.get(name, "{name} sampling headroom").format(
            c=c, name=name)
        if name.startswith("chain"):
            raise PreconditionFail(why)
        raise ModeViolation(product, limit, why)
