"""The table of the paper's constants: every headroom guard passes at its
limit and refuses just past it with the type and message it has always
raised, and no guard lets NaN through."""
import dataclasses
import json
import math

import numpy as np
import pytest

from cubeforge.constants import SystemConstants, require_headroom
from cubeforge.cubes import (CubeSystem, build_cube_system, build_partial_order,
                            verify_cube_axioms)
from cubeforge.errors import ConfigError, ModeViolation, PreconditionFail
from cubeforge.labeling import build_labels
from cubeforge.nets import (NetHierarchy, build_reference_hierarchy, check_mode,
                            verify_net_axioms)
from cubeforge.random_systems import (OmegaSampler, check_chain_separation,
                                      realize_system, sample_outcome,
                                      scan_chain_separation)
from cubeforge.space import QuasiMetricSpace

TRI = 1.01       # a triangle constant above 1, so every power of it counts
PAST = 1 + 1e-9  # just past a limit, far beyond the guards' 1e-12 slack
LINE = QuasiMetricSpace.from_coords(np.arange(300.0), declared_tri_const=TRI)
GRID = QuasiMetricSpace.from_line(np.arange(300.0))


def read_back(delta, mode, built_at):
    """LINE's hierarchy built exploratory at `built_at`, read back by
    from_json with `delta` and `mode` in its document: from_json skips
    check_mode, so the guards downstream are what refuse it."""
    doc = build_reference_hierarchy(LINE, built_at, "exploratory").to_json()
    return NetHierarchy.from_json({**doc, "delta": delta, "mode": mode}, LINE)


def unit_system(delta):
    """LINE's reference system (unit constants) at `delta`."""
    hier = build_reference_hierarchy(LINE, delta, "exploratory")
    levels = [hier.level(k) for k in hier.level_ks()]
    order = build_partial_order(LINE, levels, delta, 1.0, 1.0, TRI,
                                k_top=hier.k_min, mode="exploratory")
    return build_cube_system(LINE, levels, order)


# each call(f) puts the guard's product at f times its limit
def strict(f):
    check_mode("strict", 1.5, f / (144.0 * 1.5 ** 8))


def labeling(f):
    delta = 1 / (96.0 * TRI ** 8)
    build_labels(read_back(delta * f, "strict", delta))


def sampler(variant, factor, power):
    def call(f):
        delta = 1 / (factor * TRI ** power)
        OmegaSampler(build_labels(read_back(delta * f, "exploratory", delta)),
                     variant)
    return call


def parent_order(f):
    hier = build_reference_hierarchy(LINE, 1 / 144, "exploratory")
    levels = [hier.level(k) for k in hier.level_ks()]
    build_partial_order(LINE, levels, 1 / 144,
                        12.0 * 1.5 ** 3 * 1.25 / 144 / f, 1.25, 1.5,
                        k_top=hier.k_min, mode="strict")


def chain_scale(f):
    # a system document whose c0 sits on the scale headroom, or just under;
    # its tight flags are written under that c0, or the reader refuses them
    system = unit_system(1 / 144)
    c0 = 18.0 * TRI ** 5 / 144 / f
    doc = dataclasses.replace(system, constants=dataclasses.replace(
        system.constants, sep_const=c0)).to_json()
    system = CubeSystem.from_json(json.loads(json.dumps(doc)), LINE)
    note = scan_chain_separation(system).check("admissible_chains").note
    assert ("headroom" in note) == (f > 1)
    check_chain_separation(system, 72, -1, c0 / (12.0 * TRI ** 4), 0)


def chain_depth(f):
    check_chain_separation(unit_system(1 / 144), 72, -1,
                           f / (12.0 * TRI ** 4), 0)


def exploratory(variant, passes, refused):
    # the samplers guard exploratory hierarchies too
    def call(f):
        delta = passes if f == 1 else refused
        OmegaSampler(build_labels(build_reference_hierarchy(
            GRID, delta, mode="exploratory")), variant)
    return call


def mode_violation(product, limit, detail):
    return (ModeViolation, f"strict mode needs constraint product <= {limit}, "
                           f"got {product} ({detail})")


@pytest.mark.parametrize("call, refusal", [
    (strict, mode_violation(1.000000001, 1.0,
                            "tri_const=1.5, delta=0.000270961405205846")),
    (labeling, mode_violation(1.000000001, 1.0, "labeling scale headroom")),
    (sampler("single", 96.0, 6),
     mode_violation(1.000000001, 1.0, "single sampling headroom")),
    (sampler("adjacent", 144.0, 8),
     mode_violation(1.000000001, 1.0, "adjacent sampling headroom")),
    (sampler("adjacent_refined", 144.0, 8),
     mode_violation(1.000000001, 1.0, "adjacent_refined sampling headroom")),
    (parent_order, mode_violation(0.3515625, 0.3515624996484375,
                                  "parent-order scale headroom")),
    (chain_scale, (PreconditionFail, "scale headroom "
                   "18*tri**5*cover_const*ratio <= sep_const required")),
    (chain_depth, (PreconditionFail, "depth/threshold headroom "
                   "12*tri**4*tau <= sep_const*ratio**depth required")),
    (exploratory("single", 1 / 100, 1 / 50),
     mode_violation(1.92, 1.0, "single sampling headroom")),
    (exploratory("adjacent", 1 / 144, 1 / 100),
     mode_violation(1.44, 1.0, "adjacent sampling headroom")),
], ids=["strict", "labeling", "single", "adjacent", "adjacent_refined",
        "parent_order", "chain_scale", "chain_depth", "exploratory_single",
        "exploratory_adjacent"])
def test_headroom_guards_pass_at_their_limit_and_refuse_past_it(call,
                                                                 refusal):
    call(1.0)
    err, msg = refusal
    with pytest.raises(err) as raised:
        call(PAST)
    assert type(raised.value) is err
    assert str(raised.value) == msg


@pytest.mark.parametrize("name", [
    "strict", "labeling", "single", "adjacent", "adjacent_refined",
    "parent order", "chain scale", "chain depth"])
def test_no_headroom_guard_lets_nan_through(name):
    err = PreconditionFail if name.startswith("chain") else ModeViolation
    with pytest.raises(err):   # every guard reads A0
        require_headroom(name, SystemConstants(1e-6, math.nan, 1.0, 1.0))
    require_headroom(name, SystemConstants(1e-6, 1.0, 1.0, 1.0), 1e-3)
    if name == "chain depth":
        with pytest.raises(err):
            require_headroom(name, SystemConstants(1e-6, 1.0, 1.0, 1.0),
                             math.nan)


def test_nan_constants_are_refused():
    # each guard tested product > limit, which NaN never is
    with pytest.raises(ModeViolation, match="got nan"):
        check_mode("strict", math.nan, 0.001)
    hier = build_reference_hierarchy(GRID, 1 / 144, "strict")
    levels = [hier.level(k) for k in hier.level_ks()]
    for sep, cover in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ModeViolation, match="parent-order"):
            build_partial_order(GRID, levels, 1 / 144, sep, cover, 1.0,
                                k_top=hier.k_min, mode="strict")

    # a document with a NaN c0 loaded, and its scan then passed 360 chains
    line = QuasiMetricSpace.from_line(np.arange(60.0))
    lab = build_labels(build_reference_hierarchy(line, 1 / 144, "strict"))
    system = realize_system(lab, sample_outcome(
        OmegaSampler(lab, "single", seed=1), 0))
    chk = scan_chain_separation(system).check("admissible_chains")
    assert chk.details["combinations"] == 0
    doc = json.loads(json.dumps(system.to_json()))
    for field, value in (("c0", math.nan), ("C0", math.inf),
                         ("c0", -math.inf)):
        bad = {**doc, "constants": {**doc["constants"], field: value}}
        with pytest.raises(ConfigError, match="must be finite"):
            CubeSystem.from_json(json.loads(json.dumps(bad)), line)
    # built directly, a NaN c0 misses the scale headroom
    nan_system = dataclasses.replace(
        system, constants=SystemConstants(1 / 144, 1.0, math.nan, 2.0))
    chk = scan_chain_separation(nan_system).check("admissible_chains")
    assert chk.checked == 0 and "headroom missing" in chk.note


def test_loaders_refuse_a_delta_outside_the_unit_interval():
    # with a NaN delta every radius is NaN, no distance lies below or beyond
    # one, and the axiom checks of both documents passed vacuously
    line = QuasiMetricSpace.from_line(np.arange(60.0))
    lab = build_labels(build_reference_hierarchy(line, 1 / 144, "strict"))
    system = realize_system(lab, sample_outcome(
        OmegaSampler(lab, "single", seed=1), 0))
    hier = build_reference_hierarchy(line, 1 / 144, "exploratory")
    for cls, doc, verify in (
            (CubeSystem, system.to_json(), lambda s: verify_cube_axioms([s])[0]),
            (NetHierarchy, hier.to_json(), verify_net_axioms)):
        assert verify(cls.from_json(json.loads(json.dumps(doc)), line)).passed
        for delta in (math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, True):
            text = json.dumps({**doc, "delta": delta})
            with pytest.raises(ConfigError) as err:
                cls.from_json(json.loads(text), line)
            assert str(err.value) == \
                f"delta: expected a ratio in (0, 1), got {delta!r}"
