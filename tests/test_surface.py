"""The package's public names, and the independence of the test oracles."""
import ast
import dataclasses
import importlib
from pathlib import Path

import cubeforge
from cubeforge import adjacent
from cubeforge.adjacent import build_adjacent_family
from cubeforge.cubes import (CubeSystem, LevelTable, ParentMaps,
                             build_cube_system)
from cubeforge.labeling import build_labels
from cubeforge.nets import build_reference_hierarchy
from cubeforge.space import generate_space

ROOT = Path(__file__).parents[1]
# public names kept without a caller in src/, the demos or the tracer, for
# the acceptance criteria that call them: the selection-probability
# estimator (criterion 7) and the one-ball query (criterion 11)
UNCALLED = {"ball", "estimate_selection_probability"}


def test_all_names_resolve_once():
    names = cubeforge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(cubeforge, n)] == []


def traced_names():
    """(module, attribute) of every LAYERS entry of benchmarks/tracer.py,
    read off its source without importing it."""
    tree = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text())
    (layers,) = [node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["LAYERS"]]
    return [(entry.elts[0].value, entry.elts[1].value)
            for entry in layers.elts]


def test_every_traced_name_resolves():
    # Tracer.install looks up each entry this way, a module attribute or a
    # method in its class's own namespace, so a deletion breaks --trace
    names = traced_names()
    missing = []
    for mod_name, attr in names:
        mod = importlib.import_module(f"cubeforge.{mod_name}")
        cls, _, meth = attr.rpartition(".")
        if not (meth in vars(getattr(mod, cls)) if cls
                else hasattr(mod, attr)):
            missing.append((mod_name, attr))
    assert names and missing == []


def read_names(path):
    """Every identifier a file reads (names and attributes), except those a
    top-level definition reads of its own name."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        found |= {getattr(node, "id", None) or getattr(node, "attr", None)
                  for node in ast.walk(top)
                  if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    return found


def test_every_public_name_has_a_caller():
    # a name in __all__ is read by the package itself (its re-export in
    # __init__ does not count), by a demo, or by the tracer's LAYERS
    package = Path(cubeforge.__file__).parent
    read = set().union(*(read_names(path)
                         for path in [*package.glob("*.py"),
                                      *(ROOT / "demos").glob("*.py")]
                         if path.name != "__init__.py"))
    read |= {part for _, attr in traced_names() for part in attr.split(".")}
    assert [n for n in cubeforge.__all__
            if n not in read and n not in UNCALLED] == []
    assert sorted(UNCALLED & read) == []


def test_bruteforce_imports_no_cubeforge_module():
    # the oracles must share no code with the package they check
    tree = ast.parse((Path(__file__).parent / "bruteforce.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [m for m in imported if m.split(".")[0] == "cubeforge"] == []


def test_verifiers_never_key_on_object_identity():
    # systems share equal levels by reference, so a verifier, or the
    # analysis sweep and the cube-axiom memo that group levels, memoizing on
    # id() would trust the builder; it must key on the arrays' bytes
    calls = []
    for path in sorted(Path(cubeforge.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) \
                    and (fn.name.startswith("verify_")
                         or path.name in ("analysis.py", "cubes.py")):
                calls += [(path.name, fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.Name) and node.id == "id"]
    assert calls == []


def test_content_keys_stay_in_two_places():
    # the family's level table holds what its systems share, so its readers
    # index the table; keying on array bytes is left to the builder's
    # closure and to the cube-axiom checker, which takes any list of
    # systems. Comparing two arrays' bytes for equality is no key
    sites = set()
    for path in sorted(Path(cubeforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [node for top in tree.body for node in
                ([top] if not isinstance(top, ast.ClassDef) else top.body)
                if isinstance(node, ast.FunctionDef)]
        for fn in defs:
            parent = {child: node for node in ast.walk(fn)
                      for child in ast.iter_child_nodes(node)}
            if any(isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "tobytes"
                   and not isinstance(parent[node], ast.Compare)
                   for node in ast.walk(fn)):
                sites.add((path.name, fn.name))
    assert sites == {("cubes.py", "close_level"),
                     ("cubes.py", "verify_cube_axioms")}


def test_one_function_constructs_adjacent_families():
    # every family, fixed, pinned or drawn, comes from the one builder
    builders = []
    for path in sorted(Path(cubeforge.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "AdjacentFamily"
                    for node in ast.walk(fn)):
                builders.append((path.name, fn.name))
    assert builders == [("adjacent.py", "_build_family")]


def test_one_function_refuses_ids_out_of_range():
    # every caller-supplied level, point, cube, center, child and system
    # index goes through errors.require_id; a function raising its own
    # "... outside [" PreconditionFail is a second guard
    guards = []
    for path in sorted(Path(cubeforge.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id == "PreconditionFail"
                    and "outside [" in ast.unparse(node.exc)
                    for node in ast.walk(fn)):
                guards.append((path.name, fn.name))
    assert guards == [("errors.py", "require_id")]


def test_one_table_holds_the_constants():
    # the paper's constants are written once, in constants.py: no other
    # module raises the triangle constant to a power or sets a tolerance or
    # headroom limit of its own, and constants.py reads no module but errors
    copies = []
    for path in sorted(Path(cubeforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "constants.py":
            imported = [node.module for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.level]
            assert imported == ["errors"]
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base = node.left
                name = getattr(base, "id", getattr(base, "attr", None))
                if name in ("tri", "tri_const"):
                    copies.append((path.name, ast.unparse(node)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(node, "targets", [getattr(node, "target",
                                                            None)])
                copies += [(path.name, t.id) for target in targets
                           for t in ast.walk(target)
                           if isinstance(t, ast.Name)
                           and (t.id in ("_TOL", "_REL_TOL")
                                or t.id.endswith("_PRODUCT_LIMIT"))]
    assert copies == []


def test_one_ball_sweep():
    # every ball is read through ball_blocks: no module defines or calls a
    # per-center ball_sweep beside it
    found = []
    for path in sorted(Path(cubeforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "name", None) or getattr(node, "id", None)
                    or getattr(node, "attr", None))
            if name == "ball_sweep":
                found.append((path.name, type(node).__name__))
    assert found == []


def test_cube_verifier_calls_no_builder():
    # verify_cube_axioms must not trust what it checks: neither it nor any
    # function of cubes.py it reaches calls a builder or a closure step
    tree = ast.parse((Path(cubeforge.__file__).parent / "cubes.py").read_text())
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached, todo, called = set(), ["verify_cube_axioms"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(defs[name])
                 if isinstance(node, (ast.Name, ast.Attribute))}
        called |= names
        todo += [n for n in names if n in defs]
    assert {"_sandwich", "_descendants", "_partition", "_nesting"} <= reached
    assert sorted(n for n in called if n and (
        n.startswith("build_") or n in ("close_level", "close_assign",
                                        "pick_children"))) == []


def test_one_closure_closes_every_table():
    # every cube system is a column of a level table closed by
    # cubes.close_table: no other function calls close_level, the modules
    # that build or read tables import none of its helpers, and the
    # per-caller closures, writers and level readers are gone
    package = Path(cubeforge.__file__).parent
    helpers = {"close_assign", "close_level", "_level_json", "_parent_json"}
    gone = {"_own_levels", "_table_levels", "_close_levels", "_system_json"}
    callers, imports, defined = [], [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name in gone:
                defined.append((path.name, fn.name))
            if any(isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None)) == "close_level"
                   for node in ast.walk(fn)):
                callers.append((path.name, fn.name))
        if path.name in ("adjacent.py", "analysis.py", "random_systems.py"):
            imports += [(path.name, alias.name) for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        for alias in node.names if alias.name in helpers]
    assert callers == [("cubes.py", "close_table")]
    assert imports == []
    assert defined == []


def test_a_cube_system_is_one_column_of_its_level_table():
    # a lone system stores nothing beside its table, so it converts to no
    # other form: built, read back or viewed from a family, it is a
    # one-column table and writes the family's document of its column
    space = generate_space({"kind": "euclidean_cloud", "n": 40, "dim": 2,
                            "seed": 3, "box": 20.0})
    lab = build_labels(build_reference_hierarchy(space, 1 / 144))
    fam = build_adjacent_family(lab)
    assert issubclass(CubeSystem, LevelTable)
    assert [f.name for f in dataclasses.fields(CubeSystem)] \
        == [f.name for f in dataclasses.fields(LevelTable)]
    lone = build_cube_system(space, lab.hierarchy.levels, lab.order)
    for system in (lone, CubeSystem.from_json(lone.to_json(), space),
                   fam.system(2)):
        assert system.n_systems == 1
        assert not hasattr(system, "column") and not hasattr(system, "order")
    assert [fam.system(t).to_json() for t in range(1, fam.n_systems + 1)] \
        == fam.documents()


def _twice_tri(node):
    """Whether `node` multiplies 2 by a name or attribute tri or tri_const."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    sides = (node.left, node.right)
    return any(isinstance(side, ast.Constant) and side.value == 2
               for side in sides) and any(
        getattr(side, "id", getattr(side, "attr", None)) in ("tri", "tri_const")
        for side in sides)


def test_a_link_is_its_parent_map():
    # the tight flags follow from distances, so no order or table stores
    # them: ParentMaps holds maps alone, the family's (map, tight) packing
    # is gone, and only SystemConstants.tight_radius divides by 2·A0
    assert "tight" not in [f.name for f in dataclasses.fields(ParentMaps)]
    assert not hasattr(adjacent, "_distinct_links")
    found = []
    for path in sorted(Path(cubeforge.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Div)
                    and _twice_tri(node.right) for node in ast.walk(fn)):
                found.append((path.name, fn.name))
    assert found == [("constants.py", "tight_radius")]


def _outer_difference(node):
    """Whether `node` takes all pairwise differences of one array: an
    np.subtract.outer, or a[..., None, ...] - a[None, ...] of one `a`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "outer" and getattr(node.value, "attr", None) \
            == "subtract"
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    sides = (node.left, node.right)
    return all(isinstance(side, ast.Subscript) and any(
        isinstance(part, ast.Constant) and part.value is None
        for part in ast.walk(side.slice)) for side in sides) \
        and ast.unparse(node.left.value) == ast.unparse(node.right.value)


def test_one_coordinate_kernel():
    # every coordinate distance comes from space._coord_dists: no other
    # function of the package subtracts coordinate columns, but from_line,
    # whose |a - b| is the line's own metric and stays finite where the
    # kernel's squares overflow; and no row oracle is left beside the block
    # oracle
    found, row_oracles = set(), []
    for path in sorted(Path(cubeforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        tops = [node for top in tree.body
                for node in (top.body if isinstance(top, ast.ClassDef)
                             else [top])
                if isinstance(node, ast.FunctionDef)]
        found |= {(path.name, fn.name) for fn in tops
                  if any(map(_outer_difference, ast.walk(fn)))}
        row_oracles += [(path.name, name) for node in ast.walk(tree)
                        for name in [getattr(node, "id", None)
                                     or getattr(node, "attr", None)
                                     or getattr(node, "arg", None)]
                        if name in ("_row_fn", "row_fn", "_coords_rows")]
    assert sorted(found) == [("space.py", "_coord_dists"),
                             ("space.py", "from_line")]
    assert row_oracles == []
