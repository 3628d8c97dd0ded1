"""The package's public names, and the independence of the test oracles."""
import ast
from pathlib import Path

import cubeforge


def test_all_names_resolve_once():
    names = cubeforge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(cubeforge, n)] == []


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
