import ast
from pathlib import Path

import ltdl


def test_no_assert_statements_in_the_package():
    # `python -O` drops assert statements, so no correctness gate may be one
    files = sorted(Path(ltdl.__file__).parent.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    # every name a module imports is referenced in that module; __init__.py
    # imports to re-export, so it is skipped
    files = sorted(p for p in Path(ltdl.__file__).parent.glob("*.py")
                   if p.name != "__init__.py")
    assert files
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def _scope(node):
    """(names referenced directly in this scope, definitions nested in it);
    a nested definition's body is its own scope, its decorators are not."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names, children = set(), []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, defs):
            children.append(sub)
            stack.extend(sub.decorator_list)
            continue
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
    return names, children


def unreferenced_definitions(package_dir, exported):
    """Functions, classes and methods that nothing live in the package names.

    Module-level code and the exported names are live; a definition becomes
    live once a live scope names it (as a bare name or an attribute), and
    then its body is scanned in turn, so code reached only from dead code is
    dead too.  Dunder methods of a live class are live.  Names are matched
    by identifier, so a reference never goes unseen, only over-attributed.
    """
    live = set(exported)
    pending = []
    for path in sorted(Path(package_dir).glob("*.py")):
        names, children = _scope(ast.parse(path.read_text(), filename=str(path)))
        live |= names
        pending += [(f"{path.stem}.{c.name}", c) for c in children]
    grew = True
    while grew:
        grew = False
        for item in list(pending):
            qualname, node = item
            if node.name in live or (node.name.startswith("__") and node.name.endswith("__")):
                pending.remove(item)
                names, children = _scope(node)
                live |= names
                pending += [(f"{qualname}.{c.name}", c) for c in children]
                grew = True
    return sorted(qualname for qualname, _ in pending)


def test_every_definition_is_used_in_the_package():
    # a definition that only tests reach belongs in the test that uses it
    assert unreferenced_definitions(Path(ltdl.__file__).parent, ltdl.__all__) == []


def test_series_imports_no_coefficient_ring():
    # a coefficient's format and drop policy belong to its ring (FieldDesc,
    # WittRing, PadicParams), so the series layer imports none of their modules
    path = Path(ltdl.__file__).parent / "series.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert "errors" in imported
    assert not imported & {"ffield", "witt", "cyclo"}


def test_series_reaches_coefficients_only_through_their_ring():
    # raw coefficient values (ints, tuples, BoundedPadic) are read and
    # combined by the ring's add, neg, mul, is_negligible and residue, never
    # by element methods
    text = (Path(ltdl.__file__).parent / "series.py").read_text()
    assert [m for m in (".is_zero(", ".reduce_mod_p(", ".coeffs", ".digits(") if m in text] == []


def test_cli_catches_verification_errors_only_on_its_entry_paths():
    # a raising identity fails its own entry through `identity_entry`, a raising
    # verify-all suite its `<suite>.error` through `suite`, and any other
    # raise the generic entry in `main`; no other code in cli.py catches
    # VerificationError, by name, through a base class or with a bare except
    path = Path(ltdl.__file__).parent / "cli.py"
    catching = {"VerificationError", "AssertionError", "Exception", "BaseException"}
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and (
                    node.type is None
                    or catching & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}):
                found.add(getattr(top, "name", "<module>"))
    assert found == {"identity_entry", "suite", "main"}


def raise_sites(path, exception):
    """`<module>.<qualified name of the enclosing definition>` of every
    `raise exception(...)` or `raise exception` in the module at `path`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    sites = set()
    stack = [(ast.parse(path.read_text(), filename=str(path)), path.stem)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                raised = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(raised, ast.Name) and raised.id == exception:
                    sites.add(scope)
            stack.append((child, f"{scope}.{child.name}" if isinstance(child, defs) else scope))
    return sites


def test_budget_errors_come_only_from_the_cli_and_the_group_list_bound():
    # RunConfig.validate() refuses a config by its size before any handler
    # runs; a library function keeps only the limits of its representation,
    # of which GLGroup's bound on its element list is the one that raises
    # BudgetError, so no library cost check grows back
    sites = set()
    for path in sorted(Path(ltdl.__file__).parent.glob("*.py")):
        sites |= raise_sites(path, "BudgetError")
    assert "cli.RunConfig.validate" in sites
    assert {s for s in sites if not s.startswith("cli.")} == {"gl_characters.GLGroup.__init__"}
