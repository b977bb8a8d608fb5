import ast
import os
import re
import subprocess
import sys
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
    """(bare names referenced directly in this scope, attribute names
    referenced in it, definitions nested in it); a nested definition's body
    is its own scope, its decorators are not."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names, attrs, children = set(), set(), []
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
            attrs.add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
    return names, attrs, children


def unreferenced_definitions(package_dir, exported):
    """Functions, classes and methods that nothing live in the package names.

    Module-level code and the exported names are live; a function or class
    becomes live once a live scope names it (as a bare name or an
    attribute), a method only once a live scope names it as an attribute
    (`x.conj`, never a local `conj`), and then its body is scanned in turn,
    so code reached only from dead code is dead too.  Dunder methods of a
    live class are live.  Names are matched by identifier, so a reference
    never goes unseen, only over-attributed.
    """
    names, attrs = set(exported), set()
    pending = []

    def scan(qualname, node):
        found, found_attrs, children = _scope(node)
        names.update(found)
        attrs.update(found_attrs)
        method = isinstance(node, ast.ClassDef)
        pending.extend((f"{qualname}.{c.name}", c, method) for c in children)

    for path in sorted(Path(package_dir).glob("*.py")):
        scan(path.stem, ast.parse(path.read_text(), filename=str(path)))
    grew = True
    while grew:
        grew = False
        for item in list(pending):
            qualname, node, method = item
            name = node.name
            if (name in attrs or (not method and name in names)
                    or (name.startswith("__") and name.endswith("__"))):
                pending.remove(item)
                scan(qualname, node)
                grew = True
    return sorted(qualname for qualname, _, _ in pending)


def test_every_definition_is_used_in_the_package():
    # a definition that only tests reach belongs in the test that uses it
    assert unreferenced_definitions(Path(ltdl.__file__).parent, ltdl.__all__) == []


def test_a_method_named_only_by_a_bare_local_is_unused(tmp_path):
    # `conj = ...` in a live function names no method; `a.used()` does
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def conj(self):\n"
        "        return 1\n"
        "\n"
        "    def used(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        "def f(a):\n"
        "    conj = a.used()\n"
        "    return conj\n")
    assert unreferenced_definitions(tmp_path, ["A", "f"]) == ["mod.A.conj"]


def test_series_imports_no_coefficient_ring():
    # a coefficient's format and drop policy belong to its ring (FieldDesc,
    # WittRing), so the series layer imports none of their modules
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
    # raw coefficient values (ints, tuples) are read and
    # combined by the ring's add, neg, mul, is_negligible and residue, never
    # by element methods
    text = (Path(ltdl.__file__).parent / "series.py").read_text()
    assert [m for m in (".is_zero(", ".reduce_mod_p(", ".coeffs", ".digits(") if m in text] == []


def test_cli_catches_verification_errors_only_on_its_entry_paths():
    # the one runner fails a raising identity's own entry and turns any
    # other raise in a suite into `<suite>.error`; no other code in cli.py
    # catches VerificationError, by name, through a base class or with a
    # bare except
    path = Path(ltdl.__file__).parent / "cli.py"
    catching = {"VerificationError", "AssertionError", "Exception", "BaseException"}
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and (
                    node.type is None
                    or catching & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}):
                found.add(getattr(top, "name", "<module>"))
    assert found == {"run_suites"}


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
    # runs, against the one work budget that cli.py defines; a library
    # module keeps only the limits of its representation (the field tables'
    # size, GLGroup's bound on its element list), of which the
    # last is the one that raises BudgetError, so no library cost check
    # grows back
    sites, limits, imported = set(), set(), set()
    size_name = re.compile(r"MAX_|BOUND|BUDGET|LIMIT")
    for path in sorted(Path(ltdl.__file__).parent.glob("*.py")):
        sites |= raise_sites(path, "BudgetError")
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                limits |= {f"{path.stem}.{target.id}" for target in node.targets
                           if isinstance(target, ast.Name) and size_name.search(target.id)}
            elif isinstance(node, ast.ImportFrom):
                imported |= {f"{path.stem} <- {alias.name}" for alias in node.names
                             if size_name.search(alias.name)}
    assert "cli.RunConfig.validate" in sites
    assert {s for s in sites if not s.startswith("cli.")} == {"gl_characters.GLGroup.__init__"}
    assert limits == {"cli.WORK_BUDGET", "ffield.MAX_FIELD_SIZE", "gl_characters.MAX_GROUP_ORDER"}
    # the cli checks the fields a run builds against the tables; nothing
    # else reads a limit across modules
    assert imported == {"cli <- MAX_FIELD_SIZE"}


def test_importing_the_cli_loads_no_fractions():
    # `fractions` and the `decimal` it imports cost every command, --version
    # included, milliseconds of start-up; the package computes in ints.  So
    # do `dataclasses` and the `inspect` it imports
    src = str(Path(ltdl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, ltdl.cli; "
            "print(sorted({'fractions', 'decimal', 'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_one_field_kernel_and_one_polynomial_module():
    # F_q arithmetic is FieldDesc's, F_p's included, so no other class
    # defines both add and inv; F_q[x] is ffield's poly_* functions, so no
    # other module defines a public poly_* function
    kernels, poly_modules = set(), set()
    for path in sorted(Path(ltdl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods = {d.name for d in node.body if isinstance(d, ast.FunctionDef)}
                if {"add", "inv"} <= methods:
                    kernels.add(f"{path.stem}.{node.name}")
        if any(isinstance(node, ast.FunctionDef) and node.name.startswith("poly_")
               for node in tree.body):
            poly_modules.add(path.stem)
    assert kernels == {"ffield.FieldDesc"}
    assert poly_modules == {"ffield"}


def test_one_number_system_for_the_module():
    # the module is solved over Z/p^M, a Witt ring, and embedded into
    # W(F_q)/p^N, so witt defines no class beside the two Witt rings, the
    # module layer takes nothing from witt but witt_ring, and no error is
    # left for a p-adic denominator
    package = Path(ltdl.__file__).parent

    def tree(name):
        return ast.parse((package / f"{name}.py").read_text())

    classes = {node.name for node in tree("witt").body if isinstance(node, ast.ClassDef)}
    from_witt = {alias.name for node in ast.walk(tree("formal_modules"))
                 if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("witt")
                 for alias in node.names}
    errors = {node.name for node in tree("errors").body if isinstance(node, ast.ClassDef)}
    assert classes == {"WittRing", "PrimeWittRing"}
    assert from_witt == {"witt_ring"}
    assert "DenominatorOverflow" not in errors


def test_one_walk_over_gl_n_and_the_dl_equation_from_its_closed_form():
    # GL_n(F_q) is walked once, by linalg's closure, so no other module calls
    # its product by a generator; dl_variety reads P off Moore's closed form,
    # so it takes no product of series families from the series layer
    callers, from_series = set(), set()
    for path in sorted(Path(ltdl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                    node.func.id in ("vec_mul", "sparse_columns")):
                callers.add(path.stem)
            if path.stem == "dl_variety" and isinstance(node, ast.ImportFrom) and (
                    node.module == "series"):
                from_series |= {alias.name for alias in node.names}
    assert callers == {"linalg"}
    assert from_series == {"SeriesRing", "TruncatedSeries"}


def test_the_depth0_suite_builds_one_factor_per_class():
    # P_{ca} = c~ P_a, so the suite builds P_a at the class representatives
    # alone: depth0 keeps no per-member census helper, and only
    # deformation_factors calls build_P_a anywhere in the package
    callers = set()
    for path in sorted(Path(ltdl.__file__).parent.glob("*.py")):
        stack = [(ast.parse(path.read_text(), filename=str(path)), path.stem)]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id == "build_P_a"):
                    callers.add(scope)
                stack.append((child, f"{path.stem}.{child.name}"
                              if isinstance(child, ast.FunctionDef) else scope))
    defined = {node.name for node in ast.parse(
        (Path(ltdl.__file__).parent / "depth0.py").read_text()).body
        if isinstance(node, ast.FunctionDef)}
    assert callers == {"depth0.deformation_factors"}
    assert not defined & {"scalar_compat_check", "projective_classes"}


def test_power_basis_values_only_order_and_print_the_character_table():
    # cuspidality and pi * St = Ind theta are decided on residues mod the
    # table prime, so gl_characters names from_powers only where it sorts
    # the rows (dixon_table) and prints them (CharacterTable.to_json), takes
    # no euler_phi, and its table keeps no power-basis irreducibles
    path = Path(ltdl.__file__).parent / "gl_characters.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    namers, stack = set(), [(tree, path.stem)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "from_powers":
                namers.add(scope)
            stack.append((child, f"{scope}.{child.name}"
                          if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert namers == {"gl_characters.dixon_table", "gl_characters.CharacterTable.to_json"}
    assert "euler_phi" not in imported
    assert "irreducibles" not in attributes
