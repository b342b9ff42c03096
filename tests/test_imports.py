"""The package's lints: no module imports a name it never uses, no
function or method is defined that nothing reads, no function assigns a
local it never reads, the graded calculus sums no products in a loop, no
module but poly takes a partial derivative outside the partials table, the
grammar builds its values without Fraction or GaussScalar, normal_form
builds pi_N and its local model without the GaussScalar point route
(matrix_at, graph, images, transform), every module parses as the
oldest Python that pyproject.toml admits, and no module imports anything
but the package itself and the standard library (the package has no
runtime dependency).

The package __init__ is exempt from the first, since it imports names to
re-export them.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cxpoisson"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a definition may be read: the package, its tests and its benchmark
READERS = ("src", "tests", "perfbench")


def unused_imports(source: str):
    """(line, name) for each name an import binds that no expression reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((node.lineno, name))
    return unused


def test_the_check_sees_an_unused_import():
    source = "from typing import List, Tuple\nimport os.path\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "Tuple"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_functions(source: str):
    """(line, name) of every function and method a module defines, dunders
    left out."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def read_names(source: str):
    """Every name a module reads, as a variable or as an attribute; an import
    alone is not a read."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unread_functions(modules, readers):
    """(module, line, name) for each function or method defined in one of the
    modules ({name: source}) whose name none of the readers (sources) reads."""
    read = set().union(*(read_names(src) for src in readers))
    return [
        (mod, line, name)
        for mod, src in sorted(modules.items())
        for line, name in defined_functions(src)
        if name not in read
    ]


def test_the_check_sees_an_unread_function():
    lib = "class C:\n    def used(self): pass\n    def unused(self): pass\n    def __len__(self): pass\n" \
          "def helper(): pass\ndef dead(): pass\n"
    user = "from lib import dead\nC().used()\nhelper()\n"
    assert unread_functions({"lib": lib}, [lib, user]) == [("lib", 3, "unused"), ("lib", 6, "dead")]


def test_every_function_is_read_somewhere():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for d in READERS for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_functions(modules, readers) == []


def unread_locals(source: str):
    """(line, function, name) for each name a function assigns that nothing
    in the function, nested functions included, reads; `_` is exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
            read = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
            out += sorted({
                (node.lineno, fn.name, node.id)
                for node in names
                if isinstance(node.ctx, ast.Store) and node.id not in read and node.id != "_"
            })
    return out


def test_the_check_sees_an_unread_local():
    source = (
        "def f(a):\n    x = a\n    y, _ = a\n    z = 1\n    for w in a:\n        pass\n"
        "    def g():\n        return y\n    return g\n"
    )
    assert unread_locals(source) == [(2, "f", "x"), (4, "f", "z"), (5, "f", "w")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_local_it_assigns(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []


# the modules whose sums of Poly products all go through the product kernel:
# poly.poly_graded_products (fields) and poly.poly_sums_of_products (bivector)
KERNEL_CALLERS = ("fields", "bivector")


def product_accumulations(source: str):
    """(line, target) for each statement inside a loop that adds a product
    to a running sum: `t += x * y`, `t = t + x * y`, `t = t - x * y + ...`,
    or either branch of `t = t + u if c else u`, for a name or subscript t.
    A name the loop assigns from a product counts as a product."""
    out = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        body = list(ast.walk(loop))
        products = set()

        def has_product(node):
            return any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                or isinstance(n, ast.Name) and n.id in products
                for n in ast.walk(node)
            )

        for node in body:
            if isinstance(node, ast.Assign) and has_product(node.value):
                products.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in body:
            if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
                if has_product(node.value):
                    out.add((node.lineno, ast.unparse(node.target)))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = ast.unparse(node.targets[0])
                value = node.value
                for v in (value.body, value.orelse) if isinstance(value, ast.IfExp) else (value,):
                    added = []
                    while isinstance(v, ast.BinOp) and isinstance(v.op, (ast.Add, ast.Sub)):
                        added.append(v.right)
                        v = v.left
                    if ast.unparse(v) == target and any(map(has_product, added)):
                        out.add((node.lineno, target))
    return sorted(out)


def test_the_check_sees_a_product_accumulation():
    source = (
        "def f(xs, ys, out):\n"
        "    acc = 0\n"
        "    for x, y in zip(xs, ys):\n"
        "        acc = acc + x * y\n"
        "        out[0] = out[0] - x * y if x else out[0] + y\n"
        "        acc += 2 * x\n"
        "        acc = acc + x\n"
        "        term = x * y\n"
        "        out[x] = out[x] + term if x in out else term\n"
        "        other = acc + x * y\n"
        "    return acc + xs[0] * ys[0], other\n"
    )
    assert product_accumulations(source) == [(4, "acc"), (5, "out[0]"), (6, "acc"), (9, "out[x]")]


@pytest.mark.parametrize("name", KERNEL_CALLERS)
def test_graded_calculus_sums_products_only_through_the_kernel(name):
    assert product_accumulations((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) == []


def partial_readers(source: str):
    """(line, function) for each read of the name poly_partial, with the
    innermost function around it (None at module level)."""
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) \
                and getattr(node, "id", getattr(node, "attr", None)) == "poly_partial":
            out.append((node.lineno, fn))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return out


def test_the_check_sees_a_partial_outside_the_table():
    source = (
        "from .poly import poly_partial\n"
        "D = poly_partial\n"
        "def partials(p):\n    return poly_partial(p, 'x')\n"
        "def other(p):\n    def inner():\n        return poly.poly_partial(p, 'y')\n    return inner\n"
    )
    assert partial_readers(source) == [(2, None), (4, "partials"), (7, "inner")]


def test_partials_are_taken_only_by_the_fields_table():
    readers = {(p.stem, fn) for p in MODULES if p.stem != "poly"
               for _, fn in partial_readers(p.read_text(encoding="utf-8"))}
    assert readers == {("fields", "partials")}


SCALARS = ("Fraction", "GaussScalar")
# the GaussScalar-taking point route that normal_form does without
POINT_ROUTE = ("matrix_at", "graph", "images", "transform")


def name_reads(source: str, names):
    """(line, name) for each import of one of names, under any alias, and
    each read of one as an attribute (fractions.Fraction)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_the_check_sees_a_scalar_import():
    source = (
        "from fractions import Fraction as F\n"
        "from .scalars import GS_I, GaussScalar\n"
        "import fractions\n"
        "x = fractions.Fraction(1)\n"
        "from .poly import Poly\n"
    )
    assert name_reads(source, SCALARS) == [(1, "Fraction"), (2, "GaussScalar"), (4, "Fraction")]


def test_grammar_builds_values_without_scalar_objects():
    assert name_reads((PACKAGE / "grammar.py").read_text(encoding="utf-8"), SCALARS) == []


def test_the_check_sees_a_point_route_import():
    source = (
        "from .pointwise import _rows_at, matrix_at\n"
        "from .lagrangian import _graph, bivector_of_graph, graph as g, images\n"
        "L = lagrangian.transform('b_field', B, L)\n"
    )
    assert name_reads(source, POINT_ROUTE) == [(1, "matrix_at"), (2, "graph"), (2, "images"), (3, "transform")]


def test_normal_form_builds_its_model_from_rows():
    assert name_reads((PACKAGE / "normal_form.py").read_text(encoding="utf-8"), POINT_ROUTE) == []


# -- the declared Python floor ---------------------------------------------------


def python_floor():
    """(major, minor) of requires-python = ">=X.Y" in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_the_check_sees_syntax_past_the_floor():
    # except* came in Python 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=python_floor())


# -- no runtime dependency -------------------------------------------------------


def foreign_imports(source: str):
    """(line, module) for each import that is neither relative, nor of
    __future__, nor of a module of the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_the_check_sees_a_foreign_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, hypothesis\n"
        "from . import poly\n"
        "from .scalars import GaussScalar\n"
        "from sympy.matrices import Matrix\n"
        "from fractions import Fraction\n"
    )
    assert foreign_imports(source) == [(2, "hypothesis"), (5, "sympy.matrices")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_the_package_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
