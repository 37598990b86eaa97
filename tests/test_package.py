import ast
from pathlib import Path

import khbraid


def test_every_public_name_resolves():
    # a name left in __all__ after its definition goes breaks
    # "from khbraid import *"
    missing = [name for name in khbraid.__all__ if not hasattr(khbraid, name)]
    assert not missing
    assert len(set(khbraid.__all__)) == len(khbraid.__all__)


def test_every_module_level_import_in_src_is_used():
    # checked on the AST: a name bound by a module-level import is read
    # somewhere in its module.  Exempt are __init__'s re-exports and the
    # imports that exist only for the benchmark's tracer to patch
    src = Path(khbraid.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and "# kept: perfbench/tracer.py patches" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno} {name}")
    assert not unused


def test_execute_is_called_only_by_the_one_table_reader():
    # checked on the AST: every surgery schedule, a product's or a saddle's,
    # is run by `arcalg._add_products`, which keeps its table, so a second
    # table format or reader beside it cannot come back unnoticed
    src = Path(khbraid.__file__).parent
    uses = []

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "_execute":
                uses.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert uses == [("arcalg", "_add_products")]


def test_src_stays_within_its_line_budget():
    # the standing rule of ROADMAP.md: src/khbraid/*.py total at most 2 830
    # lines, not counting a trace.py, whose size CHANGES.md states instead
    src = Path(khbraid.__file__).parent
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py") if p.name != "trace.py")
    assert lines <= 2830, lines
