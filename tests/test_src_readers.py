"""Every top-level function and class in src/pdaudit has a reader in
src/pdaudit: some name or attribute there refers to it. A definition that
only tests or the benchmark read is public surface the analyser does not
need (ROADMAP aim 2). Likewise every parameter of a function or method in
src/pdaudit is read in its body, save where the traced benchmark pins a
signature."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pdaudit"


def unread_definitions(src: Path) -> list[str]:
    """'module.name' of each module-level def or class of src/*.py that no
    ast.Name or ast.Attribute in src/*.py refers to. An import is not a
    reader; a use of the imported name is."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_top_level_definition_in_src_has_a_reader_in_src():
    assert unread_definitions(SRC) == []


def test_an_unread_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "import b\n\ndef used():\n    return b.helper()\n\n"
        "def unused():\n    return used()\n\nclass Ghost:\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from a import Ghost\n\ndef helper():\n    pass\n",
                                   encoding="utf-8")
    assert unread_definitions(tmp_path) == ["a.unused", "a.Ghost"]


def _functions(node: ast.AST, prefix: str):
    """(qualified name, node) of each function, method and lambda under
    node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            yield name, child
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
        yield from _functions(child, name)


def unread_parameters(src: Path, exempt: frozenset[str] = frozenset()) -> list[str]:
    """'module.qualname(param)' of each parameter of a function, method or
    lambda of src/*.py that its body never loads (a nested function or
    comprehension that loads it counts), skipping the functions whose
    'module.qualname' is in exempt."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, fn in _functions(tree, path.stem):
            if name in exempt:
                continue
            a = fn.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if x is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{name}({param})" for param in params if param not in read]
    return found


def pinned_signatures() -> frozenset[str]:
    """The functions whose parameters bench/layers.py pins: its STAGES, and
    the __init__ of the classes in its OTHER_NAMES, read from its source."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text(encoding="utf-8"))
    values = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    stages = ast.literal_eval(values["STAGES"])
    others = ast.literal_eval(values["OTHER_NAMES"])
    return frozenset([f"{mod}.{name}" for mod, name, _ in stages]
                     + [f"{mod}.{name}.__init__" for mod, name in others])


def test_every_parameter_in_src_is_read_unless_the_benchmark_pins_it():
    assert unread_parameters(SRC, pinned_signatures()) == []


def test_an_unread_parameter_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y, *rest, z=1, **kw):\n    return [x for _ in rest] + [lambda w: kw]\n\n"
        "class C:\n    def m(self, v):\n        def inner(u):\n            return v\n"
        "        return inner\n\n    def __init__(self, pinned):\n        self.k = 0\n",
        encoding="utf-8",
    )
    assert unread_parameters(tmp_path, frozenset({"a.C.__init__"})) == [
        "a.f(y)", "a.f(z)", "a.f.<lambda>(w)", "a.C.m(self)", "a.C.m.inner(u)"]
