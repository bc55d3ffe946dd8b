"""Every top-level function and class in src/pdaudit has a reader in
src/pdaudit: some name or attribute there refers to it. A definition that
only tests or the benchmark read is public surface the analyser does not
need (ROADMAP aim 2)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pdaudit"


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
