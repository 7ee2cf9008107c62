"""Every public top-level function and class of the package is used by the
package: code that only tests read belongs in the tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tightdesigns"

# name -> why it stays with no caller in the package
ALLOWED = {
    "constructions.known_designs": "the benchmark's tracer spans it (perfbench/tracing.py "
                                   "SPANNED); it goes when that span goes",
}


def unreferenced(package: Path) -> set[str]:
    """module.name of each public top-level def or class of `package` that no
    module reads, as a name or an attribute; importing a name or defining it
    does not read it."""
    defined, read = [], set()
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((node.name, f"{source.stem}.{node.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {qualified for name, qualified in defined if name not in read}


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced(PACKAGE) == set(ALLOWED)


def test_scan_flags_a_name_only_reexported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Kept, dropped, used\n")
    (tmp_path / "a.py").write_text("class Kept:\n    pass\n\ndef dropped():\n    pass\n\n"
                                   "def used():\n    return Kept()\n\ndef _private():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.used\n")
    assert unreferenced(tmp_path) == {"a.dropped"}


def test_package_root_is_its_docstring_alone():
    # each name has one import path, through its module
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree)
