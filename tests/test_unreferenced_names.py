"""Every public top-level function and class of the package, every public
method and property of such a class, and every public field of such a
dataclass, is used by the package: code and data that only tests read belong
in the tests."""

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


def unread_members(package: Path, members) -> set[str]:
    """module.Class.name of each public name in members(node) for a public
    top-level class `node` of `package` that no module reads as an attribute.

    A read is matched by its attribute name alone, whatever object it is read
    from, so a member that shares its name with an attribute read elsewhere
    is never flagged: a field `r1` passes because `row.r1` reads a parameter
    row's, and a field `t` because `args.t` reads a parsed option.  Such
    fields need a look by hand."""
    defined, read = [], set()
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined.extend((name, f"{source.stem}.{node.name}.{name}")
                               for name in members(node) if not name.startswith("_"))
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return {qualified for name, qualified in defined if name not in read}


def unread_methods(package: Path) -> set[str]:
    """Each public method or property of a public class that no module reads."""
    return unread_members(package, lambda node: [
        item.name for item in node.body if isinstance(item, ast.FunctionDef)])


def unread_fields(package: Path) -> set[str]:
    """Each public field of a public dataclass that no module reads."""
    def fields(node):
        decorators = [getattr(d, "func", d) for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            return []
        return [item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return unread_members(package, fields)


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced(PACKAGE) == set(ALLOWED)


def test_every_public_method_has_a_caller_in_the_package():
    assert unread_methods(PACKAGE) == set()


def test_every_public_dataclass_field_is_read_in_the_package():
    assert unread_fields(PACKAGE) == set()


def test_scan_flags_a_name_only_reexported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Kept, dropped, used\n")
    (tmp_path / "a.py").write_text("class Kept:\n    pass\n\ndef dropped():\n    pass\n\n"
                                   "def used():\n    return Kept()\n\ndef _private():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.used\n")
    assert unreferenced(tmp_path) == {"a.dropped"}


def test_method_scan_flags_a_method_read_only_as_a_name(tmp_path):
    (tmp_path / "a.py").write_text("class Word:\n    def kept(self):\n        pass\n\n"
                                   "    @property\n    def dropped(self):\n        pass\n\n"
                                   "    def _private(self):\n        pass\n\n"
                                   "class _Hidden:\n    def unread(self):\n        pass\n\n"
                                   "dropped = Word().kept\n")
    assert unread_methods(tmp_path) == {"a.Word.dropped"}


def test_field_scan_flags_a_dataclass_field_never_read(tmp_path):
    (tmp_path / "a.py").write_text("from dataclasses import dataclass\n\n"
                                   "@dataclass(frozen=True)\nclass Row:\n    n: int\n"
                                   "    dropped: int\n    _hidden: int\n\n"
                                   "@dataclass\nclass Bare:\n    unread: int\n\n"
                                   "class Plain:\n    ignored: int\n\n"
                                   "VALUE = Row(1, 2, 3).n\n")
    assert unread_fields(tmp_path) == {"a.Row.dropped", "a.Bare.unread"}


def test_package_root_is_its_docstring_alone():
    # each name has one import path, through its module
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree)
