import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tightdesigns"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    seen = set()
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{source.name} imports {name}"
                seen.add(top)
    assert {"fractions", "itertools"} <= seen


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants are checked with if/raise
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.Assert), f"{source.name}:{node.lineno} has an assert"


def test_package_reads_no_environment_variable():
    # every input arrives as a command-line argument, so the arguments explain a run
    names = {"environ", "environb", "getenv", "getenvb"}
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            assert name not in names, f"{source.name}:{node.lineno} reads {name}"
