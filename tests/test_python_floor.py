"""The oldest Python and numpy that pyproject.toml allows, checked statically.

The package claims Python >= 3.10 and numpy >= 1.24.  Every source file of
the package, its tests, the benchmark and the demos must parse under the
Python 3.10 grammar, and none may read a numpy attribute that only numpy 2
has.  This does not replace running those versions; it catches the two
mistakes that would fail them at import.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for directory in ("src", "tests", "perfbench", "demos")
                 for path in (ROOT / directory).rglob("*.py"))
FLOOR = (3, 10)

# Names that numpy 2.0 added to the main namespace (aliases of older ones).
NUMPY_2_ONLY = frozenset({"concat", "unique_counts", "unique_values", "vecdot",
                          "matrix_transpose", "permute_dims", "pow", "acos"})


def _numpy_2_names(tree):
    """(line, name) of each `np.<name>` or `numpy.<name>` read of a
    numpy-2-only name."""
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in NUMPY_2_ONLY
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")]


def test_the_checks_can_fail():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=FLOOR)
    assert _numpy_2_names(ast.parse("x = np.concat([a, b])")) == [(1, "concat")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(path.relative_to(ROOT)) for path in SOURCES])
def test_parses_under_the_floor_without_numpy_2_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                     feature_version=FLOOR)
    assert _numpy_2_names(tree) == []
