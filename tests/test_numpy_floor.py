"""The package uses no numpy name that is newer than its declared floor.

``pyproject.toml`` declares ``numpy>=1.24``.  The names below exist only from
numpy 2.0; on 1.24 each one fails when its line first runs, so a test run on
a newer numpy would not catch it.  The scan reads the syntax tree, so a name
mentioned in a comment or a docstring does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wfamin"

#: attributes that exist only from numpy 2.0, on any array
ARRAY_ATTRIBUTES = {"mT"}

#: ``np.<name>`` functions that exist only from numpy 2.0
NUMPY_NAMES = {
    "concat", "permute_dims", "pow", "acos", "asin", "atan", "atan2", "acosh", "asinh",
    "atanh", "matrix_transpose", "vecdot", "unique_all", "unique_counts", "unique_inverse",
    "unique_values", "astype", "isdtype", "unstack", "cumulative_sum", "cumulative_prod",
}

#: ``np.linalg.<name>`` functions that exist only from numpy 2.0
LINALG_NAMES = {
    "matrix_norm", "vector_norm", "vecdot", "svdvals", "matrix_transpose", "diagonal",
    "trace", "outer", "cross", "matmul", "tensordot",
}


def _dotted(node):
    """'np.linalg' for the expression np.linalg, None for anything but names."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _dotted(node.value)
        return None if inner is None else f"{inner}.{node.attr}"
    return None


def newer_names(source: str):
    """(line, name) for every numpy 2.0 name that ``source`` uses."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = _dotted(node.value)
            if node.attr in ARRAY_ATTRIBUTES:
                yield node.lineno, f".{node.attr}"
            elif owner in ("np", "numpy") and node.attr in NUMPY_NAMES:
                yield node.lineno, f"{owner}.{node.attr}"
            elif owner in ("np.linalg", "numpy.linalg") and node.attr in LINALG_NAMES:
                yield node.lineno, f"{owner}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            names = NUMPY_NAMES if node.module == "numpy" else LINALG_NAMES
            for alias in node.names:
                if alias.name in names:
                    yield node.lineno, f"{node.module}.{alias.name}"


def test_scan_finds_each_kind_of_name():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svdvals\n"
        "a = b.mT\n"
        "c = np.concat([a])\n"
        "d = np.linalg.vector_norm(c)\n"
        "e = np.linalg.norm(c)  # np.pow in a comment\n"
    )
    assert sorted(newer_names(source)) == [
        (2, "numpy.linalg.svdvals"), (3, ".mT"), (4, "np.concat"), (5, "np.linalg.vector_norm"),
    ]


def test_package_uses_no_numpy_2_names():
    hits = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in sorted(newer_names(path.read_text(encoding="utf-8")))
    ]
    assert hits == [], "numpy 2.0 names under the numpy>=1.24 floor:\n" + "\n".join(hits)
