"""Layering guard: the Spark batch and streaming layers build summaries and
flag bursts only through the kernel's ``summarize`` and ``flag_bursts``,
never through the primitives those are made of."""
import ast
from pathlib import Path

import pytest

import repro

KERNEL_ONLY = {"exact_quantiles_freq", "tail_prefix", "interval_sample", "mann_whitney_u"}
LAYER_MODULES = ["sparklayer/level1.py", "sparklayer/qlove_spark.py", "sparklayer/streaming.py"]


def _names(tree: ast.AST) -> set[str]:
    """Every imported, referenced or attribute name in a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@pytest.mark.parametrize("module", LAYER_MODULES)
def test_layer_uses_no_kernel_primitives(module):
    path = Path(repro.__file__).parent / module
    used = _names(ast.parse(path.read_text(), filename=str(path)))
    assert not used & KERNEL_ONLY, f"{module} uses {sorted(used & KERNEL_ONLY)}"
