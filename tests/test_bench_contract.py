"""The names the benchmark under perfbench/ looks up in lexrag must keep resolving.

The tracer wraps each (module, name) pair in its SITES list where the caller
looks the name up, and the launcher and workloads import a few more; a rename
in lexrag would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

DIRECT_IMPORTS = [
    ("lexrag.kernels", "NUMBA_ENABLED"),
    ("lexrag.index", "bm25_scores"),
    ("lexrag.index", "dense_search"),
    ("lexrag.index", "embed"),
    ("lexrag.index", "load_indexes"),
    ("lexrag.embedding", "get_embedder"),
]


def _tracer_sites() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, names in tracer.SITES for name in names]


@pytest.mark.parametrize("module,name", _tracer_sites() + DIRECT_IMPORTS)
def test_benchmark_name_resolves(module, name):
    getattr(importlib.import_module(module), name)
