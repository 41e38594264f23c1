"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` rebinds linrel functions by module and attribute
name, so a rename in the library would otherwise surface only when the
benchmark runs.  The tracer is imported from its file, as the benchmark
does, without importing the rest of ``perfbench``.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("linrel_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_exists():
    specs = load_tracer().linrel_specs()
    assert len(specs) >= 43
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in specs
               if not callable(getattr(owner, attr, None))]
    assert missing == []
