"""Every attribute the benchmark's set-up and qrel-serve read still exists.

``perfbench/coldstart.py`` fills each workload's lookup tables by reading
them with ``getattr`` on the LD and Girard forms of catalog entries, and
``perfbench/workloads.py`` reads the dualizer and the element list of the
qrel-serve carriers.  A renamed or dropped attribute would otherwise
surface only when the benchmark runs.  The set-up module is imported from
its file, as the benchmark does, without importing the rest of
``perfbench``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from linrel.verify import catalog

COLDSTART = Path(__file__).resolve().parent.parent / "perfbench" / "coldstart.py"


def load_coldstart():
    spec = importlib.util.spec_from_file_location("linrel_bench_coldstart", COLDSTART)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


COLD = load_coldstart()


@pytest.mark.parametrize("workload", sorted(COLD.SETUP_ENTRIES))
def test_fill_tables_reads_every_table(workload):
    COLD.fill_tables(catalog(10), workload)


def test_qrel_serve_carriers_expose_what_the_workload_reads():
    cat = catalog(10)
    for name in COLD.QREL_CARRIERS:
        entry = cat[name]
        ld, finite = entry.ld, COLD.ENTRIES[name][2]
        assert entry.girard.dualizer is not None, name
        assert ld.carrier.is_finite == finite, name
        if finite:
            assert list(ld.carrier.lattice.elements), name
        for attr in ("tensor", "par", "join", "meet", "leq"):
            assert callable(getattr(ld, attr)), (name, attr)
        assert ld.leq(ld.bottom, ld.top), name
