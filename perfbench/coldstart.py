"""The catalog entries the workloads use, and the set-up a user of linrel
pays before the first request.

Kept free of linrel imports at module level, so a fresh interpreter that
imports this module and calls `cold_setup` times the whole import.
"""

from __future__ import annotations

import os
import sys
import time

# os.path rather than pathlib: nothing linrel imports (re, via pathlib) may
# load before the set-up clock starts.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Expected classification of every catalog entry, written out here rather
# than read back from `catalog()`.  `sound`: the README's sound entries pass
# every LD law and each `*-broken` entry perturbs one law.  `girard`: the
# tensor part has a cyclic dualizing element.  That holds for the Boolean
# frames, the group shift completions and the extended integers, not for the
# three-element chain, and it survives in the broken variants that perturb
# only the par table (z2shift-broken, zinf-broken).
ENTRIES: dict[str, tuple[bool, bool, bool]] = {
    # name: (sound, girard, finite)
    "point": (True, True, True),
    "bool": (True, True, True),
    "chain3": (True, False, True),
    "diamond": (True, True, True),
    "z2shift": (True, True, True),
    "z3shift": (True, True, True),
    "zinf-tropical": (True, True, False),
    "zinf-arctic": (True, True, False),
    "bool-broken": (False, False, True),
    "chain3-broken": (False, False, True),
    "diamond-broken": (False, False, True),
    "z2shift-broken": (False, True, True),
    "z3shift-broken": (False, False, True),
    "zinf-broken": (False, True, False),
}
QREL_CARRIERS = ("zinf-tropical", "zinf-arctic", "z3shift", "diamond")

# Catalog entries whose lazy tables each workload reads, and whether it reads
# them through the Girard form as well as the LD form.
SETUP_ENTRIES = {
    "qrel-serve": (QREL_CARRIERS, False),
    "law-sweep": (tuple(ENTRIES), True),
    "qmod-sweep": (tuple(n for n, (_, _, finite) in ENTRIES.items() if finite),
                   False),
}


def use_checkout_src() -> bool:
    """Put the checkout's `src` first on the import path; False if absent."""
    if not os.path.isfile(os.path.join(SRC, "linrel", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    return True


def fill_tables(catalog: dict, workload: str) -> None:
    """Force the cached lookup tables the workload's requests will read."""
    names, with_girard = SETUP_ENTRIES[workload]
    for name in names:
        entry = catalog[name]
        ambients = [entry.ld]
        if with_girard and entry.girard is not None:
            ambients.append(entry.girard)
        for amb in ambients:
            for table in ("tensor_map", "join_map", "meet_map", "par_map"):
                getattr(amb, table)


def cold_setup(workload: str) -> float:
    """Import linrel, build the window-10 catalog and fill the workload's
    tables; return the seconds taken.  Cold only in a fresh interpreter."""
    t0 = time.perf_counter()
    from linrel import verify

    fill_tables(verify.catalog(10), workload)
    return time.perf_counter() - t0
