"""One cold set-up in a fresh interpreter, optionally followed by a replay.

    python3 perfbench/probe.py WORKLOAD SEED REPLAY

Prints one JSON line: the set-up seconds, raw and scaled by the reference
kernel measured before and after it (see `calibrate.py`), and, when
REPLAY > 0, the digest of the first REPLAY responses of the workload under
SEED.  `run.py` starts it several times to take the median set-up and to
check that a separate process reproduces its responses byte for byte.  Nothing linrel imports is imported
before the set-up clock starts, so the set-up time includes those modules.
"""

import sys

from calibrate import REFERENCE_MS, kernel_ms
from coldstart import cold_setup, use_checkout_src


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not use_checkout_src():
        print("usage: probe.py WORKLOAD SEED REPLAY, run from a linrel checkout",
              file=sys.stderr)
        return 2
    workload, seed, replay = argv[0], int(argv[1]), int(argv[2])
    before = kernel_ms()
    raw = cold_setup(workload)
    kernel = (before + kernel_ms()) / 2
    out = {"raw_setup_s": raw, "setup_s": raw * REFERENCE_MS / kernel}

    import json

    if replay:
        from linrel import verify
        from loop import replay_digest
        from workloads import WORKLOADS

        work = WORKLOADS[workload](verify.catalog(10))
        out["digest"] = replay_digest(work, seed, replay)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
