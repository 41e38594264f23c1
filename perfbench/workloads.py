"""The three closed-loop workloads: request generation, serving, checking.

Each workload hands out requests in decks.  A deck has a fixed composition
(the op / entry / size-bin mix) and a fixed order; the workload seed fills in
everything else (relation shapes and values, sampler seeds and counts).  A
fixed mix per deck keeps the work per second comparable across seeds; the
seed still changes every input.  `serve` is the only part a request's latency
covers; `deck` (the load generator) and `check` run outside the timed
interval.

Library functions are always called through their module attribute
(`qrel.compose_tensor`, `cli.main`, ...) so that the traced run, which
rebinds those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Any

from coldstart import ENTRIES, QREL_CARRIERS
from linrel import cli, qrel, verify
from linrel.quantale import MINUS_INF, PLUS_INF
from linrel.report import Sampler

# A fixed shuffle of every deck, independent of the workload seed, so that
# heavy and light requests interleave and a partly served deck holds the
# same requests on every seed.
_DECK_ORDER_SEED = 20220912


@dataclass(frozen=True)
class Request:
    kind: str        # op kind, for the time-share table
    backend: str     # "zint" or "table"
    key: str         # identity of the request, for the repeat share
    payload: Any
    full_check: bool = True  # qrel-serve checks a seeded share in full


def _fixed_order(deck: list) -> list:
    random.Random(_DECK_ORDER_SEED).shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# qrel-serve: relation operations arriving as JSON


QREL_OPS = ("compose_tensor", "compose_par", "right_extension",
            "right_lifting", "rel_dual")
# Side-length bins; every deck draws one shape per (op, carrier, bin).
QREL_BINS = ((8, 15), (16, 23), (24, 31), (32, 39), (40, 48))
QREL_WINDOW = 10
QREL_CHECK_RATE = 0.125
# Entries are sparse along the inner side n: a finite-carrier entry leaves
# the background element (bottom, or top for par) with probability 3/n, and
# each infinity has probability 1/(4n).  Uniform entries would make almost
# every composed entry saturate at top or an infinity, and a reply that
# dropped a term would still look right.
QREL_DENSE = 3.0
QREL_INF = 0.25


def _rel_json(rng, elements, background, n: int, src: str, tgt: str,
              n_src: int, n_tgt: int):
    if elements is None:
        inf = QREL_INF / n

        def entry():
            u = rng.random()
            if u < inf:
                return PLUS_INF
            if u < 2 * inf:
                return MINUS_INF
            return rng.randint(-QREL_WINDOW, QREL_WINDOW)
    else:
        dense = QREL_DENSE / n

        def entry():
            return rng.choice(elements) if rng.random() < dense else background
    return {
        "source": {"name": src.upper(), "members": [f"{src}{i}" for i in range(n_src)]},
        "target": {"name": tgt.upper(), "members": [f"{tgt}{i}" for i in range(n_tgt)]},
        "values": [[entry() for _ in range(n_tgt)] for _ in range(n_src)],
    }


class QrelServe:
    name = "qrel-serve"

    def __init__(self, catalog):
        self.amb = {c: catalog[c].ld for c in QREL_CARRIERS}
        self.dualizer = {c: catalog[c].girard.dualizer for c in QREL_CARRIERS}
        self.elements = {c: (list(self.amb[c].carrier.lattice.elements)
                             if ENTRIES[c][2] else None)
                         for c in QREL_CARRIERS}

    def deck(self, seed: int, index: int) -> list[Request]:
        rng = random.Random(f"qrel-serve/{seed}/{index}")
        deck = []
        for op in QREL_OPS:
            for carrier in QREL_CARRIERS:
                for lo, hi in QREL_BINS:
                    if rng.random() < 0.5:
                        nx = ny = nz = rng.randint(lo, hi)
                    else:
                        nx, ny, nz = (rng.randint(lo, hi) for _ in range(3))
                    els = self.elements[carrier]
                    amb = self.amb[carrier]
                    bg = amb.top if op == "compose_par" else amb.bottom
                    inner = nx if op == "right_extension" else ny

                    def rel(src, tgt, n_src, n_tgt):
                        return _rel_json(rng, els, bg, inner, src, tgt,
                                         n_src, n_tgt)
                    if op in ("compose_tensor", "compose_par"):
                        args = [rel("x", "y", nx, ny), rel("y", "z", ny, nz)]
                    elif op == "right_extension":
                        args = [rel("x", "y", nx, ny), rel("x", "z", nx, nz)]
                    elif op == "right_lifting":
                        args = [rel("z", "y", nz, ny), rel("x", "y", nx, ny)]
                    else:
                        args = [rel("x", "y", nx, ny)]
                    payload = json.dumps({"op": op, "carrier": carrier,
                                          "args": args}, separators=(",", ":"))
                    deck.append(Request(
                        kind=op,
                        backend="table" if els is not None else "zint",
                        key=payload, payload=payload,
                        full_check=rng.random() < QREL_CHECK_RATE))
        return _fixed_order(deck)

    def serve(self, req: Request):
        obj = json.loads(req.payload)
        carrier = obj["carrier"]
        amb = self.amb[carrier]
        rels = [qrel.relation_from_json(a, amb) for a in obj["args"]]
        if obj["op"] == "rel_dual":
            out = qrel.rel_dual(rels[0], self.dualizer[carrier])
        else:
            out = getattr(qrel, obj["op"])(*rels)
        body = json.dumps(qrel.relation_to_json(out), separators=(",", ":"))
        return body.encode("utf-8"), None

    # -- correctness -------------------------------------------------------

    def check(self, req: Request, response) -> bool:
        obj = json.loads(req.payload)
        carrier, op = obj["carrier"], obj["op"]
        args = [a["values"] for a in obj["args"]]
        vals = json.loads(response[0])["values"]
        a = args
        rows, cols = {
            "compose_tensor": (len(a[0]), len(a[-1][0])),
            "compose_par": (len(a[0]), len(a[-1][0])),
            "right_extension": (len(a[0][0]), len(a[-1][0])),
            "right_lifting": (len(a[0]), len(a[-1])),
            "rel_dual": (len(a[0][0]), len(a[0])),
        }[op]
        if len(vals) != rows or any(len(row) != cols for row in vals):
            return False
        if not req.full_check:
            return True
        amb = self.amb[carrier]
        if op == "compose_tensor":
            return vals == self._tensor(carrier, args[0], args[1])
        if op == "compose_par":
            return vals == self._par(carrier, args[0], args[1])
        if op == "right_extension":
            # the extension s must satisfy f (x) s <= h
            return self._below(amb, self._tensor(carrier, args[0], vals), args[1])
        if op == "right_lifting":
            # the lifting s must satisfy s (x) f <= h
            return self._below(amb, self._tensor(carrier, vals, args[1]), args[0])
        return self._dual_ok(carrier, args[0], vals)

    def _tensor(self, carrier, a, b):
        if carrier == "zinf-tropical":
            return _lists(verify.oracle_maxplus(a, b))
        if carrier == "zinf-arctic":
            return _lists(verify.oracle_minplus(a, b))
        amb = self.amb[carrier]
        return _naive(a, b, amb.tensor, amb.join)

    def _par(self, carrier, a, b):
        if carrier == "zinf-tropical":
            return _lists(verify.oracle_minplus(a, b))
        if carrier == "zinf-arctic":
            return _lists(verify.oracle_maxplus(a, b))
        amb = self.amb[carrier]
        return _naive(a, b, amb.par, amb.meet)

    @staticmethod
    def _below(amb, lhs, rhs) -> bool:
        return all(amb.leq(a, b) for lr, rr in zip(lhs, rhs)
                   for a, b in zip(lr, rr))

    def _dual_ok(self, carrier, r, dual) -> bool:
        """Each dual entry is the largest c with r[x][y] (x) c <= d."""
        amb, d = self.amb[carrier], self.dualizer[carrier]
        cands = self.elements[carrier]
        if cands is None:
            w = 4 * QREL_WINDOW + 1
            cands = [MINUS_INF, *range(-w, w + 1), PLUS_INF]
        return all(
            dual[y][x] == amb.join([c for c in cands
                                    if amb.leq(amb.tensor(r[x][y], c), d)])
            for x in range(len(r)) for y in range(len(r[0])))


def _lists(rows):
    return [list(r) for r in rows]


def _naive(a, b, mult, fold):
    ny = len(b)
    return [[fold([mult(row[y], b[y][z]) for y in range(ny)])
             for z in range(len(b[0]))] for row in a]


# ---------------------------------------------------------------------------
# law-sweep: in-process CLI calls over every catalog entry


# verify-qrel random:N counts stay high enough that a broken entry's failure
# is found on any seed: N = 4, 8 and 12 missed the z2shift-broken par defect
# on 21, 5 and 2 of 60 seeds.
LAW_VERIFY_COUNTS = (40, 80)
LAW_THEOREM_COUNTS = (10, 40)
_SUMMARY = re.compile(r"=> (\d+)/(\d+) laws hold")


def law_expected_exit(command: str, entry: str) -> int:
    sound, girard, _ = ENTRIES[entry]
    if command in ("verify-qrel", "ldq"):
        return 0 if sound else 1
    if command == "girard-qrel":
        return 0 if girard else 1
    # check-girard-qrel and qrel-closed are only sent where they must pass
    return 0


class LawSweep:
    name = "law-sweep"

    def __init__(self, catalog):
        pass

    def deck(self, seed: int, index: int) -> list[Request]:
        rng = random.Random(f"law-sweep/{seed}/{index}")
        deck = []
        for entry, (sound, girard, finite) in ENTRIES.items():
            specs = [
                ("verify-qrel:exhaustive", "verify-qrel",
                 ["verify-qrel", "--entry", entry]),
            ]
            for max_set in ("2", "3"):
                n = rng.randint(*LAW_VERIFY_COUNTS)
                specs.append((f"verify-qrel:random:max-set-{max_set}", "verify-qrel",
                              ["verify-qrel", "--entry", entry, "--sampler",
                               f"random:{n}", "--max-set", max_set]))
            theorems = ["ldq", "girard-qrel"]
            if girard or entry == "chain3":
                theorems.append("qrel-closed")
            for thm in theorems:
                n = rng.randint(*LAW_THEOREM_COUNTS)
                specs.append((f"run-theorem:{thm}", thm,
                              ["run-theorem", thm, "--entry", entry,
                               "--sampler", f"random:{n}"]))
            if girard:
                n = rng.randint(*LAW_THEOREM_COUNTS)
                specs.append(("check-girard-qrel", "check-girard-qrel",
                              ["check-girard-qrel", "--entry", entry,
                               "--sampler", f"random:{n}"]))
            for kind, command, argv in specs:
                argv.extend(["--seed", str(rng.randrange(2 ** 31))])
                deck.append((kind, argv, entry, finite,
                             law_expected_exit(command, entry)))
        requests = []
        for i, (kind, argv, entry, finite, expected) in enumerate(_fixed_order(deck)):
            if i % 2:  # half the requests ask for the JSON report
                argv.append("--json")
            requests.append(Request(
                kind=kind, backend="table" if finite else "zint",
                key=" ".join(argv), payload=(argv, entry, expected)))
        return requests

    def serve(self, req: Request):
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req.payload[0])
        return out.getvalue().encode("utf-8"), code

    def check(self, req: Request, response) -> bool:
        argv, entry, expected = req.payload
        body, code = response
        if code != expected:
            return False
        text = body.decode("utf-8")
        if "--json" in argv:
            report = json.loads(text)
            suite = report["suite"]
            holds = all(e["status"] == "pass" for e in report["entries"])
        else:
            lines = text.strip().splitlines()
            suite = lines[0].removeprefix("suite: ")
            found = _SUMMARY.search(lines[-1])
            if found is None:
                return False
            holds = found.group(1) == found.group(2)
        return f"[{entry}]" in suite and holds == (code == 0)


# ---------------------------------------------------------------------------
# qmod-sweep: enriched-category and monad theorem drivers


QMOD_LINEAR = ("linear-qmod", "linear-monq")
QMOD_GIRARD = ("girard-qmod", "girard-monq", "qmod-closed")
QMOD_SAMPLER_COUNTS = (2, 6)
# girard-monq runs are the cheapest complete theorem runs (under 2 ms); three
# per (entry, deck), each with its own sampler, put the median latency inside
# the dense band of millisecond requests instead of on the edge between the
# cheap cluster (base-law failures, one-point bases) and the heavy one.
QMOD_DRAWS = {"girard-monq": 3}


class QmodSweep:
    name = "qmod-sweep"

    def __init__(self, catalog):
        pass

    def deck(self, seed: int, index: int) -> list[Request]:
        rng = random.Random(f"qmod-sweep/{seed}/{index}")
        deck = []
        for theorem in QMOD_LINEAR + QMOD_GIRARD:
            for entry, (sound, girard, finite) in ENTRIES.items():
                if not finite or (theorem in QMOD_GIRARD and not girard):
                    continue
                expected = sound if theorem in QMOD_LINEAR else True
                for _ in range(QMOD_DRAWS.get(theorem, 1)):
                    sampler = Sampler(mode="random", seed=rng.randrange(2 ** 31),
                                      count=rng.randint(*QMOD_SAMPLER_COUNTS))
                    deck.append(Request(
                        kind=theorem, backend="table",
                        key=f"{theorem} {entry} {sampler.seed} {sampler.count}",
                        payload=(theorem, entry, sampler, expected)))
        return _fixed_order(deck)

    def serve(self, req: Request):
        theorem, entry, sampler, _ = req.payload
        report = verify.run_theorem(theorem, entry, sampler)
        return report.json_bytes(), report.ok

    def check(self, req: Request, response) -> bool:
        theorem, entry, _, expected = req.payload
        body, ok = response
        suite = json.loads(body)["suite"]
        return ok == expected and suite.startswith(f"theorem-{theorem}[{entry}]")


WORKLOADS = {w.name: w for w in (QrelServe, LawSweep, QmodSweep)}
