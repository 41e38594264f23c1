"""The closed loop: one client, one thread, next request after the last reply."""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field

from calibrate import REFERENCE_MS, kernel_ms

# Responses covered by the digest that a separate process must reproduce.
PREFIX_REQUESTS = 6
# Service time between two measurements of the reference kernel.
REFERENCE_INTERVAL_S = 0.1
# Kernel measurements on each side of a request that its scale averages.
REFERENCE_SPAN = 2


def _digest_update(h, body: bytes, verdict) -> None:
    h.update(len(body).to_bytes(8, "little"))
    h.update(body)
    h.update(repr(verdict).encode("ascii"))


def requests(work, seed: int):
    """(deck index, deck size, request) for `seed`, deck after deck."""
    index = 0
    while True:
        deck = work.deck(seed, index)
        for req in deck:
            yield index, len(deck), req
        index += 1


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)   # wall-clock seconds
    scaled: list = field(default_factory=list)      # scaled to REFERENCE_MS
    deck_of: list = field(default_factory=list)
    in_full_deck: list = field(default_factory=list)
    kernel_ms: list = field(default_factory=list)
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    kind_time: Counter = field(default_factory=Counter)
    backend_count: Counter = field(default_factory=Counter)
    repeats: int = 0
    response_repeats: int = 0
    digest: str = ""
    prefix_digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def service_s(self) -> float:
        return sum(self.latencies)

    def full_decks(self) -> list:
        """Scaled latencies of the requests in decks that were served whole.

        A deck is the unit of the request mix, so statistics over whole decks
        do not depend on how far the last deck got.
        """
        return [v for v, full in zip(self.scaled, self.in_full_deck) if full]


def run_loop(work, seed: int, seconds: float, tracer=None,
             limit: int | None = None) -> LoopResult:
    """Serve requests until `seconds` of service time have been measured
    (and at least two requests served), or `limit` requests have been served.

    Only `work.serve` is inside the timed interval; generating the next
    request, checking the reply and measuring the reference kernel are not.
    A request fails if it raises or its reply does not pass the workload's
    check.  Each latency is also scaled by the mean of the kernel times
    measured nearest to it, up to `REFERENCE_SPAN` on each side.
    """
    res = LoopResult()
    full = hashlib.sha256()
    prefix = hashlib.sha256()
    seen_requests: set[str] = set()
    seen_responses: set[bytes] = set()
    clock = time.perf_counter
    service = 0.0
    since_kernel = 0.0
    res.kernel_ms.append(kernel_ms())
    kernel_index = []
    kinds = []
    decks = res.deck_of
    deck_sizes = {}
    for n, (deck, size, req) in enumerate(requests(work, seed)):
        if (service >= seconds and n >= 2) or n == limit:
            break
        if since_kernel >= REFERENCE_INTERVAL_S:
            res.kernel_ms.append(kernel_ms())
            since_kernel = 0.0
        if tracer is not None:
            tracer.request = n
        t0 = clock()
        try:
            response = work.serve(req)
        except Exception as exc:  # a failed request is counted, not fatal
            response = None
            error = type(exc).__name__
        dt = clock() - t0
        service += dt
        since_kernel += dt
        res.latencies.append(dt)
        kernel_index.append(len(res.kernel_ms) - 1)
        kinds.append(req.kind)
        decks.append(deck)
        deck_sizes[deck] = size
        res.backend_count[req.backend] += 1
        res.repeats += req.key in seen_requests
        seen_requests.add(req.key)
        if response is not None:
            body, verdict = response
            fingerprint = hashlib.sha256(body).digest()
            res.response_repeats += fingerprint in seen_responses
            seen_responses.add(fingerprint)
            _digest_update(full, body, verdict)
            if n < PREFIX_REQUESTS:
                _digest_update(prefix, body, verdict)
            try:
                error = None if work.check(req, response) else "wrong-result"
            except Exception as exc:  # a reply the checker cannot read
                error = f"check-{type(exc).__name__}"
        if error is not None:
            res.failed += 1
            res.failures[f"{req.kind}:{error}"] += 1
    if tracer is not None:
        tracer.request = -1
    res.kernel_ms.append(kernel_ms())
    k = res.kernel_ms
    res.scaled = []
    for dt, i in zip(res.latencies, kernel_index):
        near = k[max(0, i + 1 - REFERENCE_SPAN):i + 1 + REFERENCE_SPAN]
        res.scaled.append(dt * REFERENCE_MS * len(near) / sum(near))
    served = Counter(decks)
    res.in_full_deck = [served[d] == deck_sizes[d] for d in decks]
    for kind, dt in zip(kinds, res.scaled):
        res.kind_time[kind] += dt
    res.digest = full.hexdigest()
    res.prefix_digest = prefix.hexdigest()
    return res


def replay_digest(work, seed: int, count: int) -> str:
    """Digest of the first `count` responses, computed the way `run_loop` does."""
    h = hashlib.sha256()
    for n, (_, _, req) in enumerate(requests(work, seed)):
        if n >= count:
            break
        body, verdict = work.serve(req)
        _digest_update(h, body, verdict)
    return h.hexdigest()
