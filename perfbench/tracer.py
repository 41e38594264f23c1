"""Span tracing around linrel's public functions, installed from outside.

The library is not edited: `Tracer.install` rebinds each traced function in
every `linrel.*` module namespace that holds it (so `verify`'s imported copy
of `qrel.compose_tensor` is traced too), and `uninstall` puts the originals
back.  Each call becomes a span with a name, start, end, parent span and the
request it belongs to.  Aggregates (time, self time, calls, counters) are
kept online; raw spans are kept in memory up to a cap and written out when
the run ends.  Per-element scalar methods such as `Quantale.tensor` are not
wrapped; work counts are derived from argument shapes instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

# Raw spans kept for the written trace; aggregates cover every span.
MAX_KEPT_SPANS = 100_000


@dataclass
class _Frame:
    span_id: int
    name: str
    group: str
    start: float
    child_time: float = 0.0
    outermost: bool = True


@dataclass
class Tracer:
    request: int = -1
    spans_total: int = 0
    kept: list = field(default_factory=list)
    names: dict = field(default_factory=dict)
    group_time: Counter = field(default_factory=Counter)
    self_time: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _depth: Counter = field(default_factory=Counter)
    _patched: list = field(default_factory=list)

    # -- span bookkeeping --------------------------------------------------

    def enter(self, name: str, group: str) -> _Frame:
        self.spans_total += 1
        frame = _Frame(self.spans_total, name, group, 0.0,
                       outermost=self._depth[group] == 0)
        self._depth[group] += 1
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        dur = end - frame.start
        self._stack.pop()
        self._depth[frame.group] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_time += dur
        if frame.outermost:
            self.group_time[frame.group] += dur
        self.self_time[frame.group] += dur - frame.child_time
        if len(self.kept) < MAX_KEPT_SPANS:
            idx = self.names.setdefault(frame.name, len(self.names))
            self.kept.append((frame.span_id, idx, frame.start, end,
                              parent.span_id if parent else 0, self.request))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, group: str, hook=None, name_of=None):
        tracer = self
        name = f"{group}:{fn.__name__}"

        if inspect.isgeneratorfunction(fn):
            # Each resume is its own span segment, so consumer code that runs
            # between yields is not charged to the generator.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[group] += 1
                gen = fn(*args, **kwargs)
                while True:
                    frame = tracer.enter(name, group)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name_of is None:
                span_group, span = group, name
            else:
                span_group = name_of(args)
                span = f"{span_group}:{fn.__name__}"
            tracer.calls[span_group] += 1
            frame = tracer.enter(span, span_group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result
        return traced

    def install(self, specs) -> None:
        """Wrap every function in `specs` wherever a linrel module binds it.

        `specs` holds (owner, attribute, group, hook, name_of) tuples; an
        owner is a module or a class.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "linrel" or n.startswith("linrel."))]
        for owner, attr, group, hook, name_of in specs:
            original = inspect.getattr_static(owner, attr)
            wrapped = self._wrap(original, group, hook, name_of)
            if inspect.isclass(owner):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path, header: dict[str, Any]) -> None:
        names = sorted(self.names, key=self.names.get)
        doc = dict(header, spans_total=self.spans_total,
                   spans_kept=len(self.kept), names=names,
                   fields=["id", "name", "start", "end", "parent", "request"],
                   spans=self.kept)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# What is traced in linrel, and how each layer metric is derived


def _relation_cells(r) -> int:
    return len(r.source) * len(r.target)


def _hook_law_triples(ternary: int):
    def hook(counts, args, kwargs, result):
        q = args[0]
        sample = args[1] if len(args) > 1 else kwargs.get("domain_sample")
        if sample is None:
            window = kwargs.get("window", args[3] if len(args) > 3 else 10)
            sample = q.sample_elements(window)
        counts["quantale.law_triples"] += len(sample) ** 3 * ternary
    return hook


def _hook_compose(counts, args, kwargs, result):
    f, g = args[0], args[1]
    counts["qrel.compose_macs"] += len(f.source) * len(f.target) * len(g.target)


def _compose_backend(args) -> str:
    return ("qrel.compose_table" if args[0].ambient.carrier.is_finite
            else "qrel.compose_zinf")


def _hook_decode(counts, args, kwargs, result):
    counts["qrel.codec_entries"] += _relation_cells(result)


def _hook_encode(counts, args, kwargs, result):
    counts["qrel.codec_entries"] += _relation_cells(args[0])


def _hook_monads(counts, args, kwargs, result):
    counts["quantaloid.monads_found"] += len(result)


def _hook_validate(counts, args, kwargs, result):
    counts["qmod.validated"] += 1
    counts["qmod.accepted"] += bool(result.ok)


def _hook_bytes(counts, args, kwargs, result):
    counts["report.bytes"] += len(result if isinstance(result, bytes)
                                  else result.encode("utf-8"))


def linrel_specs():
    """The traced public functions, grouped by the layer metric they feed."""
    from linrel import cli, lattice, qmod, qrel, quantale, quantaloid, verify
    from linrel.report import LawReport

    def group(owner, group_name, *attrs, hook=None, name_of=None):
        return [(owner, a, group_name, hook, name_of) for a in attrs]

    return [
        *group(lattice, "lattice.build", "build_lattice", "lattice_from_leq"),
        *group(quantale, "quantale.law_check", "check_quantale_laws",
               hook=_hook_law_triples(3)),
        *group(quantale, "quantale.law_check", "check_ld_laws",
               hook=_hook_law_triples(8)),
        *group(quantale, "quantale.dualizer", "find_dualizers",
               "is_cyclic_dualizing", "girard_quantale"),
        *group(qrel, "qrel.compose", "compose_tensor", "compose_par",
               hook=_hook_compose, name_of=_compose_backend),
        *group(qrel, "qrel.residual", "right_extension", "right_lifting",
               "rel_dual"),
        *group(qrel, "qrel.codec", "relation_from_json", hook=_hook_decode),
        *group(qrel, "qrel.codec", "relation_to_json", hook=_hook_encode),
        *group(qrel, "qrel.sample", "sample_relation_tuples", "random_relation",
               "enumerate_relations"),
        *group(qrel, "qrel.law_suite", "verify_qrel_laws", "check_girard_qrel"),
        *group(qrel, "qrel.adjoint", "check_linear_adjoint"),
        *group(quantaloid, "quantaloid.law_check", "check_quantaloid_laws"),
        *group(quantaloid, "quantaloid.monq_build", "monq_quantaloid",
               "linear_monq_quantaloid", "one_object_quantaloid"),
        *group(quantaloid, "quantaloid.girard_family", "check_girard_family",
               "find_girard_families"),
        *group(quantaloid, "quantaloid.monads", "monads_of", "linear_monads_of",
               hook=_hook_monads),
        *group(qmod, "qmod.enumerate", "enumerate_qcategories",
               "enumerate_qbimodules", "sample_linear_categories"),
        *group(qmod, "qmod.validate", "validate_qcategory", "validate_qbimodule",
               hook=_hook_validate),
        *group(qmod, "qmod.compose", "qmod_compose_tensor", "qmod_compose_par"),
        *group(qmod, "qmod.girard", "check_girard_qmod", "qmod_linear_adjoint",
               "girard_linear_bimodule"),
        *group(verify, "verify.catalog", "build_catalog"),
        *group(verify, "verify.theorem", "run_theorem"),
        *group(LawReport, "report.serialize", "json_bytes", "to_text",
               hook=_hook_bytes),
        *group(cli, "cli.main", "main"),
    ]


def layer_metrics(tr: Tracer, overhead_ratio: float,
                  requests: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the aggregates; "time in" is the union of a
    group's spans, "self time" excludes time in traced children.  Totals
    cover one traced cold catalog build plus `requests` traced requests."""
    t, s, c, n = tr.group_time, tr.self_time, tr.calls, tr.counts
    compose_s = t["qrel.compose_table"] + t["qrel.compose_zinf"]
    validated = n["qmod.validated"]
    return {
        "lattice.build_s": (t["lattice.build"], "s"),
        "lattice.build_calls": (c["lattice.build"], "count"),
        "quantale.law_check_s": (t["quantale.law_check"], "s"),
        "quantale.law_check_calls": (c["quantale.law_check"], "count"),
        "quantale.law_triples": (n["quantale.law_triples"], "count"),
        "quantale.dualizer_s": (t["quantale.dualizer"], "s"),
        "qrel.compose_table_s": (t["qrel.compose_table"], "s"),
        "qrel.compose_zinf_s": (t["qrel.compose_zinf"], "s"),
        "qrel.compose_calls": (c["qrel.compose_table"] + c["qrel.compose_zinf"],
                               "count"),
        "qrel.compose_macs": (n["qrel.compose_macs"], "count"),
        "qrel.compose_mmac_per_s": (
            n["qrel.compose_macs"] / compose_s / 1e6 if compose_s else 0.0,
            "Mmac/s"),
        "qrel.residual_s": (t["qrel.residual"], "s"),
        "qrel.residual_calls": (c["qrel.residual"], "count"),
        "qrel.codec_s": (t["qrel.codec"], "s"),
        "qrel.codec_entries": (n["qrel.codec_entries"], "count"),
        "qrel.sample_s": (s["qrel.sample"], "s"),
        "qrel.law_suite_s": (s["qrel.law_suite"], "s"),
        "qrel.adjoint_s": (s["qrel.adjoint"], "s"),
        "quantaloid.law_check_s": (t["quantaloid.law_check"], "s"),
        "quantaloid.monq_build_s": (t["quantaloid.monq_build"], "s"),
        "quantaloid.girard_family_s": (t["quantaloid.girard_family"], "s"),
        "quantaloid.monads_found": (n["quantaloid.monads_found"], "count"),
        "qmod.enumerate_s": (s["qmod.enumerate"], "s"),
        "qmod.validate_s": (t["qmod.validate"], "s"),
        "qmod.validate_calls": (c["qmod.validate"], "count"),
        "qmod.accept_ratio": (n["qmod.accepted"] / validated if validated
                              else 0.0, "ratio"),
        "qmod.compose_s": (t["qmod.compose"], "s"),
        "qmod.compose_calls": (c["qmod.compose"], "count"),
        "qmod.girard_s": (t["qmod.girard"], "s"),
        "verify.catalog_s": (t["verify.catalog"], "s"),
        "verify.theorem_s": (s["verify.theorem"], "s"),
        "verify.theorem_calls": (c["verify.theorem"], "count"),
        "report.serialize_s": (t["report.serialize"], "s"),
        "report.bytes": (n["report.bytes"], "B"),
        "cli.self_s": (s["cli.main"], "s"),
        "cli.requests": (c["cli.main"], "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.requests": (requests, "count"),
    }
