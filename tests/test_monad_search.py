"""Monads and their bimodules against brute force, and Q-Mod on the
multi-object quantaloids that the monad construction builds.

Monads are found by the Q-Mod law plans and search, as one-member
categories and bimodules between them.  The oracle here tries every
element (or pair of elements) of each hom, checks the monad and bimodule
inequalities element by element, and builds both monad quantaloids from
the lists it keeps.  The library must give the same lists in the same
order, the same laws per candidate, and byte-identical quantaloid JSON.
"""

import json
from itertools import product

import pytest

from linrel import cli
from linrel.errors import NotClosedError
from linrel.lattice import lattice_from_leq
from linrel.qmod import verify_linear_qmod_theorem
from linrel.quantaloid import (
    LinearMonad,
    LinearMonadBimodule,
    Monad,
    MonadBimodule,
    check_linear_monad,
    check_linear_monad_bimodule,
    check_monad,
    check_monad_bimodule,
    find_girard_families,
    finite_quantaloid,
    linear_monad_bimodules,
    linear_monads_of,
    linear_monq_quantaloid,
    monads_of,
    monq_quantaloid,
    quantaloid_to_json,
    validate_linear_monad,
    validate_linear_monad_bimodule,
)
from linrel.report import LAW_GROUPS, Sampler
from linrel.verify import catalog_entry

FINITE = ("bool", "bool-broken", "chain3", "chain3-broken", "diamond",
          "diamond-broken", "point", "z2shift", "z2shift-broken", "z3shift",
          "z3shift-broken")
# Linear monad quantaloids as bases: that of z2shift has two objects, and
# both built on them again have homs of up to 256 elements.
BASES = FINITE + ("linear-monq(z2shift)", "linear-monq(diamond)")


def base_of(name):
    if name.startswith("linear-monq("):
        return linear_monq_quantaloid(catalog_entry(name[12:-1]).base)
    return catalog_entry(name).base


# ---------------------------------------------------------------------------
# Element-level oracle


def ref_monad_laws(Q, a, t):
    h = Q.hom(a, a)
    return [h.leq(Q.unit_top(a), t), h.leq(Q.compose(a, a, a, t, t), t)]


def ref_linear_monad_laws(Q, lm):
    a, t, p = lm.obj, lm.m_tensor, lm.m_par
    h = Q.hom(a, a)

    def comp(f, g):
        return Q.compose(a, a, a, f, g)

    def pcomp(f, g):
        return Q.par_compose(a, a, a, f, g)

    return ref_monad_laws(Q, a, t) + [
        h.leq(p, Q.unit_bot(a)), h.leq(p, pcomp(p, p)),
        h.leq(t, pcomp(p, t)), h.leq(t, pcomp(t, p)),
        h.leq(comp(t, p), p), h.leq(comp(p, t), p)]


def ref_bimodule_laws(Q, a, b, m_src, m_tgt, f):
    h = Q.hom(a, b)
    return [h.leq(Q.compose(a, b, b, f, m_tgt), f),
            h.leq(Q.compose(a, a, b, m_src, f), f)]


def ref_linear_bimodule_laws(Q, bim):
    src, tgt = bim.source, bim.target
    a, b = src.obj, tgt.obj
    ft, fp = bim.f_tensor, bim.f_par
    h_ab, h_ba = Q.hom(a, b), Q.hom(b, a)
    return ref_bimodule_laws(Q, a, b, src.m_tensor, tgt.m_tensor, ft) + [
        h_ab.leq(ft, Q.par_compose(a, a, b, src.m_par, ft)),
        h_ab.leq(ft, Q.par_compose(a, b, b, ft, tgt.m_par)),
        h_ba.leq(fp, Q.par_compose(b, b, a, tgt.m_par, fp)),
        h_ba.leq(fp, Q.par_compose(b, a, a, fp, src.m_par)),
        h_ba.leq(Q.compose(b, b, a, tgt.m_tensor, fp), fp),
        h_ba.leq(Q.compose(b, a, a, fp, src.m_tensor), fp)]


def ref_monads(Q):
    return [Monad(a, t) for a in Q.objects for t in Q.hom(a, a).elements
            if all(ref_monad_laws(Q, a, t))]


def ref_linear_monads(Q):
    return [lm for a in Q.objects
            for t, p in product(Q.hom(a, a).elements, repeat=2)
            if all(ref_linear_monad_laws(Q, lm := LinearMonad(a, t, p)))]


def ref_bimodules(Q, m, n):
    return [f for f in Q.hom(m.obj, n.obj).elements
            if all(ref_bimodule_laws(Q, m.obj, n.obj, m.m, n.m, f))]


def ref_linear_bimodules(Q, m, n):
    return [bim for ft in Q.hom(m.obj, n.obj).elements
            for fp in Q.hom(n.obj, m.obj).elements
            if all(ref_linear_bimodule_laws(
                Q, bim := LinearMonadBimodule(m, n, ft, fp)))]


def ref_monq_json(Q, monads):
    """The monad quantaloid's JSON, or None when the composite of two
    bimodules is not a bimodule."""
    name = {m: f"{m.obj}|{m.m}" for m in monads}
    bims = {(m, n): ref_bimodules(Q, m, n) for m, n in product(monads, repeat=2)}
    homs = {}
    for (m, n), elems in bims.items():
        h = Q.hom(m.obj, n.obj)
        homs[(name[m], name[n])] = lattice_from_leq(
            tuple(elems), [[h.leq(x, y) for y in elems] for x in elems])
    tables = {}
    for m, n, p in product(monads, repeat=3):
        table = [[Q.compose(m.obj, n.obj, p.obj, f, g) for g in bims[(n, p)]]
                 for f in bims[(m, n)]]
        if any(v not in bims[(m, p)] for row in table for v in row):
            return None
        tables[(name[m], name[n], name[p])] = table
    Mon = finite_quantaloid([name[m] for m in monads], homs, tables,
                            {name[m]: m.m for m in monads})
    return quantaloid_to_json(Mon)


def ref_linear_monq_json(Q, monads):
    name = {m: f"{m.obj}|{m.m_tensor}|{m.m_par}" for m in monads}

    def label(ft, fp):
        return f"{ft}|{fp}"

    bims = {(m, n): ref_linear_bimodules(Q, m, n)
            for m, n in product(monads, repeat=2)}
    homs = {}
    for (m, n), items in bims.items():
        h_t, h_p = Q.hom(m.obj, n.obj), Q.hom(n.obj, m.obj)
        homs[(name[m], name[n])] = lattice_from_leq(
            [label(b.f_tensor, b.f_par) for b in items],
            [[h_t.leq(x.f_tensor, y.f_tensor) and h_p.leq(y.f_par, x.f_par)
              for y in items] for x in items])
    tensor, par = {}, {}
    for m, n, p in product(monads, repeat=3):
        a, b, c = m.obj, n.obj, p.obj
        key = (name[m], name[n], name[p])
        tensor[key] = [[label(Q.compose(a, b, c, f.f_tensor, g.f_tensor),
                              Q.par_compose(c, b, a, g.f_par, f.f_par))
                        for g in bims[(n, p)]] for f in bims[(m, n)]]
        par[key] = [[label(Q.par_compose(a, b, c, f.f_tensor, g.f_tensor),
                           Q.compose(c, b, a, g.f_par, f.f_par))
                     for g in bims[(n, p)]] for f in bims[(m, n)]]
    Mon = finite_quantaloid(
        [name[m] for m in monads], homs, tensor,
        {name[m]: label(m.m_tensor, m.m_par) for m in monads}, par,
        {name[m]: label(m.m_par, m.m_tensor) for m in monads})
    return quantaloid_to_json(Mon)


# ---------------------------------------------------------------------------
# The monad construction against the oracle


@pytest.mark.parametrize("name", BASES)
def test_monads_match_brute_force(name):
    Q = base_of(name)
    monads = monads_of(Q)
    assert monads == ref_monads(Q)
    for m, n in product(monads, repeat=2):
        got = [f for f in Q.hom(m.obj, n.obj).elements
               if check_monad_bimodule(Q, MonadBimodule(m, n, f))]
        assert got == ref_bimodules(Q, m, n), (m, n)
    for a in Q.objects:
        assert ([check_monad(Q, Monad(a, t)) for t in Q.hom(a, a).elements]
                == [all(ref_monad_laws(Q, a, t)) for t in Q.hom(a, a).elements])
    want = ref_monq_json(Q, monads)
    if want is None:
        with pytest.raises(NotClosedError):
            monq_quantaloid(Q)
    else:
        assert quantaloid_to_json(monq_quantaloid(Q)) == want


@pytest.mark.parametrize("name", BASES)
def test_linear_monads_match_brute_force(name):
    Q = base_of(name)
    monads = linear_monads_of(Q)
    assert monads == ref_linear_monads(Q)
    for m, n in product(monads, repeat=2):
        assert linear_monad_bimodules(Q, m, n) == ref_linear_bimodules(Q, m, n)
    assert (quantaloid_to_json(linear_monq_quantaloid(Q))
            == ref_linear_monq_json(Q, monads))


@pytest.mark.parametrize("name", FINITE)
def test_linear_monad_reports_match_brute_force(name):
    """Every candidate's per-law verdicts, and its witness: the candidate
    itself under today's keys."""
    Q = base_of(name)
    for a in Q.objects:
        for t, p in product(Q.hom(a, a).elements, repeat=2):
            lm = LinearMonad(a, t, p)
            oks = ref_linear_monad_laws(Q, lm)
            rep = validate_linear_monad(Q, lm)
            assert [e.law for e in rep.entries] == list(LAW_GROUPS["linear-monad"])
            assert [e.ok for e in rep.entries] == oks
            assert check_linear_monad(Q, lm) == all(oks)
            for e in rep.failing():
                assert e.witness == {"object": a, "m_tensor": t, "m_par": p}
    monads = linear_monads_of(Q)
    for m, n in product(monads[:3], repeat=2):
        for ft, fp in product(Q.hom(m.obj, n.obj).elements,
                              Q.hom(n.obj, m.obj).elements):
            bim = LinearMonadBimodule(m, n, ft, fp)
            oks = ref_linear_bimodule_laws(Q, bim)
            rep = validate_linear_monad_bimodule(Q, bim)
            assert ([e.law for e in rep.entries]
                    == list(LAW_GROUPS["monad-bimodule"]))
            assert [e.ok for e in rep.entries] == oks
            assert check_linear_monad_bimodule(Q, bim) == all(oks)
            for e in rep.failing():
                assert e.witness == {"f_tensor": ft, "f_par": fp}


def test_unclosed_monad_bimodules_fail_girard_monq(capsys):
    """On z3shift-broken two monad bimodules compose to a non-bimodule, so
    there is no monad quantaloid: a failing derived side, not bad input."""
    assert cli.main(["run-theorem", "girard-monq", "--entry", "z3shift-broken",
                     "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(e["law"], e["status"]) for e in report["entries"]] == [
        ("base-laws", "fail"), ("derived-laws", "fail"),
        ("theorem-forward", "pass"), ("theorem-backward", "pass"),
        ("theorem-transfer", "pass")]
    assert report["entries"][1]["witness"] == {
        "note": "monad bimodules are not closed under composition",
        "objects": ["*|e", "*|e", "*|e"], "f": "g2", "g": "g2",
        "composite": "g1"}


# ---------------------------------------------------------------------------
# Q-Mod over multi-object bases


@pytest.mark.parametrize("name, families", [
    ("bool", 1), ("chain3", 0), ("diamond", 1), ("z2shift", 4), ("z3shift", 9)])
def test_linear_qmod_theorem_on_linear_monad_quantaloids(name, families):
    """The linear monad quantaloids of z2shift and z3shift have two objects,
    so the Q-Mod theorem runs beyond the one-object bases of the catalog."""
    monq = linear_monq_quantaloid(catalog_entry(name).base)
    assert len(monq.objects) == (2 if name in ("z2shift", "z3shift") else 1)
    assert verify_linear_qmod_theorem(monq, Sampler.random(1, 20)).ok
    assert len(find_girard_families(monq)) == families
