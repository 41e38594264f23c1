"""The extended integers' unchecked kernels against their slow paths.

``mul``, the closed-form ``join``/``meet`` and the residual kernels run
without validating their arguments.  Each is pinned here entry for entry
to a slow path: the checked public methods, and reference copies of the
per-element code the kernels replaced (three-way saturating addition,
order folds through ``zint_leq`` and the case-by-case residual).  The
relation operations built on them are pinned to the oracles in
:mod:`linrel.verify`.  Unvalidated input must still be refused wherever it
enters: in relations, in law-check samples and on the command line.
"""

import json
import random
from itertools import product

import pytest

from linrel.cli import main
from linrel.errors import StructureError, UnknownElementError
from linrel.qrel import (
    compose_par,
    compose_tensor,
    finite_set,
    random_relation,
    rel_dual,
    relation,
    relation_from_json,
    right_extension,
    right_lifting,
)
from linrel.quantale import (
    MINUS_INF,
    PLUS_INF,
    check_ld_laws,
    find_dualizers,
    opposite_quantale,
    zint_leq,
)
from linrel.verify import (
    _zmax,
    _zmin,
    catalog_entry,
    oracle_maxplus,
    oracle_minplus,
    oracle_residual_scan,
)

ZINT_ENTRIES = ("zinf-tropical", "zinf-arctic", "zinf-broken")
BIG = (10**6, -10**6, 2**70, -2**70)


def parts(name):
    """Each multiplication as the tensor of a quantale on its own order."""
    ld = catalog_entry(name).ld
    return {"tensor": ld, "par": opposite_quantale(ld)}


def other(inf):
    return PLUS_INF if inf == MINUS_INF else MINUS_INF


# -- reference copies of the per-element code the kernels replaced ---------

def ref_apply(op, a, b):
    if a == op.dominant or b == op.dominant:
        return op.dominant
    if a == other(op.dominant) or b == other(op.dominant):
        return other(op.dominant)
    return a + b - op.shift


def ref_leq(q, a, b):
    return zint_leq(b, a) if q.carrier.reverse else zint_leq(a, b)


def ref_join(q, items):
    acc = q.bottom
    for v in items:
        if ref_leq(q, acc, v):
            acc = v
    return acc


def ref_meet(q, items):
    acc = q.top
    for v in items:
        if ref_leq(q, v, acc):
            acc = v
    return acc


def ref_residual(q, a, b):
    top, bot = q.top, q.bottom
    if a == bot:
        return top
    if a == top:
        return top if b == top else bot
    if b == top:
        return top
    if b == bot:
        return bot
    return b - a + q.op.shift


def elements(q):
    return q.sample_elements(10) + list(BIG)


@pytest.mark.parametrize("name", ZINT_ENTRIES)
@pytest.mark.parametrize("part", ["tensor", "par"])
def test_mul_join_meet_match_slow_paths(name, part):
    q = parts(name)[part]
    els = elements(q)
    for a, b in product(els, repeat=2):
        want = ref_apply(q.op, a, b)
        assert q.mul(a, b) == q.tensor(a, b) == q.op.apply(a, b) == want
        assert q.carrier.join((a, b)) == ref_join(q, (a, b))
        assert q.carrier.meet((a, b)) == ref_meet(q, (a, b))
    rng = random.Random(name + part)
    for size in (0, 1, 3, 7, len(els)):
        for _ in range(20):
            items = [rng.choice(els) for _ in range(size)]
            assert q.join(items) == q.carrier.join(iter(items)) == ref_join(q, items)
            assert q.meet(items) == q.carrier.meet(iter(items)) == ref_meet(q, items)


@pytest.mark.parametrize("name", ZINT_ENTRIES)
@pytest.mark.parametrize("part", ["tensor", "par"])
def test_residual_kernels_match_slow_path(name, part):
    q = parts(name)[part]
    els = elements(q)
    if q.op.dominant != q.bottom:
        # zinf-broken's par part: no closed form, checked or not
        for call in (q.res_right, q.residual_right,
                     lambda a, b: q.res_left(b, a),
                     lambda a, b: q.residual_left(b, a)):
            with pytest.raises(StructureError):
                call(0, 1)
        return
    window = set(q.sample_elements(10))
    for a, b in product(els, repeat=2):
        want = ref_residual(q, a, b)
        assert q.res_right(a, b) == q.residual_right(a, b) == want
        assert q.res_left(b, a) == q.residual_left(b, a) == want
        if a in window and b in window:
            assert want == oracle_residual_scan(q, a, b, 10)


@pytest.mark.parametrize("name", ["zinf-tropical", "zinf-arctic"])
def test_ambient_forwarders_expose_the_kernels(name):
    entry = catalog_entry(name)
    ld, g = entry.ld, entry.girard
    d = g.dualizer
    els = elements(g)
    for a, b in product(els, repeat=2):
        neg_b = ref_residual(g, b, d)
        neg_a = ref_residual(g, a, d)
        want = ref_residual(g, ref_apply(g.op, neg_b, neg_a), d)
        assert g.par_mul(a, b) == g.par(a, b) == ld.par_mul(a, b) == want


# -- relation operations against the oracles -------------------------------

def random_pairs(amb, seed, count=60):
    # the oracles read the middle set's size off the matrices, so it is
    # never empty here; test_empty_middle_set covers that case
    rng = random.Random(seed)
    sets = [finite_set(f"s{n}", [f"m{i}" for i in range(n)]) for n in range(1, 5)]
    for _ in range(count):
        X, Y, Z = (rng.choice(sets) for _ in range(3))
        yield (random_relation(rng, amb, X, Y, inf_weight=0.2),
               random_relation(rng, amb, Y, Z, inf_weight=0.2),
               random_relation(rng, amb, X, Z, inf_weight=0.2))


@pytest.mark.parametrize("name", ["zinf-tropical", "zinf-arctic"])
def test_compositions_match_oracles(name):
    entry = catalog_entry(name)
    maxplus, minplus = oracle_maxplus, oracle_minplus
    if name == "zinf-arctic":
        maxplus, minplus = minplus, maxplus
    for amb in (entry.ld, entry.girard):
        for f, g, _ in random_pairs(amb, name):
            assert compose_tensor(f, g).values == maxplus(f.values, g.values)
            assert compose_par(f, g).values == minplus(f.values, g.values)


@pytest.mark.parametrize("name", ["zinf-tropical", "zinf-arctic"])
def test_residuals_match_scan_oracle(name):
    entry = catalog_entry(name)
    q = entry.ld
    # the meet of the carrier's order, written independently
    meet = _zmin if name == "zinf-tropical" else _zmax
    scan = oracle_residual_scan
    for amb in (entry.ld, entry.girard):
        for f, g, h in random_pairs(amb, name + "-res"):
            X, Y, Z = f.source, f.target, h.target
            fv, hv = f.values, h.values
            ext = tuple(
                tuple(meet(scan(q, fv[x][y], hv[x][z]) for x in range(len(X)))
                      for z in range(len(Z)))
                for y in range(len(Y)))
            assert right_extension(f, h).values == ext
            # lifting along g: Y -> Z into h: X -> Z, the largest s: X -> Y
            # with s (x) g <= h
            lift = tuple(
                tuple(meet(scan(q, g.values[y][z], hv[x][z]) for z in range(len(Z)))
                      for y in range(len(Y)))
                for x in range(len(X)))
            assert right_lifting(h, g).values == lift
            dual = tuple(
                tuple(scan(q, fv[x][y], 0) for x in range(len(X)))
                for y in range(len(Y)))
            assert rel_dual(f, 0).values == dual


def test_lifting_is_not_symmetric_in_its_arguments():
    # a kernel with its arguments swapped would read h against f backwards
    amb = catalog_entry("zinf-tropical").ld
    pt, two = finite_set("pt", ["*"]), finite_set("two", ["a", "b"])
    h = relation(pt, two, amb, [[5, 3]])
    f = relation(two, two, amb, [[1, 2], [PLUS_INF, 0]])
    assert right_lifting(h, f).values == ((1, MINUS_INF),)


@pytest.mark.parametrize("name", ["zinf-tropical", "zinf-arctic"])
def test_empty_middle_set(name):
    amb = catalog_entry(name).ld
    empty, two = finite_set("e", []), finite_set("two", ["a", "b"])
    f, g = relation(two, empty, amb, [[], []]), relation(empty, two, amb, [])
    assert compose_tensor(f, g).values == ((amb.bottom,) * 2,) * 2
    assert compose_par(f, g).values == ((amb.top,) * 2,) * 2
    h = relation(empty, two, amb, [])
    assert right_extension(h, h).values == ((amb.top,) * 2,) * 2
    assert right_lifting(f, f).values == ((amb.top,) * 2,) * 2


# -- validation at the boundary --------------------------------------------

BAD = [True, 1.5, None, "oops"]


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_relation_constructors_refuse_non_integers(bad):
    amb = catalog_entry("zinf-tropical").ld
    pt = finite_set("pt", ["*"])
    with pytest.raises(UnknownElementError):
        relation(pt, pt, amb, [[bad]])
    blob = {"source": {"name": "A", "members": ["a"]},
            "target": {"name": "B", "members": ["b", "c"]},
            "values": [[0, bad]]}
    with pytest.raises(UnknownElementError):
        relation_from_json(blob, amb)


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_law_samples_refuse_non_integers(bad):
    entry = catalog_entry("zinf-tropical")
    with pytest.raises(UnknownElementError):
        check_ld_laws(entry.ld, [0, bad])
    with pytest.raises(UnknownElementError):
        find_dualizers(entry.ld, [0, bad])


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_compose_cli_refuses_non_integers(bad, tmp_path, capsys):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    quantale = write("trop.json", {"kind": "zinf", "flavor": "tropical",
                                   "dualizer": 0})
    f = write("f.json", {"source": {"name": "A", "members": ["a"]},
                         "target": {"name": "B", "members": ["b1", "b2"]},
                         "values": [[1, bad]]})
    g = write("g.json", {"source": {"name": "B", "members": ["b1", "b2"]},
                         "target": {"name": "C", "members": ["c"]},
                         "values": [[3], [4]]})
    assert main(["compose", "--op", "tensor", "--quantale", quantale,
                 f, g]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
