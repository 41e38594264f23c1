"""Q-Rel and Q-Mod right extensions: where they agree and where they do not.

``qrel.right_extension`` takes, entry by entry, the meet of the per-member
residuals.  ``qmod_right_extension`` joins the elements below every bound.
The two agree where composition preserves joins, so on every sound finite
catalog entry a relation and the same matrix as a bimodule between
discrete categories over the one-object base must have the same right
extensions.  On ``diamond-broken`` and ``z3shift-broken`` they differ; one
seeded pair on each is pinned with both results, so a change to either
definition shows here.
"""

import random

import pytest

from linrel.qmod import discrete_qcategory, qbimodule, qmod_right_extension
from linrel.qrel import finite_set, random_relation, right_extension
from linrel.verify import catalog_entry

SOUND_FINITE = ("bool", "chain3", "diamond", "point", "z2shift", "z3shift")


def draw(seed: int, ld):
    """f: X->Y and h: X->Z over 1-3-member sets, from one seeded stream."""
    rng = random.Random(seed)
    X, Y, Z = (finite_set(n, [f"{n}{i}" for i in range(rng.randint(1, 3))])
               for n in "xyz")
    return random_relation(rng, ld, X, Y), random_relation(rng, ld, X, Z)


def both_extensions(name: str, seed: int):
    """The right extension of the seeded pair on entry ``name``, as a
    relation and as a bimodule."""
    entry = catalog_entry(name)
    f, h = draw(seed, entry.ld)

    def category(S):
        return discrete_qcategory(entry.base, S.members, ("*",) * len(S.members))
    M, N, P = category(f.source), category(f.target), category(h.target)
    as_bimodules = qmod_right_extension(qbimodule(M, N, f.values),
                                        qbimodule(M, P, h.values))
    return (f.values, h.values), right_extension(f, h).values, as_bimodules


@pytest.mark.parametrize("name", SOUND_FINITE)
def test_sound_entries_have_one_right_extension(name):
    for seed in range(60):
        _, as_relation, as_bimodule = both_extensions(name, seed)
        assert as_relation == as_bimodule, (name, seed)


# entry -> (seed, (f, h), qrel.right_extension, qmod_right_extension)
DIFFERING = {
    "diamond-broken": (
        33,
        ((("x",), ("y",), ("1",)),
         (("x", "y", "1"), ("1", "y", "0"), ("y", "1", "y"))),
        (("y", "0", "0"),),
        (("0", "0", "0"),)),
    "z3shift-broken": (
        20,
        ((("g1", "bot", "g1"), ("top", "e", "bot"), ("g2", "g2", "bot")),
         (("bot",), ("e",), ("g1",))),
        (("bot",), ("g2",), ("bot",)),
        (("bot",), ("bot",), ("bot",))),
}


@pytest.mark.parametrize("name", sorted(DIFFERING))
def test_broken_entries_pin_a_pair_where_the_definitions_differ(name):
    seed, pair, as_relation, as_bimodule = DIFFERING[name]
    assert both_extensions(name, seed) == (pair, as_relation, as_bimodule)
    assert as_relation != as_bimodule
