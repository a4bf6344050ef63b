"""Metamorphic properties of the place order and the place names.

The engine fixes one order of places where descriptors enter and keeps it
in every later operation, so the order in which a file declares its
places, real places and automorphisms can never reach a verdict, and
emitting a descriptor and parsing it back gives the same descriptor.
Place names only matter through that order: renaming the places keeps the
outcome and the reasons, and a renaming that keeps the order keeps the
witness too.
"""

import json
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

import genfix
from rigidity._util import natural_key
from rigidity.brauer import OmegaVector
from rigidity.classifier import GroupDescriptor, check_witness, classify
from rigidity.cli import emit_descriptor, parse, verdict_to_json
from rigidity.field_model import PlacePerm, PlaceSymmetry
from rigidity.selftest import FIXTURES

GENERATORS = [
    genfix.rand_q,
    genfix.rand_quasisplit_galois,
    genfix.rand_outer_two_twins,
    genfix.rand_bound_violator,
    genfix.rand_two_real_quadratic,
    genfix.rand_three_reals,
    genfix.rand_classed,
    genfix.rand_interleaved,
]

SHUFFLED_SECTIONS = ("[places]", "[real]", "[aut]")

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def with_inverses(g):
    """The same descriptor with every automorphism generator declared twice,
    once as its inverse, so that [aut] holds more than one line."""
    inverses = [PlacePerm.from_mapping({b: a for a, b in p.moved}) for p in g.symmetry.generators]
    return replace(g, symmetry=PlaceSymmetry(g.symmetry.generators + tuple(inverses)))


@st.composite
def descriptors(draw):
    """Seeded genfix descriptors, some with redundant generators."""
    make = draw(st.sampled_from(GENERATORS))
    g = make(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    return with_inverses(g) if draw(st.booleans()) else g


# ids whose embedded numbers tie ('v1', 'v01'), which only the ids themselves order
TIED_IDS = """[group]
type = 1A
rank = 2
[field]
degree = 2
complex_places = 1
galois = true
[aut]
g = (v1 v01)
[places]
v1 = class=c omega=1/3
v01 = class=c omega=1/3
v001 = omega=1/3
v2 = class=d omega=1/3
v02 = class=d omega=2/3
"""

texts = st.one_of(st.sampled_from(sorted(FIXTURES.values()) + [TIED_IDS]),
                  descriptors().map(emit_descriptor))


def shuffle_entries(text: str, rng: random.Random) -> str:
    """Permute the entry lines inside [places], [real] and [aut]; comments,
    blank lines and every other section stay where they are."""
    lines = text.splitlines()
    spans = {}
    section = None
    for i, line in enumerate(lines):
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body
        elif body and section in SHUFFLED_SECTIONS:
            spans.setdefault(section, []).append(i)
    for idx in spans.values():
        moved = [lines[i] for i in idx]
        rng.shuffle(moved)
        for i, line in zip(idx, moved):
            lines[i] = line
    return "\n".join(lines) + "\n"


def verdict_json(text: str) -> str:
    return json.dumps(verdict_to_json(classify(parse(text))), indent=2)


@SETTINGS
@given(texts, st.randoms(use_true_random=False))
def test_declaration_order_never_reaches_the_verdict(text, rng):
    assert verdict_json(shuffle_entries(text, rng)) == verdict_json(text)


# a generic real form with an explicit kind that only AnisotropicOther keeps
COMPACT_E6_NONSPLIT = """[group]
type = 2E6
rank = 6

[field]
degree = 1
complex_places = 0

[real]
w = form=CompactForm kind=nonsplit
"""


@SETTINGS
@given(st.one_of(st.sampled_from(sorted(FIXTURES.values()) + [COMPACT_E6_NONSPLIT]).map(parse),
                 descriptors()))
def test_parse_inverts_emit(g):
    assert parse(emit_descriptor(g)) == g


def rename(g: GroupDescriptor, names) -> GroupDescriptor:
    """The same descriptor with every place id p renamed to names[p]."""
    def label(p):
        return replace(p, id=names[p.id])

    def coords(cs):
        return tuple((label(p), cls) for p, cls in cs)

    return GroupDescriptor(
        group_type=g.group_type,
        field=replace(g.field, real_places=tuple(map(label, g.field.real_places)),
                      finite_places=tuple(map(label, g.field.finite_places))),
        symmetry=PlaceSymmetry(tuple(
            PlacePerm.from_mapping({names[a]: names[b] for a, b in p.moved})
            for p in g.symmetry.generators
        )),
        omega=OmegaVector(g.group_type, coords(g.omega.finite), coords(g.omega.real)),
        real_forms=tuple((names[w], tag) for w, tag in g.real_forms),
    )


def place_ids(g: GroupDescriptor):
    return sorted((p.id for p in g.field.finite_places + g.field.real_places), key=natural_key)


def reason_tags(v):
    return [tag for tag, _ in v.reasons]


cases = st.one_of(st.sampled_from(sorted(FIXTURES.values())).map(parse), descriptors())


@SETTINGS
@given(cases, st.randoms(use_true_random=False))
def test_renaming_keeps_the_outcome_and_the_reasons(g, rng):
    ids = place_ids(g)
    names = dict(zip(ids, (f"q{n}" for n in rng.sample(range(1000), len(ids)))))
    h = rename(g, names)
    v, w = classify(g), classify(h)
    assert (w.outcome, reason_tags(w)) == (v.outcome, reason_tags(v))
    assert (w.witness is None) == (v.witness is None)
    if w.witness is not None:
        check_witness(h, w.witness)


@SETTINGS
@given(cases)
def test_order_preserving_renaming_keeps_the_witness(g):
    names = {pid: f"p{i + 1}" for i, pid in enumerate(place_ids(g))}
    v, w = classify(g), classify(rename(g, names))
    assert (w.outcome, reason_tags(w)) == (v.outcome, reason_tags(v))
    assert w.witness == (None if v.witness is None else rename(v.witness, names))
