"""Metamorphic properties of the place order.

The engine fixes one order of places where descriptors enter and keeps it
in every later operation, so the order in which a file declares its
places, real places and automorphisms can never reach a verdict, and
emitting a descriptor and parsing it back gives the same descriptor.
"""

import json
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

import genfix
from rigidity.classifier import classify
from rigidity.cli import emit_descriptor, parse, verdict_to_json
from rigidity.field_model import PlacePerm, PlaceSymmetry
from rigidity.fixtures import FIXTURES

GENERATORS = [
    genfix.rand_q,
    genfix.rand_quasisplit_galois,
    genfix.rand_outer_two_twins,
    genfix.rand_bound_violator,
    genfix.rand_two_real_quadratic,
    genfix.rand_three_reals,
    genfix.rand_classed,
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


@SETTINGS
@given(st.one_of(st.sampled_from(sorted(FIXTURES.values())).map(parse), descriptors()))
def test_parse_inverts_emit(g):
    assert parse(emit_descriptor(g)) == g
