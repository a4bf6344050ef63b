"""Seeded input generator for the benchmark: descriptor text plus what to expect.

Stdlib only and independent of the engine: the local invariant arithmetic
needed to make coherent inputs is restated here from the descriptor
grammar, so the program under test sees nothing but the generated text.

Every case records its expected outcome and reason tags.  ``expect`` is an
outcome fixed by construction, or ``"q"`` / ``"quasisplit"`` when the
outcome is taken from the independent special-case checklist of that name.
``tags`` are the leading reason tags the verdict must carry; ``exact``
says whether they are the whole tag list.

A classify workload is a fixed list of slots, each a template with fixed
sizes.  A round instantiates every slot once from ``(seed, round)``, so
rounds of one workload cost about the same on every seed while no two rounds
share their inputs.  ``equiv`` takes the bundled catalog as written, less
its two slowest calls, in an order drawn from ``(seed, round)``.

Generated inputs obey the descriptor rules: they are coherent, no adelic
class is larger than the degree, the automorphism group's order divides
the degree, and a degree above 6 declares ``locally_determined``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

RIGID, NOT_RIGID, UNDETERMINED, OUT_OF_SCOPE = "Rigid", "NotRigid", "Undetermined", "OutOfScope"

TAG_NO_SYM = "no-symmetry-classification"
TAG_SYM_IMAG = "symmetric-imaginary-classification"
TAG_BY_FAMILY = {"A": "type-A-classification", "D": "type-D-classification",
                 "E6": "type-E6-classification"}
TAG_WU = "weak-uniformity"
TAG_TWIN_BOUND = "twin-count-bound"
TAG_OUTER_TWINS = "outer-two-twin-places"
TAG_LOCAL_DET = "locally-determined"
TAG_HBAR = "outer-square-class-fiber"
TAG_SCOPE = "scope"

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
          73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


@dataclass(frozen=True)
class Case:
    slot: str
    text: str
    expect: str
    tags: Tuple[str, ...]
    exact: bool = True


# ---------------------------------------------------------------------------
# local invariant groups: ("triv",), ("cyc", n) or ("klein",)

TRIV, KLEIN = ("triv",), ("klein",)


def cyc(n: int):
    return TRIV if n == 1 else ("cyc", n)


def zero(grp):
    return {"triv": 0, "cyc": 0, "klein": (0, 0)}[grp[0]]


def elements(grp):
    if grp[0] == "klein":
        return [(0, 0), (0, 1), (1, 0), (1, 1)]
    return list(range(grp[1])) if grp[0] == "cyc" else [0]


def add(grp, x, y):
    if grp[0] == "klein":
        return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)
    return (x + y) % grp[1] if grp[0] == "cyc" else 0


def neg(grp, x):
    return (-x) % grp[1] if grp[0] == "cyc" else x


def fmt(x) -> str:
    return f"({x[0]},{x[1]})" if isinstance(x, tuple) else str(x)


@dataclass(frozen=True)
class Type:
    code: str  # 1A 2A B C 1D 2D 1E6 2E6 E7 E8 F4 G2
    rank: int

    @property
    def family(self) -> str:
        return self.code.lstrip("12")

    @property
    def outer(self) -> bool:
        return self.code.startswith("2")

    @property
    def symmetric(self) -> bool:
        f = self.family
        return (f == "A" and self.rank >= 2) or f in ("D", "E6")

    def branch_tag(self, has_real: bool) -> str:
        if not self.symmetric:
            return TAG_NO_SYM
        return TAG_BY_FAMILY[self.family] if has_real else TAG_SYM_IMAG

    def target(self):
        """The global dual target the local contributions sum into."""
        f, r = self.family, self.rank
        if f == "A":
            return (cyc(2) if r % 2 else TRIV) if self.outer else cyc(r + 1)
        if f in ("B", "C", "E7"):
            return cyc(2)
        if f == "D":
            return cyc(2) if self.outer else (KLEIN if r % 2 == 0 else cyc(4))
        if f == "E6":
            return TRIV if self.outer else cyc(3)
        return TRIV

    def finite(self, split: bool = True):
        """Local group at a finite place (split: the group is inner there)."""
        f, r = self.family, self.rank
        if not split:
            return self.target() if f != "D" else cyc(2)
        return {"A": cyc(r + 1), "B": cyc(2), "C": cyc(2), "E7": cyc(2), "E6": cyc(3),
                "D": KLEIN if r % 2 == 0 else cyc(4)}.get(f, TRIV)

    def c_finite(self, split: bool, x):
        """Local contribution of a finite place to the target."""
        tgt = self.target()
        if tgt == TRIV:
            return 0
        if not self.outer or not split:
            return x
        if self.family == "D" and self.rank % 2 == 0:
            return (x[0] + x[1]) % 2
        return x % 2

    def sym(self, split: bool, x):
        """The diagram symmetry on a local class at a finite place."""
        if not self.symmetric:
            return x
        grp = self.finite(split)
        if grp == KLEIN:
            return (x[1], x[0])
        return neg(grp, x)

    def twin_values(self, split: bool = True):
        return [x for x in elements(self.finite(split)) if self.sym(split, x) != x]


Q_TYPES = [Type("1A", r) for r in range(1, 6)] + [Type("2A", r) for r in range(2, 6)] + [
    Type("B", 2), Type("B", 3), Type("B", 4), Type("C", 2), Type("C", 3),
    Type("1D", 5), Type("1D", 6), Type("2D", 5), Type("2D", 6), Type("1E6", 6),
    Type("2E6", 6), Type("E7", 7), Type("E8", 8), Type("F4", 4), Type("G2", 2)]


# ---------------------------------------------------------------------------
# real forms: (form text, class, contribution to the target)

def real_forms(t: Type, rng: random.Random, outer_place: bool, quasisplit: bool = False):
    """Real forms a place of the given kind admits, with their pinned class.

    Forms that do not pin their class get a random one.  ``quasisplit``
    keeps only the quasi-split form, whose class is the base point.
    """
    f, r = t.family, t.rank
    out = []
    if f == "A" and not outer_place:
        out.append((f"SL_R({r + 1})", 0))
        if r % 2 and not t.outer:
            out.append((f"SL_H({(r + 1) // 2})", 1))
    elif f == "A":
        m = r + 1
        for s in range(m // 2 + 1):
            p = m - s
            out.append((f"SU({p},{s})", ((p - s) // 2) % 2 if m % 2 == 0 else 0))
        if quasisplit:
            out = [(f"SU({(m + 1) // 2},{m // 2})", 0)]
    elif f == "B":
        out.append((f"Spin({r + 1},{r})", 0))
        for s in range(r):
            p = 2 * r + 1 - s
            pinned = {(4, 1): 1, (5, 0): 1}.get((p, s))
            out.append((f"Spin({p},{s})", pinned if pinned is not None else rng.randint(0, 1)))
        out.append(("CompactForm", rng.randint(0, 1)))
    elif f == "C":
        out.append((f"Sp_R({2 * r})", 0))
        out += [(f"Sp({r - s},{s})", 1) for s in range(r // 2 + 1)]
    elif f == "D" and not outer_place:
        grp = KLEIN if r % 2 == 0 else cyc(2)
        out.append((f"Spin({r},{r})", zero(grp)))
        if r % 2 == 0:
            out.append((f"SpinStar({2 * r})", (1, 0)))
        out.append((f"Spin({r + 2},{r - 2})", rng.choice(elements(grp))))
        out.append(("AnisotropicOther kind=split", rng.choice(elements(grp))))
    elif f == "D":
        grp = TRIV if r % 2 == 0 else cyc(2)
        out.append((f"Spin({r + 1},{r - 1})", 0))
        if r % 2:
            out.append((f"SpinStar({2 * r})", rng.randint(0, 1)))
        out.append((f"Spin({r + 3},{r - 3})", rng.choice(elements(grp))))
    elif f == "E7":
        out += [("E7_split", 0), ("E7_hermitian", 0), ("E7_quaternionic", 1), ("E7_compact", 1)]
    elif outer_place:
        out += [("AnisotropicOther kind=nonsplit", 0)]
        if f == "E6":
            out.append(("CompactForm", 0))
    else:
        out += [("SplitForm", 0), ("AnisotropicOther kind=split", 0)]
        if f != "E6":
            out.append(("CompactForm", 0))
    if quasisplit:
        out = out[:1]
    form, cls = rng.choice(out)
    return form, cls, _c_real(t, outer_place, cls)


def _c_real(t: Type, outer_place: bool, x):
    """Local contribution of a real place's class to the target."""
    tgt = t.target()
    f, r = t.family, t.rank
    if tgt == TRIV or x == 0:
        return zero(tgt)
    if not t.outer:
        if f == "A":
            return x * (r + 1) // 2
        if f == "D" and r % 2:
            return 2 * x
        return x
    if outer_place:
        return x
    if f == "D" and r % 2 == 0:
        return (x[0] + x[1]) % 2
    return x % 2


# ---------------------------------------------------------------------------
# descriptor text

def descriptor(t: Type, degree: int, complex_places: int, finite, reals=(), aut=(), *,
               rng: random.Random, galois: Optional[bool] = None,
               locally_determined: Optional[bool] = None, hbar: Optional[str] = None) -> str:
    """Descriptor text; ``finite`` holds (id, class or None, split, value),
    ``reals`` holds (id, form text, value).  Declaration order is shuffled."""
    lines = ["[group]", f"type = {t.code}", f"rank = {t.rank}", "", "[field]",
             f"degree = {degree}", f"complex_places = {complex_places}"]
    if locally_determined is not None:
        lines.append(f"locally_determined = {'true' if locally_determined else 'false'}")
    if galois is not None:
        lines.append(f"galois = {'true' if galois else 'false'}")
    if hbar is not None:
        lines.append(f"hbar_fiber = {hbar}")
    if aut:
        lines += ["", "[aut]"] + [f"g{i} = {cycles}" for i, cycles in enumerate(aut, 1)]
    finite, reals = list(finite), list(reals)
    rng.shuffle(finite)
    rng.shuffle(reals)
    if finite:
        lines += ["", "[places]"]
        for pid, klass, split, value in finite:
            opts = [f"class={klass}"] if klass else []
            if t.outer:
                opts.append(f"kind={'split' if split else 'nonsplit'}")
            lines.append(f"{pid} = {' '.join(opts + [f'omega={fmt(value)}'])}")
    if reals:
        lines += ["", "[real]"] + [f"{w} = form={form} omega={fmt(v)}" for w, form, v in reals]
    return "\n".join(lines) + "\n"


def _labels(rng: random.Random, n: int) -> List[str]:
    return [f"v{p}" for p in sorted(rng.sample(PRIMES, n))]


def _balance(t: Type, total, split: bool = True):
    """The value at one more finite place that makes the sum vanish."""
    tgt = t.target()
    need = neg(tgt, total)
    return need if tgt != TRIV and t.finite(split) != TRIV else zero(t.finite(split))


def _finite_coherent(rng: random.Random, t: Type, ids: List[str], total, classes=None):
    """Random values at every place but the last, which cancels the sum.

    The last place is split for inner types and non-split for outer ones:
    there the local contribution is the identity onto the target.
    """
    out = []
    for i, pid in enumerate(ids[:-1]):
        split = not t.outer or rng.random() < 0.5
        x = rng.choice(elements(t.finite(split)))
        total = add(t.target(), total, t.c_finite(split, x))
        out.append((pid, classes[i] if classes else None, split, x))
    out.append((ids[-1], classes[-1] if classes else None, not t.outer, _balance(t, total, not t.outer)))
    return out


# ---------------------------------------------------------------------------
# corpus templates

def q_random(rng):
    """A random coherent descriptor over the rationals; outcome from the Q checklist."""
    t = rng.choice(Q_TYPES)
    outer_place = t.outer and rng.random() < 0.5
    form, cls, contrib = real_forms(t, rng, outer_place)
    finite = _finite_coherent(rng, t, _labels(rng, rng.randint(1, 4)), contrib)
    text = descriptor(t, 1, 0, finite, [("w", form, cls)], rng=rng)
    return text, "q", (t.branch_tag(True),), False


def quasisplit_galois(rng):
    """Quasi-split over a Galois field; outcome from the quasi-split checklist."""
    t = rng.choice(Q_TYPES)
    degree = rng.choice([1, 2, 3, 4, 6])
    n_real = 1 if degree == 1 else (0 if degree % 2 == 0 and rng.random() < 0.5 else degree)
    outer_place = t.outer and rng.random() < 0.5
    reals = []
    for i in range(n_real):
        form, cls, _ = real_forms(t, rng, outer_place, quasisplit=True)
        reals.append((f"w{i + 1}", form, cls))
    finite = []
    for i in range(rng.randint(1, 3)):
        split = not t.outer or rng.random() < 0.5
        finite.append((f"v{i + 1}", f"c{i + 1}", split, zero(t.finite(split))))
    aut = [f"({' '.join(w for w, _, _ in reals)})"] if n_real >= 2 and rng.random() < 0.6 else []
    text = descriptor(t, degree, (degree - n_real) // 2, finite, reals, aut, galois=True,
                      hbar="trivial" if t.outer else None, rng=rng)
    return text, "quasisplit", (t.branch_tag(bool(reals)),), False


def _plain_field(rng, t: Type, **field):
    """A non-Galois field of degree 2..6 with quasi-split forms at its real places."""
    degree = rng.randint(2, 6)
    n_real = rng.choice([0, degree % 2] if degree > 2 else [0, 2])
    outer_place = t.outer and rng.random() < 0.5
    reals = [(f"w{i + 1}",) + real_forms(t, rng, outer_place, quasisplit=True)[:2]
             for i in range(n_real)]
    finite = [(pid, None, not t.outer, zero(t.finite(not t.outer)))
              for pid in _labels(rng, rng.randint(0, 2))]
    return descriptor(t, degree, (degree - n_real) // 2, finite, reals, galois=False,
                      rng=rng, **field)


def undetermined_field(rng):
    t = rng.choice(Q_TYPES)
    text = _plain_field(rng, t, locally_determined=False, hbar="trivial" if t.outer else None)
    return text, UNDETERMINED, (TAG_LOCAL_DET,), True


def sibling_square_class(rng):
    t = rng.choice([x for x in Q_TYPES if x.outer])
    return _plain_field(rng, t, hbar="nontrivial"), NOT_RIGID, (TAG_HBAR,), True


def unknown_square_class(rng):
    t = rng.choice([x for x in Q_TYPES if x.outer])
    return _plain_field(rng, t, hbar="unknown"), UNDETERMINED, (TAG_HBAR,), True


def triality(rng):
    t = Type(rng.choice(["1D", "2D"]), 4)
    text = "\n".join(["[group]", f"type = {t.code}", "rank = 4", "", "[field]",
                      "degree = 1", "complex_places = 0", "", "[real]",
                      "w = form=Spin(4,4)"]) + "\n"
    return text, OUT_OF_SCOPE, (TAG_SCOPE,), True


def _units(n: int) -> List[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _twins_over_q(rng, t: Type, r: int, pick: Optional[random.Random] = None):
    """r twin places over Q whose values already sum to zero, and SL_R at infinity.

    ``pick`` draws the multiset of values (by default ``rng`` does); ``rng``
    then rescales it by a unit of the local group, which keeps every verdict
    and every enumeration size, and places it at random labels.
    """
    pick = pick or rng
    tgt = t.target()
    while True:
        vals = [pick.choice(t.twin_values()) for _ in range(r)]
        total = zero(tgt)
        for v in vals:
            total = add(tgt, total, v)
        if total == zero(tgt):
            break
    u = rng.choice(_units(t.rank + 1))
    vals = [v * u % (t.rank + 1) for v in vals]
    rng.shuffle(vals)
    finite = [(pid, None, True, v) for pid, v in zip(_labels(rng, r), vals)]
    return descriptor(t, 1, 0, finite, [("w", f"SL_R({t.rank + 1})", 0)], rng=rng)


def twin_bound(rng, types=("1A2", "1A5"), sizes=(4, 5, 6)):
    """Inner type over Q with enough twins that the degree bound forces NotRigid."""
    code = rng.choice(types)
    t = Type(code[:2], int(code[2:]))
    text = _twins_over_q(rng, t, rng.choice(sizes))
    return text, NOT_RIGID, (TAG_BY_FAMILY["A"], TAG_WU, TAG_TWIN_BOUND), True


def outer_two_twins(rng):
    """Outer type over an imaginary Galois field with 2..4 twin places: never rigid."""
    t = rng.choice([Type("2A", r) for r in range(2, 6)] + [Type("2D", 5), Type("2D", 6),
                                                           Type("2E6", 6)])
    degree = rng.choice([2, 4, 6])
    ids = _labels(rng, rng.randint(2, 4) + 1)
    total = zero(t.target())
    finite = []
    for i, pid in enumerate(ids[:-1]):
        x = rng.choice(t.twin_values())
        total = add(t.target(), total, t.c_finite(True, x))
        finite.append((pid, f"c{i}", True, x))
    finite.append((ids[-1], "cb", False, _balance(t, total, False)))
    text = descriptor(t, degree, degree // 2, finite, galois=True, rng=rng)
    return text, NOT_RIGID, (TAG_SYM_IMAG, TAG_WU, TAG_OUTER_TWINS), True


def three_reals(rng):
    """Three or four real places on a type outside even unitary: never rigid."""
    t = rng.choice([x for x in Q_TYPES if not (x.family == "A" and x.rank % 2 == 0)])
    n_real = rng.randint(3, 4)
    degree = n_real + 2 * rng.randint(0, 1)
    total, reals = zero(t.target()), []
    for i in range(n_real):
        form, cls, contrib = real_forms(t, rng, t.outer and rng.random() < 0.5)
        reals.append((f"w{i + 1}", form, cls))
        total = add(t.target(), total, contrib)
    finite = _finite_coherent(rng, t, ["v1", "v2"], total)
    text = descriptor(t, degree, (degree - n_real) // 2, finite, reals, galois=False,
                      hbar="trivial" if t.outer else None, rng=rng)
    return text, NOT_RIGID, (t.branch_tag(True),), False


# The rank 4 and rank 5 instances over the Gaussian rationals: values at
# (singleton, pair a, pair b, singleton[, pair a, pair b]), the pairs swapped
# by complex conjugation.  Scaling by a unit keeps every verdict.
GAUSSIAN = {
    "table3": (Type("1A", 4), [1, 2, 3, 4], [1, 2, 3, 4]),
    "table4": (Type("1A", 5), [3, 2, 4, 0, 3], [1, 5]),
}


def gaussian_core(rng, name: str):
    """Finite places and the conjugation cycles of a relabelled, rescaled core."""
    t, vals, units = GAUSSIAN[name]
    u = rng.choice(units)
    vals = [v * u % (t.rank + 1) for v in vals]
    p, q, s = rng.sample(PRIMES, 3)
    fin = [(f"v{p}", f"c{p}", True, vals[0]), (f"v{q}a", f"c{q}", True, vals[1]),
           (f"v{q}b", f"c{q}", True, vals[2])]
    cycles = f"(v{q}a v{q}b)"
    if name == "table3":
        fin.append((f"v{s}", f"c{s}", True, vals[3]))
    else:
        fin += [(f"v{s}a", f"c{s}", True, vals[3]), (f"v{s}b", f"c{s}", True, vals[4])]
        cycles += f"(v{s}a v{s}b)"
    return t, fin, cycles


def gaussian(rng):
    t, fin, cycles = gaussian_core(rng, rng.choice(sorted(GAUSSIAN)))
    text = descriptor(t, 2, 1, fin, aut=[cycles], galois=True, rng=rng)
    return text, RIGID, (TAG_SYM_IMAG, TAG_WU), True


_NOSYM = [Type("1A", 1), Type("B", 3), Type("C", 3), Type("E7", 7), Type("E8", 8),
          Type("F4", 4), Type("G2", 2)]


def nosym_imaginary(rng, swap: bool):
    """No diagram symmetry over an imaginary field: rigid unless a class holds
    two different values, which the adelic side can swap."""
    t = rng.choice([x for x in _NOSYM if x.target() != TRIV] if swap else _NOSYM)
    degree = rng.choice([2, 4, 6])
    n = rng.randint(3 if swap else 2, 6)
    ids = _labels(rng, n)
    classes = [f"c{i}" for i in range(n)]
    if swap:
        classes[1] = classes[0]
    while True:
        finite = _finite_coherent(rng, t, ids, zero(t.target()), classes)
        if not swap or finite[0][3] != finite[1][3]:
            break
    text = descriptor(t, degree, degree // 2, finite, galois=True, rng=rng)
    return text, NOT_RIGID if swap else RIGID, (TAG_NO_SYM, TAG_WU), True


CORPUS_SLOTS = (
    [("q_random", q_random)] * 40 + [("quasisplit_galois", quasisplit_galois)] * 20
    + [("undetermined_field", undetermined_field)] * 4
    + [("sibling_square_class", sibling_square_class)] * 3
    + [("unknown_square_class", unknown_square_class)] * 3
    + [("triality", triality)] * 2 + [("twin_bound", twin_bound)] * 8
    + [("outer_two_twins", outer_two_twins)] * 8 + [("three_reals", three_reals)] * 8
    + [("gaussian", gaussian)] * 4
    + [("nosym_rigid", lambda rng: nosym_imaginary(rng, False))] * 6
    + [("nosym_swap", lambda rng: nosym_imaginary(rng, True))] * 6
)


# ---------------------------------------------------------------------------
# refute and confirm

def q_twins(rng, code: str, r: int):
    """Inner type over Q with r twin places: the flip enumeration is 2^r subsets.
    The multiset of values is fixed per slot, so its cost is the same every round."""
    t = Type(code[:2], int(code[2:]))
    text = _twins_over_q(rng, t, r, random.Random(f"{code}/{r}"))
    return text, NOT_RIGID, (TAG_BY_FAMILY["A"], TAG_WU, TAG_TWIN_BOUND), True


def imaginary_class(rng, k: int):
    """Type 1A6 over a Galois octic imaginary field with one adelic class of k
    distinct values.  The adelic side alone has k! vectors, far more than the
    two the field can realize, so the group is not rigid.  The set of values
    is fixed per k up to a unit of Z/7."""
    t = Type("1A", 6)
    pick = random.Random(f"class/{k}")
    while True:
        vals = pick.sample(range(7), k)
        if sum(vals) % 7 == 0:
            break
    u = rng.choice(_units(7))
    vals = [v * u % 7 for v in vals]
    klass = f"c{rng.choice(PRIMES)}"
    finite = [(pid, klass, True, v) for pid, v in zip(_labels(rng, k), vals)]
    text = descriptor(t, 8, 4, finite, galois=True, locally_determined=True, rng=rng)
    return text, NOT_RIGID, (TAG_SYM_IMAG, TAG_WU), True


def gaussian_with_classes(rng, core: str, sizes: Tuple[int, ...]):
    """A Gaussian core over a Galois octic imaginary field, plus adelic classes
    of repeated values fixed by the symmetry: the adelic side permutes k!
    arrangements of one vector, and the group stays rigid."""
    t, fin, cycles = gaussian_core(rng, core)
    n = t.rank + 1
    used = {int(pid[1:].rstrip("ab")) for pid, *_ in fin}
    for k in sizes:
        p = rng.choice([x for x in PRIMES if x not in used])
        used.add(p)
        value = n // 2 if n % 2 == 0 and k % 2 == 0 and rng.random() < 0.5 else 0
        fin += [(f"v{p}{chr(97 + i)}", f"c{p}", True, value) for i in range(k)]
    text = descriptor(t, 8, 4, fin, aut=[cycles], galois=True, locally_determined=True, rng=rng)
    return text, RIGID, (TAG_SYM_IMAG, TAG_WU), True


def _slot(name, fn, *args):
    return (name, lambda rng: fn(rng, *args))


# Sorted by cost, the median of a round falls inside the run of 1A4 slots
# with 9 twins and the 75th percentile inside the run of 1A2 and 1A5 slots
# with 9 twins, which cost about the same.  A class of 7 distinct values takes
# 1.4-2.3 s per input on a 2-vCPU Xeon VM, well over the budget of about 1 s
# an input, so classes stop at 6.
REFUTE_SLOTS = (
    [_slot("class_5", imaginary_class, 5)] * 4
    + [_slot(f"q_twins_{c}_{r}", q_twins, c, r) for c, r in
       [("1A4", 9)] * 7 + [("1A2", 9)] * 2 + [("1A5", 9)] * 3
       + [("1A2", 10), ("1A2", 11), ("1A2", 13)]]
    + [_slot("class_6", imaginary_class, 6)]
)

# Sorted by cost, the median of a round falls inside the run of table3 (6,)
# and table4 (6, 6) slots, which cost about the same, and the 75th
# percentile inside the run of table4 (7,) slots.
CONFIRM_SLOTS = [
    _slot(f"{core}_classes_{'_'.join(map(str, sizes))}", gaussian_with_classes, core, sizes)
    for core, sizes in [("table4", (6,))] * 4 + [("table3", (6,))] * 4
    + [("table4", (6, 6))] * 3 + [("table3", (6, 6))] + [("table4", (7,))] * 4
    + [("table3", (7,)), ("table3", (6, 7)), ("table4", (8,)), ("table3", (8,))]
]

SLOTS = {"corpus": CORPUS_SLOTS, "refute": REFUTE_SLOTS, "confirm": CONFIRM_SLOTS}


def generate(workload: str, seed: int, round_no: int) -> List[Case]:
    """Every slot of a classify workload, instantiated for one round."""
    rng = random.Random(f"{workload}/{seed}/{round_no}")
    return [Case(name, *fn(rng)) for name, fn in SLOTS[workload]]


# ---------------------------------------------------------------------------
# equiv: the bundled catalog in a seeded order

# Left out of every round: each is one call of 7-9 s on a 2-vCPU Xeon VM, which
# measures the host's mean speed over those seconds rather than the program,
# and a run would hold only two or three of them.
SLOW_GROUPS = ("PSL(3,2)",)
SLOW_QUERIES = (("fano", "common_normal_index2"),)

PAIR_QUERIES = [(pair, query) for pair in ("fano", "wreath")
                for query in ("almost_conjugate", "are_conjugate", "common_normal_index2")
                if (pair, query) not in SLOW_QUERIES]


def catalog_round(text: str, seed: int, round_no: int) -> List[Tuple[str, ...]]:
    """One round of ``equiv``: every catalog line but the slow groups, and the
    pair queries but the slow ones, in a seeded order.

    Items are ("group", catalog line) or ("query", pair, query).  The groups
    keep the presentations the catalog gives: relabelling their points was
    tried and changed the cost of a small group by up to 4x, which swamped
    the measurement.
    """
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    items = [("group", line) for line in lines if line and line.split()[0] not in SLOW_GROUPS]
    items += [("query", pair, query) for pair, query in PAIR_QUERIES]
    random.Random(f"equiv/{seed}/{round_no}").shuffle(items)
    return items
