import copy
import gc
import pickle
import sys
import threading
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import global_sym_act, run_python
from rigidity._util import MEMO_SIZE
from rigidity.classifier import _up_to_sigma, classify
from rigidity.descriptor import _read_place, _read_real, parse
from rigidity.errors import ContractError, OutOfScopeError
from rigidity.field_model import PlaceLabel
from rigidity.invariants import (
    D4_OUT_OF_SCOPE,
    KLEIN,
    TRIVIAL,
    Family,
    FormKind,
    GroupType,
    LocalClass,
    PlaceKind,
    Shape,
    c_local,
    center_shape,
    count_local_forms,
    cyclic,
    h2_local,
    shape_elements,
    sym_act,
    zero,
)

A = Family.A
INNER = FormKind.INNER
OUTER = FormKind.OUTER
FI = PlaceKind.FINITE_INNER
FO = PlaceKind.FINITE_OUTER
RI = PlaceKind.REAL_INNER
RO = PlaceKind.REAL_OUTER


def t(code, rank):
    fam = Family[code.lstrip("12")] if code.lstrip("12") in Family.__members__ else None
    kind = OUTER if code.startswith("2") else INNER
    return GroupType(fam, rank, kind)


REPRESENTATIVES = [
    t("A", 1), t("A", 2), t("A", 3), t("A", 4), t("A", 5),
    t("2A", 2), t("2A", 3), t("2A", 4), t("2A", 5),
    t("B", 3), t("C", 2), t("C", 3),
    t("D", 5), t("D", 6), t("2D", 5), t("2D", 6),
    t("E6", 6), t("2E6", 6), t("E7", 7), t("E8", 8), t("F4", 4), t("G2", 2),
]


def valid_kinds(gt):
    kinds = [FI, RI, PlaceKind.COMPLEX]
    if gt.is_outer:
        kinds += [FO, RO]
    return kinds


class TestGroupType:
    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            GroupType(Family.A, 0)
        with pytest.raises(ValueError):
            GroupType(Family.B, 1)
        with pytest.raises(ValueError):
            GroupType(Family.D, 3)
        with pytest.raises(ValueError):
            GroupType(Family.E6, 5)

    def test_outer_only_for_symmetric_types(self):
        with pytest.raises(ValueError):
            GroupType(Family.A, 1, OUTER)
        with pytest.raises(ValueError):
            GroupType(Family.C, 2, OUTER)
        GroupType(Family.A, 2, OUTER)
        GroupType(Family.D, 5, OUTER)
        GroupType(Family.E6, 6, OUTER)

    @pytest.mark.parametrize("kind", [INNER, OUTER])
    def test_d4_is_refused_when_built(self, kind):
        # so no table meets it
        with pytest.raises(OutOfScopeError, match=f"^{D4_OUT_OF_SCOPE}$"):
            GroupType(Family.D, 4, kind)


class TestCenterShape:
    @pytest.mark.parametrize("gt,expected", [
        (t("A", 2), cyclic(3)),
        (t("2A", 2), TRIVIAL),
        (t("A", 3), cyclic(4)),
        (t("2A", 3), cyclic(2)),
        (t("B", 3), cyclic(2)),
        (t("C", 2), cyclic(2)),
        (t("E7", 7), cyclic(2)),
        (t("D", 6), KLEIN),
        (t("2D", 6), cyclic(2)),
        (t("D", 5), cyclic(4)),
        (t("2D", 5), cyclic(2)),
        (t("E6", 6), cyclic(3)),
        (t("2E6", 6), TRIVIAL),
        (t("E8", 8), TRIVIAL),
        (t("F4", 4), TRIVIAL),
        (t("G2", 2), TRIVIAL),
    ])
    def test_rows(self, gt, expected):
        assert center_shape(gt) == expected


class TestH2Local:
    def test_examples(self):
        assert h2_local(t("A", 3), FI) == cyclic(4)
        assert h2_local(t("2D", 6), FI) == KLEIN
        for gt in REPRESENTATIVES:
            assert h2_local(gt, PlaceKind.COMPLEX) == TRIVIAL

    def test_outer_kind_needs_outer_form(self):
        with pytest.raises(ContractError):
            h2_local(t("A", 3), FO)
        with pytest.raises(ContractError):
            h2_local(t("C", 2), RO)

    def test_split_place_enlargement_matches_inner_row(self):
        for gt in REPRESENTATIVES:
            if not gt.is_outer:
                continue
            twin = gt.inner_twin()
            assert h2_local(gt, FI) == h2_local(twin, FI)
            assert h2_local(gt, RI) == h2_local(twin, RI)

    def test_real_columns(self):
        assert h2_local(t("A", 3), RI) == cyclic(2)
        assert h2_local(t("A", 2), RI) == TRIVIAL
        assert h2_local(t("D", 6), RI) == KLEIN
        assert h2_local(t("D", 5), RI) == cyclic(2)
        assert h2_local(t("2D", 6), RO) == TRIVIAL
        assert h2_local(t("2A", 3), RO) == cyclic(2)
        assert h2_local(t("E6", 6), RI) == TRIVIAL

    # type D by rank, as the paper tabulates it: (finite inner, real inner)
    # for 1D and 2D alike, then (finite outer, real outer) for 2D.  The rows
    # run past rank 8, the first rank at which a parity test and a test
    # mod 3 disagree in the real outer column
    _D_ROWS = {
        5: (cyclic(4), cyclic(2), cyclic(2), cyclic(2)),
        6: (KLEIN, KLEIN, cyclic(2), TRIVIAL),
        7: (cyclic(4), cyclic(2), cyclic(2), cyclic(2)),
        8: (KLEIN, KLEIN, cyclic(2), TRIVIAL),
        9: (cyclic(4), cyclic(2), cyclic(2), cyclic(2)),
        10: (KLEIN, KLEIN, cyclic(2), TRIVIAL),
        11: (cyclic(4), cyclic(2), cyclic(2), cyclic(2)),
        12: (KLEIN, KLEIN, cyclic(2), TRIVIAL),
    }

    @pytest.mark.parametrize("rank", sorted(_D_ROWS))
    def test_type_d_at_every_place_kind(self, rank):
        fi, ri, fo, ro = self._D_ROWS[rank]
        for gt in (t("D", rank), t("2D", rank)):
            assert (h2_local(gt, FI), h2_local(gt, RI), h2_local(gt, PlaceKind.COMPLEX)) == (fi, ri, TRIVIAL)
        assert (h2_local(t("2D", rank), FO), h2_local(t("2D", rank), RO)) == (fo, ro)
        for kind in (FO, RO):
            with pytest.raises(ContractError, match=f"^1D{rank} is an inner form; it has no outer places$"):
                h2_local(t("D", rank), kind)


class TestCLocal:
    def test_examples(self):
        out = c_local(t("A", 3), RI, LocalClass(cyclic(2), 1))
        assert out == LocalClass(cyclic(4), 2)
        out = c_local(t("2A", 3), FI, LocalClass(cyclic(4), 3))
        assert out == LocalClass(cyclic(2), 1)
        out = c_local(t("2D", 6), FI, LocalClass(KLEIN, (1, 1)))
        assert out == LocalClass(cyclic(2), 0)
        out = c_local(t("D", 5), RI, LocalClass(cyclic(2), 1))
        assert out == LocalClass(cyclic(4), 2)

    def test_zero_goes_to_zero(self):
        for gt in REPRESENTATIVES:
            for kind in valid_kinds(gt):
                src = h2_local(gt, kind)
                assert c_local(gt, kind, zero(src)).is_zero

    def test_homomorphism_exhaustive(self):
        for gt in REPRESENTATIVES:
            for kind in valid_kinds(gt):
                shape = h2_local(gt, kind)
                for x in shape_elements(shape):
                    for y in shape_elements(shape):
                        assert c_local(gt, kind, x + y) == (
                            c_local(gt, kind, x) + c_local(gt, kind, y)
                        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            c_local(t("A", 3), FI, LocalClass(cyclic(2), 1))


class TestSymAct:
    def test_examples(self):
        assert sym_act(t("A", 4), FI, LocalClass(cyclic(5), 2)) == LocalClass(cyclic(5), 3)
        assert sym_act(t("D", 6), FI, LocalClass(KLEIN, (1, 0))) == LocalClass(KLEIN, (0, 1))
        assert sym_act(t("C", 3), FI, LocalClass(cyclic(2), 1)) == LocalClass(cyclic(2), 1)
        assert sym_act(t("A", 1), FI, LocalClass(cyclic(2), 1)) == LocalClass(cyclic(2), 1)

    def test_involution_exhaustive(self):
        for gt in REPRESENTATIVES:
            for kind in valid_kinds(gt):
                shape = h2_local(gt, kind)
                for x in shape_elements(shape):
                    assert sym_act(gt, kind, sym_act(gt, kind, x)) == x

    def test_equivariance_with_global_action(self):
        for gt in REPRESENTATIVES:
            for kind in valid_kinds(gt):
                shape = h2_local(gt, kind)
                for x in shape_elements(shape):
                    lhs = c_local(gt, kind, sym_act(gt, kind, x))
                    rhs = global_sym_act(gt, c_local(gt, kind, x))
                    assert lhs == rhs, (gt.symbol(), kind, str(x))


class TestCountLocalForms:
    def test_examples(self):
        assert count_local_forms(t("A", 2), 4) == 5
        assert count_local_forms(t("D", 6), 8) == 17
        assert count_local_forms(t("G2", 2), 4) == 1

    def test_rank_one_has_no_extra_layer(self):
        assert count_local_forms(t("A", 1), 4) == 2
        assert count_local_forms(t("A", 1), 8) == 2

    def test_a_square_class_count_below_one_is_refused(self):
        with pytest.raises(ContractError, match="^square class count must be positive$"):
            count_local_forms(t("A", 2), 0)

    def test_orbit_summand_against_direct_enumeration(self):
        for gt in REPRESENTATIVES:
            inner = gt.inner_twin()
            shape = h2_local(inner, FI)
            orbits = set()
            for x in shape_elements(shape):
                pair = frozenset({x, sym_act(inner, FI, x)})
                orbits.add(pair)
            base = count_local_forms(gt, 1)
            assert base == len(orbits)


class TestShape:
    @pytest.mark.parametrize("args, message", [
        (("bad",), "bad shape kind 'bad'"),
        (("cyclic", 1), "cyclic shape needs modulus >= 2; use TRIVIAL for order 1"),
    ])
    def test_a_bad_shape_is_refused(self, args, message):
        with pytest.raises(ValueError) as raised:
            Shape(*args)
        assert str(raised.value) == message

    def test_names(self):
        assert [str(TRIVIAL), str(cyclic(4)), str(KLEIN)] == ["0", "Z/4", "Z/2 x Z/2"]


class TestLocalClass:
    @pytest.mark.parametrize("shape, value, message", [
        (cyclic(3), "1", "cyclic class needs an integer value, got '1'"),
        (KLEIN, 1, "klein class needs a bit pair, got 1"),
        (KLEIN, (1, 0, 1), "klein class needs a bit pair, got (1, 0, 1)"),
    ])
    def test_a_value_of_the_wrong_form_is_refused(self, shape, value, message):
        with pytest.raises(ContractError) as raised:
            LocalClass(shape, value)
        assert str(raised.value) == message

    def test_classes_of_two_shapes_do_not_add(self):
        with pytest.raises(ContractError, match="^cannot add classes of shapes Z/2 and Z/3$"):
            LocalClass(cyclic(2), 1) + LocalClass(cyclic(3), 1)

    def test_normalization(self):
        assert LocalClass(cyclic(3), 5).value == 2
        assert LocalClass(KLEIN, (3, 2)).value == (1, 0)
        assert cyclic(1) == TRIVIAL

    def test_arithmetic(self):
        a = LocalClass(cyclic(4), 3)
        b = LocalClass(cyclic(4), 2)
        assert (a + b).value == 1
        assert (-a).value == 1
        k = LocalClass(KLEIN, (1, 0))
        assert (k + k).is_zero
        assert (-k) == k


class TestMemo:
    TABLES = (cyclic, center_shape, h2_local, c_local, sym_act, _up_to_sigma)

    def test_caches_stay_bounded_over_many_ranks(self):
        before = {f.__name__: f.cache_info().misses for f in self.TABLES + (_read_place, _read_real)}
        outcomes = set()
        for r in range(1, MEMO_SIZE + 200):
            n = r + 1
            text = (f"[group]\ntype = 1A\nrank = {r}\n[field]\ndegree = 1\n"
                    f"[real]\nw = form=SL_R({n})\n[places]\nv2 = omega=1/{n}\nv3 = omega={r}/{n}\n")
            outcomes.add(classify(parse(text)).outcome.value)
            # four twin places: not rigid, so check_witness reads each class
            # up to σ from _up_to_sigma, whose keys hold the type
            twins = "".join(f"v{p} = omega={v}/{n}\n" for p, v in ((2, 1), (3, 1), (5, r), (7, r)))
            if r > 1:
                assert classify(parse(text.split("[places]")[0] + "[places]\n" + twins)).outcome.value == "NotRigid"
        assert outcomes == {"Rigid", "NotRigid"}
        for f in self.TABLES:
            info = f.cache_info()
            assert info.maxsize == MEMO_SIZE
            assert info.currsize <= MEMO_SIZE
            # the bound was reached and entries were evicted
            assert info.misses - before[f.__name__] > MEMO_SIZE
        # values built and dropped leave their pools with them
        big = cyclic(10**6)
        for v in range(10 * MEMO_SIZE):
            LocalClass(big, v), Shape("cyclic", 10**6 + v), GroupType(A, 10**6 + v)
        gc.collect()
        # what stays pooled is what the memo tables keep alive, plus a few
        # constants: per entry, c_local holds two classes, a type and two
        # shapes, sym_act two classes, a type and a shape, center_shape and
        # h2_local a type and a shape, cyclic a shape, _up_to_sigma a class,
        # a type and a shape.  The tables share most of these (here 1,368
        # classes, 1,024 types and 1,027 shapes stay), so the bounds below
        # hold with room.  An unbounded pool would still hold the
        # 10 * MEMO_SIZE values just dropped.
        for cls, per_entry in ((LocalClass, 4), (GroupType, 4), (Shape, 6)):
            assert len(cls._pool) <= per_entry * MEMO_SIZE + 100, cls.__name__
        # the parser's entry memos, which keep types and classes alive too,
        # are bounded and were filled past their bound
        for read in (_read_place, _read_real):
            info = read.cache_info()
            assert info.currsize == MEMO_SIZE
            assert info.misses - before[read.__name__] > MEMO_SIZE

    def test_errors_are_raised_after_a_cached_success(self):
        x = LocalClass(cyclic(3), 1)
        wrong = LocalClass(cyclic(4), 1)
        for _ in range(2):
            assert sym_act(t("A", 2), FI, x) == LocalClass(cyclic(3), 2)
            assert c_local(t("A", 2), FI, x) == LocalClass(cyclic(3), 1)
            assert _up_to_sigma(t("A", 2), FI, x) == (1, 0)
        for _ in range(2):
            with pytest.raises(ContractError):
                sym_act(t("A", 2), FI, wrong)
            with pytest.raises(ContractError):
                c_local(t("A", 2), FI, wrong)
            with pytest.raises(ContractError):
                _up_to_sigma(t("A", 2), FI, wrong)
            with pytest.raises(ContractError):
                h2_local(t("A", 2), FO)
            with pytest.raises(ValueError):
                cyclic(0)


def in_subprocess(code: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    done = run_python(["-c", code], hash_seed, stdin)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


POOLED = (GroupType, Shape, LocalClass, PlaceLabel)
VALUES = ("(cyclic(5), KLEIN, LocalClass(cyclic(5), 2), LocalClass(KLEIN, (1, 0)), "
          "GroupType(Family.A, 3, FormKind.OUTER), PlaceLabel('v5a', PlaceKind.FINITE_INNER, 'c5'))")
IMPORTS = ("import pickle, sys\n"
           "from rigidity.field_model import PlaceLabel\n"
           "from rigidity.invariants import *\n")


class TestStoredHash:
    """Shapes, classes, types and place labels are hash-consed: each value
    is one object, however it was built (parsed, by ``replace``, unpickled,
    copied), so it compares and hashes by identity."""

    def test_equal_values_built_by_different_paths_hash_alike(self):
        z5 = cyclic(5)
        g = parse("[group]\ntype = 1A\nrank = 4\n[field]\ndegree = 2\ncomplex_places = 1\n"
                  "galois = true\n[aut]\nconj = (v5a v5b)\n[places]\nv3 = class=c3 omega=7/5\n"
                  "v5a = class=c5 omega=1/5\nv5b = class=c5 omega=-3/5\n")
        pairs = [
            (LocalClass(z5, 7), LocalClass(z5, 2)),
            (LocalClass(KLEIN, (3, 1)), LocalClass(KLEIN, (1, 1))),
            (replace(LocalClass(z5, 4), value=-3), LocalClass(z5, 2)),
            (replace(t("A", 4), form_kind=OUTER), GroupType(A, 4, OUTER)),
            (Shape("cyclic", 5), z5),
            (replace(PlaceLabel("v3", FI), adelic_class="c3"), PlaceLabel("v3", FI, "c3")),
            (g.group_type, GroupType(A, 4)),
            (g.omega.finite[0], (PlaceLabel("v3", FI, "c3"), LocalClass(z5, 2))),
            (g.omega.finite[0][1], LocalClass(z5, 2)),
            (g.omega.finite[2][1], LocalClass(z5, 2)),
        ]
        for built, direct in pairs:
            assert built == direct
            assert hash(built) == hash(direct)
            if isinstance(direct, POOLED):
                assert built is direct
        for value in (z5, KLEIN, LocalClass(z5, 2), LocalClass(KLEIN, (1, 0)), GroupType(A, 3, OUTER),
                      PlaceLabel("v3", FI, "c3")):
            assert pickle.loads(pickle.dumps(value)) is value
            assert copy.copy(value) is value
            assert copy.deepcopy(value) is value
        assert len({LocalClass(z5, v) for v in range(-5, 10)}) == 5
        assert LocalClass(z5, 1) != LocalClass(cyclic(6), 1) != (cyclic(6), 1)
        assert PlaceLabel("v3", FI) != PlaceLabel("v3", FO) != ("v3", FO, None)
        label = PlaceLabel("v3", FI, "c3")
        assert copy.deepcopy(label) == label and pickle.loads(pickle.dumps(label)) == label

    def test_a_pickle_hashes_afresh_under_another_hash_seed(self):
        blob = in_subprocess(IMPORTS + f"sys.stdout.buffer.write(pickle.dumps({VALUES}))", "1")
        check = IMPORTS + (
            f"got, fresh = pickle.loads(sys.stdin.buffer.read()), {VALUES}\n"
            "print(all(a == b and hash(a) == hash(b) for a, b in zip(got, fresh)), len(got),\n"
            "      all(a is b for a, b in zip(got, fresh)))\n"
        )
        assert in_subprocess(check, "2", blob).split() == [b"True", b"6", b"True"]
        # the seeds give the strings inside these values different hashes
        probe = "print(hash('cyclic'), hash('v5a'))"
        assert in_subprocess(probe, "1") != in_subprocess(probe, "2")
        assert pickle.loads(pickle.dumps(LocalClass(KLEIN, (1, 0)))) == LocalClass(KLEIN, (1, 0))


def reduced_class(shape, value):
    """The field tuple a class reduces to, by the rule equality once compared."""
    if shape.kind == "trivial":
        return shape.kind, shape.modulus, None
    if shape.kind == "cyclic":
        return shape.kind, shape.modulus, value % shape.modulus
    return shape.kind, shape.modulus, (value[0] % 2, value[1] % 2)


shapes = st.one_of(st.just(TRIVIAL), st.just(KLEIN), st.integers(2, 40).map(cyclic))
raw_values = st.one_of(st.integers(-100, 100), st.tuples(st.integers(-5, 5), st.integers(-5, 5)))


def raw_value_for(shape):
    if shape.kind == "klein":
        return st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    return st.integers(-100, 100) if shape.kind == "cyclic" else st.none() | raw_values


def valid_type(key):
    try:
        GroupType(*key)
    except (ValueError, OutOfScopeError):
        return False
    return True


type_keys = st.tuples(st.sampled_from(list(Family)), st.integers(1, 12) | st.integers(1, 10**9),
                      st.sampled_from([INNER, OUTER])).filter(valid_type)


class TestPoolDifferential:
    """Identity against the old rule, equal reduced field tuples."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_a_class_is_one_object_exactly_when_its_reduced_fields_agree(self, data):
        s1, s2 = data.draw(shapes), data.draw(shapes)
        a, b, c = data.draw(raw_value_for(s1)), data.draw(raw_value_for(s1)), data.draw(raw_value_for(s2))
        x = LocalClass(s1, a)
        for y, key in ((LocalClass(s1, b), reduced_class(s1, b)), (LocalClass(s2, c), reduced_class(s2, c))):
            assert (x is y) == (x == y) == (reduced_class(s1, a) == key)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(type_keys, type_keys)
    def test_a_type_is_one_object_exactly_when_its_fields_agree(self, k1, k2):
        x, y = GroupType(*k1), GroupType(*k2)
        assert (x is y) == (x == y) == (k1 == k2)
        assert GroupType(*k1) is x and replace(y, form_kind=k2[2]) is y


class TestPool:
    def test_threads_building_the_same_values_get_the_same_objects(self):
        start = threading.Barrier(8)
        results = [None] * 8

        def build(n):
            start.wait(timeout=30)
            shapes = [Shape("cyclic", 10**7 + v) for v in range(1000)]
            results[n] = [(s, LocalClass(s, 1), GroupType(A, 10**7 + v)) for v, s in enumerate(shapes)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to meet the race
        try:
            threads = [threading.Thread(target=build, args=(n,)) for n in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        first = results[0]
        assert all(len(r) == 1000 for r in results)
        for other in results[1:]:
            assert all(a is b for row, orow in zip(first, other) for a, b in zip(row, orow))

    def test_a_dead_entry_awaiting_its_callback_is_replaced(self):
        class Gone:
            pass

        shape = Shape("cyclic", 10**8 + 1)
        gone = Gone()
        LocalClass._pool[(shape, 5)] = weakref.ref(gone)
        del gone
        x = LocalClass(shape, 5)
        assert x.value == 5 and LocalClass._pool[(shape, 5)]() is x
        assert LocalClass(shape, 10**8 + 6) is x
