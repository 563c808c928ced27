"""The spliced dart index of every glued diagram against a full validate.

A sum, closure, east cap or host closure glued from two validated tangles
is marked valid without the occurrence count and the Euler walk: its dart
index is spliced from the kept indices of the two parts.  Every glued
diagram here must pass oracles.reference_validate and a full validate of a
fresh copy, whose four index arrays must equal the spliced ones.  Each
glue must return what its reference in oracles returns (the ends merged,
then a full validate), or raise the same error; an oriented closure must
fail exactly when a fresh copy fails validation.
"""

import copy
import pickle
import random

import pytest

from oracles import (
    reference_close_one_tangle,
    reference_denominator_closure,
    reference_east_cap,
    reference_insert_into_host,
    reference_numerator_closure,
    reference_tangle_add,
    reference_validate,
)
from tanglecert import diagram, persistence
from tanglecert.diagram import (
    ArcOccurrenceError,
    Crossing,
    Diagram,
    DiagramError,
    OrientationError,
    _darts,
    orient,
    parse_diagram,
    relabel,
    serialize,
    unoriented,
    validate,
)
from tanglecert.persistence import _east_cap, cut_arc_once, find_certificate, verify_certificate
from tanglecert.tangle import (
    TangleError,
    close_one_tangle,
    denominator_closure,
    infinity_tangle,
    insert_into_host,
    mirror,
    numerator_closure,
    rational_tangle,
    rotate90,
    tangle_add,
    zero_tangle,
)

TREFOIL = "X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3"
SUMS = [tangle_add(t, mirror(t)) for t in map(rational_tangle, ([2, 1], [3], [1, 2, 1]))]


def random_hosts():
    """The hosts of test_validate's closed-sum test: zero, infinity and 20 rational."""
    rng = random.Random(3)
    hosts = [zero_tangle(), infinity_tangle()]
    hosts += [
        rational_tangle([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 4))])
        for _ in range(20)
    ]
    return hosts


HOSTS = random_hosts()


def one_tangle_hosts():
    """The trivial host, east-capped rational tangles and cut knots; capping the
    infinity tangle leaves a crossing-free circle."""
    hosts = [Diagram(boundary=(1, 1)), _east_cap(infinity_tangle())]
    hosts += [_east_cap(rational_tangle(w)) for w in ([1], [2], [-3], [2, 1], [1, 2], [-2, 3], [2, 2])]
    hosts += [cut_arc_once(parse_diagram(TREFOIL), a) for a in (1, 4)]
    return hosts


def assert_spliced_index_is_the_validated_one(out):
    assert "_valid" in out.__dict__
    twin = Diagram(out.crossings, out.circles, out.boundary)
    assert reference_validate(twin) is None
    validate(twin)
    assert _darts(twin) == _darts(out), out


def outcome(glue):
    try:
        return glue()
    except DiagramError as exc:
        return type(exc), str(exc)


def signed_twin(t, host, closure):
    """The closure of t and host with their signs, built unsigned and never validated."""
    out = insert_into_host(unoriented(t), unoriented(host), closure)
    signs = [c.sign for c in (*t.crossings, *host.crossings)]
    crossings = tuple(Crossing(c.slots, s) for c, s in zip(out.crossings, signs))
    return Diagram(crossings, out.circles, out.boundary)


class TestSplicedIndex:
    @pytest.mark.parametrize("closure", ["N", "D"])
    @pytest.mark.parametrize("index", range(len(SUMS)))
    def test_tangle_sums_in_random_hosts(self, index, closure):
        for host in HOSTS:
            assert_spliced_index_is_the_validated_one(insert_into_host(SUMS[index], host, closure))

    def test_corpus_two_tangles_in_random_hosts(self, corpus_diagrams):
        tangles = [t for t in corpus_diagrams.values() if len(t.boundary) == 4]
        assert len(tangles) >= 7
        for t in tangles:
            for host in HOSTS:
                for closure in ("N", "D"):
                    assert_spliced_index_is_the_validated_one(insert_into_host(t, host, closure))

    def test_corpus_one_tangles_in_one_tangle_hosts(self, corpus_diagrams):
        tangles = [t for t in corpus_diagrams.values() if len(t.boundary) == 2]
        tangles += [cut_arc_once(parse_diagram(TREFOIL), 2)]
        hosts = one_tangle_hosts()
        assert any(host.circles for host in hosts)
        for t in tangles:
            for host in hosts:
                assert_spliced_index_is_the_validated_one(insert_into_host(t, host))

    @pytest.mark.parametrize("name", ["fig1-krebes", "fig5-t-plus-tstar", "fig3-1tangle"])
    def test_every_closure_of_the_verify_goldens(self, corpus_diagrams, monkeypatch, name):
        # the closures `certify corpus/<name>.pd --verify 100 --seed 0` glues
        glued = []

        def recording_insert(t, host, closure="N"):
            out = insert_into_host(t, host, closure)
            glued.append(out)
            return out

        monkeypatch.setattr(persistence, "insert_into_host", recording_insert)
        t = corpus_diagrams[name]
        report = verify_certificate(t, find_certificate(t), trials=100, seed=0)
        assert len(glued) == len({(e["host"], e["closure"]) for e in report.entries}) > 20
        for out in glued:
            assert_spliced_index_is_the_validated_one(out)

    def test_oriented_closures_fail_exactly_when_a_fresh_copy_fails(self):
        rng = random.Random(5)
        tangles = [orient(variant) for t in SUMS for variant in (t, rotate90(t))]
        hosts = [orient(variant) for h in HOSTS[2:12] for variant in (h, rotate90(h), mirror(h))]
        results = set()
        for _ in range(150):
            t, host, closure = rng.choice(tangles), rng.choice(hosts), rng.choice("ND")
            twin = signed_twin(t, host, closure)
            got = outcome(lambda: insert_into_host(t, host, closure))
            assert outcome(lambda: reference_validate(twin)) == outcome(lambda: validate(twin))
            if isinstance(got, Diagram):
                assert got == twin and got.oriented
                assert_spliced_index_is_the_validated_one(got)
                results.add("valid")
            else:
                assert got == outcome(lambda: validate(twin))
                results.add(got[0])
        assert results == {"valid", OrientationError}


def seeded_rational_tangles():
    """300 seeded rational tangles and their orient images."""
    rng = random.Random(13)
    tangles = [
        rational_tangle([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 4))])
        for _ in range(300)
    ]
    return tangles + [orient(t) for t in tangles]


RATIONALS = seeded_rational_tangles()
# each glue and its reference, by the arity of what it glues
CLOSURES = [
    (numerator_closure, reference_numerator_closure),
    (denominator_closure, reference_denominator_closure),
    (_east_cap, reference_east_cap),
]


def assert_glues_like(glue, reference, *parts):
    """glue(*parts) returns what reference returns, with the same dart index, or
    raises the same error; returns the outcome."""
    want = outcome(lambda: reference(*parts))
    got = outcome(lambda: glue(*parts))
    assert got == want, parts
    if isinstance(want, Diagram):
        assert serialize(got) == serialize(want) and _darts(got) == _darts(want)
        assert_spliced_index_is_the_validated_one(got)
    return got


def kind(result):
    """Diagram for a glued diagram, else the error's type."""
    return Diagram if isinstance(result, Diagram) else result[0]


class TestGlueAgainstReference:
    def test_corpus_closures_and_caps(self, corpus_diagrams):
        tangles = [t for t in corpus_diagrams.values() if len(t.boundary) == 4]
        ones = [t for t in corpus_diagrams.values() if len(t.boundary) == 2]
        assert len(tangles) >= 7 and ones
        for t in tangles:
            for glue, reference in CLOSURES:
                assert_glues_like(glue, reference, t)
            assert_glues_like(close_one_tangle, reference_close_one_tangle, _east_cap(t))
        for t in ones:
            assert_glues_like(close_one_tangle, reference_close_one_tangle, t)

    def test_closures_and_caps_of_seeded_rational_tangles(self):
        results = set()
        for t in RATIONALS:
            for glue, reference in CLOSURES:
                results.add(kind(assert_glues_like(glue, reference, t)))
            cap = outcome(lambda: _east_cap(t))
            if isinstance(cap, Diagram):
                closed = assert_glues_like(close_one_tangle, reference_close_one_tangle, cap)
                results.add(kind(closed))
        assert results == {Diagram, OrientationError}

    def test_seeded_sums(self):
        # zero and infinity, unsigned and oriented summands, mixed signs and mismatched flow
        rng = random.Random(17)
        pool = [zero_tangle(), infinity_tangle(), *RATIONALS]
        pairs = [(zero_tangle(), infinity_tangle()), (infinity_tangle(), infinity_tangle())]
        pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(2000)]
        results = [
            assert_glues_like(tangle_add, reference_tangle_add, t1, t2)
            for t1, t2 in pairs
        ]
        assert set(map(kind, results)) == {Diagram, OrientationError}
        messages = [r[1] for r in results if kind(r) is OrientationError]
        assert any("mixes signed" in m for m in messages)
        assert any("inconsistent flow" in m for m in messages)

    def test_host_closures_equal_the_sum_then_its_closure(self):
        rng = random.Random(19)
        tangles = [*SUMS, *RATIONALS[:40]]
        for _ in range(300):
            t, host, closure = rng.choice(tangles), rng.choice(HOSTS), rng.choice("ND")
            assert_glues_like(insert_into_host, reference_insert_into_host, t, host, closure)
        hosts = one_tangle_hosts()
        for t in [_east_cap(t) for t in RATIONALS[:40]] + hosts:
            for host in hosts:
                assert_glues_like(insert_into_host, reference_insert_into_host, t, host)

    def test_wrong_arity_errors_are_unchanged(self):
        one, two = Diagram(boundary=(1, 1)), zero_tangle()
        for call in (
            lambda: numerator_closure(one),
            lambda: denominator_closure(one),
            lambda: tangle_add(two, one),
            lambda: tangle_add(one, two),
        ):
            assert outcome(call) == (TangleError, "operation needs a 4-endpoint tangle")
        assert outcome(lambda: close_one_tangle(two)) == (
            TangleError,
            "operation needs a 2-endpoint tangle",
        )

    def test_gluing_validated_parts_builds_no_dart_structure(self, monkeypatch):
        t, host, one = SUMS[0], HOSTS[4], _east_cap(RATIONALS[0])
        glues = [
            lambda: insert_into_host(t, host, "N"),
            lambda: insert_into_host(t, host, "D"),
            lambda: insert_into_host(one, one),
            lambda: tangle_add(t, host),
            lambda: numerator_closure(t),
            lambda: denominator_closure(t),
            lambda: close_one_tangle(one),
            lambda: _east_cap(t),
        ]
        for glue in glues:  # validates the trivial hosts the closures and caps glue in
            glue()
        structures = []
        real = diagram._dart_structure
        monkeypatch.setattr(diagram, "_dart_structure", lambda d: structures.append(d) or real(d))
        for glue in glues:
            out = glue()
            assert "_valid" in out.__dict__
        assert structures == []


class TestErrorsAndCopies:
    def test_an_oriented_tangle_in_an_unsigned_host_mixes_signs(self):
        with pytest.raises(OrientationError, match="mixes signed and unsigned"):
            insert_into_host(orient(SUMS[0]), rational_tangle([2, 1]), "N")

    def test_an_oriented_host_whose_flow_disagrees_is_rejected(self):
        t, host = orient(SUMS[0]), orient(rational_tangle([1]))
        with pytest.raises(OrientationError, match="inconsistent flow"):
            insert_into_host(t, host, "N")
        with pytest.raises(OrientationError, match="inconsistent flow"):
            validate(signed_twin(t, host, "N"))

    def test_a_shift_past_the_largest_label_is_rejected(self):
        t = rational_tangle([1])
        t = relabel(t, {max(t.arcs()): 2**31 - 1})
        validate(t)
        with pytest.raises(ArcOccurrenceError, match="integers below 2"):
            insert_into_host(t, rational_tangle([2]), "N")

    def test_unvalidated_tangle_and_host_are_validated_once(self, monkeypatch):
        t, host = unoriented(orient(SUMS[1])), zero_tangle()
        structures = []
        real = diagram._dart_structure
        monkeypatch.setattr(diagram, "_dart_structure", lambda d: structures.append(d) or real(d))
        assert "_valid" not in t.__dict__ and "_valid" not in host.__dict__
        out = insert_into_host(t, host, "D")
        assert [id(d) for d in structures] == [id(t), id(host)]
        assert "_valid" in t.__dict__ and "_valid" in host.__dict__
        monkeypatch.setattr(diagram, "_dart_structure", real)
        assert_spliced_index_is_the_validated_one(out)

    def test_a_spliced_closure_survives_pickle_and_deepcopy(self):
        out = insert_into_host(SUMS[2], HOSTS[5], "N")
        for twin in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
            assert twin == out and _darts(twin) == _darts(out)
