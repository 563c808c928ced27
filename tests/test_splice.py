"""insert_into_host's spliced dart index against a full validate.

A closure glued from two validated tangles is marked valid without the
occurrence count and the Euler walk: its dart index is spliced from the
kept indices of the tangle and the host.  Every closure here must pass
oracles.reference_validate and a full validate of a fresh copy, whose four
index arrays must equal the spliced ones.  An oriented closure must fail
exactly when a fresh copy fails validation, with the same error.
"""

import copy
import pickle
import random

import pytest

from oracles import reference_validate
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
    unoriented,
    validate,
)
from tanglecert.persistence import _east_cap, cut_arc_once, find_certificate, verify_certificate
from tanglecert.tangle import (
    infinity_tangle,
    insert_into_host,
    mirror,
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
