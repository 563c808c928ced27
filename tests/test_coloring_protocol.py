"""One coloring protocol: each kind carries its rule, residues and JSON key.

The certificate search walks one list of (key, space constructor, pins)
and must agree with oracles.reference_find_certificate_report, the two-loop
search it replaced, on the corpus 1- and 2-tangles as given and oriented,
across Fox moduli and quandles.  The one documented difference: a Fox hit's
report entry now records its pin, 0, as a quandle hit records its own.
An entry's pin values are computed only when the search reaches it.
A Fox coloring keeps its colors as residues, so two colorings that agree
mod N are equal.
"""

from oracles import reference_find_certificate_report
from tanglecert.colorings import (
    ColoringError,
    FoxColoring,
    Quandle,
    QuandleColoring,
    _fox_key,
    _quandle_key,
    dihedral,
    parse_quandle,
)
from tanglecert.diagram import DiagramError, orient
from tanglecert.persistence import find_certificate_report

MODULI = [None, [3, 5, 7], [2], []]


def load_quandle(corpus_dir, stem):
    return parse_quandle((corpus_dir / f"{stem}.q").read_text(), name=stem)


def outcome(search, t, moduli, quandles):
    """(entries, cannot_exist, certificate JSON) of one search, or the type
    and message of what it raised."""
    try:
        report = search(t, moduli, quandles)
    except (ColoringError, DiagramError) as exc:
        return type(exc), str(exc)
    cert = report.certificate
    return report.entries, report.cannot_exist, cert and cert.to_json("t")


def without_fox_pin(result):
    """The report as the reference writes it: a Fox hit's entry has no pin."""
    if isinstance(result[0], type):
        return result
    entries = []
    for entry in result[0]:
        if "fox" in entry and entry["found"]:
            entry = dict(entry)
            assert entry.pop("pin") == 0
        entries.append(entry)
    return entries, *result[1:]


def test_the_one_search_loop_matches_the_two_loop_reference(corpus_diagrams, corpus_dir):
    d3, d6 = load_quandle(corpus_dir, "d3"), load_quandle(corpus_dir, "d6")
    alexander = load_quandle(corpus_dir, "alexander-7-3")
    tangles = {name: t for name, t in corpus_diagrams.items() if len(t.boundary) in (2, 4)}
    assert len(tangles) >= 8
    found = {"fox": 0, "quandle": 0}
    for name, t in tangles.items():
        for oriented in (False, True):
            d = orient(t) if oriented else t
            quandle_sets = [(), (d3,), (d6,)] + [(alexander,), (d6, alexander)] * oriented
            for moduli in MODULI:
                for quandles in quandle_sets:
                    got = outcome(find_certificate_report, d, moduli, quandles)
                    want = outcome(reference_find_certificate_report, d, moduli, quandles)
                    label = (name, oriented, moduli, [q.name for q in quandles])
                    assert without_fox_pin(got) == want, label
                    if not isinstance(got[0], type) and got[2] is not None:
                        found[next(iter(got[2]["kind"]))] += 1
    assert found["fox"] >= 20 and found["quandle"] >= 10


def test_a_fox_hit_records_its_pin(corpus_diagrams):
    report = find_certificate_report(corpus_diagrams["fig1-krebes"], [3])
    assert report.entries == [{"fox": 3, "pin": 0, "found": True}]


def test_a_fox_hit_computes_no_quandle_orbits(corpus_diagrams, monkeypatch):
    def no_orbits(self):
        raise AssertionError("orbit representatives computed")

    monkeypatch.setattr(Quandle, "orbit_representatives", no_orbits)
    report = find_certificate_report(corpus_diagrams["fig1-krebes"], [3], (dihedral(3),))
    assert report.entries == [{"fox": 3, "pin": 0, "found": True}]


def test_a_non_involutory_quandle_on_an_unoriented_tangle_raises_like_the_reference(
    corpus_diagrams, corpus_dir
):
    t = corpus_diagrams["fig1-krebes"]
    alexander = load_quandle(corpus_dir, "alexander-7-3")
    got = outcome(find_certificate_report, t, [], (alexander,))
    assert got == outcome(reference_find_certificate_report, t, [], (alexander,))
    assert got[0] is ColoringError


class TestResidues:
    def test_fox_colors_are_canonical_residues(self):
        c = FoxColoring(3, {1: 4, 2: -1})
        assert c == FoxColoring(3, {1: 1, 2: 2})
        assert c.colors == {1: 1, 2: 2}

    def test_reduced_colors_are_kept_as_given(self):
        colors = {1: 0, 2: 2}
        assert FoxColoring(3, colors).colors is colors

    def test_both_kinds_share_the_protocol(self):
        q = dihedral(3)
        fox, quandle = FoxColoring(3, {1: 0, 2: 5}), QuandleColoring(q, {1: 0, 2: 2})
        assert (fox.kind, fox.key, fox.involutory, fox.reduce(-1)) == (("fox", 3), {"fox": 3}, True, 2)
        assert (quandle.kind, quandle.key, quandle.involutory, quandle.reduce(2)) == (
            ("quandle", q),
            {"quandle": "dihedral-3"},
            True,
            2,
        )
        assert fox.witness() == quandle.witness() == (1, 2)
        assert fox.nontrivial and quandle.nontrivial
        assert QuandleColoring(Quandle(q.table), {}).key == {"quandle": "table"}
        assert (fox.key, quandle.key) == (_fox_key(3), _quandle_key(q))

