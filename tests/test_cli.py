import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tanglecert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestColor:
    def test_trefoil_count(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "color", str(corpus_dir / "trefoil.pd"), "--mod", "3", "--count")
        assert code == 0
        assert "9 colorings, nontrivial: yes" in out

    def test_unknot_always_trivial(self, capsys, corpus_dir):
        for n in ("2", "5", "11"):
            code, out, _ = run(capsys, "color", str(corpus_dir / "unknot.pd"), "--mod", n)
            assert code == 0
            assert f"{n} colorings, nontrivial: no" in out

    def test_8_16_mod5(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "color", str(corpus_dir / "8_16.pd"), "--mod", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1 and payload["nontrivial"] is True

    def test_quandle_file(self, capsys, corpus_dir, tmp_path):
        qf = tmp_path / "d3.q"
        qf.write_text("Q 3\n0 2 1\n2 1 0\n1 0 2\n")
        code, out, _ = run(capsys, "color", str(corpus_dir / "trefoil.pd"), "--quandle", str(qf))
        assert code == 0 and "9 colorings" in out

    def test_non_involutory_quandle_on_the_crossing_free_unknot(self, capsys, corpus_dir, tmp_path):
        # the Alexander quandle on Z/5 with t = 2; a diagram without crossings needs no orientation
        qf = tmp_path / "alexander-5-2.q"
        rows = (" ".join(str((2 * a - b) % 5) for b in range(5)) for a in range(5))
        qf.write_text("Q 5\n" + "\n".join(rows))
        unknot = str(corpus_dir / "unknot.pd")
        code, out, err = run(capsys, "color", unknot, "--quandle", str(qf), "--enumerate", "9")
        assert code == 0, err
        assert out.splitlines() == ["5 colorings by alexander-5-2, nontrivial: no"] + [
            f"[(1, {v})]" for v in range(5)
        ]

    def test_quandle_search_on_a_1500_crossing_closure(self, capsys, tmp_path):
        # the search's depth grows with the strand count; a recursive one overflows here
        import random

        from tanglecert.braids import braid_closure
        from tanglecert.diagram import serialize

        rng = random.Random(1)
        word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(1500)]
        knot = tmp_path / "big.pd"
        knot.write_text(serialize(braid_closure(word, 3)))
        qf = tmp_path / "d3.q"
        qf.write_text("Q 3\n0 2 1\n2 1 0\n1 0 2\n")
        code, out, err = run(capsys, "color", str(knot), "--quandle", str(qf))
        assert code == 0, err
        assert out == "3 colorings by d3, nontrivial: no\n"

    def test_enumerate_lists_at_most_cap(self, capsys, corpus_dir):
        trefoil = str(corpus_dir / "trefoil.pd")
        code, out, _ = run(capsys, "color", trefoil, "--mod", "3", "--enumerate", "5")
        assert code == 0 and "(truncated)" in out
        code, out, _ = run(capsys, "color", trefoil, "--mod", "3", "--enumerate", "5", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 9
        assert payload["complete"] is False and len(payload["colorings"]) == 5
        code, out, _ = run(capsys, "color", trefoil, "--mod", "3", "--enumerate", "9", "--json")
        payload = json.loads(out)
        assert payload["complete"] is True and len(payload["colorings"]) == 9

    def test_a_short_quandle_listing_reports_the_true_count(self, capsys, corpus_dir):
        # as for Fox: the count and nontrivial cover every coloring, not the ones listed
        trefoil, d3 = str(corpus_dir / "trefoil.pd"), str(corpus_dir / "d3.q")
        code, out, _ = run(capsys, "color", trefoil, "--quandle", d3, "--enumerate", "1")
        assert code == 0 and out.splitlines() == [
            "9 colorings by d3, nontrivial: yes",
            "[(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)]",
            "first 1 of 9 colorings listed (truncated)",
        ]
        code, out, _ = run(capsys, "color", trefoil, "--quandle", d3, "--json")
        assert code == 0 and json.loads(out) == {"schema": 1, "quandle": "d3", "count": 9, "nontrivial": True}

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pd"
        bad.write_text("X 1 4 2\n")
        code, _, err = run(capsys, "color", str(bad), "--mod", "3")
        assert code == 2 and "error" in err


class TestDet:
    def test_corpus_values(self, capsys, corpus_dir):
        for name, value in (("trefoil", 3), ("fig8-knot", 5), ("6_2", 11), ("8_16", 35)):
            code, out, _ = run(capsys, "det", str(corpus_dir / f"{name}.pd"))
            assert code == 0 and f"determinant: {value}" in out


class TestCertify:
    def test_krebes_found(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "certify", str(corpus_dir / "fig1-krebes.pd"), "--json", "--verify", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == {"fox": 3}
        assert payload["verification"]["passes"] > 0

    def test_fig9_not_found_with_reason(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "certify", str(corpus_dir / "fig9-tangle.pd"), "--mods", "3,5,7"
        )
        assert code == 1
        assert "none" in out and "forces arcs" in out

    def test_fig8_tangle_gcd_reason(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "certify", str(corpus_dir / "fig8-tangle.pd"))
        assert code == 1
        assert "krebes gcd = 1" in out

    def test_determinism(self, capsys, corpus_dir):
        args = ("certify", str(corpus_dir / "fig1-krebes.pd"), "--json", "--verify", "8", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_oriented_tangle_verifies_like_the_unoriented_file(self, capsys, corpus_dir, tmp_path):
        from tanglecert.diagram import orient, parse_diagram, serialize

        plain = corpus_dir / "fig1-krebes.pd"
        oriented = tmp_path / "fig1-krebes-oriented.pd"
        oriented.write_text(serialize(orient(parse_diagram(plain.read_text()))))
        assert "Xp" in oriented.read_text() or "Xm" in oriented.read_text()
        reports = []
        for path in (plain, oriented):
            code, out, err = run(capsys, "certify", str(path), "--json", "--verify", "20")
            assert code == 0, err
            reports.append(json.loads(out)["verification"])
        assert (reports[0]["passes"], reports[0]["skipped"]) == (28, 16)
        assert reports[1] == reports[0]


# (golden file stem, argv after the subcommand's input): the algebra CLI's
# output, written before the solvers kept their Fox system and reordered
# their rows, and diffed by the CI step "Algebra CLI output unchanged"; the
# reports, written before their closure evidence was read from one
# determinant per closure, are diffed by "report and build output unchanged"
KNOTS = ("trefoil", "fig8-knot", "6_2", "8_16")
TANGLES = ("fig1-krebes", "fig5-t-plus-tstar", "fig9-tangle")
REPORTED = ("fig1-krebes", "fig4-tangle", "fig5-t-plus-tstar", "fig8-tangle", "fig9-tangle")
GOLDEN = (
    [(f"{k}.det", ["det", k]) for k in KNOTS]
    + [
        (f"{k}.color-mod{n}", ["color", k, "--mod", str(n), "--enumerate", "50"])
        for k in KNOTS + TANGLES
        for n in (3, 5, 15)
    ]
    + [(f"{t}.certify", ["certify", t]) for t in TANGLES[:2]]
    + [("fig9-tangle.certify", ["certify", "fig9-tangle", "--mods", "3,5,7"])]
    + [(f"{t}.report", ["report", t]) for t in REPORTED]
)


@pytest.mark.parametrize("stem,argv", GOLDEN, ids=[stem for stem, _ in GOLDEN])
def test_algebra_output_matches_golden(capsys, corpus_dir, monkeypatch, stem, argv):
    monkeypatch.chdir(corpus_dir.parent)  # certificates name the tangle file as given
    command, name, *rest = argv
    code, out, err = run(capsys, command, f"corpus/{name}.pd", *rest, "--json")
    assert code == (1 if stem == "fig9-tangle.certify" else 0), err
    assert out == Path("tests", "expected", f"{stem}.json").read_text()


# `certify --verify 100 --seed 0` glues every sampled host closure; diffed by
# the CI steps "certify --verify output unchanged" and, for the oriented
# fig1-krebes against the unoriented golden, the step after it
VERIFIED = ("fig1-krebes", "fig5-t-plus-tstar", "fig3-1tangle")
VERIFY_ARGS = ("--verify", "100", "--seed", "0", "--json")


@pytest.mark.parametrize("name", VERIFIED)
def test_certify_verify_output_matches_golden(capsys, corpus_dir, monkeypatch, name):
    monkeypatch.chdir(corpus_dir.parent)  # certificates name the tangle file as given
    code, out, err = run(capsys, "certify", f"corpus/{name}.pd", *VERIFY_ARGS)
    assert code == 0, err
    assert out == Path("tests", "expected", f"{name}.certify-verify.json").read_text()


def test_certify_verify_of_the_oriented_tangle_matches_the_unoriented_golden(
    capsys, corpus_dir, monkeypatch, tmp_path
):
    from tanglecert.diagram import orient, parse_diagram, serialize

    (tmp_path / "corpus").mkdir()
    plain = (corpus_dir / "fig1-krebes.pd").read_text()
    (tmp_path / "corpus" / "fig1-krebes.pd").write_text(serialize(orient(parse_diagram(plain))))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "certify", "corpus/fig1-krebes.pd", *VERIFY_ARGS)
    assert code == 0, err
    golden = corpus_dir.parent / "tests" / "expected" / "fig1-krebes.certify-verify.json"
    assert out == golden.read_text()


class TestCut:
    def test_single_arc_cut(self, capsys, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys, "cut", str(corpus_dir / "trefoil.pd"), "--arc", "1", "--mod", "3",
            "--out", str(tmp_path / "fig4"),
        )
        assert code == 0
        assert (tmp_path / "fig4.pd").exists()
        cert = json.loads((tmp_path / "fig4.cert.json").read_text())
        assert cert["kind"] == {"fox": 3} and cert["schema"] == 1

    def test_two_arc_cut(self, capsys, corpus_dir, tmp_path):
        code, _, _ = run(
            capsys, "cut", str(corpus_dir / "trefoil.pd"), "--arc", "1", "--arc2", "6",
            "--mod", "3", "--out", str(tmp_path / "fig5"),
        )
        assert code == 0
        cert = json.loads((tmp_path / "fig5.cert.json").read_text())
        assert len(cert["moves"]) >= 1

    def test_a_two_arc_cut_that_succeeds_solves_once(self, capsys, corpus_dir, tmp_path, monkeypatch):
        from tanglecert import linalg

        calls = []
        real = linalg.solve_mod
        monkeypatch.setattr(linalg, "solve_mod", lambda *a: calls.append(a) or real(*a))
        code, _, err = run(
            capsys, "cut", str(corpus_dir / "8_16.pd"), "--arc", "3", "--arc2", "12",
            "--mod", "5", "--out", str(tmp_path / "cut"),
        )
        assert code == 0, err
        assert len(calls) == 1

    def test_no_coloring_exits_1(self, capsys, corpus_dir, tmp_path):
        code, _, err = run(
            capsys, "cut", str(corpus_dir / "trefoil.pd"), "--arc", "1", "--mod", "5",
            "--out", str(tmp_path / "nope"),
        )
        assert code == 1 and "no nontrivial coloring" in err

    def test_two_arc_cut_without_any_coloring(self, capsys, corpus_dir, tmp_path):
        code, _, err = run(
            capsys, "cut", str(corpus_dir / "trefoil.pd"), "--arc", "1", "--arc2", "6",
            "--mod", "5", "--out", str(tmp_path / "nope"),
        )
        assert code == 1 and "no nontrivial coloring mod 5" in err

    def test_two_arcs_that_never_share_a_color(self, capsys, corpus_dir, tmp_path):
        # arcs 1 and 2 lie on different strands, which every nontrivial 3-coloring separates
        code, _, err = run(
            capsys, "cut", str(corpus_dir / "trefoil.pd"), "--arc", "1", "--arc2", "2",
            "--mod", "3", "--out", str(tmp_path / "nope"),
        )
        assert code == 1 and "arcs 1 and 2 never share a color mod 3" in err

    def test_two_arc_cut_past_the_enumeration_cap(self, capsys, tmp_path):
        # 12 trefoils in a row have 3^13 colorings mod 3, more than the 10^6 cap
        from tanglecert.braids import braid_closure
        from tanglecert.diagram import serialize

        knot = tmp_path / "trefoils.pd"
        knot.write_text(serialize(braid_closure([i for i in range(1, 13) for _ in range(3)], 13)))
        code, _, err = run(
            capsys, "cut", str(knot), "--arc", "1", "--arc2", "80", "--mod", "3",
            "--out", str(tmp_path / "cut"),
        )
        assert code == 0, err
        cert = json.loads((tmp_path / "cut.cert.json").read_text())
        assert cert["kind"] == {"fox": 3} and cert["moves"]

    def test_two_arc_cut_on_a_huge_solution_space(self, capsys, tmp_path):
        # 97^4 colorings: far above the enumeration cap, so no coloring may be listed
        circles = tmp_path / "circles.pd"
        circles.write_text("O 1 ; O 2 ; O 3 ; O 4\n")
        code, _, err = run(
            capsys, "cut", str(circles), "--arc", "1", "--arc2", "2", "--mod", "97",
            "--out", str(tmp_path / "nope"),
        )
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
        # four circles are four components: the cut refuses them before any transport
        assert err.strip() == "error: cut operations need a 1-component diagram"


    def test_one_arc_cut_of_a_link_exits_2(self, capsys, corpus_dir, tmp_path):
        code, _, err = run(
            capsys, "cut", str(corpus_dir / "hopf.pd"), "--arc", "1", "--mod", "2",
            "--out", str(tmp_path / "nope"),
        )
        assert code == 2 and err.strip() == "error: cut operations need a 1-component diagram"
        assert not (tmp_path / "nope.pd").exists()


# (golden file stem, cut arguments): the files `cut` writes, written before the
# crossing rule and the certificate check moved into one place each, and diffed
# by the CI step "cut and quandle output unchanged"
CUT_GOLDEN = [
    ("trefoil.cut-arc1", ["trefoil", "--arc", "1", "--mod", "3"]),
    ("trefoil.cut-arc1-arc6-passes2", ["trefoil", "--arc", "1", "--arc2", "6", "--mod", "3", "--passes", "2"]),
    ("8_16.cut-arc3-arc12-mod5", ["8_16", "--arc", "3", "--arc2", "12", "--mod", "5"]),  # 2 R2 moves
]


@pytest.mark.parametrize("stem,argv", CUT_GOLDEN, ids=[stem for stem, _ in CUT_GOLDEN])
def test_cut_output_matches_golden(capsys, corpus_dir, monkeypatch, tmp_path, stem, argv):
    monkeypatch.chdir(tmp_path)  # the certificate names the tangle file as given
    name, *rest = argv
    code, _, err = run(capsys, "cut", str(corpus_dir / f"{name}.pd"), *rest, "--out", stem)
    assert code == 0, err
    for suffix in (".pd", ".cert.json"):
        golden = corpus_dir.parent / "tests" / "expected" / f"{stem}{suffix}"
        assert (tmp_path / f"{stem}{suffix}").read_text() == golden.read_text(), suffix


def test_build_output_matches_golden(capsys, corpus_dir, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the certificate names the tangle file as given
    stem = "t-plus-tstar-3-1-2-2.build"
    code, _, err = run(capsys, "build", "--t-plus-tstar", "3,1,2,2", "--out", stem)
    assert code == 0, err
    for suffix in (".pd", ".cert.json"):
        golden = corpus_dir.parent / "tests" / "expected" / f"{stem}{suffix}"
        assert (tmp_path / f"{stem}{suffix}").read_text() == golden.read_text(), suffix


def test_quandle_color_output_matches_golden(capsys, corpus_dir, monkeypatch):
    monkeypatch.chdir(corpus_dir.parent)
    code, out, err = run(
        capsys, "color", "corpus/trefoil.pd", "--quandle", "corpus/d3.q", "--enumerate", "20", "--json"
    )
    assert code == 0, err
    assert out == Path("tests", "expected", "trefoil.color-d3.json").read_text()


# (golden file stem, arguments, exit code): quandle output written before affine
# quandles of prime order were solved by elimination, and diffed by the CI step
# "cut and quandle output unchanged"; an ".oriented." stem colors the knot that
# orient() writes, so the Alexander quandles' crossing signs are exercised
QUANDLE_GOLDEN = [
    ("trefoil.oriented.color-alexander-7-3",
     ["color", "trefoil", "--quandle", "corpus/alexander-7-3.q", "--enumerate", "60"], 0),
    ("trefoil.color-d3-enumerate1", ["color", "trefoil", "--quandle", "corpus/d3.q", "--enumerate", "1"], 0),
    ("fig8-knot.oriented.color-alexander-11-5",  # the first 50 of 121
     ["color", "fig8-knot", "--quandle", "corpus/alexander-11-5.q", "--enumerate", "50"], 0),
    ("fig1-krebes.color-d3", ["color", "fig1-krebes", "--quandle", "corpus/d3.q", "--enumerate", "30"], 0),
    ("fig8-tangle.certify-d3", ["certify", "fig8-tangle", "--quandles", "corpus/d3.q"], 1),  # pinned
    # dihedral of order 6 is composite, so these two run the search, not elimination
    ("trefoil.color-d6", ["color", "trefoil", "--quandle", "corpus/d6.q", "--enumerate", "20"], 0),
    ("fig1-krebes.certify-d6", ["certify", "fig1-krebes", "--mods", "7", "--quandles", "corpus/d6.q"], 0),
]


@pytest.mark.parametrize("stem,argv,want", QUANDLE_GOLDEN, ids=[stem for stem, _, _ in QUANDLE_GOLDEN])
def test_quandle_output_matches_golden(capsys, corpus_dir, monkeypatch, tmp_path, stem, argv, want):
    from tanglecert.diagram import orient, parse_diagram, serialize

    monkeypatch.chdir(corpus_dir.parent)  # certificates name the tangle file as given
    command, name, *rest = argv
    path = f"corpus/{name}.pd"
    if ".oriented." in stem:
        path = tmp_path / f"{name}.pd"
        path.write_text(serialize(orient(parse_diagram((corpus_dir / f"{name}.pd").read_text()))))
    code, out, err = run(capsys, command, str(path), *rest, "--json")
    assert code == want, err
    assert out == Path("tests", "expected", f"{stem}.json").read_text()


class TestBuild:
    def test_rational_closure(self, capsys, tmp_path):
        out_path = tmp_path / "tre"
        code, _, _ = run(capsys, "build", "--rational", "3", "--closure", "N", "--out", str(out_path))
        assert code == 0
        from tanglecert.colorings import determinant
        from tanglecert.diagram import parse_diagram

        assert determinant(parse_diagram((tmp_path / "tre.pd").read_text())) == 3

    def test_unknot_closure(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "build", "--rational", "0", "--closure", "D", "--out", str(tmp_path / "u")
        )
        assert code == 0
        from tanglecert.colorings import link_determinant
        from tanglecert.diagram import parse_diagram

        assert link_determinant(parse_diagram((tmp_path / "u.pd").read_text())) == 1

    def test_t_plus_tstar(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "build", "--t-plus-tstar", "2,2", "--json", "--out", str(tmp_path / "s")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"]["fox"] >= 2

    def test_integer_vector_not_found(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "build", "--t-plus-tstar", "3", "--out", str(tmp_path / "n")
        )
        assert code == 1 and "none" in err


class TestOthers:
    def test_closure_components(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "closure", str(corpus_dir / "fig8-tangle.pd"), "--type", "D")
        assert code == 0 and "components: 1" in out

    def test_krebes_command(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "krebes", str(corpus_dir / "fig8-tangle.pd"))
        assert code == 0 and "krebes gcd: 1" in out

    def test_report_command(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "report", str(corpus_dir / "fig8-tangle.pd"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "consistent with irreducible"
        assert payload["closure_N"]["determinant"] == 5
        assert payload["closure_D"]["determinant"] == 3


class TestLimits:

    def test_determinant_bound_exits_2_and_names_the_limit(self, capsys, tmp_path):
        from tanglecert.braids import braid_closure
        from tanglecert.diagram import serialize

        # a valid 35,000-crossing closure, past what the largest listed prime can bound
        path = tmp_path / "long.pd"
        path.write_text(serialize(braid_closure([1, -2] * 17500, 3)))
        code, out, err = run(capsys, "det", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: limit exceeded: the determinant's Hadamard bound needs a prime"
            " of 45236 bits, past the 44497-bit limit\n"
        )


class TestNegativeCounts:
    """A negative count or a malformed list is a usage error: exit 2, with the option named."""

    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        return exc.value.code, capsys.readouterr().err

    def test_fox_enumerate(self, capsys, corpus_dir):
        code, err = self.usage_error(
            capsys, "color", str(corpus_dir / "trefoil.pd"), "--mod", "3", "--enumerate", "-1"
        )
        assert code == 2 and "--enumerate" in err

    def test_quandle_enumerate(self, capsys, corpus_dir, tmp_path):
        qf = tmp_path / "d3.q"
        qf.write_text("Q 3\n0 2 1\n2 1 0\n1 0 2\n")
        code, err = self.usage_error(
            capsys, "color", str(corpus_dir / "trefoil.pd"), "--quandle", str(qf), "--enumerate", "-1"
        )
        assert code == 2 and "--enumerate" in err

    def test_certify_verify(self, capsys, corpus_dir):
        code, err = self.usage_error(
            capsys, "certify", str(corpus_dir / "fig1-krebes.pd"), "--verify", "-5"
        )
        assert code == 2 and "--verify" in err

    @pytest.mark.parametrize("mods", ["3,x", "3,,5"])
    def test_certify_mods(self, capsys, corpus_dir, mods):
        code, err = self.usage_error(
            capsys, "certify", str(corpus_dir / "fig9-tangle.pd"), "--mods", mods
        )
        assert code == 2 and "--mods" in err and "Traceback" not in err

    def test_cut_passes(self, capsys, corpus_dir, tmp_path):
        code, err = self.usage_error(
            capsys, "cut", str(corpus_dir / "trefoil.pd"), "--arc", "1", "--arc2", "6",
            "--mod", "3", "--passes", "-2", "--out", str(tmp_path / "cut"),
        )
        assert code == 2 and "--passes" in err
        assert not (tmp_path / "cut.pd").exists()


class TestNonDecimalDigits:
    """'²' passes str.isdigit but not int(): each place that reads a number exits 2 naming it."""

    def test_pd_label(self, capsys, tmp_path):
        bad = tmp_path / "bad.pd"
        bad.write_text("X ² 4 2 5\n")
        code, _, err = run(capsys, "det", str(bad))
        assert code == 2
        assert "line 1, column 1: expected a positive integer, got '²'" in err

    def test_quandle_size(self, capsys, corpus_dir, tmp_path):
        qf = tmp_path / "bad.q"
        qf.write_text("Q ²\n0 1\n1 0\n")
        code, _, err = run(capsys, "color", str(corpus_dir / "trefoil.pd"), "--quandle", str(qf))
        assert code == 2 and "must start with 'Q n'" in err

    def test_enumerate_count(self, capsys, corpus_dir):
        with pytest.raises(SystemExit) as exc:
            main(["color", str(corpus_dir / "trefoil.pd"), "--mod", "3", "--enumerate", "²"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--enumerate: expected a non-negative integer, got '²'" in err


class TestInternalError:
    def test_unexpected_exception_exits_3_and_names_it(self, capsys, corpus_dir, monkeypatch):
        import tanglecert.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_det", broken)
        code, out, err = run(capsys, "det", str(corpus_dir / "trefoil.pd"))
        assert code == 3
        assert out == "" and err == "internal error: RuntimeError: boom\n"


def run_module(*argv, stdout=subprocess.PIPE):
    """Run `python -m tanglecert` in a child process on this checkout's sources."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "tanglecert", *argv], stdout=stdout, stderr=subprocess.PIPE,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, corpus_dir):
        proc = run_module("color", str(corpus_dir / "trefoil.pd"), "--mod", "3")
        assert proc.returncode == 0, proc.stderr
        assert "9 colorings, nontrivial: yes" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["color", "trefoil.pd", "--mod", "3"],  # fits the buffer: written at the final flush
        ["color", "8_16.pd", "--mod", "15", "--enumerate", "75", "--json"],  # 26 kB
    ])
    def test_a_closed_stdout_exits_141_in_silence(self, corpus_dir, argv):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            proc = run_module(argv[0], str(corpus_dir / argv[1]), *argv[2:], stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_python_dash_m_reports_bad_input_with_exit_2(self, tmp_path):
        bad = tmp_path / "bad.pd"
        bad.write_text("X 1 2 3\n")
        proc = run_module("det", str(bad))
        assert proc.returncode == 2 and proc.stderr.startswith("error:")
