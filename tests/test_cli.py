import json

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

    def test_no_coloring_exits_1(self, capsys, corpus_dir, tmp_path):
        code, _, err = run(
            capsys, "cut", str(corpus_dir / "trefoil.pd"), "--arc", "1", "--mod", "5",
            "--out", str(tmp_path / "nope"),
        )
        assert code == 1 and "no nontrivial coloring" in err


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
