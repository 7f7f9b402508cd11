"""The command-line interface: suites, serialization, exit codes."""

import json

import pytest

from mixsym.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_rank_suite_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "rank",
                                     "--levels", "5,11"])
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "rank"
        assert doc["items"]
        assert all(i["status"] == "pass" for i in doc["items"])
        assert set(doc) == {"suite", "items", "version"}
        assert all(set(i) == {"id", "status", "detail"} for i in doc["items"])

    def test_manin_suite_reports_computed_indices(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "manin",
                                     "--levels", "5,7,11,13"])
        assert code == 0
        items = {i["id"]: i for i in json.loads(out)["items"]}
        got = [items[f"manin-index/gamma0/{lvl}"]["detail"].split()[0]
               for lvl in (5, 7, 11, 13)]
        assert got == ["index=3", "index=1", "index=3", "index=1"]
        assert all(i["status"] == "pass" for i in items.values())

    def test_pairing_suite_strict_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "pairing",
                                     "--levels", "11", "--strict"])
        assert code == 0
        items = json.loads(out)["items"]
        assert any(i["id"] == "det-conjecture/gamma0/11"
                   and i["status"] == "pass" for i in items)

    def test_pairing_suite_reports_det_conjecture(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "pairing",
                                     "--levels", "5"])
        assert code == 0
        items = json.loads(out)["items"]
        rep = next(i for i in items if i["id"] == "det-conjecture/gamma0/5")
        assert rep["status"] == "report"
        assert "MATCH" in rep["detail"]

    def test_suite_all_builds_each_level_once(self, capsys, monkeypatch):
        from mixsym import cli
        built = []
        build = cli.build_space

        def counting(spec):
            built.append(spec.level)
            return build(spec)

        monkeypatch.setattr(cli, "build_space", counting)
        code, _, _ = _run(capsys, ["verify", "--suite", "all",
                                   "--levels", "5,7"])
        assert code == 0
        assert built == [5, 7]

    def test_hecke_suite_gamma1(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "hecke",
                                     "--family", "gamma1", "--levels", "5",
                                     "--primes", "2,3"])
        assert code == 0
        assert all(i["status"] == "pass" for i in json.loads(out)["items"])

    def test_eis_suite(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "eis",
                                     "--pn", "5,9", "--tol", "1e-8"])
        assert code == 0
        items = json.loads(out)["items"]
        assert any(i["id"] == "det(M')/9" for i in items)
        assert any(i["id"] == "gamma0p-constants/5" for i in items)
        assert all(i["status"] == "pass" for i in items)

    def test_markdown_format(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "rank",
                                     "--levels", "5", "--format", "markdown"])
        assert code == 0
        assert out.startswith("# Suite: rank")
        assert "| rank/gamma0/5 | pass |" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = _run(capsys, ["verify", "--suite", "rank",
                                     "--levels", "5", "--out", str(path)])
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["suite"] == "rank"

    def test_tol_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MMS_TOL", "1e-6")
        code, _, _ = _run(capsys, ["verify", "--suite", "eis", "--pn", "5"])
        assert code == 0


class TestExportImport:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        code, _, _ = _run(capsys, ["export", "--family", "gamma0",
                                   "--level", "11", "--out", str(path)])
        assert code == 0
        code, out, _ = _run(capsys, ["import", str(path)])
        assert code == 0
        assert "Gamma0(11) rank 4" in out

    def test_export_deterministic(self, capsys):
        _, out1, _ = _run(capsys, ["export", "--family", "gamma1", "--level", "5"])
        _, out2, _ = _run(capsys, ["export", "--family", "gamma1", "--level", "5"])
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["basis_rank"] == "6"
        assert len(doc["cusps"]) == 4

    def test_rank_zero_export(self, capsys):
        code, out, _ = _run(capsys, ["export", "--family", "full"])
        assert code == 0
        assert json.loads(out)["basis_rank"] == "0"


class TestExitCodes:
    def test_usage_error_bad_level(self, capsys):
        code, _, err = _run(capsys, ["export", "--family", "gamma0",
                                     "--level", "0"])
        assert code == 2 and "error" in err

    def test_usage_error_bad_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_io_error_missing_import(self, capsys):
        code, _, err = _run(capsys, ["import", "/nonexistent/space.json"])
        assert code == 3 and "error" in err

    def test_io_error_unwritable_out(self, capsys):
        code, _, err = _run(capsys, ["verify", "--suite", "rank",
                                     "--levels", "5",
                                     "--out", "/nonexistent/dir/report.json"])
        assert code == 3 and "error" in err
