"""The command-line interface: suites, serialization, exit codes."""

import contextlib
import copy
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import mixsym
from mixsym import cli, eis
from mixsym.cli import main

from test_golden import REPORT_DIGESTS


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _exit(argv):
    """(exit code, stderr) of main(argv), counting an argparse exit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


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

    @pytest.mark.parametrize("argv", [
        ["--levels", "36,49"], ["--family", "gamma1", "--levels", "15"]])
    def test_pairing_suite_strict_at_composite_levels(self, capsys, argv):
        code, out, _ = _run(capsys, ["verify", "--suite", "pairing",
                                     "--strict", *argv])
        assert code == 0
        det_items = [i for i in json.loads(out)["items"]
                     if i["id"].startswith("det-conjecture/")]
        assert len(det_items) == len(argv[-1].split(","))
        assert all(i["status"] == "pass" for i in det_items)

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

    def test_suite_eis_builds_no_space(self, capsys, monkeypatch):
        from mixsym import cli
        built = []
        monkeypatch.setattr(cli, "build_space", built.append)
        code, _, _ = _run(capsys, ["verify", "--suite", "eis", "--pn", "5",
                                   "--levels", "5,7"])
        assert code == 0
        assert built == []

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

    @pytest.mark.parametrize("k", [1, 2, 5, 6, 25, 27, 32, 47, 49, 50])
    def test_gamma0p_item_fails_on_one_wrong_coefficient(self, monkeypatch, k):
        real = eis.gamma0p_constants

        def off_by_one(p):
            data = real(p)
            data["coefficients"][k] += 1
            return data

        def status():
            rep = cli.Reporter("eis")
            cli.suite_eis(rep, pn_list=[5], tol=1e-8)
            return {i["id"]: i["status"] for i in rep.items}["gamma0p-constants/5"]

        assert status() == "pass"
        monkeypatch.setattr(eis, "gamma0p_constants", off_by_one)
        assert status() == "fail"

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

    def test_repeated_level_is_run_once(self, capsys):
        once = _run(capsys, ["verify", "--suite", "rank", "--levels", "5"])
        assert _run(capsys, ["verify", "--suite", "rank", "--levels", "5,5"]) == once

    @pytest.mark.parametrize("argv", [
        ["--suite", "hecke", "--levels", "11", "--primes", "2,2"],
        ["--suite", "eis", "--pn", "5,5"],
        ["--suite", "rank", "--levels", "7,5,7,5"],
    ])
    def test_report_ids_are_unique(self, capsys, argv):
        code, out, _ = _run(capsys, ["verify", *argv])
        assert code == 0
        ids = [i["id"] for i in json.loads(out)["items"]]
        assert ids and len(ids) == len(set(ids))


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

    @pytest.mark.parametrize("argv", [
        ["--suite", "hecke", "--levels", "11", "--primes", "4"],
        ["--suite", "hecke", "--levels", "11", "--primes", "9"],
        ["--suite", "hecke", "--primes", "0"],
        ["--suite", "eis", "--pn", "15"],
        ["--suite", "eis", "--tol", "nan"],
        ["--suite", "rank", "--levels", ","],
        ["--suite", "hecke", "--levels", "5", "--primes", ","],
        ["--suite", "eis", "--pn", ","],
    ], ids=["primes-4", "primes-9", "primes-0", "pn-15", "tol-nan",
            "levels-empty", "primes-empty", "pn-empty"])
    def test_usage_error_at_parser(self, argv):
        code, err = _exit(["verify"] + argv)
        assert code == 2
        assert "error: argument" in err and "Traceback" not in err

    # 59049 = 3^10 asks for a 19683^2 M'; T_q at q = 10^9 + 7 sums over q + 1
    # representatives; the 18-digit prime would take minutes to factor
    @pytest.mark.parametrize("argv,bound", [
        (["--suite", "eis", "--pn", "25,59049"], cli.MAX_PN),
        (["--suite", "hecke", "--levels", "11", "--primes", "2,1000000007"], cli.MAX_PRIME),
        (["--suite", "hecke", "--primes", "999999999999999989"], cli.MAX_PRIME),
    ], ids=["pn-huge", "primes-huge", "primes-huge-unfactored"])
    def test_value_above_its_bound_is_a_usage_error(self, argv, bound):
        code, err = _exit(["verify"] + argv)
        assert code == 2
        assert f"error: argument {argv[-2]}: larger than the bound of {bound}" in err
        assert "Traceback" not in err

    # raw text: json.dumps cannot write the nesting that makes json.load
    # raise RecursionError
    @pytest.mark.parametrize("text", [
        json.dumps({}), json.dumps([1]), "[" * 200_000 + "]" * 200_000,
    ], ids=["empty", "list", "nested"])
    def test_import_malformed_document(self, tmp_path, text):
        path = tmp_path / "space.json"
        path.write_text(text)
        code, err = _exit(["import", str(path)])
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    def _exported(self, tmp_path):
        path = tmp_path / "space.json"
        assert _exit(["export", "--family", "gamma0", "--level", "11",
                      "--out", str(path)])[0] == 0
        return path, json.loads(path.read_text())

    def test_import_ill_typed_level(self, tmp_path):
        path, doc = self._exported(tmp_path)
        doc["level"] = "x"
        path.write_text(json.dumps(doc))
        code, err = _exit(["import", str(path)])
        assert code == 2 and err.startswith("error:")

    # the coset table's size is checked before its residues are walked, so
    # a huge level fails at once for both families
    HUGE_LEVEL = "100000000000"

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "rank", "--levels", HUGE_LEVEL],
        ["export", "--level", HUGE_LEVEL],
    ], ids=["verify", "export"])
    def test_huge_level_is_a_usage_error(self, argv):
        for family in ("gamma0", "gamma1"):
            code, err = _exit(argv + ["--family", family])
            assert code == 2 and err.startswith("error:")
            assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("family", ["gamma0", "gamma1"])
    def test_level_past_the_coset_table_limit(self, family):
        """N = 10^5 asks for 10^10 table entries: exit 2 before allocating.

        The run is a subprocess limited to 1 GiB of address space, so a
        regression fails here instead of exhausting the host's memory.
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(mixsym.__file__)))
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from mixsym.cli import main; sys.exit(main(sys.argv[1:]))")
        argv = ["verify", "--suite", "rank", "--family", family, "--levels", "100000"]
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "10000000000" in proc.stderr and "Traceback" not in proc.stderr

    def test_import_huge_level(self, tmp_path):
        path, doc = self._exported(tmp_path)
        doc["family"], doc["level"] = "gamma1", self.HUGE_LEVEL
        path.write_text(json.dumps(doc))
        code, err = _exit(["import", str(path)])
        assert code == 2 and err.startswith("error:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_import_mismatch(self, tmp_path):
        path, doc = self._exported(tmp_path)
        doc["lift"][0][0] = str(int(doc["lift"][0][0]) + 1)
        path.write_text(json.dumps(doc))
        code, err = _exit(["import", str(path)])
        assert code == 1 and err.startswith("mismatch")

    def test_io_error_unwritable_out(self, capsys):
        code, _, err = _run(capsys, ["verify", "--suite", "rank",
                                     "--levels", "5",
                                     "--out", "/nonexistent/dir/report.json"])
        assert code == 3 and "error" in err

    class _FullStdout(io.StringIO):
        def write(self, _):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    @staticmethod
    def _closed_stdout():
        f = io.StringIO()
        f.close()
        return f

    @pytest.mark.parametrize("stdout", [_FullStdout, lambda: None, _closed_stdout],
                             ids=["full", "none", "closed"])
    @pytest.mark.parametrize("command", ["verify", "export", "import"])
    def test_unwritable_stdout(self, tmp_path, monkeypatch, command, stdout):
        if command == "import":
            argv = ["import", str(self._exported(tmp_path)[0])]
        else:
            argv = {"verify": ["verify", "--suite", "rank", "--levels", "5"],
                    "export": ["export", "--family", "gamma0", "--level", "11"]}[command]
        err = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout())
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 3, err.getvalue()
        assert err.getvalue().startswith("error: cannot write stdout")
        assert err.getvalue().count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("redirect", [">/dev/full", ">&-"], ids=["full", "closed"])
    def test_unwritable_stdout_in_a_subprocess(self, redirect, unbuffered):
        """The interpreter's own stdout: ENOSPC on /dev/full, None when closed.

        Buffered, the bytes of the failed write stay in stdout's buffer and
        are flushed again at exit; that flush must not fail a second time.
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(mixsym.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for argv in (["verify", "--suite", "rank", "--levels", "5"],
                     ["export", "--family", "gamma0", "--level", "11"]):
            proc = subprocess.run(
                ["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, "-m",
                 "mixsym.cli", *argv], env=env,
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr.startswith("error: cannot write stdout")
            assert proc.stderr.count("\n") == 1


# values of each JSON type, and strings that are not decimal integers
_JSON_VALUES = {str: "x", int: 3, list: [], dict: {}, type(None): None}
_NOT_DECIMAL = ["1.5", "+3", "\u0663", " 7", "0x1f", "", "1e3", "--1", "\u0663\u0663"]


def _leaves(v, path=()):
    """(path, value) of every value below the document root, depth first."""
    if isinstance(v, dict):
        items = v.items()
    elif isinstance(v, list):
        items = enumerate(v)
    else:
        return
    for k, x in items:
        yield path + (k,), x
        yield from _leaves(x, path + (k,))


def _set(doc, path, value):
    for k in path[:-1]:
        doc = doc[k]
    doc[path[-1]] = value


def _mutant(doc, rng):
    """One seeded mutation of an exported document, as the bytes of a file."""
    kind = rng.choice(["truncate", "drop", "add", "rename", "retype",
                       "not-decimal", "ragged"])
    doc = copy.deepcopy(doc)
    key = rng.choice(sorted(doc))
    if kind == "drop":
        del doc[key]
    elif kind == "add":
        doc[rng.choice(["extra", key.upper(), ""])] = rng.choice(list(_JSON_VALUES.values()))
    elif kind == "rename":
        doc[key + rng.choice(["_", "s", " "])] = doc.pop(key)
    elif kind == "retype":
        path, old = rng.choice(list(_leaves(doc)))
        _set(doc, path, rng.choice([v for t, v in _JSON_VALUES.items()
                                    if type(old) is not t]))
    elif kind == "not-decimal":
        path = rng.choice([p for p, v in _leaves(doc)
                           if isinstance(v, str) and v.lstrip("-").isdigit()])
        _set(doc, path, rng.choice(_NOT_DECIMAL))
    elif kind == "ragged":
        row = rng.choice([r for k in ("cosets", "project", "lift", "pi", "boundary")
                          for r in doc[k]])
        if rng.random() < 0.5:
            row.append("0")
        else:
            row.pop()
    data = json.dumps(doc, ensure_ascii=False).encode()
    if kind == "truncate":
        data = data[:rng.randrange(len(data))]
    return kind, data


def test_import_fuzz_keeps_the_exit_code_contract(tmp_path):
    """Seeded mutations of a Gamma0(11) export: each import exits 0-3 with at
    most one stderr line and no traceback."""
    path = tmp_path / "space.json"
    assert _exit(["export", "--family", "gamma0", "--level", "11", "--out", str(path)])[0] == 0
    doc = json.loads(path.read_text())
    for seed in range(300):
        kind, data = _mutant(doc, random.Random(seed))
        path.write_bytes(data)
        code, err = _exit(["import", str(path)])
        assert code in (0, 1, 2, 3), (seed, kind, err)
        assert "Traceback" not in err and err.count("\n") <= 1, (seed, kind, err)


_JUNK = st.sampled_from(["", ",", "x", "1.5", "-", "nan", "inf", "1e999", "2,,3"])
# valid families (gamma0 and gamma1 for verify) twice as often as the others
_FAMILIES = st.sampled_from(["gamma0", "gamma1", "full", "gamma0", "gamma1", "gamma2", ""])
# at most 13, so a space is cheap to build, or above the 10 000 bound of the
# coset table, where the level is rejected before anything is allocated
_LEVELS = st.one_of(st.integers(-3, 13), st.integers(10_001, 10**12))


class _InDir(str):
    """A path relative to the fuzz directory, joined to it by the fuzzer."""


# the fuzz directory itself, a missing file, a file in a missing directory,
# a valid Gamma0(11) export and a file that is not JSON
_IMPORT_PATHS = st.sampled_from(["", ".", "missing.json", "missing/out.json",
                                 "space.json", "junk.json"]).map(_InDir)
# --out paths, junk names too, lie in the fuzz directory: no draw writes outside it
_OUT_PATHS = st.sampled_from([".", "missing/out.json", "out.json"]).map(_InDir)
_OUT_JUNK = _JUNK.map(_InDir)


def _listed(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


def _sometimes(draw, flag, values, junk=_JUNK):
    """[flag, value] one time in three, the value junk one time in four."""
    if draw(st.integers(0, 2)):
        return []
    return [flag, draw(junk) if draw(st.integers(0, 3)) == 0 else draw(values)]


@st.composite
def _verify_argv(draw):
    argv = ["verify", "--suite",
            draw(st.sampled_from(["rank", "manin", "hecke", "pairing", "eis", "all"])),
            "--family", draw(_FAMILIES)]
    for flag, values in (
            ("--levels", _listed(_LEVELS, max_size=2)),
            ("--primes", _listed(st.sampled_from([2, 3, 5, 7, 11, 13, 1, 4, -3,
                                                  cli.MAX_PRIME + 3]))),
            ("--pn", _listed(st.sampled_from([3, 5, 7, 9, 25, 27, 1, 15, -3,
                                              cli.MAX_PN + 9]))),
            ("--tol", st.one_of(st.floats(1e-12, 1.0), st.floats(allow_nan=True)).map(repr))):
        argv += _sometimes(draw, flag, values)
    return argv + _sometimes(draw, "--out", _OUT_PATHS, junk=_OUT_JUNK)


@st.composite
def _export_argv(draw):
    return (["export", "--family", draw(_FAMILIES)]
            + _sometimes(draw, "--level", _LEVELS.map(str))
            + _sometimes(draw, "--out", _OUT_PATHS, junk=_OUT_JUNK))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    code, err = _exit(["export", "--family", "gamma0", "--level", "11",
                       "--out", str(path / "space.json")])
    assert code == 0, err
    (path / "junk.json").write_bytes(b"\x00{not json")
    return path


def _fuzzer(argvs, examples):
    """A fuzzer that runs main on argvs drawn from the strategy ``argvs`` and
    asserts an exit code in 0-3 with no traceback; an exception that escapes
    main fails it too."""
    @settings(max_examples=examples, deadline=None)
    @given(argv=argvs)
    def fuzz(fuzz_dir, argv):
        argv = [str(fuzz_dir / a) if isinstance(a, _InDir) else a for a in argv]
        code, err = _exit(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
    return fuzz


_FUZZ_VERIFY = _fuzzer(_verify_argv(), 150)
_FUZZ_EXPORT = _fuzzer(_export_argv(), 60)
_FUZZ_IMPORT = _fuzzer(_IMPORT_PATHS.map(lambda path: ["import", path]), 20)


class TestContractFuzz:
    """verify, export and import exit 0-3 without a traceback on drawn argvs:
    unknown families, levels that are not positive integers or lie past the
    table bound, primes and prime powers past their bounds, empty and junk
    lists, missing paths and a directory as --out or as the import path."""

    def test_exit_code_and_no_traceback(self, fuzz_dir):
        _FUZZ_VERIFY(fuzz_dir)

    def test_export_exit_code_and_no_traceback(self, fuzz_dir):
        _FUZZ_EXPORT(fuzz_dir)

    def test_import_exit_code_and_no_traceback(self, fuzz_dir):
        _FUZZ_IMPORT(fuzz_dir)

    def test_an_escaping_error_fails_the_fuzzer(self, monkeypatch, fuzz_dir):
        def run_import(args):
            raise KeyError("level")

        monkeypatch.setattr(cli, "run_import", run_import)
        with pytest.raises(KeyError):
            _FUZZ_IMPORT(fuzz_dir)


def _fresh_python(*args):
    """Run a fresh interpreter on ``args``, importing mixsym from this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mixsym.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def test_python_m_mixsym_is_main(capsys):
    """``python -m mixsym`` gives main's exit code and stdout, and exit 2
    on a bad argument."""
    argv = ["verify", "--suite", "rank", "--levels", "11"]
    run = _fresh_python("-m", "mixsym", *argv)
    code, out, _ = _run(capsys, argv)
    assert run.returncode == code == 0, run.stderr
    assert run.stdout.decode() == out
    run = _fresh_python("-m", "mixsym", "verify", "--suite", "nope")
    assert run.returncode == 2, run.stderr


def test_cli_import_loads_no_other_third_party_package():
    """The package runs on the standard library alone.

    A fresh interpreter imports ``mixsym.cli``; every top-level module that
    this import adds must be in the standard library or be ``mixsym``.
    """
    code = ("import sys; before = set(sys.modules); import mixsym.cli; "
            "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(*sorted(added - set(sys.stdlib_module_names)))")
    run = _fresh_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [b"mixsym"], run.stdout


def test_eis_suite_runs_without_mpmath():
    """With mpmath made unimportable, the eis suite exits 0 and its stdout
    is byte-identical to the pinned report."""
    argv = ("verify", "--suite", "eis", "--pn", "27,49,81,121,125,169")
    code = ("import sys; sys.modules['mpmath'] = None; "
            "from mixsym.cli import main; "
            f"sys.exit(main({list(argv)!r}))")
    run = _fresh_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == REPORT_DIGESTS[argv]
