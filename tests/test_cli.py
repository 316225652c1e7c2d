"""CLI subcommands, exit codes, flag placement, report files."""

import hashlib
import importlib.metadata
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from radlab import cli
from radlab.catalog import CORPUS, CVL_LISTS, data_dir, symmetric, save_group_file
from radlab.group import PermutationGroup
from radlab.structure import solvable_radical
from radlab.verify import STATUS_COUNTEREXAMPLE, STATUS_VERIFIED, VerificationReport


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_order_catalog_name(capsys):
    code, out, _ = run(["order", "S4"], capsys)
    assert code == 0
    assert "order 24" in out and "degree 4" in out


def test_order_group_file(tmp_path, capsys):
    p = tmp_path / "s4.json"
    save_group_file(p, symmetric(4))
    code, out, _ = run(["order", str(p)], capsys)
    assert code == 0 and "order 24" in out


def test_order_malformed_file(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    code, _, err = run(["order", str(p)], capsys)
    assert code == 2 and err


@pytest.mark.parametrize("data, field", [
    ({"degree": 5}, "generators"),
    ({"generators": ["(1 2)"]}, "degree"),
    ({"degree": "5", "generators": ["(1 2)"]}, "degree"),
    ({"degree": 0, "generators": []}, "degree"),
    ({"degree": True, "generators": []}, "degree"),
    ({"degree": 5, "generators": "(1 2)"}, "generators"),
    ({"degree": 5, "generators": ["(1 2)", 3]}, "generators"),
    ({"degree": 5, "generators": ["(1 9)"]}, "generators"),
    ({"degree": 5, "generators": ["(1 2)"], "socle_generators": [1]}, "socle_generators"),
    ({"degree": 5, "generators": ["(1 2)"], "socle_generators": [-1]}, "socle_generators"),
    ({"degree": 5, "generators": ["(1 2)"], "socle_generators": 0}, "socle_generators"),
    ({"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"], "expected_order": "24"}, "expected_order"),
    ({"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"], "expected_order": 24.0}, "expected_order"),
    ({"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"], "expected_order": 0}, "expected_order"),
    ({"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"], "expected_order": True}, "expected_order"),
])
def test_order_group_file_schema(tmp_path, capsys, data, field):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, out, err = run(["order", str(p)], capsys)
    assert code == 2 and not out
    assert str(p) in err and repr(field) in err
    assert "Traceback" not in err


def test_group_file_schema_error_process_exit(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"degree": 5}')
    proc = subprocess.run(
        [sys.executable, "-m", "radlab", "order", str(p)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "'generators'" in proc.stderr and "Traceback" not in proc.stderr


def test_order_unknown_name(capsys):
    code, _, err = run(["order", "M24"], capsys)
    assert code == 2
    assert "M24" in err


def test_usage_errors(capsys):
    assert run(["order"], capsys)[0] == 2  # missing argument
    assert run(["frobnicate", "S4"], capsys)[0] == 2
    assert run(["--help"], capsys)[0] == 0
    assert run(["verify", "equivalence"], capsys)[0] == 2  # name required
    assert run(["verify", "cvl"], capsys)[0] == 2


def test_radical_oracle(capsys):
    code, out, _ = run(["radical", "A5"], capsys)
    assert code == 0 and "radical order 1" in out
    code, out, _ = run(["radical", "S4"], capsys)
    assert code == 0 and "radical order 24" in out


def test_radical_criterion_with_report(tmp_path, capsys):
    f = tmp_path / "r.json"
    code, out, _ = run(["radical", "A5", "--method", "combined", "--out", str(f)], capsys)
    assert code == 0 and "radical order 1" in out
    d = json.loads(f.read_text())
    assert d["method"] == "combined" and d["group"] == "A5"
    assert len(d["checks"]) == 5


# every --method that radical accepts; two-element is refused below
RADICAL_METHODS = ("oracle", "b1", "odd-p", "combined")


def test_radical_methods_match_oracle(corpus, capsys):
    for name, g in corpus.items():
        expect = f"radical order {solvable_radical(g).order} "
        for method in RADICAL_METHODS:
            code, out, _ = run(["radical", name, "--method", method], capsys)
            assert code == 0 and expect in out, (name, method, out)


# SHA-256 of the report files of every corpus group, concatenated in catalog
# order, as written before the per-class loop moved into verify.py
RADICAL_REPORT_DIGESTS = {
    "b1": "c97394ccad707b9e8ac6e41d24aad4d8c114243e5a4e40fadf13c9212fe80af0",
    "odd-p": "269fa380a6774b3e3116b2ef87bce2b62e3b717268a09b1d5da93af139488e55",
    "combined": "f7ab37d876847db95373c27e4358adec49e865139c182b796b75adf1cfde4058",
}


def test_radical_report_bytes_as_pinned(tmp_path, capsys):
    for method, digest in RADICAL_REPORT_DIGESTS.items():
        h = hashlib.sha256()
        for name in CORPUS:
            f = tmp_path / f"{name}.{method}.json"
            code, _, _ = run(["radical", name, "--method", method, "--out", str(f)], capsys)
            assert code == 0, (name, method)
            h.update(f.read_bytes())
        assert h.hexdigest() == digest, method


def test_radical_refuses_two_element(capsys):
    # the criterion decides only x of odd order, so the 2-elements
    # of R(S3 x A5) = S3 would never enter the normal closure
    code, out, err = run(["radical", "S3xA5", "--method", "two-element"], capsys)
    assert code == 2 and not out
    assert len(err.strip().splitlines()) == 1 and "odd order" in err


def test_out_refused_where_no_report_is_written(tmp_path, capsys, monkeypatch):
    # order and radical --method oracle write no report, so --out is refused
    # with exit 2 before the group is even loaded
    def no_work(target):
        raise AssertionError(f"{target} was loaded")

    monkeypatch.setattr(cli, "_load_target", no_work)
    f = tmp_path / "r.json"
    for argv in (
        ["order", "S4", "--out", str(f)],
        ["radical", "S4", "--out", str(f)],
        ["radical", "S4", "--method", "oracle", "--out", str(f)],
        ["--out", str(f), "order", "S4"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and not out, argv
        assert len(err.strip().splitlines()) == 1 and "--out" in err, argv
        assert not f.exists(), argv


def test_out_refused_process_exit(tmp_path):
    f = tmp_path / "r.json"
    for cmd in ("order", "radical"):
        r = subprocess.run([sys.executable, "-m", "radlab", cmd, "S4", "--out", str(f)],
                           capture_output=True, text=True)
        assert r.returncode == 2 and not r.stdout and "Traceback" not in r.stderr, cmd
        assert not f.exists(), cmd


@pytest.mark.parametrize("argv, message", [
    # order reads neither cap, and the radical oracle reads no pair cap
    (["order", "S4", "--cap", "10"], "order reads no --cap"),
    (["order", "S4", "--pair-cap", "5"], "order reads no --pair-cap"),
    (["--cap", "10", "order", "S4"], "order reads no --cap"),
    (["radical", "S4", "--pair-cap", "5"], "oracle reads no --pair-cap"),
    (["radical", "S4", "--method", "oracle", "--pair-cap", "5"], "oracle reads no --pair-cap"),
    # a negative cap, wherever it is read
    (["member", "S4", "(1 2 3)", "--pair-cap", "-1"], "must be 0 or more"),
    (["member", "C3", "(1 2 3)", "--pair-cap", "-1"], "must be 0 or more"),
    (["verify", "equivalence", "S4", "--pair-cap", "-5"], "must be 0 or more"),
    (["verify", "equivalence", "S4", "--cap", "-1"], "must be 0 or more"),
    (["order", "S5", "--cap", "-1"], "must be 0 or more"),
    (["--pair-cap", "-1", "member", "S4", "(1 2)"], "must be 0 or more"),
])
def test_cap_flag_refused_before_any_work(argv, message, capsys, monkeypatch):
    def no_work(target):
        raise AssertionError(f"{target} was loaded")

    monkeypatch.setattr(cli, "_load_target", no_work)
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    last = err.strip().splitlines()[-1]
    assert "error:" in last and message in last, err


def test_cap_flags_still_read_where_they_apply(capsys):
    # the oracle enumerates classes under --cap, and a criterion method runs
    # under --pair-cap: S5 needs more than 3 pairs, and more than 10 elements
    assert run(["radical", "S5", "--cap", "10"], capsys)[0] == 3
    assert run(["radical", "S5", "--method", "b1", "--pair-cap", "3"], capsys)[0] == 3
    assert run(["radical", "S4", "--method", "b1", "--pair-cap", "0"], capsys)[0] == 3


def test_method_spellings_are_the_library_strings(capsys):
    # one spelling per method: the former aliases are unrecognized choices
    for alias in ("oddp", "two"):
        code, out, err = run(["radical", "S4", "--method", alias], capsys)
        assert code == 2 and not out and "invalid choice" in err
        code, out, err = run(["member", "S4", "(1 2 3)", "--method", alias], capsys)
        assert code == 2 and not out and "invalid choice" in err


def test_member_positive(capsys):
    code, out, _ = run(["member", "S4", "(1 2)"], capsys)
    assert code == 0
    assert "is in the solvable radical" in out


def test_member_negative_prints_witness(capsys):
    code, out, _ = run(["member", "A5", "(1 2 3 4 5)", "--method", "b1"], capsys)
    assert code == 0
    assert "NOT in the solvable radical" in out
    assert "pairs tested" in out
    assert "witness:" in out and "|<x,y>|" in out


def test_member_method_precondition(capsys):
    # two-element demands an element of odd order
    code, _, err = run(["member", "A5", "(1 2)(3 4)", "--method", "two-element"], capsys)
    assert code == 2 and err


def test_member_bad_cycles(capsys):
    code, _, err = run(["member", "S4", "(1 99)"], capsys)
    assert code == 2 and err


def test_member_pair_cap_exhaustion(capsys):
    # confirming membership in a solvable group has to exhaust every pair
    code, _, err = run(["member", "S4", "(1 2)", "--method", "b1", "--pair-cap", "1"], capsys)
    assert code == 3
    assert "cap exceeded" in err
    # a witness found by the probe counts its pairs against the cap too
    code, _, err = run(["member", "S5", "(2 3)(4 5)", "--method", "b1", "--pair-cap", "1"], capsys)
    assert code == 3
    assert "cap exceeded" in err


def test_member_lists_the_class_only_for_a_report_within_the_cap(tmp_path, capsys, monkeypatch):
    # the probe finds a witness for the 7-cycle at once, so only the report's
    # class size would need the class of x listed (720 elements)
    argv = ["member", "S7", "(1 2 3 4 5 6 7)", "--cap", "10"]
    f = tmp_path / "m.json"
    listed = []
    class_tables = PermutationGroup.conjugacy_class_tables

    def recording(self, t):
        listed.append(t)
        return class_tables(self, t)

    monkeypatch.setattr(PermutationGroup, "conjugacy_class_tables", recording)
    code, out, _ = run(argv, capsys)
    assert code == 0 and "NOT in the solvable radical" in out and not listed
    code, out, err = run(argv + ["--out", str(f)], capsys)
    assert code == 3 and not out and "cap exceeded" in err and "5040" in err
    assert not listed and not f.exists()
    code, _, _ = run(["member", "S7", "(1 2 3 4 5 6 7)", "--cap", "5040", "--out", str(f)], capsys)
    assert code == 0 and len(listed) == 1
    assert json.loads(f.read_text())["checks"][0]["class_size"] == 720


def test_verify_equivalence_report(tmp_path, capsys):
    f = tmp_path / "eq.json"
    code, out, _ = run(["verify", "equivalence", "S4", "--out", str(f)], capsys)
    assert code == 0
    assert "verified" in out
    d = json.loads(f.read_text())
    assert d["group"] == "S4" and d["status"] == "verified"
    assert set(d) == {"group", "method", "status", "checks"}


def test_verify_cvl_out_of_scale(capsys):
    code, out, _ = run(["verify", "cvl", "G2_3"], capsys)
    assert code == 3
    assert "out-of-desk-scale" in out


def test_verify_cvl_cap_gate(tmp_path, capsys):
    code, out, _ = run(["verify", "cvl", "PSL3_4", "--list", "CVL3"], capsys)
    assert code == 3 and "out-of-desk-scale" in out
    f = tmp_path / "psl34.json"
    code, out, _ = run(
        ["verify", "cvl", "PSL3_4", "--list", "CVL3", "--cap", "260000", "--out", str(f)],
        capsys,
    )
    assert code == 0 and "verified" in out
    d = json.loads(f.read_text())
    assert d["status"] == "verified" and d["checks"]


def test_verify_cvl_all_lists_for_group(tmp_path, capsys):
    f = tmp_path / "psu33.json"
    code, out, _ = run(["verify", "cvl", "PSU3_3", "--out", str(f)], capsys)
    assert code == 0
    reports = json.loads(f.read_text())
    assert [r["cvl"] for r in reports] == ["CVL1", "CVL2", "CVL3"]
    assert all(r["group"] == "PSU3_3" for r in reports)
    assert all(r["status"] == "verified" for r in reports)


def test_verify_cvl_not_on_any_list(capsys):
    code, _, err = run(["verify", "cvl", "A7"], capsys)
    assert code == 2 and "not on any list" in err


def test_flag_position_is_free(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["--out", str(f1), "verify", "equivalence", "PSL2_7"], capsys)[0] == 0
    assert run(["verify", "equivalence", "PSL2_7", "--out", str(f2)], capsys)[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_workers_flag_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "w.json"
    code, out, _ = run(["verify", "equivalence", "PSL2_7", "--workers", "4", "--out", str(f)],
                       capsys)
    assert code == 2 and not out
    assert not f.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "corpus", "S5"],
    ["verify", "corpus", "--list", "CVL1"],
    ["verify", "equivalence", "PSL2_7", "--list", "CVL1"],
])
def test_verify_operand_it_would_not_read_is_refused(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for fn in ("_load_target", "verify_corpus", "verify_equivalence"):
        monkeypatch.setattr(cli, fn, no_work)
    f = tmp_path / "r.json"
    code, out, err = run(argv + ["--out", str(f)], capsys)
    assert code == 2 and not out
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert not f.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "equivalence"], "needs a group file or name"),
    (["verify", "cvl"], "needs a group name"),
    (["verify", "cvl", "A7"], "'A7' is not on any list"),
])
def test_verify_usage_error_is_one_error_line(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:"), err
    assert message in err


@pytest.mark.parametrize("which", ["runnable", "all"])
def test_verify_cvl_runnable_and_all_honour_list(which, capsys, monkeypatch):
    ran = []

    def record(socle, list_name, **kwargs):
        ran.append((list_name, socle))
        return VerificationReport(socle, "cvl", list_name, STATUS_VERIFIED)

    monkeypatch.setattr(cli, "verify_cvl", record)
    code, _, _ = run(["verify", "cvl", which, "--list", "CVL1", "--cap", "260000"], capsys)
    assert code == 0
    assert ran == [("CVL1", e.socle) for e in CVL_LISTS["CVL1"].entries
                   if which == "all" or e.fits(260_000)]


@pytest.mark.parametrize("argv, lists", [
    (["--cap", "0"], "CVL1, CVL2, CVL3"),
    (["--list", "CVL1", "--cap", "1000"], "CVL1"),
], ids=["every-list-cap-0", "CVL1-cap-1000"])
def test_verify_cvl_runnable_that_runs_nothing_is_capped(argv, lists, tmp_path, capsys):
    f = tmp_path / "r.json"
    code, out, err = run(["verify", "cvl", "runnable", *argv, "--out", str(f)], capsys)
    assert code == 3 and not out
    assert err.splitlines() == [f"cap exceeded: no runnable member of {lists} fits "
                                f"enumeration cap {argv[-1]}"]
    assert not f.exists()
    # verify cvl all at the same cap reports its members out of scale
    assert run(["verify", "cvl", "all", *argv], capsys)[0] == 3


def test_exit_code_mapping():
    ok = VerificationReport("X", "cvl", "CVL1", STATUS_VERIFIED)
    bad = VerificationReport("X", "cvl", "CVL1", STATUS_COUNTEREXAMPLE)
    assert cli._exit_for([ok]) == 0
    assert cli._exit_for([ok, bad]) == 1  # counterexample dominates


def test_data_dir_override(tmp_path, monkeypatch, capsys):
    shutil.copy(data_dir() / "PSU3_3.json", tmp_path / "PSU3_3.json")
    monkeypatch.setenv("RADLAB_DATA", str(tmp_path))
    code, out, _ = run(["order", "PSU3_3"], capsys)
    assert code == 0 and "order 6048" in out
    code, _, err = run(["order", "Sz_8"], capsys)
    assert code == 2 and err


def _console_script(name):
    """The declared ``name`` console script as an ``EntryPoint``.

    Read from the installed distribution's metadata when radlab is
    installed, else from ``[project.scripts]`` in the checkout's
    pyproject.toml, the declaration pip turns into the script file.
    """
    try:
        eps = importlib.metadata.distribution("radlab").entry_points
    except importlib.metadata.PackageNotFoundError:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            value = tomllib.load(f)["project"]["scripts"][name]
        return importlib.metadata.EntryPoint(name, value, "console_scripts")
    (ep,) = [ep for ep in eps if ep.group == "console_scripts" and ep.name == name]
    return ep


def test_import_stays_lean():
    # each of these would cost every CLI call and bench repetition its import
    code = ("import sys, radlab, radlab.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'multiprocessing') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout.strip() == "[]", r.stdout + r.stderr


def test_console_entry_points():
    r = subprocess.run([sys.executable, "-m", "radlab", "order", "A5"],
                       capture_output=True, text=True)
    assert r.returncode == 0 and "order 60" in r.stdout

    ep = _console_script("radlab")
    main = ep.load()
    assert callable(main)
    assert main is cli.main  # the callable that `python -m radlab` runs
    # the body of the wrapper script pip generates for the declaration
    wrapper = ("import sys\n"
               f"from {ep.module} import {ep.attr.split('.')[0]}\n"
               f"sys.argv[0] = {ep.name!r}\n"
               f"sys.exit({ep.attr}())\n")
    r = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0 and "order" in r.stdout
    r = subprocess.run([sys.executable, "-c", wrapper, "frobnicate"],
                       capture_output=True, text=True)
    assert r.returncode == 2  # main's return value is the exit code

    exe = shutil.which("radlab")
    if exe is not None:
        r = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert r.returncode == 0 and "order" in r.stdout
