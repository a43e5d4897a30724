"""Command-line surface: verbs, exit codes, and file outputs."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from regopen import lattice, run_suite, sierpinski, suites
from regopen.cli import main
from regopen.enumeration import EnumerationSpec, enumerate_topologies
from regopen.errors import VerificationError
from regopen.lattice import RegularOpenLattice, regular_open_lattice
from regopen.serialize import canonical_json
from regopen.topology import Topology

# sha256 of `regopen verify --suite all --n 4 --json`: the canonical reports
# must stay byte-identical whatever the verifier does to get them faster.
N4_REPORT_SHA256 = "7a1403676616ba4ed36c63e1fab144208d326f4b3e1b40606843cd18d5f73e86"
# sha256 of `regopen verify --suite all --n 5 --allow-n5 --seed 1 --json`,
# every instance of every suite over the 7331 spaces with n <= 5.
N5_REPORT_SHA256 = "6486fd84a6b16b09fb7a4bd6beb88978be3530f2d78a3e9f53a6c17a8dc5b3d3"
# sha256 of `regopen counterexamples --n 4 --json`, the pinned gallery.
N4_GALLERY_SHA256 = "5882ab1fca64a2e4f2561cc4987db2ce66663cde257bcdef2a0f280724638aa1"
# sha256 of the stdout of `regopen counterexamples --n 3`.
N3_GALLERY_STDOUT_SHA256 = "0c6a344408109cc84ca9ff0182ca5e9c35a050641f659272992454df52551845"


def test_enumerate_prints_count(capsys):
    assert main(["enumerate", "--n", "3"]) == 0
    assert "29 topologies" in capsys.readouterr().out


def test_enumerate_classes_with_json(tmp_path, capsys):
    out = tmp_path / "spaces.json"
    assert main(["enumerate", "--n", "2", "--mode", "up-to-homeomorphism", "--json", str(out)]) == 0
    assert "3 topologies" in capsys.readouterr().out
    spaces = json.loads(out.read_text())
    assert len(spaces) == 3 and all("opens" in s for s in spaces)


def test_enumerate_guard_exit_code(capsys):
    assert main(["enumerate", "--n", "5"]) == 2
    assert "allow_n5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate --n 6",
        "counterexamples --n 5",
        "verify --suite ideals --n 9",
        "verify --suite metric --n 6",
        "verify --suite cofinite --n 5",
    ],
)
def test_size_guards_are_usage_errors(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_enumerate_without_points_is_usage_error(n, capsys):
    assert main(["enumerate", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ground set must have at least one point\n"


def test_enumerate_negative_limit_is_usage_error(capsys):
    assert main(["enumerate", "--n", "3", "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "limit must not be negative" in captured.err
    assert main(["enumerate", "--n", "3", "--limit", "0"]) == 0
    assert capsys.readouterr().out == "0 topologies on 3 points (all)\n"


def test_verify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "ux0", "--n", "2", "--json", str(out)]) == 0
    assert "ux0: pass" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["passed"] is True and report["suite"] == "ux0"




def _families(bound: int) -> set:
    """The distinct regular-open families among the lone builds of every
    labeled space with at most ``bound`` points."""
    return {
        regular_open_lattice(t).payload_masks
        for n in range(1, bound + 1)
        for t in enumerate_topologies(EnumerationSpec(n))
    }


def _counting_lattices(monkeypatch) -> list:
    """Wrap the context's making of a lattice (shared with its family's
    record or built); the list gains each (space, lattice) it gives."""
    given = []
    make = suites.SpaceContext._family_lattice

    def counting(ctx, t):
        lat = make(ctx, t)
        given.append((t, lat))
        return lat

    monkeypatch.setattr(suites.SpaceContext, "_family_lattice", counting)
    return given


def _counting_builds(monkeypatch) -> list:
    """Wrap ``RegularOpenLattice.__init__`` as (lat, topology), as the
    benchmark's tracer does to count ``lattice.builds``; the list gains the
    space of each full build."""
    built = []
    init = RegularOpenLattice.__init__

    def counting_init(lat, topology):
        built.append(topology)
        init(lat, topology)

    monkeypatch.setattr(RegularOpenLattice, "__init__", counting_init)
    return built


def test_verify_all_enumerates_once_and_builds_one_lattice_per_space(monkeypatch, capsys):
    # every space gets its own lattice; only the first of each regular-open
    # family gets a full build, and each goes through the constructor, where
    # the benchmark's build span sees it
    sizes = []

    def counting_enumeration(spec):
        sizes.append(spec.n)
        return enumerate_topologies(spec)

    monkeypatch.setattr(suites, "enumerate_topologies", counting_enumeration)
    built = _counting_builds(monkeypatch)
    given = _counting_lattices(monkeypatch)
    assert main(["verify", "--suite", "all", "--n", "3"]) == 0
    assert sizes == [1, 2, 3]
    spaces = [t for n in (1, 2, 3) for t in enumerate_topologies(EnumerationSpec(n))]
    lattices = {t: lat for t, lat in given if t in spaces}
    assert len(lattices) == len(spaces) == 34
    assert all(lat.topology is t for t, lat in given)
    assert len(built) == len(set(built)) == len(_families(3)) == 11
    assert {lattices[t].payload_masks for t in built} == _families(3)


def _count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` wherever a regopen module holds it; the list grows by one per call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "regopen" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


@pytest.fixture(scope="module")
def n4_verify_all(tmp_path_factory):
    """One `verify --suite all --n 4 --json` run, counting lattice builds and
    law checks; the tests below read its report, output and counts."""
    out = tmp_path_factory.mktemp("n4") / "report.json"
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()) as stdout:
        builds = _counting_builds(mp)
        given = _counting_lattices(mp)
        boolean = _count_calls(mp, lattice.check_boolean_algebra)
        distributive = _count_calls(mp, lattice.check_distributive)
        inf_sup = _count_calls(mp, lattice.check_inf_sup)
        tables = _count_calls(mp, lattice.check_lattice_tables)
        code = main(["verify", "--suite", "all", "--n", "4", "--json", str(out)])
    return SimpleNamespace(
        code=code,
        report=out.read_bytes(),
        lines=stdout.getvalue().splitlines(),
        built=list(builds),
        counts=(len(builds), len(boolean), len(distributive)),
        spaces_given_lattices=len({t for t, lat in given if lat.topology is t}),
        inf_sup_scans=len(inf_sup),
        table_scans=len(tables),
    )


def test_verify_all_n4_report_is_pinned(n4_verify_all):
    assert n4_verify_all.code == 0
    assert hashlib.sha256(n4_verify_all.report).hexdigest() == N4_REPORT_SHA256
    lines = n4_verify_all.lines
    assert [line.split(":")[0] for line in lines] == sorted(suites.SUITES)
    assert all(": pass [" in line for line in lines)


def test_verify_all_n5_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "all", "--n", "5", "--allow-n5", "--seed", "1", "--json", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == N5_REPORT_SHA256
    instances = {r["suite"]: r["instances"] for r in json.loads(out.read_text())}
    assert instances == {
        "boolean": 7331,
        "cofinite": 2,
        "denso": 638280,
        "ideals": 9,
        "metric": 1,
        "recovery": 3257,
        "regularity": 228074,
        "rlattice": 7331,
        "stone": 7336,
        "uvw": 89183,
        "ux0": 76513,
    }


def test_verify_all_checks_each_law_once_per_lattice(n4_verify_all):
    # one full build, through the constructor that the benchmark's build
    # span wraps, and one Boolean test per regular-open family, while each
    # of the 389 spaces gets its lattice; the O(m^3) distributivity scan is
    # not in verify
    assert n4_verify_all.code == 0
    assert n4_verify_all.counts == (len(_families(4)), 60, 0) == (60, 60, 0)
    assert {regular_open_lattice(t).payload_masks for t in n4_verify_all.built} == _families(4)
    assert n4_verify_all.spaces_given_lattices == 389


def test_verify_all_scans_inf_and_sup_once_per_lattice(n4_verify_all):
    # the Boolean check inside each full build; the boolean suite does not
    # repeat it, nor does a space that shares its family's record
    assert n4_verify_all.code == 0
    assert n4_verify_all.inf_sup_scans == 60


def test_verify_all_runs_no_table_law_scan(n4_verify_all):
    # the O(m^3) table laws serve any FiniteLattice; the atom-map test needs none
    assert n4_verify_all.code == 0
    assert n4_verify_all.table_scans == 0


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_verify_bound_below_one_is_usage_error(bound, capsys):
    assert main(["verify", "--suite", "ux0", "--n", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: ground set must have at least one point\n"


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_counterexamples_bound_below_one_is_usage_error(bound, capsys, monkeypatch):
    monkeypatch.setattr(suites, "canonical_classes", None)  # refused before enumerating
    assert main(["counterexamples", "--n", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: ground set must have at least one point\n"


def test_verify_sample_is_usage_error(capsys):
    # every run checks every instance: there is no sampled mode
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "boolean", "--n", "2", "--sample", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sample 5" in capsys.readouterr().err


def test_verify_report_does_not_read_the_seed(tmp_path, capsys):
    # --seed is still accepted, and no suite reads it
    outs = [tmp_path / "seed1.json", tmp_path / "seed9.json"]
    for seed, out in zip(("1", "9"), outs):
        assert main(["verify", "--suite", "all", "--n", "2", "--seed", seed, "--json", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _assert_checked_nothing_fails(suite, replacement, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(suites.SUITES, suite, replacement)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--n", "2", "--json", str(out)]) == 1
    assert f"{suite}: FAIL (no instances checked) [0 instances" in capsys.readouterr().out
    assert out.read_text() == (
        f'{{"bound":2,"failures":[],"instances":0,"passed":false,"schema":1,"suite":"{suite}"}}\n'
    )


def _never_called(ctx, group):
    pytest.fail("a group without instances was checked")


def test_verify_that_checked_nothing_fails(monkeypatch, tmp_path, capsys):
    # a suite of groups that need no space, which yields none
    nothing = suites.Suite(rest=lambda ctx, bound: iter(()))
    _assert_checked_nothing_fails("boolean", nothing, monkeypatch, tmp_path, capsys)


def test_verify_denso_that_checked_nothing_fails(monkeypatch, tmp_path, capsys):
    # a suite checked in groups of many instances per space, each group empty
    empty = suites.Suite(lambda ctx, t: suites.Group({"space": t}, ("dense", "open"), [], _never_called))
    _assert_checked_nothing_fails("denso", empty, monkeypatch, tmp_path, capsys)


def test_verify_law_failure_is_a_suite_failure_not_a_usage_error(monkeypatch, tmp_path, capsys):
    make = suites.SpaceContext._family_lattice

    def build(ctx, t):
        if t == sierpinski():
            raise VerificationError("planted law failure")
        return make(ctx, t)

    monkeypatch.setattr(suites.SpaceContext, "_family_lattice", build)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--n", "2", "--json", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(suites.SUITES)
    failing = [r["suite"] for r in json.loads(out.read_text()) if not r["passed"]]
    assert failing == ["boolean", "rlattice", "stone", "ux0"]


def test_verify_lattice_operation_outside_regular_opens_fails(monkeypatch, capsys):
    # the reg table the lattice construction reads drops point two
    tables = Topology.operator_tables

    def drops_point_two(t):
        cl, interior, reg = tables(t)
        if t.n == 3:
            reg = [r & ~0b100 if r != t.full_mask else r for r in reg]
        return cl, interior, reg

    monkeypatch.setattr(Topology, "operator_tables", drops_point_two)
    assert main(["verify", "--suite", "rlattice", "--n", "3"]) == 1
    assert capsys.readouterr().out.startswith("rlattice: FAIL (")


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus", "--n", "2"])
    assert exc.value.code == 2


def test_counterexamples_json(tmp_path, capsys):
    out = tmp_path / "gallery.json"
    assert main(["counterexamples", "--n", "2", "--json", str(out)]) == 0
    gallery = json.loads(out.read_text())
    assert gallery and all("well_inside_1" in p for p in gallery)


def test_counterexamples_n4_gallery_is_pinned(tmp_path, capsys):
    out = tmp_path / "gallery.json"
    assert main(["counterexamples", "--n", "4", "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == N4_GALLERY_SHA256
    assert len(json.loads(out.read_text())) == 394


def test_counterexamples_n3_stdout_is_pinned(capsys):
    assert main(["counterexamples", "--n", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "34 R-isomorphic non-homeomorphic pairs up to n = 3" and len(lines) == 35
    assert lines[-1] == (
        "  |R|=4  Topology(n=3, opens=[{},{0},{1},{0,1},{0,1,2}])  ~  "
        "Topology(n=3, opens=[{},{0},{1},{0,1},{0,2},{0,1,2}])  "
        "[well-inside DIFFERENT under reported iso]"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == N3_GALLERY_STDOUT_SHA256


def test_closed_stdout_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "regopen.cli", "counterexamples", "--n", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert b"Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    ["enumerate --n 3 --json", "verify --suite boolean --n 2 --json", "stone x3 --dot"],
    ids=["enumerate", "verify", "stone-dot"],
)
def test_unwritable_output_path_is_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out"
    assert main(argv.split() + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(path) in err


def test_unwritable_output_path_is_refused_before_the_work(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert main(["verify", "--suite", "ideals", "--n", "3", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err


@pytest.mark.parametrize(
    "argv",
    ["verify --suite all --n 9 --json", "stone nofile --json", "enumerate --n 0 --json"],
    ids=["verify-refused", "stone-bad-space", "enumerate-refused"],
)
def test_refused_run_leaves_output_paths_as_they_were(argv, tmp_path, capsys):
    # an existing file keeps its bytes, and a new path is not left behind empty
    keep = tmp_path / "keep.json"
    keep.write_bytes(b'{"kept": "an earlier report"}\n')
    fresh = tmp_path / "fresh.json"
    for path in (keep, fresh):
        assert main(argv.split() + [str(path)]) == 2
    assert keep.read_bytes() == b'{"kept": "an earlier report"}\n'
    assert not fresh.exists()
    assert capsys.readouterr().out == ""


def test_finished_run_replaces_a_longer_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("x" * 4096)
    assert main(["verify", "--suite", "boolean", "--n", "2", "--json", str(out)]) == 0
    assert out.read_text() == canonical_json(run_suite("boolean", 2).to_dict())


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "regopen", "enumerate", "--n", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "4 topologies on 2 points (all)\n"


def test_stone_verb(capsys):
    assert main(["stone", "x3"]) == 0
    assert "discrete on 2 points" in capsys.readouterr().out


def test_regular_lattice_verb_with_outputs(tmp_path, capsys):
    jpath = tmp_path / "lat.json"
    dpath = tmp_path / "lat.dot"
    assert main(["regular-lattice", "discrete:2", "--json", str(jpath), "--dot", str(dpath)]) == 0
    lat = json.loads(jpath.read_text())
    assert lat["elements"] == 4 and "gg" in lat
    assert dpath.read_text().startswith("digraph")


def test_regular_lattice_stdout_marks_bottom_top_and_atoms(capsys):
    assert main(["regular-lattice", "x3"]) == 0
    assert capsys.readouterr().out == (
        "space: n=3, 5 opens\n"
        "regular opens (4):\n"
        "  [0] []  (bottom)\n"
        "  [1] [0]  (atom)\n"
        "  [2] [1]  (atom)\n"
        "  [3] [0, 1, 2]  (top)\n"
        "well-inside pairs: [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3)]\n"
        "ge pairs:          [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]\n"
    )


def test_space_file_input(tmp_path, capsys):
    spath = tmp_path / "space.json"
    spath.write_text(json.dumps({"n": 2, "opens": [[], [0], [0, 1]]}))
    assert main(["regular-lattice", str(spath)]) == 0
    assert "regular opens (2)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "space",
    [
        '{"n": 3}',
        "not json",
        '{"n": true, "opens": [[], [0]]}',
        '{"n": 2, "opens": [[], [0, 1]], "labels": ["a"]}',
        '{"n": 2, "opens": [0, 3]}',
        "discrete:0",
        "indiscrete:0",
    ],
    ids=["no-opens", "not-json", "boolean-n", "short-labels", "opens-as-masks", "discrete-0", "indiscrete-0"],
)
def test_malformed_space_is_usage_error(space, tmp_path, capsys):
    token = space
    if not space.endswith("discrete:0"):
        path = tmp_path / "space.json"
        path.write_text(space)
        token = str(path)
    assert main(["regular-lattice", token]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _assert_unreadable_token_is_usage_error(token, capsys):
    assert main(["stone", token]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {token!r} is neither a fixture name "
        "(sierpinski, x3, discrete:N, indiscrete:N) nor a readable file\n"
    )


def test_bad_space_token(capsys):
    _assert_unreadable_token_is_usage_error("definitely-not-a-file", capsys)


def test_directory_as_space_is_usage_error(tmp_path, capsys):
    _assert_unreadable_token_is_usage_error(str(tmp_path), capsys)


@pytest.mark.parametrize(
    "token, message",
    [
        ("discrete:18", "a space has at most 16 points, not 18"),
        ("indiscrete:99999999999", "a space has at most 16 points, not 99999999999"),
        ("discrete:11", "a space has at most 1024 opens, not 2048"),
    ],
)
def test_oversized_space_is_refused_at_once(token, message, capsys):
    started = time.perf_counter()
    assert main(["stone", token]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cofinite_demo(capsys):
    assert main(["cofinite-demo"]) == 0
    out = capsys.readouterr().out
    assert "not regular" in out and "Cofinite({})" in out
