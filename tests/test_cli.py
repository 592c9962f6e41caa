import json
from fractions import Fraction as F

import pytest

from slmod import cli
from slmod.cli import (
    ReportDocument,
    UsageError,
    emit,
    main,
    parse_config,
    parse_rational_vector,
)
from slmod.graded_modules import GradedFamily
from slmod.reports import PASS, CheckResult, Detail


def test_parse_rational_vector():
    assert parse_rational_vector("1/2,0,0,0") == (F(1, 2), F(0), F(0), F(0))
    assert parse_rational_vector("-3,2/7") == (F(-3), F(2, 7))
    with pytest.raises(UsageError):
        parse_rational_vector("1/2,x")


def test_parse_config_check():
    cfg = parse_config(
        ["check", "--id", "composition", "--N", "4", "--p", "2",
         "--beta", "1/2,0,0,0", "--window", "2"]
    )
    assert cfg.command == "check"
    assert cfg.check_id == "composition"
    assert cfg.n == 4 and cfg.p == 2 and cfg.d == 2
    assert cfg.beta == (F(1, 2), 0, 0, 0)


def test_parse_config_rejects_bad_beta_length():
    with pytest.raises(UsageError):
        parse_config(["check", "--id", "composition", "--N", "4", "--beta", "1/2,0,0"])


def test_parse_config_rejects_odd_n():
    with pytest.raises(UsageError):
        parse_config(["check", "--id", "composition", "--N", "3", "--beta", "0,0,0"])


def test_check_runs_the_catalogue_odd_n_points(capsys):
    for check_id in ("classify-W", "unique-W", "TW", "TS"):
        assert parse_config(["check", "--id", check_id, "--N", "3", "--beta", "0,0,0"]).n == 3
    assert main(["check", "--id", "classify-W", "--N", "3", "--beta", "1/2,0,0"]) == 0
    assert "[PASS] classify-W N=3 beta=1/2,0,0 d=2" in capsys.readouterr().out
    # Hamiltonian-only ids still stop as usage errors
    assert main(["check", "--id", "homology", "--N", "3"]) == 2


def test_check_rejects_ignored_alpha_and_rbound(capsys):
    with pytest.raises(UsageError, match="--alpha"):
        parse_config(["check", "--id", "composition", "--N", "4", "--alpha", "1/2,0,0,0"])
    with pytest.raises(UsageError, match="--rbound"):
        parse_config(["check", "--id", "composition", "--N", "4", "--rbound", "2"])
    assert main(["check", "--id", "contraction-iso", "--N", "4", "--rbound", "0"]) == 2
    capsys.readouterr()
    cfg = parse_config(["check", "--id", "composition", "--N", "4",
                        "--alpha", "0,0,0,0", "--rbound", "1"])
    assert cfg.echo()["alpha"] == "0,0,0,0" and cfg.echo()["rbound"] == 1


@pytest.mark.parametrize("argv", [
    ["dims", "--family", "min", "--p", "1", "--rbound", "5", "--alpha", "1/2,0,0,0"],
    ["dims", "--family", "min", "--p", "1", "--rbound", "2"],
    ["closure", "--p", "1", "--seed-fiber", "0,0,0,0", "--alpha", "0,0,0,1"],
    ["homology", "--complex", "derham", "--p", "1", "--rbound", "0"],
    ["homology", "--complex", "derham", "--p", "1", "--alpha", "1/3,0,0,0"],
])
def test_commands_reject_the_flags_they_would_ignore(argv, capsys):
    assert main(argv + ["--window", "1"]) == 2
    assert "does not take" in capsys.readouterr().err


def test_fundamental_dims_rejects_another_n(capsys):
    with pytest.raises(UsageError, match="always sweeps N = 2, 4, 6"):
        parse_config(["check", "--id", "fundamental-dims", "--N", "8"])
    assert main(["check", "--id", "fundamental-dims", "--N", "6"]) == 2
    assert "always sweeps N = 2, 4, 6" in capsys.readouterr().err
    # the default N (given or not) runs the fixed sweep
    for argv in (["--N", "4"], []):
        assert main(["check", "--id", "fundamental-dims", *argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["params"] == {"Ns": "2,4,6"}


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("square-zero violated")

    monkeypatch.setattr(cli, "run_check", broken)
    assert main(["check", "--id", "contraction-iso", "--N", "4"]) == 3
    assert "internal error: square-zero violated" in capsys.readouterr().err


def test_check_rejects_p_when_its_grid_carries_none(capsys):
    assert main(["check", "--id", "contraction-iso", "--N", "4", "--p", "3"]) == 2
    assert "contraction-iso does not take --p" in capsys.readouterr().err
    assert main(["check", "--id", "composition", "--N", "2", "--p", "1", "--window", "1"]) == 0


def test_check_rejects_seed_and_samples_it_never_reads(capsys):
    assert main(["check", "--id", "contraction-iso", "--N", "4", "--seed", "7"]) == 2
    assert "contraction-iso does not take --seed" in capsys.readouterr().err
    assert main(["check", "--id", "cor-p0", "--N", "2", "--samples", "5", "--window", "1"]) == 2
    assert "cor-p0 does not take --samples" in capsys.readouterr().err
    with pytest.raises(UsageError, match="irreducible-min does not take --seed"):
        parse_config(["check", "--id", "irreducible-min", "--N", "2", "--seed", "7"])
    assert main(["check", "--id", "cor-p0", "--N", "2", "--seed", "7", "--window", "1"]) == 0
    capsys.readouterr()
    assert main(["check", "--id", "criterion-sym2", "--N", "2", "--seed", "7", "--samples", "3",
                 "--window", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["config"]["seed"], doc["config"]["samples"]) == (7, 3)


def test_containment_violation_exits_three(monkeypatch, capsys):
    from slmod import theorem_registry

    original = theorem_registry.build_family

    def broken(kind, p, spec, window, **kwargs):
        # an empty maximal family contains neither the Witt nor the intermediate one
        if kind is theorem_registry.FamilyKind.MAX:
            return GradedFamily(spec, window)
        return original(kind, p, spec, window, **kwargs)

    monkeypatch.setattr(theorem_registry, "build_family", broken)
    assert main(["check", "--id", "JH-quotient", "--N", "2"]) == 3
    assert "internal error: containment violated" in capsys.readouterr().err


def test_round_trip_through_the_echo():
    argv = ["dims", "--family", "min", "--N", "4", "--p", "2", "--beta", "1/2,0,0,0",
            "--window", "1", "--format", "json"]
    cfg = parse_config(argv)
    echo = cfg.echo()
    argv2 = ["dims", "--family", echo["family"], "--N", str(echo["N"]), "--p", str(echo["p"]),
             "--beta", echo["beta"], "--alpha", echo["alpha"],
             "--window", str(echo["window"]), "--format", echo["format"]]
    cfg2 = parse_config(argv2)
    assert cfg2.echo() == echo


def _small_doc():
    results = [
        CheckResult("demo", {"N": 2}, PASS,
                    [Detail((0, 0), 1, 1, PASS), Detail((0, 1), 2, 2, PASS)],
                    {"pass": 2, "fail": 0, "skipped": 0}),
    ]
    return ReportDocument("0.0-test", {"command": "check"}, results, "now").finalize()


def test_emit_json_schema():
    doc = _small_doc()
    payload = json.loads(emit(doc, "json").decode())
    assert set(payload) == {"version", "generated_at", "config", "results", "summary"}
    assert payload["summary"] == {"pass": 1, "fail": 0, "skipped": 0}
    result = payload["results"][0]
    assert set(result) == {"check_id", "params", "status", "counts", "details"}
    assert result["details"][0] == {"degree": [0, 0], "expected": 1, "actual": 1, "status": "PASS"}


def test_emit_csv_row_count():
    doc = _small_doc()
    lines = emit(doc, "csv").decode().strip().splitlines()
    assert len(lines) == 1 + sum(len(r.details) for r in doc.results)
    assert lines[0] == "check_id,degree,expected,actual,status"


def test_emit_empty_results():
    doc = ReportDocument("0.0-test", {}, [], "now").finalize()
    payload = json.loads(emit(doc, "json").decode())
    assert payload["summary"] == {"pass": 0, "fail": 0, "skipped": 0}


def test_main_exit_codes(capsys, tmp_path):
    assert main(["check", "--id", "contraction-iso", "--N", "4"]) == 0
    capsys.readouterr()
    assert main(["check", "--id", "contraction-iso", "--N", "3"]) == 2
    capsys.readouterr()
    out = tmp_path / "report.json"
    code = main(["frame", "--vector", "1,0,0,0", "--format", "json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["check_id"] == "frame"


def test_main_closure_and_dims_and_homology(capsys):
    assert main(["dims", "--family", "min", "--N", "2", "--p", "1",
                 "--beta", "1/2,0", "--window", "1"]) == 0
    capsys.readouterr()
    # closure is the one command that reads --rbound
    assert main(["closure", "--N", "2", "--p", "1", "--beta", "1/2,0", "--window", "1",
                 "--seed-fiber", "0,0", "--seed-index", "0", "--rbound", "2"]) == 0
    assert "rbound=2" in capsys.readouterr().out
    assert main(["homology", "--complex", "fsq", "--N", "2", "--p", "1",
                 "--beta", "1/2,0", "--window", "1"]) == 0
    capsys.readouterr()


def test_failing_check_exits_one(monkeypatch, capsys):
    from slmod import cli as cli_module
    from slmod.reports import FAIL

    def fake_run_check(check_id, **params):
        return CheckResult(check_id, {}, FAIL, [Detail(None, 1, 2, FAIL)],
                           {"pass": 0, "fail": 1, "skipped": 0})

    monkeypatch.setattr(cli_module, "run_check", fake_run_check)
    assert main(["check", "--id", "contraction-iso", "--N", "4"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("check_id,n,reason", [
    ("irreducible-min", 4, "empty interior"),
    ("uniqueness", 4, "empty interior"),
    ("main-classification", 4, "empty interior"),
    ("cor-p0", 4, "empty interior"),
    ("criterion-sym2", 2, "empty interior"),
    ("classify-W", 3, "empty interior"),
    ("unique-W", 3, "empty interior"),
    ("composition", 4, "no generic degree"),
    ("JH-quotient", 4, "no generic degree"),
])
def test_checks_refuse_a_window_without_evidence(check_id, n, reason, capsys):
    # at beta = 0 the d=0 window is the degenerate degree alone: no interior
    # degree for a probe and no generic degree for a family comparison
    assert main(["check", "--id", check_id, "--N", str(n), "--window", "0"]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("complex_id,violation", [
    ("fsq", "square-zero violated"),
    ("derham", "complex property violated"),
])
def test_broken_complex_maps_are_internal_errors(complex_id, violation, monkeypatch, capsys):
    from slmod import complexes

    original = complexes._map_matrix_scaled

    def injection(map_id, n, kq):
        # same shape as the true map, but f o f != 0 and ker(out) = 0
        shape = original(map_id, n, kq)
        return tuple(tuple(int(i == j) for j in range(len(shape[0]))) for i in range(len(shape)))

    monkeypatch.setattr(complexes, "_map_matrix_scaled", injection)
    assert main(["homology", "--complex", complex_id, "--p", "1", "--window", "1"]) == 3
    assert f"internal error: {violation}" in capsys.readouterr().err


@pytest.fixture
def cold_tables():
    """Empty the table and engine caches before and after, so that a test
    that plants a fault in ``EdgeTable`` builds its own and leaves none."""
    from slmod.graded_modules import edge_table
    from slmod.theorem_registry import probe_engine

    for cache in (edge_table, probe_engine):
        cache.cache_clear()
    yield
    for cache in (edge_table, probe_engine):
        cache.cache_clear()


def test_check_all_reports_a_raising_check_as_error_and_exits_three(monkeypatch, capsys,
                                                                     cold_tables):
    """A planted fault drops the box-mask column of every edge table's last
    generator.  The checks that read the table raise; each becomes an ERROR
    result carrying the exception, the checks that follow still run, and
    check-all exits 3 once the report is written.  ERROR is never counted as
    skipped."""
    from dataclasses import replace

    from slmod import graded_modules, theorem_registry

    init = graded_modules.EdgeTable.__init__

    def planted(self, *args):
        init(self, *args)
        self.inbox = self.inbox[:, :-1]

    monkeypatch.setattr(graded_modules.EdgeTable, "__init__", planted)
    # the N = 2 points of two checks that read no edge table around two that do
    small = {check_id: replace(spec, grid=tuple(g for g in spec.grid if g["N"] == 2))
             for check_id, spec in theorem_registry.CATALOGUE.items()
             if check_id in ("L3-span", "module-maps", "cor-p0", "homology")}
    monkeypatch.setattr(theorem_registry, "CATALOGUE", small)
    assert main(["check-all", "--format", "json"]) == 3
    out = capsys.readouterr()
    assert out.err.count("Traceback") == 4
    doc = json.loads(out.out)
    assert [(r["check_id"], r["status"]) for r in doc["results"]] == [
        ("L3-span", "PASS"), ("module-maps", "ERROR"), ("module-maps", "ERROR"),
        ("cor-p0", "ERROR"), ("cor-p0", "ERROR"), ("homology", "PASS"), ("homology", "PASS")]
    assert doc["summary"] == {"pass": 3, "fail": 0, "skipped": 0, "error": 4}
    error = doc["results"][1]
    assert error["params"] == {"N": 2, "beta": "0,0", "d": 2}
    assert error["details"] == [{
        "degree": None, "expected": "no exception", "status": "ERROR",
        "actual": "IndexError: index 7 is out of bounds for axis 1 with size 7"}]
    assert main(["check-all"]) == 3
    text = capsys.readouterr().out
    assert "[ERROR] module-maps" in text
    assert text.endswith("summary: pass=3 fail=0 skipped=0 error=4\n")
