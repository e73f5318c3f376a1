import hashlib
import math
import os
import subprocess
import sys
import types
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import ctxsd
from ctxsd import bounds, cli, config, harness, ncmodel, qtheory
from ctxsd.bounds import CELLS, NONCONTEXTUAL, QUANTUM
from ctxsd.errors import ContractError, DomainError
from ctxsd.harness import (
    FIGURE_IDS,
    FigureJob,
    Substitution,
    SweepSpec,
    Target,
    emit_figure,
    run_sweep,
    table_cmd,
    verify_all,
)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
    return header, rows


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_mesd_guessing_monotone():
    spec = SweepSpec(
        variable="c",
        start=0.0,
        stop=1.0,
        points=11,
        fixed={},
        targets=(
            Target("MESD", "P_g", QUANTUM),
            Target("MESD", "P_g", NONCONTEXTUAL),
        ),
    )
    result = run_sweep(spec)
    assert result.header == ("c", "MESD_Pg_Q", "MESD_Pg_NC")
    assert len(result.rows) == 11
    for col in (1, 2):
        values = [row[col] for row in result.rows]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_sweep_single_point():
    spec = SweepSpec(
        variable="c",
        start=0.5,
        stop=0.5,
        points=1,
        fixed={},
        targets=(Target("MESD", "P_g", QUANTUM),),
    )
    result = run_sweep(spec)
    assert len(result.rows) == 1
    assert result.rows[0] == (0.5, pytest.approx(0.8535533905932738))


def test_sweep_confidence_columns_cross_at_midpoint():
    spec = SweepSpec(
        variable="omega",
        start=0.0,
        stop=1.0,
        points=21,
        fixed={"c": 0.5},
        targets=(
            Target("MESD", "C", NONCONTEXTUAL, outcome=1),
            Target("MESD", "C", NONCONTEXTUAL, outcome=2),
        ),
    )
    result = run_sweep(spec)
    assert result.header == ("omega", "MESD_C1_NC", "MESD_C2_NC")
    mid = result.rows[10]
    assert mid[0] == pytest.approx(0.5)
    assert mid[1] == pytest.approx(0.75, abs=1e-12)
    assert mid[2] == pytest.approx(0.75, abs=1e-12)


def test_sweep_shifts_singular_endpoint_inward():
    # MCM confidence diverges at (c, p) = (1, 0); the endpoint moves in by
    # half a step instead of emitting NaN
    spec = SweepSpec(
        variable="c",
        start=0.0,
        stop=1.0,
        points=11,
        fixed={"p": 0.0},
        targets=(Target("MCM", "C", QUANTUM),),
    )
    result = run_sweep(spec)
    assert result.rows[-1][0] == pytest.approx(0.95)
    assert all(math.isfinite(v) for row in result.rows for v in row)
    assert result.substitutions == (Substitution(10, 1.0, result.rows[-1][0]),)


def test_sweep_validation():
    with pytest.raises(ContractError):
        SweepSpec("x", 0.0, 1.0, 5, {}, (Target("MESD", "P_g", QUANTUM),))
    with pytest.raises(DomainError):
        SweepSpec("c", 0.0, 1.5, 5, {}, (Target("MESD", "P_g", QUANTUM),))
    with pytest.raises(DomainError):
        SweepSpec("c", 0.0, 1.0, 0, {}, (Target("MESD", "P_g", QUANTUM),))
    with pytest.raises(ContractError):
        SweepSpec("c", 0.0, 1.0, 5, {}, ())


# ---------------------------------------------------------------------------
# figures


def test_emit_figure_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_figure(FigureJob("fig2", a))
    emit_figure(FigureJob("fig2", b))
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # LF endings only


def test_fig2_contents(tmp_path):
    path = emit_figure(FigureJob("fig2", tmp_path / "fig2.csv"))
    header, rows = read_csv(path)
    assert header == ["omega", "C_Q", "C_NC_1", "C_NC_2"]
    assert len(rows) == 201
    for row in rows:
        assert row[1] == pytest.approx(0.853553391, abs=1e-6)
    # nc curves cross the quantum line near the window boundaries
    diffs = [row[2] - row[1] for row in rows]
    sign_changes = sum(
        1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
    )
    assert sign_changes == 1
    crossing = next(row[0] for row, a, b in zip(rows, diffs, diffs[1:]) if (a > 0) != (b > 0))
    assert abs(crossing - 0.2071068) < 0.006


def test_fig3b_endpoint_values(tmp_path):
    path = emit_figure(FigureJob("fig3b", tmp_path / "fig3b.csv"))
    header, rows = read_csv(path)
    assert header == ["c", "P0_Q", "P0_NC"]
    last = rows[-1]
    assert last[0] == 1.0
    assert last[1] == pytest.approx(0.25, abs=1e-9)
    assert last[2] == pytest.approx(0.625, abs=1e-9)


def test_fig4_endpoint_values(tmp_path):
    path = emit_figure(FigureJob("fig4", tmp_path / "fig4.csv"))
    header, rows = read_csv(path)
    assert header == ["c", "Pg_Q", "Pg_NC"]
    first = rows[0]
    assert first[1] == pytest.approx(0.75, abs=1e-9)
    assert first[2] == pytest.approx(0.375, abs=1e-9)


def test_all_figures_emit_finite_unit_interval_values(tmp_path):
    for figure_id in harness.FIGURE_IDS:
        path = emit_figure(FigureJob(figure_id, tmp_path / f"{figure_id}.csv"))
        _, rows = read_csv(path)
        assert len(rows) == 201
        for row in rows:
            for v in row:
                assert math.isfinite(v)
                assert -1e-12 <= v <= 1.0 + 1e-12


def test_figure_job_rejects_unknown_id(tmp_path):
    with pytest.raises(ContractError):
        FigureJob("fig9", tmp_path / "x.csv")


def test_csv_significant_digits(tmp_path):
    path = emit_figure(FigureJob("fig2", tmp_path / "fig2.csv"))
    text = path.read_text(encoding="utf-8")
    for token in text.split("\n")[1].split(","):
        mantissa = token.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa.split("e")[0]) <= 9


# ---------------------------------------------------------------------------
# table rendering


def test_table_cmd_lists_all_cells():
    text = table_cmd(0.5, 0.5, 0.5)
    for needle in (
        "MESD",
        "USD",
        "MCM",
        "P_g",
        "P_0",
        "C(1)",
        "C(2)",
        "definitional",
        "advantage window",
    ):
        assert needle in text
    # stable figure order inside each scheme block
    mesd_lines = [ln for ln in text.split("\n") if ln.startswith("MESD")]
    assert [ln.split()[1] for ln in mesd_lines] == ["P_g", "P_0", "C(1)", "C(2)"]


def test_table_cmd_flags_impossible_usd():
    text = table_cmd(1.0, 0.5, 0.5)
    assert "impossible" in text


# ---------------------------------------------------------------------------
# verify


def test_verify_all_passes_at_low_density():
    report = verify_all(5)
    assert report.passed
    assert not report.missing_ops
    assert len(report.covered_ops) == 26
    names = {ch.name for ch in report.checks}
    assert "qtheory/povm-completeness" in names
    assert "ncmodel/oracle-max-confidence" in names
    assert "bounds/inequality-suite" in names


def test_verify_all_rejects_sparse_grid():
    with pytest.raises(DomainError):
        verify_all(4)


def test_verify_all_reports_failure_with_corrupted_tolerances():
    broken = replace(
        config.DEFAULTS, closed_form=1e-18, oracle=1e-18, exact=1e-18
    )
    report = verify_all(5, broken)
    assert not report.passed
    rendered = report.render()
    assert "FAIL" in rendered
    assert "check(s) failed" in rendered


# The check that asserts each route's relations; a value off by 1e-6 there
# must fail it.
_ROUTE_HOMES = {
    ("qtheory", "helstrom_povm"): "bounds/construction-consistency",
    ("qtheory", "usd_optimal"): "bounds/construction-consistency",
    ("qtheory", "mcm_optimal"): "bounds/construction-consistency",
    ("ncmodel", "oracle_max_pg"): "ncmodel/oracle-max-pg",
    ("ncmodel", "oracle_max_confidence"): "ncmodel/oracle-max-confidence",
    ("ncmodel", "oracle_min_p0_at_max_confidence"): "ncmodel/oracle-min-p0",
}


def _off_by(value, eps):
    """``value`` with its number moved by ``eps``: a (witness, number) pair,
    or a POVM whose conclusive elements each take ``eps`` of the other."""
    if isinstance(value, tuple):
        return value[0], value[1] + eps
    pi1, pi2, pi0 = value.elements
    return qtheory.Povm(((1 - eps) * pi1 + eps * pi2, (1 - eps) * pi2 + eps * pi1, pi0))


@pytest.mark.parametrize("module, name", list(_ROUTE_HOMES))
def test_fault_in_a_route_fails_its_home_check(monkeypatch, module, name):
    # Patched where the harness looks it up, so ncmodel's own calls (the
    # min-p0 oracle re-checks its face against the confidence oracle) keep
    # the true values.
    real = getattr(harness, module)
    original = getattr(real, name)
    faulty = types.SimpleNamespace(**vars(real))
    setattr(faulty, name, lambda *args, **kwargs: _off_by(original(*args, **kwargs), 1e-6))
    monkeypatch.setattr(harness, module, faulty)
    report = verify_all(5)
    assert not report.passed
    assert _ROUTE_HOMES[module, name] in {ch.name for ch in report.checks if not ch.passed}


def test_relation_table_homes_each_route_once():
    homes = {}
    for check, _, route, _, _ in harness._RELATIONS:
        homes.setdefault(route, set()).add(check)
    assert all(len(checks) == 1 for checks in homes.values()), homes
    for (_, name), home in _ROUTE_HOMES.items():
        assert homes[name] == {home}
    registered = {name for name, _, _ in harness._CHECKS}
    assert set().union(*homes.values()) <= registered
    # every quantum cell is compared with a construction
    cells = {cell for _, cell, _, _, _ in harness._RELATIONS}
    assert {cell.label for cell in CELLS if cell.theory == QUANTUM} <= cells


def test_render_lists_every_check_once():
    report = verify_all(5)
    rendered = report.render()
    for ch in report.checks:
        assert rendered.count(f" {ch.name} ") == 1
    assert "operations exercised: 26/26" in rendered


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_exit_codes():
    assert cli.main(["verify", "--points", "5"]) == 0
    assert cli.main(["verify", "--points", "2"]) == 2  # usage error


def test_cli_table_and_bounds_run(capsys):
    assert cli.main(["table", "--c", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "MCM" in out
    assert cli.main(["bounds"]) == 0
    out = capsys.readouterr().out
    assert "0.853553391" in out


def test_cli_sweep_stdout_and_file(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "--variable", "c", "--points", "3", "--target", "MESD:Pg:Q"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "c,MESD_Pg_Q"
    path = tmp_path / "sweep.csv"
    rc = cli.main(
        [
            "sweep", "--variable", "p", "--points", "3",
            "--target", "MCM:P0:NC", "--c", "0.5", "--out", str(path),
        ]
    )
    assert rc == 0
    assert path.exists()


def test_cli_sweep_stdout_matches_file(tmp_path, capsys):
    argv = ["sweep", "--variable", "c", "--p", "0", "--points", "11",
            "--target", "MCM:C:Q", "--target", "MESD:C2:NC"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    path = tmp_path / "sweep.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert captured.out.encode("utf-8") == path.read_bytes()
    # the shifted endpoint is reported on stderr, once per substitution
    note = [line for line in captured.err.splitlines() if line.startswith("note:")]
    assert note == ["note: row 10: c = 1 is singular; evaluated at 0.95"]


def test_cli_sweep_interior_singular_point_exits_2(capsys):
    rc = cli.main(["sweep", "--variable", "omega", "--c", "1", "--p", "0",
                   "--target", "MCM:C:Q"])
    assert rc == 2
    assert "error: confidence undefined for a pure coincident pair" in capsys.readouterr().err


# sha256 of the CSV bytes the closed forms produced before they were vectorised
_PINNED_SHA256 = {
    "fig2.csv": "1ff782d7a3d2b7ecf639bc64ebfb6239573e574fe9d871c0250e26f134252819",
    "fig3a.csv": "314d581dda10d21bc8b8ecc72af67260aeafc57ddfa1e5ce899c906788097a93",
    "fig3b.csv": "a3481f31a8e04e1ebcc5a722628fd4252fe30fa593502b319b2d1fbe1a20ab27",
    "fig4.csv": "bc3dd0d8fbaf7a78809ffe90ec5f6127d5b7b5226bb15637d6199d66710f1d46",
    "sweep-c-101.csv": "179ec0f05a5101f5f5de9a0ed9d5cb8b7033a8bec0c39033f4b4a783d5f96c20",
    "sweep-p-101.csv": "3997f352001a5a2ee618844acfb50bc884b8fdfc20d8225f732ea2bd67ad2aaf",
}
_NON_DEFINITIONAL_TARGETS = (
    "MESD:Pg:Q", "MESD:Pg:NC", "MESD:C:Q", "MESD:C1:NC", "MESD:C2:NC",
    "USD:Pg:Q", "USD:Pg:NC", "USD:P0:Q", "USD:P0:NC",
    "MCM:Pg:Q", "MCM:Pg:NC", "MCM:P0:Q", "MCM:P0:NC", "MCM:C:Q", "MCM:C:NC",
)


def test_csv_bytes_match_stored_checksums(tmp_path):
    for figure_id in FIGURE_IDS:
        emit_figure(FigureJob(figure_id, tmp_path / f"{figure_id}.csv"))
    for variable in ("c", "p"):
        argv = ["sweep", "--variable", variable, "--points", "101",
                "--out", str(tmp_path / f"sweep-{variable}-101.csv")]
        for target in _NON_DEFINITIONAL_TARGETS:
            argv += ["--target", target]
        assert cli.main(argv) == 0
    for name, digest in _PINNED_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_cli_rejects_bad_target(capsys):
    rc = cli.main(["sweep", "--variable", "c", "--target", "nope"])
    assert rc == 2


@pytest.mark.parametrize("token", ["MCM:C2:Q", "USD:C1:NC"])
def test_cli_rejects_arm_on_cell_without_arms(token, capsys):
    rc = cli.main(["sweep", "--variable", "c", "--points", "3", "--target", token])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ContractError):
        Target("MCM", "C", QUANTUM, outcome=2)
    # the noncontextual MESD confidence keeps its arms; plain C means arm 1
    argv = ["sweep", "--variable", "omega", "--points", "3"]
    for arm in ("C1", "C2", "C"):
        argv += ["--target", f"MESD:{arm}:NC"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "omega,MESD_C1_NC,MESD_C2_NC,MESD_C1_NC"


def test_cli_figure_to_unwritable_path_exits_2(tmp_path):
    rc = cli.main(["figure", "--id", "fig2", "--out", str(tmp_path / "no" / "x.csv")])
    assert rc == 2


def subprocess_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_cli_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ctxsd", "figure", "--id", "fig3a", "--out",
         str(tmp_path / "f.csv")],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "f.csv").exists()


def test_env_tolerance_override(monkeypatch):
    monkeypatch.setenv(config.ENV_TOL, "1e-6")
    tols = config.from_env()
    assert tols.advantage == 1e-6
    assert tols.oracle == 1e-6
    assert tols.closed_form == 1e-6
    assert tols.norm == config.DEFAULTS.norm  # structural tolerances untouched
    monkeypatch.setenv(config.ENV_TOL, "junk")
    with pytest.raises(DomainError):
        config.from_env()
    monkeypatch.setenv(config.ENV_TOL, "-1")
    with pytest.raises(DomainError):
        config.from_env()


def test_env_tolerance_only_loosens(monkeypatch):
    monkeypatch.setenv(config.ENV_TOL, "1e-30")
    tols = config.from_env()
    assert tols == config.DEFAULTS


def test_tolerance_defaults_are_pinned():
    assert asdict(config.DEFAULTS) == {
        "norm": 1e-12,
        "psd": 1e-10,
        "completeness": 1e-10,
        "exact": 1e-12,
        "closed_form": 1e-9,
        "oracle": 1e-9,
        "advantage": 1e-12,
    }


def test_cli_honours_env_tolerance(monkeypatch, capsys):
    # with a huge tolerance every gap is below threshold: no advantages
    monkeypatch.setenv(config.ENV_TOL, "0.5")
    assert cli.main(["table"]) == 0
    out = capsys.readouterr().out
    assert "yes" not in out.split("advantage window")[0].split("advantage\n")[-1]


# ---------------------------------------------------------------------------
# package boundary


@pytest.mark.parametrize("module", [ctxsd, qtheory, ncmodel, bounds, harness],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # perfbench/run.py --trace 1 looks up each name of __all__ with getattr
    for name in module.__all__:
        assert hasattr(module, name), name


_NAN = math.nan
_PREP = ncmodel.canonical_scenario(0.5, 0.0).prep1


@pytest.mark.parametrize(
    "build",
    [
        lambda: qtheory.PureState(_NAN, 0),
        lambda: qtheory.Operator2([[_NAN, 0], [0, 1]]),
        lambda: ncmodel.EpistemicState([_NAN, 0.5, 0.5, 0]),
        lambda: ncmodel.ResponseSet([_NAN, 0, 0, 0], [0] * 4, [1] * 4),
        lambda: ncmodel.nc_prob(_PREP, [_NAN, 0, 0, 0]),
    ],
    ids=["PureState", "Operator2", "EpistemicState", "ResponseSet", "nc_prob"],
)
def test_validators_reject_nan(build):
    with pytest.raises(DomainError):
        build()
