"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to runtime
configuration.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ctxsd import bounds, ncmodel, qtheory
from ctxsd.bounds import BoundSpec, NONCONTEXTUAL, QUANTUM, eval_bound
from ctxsd.sweeps import FigureJob, emit_figure


def theta_of(c: float) -> float:
    return math.acos(math.sqrt(c))


def report(num: int, title: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} PASS - {title}{suffix}")


# ---------------------------------------------------------------------------


def test_criterion_01_mesd_guessing_gap():
    c = 0.5
    closed = eval_bound(BoundSpec("MESD", "P_g", QUANTUM, c=c))
    assert closed == pytest.approx(0.853553391, abs=1e-9)
    nc_value = eval_bound(BoundSpec("MESD", "P_g", NONCONTEXTUAL, c=c))
    assert nc_value == pytest.approx(0.75, abs=1e-9)
    ens = qtheory.noisy_ensemble(theta_of(c), 0.0)
    traced = qtheory.guessing_probability(ens, qtheory.helstrom_povm(ens))
    assert traced == pytest.approx(closed, abs=1e-10)
    report(1, "MESD guessing gap at c=1/2", f"Q={closed:.9f} NC={nc_value:.2f}")


def test_criterion_02_nc_mesd_oracle():
    worst = 0.0
    for c in np.linspace(0.0, 1.0, 101):
        scn = ncmodel.canonical_scenario(float(c), 0.0)
        _, value = ncmodel.oracle_max_pg(scn)
        worst = max(worst, abs(value - (1.0 - 0.5 * float(c))))
    assert worst <= 1e-9
    report(2, "guessing-probability oracle equals 1 - c/2", f"max_dev={worst:.2e}")


def test_criterion_03_mesd_confidences_and_window():
    worst = 0.0
    for c in np.linspace(0.0, 1.0, 101):
        scn = ncmodel.canonical_scenario(float(c), 0.0)
        for w in np.linspace(0.0, 1.0, 101):
            closed = bounds.nc_mesd_confidences(float(c), float(w))
            figs = ncmodel.nc_figures(scn, ncmodel.mesd_mixed_strategy(float(w)))
            for got, want in ((figs.c1, closed[0]), (figs.c2, closed[1])):
                if got is None:
                    # dead arm only at c = 1 with omega at an endpoint, where
                    # the closed form takes the canonical value 1/2
                    assert want == 0.5
                    continue
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12

    # advantage window at c = 1/2, via the closed form and by bisection
    c = 0.5
    lo_closed = bounds.omega_star(c)
    helstrom = eval_bound(BoundSpec("MESD", "C", QUANTUM, c=c))
    lo_b, hi_b = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo_b + hi_b)
        if bounds.nc_mesd_confidences(c, mid)[0] > helstrom:
            lo_b = mid
        else:
            hi_b = mid
    lo_bisect = 0.5 * (lo_b + hi_b)
    for lo in (lo_closed, lo_bisect):
        assert lo == pytest.approx(0.2071068, abs=1e-6)
        assert 1.0 - lo == pytest.approx(0.7928932, abs=1e-6)
    report(
        3,
        "MESD confidences agree on the 101x101 grid; window [0.2071068, 0.7928932]",
        f"max_dev={worst:.2e}",
    )


def test_criterion_04_usd():
    for c in np.linspace(0.0, 0.95, 20):
        ens = qtheory.noisy_ensemble(theta_of(float(c)), 0.0)
        _, rate = qtheory.usd_optimal(ens)
        assert rate == pytest.approx(math.sqrt(c), abs=1e-9)
    for c in np.linspace(0.0, 1.0, 101):
        q = eval_bound(BoundSpec("USD", "P_0", QUANTUM, c=float(c)))
        n = eval_bound(BoundSpec("USD", "P_0", NONCONTEXTUAL, c=float(c)))
        assert n == 0.5 * (1.0 + float(c))
        assert n >= q - 1e-15
        if 0.0 < c < 1.0:
            assert n > q + 1e-12
    report(4, "USD rates: sqrt(c) vs (1+c)/2, noncontextual never below quantum")


def _mcm_grids():
    cs = np.linspace(0.0, 1.0, 21)
    ps = np.linspace(0.0, 1.0, 21)[1:]  # p > 0
    return [(float(c), float(p)) for c in cs for p in ps]


def test_criterion_05_mcm_confidence():
    worst_q = worst_nc = 0.0
    for c, p in _mcm_grids():
        quantum = eval_bound(BoundSpec("MCM", "C", QUANTUM, c=c, p=p))
        ens = qtheory.noisy_ensemble(theta_of(c), p)
        m, _ = qtheory.mcm_optimal(theta_of(c), p)
        for i in (1, 2):
            worst_q = max(worst_q, abs(qtheory.confidence(ens, m, i) - quantum))
        scn = ncmodel.canonical_scenario(c, p)
        nc_value = eval_bound(BoundSpec("MCM", "C", NONCONTEXTUAL, c=c, p=p))
        for i in (1, 2):
            _, got = ncmodel.oracle_max_confidence(scn, i)
            worst_nc = max(worst_nc, abs(got - nc_value))
        assert quantum >= nc_value - 1e-15
        if 0.0 < c < 1.0 and p < 1.0:
            assert quantum > nc_value + 1e-12
    assert worst_q <= 1e-9
    assert worst_nc <= 1e-12
    report(
        5,
        "MCM confidences: construction and oracle meet the closed forms",
        f"dev_q={worst_q:.2e} dev_nc={worst_nc:.2e}",
    )


def test_criterion_06_mcm_inconclusive_rate():
    worst_q = worst_nc = 0.0
    for c, p in _mcm_grids():
        _, rate = qtheory.mcm_optimal(theta_of(c), p)
        worst_q = max(worst_q, abs(rate - (1.0 - p) * math.sqrt(c)))
        scn = ncmodel.canonical_scenario(c, p)
        _, p_0 = ncmodel.oracle_min_p0_at_max_confidence(scn)
        worst_nc = max(worst_nc, abs(p_0 - 0.5 * (1.0 + (1.0 - p) * c)))
    assert worst_q <= 1e-9
    assert worst_nc <= 1e-9
    _, spot_q = qtheory.mcm_optimal(theta_of(0.5), 0.75)
    _, spot_nc = ncmodel.oracle_min_p0_at_max_confidence(
        ncmodel.canonical_scenario(0.5, 0.75)
    )
    assert spot_q == pytest.approx(0.1767767, abs=5e-8)
    assert spot_nc == pytest.approx(0.5625, abs=1e-12)
    report(
        6,
        "MCM inconclusive rates: (1-p) sqrt(c) vs (1+(1-p)c)/2",
        f"spot {spot_q:.7f} vs {spot_nc:.4f}",
    )


def test_criterion_07_mcm_guessing_probability():
    for theory in (QUANTUM, NONCONTEXTUAL):
        for c, p in _mcm_grids():
            p_g = eval_bound(BoundSpec("MCM", "P_g", theory, c=c, p=p))
            p_0 = eval_bound(BoundSpec("MCM", "P_0", theory, c=c, p=p))
            conf = eval_bound(BoundSpec("MCM", "C", theory, c=c, p=p))
            assert p_g == pytest.approx((1.0 - p_0) * conf, abs=1e-12)

    # independent evaluation of the final displays at (p, c) = (1/2, 1/2)
    c = p = 0.5
    o = math.sqrt(c)
    t = (1.0 - p) * o
    display_q = 0.5 * (
        1.0 - t + (1.0 - p) * math.sqrt((1.0 - t) / (1.0 + t)) * math.sqrt(1.0 - c)
    )
    display_nc = 0.5 * (1.0 - 0.5 * p - (1.0 - p) * c)
    assert display_q == pytest.approx(0.4453902307, abs=1e-9)
    assert display_nc == pytest.approx(0.25, abs=1e-15)
    assert eval_bound(BoundSpec("MCM", "P_g", QUANTUM, c=c, p=p)) == pytest.approx(
        display_q, abs=1e-6
    )
    ens = qtheory.noisy_ensemble(theta_of(c), p)
    m, _ = qtheory.mcm_optimal(theta_of(c), p)
    assert qtheory.guessing_probability(ens, m) == pytest.approx(display_q, abs=1e-6)
    assert eval_bound(
        BoundSpec("MCM", "P_g", NONCONTEXTUAL, c=c, p=p)
    ) == pytest.approx(display_nc, abs=1e-6)
    report(
        7,
        "MCM guessing probability factorises; central values 0.4453902 vs 0.25",
    )


def test_criterion_08_hand_integral_regression():
    rng = np.random.default_rng(123)
    for _ in range(100):
        c = float(rng.uniform(0.0, 1.0))
        g1 = float(rng.uniform(0.0, 1.0))
        g2 = float(rng.uniform(0.0, 1.0 - g1))
        scn = ncmodel.canonical_scenario(c, 0.0)
        rs = ncmodel.usd_response(g1, g2)
        assert ncmodel.nc_prob(scn.prep1, rs.xi0) == pytest.approx(
            1.0 - g1 + g1 * c, abs=1e-12
        )
        assert ncmodel.nc_prob(scn.mixed, rs.xi0) == pytest.approx(
            1.0 - 0.5 * (g1 + g2), abs=1e-12
        )
        assert ncmodel.confusability(scn.prep1, scn.mirror2) == pytest.approx(
            1.0 - c, abs=1e-12
        )
    report(8, "hand-integral identities hold for 100 random (c, gamma1, gamma2)")


def test_criterion_09_figure_csvs(tmp_path):
    paths = {}
    for figure_id in ("fig2", "fig3a", "fig3b", "fig4"):
        first = emit_figure(FigureJob(figure_id, tmp_path / f"{figure_id}.csv"))
        again = emit_figure(FigureJob(figure_id, tmp_path / f"{figure_id}_again.csv"))
        assert first.read_bytes() == again.read_bytes()
        paths[figure_id] = first

    def rows_of(figure_id):
        lines = paths[figure_id].read_text().strip().split("\n")
        return [list(map(float, ln.split(","))) for ln in lines[1:]]

    fig2 = rows_of("fig2")
    assert all(abs(r[1] - 0.853553391) <= 1e-6 for r in fig2)  # criterion 1 value
    mid = fig2[100]
    assert mid[0] == 0.5 and abs(mid[2] - 0.75) <= 1e-6 and abs(mid[3] - 0.75) <= 1e-6

    fig3a = rows_of("fig3a")[150]  # p = 0.75 at c = 1/2
    assert fig3a[0] == 0.75
    assert abs(fig3a[1] - 0.1767767) <= 1e-6  # criterion 6 values
    assert abs(fig3a[2] - 0.5625) <= 1e-6

    fig3b = rows_of("fig3b")[100]  # c = 0.5 at p = 3/4
    assert fig3b[0] == 0.5
    assert abs(fig3b[1] - 0.1767767) <= 1e-6
    assert abs(fig3b[2] - 0.5625) <= 1e-6

    fig4 = rows_of("fig4")[100]  # c = 0.5 at p = 1/2
    assert fig4[0] == 0.5
    assert abs(fig4[1] - 0.4453902) <= 1e-6  # criterion 7 value
    assert abs(fig4[2] - 0.25) <= 1e-6
    report(9, "figure CSVs deterministic with the spot values in place")


def test_criterion_10_verify_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ctxsd", "verify", "--points", "21"],
        capture_output=True,
        text=True,
        env=env,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
    from ctxsd.harness import _CHECKS  # the named invariant registry

    for name, _, _ in _CHECKS:
        assert name in proc.stdout
    assert "operations exercised: 26/26" in proc.stdout
    assert "all checks passed" in proc.stdout
    report(10, "verify --points 21 exits 0", f"{elapsed:.1f}s, {len(_CHECKS)} checks")
