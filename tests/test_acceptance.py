"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 1 compares the closed forms with the published gains and QBERs of
all three runs.  The shared calibration (e_d = 1.2%, eta_s = 19.2 dB, eta_a
from each run's heralding fraction) holds everywhere; the receiver dark count
is per run (1.6e-6 at 50 km, 4.3e-6 at 0 km, 4.4e-6 at 25 km, the latter two
inferred from each run's published Q_N and E_N).  With the 50 km dark count
at every distance the 0/25 km QBERs fall 26-39% short.
"""

import math
import time

import numpy as np

from oracles import error_n, g2_of_pmf, yield_n
from pdqkd import event_sim
from pdqkd.cli import main as cli_main
from pdqkd.dataio import (ResultsRow, read_results, write_config, read_config,
                          write_events, read_events, write_results)
from pdqkd.decoy_estimator import (ObservedStats, ProtocolParams, e1_upper,
                                   fluctuation_bounds, key_rate, y1_lower)
from pdqkd.errors import UnboundedErrorRate
from pdqkd.event_sim import SimConfig, simulate_hbt, simulate_run
from pdqkd.link_model import LinkParams, gains_analytic
from pdqkd.photon_source import SourceParams, multimode_thermal_pmf, poisson_pmf, thermal_pmf
from pdqkd.presets import REFERENCE_RUNS, preset_manifest, table1_rows


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {verdict}{suffix}")


def test_criterion_1_table1_analytic(capsys):
    t0 = time.time()
    deviations = {}
    for name, label, _, _, dev in table1_rows():
        deviations.setdefault(name, {})[label] = dev
    elapsed = time.time() - t0
    gains_ok = all(abs(d[k]) <= 0.15 for d in deviations.values() for k in ("Q_N", "Q_T"))
    errors_ok = all(abs(d[k]) <= 0.25 for d in deviations.values() for k in ("E_N", "E_T"))
    table = "; ".join(f"{n}: " + ", ".join(f"{k} {v:+.1%}" for k, v in d.items())
                      for n, d in deviations.items())
    with capsys.disabled():
        report(1, "table1 analytic reproduction", gains_ok and errors_ok,
               f"{table}; {elapsed:.2f}s")
    assert elapsed < 1.0
    assert gains_ok, f"gain bands (15%) violated: {table}"
    assert errors_ok, (
        "QBER bands (25%) violated: the receiver dark count is set per run; "
        "check each run's y0_bob in pdqkd.presets against "
        "(E_N - e_d) Q_N / ((e0 - e_d) B) from its published Q_N and E_N, "
        f"with e_d shared. Deviations: {table}")


def test_criterion_2_key_totals(capsys):
    t0 = time.time()
    results = {}
    for name, run in REFERENCE_RUNS.items():
        manifest = run.manifest()
        obs = run.observed_stats()
        result = key_rate(obs, manifest.to_protocol_params(), manifest.to_source_params())
        results[name] = (result.key_bits, result.key_bits / run.key_bits_published)
    elapsed = time.time() - t0
    ok = all(0.5 <= ratio <= 1.5 for _, ratio in results.values())
    detail = "; ".join(f"{n}: {kb / 1e3:.1f} kbit ({r:.2f}x published)"
                       for n, (kb, r) in results.items())
    with capsys.disabled():
        report(2, "key totals within +/-50%", ok, f"{detail}; {elapsed:.2f}s")
    assert elapsed < 1.0
    assert ok, detail


def test_published_observations_support_no_vacuum_credit():
    # the estimator credits no vacuum term Q_j0 because the two branches bound Y_0 from
    # below by [P_T(1) Q_N - P_N(1) Q_T] / [P_T(1) P_N(0) - P_N(1) P_T(0)] (P_T(i) / P_N(i)
    # grows with i, so the denominator is positive), and with Q_N lowered and Q_T raised by
    # u_alpha standard errors that bound is below zero at every preset
    bounds = {}
    for name, run in REFERENCE_RUNS.items():
        manifest = run.manifest()
        obs, u = run.observed_stats(), manifest.to_protocol_params().u_alpha
        p_n0, p_t0, p_n1, p_t1 = manifest.to_source_params().branch_terms
        q_n_low = obs.q_n * (1.0 - u / math.sqrt(obs.n_pulses * obs.q_n))
        q_t_up = obs.q_t * (1.0 + u / math.sqrt(obs.n_pulses * obs.q_t))
        denominator = p_t1 * p_n0 - p_n1 * p_t0
        assert u == 5.0 and denominator > 0.0
        bounds[name] = (p_t1 * q_n_low - p_n1 * q_t_up) / denominator
    assert all(y0_low < 0.0 for y0_low in bounds.values()), bounds


def test_criterion_3_inflection_point(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "fig4.csv"
    code = cli_main(["reproduce", "fig4", "--out", str(out)])
    stdout = capsys.readouterr().out
    line = [l for l in stdout.splitlines() if l.startswith("R_N reaches 0")][0]
    cutoff = float(line.split(":")[1].split("dB")[0])
    rows = read_results(out)
    r_positive_beyond = any(r.r > 0.0 and r.r_n == 0.0 for r in rows)
    elapsed = time.time() - t0
    ok = code == 0 and 31.2 <= cutoff <= 32.2 and r_positive_beyond
    with capsys.disabled():
        report(3, "R_N inflection at 31.7 +/- 0.5 dB", ok,
               f"cutoff {cutoff:.2f} dB, R stays positive beyond: "
               f"{r_positive_beyond}; {elapsed:.2f}s")
    assert elapsed < 5.0
    assert code == 0
    assert 31.2 <= cutoff <= 32.2, f"R_N cutoff {cutoff:.3f} dB outside band"
    assert r_positive_beyond


def test_criterion_4_monte_carlo_vs_analytic(capsys):
    manifest = preset_manifest("paper50km")
    source, link = manifest.to_source_params(), manifest.to_link_params()
    config = SimConfig(n_pulses=100_000_000, seed=20240808)
    t0 = time.time()
    tally, _ = simulate_run(source, link, config, workers=2)
    elapsed = time.time() - t0
    obs = tally.to_observed_stats()
    ao = gains_analytic(source, link)
    n = config.n_pulses

    def pull(observed, expected, sample):
        return abs(observed - expected) / math.sqrt(expected * (1 - expected) / sample)

    pulls = {
        "Q_N": pull(obs.q_n, ao.q_n, n),
        "Q_T": pull(obs.q_t, ao.q_t, n),
        "E_N": pull(obs.e_n, ao.e_n, tally.det_n_match),
        "E_T": pull(obs.e_t, ao.e_t, tally.det_t_match),
        "trigger": pull(tally.n_triggers / n, 1 - math.exp(-source.mu0 * source.eta_a), n),
    }
    ok = all(p < 4.0 for p in pulls.values()) and elapsed <= 120.0
    detail = ", ".join(f"{k} {v:.2f}sigma" for k, v in pulls.items())
    with capsys.disabled():
        report(4, "1e8-pulse Monte Carlo vs closed forms", ok,
               f"{detail}; {elapsed:.0f}s")
    assert all(p < 4.0 for p in pulls.values()), pulls
    assert elapsed <= 120.0


class TestCriterion5Soundness:
    def test_asymptotic_zero_violations(self, capsys):
        rng = np.random.default_rng(808)
        checked = violations = 0
        while checked < 200:
            src = SourceParams(mu0=float(rng.uniform(0.05, 4.0)),
                               eta_s=float(rng.uniform(0.002, 1.0)),
                               eta_a=float(rng.uniform(0.005, 0.6)))
            link = LinkParams(eta=float(10 ** rng.uniform(-4, 0)),
                              y0=float(rng.uniform(0.0, 1e-4)),
                              e_d=float(rng.uniform(0.0, 0.05)))
            ao = gains_analytic(src, link)
            if ao.q_n == 0.0 or ao.q_t == 0.0:
                continue
            obs = ObservedStats.from_analytic(ao, src, 10**12)
            bounds = fluctuation_bounds(obs, ProtocolParams(u_alpha=0.0), src)
            y1, _ = y1_lower(bounds.q_n_low, bounds.q_up, bounds.y0_up, src)
            if y1 > yield_n(1, link) * (1 + 1e-9):
                violations += 1
            try:
                e1, _ = e1_upper(bounds.etqt_up, y1, src)
                if e1 < error_n(1, link) * (1 - 1e-9):
                    violations += 1
            except UnboundedErrorRate:
                pass  # clamped-to-zero yield: error bound trivially worthless
            checked += 1
        ok = violations == 0
        with capsys.disabled():
            report(5, "bound soundness, asymptotic grid", ok,
                   f"{checked} parameter points, {violations} violations")
        assert ok

    def test_finite_coverage_at_u1(self, capsys):
        mu0, eta_s, eta_a = 1.0, 0.02, 0.98
        src = SourceParams(mu0=mu0, eta_s=eta_s, eta_a=eta_a)
        link = LinkParams(eta=0.9, y0=1e-6, e_d=1e-3)
        ao = gains_analytic(src, link)
        p_n = math.exp(-mu0 * eta_a)
        enqn, etqt = ao.e_n * ao.q_n, ao.e_t * ao.q_t
        cells = np.array([p_n - ao.q_n, ao.q_n - enqn, enqn,
                          (1 - p_n) - ao.q_t, ao.q_t - etqt, etqt])
        n = 10**8
        assert n * ao.q_n > 10**4
        y1_true = yield_n(1, link)

        def coverage(u, reps, seed):
            counts = np.random.default_rng(seed).multinomial(n, cells, size=reps)
            proto = ProtocolParams(u_alpha=u)
            viol = 0
            for c in counts:
                det_n, det_t = int(c[1] + c[2]), int(c[4] + c[5])
                obs = ObservedStats(q_n=det_n / n, q_t=det_t / n,
                                    e_n=int(c[2]) / det_n, e_t=int(c[5]) / det_t,
                                    n_pulses=n)
                b = fluctuation_bounds(obs, proto, src)
                # known device dark rate in the subtraction slot (simulation
                # convention); the estimated-Y0 variant is strictly more
                # conservative and is checked in the estimator test module
                y1, _ = y1_lower(b.q_n_low, b.q_up, link.y0, src)
                if y1 > y1_true:
                    viol += 1
            return viol / reps

        rate_u1 = coverage(1.0, 1500, seed=2024)
        rate_u5 = coverage(5.0, 600, seed=2025)
        ok = 0.11 <= rate_u1 <= 0.21 and rate_u5 <= 0.005
        with capsys.disabled():
            report(5, "finite-mode one-sided coverage", ok,
                   f"u=1 violation rate {rate_u1:.3f} (target 0.16 +/- 0.05), "
                   f"u=5 rate {rate_u5:.4f}")
        assert 0.11 <= rate_u1 <= 0.21, rate_u1
        assert rate_u5 <= 0.005, rate_u5


class TestCriterion6PhotonStatistics:
    def test_g2_closed_forms(self, capsys):
        checks = {
            "poisson": abs(g2_of_pmf(poisson_pmf(0.7)) - 1.0),
            "thermal": abs(g2_of_pmf(thermal_pmf(0.7)) - 2.0),
        }
        for k in (2, 10, 350):
            checks[f"K={k}"] = abs(g2_of_pmf(multimode_thermal_pmf(2.33, k)) - (1 + 1 / k))
        tv_ok = True
        target = poisson_pmf(2.33)

        def tv(pmf):
            n = max(pmf.n_max, target.n_max) + 1
            a, b = np.zeros(n), np.zeros(n)
            a[:pmf.n_max + 1] = pmf.probs
            b[:target.n_max + 1] = target.probs
            return 0.5 * (np.abs(a - b).sum() + pmf.tail_mass + target.tail_mass)

        tvs = [tv(multimode_thermal_pmf(2.33, k)) for k in (1, 2, 5, 10, 50, 350)]
        tv_ok = all(b < a for a, b in zip(tvs, tvs[1:]))
        ok = all(v < 1e-6 for v in checks.values()) and tv_ok
        detail = ", ".join(f"{k} err {v:.1e}" for k, v in checks.items())
        with capsys.disabled():
            report(6, "analytic photon statistics", ok,
                   f"{detail}; TV strictly decreasing in K: {tv_ok}")
        assert all(v < 1e-6 for v in checks.values()), checks
        assert tv_ok, tvs

    def test_virtual_hbt_at_1e8(self, capsys):
        t0 = time.time()
        hist = simulate_hbt(poisson_pmf(0.2), 0.15, SimConfig(n_pulses=100_000_000, seed=606),
                            workers=2)
        elapsed = time.time() - t0
        off_zero = [c for d, c in zip(hist.delays, hist.coincidences) if d != 0]
        norm = hist.n_pulses / (hist.singles_1 * float(hist.singles_2))
        off_values = [c * norm for c in off_zero]
        ok = (abs(hist.g2_zero - 1.0) <= 0.02
              and all(abs(v - 1.0) <= 0.02 for v in off_values))
        with capsys.disabled():
            report(6, "virtual beam-splitter correlation at 1e8 pulses", ok,
                   f"g2(0) = {hist.g2_zero:.4f} +/- {hist.g2_zero_sigma:.4f} "
                   f"(measured reference: 0.994 +/- 0.014); {elapsed:.0f}s")
        assert abs(hist.g2_zero - 1.0) <= 0.02
        assert all(abs(v - 1.0) <= 0.02 for v in off_values)

    def test_virtual_hbt_thermal_at_1e8(self, capsys):
        # threshold clicks saturate slightly: the exact click-level value at
        # these settings is 1.9852, inside the 2.0 +/- 0.05 band
        t0 = time.time()
        hist = simulate_hbt(thermal_pmf(0.1), 0.15, SimConfig(n_pulses=200_000_000, seed=607),
                            workers=2)
        elapsed = time.time() - t0
        ok = abs(hist.g2_zero - 2.0) <= 0.05
        with capsys.disabled():
            report(6, "virtual correlation, single-mode thermal source", ok,
                   f"g2(0) = {hist.g2_zero:.4f} +/- {hist.g2_zero_sigma:.4f} "
                   f"(bunched target 2.0 +/- 0.05, click-level exact 1.9852); "
                   f"{elapsed:.0f}s")
        assert ok


def test_criterion_7_worker_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(event_sim, "_BLOCK", 100_000)  # 3 workers share 5 blocks
    outputs = {}
    for workers in ("1", "3"):
        base = tmp_path / f"w{workers}"
        code = cli_main(["simulate", "--config", "paper50km",
                         "--pulses", "500000", "--seed", "44",
                         "--workers", workers,
                         "--out", str(base) + ".tally",
                         "--events", str(base) + ".events"])
        assert code == 0
        outputs[workers] = ((base.with_suffix(".tally")).read_bytes(),
                            (base.with_suffix(".events")).read_bytes())
    capsys.readouterr()
    ok = outputs["1"] == outputs["3"]
    with capsys.disabled():
        report(7, "worker-count determinism", ok,
               "tally and event files byte-identical across --workers 1/3")
    assert ok


def test_criterion_8_roundtrip_io(tmp_path, capsys):
    manifest = preset_manifest("paper50km")
    # config: write -> read -> write byte identity
    c1, c2 = tmp_path / "c1.cfg", tmp_path / "c2.cfg"
    write_config(manifest, c1)
    write_config(read_config(c1), c2)
    config_ok = c1.read_bytes() == c2.read_bytes()

    # events: a log of >= 1e4 detections round-trips exactly (0 dB, so 4e5 pulses suffice)
    link = LinkParams(eta=1.0, y0=1.6e-6, e_d=0.012)
    _, log = simulate_run(manifest.to_source_params(), link,
                          SimConfig(n_pulses=400_000, seed=4))
    epath = tmp_path / "ev.csv"
    write_events(log, epath)
    events_ok = len(log) >= 10_000 and read_events(epath) == log

    # results: 1e4 synthetic rows, exact float fidelity
    rng = np.random.default_rng(5)
    rows = [ResultsRow(loss_db=float(i) / 100, q_n=float(rng.uniform()),
                       q_t=float(rng.uniform()), e_n=float(rng.uniform()),
                       e_t=float(rng.uniform()), y1_low=float(rng.uniform()),
                       e1_up=float(rng.uniform()), r_n=float(rng.uniform()),
                       r_t=float(rng.uniform()), r=float(rng.uniform()),
                       key_bits=float(rng.uniform() * 1e6),
                       clamped_y1=bool(rng.integers(2)))
            for i in range(10_000)]
    rpath = tmp_path / "rows.csv"
    write_results(rows, rpath)
    results_ok = read_results(rpath) == rows

    ok = config_ok and events_ok and results_ok
    with capsys.disabled():
        report(8, "round-trip I/O identities", ok,
               f"config byte-identity {config_ok}, {len(log)} events {events_ok}, "
               f"1e4 result rows {results_ok}")
    assert ok
