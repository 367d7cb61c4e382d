"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Planted instances stand in for the trained-generator experiments;
the published per-pixel reference values are printed alongside criterion 4
for orientation only (they belong to trained models and are not targets).

All tolerances are fixed here, taken from the criteria; nothing is
calibrated at run time except step sizes that the criteria themselves
define through the sampled step-size window.
"""

import time

import numpy as np
import pytest

from genprior import (
    GRADIENT_SCALE,
    MeasurementModel,
    Objective,
    ProjectionConfig,
    RngStream,
    SolverConfig,
    convergence_rate,
    empirical_srec,
    eps_pgd,
    forward,
    gaussian_matrix,
    myopic_eps_pgd,
    observe,
    pgd_linear,
    phase_init,
    random_generator,
    step_size_window_check,
)
from genprior.cli import main as cli_main
from genprior.objectives import sign_pm
from genprior.solvers import (
    _Cell,
    _latent_descent,
    _projected_descent,
)
from conftest import brute_force_project, gradient_at, loss_at, project_one

DESK = dict(k=8, hidden=(64,), n=128, m=64)
SWEEP_TOY = dict(k=8, hidden=(32, 32), n=128)
WINDOW_PAIRS = 15  # few-pair (typical-direction) estimates; see ledger


def report(num, name, ok, detail, t0, budget_s):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} "
          f"[{elapsed:.1f}s / budget {budget_s:.0f}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"
    assert ok, f"criterion {num} failed: {detail}"


def desk_net():
    return random_generator(DESK["k"], list(DESK["hidden"]), DESK["n"], "relu",
                            RngStream(7, spawn_key=(901,)))


def planted(net, m, seed):
    root = RngStream(seed)
    z_star = root.derive(0).standard_normal(net.latent_dim)
    x_star = forward(net, z_star)
    a = gaussian_matrix(m, net.output_dim, 1.0 / m, root.derive(1, m))
    return z_star, x_star, a


# --- criterion 1: gradient correctness ----------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    kind_link = {"squared": "linear", "sim_sigmoid": "sigmoid",
                 "sinusoid_l2": "sinusoid", "phase_corrected": "magnitude"}
    rng = RngStream(1000)
    worst = 0.0
    for kind, link in kind_link.items():
        for _ in range(20):
            a = rng.standard_normal((30, 20)) / np.sqrt(30)
            model = MeasurementModel(matrix=a, link=link)
            y = observe(model, rng.standard_normal(20))
            phase = sign_pm(rng.standard_normal(30)) if kind == "phase_corrected" else None
            obj = Objective(model=model, y=y, phase=phase)
            x = rng.standard_normal(20)
            analytic = gradient_at(obj, x)
            scale = GRADIENT_SCALE[kind]
            fd = np.zeros(20)
            for j in range(20):
                xp, xm = x.copy(), x.copy()
                xp[j] += 1e-6
                xm[j] -= 1e-6
                fd[j] = scale * (loss_at(obj, xp) - loss_at(obj, xm)) / 2e-6
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel)
    report(1, "gradient correctness", worst <= 1e-5,
           f"worst relative FD error {worst:.2e} (<= 1e-5, 20 instances x 4 kinds)",
           t0, 5.0)


# --- criterion 2: projection oracle vs grid -----------------------------


def test_criterion_2_projection_oracle():
    t0 = time.perf_counter()
    net = random_generator(2, [16], 32, "tanh", RngStream(11, spawn_key=(901,)))
    cfg = ProjectionConfig(inner_steps=300, inner_rate=0.02, restarts=8)
    worst_gap = -np.inf
    for i in range(25):
        rng = RngStream(200 + i)
        x = 0.7 * rng.derive(0).standard_normal(net.output_dim)
        grid = brute_force_project(net, x, (-3.0, 3.0), 201)
        desc = project_one(net, x, cfg, rng.derive(1))
        worst_gap = max(worst_gap, desc.residual - grid.residual)
    report(2, "projection oracle", worst_gap <= 1e-2,
           f"worst residual gap vs 201x201 grid {worst_gap:.2e} (<= 1e-2, 25 targets)",
           t0, 30.0)


# --- criteria 3 and 8 share the fitted-window runs -----------------------


@pytest.fixture(scope="module")
def window_runs():
    t0 = time.perf_counter()
    net = desk_net()
    rows = []
    for seed in range(10):
        _, x_star, a = planted(net, DESK["m"], seed)
        y = a @ x_star
        srec = empirical_srec(a, net, WINDOW_PAIRS, RngStream(seed, spawn_key=(910,)))
        lo = 1.0 / (2.0 * srec.gamma)
        hi = min(1.0 / srec.gamma, 1.0 / srec.rho**2)
        eta = 0.5 * (lo + hi) if hi > lo else 0.75 / srec.gamma
        cfg = SolverConfig(outer_steps=15, step_size=eta,
                           projection=ProjectionConfig(inner_steps=200,
                                                       inner_rate=0.05),
                           seed=seed, ground_truth=x_star)
        _, trace = pgd_linear(y, a, net, cfg)
        window = step_size_window_check(srec, eta)
        rows.append(dict(seed=seed, eta=eta, srec=srec, window=window,
                         alpha_fit=convergence_rate(trace, 1e-8),
                         ppe=trace.final_per_pixel_error,
                         inner=trace.inner_updates))
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_criterion_3_linear_convergence(window_runs):
    # The shared runs' wall time belongs to this criterion's budget.
    t0 = time.perf_counter() - window_runs["elapsed"]
    window_runs = window_runs["rows"]
    in_plain_window = all(
        1.0 / (2.0 * r["srec"].gamma) < r["eta"] < 1.0 / r["srec"].gamma
        for r in window_runs)
    med_alpha = float(np.median([r["alpha_fit"] for r in window_runs]))
    med_ppe = float(np.median([r["ppe"] for r in window_runs]))
    budget_ok = all(r["inner"] <= 3000 for r in window_runs)
    ok = in_plain_window and med_alpha <= 0.9 and med_ppe < 1e-4 and budget_ok
    report(3, "linear convergence",
           ok,
           f"median alpha_fit {med_alpha:.3f} (<= 0.9), median per-pixel error "
           f"{med_ppe:.2e} (< 1e-4), 3000-update budget, eta in window for 10/10 seeds",
           t0, 120.0)


# --- criterion 4: m-sweep trend vs CSGM ---------------------------------


REFERENCE_CURVE = {20: 0.03928, 200: 5.84e-5}  # trained-model values, printed only
ERROR_FLOOR = 1e-8  # medians below this are converged; ignore floor noise


def test_criterion_4_m_sweep_trend():
    t0 = time.perf_counter()
    net = random_generator(SWEEP_TOY["k"], list(SWEEP_TOY["hidden"]),
                           SWEEP_TOY["n"], "relu", RngStream(7, spawn_key=(901,)))
    ms, seeds = (20, 60, 100, 140, 200), range(10)
    # Every (m, seed) cell of each solver steps in one lockstep group, with
    # the bits of its own pgd_linear or csgm_baseline run (test_lockstep).
    pgd_cells, csgm_cells = [], []
    for m in ms:
        for seed in seeds:
            _, x_star, a = planted(net, m, seed)
            y = a @ x_star
            pgd_cells.append(_Cell(Objective(MeasurementModel(a, "linear"), y), 0.7,
                                   seed, x_star=x_star))
            csgm_cells.append(_Cell(Objective(MeasurementModel(a, "linear"), y), 0.01,
                                    seed, RngStream(seed, spawn_key=(905,))
                                    .standard_normal(net.latent_dim), x_star))

    def medians(traces):
        errors = np.reshape([t.final_per_pixel_error for t in traces],
                            (len(ms), len(seeds)))
        return {m: float(np.median(e)) for m, e in zip(ms, errors)}

    med_pgd = medians(_projected_descent(
        net, pgd_cells, 15, ProjectionConfig(inner_steps=200, inner_rate=0.05)))
    med_csgm = medians(_latent_descent(net, 3000, 0.01, csgm_cells))
    clamped = [max(med_pgd[m], ERROR_FLOOR) for m in ms]
    non_increasing = all(b <= a for a, b in zip(clamped, clamped[1:]))
    beats_csgm = med_pgd[200] < med_csgm[200]
    never_better_2x = all(med_csgm[m] >= 0.5 * med_pgd[m] for m in ms)
    curve = " ".join(f"{m}:{med_pgd[m]:.2e}" for m in ms)
    ok = non_increasing and beats_csgm and never_better_2x
    report(4, "m-sweep trend",
           ok,
           f"median per-pixel pgd {{{curve}}} non-increasing (floor {ERROR_FLOOR:g}), "
           f"pgd {med_pgd[200]:.2e} < csgm {med_csgm[200]:.2e} at m=200; "
           f"trained-model reference (not a target): 20:{REFERENCE_CURVE[20]} "
           f"200:{REFERENCE_CURVE[200]}",
           t0, 300.0)


# --- criterion 5: phase reduction ---------------------------------------


def test_criterion_5_phase_reduction():
    t0 = time.perf_counter()
    net = desk_net()
    worst = 0.0
    for seed in range(3):
        _, x_star, a = planted(net, DESK["m"], seed)
        y = np.abs(a @ x_star)
        p_star = sign_pm(a @ x_star)
        cfg = SolverConfig(outer_steps=15, step_size=0.9,
                           projection=ProjectionConfig(inner_steps=200,
                                                       inner_rate=0.05),
                           seed=seed, ground_truth=x_star)
        # phase_pgd's loop with the phase pinned to p* instead of re-bound.
        pinned = _Cell(Objective(MeasurementModel(a, "magnitude"), y, phase=p_star),
                       cfg.step_size, seed, np.zeros(net.output_dim), x_star)
        (t_ph,) = _projected_descent(net, [pinned], cfg.outer_steps, cfg.projection)
        x_ph = t_ph.x_hat
        x_lin, t_lin = pgd_linear(y * p_star, a, net, cfg)
        worst = max(worst, float(np.max(np.abs(x_ph - x_lin))))
        worst = max(worst, float(np.max(np.abs(t_ph.objective - t_lin.objective))))
    report(5, "phase reduction", worst <= 1e-12,
           f"max |oracle-phase iterates - linear iterates| {worst:.2e} (<= 1e-12)",
           t0, 10.0)


# --- criterion 6: phase local contraction --------------------------------


def test_criterion_6_phase_contraction():
    t0 = time.perf_counter()
    net = desk_net()
    # The 20 solves (each seed with ground truth x* and -x*) step as one
    # lockstep group, with the bits of their own phase_pgd runs
    # (test_lockstep).
    cells = []
    for seed in range(10):
        _, x_star, a = planted(net, DESK["m"], seed)
        y = np.abs(a @ x_star)
        x0 = phase_init(y, a, net, RngStream(seed, spawn_key=(904,)),
                        strategy="oracle_perturb", delta0=0.1, x_star=x_star)
        for truth in (x_star, -x_star):
            cells.append(_Cell(Objective(MeasurementModel(a, "magnitude"), y), 0.9,
                               seed, x0, truth))
    traces = _projected_descent(net, cells, 50,
                                ProjectionConfig(inner_steps=200, inner_rate=0.05))
    worst_ratios, mirror_ok = [], True
    for trace, trace_neg in zip(traces[0::2], traces[1::2]):
        d = trace.sign_error
        ratios = [d[t + 1] / d[t] for t in range(len(d) - 1) if d[t] >= 1e-3]
        worst_ratios.append(max(ratios) if ratios else 0.0)
        mirror_ok &= bool(np.array_equal(trace.sign_error, trace_neg.sign_error))
    med_worst = float(np.median(worst_ratios))
    ok = med_worst <= 0.95 and mirror_ok
    report(6, "phase local contraction", ok,
           f"median worst per-iteration distance ratio {med_worst:.3f} (<= 0.95 "
           f"until below 1e-3); mirrored-truth trace identical: {mirror_ok}",
           t0, 120.0)


# --- criterion 7: myopic reduction and recovery --------------------------


def test_criterion_7_myopic():
    t0 = time.perf_counter()
    # (a) l = 0 reproduces eps_pgd.
    net = desk_net()
    _, x_star, a = planted(net, DESK["m"], 0)
    obj = Objective(model=MeasurementModel(matrix=a, link="linear"),
                    y=a @ x_star)
    cfg = SolverConfig(outer_steps=10, step_size=0.7,
                       projection=ProjectionConfig(inner_steps=200, inner_rate=0.05),
                       seed=0, ground_truth=x_star)
    x_eps, t_eps = eps_pgd(obj, net, cfg)
    x_myo, _, _, t_myo = myopic_eps_pgd(obj, net, np.eye(net.output_dim), 0, cfg)
    reduction_gap = max(float(np.max(np.abs(x_eps - x_myo))),
                        float(np.max(np.abs(t_eps.objective - t_myo.objective))))

    # (b) planted mismatch: identity basis, l=5 spikes, m = 4(k+l).  The 10
    # solves step as one lockstep group, with the bits of their own
    # myopic_eps_pgd runs (test_lockstep).
    k, n, l, spike = 8, 64, 5, 10.0
    m = 4 * (k + l)
    mm_net = random_generator(k, [64], n, "relu", RngStream(7, spawn_key=(901,)))
    cells, supports = [], []
    for seed in range(10):
        root = RngStream(seed)
        z_star = root.derive(0).standard_normal(k)
        xg = forward(mm_net, z_star)
        srng = root.derive(2)
        support = srng.permutation(n)[:l]
        scale = spike * np.linalg.norm(xg) / np.sqrt(n)
        v_star = np.zeros(n)
        v_star[support] = scale * np.where(srng.standard_normal(l) >= 0, 1.0, -1.0)
        x_true = xg + v_star
        a2 = gaussian_matrix(m, n, 1.0 / m, root.derive(1, m))
        obj2 = Objective(MeasurementModel(matrix=a2, link="linear"), a2 @ x_true)
        cells.append(_Cell(obj2, 0.6, seed, x_star=x_true))
        supports.append(support)
    traces = _projected_descent(mm_net, cells, 50,
                                ProjectionConfig(inner_steps=200, inner_rate=0.05),
                                sparse=(np.eye(n), l))
    support_hits = sum(set(np.nonzero(trace.extras["v"])[0]) == set(support)
                       for trace, support in zip(traces, supports))
    ppes = [trace.final_per_pixel_error for trace in traces]
    med_ppe = float(np.median(ppes))
    ok = reduction_gap <= 1e-12 and support_hits >= 5 and med_ppe < 1e-2
    report(7, "myopic reduction and recovery", ok,
           f"l=0 gap {reduction_gap:.2e} (<= 1e-12); exact support {support_hits}/10 "
           f"(median passes), median per-pixel error {med_ppe:.2e} (< 1e-2)",
           t0, 120.0)


# --- criterion 8: step-size window consistency ----------------------------


def test_criterion_8_window_consistency(window_runs):
    t0 = time.perf_counter()
    window_runs = window_runs["rows"]
    passes = sum(r["window"].in_window and r["window"].rho_sq_ok for r in window_runs)
    med_alpha = float(np.median([r["alpha_fit"] for r in window_runs]))
    med_pred = float(np.median([r["window"].predicted_factor for r in window_runs]))
    ok = passes >= 5 and med_alpha <= med_pred + 0.1
    report(8, "step-size window consistency", ok,
           f"window (eta in (1/2g, 1/g), rho^2 < 1/eta) passed {passes}/10 seeds; "
           f"median alpha_fit {med_alpha:.3f} <= median predicted {med_pred:.3f} + 0.1",
           t0, 60.0)


# --- criterion 9: determinism --------------------------------------------


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    base = ("problem = linear\nlatent_dim = 8\nhidden_dims = 64\n"
            "output_dim = 128\nactivation = relu\nweight_seed = 7\n"
            "m = 64\neta = 0.7\nouter_steps = 10\ninner_steps = 100\n"
            "inner_rate = 0.05\nseed = 3\n")
    phase = base.replace("problem = linear", "problem = phase").replace(
        "eta = 0.7", "eta = 0.9")
    checks = []
    for name, text, cmd, extra in [
        ("solve-linear", base, "solve", []),
        ("solve-phase", phase, "solve", []),
        ("sweep", base, "sweep",
         ["--set", "m_list=20,60", "--set", "seeds=0,1",
          "--set", "solvers=pgd,csgm", "--set", "csgm_steps=200"]),
        ("diagnose", base, "diagnose", ["--set", "num_pairs=50"]),
    ]:
        cfg = tmp_path / f"{name}.txt"
        cfg.write_text(text)
        outs = []
        for rep in (1, 2):
            out = tmp_path / f"{name}-{rep}"
            code = cli_main([cmd, "--config", str(cfg), "--out", str(out), *extra])
            assert code == 0
            csvs = sorted(p.name for p in out.glob("*.csv"))
            outs.append({p: (out / p).read_bytes() for p in csvs})
        checks.append((name, outs[0] == outs[1] and len(outs[0]) > 0))
    ok = all(c[1] for c in checks)
    report(9, "determinism", ok,
           "byte-identical CSVs on repeat runs: " +
           ", ".join(f"{n}={'yes' if v else 'NO'}" for n, v in checks),
           t0, 120.0)
