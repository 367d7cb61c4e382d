# Does the convergence theory predict what the solver does?  Estimate the
# restricted constants by sampling range-point pairs, place the step size
# inside the admissible window, run the linear solver and compare the
# fitted per-iteration objective factor against the window's prediction
# 1/(eta*gamma) - 1.
#
# The estimates are sample extremes: more pairs push gamma down and rho up
# toward worst-case tails, while a small sample tracks the typical
# directions the iterates actually explore.  Both are printed.

import numpy as np

import genprior as gp

SEED = 0
LATENT, HIDDEN, SIGNAL = 8, [64], 128
M = 64
T, T_IN, ETA_IN = 15, 200, 0.05


def main():
    net = gp.random_generator(LATENT, HIDDEN, SIGNAL, "relu",
                              gp.RngStream(7, spawn_key=(901,)))
    root = gp.RngStream(SEED)
    z_star = root.derive(0).standard_normal(LATENT)
    x_star = gp.forward(net, z_star)
    a = gp.gaussian_matrix(M, SIGNAL, 1.0 / M, root.derive(1, M))
    y = a @ x_star

    print("sampled restricted eigenvalue bounds for A over range differences:")
    print(f"{'pairs':>6} {'gamma_hat':>10} {'rho_hat^2':>10} {'window':>22}")
    for pairs in (15, 100, 500):
        est = gp.empirical_srec(a, net, pairs, gp.RngStream(SEED, spawn_key=(910,)))
        lo, hi = 1 / (2 * est.gamma), 1 / est.gamma
        print(f"{pairs:6d} {est.gamma:10.3f} {est.rho**2:10.3f} "
              f"({lo:.3f}, {hi:.3f})")

    srec = gp.empirical_srec(a, net, 15, gp.RngStream(SEED, spawn_key=(910,)))
    hi = min(1 / srec.gamma, 1 / srec.rho**2)
    eta = 0.5 * (1 / (2 * srec.gamma) + hi)
    window = gp.step_size_window_check(srec, eta)
    print(f"\nchosen eta = {eta:.3f}: in window = {window.in_window}, "
          f"rho^2 < 1/eta = {window.rho_sq_ok}, "
          f"predicted factor = {window.predicted_factor:.3f}")

    cfg = gp.SolverConfig(
        outer_steps=T, step_size=eta,
        projection=gp.ProjectionConfig(inner_steps=T_IN, inner_rate=ETA_IN),
        seed=SEED, ground_truth=x_star)
    _, trace = gp.pgd_linear(y, a, net, cfg)
    alpha_fit = gp.convergence_rate(trace, 1e-8)
    print(f"fitted factor over F > 1e-8: {alpha_fit:.3f} "
          f"(final per-pixel error {trace.final_per_pixel_error:.2e})")

    obj = gp.Objective(gp.MeasurementModel(matrix=a, link="linear"), y)
    est = gp.rsc_rss_estimate(obj, net, 200, gp.RngStream(SEED, spawn_key=(911,)))
    bound, active = gp.contraction_bound_general(est)
    print(f"\ncurvature constants of the loss over range pairs: "
          f"alpha_hat={est.alpha:.3f} beta_hat={est.beta:.3f} "
          f"ratio={est.ratio:.3f}")
    print(f"objective-gap factor from the curvature route: {bound:.3f} "
          f"({active}; meaningful only while the ratio stays below 2)")


if __name__ == "__main__":
    main()
