# Compressive recovery of an in-range signal: projected gradient descent
# (gradient step on ||y - Ax||^2, then approximate projection onto the
# generator's range) versus plain latent-space descent on the same budget.
#
# The target is planted as x* = G(z*), so exact recovery is possible and
# the per-pixel error is an honest convergence measure.

import numpy as np

import genprior as gp

SEED = 3
# Two hidden layers: depth makes the latent landscape genuinely nonconvex,
# which is where alternating gradient/projection steps earn their keep over
# descending in z directly.
LATENT, HIDDEN, SIGNAL = 8, [32, 32], 128
M = 64                  # number of measurements (~ 4 k d)
ETA, T, T_IN = 0.5, 15, 200      # reference protocol: 3000 total updates
ETA_IN = 0.05
CSGM_STEPS, CSGM_RATE = 3000, 0.01


def main():
    net = gp.random_generator(LATENT, HIDDEN, SIGNAL, "relu",
                              gp.RngStream(7, spawn_key=(901,)))
    root = gp.RngStream(SEED)
    z_star = root.derive(0).standard_normal(LATENT)
    x_star = gp.forward(net, z_star)
    a = gp.gaussian_matrix(M, SIGNAL, 1.0 / M, root.derive(1, M))
    y = a @ x_star

    cfg = gp.SolverConfig(
        outer_steps=T, step_size=ETA,
        projection=gp.ProjectionConfig(inner_steps=T_IN, inner_rate=ETA_IN),
        seed=SEED, ground_truth=x_star)
    x_hat, trace = gp.pgd_linear(y, a, net, cfg)

    print(f"planted linear instance: n={SIGNAL} m={M} k={LATENT}")
    print(f"{'t':>3} {'F(x_t)':>12} {'per-pixel err':>14} {'proj residual':>14}")
    for t in range(len(trace)):
        print(f"{t:3d} {trace.objective[t]:12.4e} "
              f"{trace.per_pixel_error[t]:14.4e} {trace.proj_residual[t]:14.4e}")

    alpha_fit = gp.convergence_rate(trace, 1e-8)
    print(f"\nfitted per-iteration objective factor: {alpha_fit:.3f}")

    # Head-to-head on the same 3000-update budget.  Individual seeds are
    # noisy either way (latent descent sometimes gets lucky, sometimes
    # stalls in a bad basin), so compare medians over several targets.
    pgd_errs, csgm_errs = [], []
    for seed in range(10):
        root_s = gp.RngStream(seed)
        x_s = gp.forward(net, root_s.derive(0).standard_normal(LATENT))
        a_s = gp.gaussian_matrix(M, SIGNAL, 1.0 / M, root_s.derive(1, M))
        cfg_s = gp.SolverConfig(
            outer_steps=T, step_size=ETA,
            projection=gp.ProjectionConfig(inner_steps=T_IN, inner_rate=ETA_IN),
            seed=seed, ground_truth=x_s)
        _, tp = gp.pgd_linear(a_s @ x_s, a_s, net, cfg_s)
        _, tc = gp.csgm_baseline(a_s @ x_s, a_s, net, CSGM_STEPS, CSGM_RATE,
                                 gp.RngStream(seed, spawn_key=(905,)), x_star=x_s)
        pgd_errs.append(tp.final_per_pixel_error)
        csgm_errs.append(tc.final_per_pixel_error)
    print(f"\nsame budget ({CSGM_STEPS} updates), median over 10 targets:")
    print(f"  pgd  median per-pixel error: {np.median(pgd_errs):.3e}")
    print(f"  csgm median per-pixel error: {np.median(csgm_errs):.3e}")


if __name__ == "__main__":
    main()
