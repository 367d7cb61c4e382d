# Nonlinear forward models with the generic projected solver.
#
# Two links over the same random generator prior:
#   sinusoid: y = Ax + sin(Ax), fit with the plain L2 loss;
#   sigmoid:  y = 1/(1+exp(-Ax)), fit with the single-index-model loss
#             (1/m) sum softplus(a_i.x) - y_i a_i.x, whose gradient is
#             (1/m) A^T (sigmoid(Ax) - y).
#
# The sigmoid loss is tiny in this normalization, so its step size comes
# from the sampled smoothness constant (eta = 1/beta) instead of a guess.

import numpy as np

import genprior as gp

SEED = 0
LATENT, HIDDEN, SIGNAL = 4, [32], 32
M = 128
T, T_IN, ETA_IN = 25, 200, 0.05


def solve(link, eta, net, x_star, a):
    model = gp.MeasurementModel(matrix=a, link=link)
    obj = gp.Objective(model, gp.observe(model, x_star))
    cfg = gp.SolverConfig(
        outer_steps=T, step_size=eta,
        projection=gp.ProjectionConfig(inner_steps=T_IN, inner_rate=ETA_IN),
        seed=SEED, ground_truth=x_star)
    return gp.eps_pgd(obj, net, cfg)


def main():
    net = gp.random_generator(LATENT, HIDDEN, SIGNAL, "relu",
                              gp.RngStream(7, spawn_key=(901,)))
    root = gp.RngStream(SEED)
    z_star = root.derive(0).standard_normal(LATENT)
    x_star = gp.forward(net, z_star)
    a = gp.gaussian_matrix(M, SIGNAL, 1.0 / M, root.derive(1, M))

    # sinusoid link: the entrywise map u + sin(u) is monotone, modest step.
    _, tr_sin = solve("sinusoid", 0.1, net, x_star, a)
    print("sinusoid model, eta = 0.1")
    print("  first objective values:",
          np.array2string(tr_sin.objective[:6], precision=4))
    print(f"  final per-pixel error: {tr_sin.final_per_pixel_error:.3e}")

    # sigmoid link: curvature-matched step from the restricted smoothness
    # estimate of the loss over range points.
    model = gp.MeasurementModel(matrix=a, link="sigmoid")
    obj = gp.Objective(model, gp.observe(model, x_star))
    est = gp.rsc_rss_estimate(obj, net, 100, gp.RngStream(SEED, spawn_key=(903,)))
    eta = 1.0 / est.beta
    _, tr_sig = solve("sigmoid", eta, net, x_star, a)
    print(f"\nsigmoid model, eta = 1/beta_hat = {eta:.1f} "
          f"(alpha_hat {est.alpha:.2e}, beta_hat {est.beta:.2e}, "
          f"ratio {est.ratio:.2f})")
    print(f"  final per-pixel error: {tr_sig.final_per_pixel_error:.3e}")


if __name__ == "__main__":
    main()
