"""Lockstep groups against one cell at a time.

A sweep steps every (m, seed) cell of a solver as one group: the baselines
as one (S, 1, k) latent block, measured once per run of cells with equal
m, the projected solvers with one projection block per outer step.  Every
cell of a group must have the bits of its own single-cell run, also when
the cells have different m and when another cell of the group diverges
and is held.
"""

import numpy as np
import pytest

from genprior import (
    MeasurementModel,
    Objective,
    ProjectionConfig,
    RngStream,
    SolverConfig,
    csgm_baseline,
    dpr_baseline,
    myopic_eps_pgd,
    pgd_linear,
    phase_pgd,
)
from genprior.solvers import (
    _Cell,
    _latent_descent,
    _projected_descent,
)
from conftest import planted_linear

TRACE_COLUMNS = ("objective", "per_pixel_error", "sign_error", "proj_residual",
                 "phase_flips")
SEEDS = (40, 41, 42)
# The cells' measurement counts: one m for the group, one m per cell, and
# a run of two equal m that holds the diverging middle cell.
EQUAL_M, MIXED_M = (48, 48, 48), [(24, 48, 36), (36, 24, 24)]


def assert_same_run(trace, ref, x_ref):
    for col in TRACE_COLUMNS:
        assert np.array_equal(getattr(trace, col), getattr(ref, col), equal_nan=True)
    assert np.array_equal(trace.x_hat, x_ref)
    assert trace.inner_updates == ref.inner_updates


def instances(net, ms=EQUAL_M):
    return [planted_linear(net, m, seed) for m, seed in zip(ms, SEEDS)]


def group_params(name, values):
    """``values`` at EQUAL_M under their plain ids, then at each MIXED_M."""
    return pytest.mark.parametrize(f"{name},ms", [
        *(pytest.param(v, EQUAL_M, id=str(v)) for v in values),
        *(pytest.param(v, ms, id=f"{v}-m{'_'.join(map(str, ms))}")
          for ms in MIXED_M for v in values)])


def solver_cfg(seed, x_star, eta, restarts):
    return SolverConfig(outer_steps=4, step_size=eta, seed=seed, ground_truth=x_star,
                        projection=ProjectionConfig(inner_steps=20, inner_rate=0.05,
                                                    restarts=restarts))


def cell(obj, cfg):
    """The lockstep cell of a one-cell solve from 0 under cfg."""
    return _Cell(obj, cfg.step_size, cfg.seed, x_star=cfg.ground_truth)


@pytest.mark.parametrize("links", [("linear", "magnitude"), ("sigmoid",)],
                         ids=["mixed", "sigmoid"])
def test_latent_group_takes_its_loss_from_one_baseline_link(desk_net, links):
    # The cells' link picks the latent loss, so a group that mixes links,
    # or whose link has no latent baseline, is refused before any step.
    cells = [_Cell(Objective(MeasurementModel(a, link), np.abs(y)), 0.01, seed,
                   np.zeros(desk_net.latent_dim))
             for link, (_, _, a, y), seed in zip(links, instances(desk_net), SEEDS)]
    with pytest.raises(ValueError, match="one link: linear or magnitude"):
        _latent_descent(desk_net, 5, 0.01, cells)


@group_params("kind", ["squared", "magnitude"])
def test_latent_group_holds_a_diverging_cell_alone(desk_net, kind, ms):
    # The middle cell's observations are so large that its loss overflows
    # from the start, so every one of its steps is held; the cells around
    # it keep descending.
    baseline = csgm_baseline if kind == "squared" else dpr_baseline
    cells, refs = [], []
    for i, (seed, (_, x_star, a, y)) in enumerate(zip(SEEDS,
                                                      instances(desk_net, ms))):
        y = np.abs(y) if kind == "magnitude" else y
        if i == 1:
            y = 1e155 * y
        link = "linear" if kind == "squared" else "magnitude"
        cells.append(_Cell(Objective(MeasurementModel(a, link), y), 0.01, seed,
                           RngStream(seed).standard_normal(desk_net.latent_dim),
                           x_star))
        refs.append(baseline(y, a, desk_net, 60, 0.01, RngStream(seed),
                             x_star=x_star))
    traces = _latent_descent(desk_net, 60, 0.01, cells)
    moved = [np.count_nonzero(np.diff(t.per_pixel_error)) for t in traces]
    assert moved[1] == 0 and np.all(np.isinf(traces[1].objective))
    assert moved[0] == moved[2] == 60
    for trace, (x_ref, ref) in zip(traces, refs):
        assert_same_run(trace, ref, x_ref)
    # Each cell's columns are its own: writing one cell's trace leaves the
    # others alone.
    for col in TRACE_COLUMNS:
        assert not np.shares_memory(getattr(traces[0], col), getattr(traces[2], col))


@group_params("restarts", [1, 3])
@pytest.mark.parametrize("solver", ["pgd_linear", "phase_pgd", "myopic_eps_pgd"])
def test_projected_group_holds_a_cell_without_range_point(desk_net, solver,
                                                          restarts, ms):
    # eta = 1e300 on the middle cell keeps its gradient step finite, but no
    # range point lies at a finite distance from it: that cell's projection
    # comes back empty inside the block, and the cell holds alone.
    cells, refs, sparse = [], [], None
    for i, (seed, (_, x_star, a, y)) in enumerate(zip(SEEDS,
                                                      instances(desk_net, ms))):
        cfg = solver_cfg(seed, x_star, 1e300 if i == 1 else 0.7, restarts)
        if solver == "pgd_linear":
            cells.append(cell(Objective(MeasurementModel(matrix=a, link="linear"), y),
                              cfg))
            refs.append(pgd_linear(y, a, desk_net, cfg))
        elif solver == "phase_pgd":
            x0 = x_star + 0.1 * RngStream(seed, spawn_key=(3,)).standard_normal(
                desk_net.output_dim)
            cells.append(_Cell(Objective(MeasurementModel(a, "magnitude"), np.abs(y)),
                               cfg.step_size, seed, x0, x_star))
            refs.append(phase_pgd(np.abs(y), a, desk_net, cfg, x0))
        else:
            obj = Objective(MeasurementModel(matrix=a, link="linear"), y)
            basis = np.eye(desk_net.output_dim)
            cells.append(cell(obj, cfg))
            sparse = (basis, 5)
            refs.append(myopic_eps_pgd(obj, desk_net, basis, 5, cfg)[3])
    traces = _projected_descent(desk_net, cells, cfg.outer_steps, cfg.projection,
                                sparse)
    assert np.all(np.isnan(traces[1].proj_residual))
    assert not np.any(np.isnan(traces[0].proj_residual[1:]))
    for trace, ref in zip(traces, refs):
        if solver != "myopic_eps_pgd":
            x_ref, ref = ref
        else:
            x_ref = ref.x_hat
            for block in ("u", "v"):
                assert np.array_equal(trace.extras[block], ref.extras[block])
        assert_same_run(trace, ref, x_ref)


def test_projected_group_skips_a_cell_whose_step_overflows(desk_net):
    # eta = 1e308 overflows the middle cell's gradient step: it leaves the
    # projection block (and counts no inner updates) while the other cells
    # project as a block of two.
    cells, refs = [], []
    for i, (seed, (_, x_star, a, y)) in enumerate(zip(SEEDS, instances(desk_net))):
        cfg = solver_cfg(seed, x_star, 1e308 if i == 1 else 0.7, 2)
        cells.append(cell(Objective(MeasurementModel(matrix=a, link="linear"), y),
                          cfg))
        refs.append(pgd_linear(y, a, desk_net, cfg))
    traces = _projected_descent(desk_net, cells, cfg.outer_steps, cfg.projection)
    assert traces[1].inner_updates == 0
    for trace, (x_ref, ref) in zip(traces, refs):
        assert_same_run(trace, ref, x_ref)
