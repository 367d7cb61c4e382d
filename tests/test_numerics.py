import numpy as np
import pytest

from genprior import RngStream, gaussian_matrix
from genprior.numerics import _check_orthonormal


def test_zero_variance_gives_zero_matrix():
    a = gaussian_matrix(2, 3, 0.0, RngStream(123))
    assert a.shape == (2, 3)
    assert np.all(a == 0.0)


def test_gaussian_moments_match_target():
    # 100x784 at variance 1/100: sample mean near 0, sample variance
    # within 20% of 0.01 (relative sd of the variance is ~0.5% here).
    a = gaussian_matrix(100, 784, 1.0 / 100, RngStream(7))
    assert abs(np.mean(a)) < 0.01
    assert abs(np.var(a) - 0.01) < 0.2 * 0.01


def test_gaussian_matrix_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        gaussian_matrix(0, 3, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        gaussian_matrix(3, 0, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        gaussian_matrix(3, 3, -1.0, RngStream(0))


def test_gaussian_matrix_reproducible_bitwise():
    a = gaussian_matrix(20, 30, 0.5, RngStream(99))
    b = gaussian_matrix(20, 30, 0.5, RngStream(99))
    assert np.array_equal(a, b)


def test_gaussian_matrix_scales_the_draw_in_place_with_its_bits():
    a = gaussian_matrix(20, 30, 1.0 / 7, RngStream(99))
    want = np.sqrt(1.0 / 7) * RngStream(99).standard_normal((20, 30))
    assert a.tobytes() == want.tobytes()


@pytest.mark.parametrize("eps, accepted", [(5e-9, True), (2e-8, False)])
def test_orthonormal_check_holds_its_tolerance(eps, accepted):
    # Column 0 scaled by sqrt(1 + eps) moves (B.T B)[0, 0] to 1 + eps and
    # every other Gram entry by rounding only; the tolerance is 1e-8.
    q, r = np.linalg.qr(RngStream(31).standard_normal((32, 32)))
    b = q * np.sign(np.diag(r))
    b[:, 0] *= np.sqrt(1.0 + eps)
    if accepted:
        assert _check_orthonormal(b, 32) is not None
    else:
        with pytest.raises(ValueError, match=r"^basis is not orthonormal to "
                                              r"tolerance 1e-08$"):
            _check_orthonormal(b, 32)


def test_derived_streams_are_stable_and_distinct():
    root = RngStream(5)
    d1 = root.derive(1).standard_normal(8)
    d2 = root.derive(2).standard_normal(8)
    d1_again = RngStream(5).derive(1).standard_normal(8)
    assert np.array_equal(d1, d1_again)
    assert not np.array_equal(d1, d2)
