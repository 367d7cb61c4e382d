"""Dense float64 primitives and a seeded, counter-based random stream.

Conventions used throughout the package:

* vectors are 1-D ``numpy.float64`` arrays,
* matrices are 2-D ``numpy.float64`` arrays in row-major (C) order,
* every public operation keeps entries finite; NaN/Inf in an input is a
  caller error and is rejected at the API boundary.

Randomness is always drawn from an explicit :class:`RngStream`, never from
global state.  The stream is backed by numpy's Philox counter-based bit
generator keyed through ``SeedSequence(seed, spawn_key)``, so the same seed
reproduces the same draws bit-for-bit and independent child streams can be
derived for parallel work without coordination.

:func:`blas_threads` reads and sets the thread count of the OpenBLAS that
numpy loaded, so processes that share the CPUs need not oversubscribe them.
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = [
    "RngStream",
    "blas_threads",
    "as_vector",
    "as_matrix",
    "gaussian_matrix",
]

# Largest |B.T B - I| entry accepted from an orthonormal basis.
_ORTHO_TOL = 1e-8


class RngStream:
    """Deterministic random stream: Philox keyed by (seed, spawn_key).

    One stream is single-owner: draws advance its counter, so concurrent
    draws from a shared instance are not allowed.  Use :meth:`derive` to
    split off statistically independent children for parallel cells.
    """

    def __init__(self, seed, spawn_key=()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def derive(self, *indices):
        """Child stream keyed by this stream's identity plus `indices`.

        Derivation depends only on (seed, spawn_key, indices), never on how
        many draws the parent has made, so derived streams are stable under
        reordering of work.
        """
        return RngStream(self.seed, self.spawn_key + tuple(indices))

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low=low, high=high, size=size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


def as_vector(x, name="vector"):
    """Coerce to a finite 1-D float64 array, rejecting bad shapes/values."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float64 array, rejecting bad shapes/values."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def gaussian_matrix(m, n, variance, rng):
    """m-by-n matrix with i.i.d. Gaussian(0, variance) entries.

    The sensing matrices used by the solvers follow the convention
    ``variance = 1/m`` so that measurement energy matches signal energy in
    expectation.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m}x{n}")
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    return np.sqrt(variance) * rng.standard_normal((m, n))


def _check_orthonormal(b):
    """Coerce to a finite square matrix with orthonormal columns."""
    b = as_matrix(b, "B")
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"basis must be square, got {b.shape}")
    if np.max(np.abs(b.T @ b - np.eye(b.shape[0]))) > _ORTHO_TOL:
        raise ValueError(f"basis is not orthonormal to tolerance {_ORTHO_TOL:g}")
    return b


# Thread-count entry points of numpy's OpenBLAS: the symbol-suffixed names of
# the scipy-openblas wheels, then those of a plain OpenBLAS build.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def blas_threads(n=None):
    """The thread count of numpy's OpenBLAS pool, read before setting it to
    ``n`` when ``n`` is given; None, and nothing set, where no OpenBLAS is
    loaded (it is found among this process's mappings, so Linux only).

    The count decides only how BLAS splits a product across threads: the
    package makes no call whose bits depend on it (see README, Determinism).
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return None
    for path in sorted(p for p in paths
                       if p.startswith("/") and "openblas" in p.rsplit("/", 1)[1]):
        lib = ctypes.CDLL(path)  # already loaded: this only finds its handle
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                if n is not None:
                    put(int(n))
                return before
    return None
