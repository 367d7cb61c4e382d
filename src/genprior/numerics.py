"""Dense float64 primitives and a seeded, counter-based random stream.

Conventions used throughout the package:

* vectors are 1-D ``numpy.float64`` arrays,
* matrices are 2-D ``numpy.float64`` arrays in row-major (C) order,
* every public operation keeps entries finite; NaN/Inf in an input is a
  caller error and is rejected at the API boundary,
* counts (steps, samples, dimensions, seeds) are integers: a float, even
  2.0, is refused by :func:`as_count`, never truncated,
* real scalars (rates, scales, variances) are finite reals at or above
  their bound (:func:`as_real`): a string, None, NaN or an infinity is
  refused where it enters, not carried into the arrays it scales,
* an array is checked against the length (:func:`as_vector`) or width
  (:func:`as_matrix`) it must match where it enters, not where numpy
  would first trip over it.

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
import math
import numbers
import operator

import numpy as np

__all__ = [
    "RngStream",
    "blas_threads",
    "as_count",
    "as_real",
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
        self.seed = as_count(seed, "seed", low=0)
        self.spawn_key = tuple(as_count(k, "spawn_key entry", low=0)
                               for k in spawn_key)
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

    def permutation(self, n):
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


def as_count(v, name, low=1):
    """``v`` as a Python int >= ``low``.  Python and numpy integers pass; a
    bool, a float (even 2.0) or a string raises ValueError rather than
    truncate."""
    try:
        v = operator.index(None if isinstance(v, bool) else v)  # bool: an int type
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {v!r}") from None
    if v < low:
        raise ValueError(f"need {name} >= {low}, got {v}")
    return v


def as_real(v, name, low=-math.inf, strict=False):
    """``v``, unchanged, when it is a finite real >= ``low`` (> ``low`` when
    ``strict``, as for a rate).  Python and numpy reals pass with their
    bits; a bool, a string, None, NaN or an infinity raises ValueError."""
    try:
        ok = (isinstance(v, numbers.Real) and not isinstance(v, bool)
              and math.isfinite(v) and (v > low if strict else v >= low))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        need = ("finite" if low == -math.inf else
                f"{'positive' if strict else 'nonnegative'} and finite" if low == 0
                else f"finite and {'>' if strict else '>='} {low}")
        raise ValueError(f"{name} must be {need}, got {v!r}")
    return v


def as_vector(x, name="vector", length=None):
    """Coerce to a finite 1-D float64 array of ``length`` entries when
    given, rejecting bad shapes/values."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} length {v.shape[0]} does not match {length}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(a, name="matrix", cols=None):
    """Coerce to a finite 2-D float64 array of ``cols`` columns when given,
    rejecting bad shapes/values."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"{name} width {m.shape[1]} does not match n={cols}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def gaussian_matrix(m, n, variance, rng):
    """m-by-n matrix with i.i.d. Gaussian(0, variance) entries.

    The sensing matrices used by the solvers follow the convention
    ``variance = 1/m`` so that measurement energy matches signal energy in
    expectation.
    """
    m, n = as_count(m, "m"), as_count(n, "n")
    variance = as_real(variance, "variance", low=0)
    g = rng.standard_normal((m, n))
    g *= np.sqrt(variance)  # in place: the bits of sqrt(variance) * g
    return g


# The identity basis is None, never built.  The helpers below give the bits
# of its products with the eye, which turn -0.0 into +0.0 (hence + 0.0).


def _check_orthonormal(b, n=None):
    """Coerce to a finite square matrix with orthonormal columns (``n`` of
    them when given); None, the identity, passes as None."""
    if b is None:
        return None
    b = as_matrix(b, "B", cols=n)
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"basis must be square, got {b.shape}")
    gram = b.T @ b
    gram[np.diag_indices_from(gram)] -= 1.0
    if np.max(np.abs(gram, out=gram)) > _ORTHO_TOL:
        raise ValueError(f"basis is not orthonormal to tolerance {_ORTHO_TOL:g}")
    return b


def _coordinates(b, w):
    """B.T w, the coordinates of w in basis B (w + 0.0 for the identity)."""
    return w + 0.0 if b is None else b.T @ w


def _combination(b, c, support=None, n=None):
    """B c, or B[:, support] @ c when c weighs only the columns ``support``;
    for the identity, c + 0.0, placed at ``support`` in n zeros."""
    if b is not None:
        return b @ c if support is None else b[:, support] @ c
    if support is None:
        return c + 0.0
    v = np.zeros(n)
    v[support] = c + 0.0
    return v


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
    n = None if n is None else as_count(n, "n")
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
                    put(n)
                return before
    return None
