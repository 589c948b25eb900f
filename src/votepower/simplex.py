"""Uniform sampling on the probability simplex, and the package's input
checks.

Every result is a function of a player count n and a quota q, and this
module alone decides what those may be.  ``as_player_count`` takes an
integer n >= 1, not a bool, and returns a Python int, so arithmetic on n
stays exact; ``as_count`` checks every other integer (samples, workers,
budgets, seeds and streams, moment exponents) the same way, and
``as_rank`` a rank k in 1..n.  ``as_quota`` and ``as_quota_grid`` take
quotas in (1/2, 1], a grid non-empty and strictly increasing.  These
checks are plain Python, so the closed forms that call them load no
numpy; the functions that build arrays or sample import it themselves.

Weight vectors are plain float64 numpy arrays with non-negative entries
summing to one.  Sampling uses the classic construction (normalize n
independent unit exponentials), with the exponentials drawn by inverse
CDF so the mapping from uniforms to draws is explicit and portable.

Reproducibility: the bit generator is numpy's counter-based Philox4x64
keyed directly by ``(seed, stream)``.  Two runs with the same key draw
identical uniforms on any platform, regardless of how work is chunked or
threaded, because streams never share state.  On one host the weights
are identical too; across hosts their last bits follow numpy's ``log1p``,
which numpy dispatches to SIMD kernels by CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import InvalidArgumentsError, InvalidDimensionError, InvalidRankError

SUM_TOLERANCE = 1e-12

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RandomSeed:
    """A (seed, stream) pair identifying one reproducible draw sequence.

    ``stream`` selects an independent substream for the same seed.  For
    chunked estimators, keep user-facing streams below 2**32: substream
    ids pack the parent stream into the high 32 bits and the chunk index
    into the low 32 bits.
    """

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = as_count(getattr(self, name), name, minimum=0)
            if value > _MASK64:
                raise InvalidArgumentsError(f"{name} must be below 2**64")
            object.__setattr__(self, name, value)  # a Python int, even from numpy

    def generator(self) -> np.random.Generator:
        import numpy as np

        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RandomSeed":
        """Derived seed for chunk ``index``; deterministic and collision-free."""
        if not (0 <= index < (1 << 32)):
            raise InvalidArgumentsError("substream index must be in [0, 2**32)")
        if self.stream >= (1 << 32):
            raise InvalidArgumentsError(
                "substream derivation requires a parent stream below 2**32"
            )
        return RandomSeed(self.seed, (self.stream << 32) | index)


def as_seed(seed) -> RandomSeed:
    """Coerce an int or RandomSeed into a RandomSeed."""
    return seed if isinstance(seed, RandomSeed) else RandomSeed(seed)


def as_count(value, what: str, *, minimum: int = 1, error=InvalidArgumentsError) -> int:
    """``value`` as a Python int, checked to be an integer (Python or numpy,
    not a bool) of at least ``minimum``; ``what`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{what} must be at least {minimum}")
    return int(value)


def as_player_count(n) -> int:
    """``n`` as a Python int player count of at least 1.  A numpy integer
    becomes a Python int, so binomial weights and 2^n stay exact."""
    return as_count(n, "player count", error=InvalidDimensionError)


def as_rank(k, n: int) -> int:
    """``k`` as a Python int order-statistic rank, checked to be an integer
    in 1..n."""
    if as_count(k, "rank k", error=InvalidRankError) > n:
        raise InvalidRankError(f"rank k must be at most {n}, got {k!r}")
    return int(k)


def as_quota(q) -> float:
    """``q`` as a float, checked to lie in (1/2, 1]; NaN fails."""
    q = float(q)
    if not (0.5 < q <= 1.0):
        raise InvalidArgumentsError(f"quota must lie in (1/2, 1], got {q!r}")
    return q


def _quota_values(quotas) -> list[float]:
    """``quotas`` as a list of floats, checked to be non-empty, strictly
    increasing and inside (1/2, 1]."""
    grid = [float(q) for q in quotas]
    # Negated comparisons, so that a NaN quota fails them.
    if not grid or not all(a < b for a, b in zip(grid, grid[1:])):
        raise InvalidArgumentsError("quota grid must be non-empty and strictly increasing")
    if not (0.5 < grid[0] and grid[-1] <= 1.0):
        raise InvalidArgumentsError("quota grid must lie in (1/2, 1]")
    return grid


def as_quota_grid(quotas) -> np.ndarray:
    """``quotas`` as a float64 grid, checked to be non-empty, strictly
    increasing and inside (1/2, 1]."""
    import numpy as np

    grid = np.asarray(quotas, dtype=np.float64).reshape(-1)
    _quota_values(grid.tolist())
    return grid


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` in Python floats, by its own
    formula: entry i is i * step + start, and the last entry is stop."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _default_quotas() -> list[float]:
    return _linspace(0.505, 0.995, 99) + [1.0]


def default_quota_grid() -> np.ndarray:
    """99 equispaced quotas from 0.505 to 0.995, plus the unanimity point."""
    import numpy as np

    return np.array(_default_quotas())


def as_weight_vector(values, *, normalize: bool = False) -> np.ndarray:
    """Validate ``values`` as a weight vector and return a float64 copy.

    Entries must be finite and non-negative and must sum to 1 within
    ``SUM_TOLERANCE``.  With ``normalize=True`` the input is first divided
    by its exact (fsum) total, which accepts any positive vector.
    """
    import numpy as np

    w = np.array(values, dtype=np.float64).reshape(-1)
    if w.size < 1:
        raise InvalidDimensionError("a weight vector needs at least one entry")
    if not np.all(np.isfinite(w)):
        raise InvalidArgumentsError("weights must be finite")
    if np.any(w < 0):
        raise InvalidArgumentsError("weights must be non-negative")
    total = math.fsum(w.tolist())
    if normalize:
        if total <= 0:
            raise InvalidArgumentsError("cannot normalize a zero weight vector")
        w = w / total
        total = math.fsum(w.tolist())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidArgumentsError(
            f"weights must sum to 1 within {SUM_TOLERANCE:g} (got {total!r})"
        )
    w.setflags(write=False)
    return w


def sample_uniform_simplex_batch(n: int, size: int, seed) -> np.ndarray:
    """Draw ``size`` weight vectors uniform on the n-simplex, shape (size, n).

    Each row is built as e_i / sum(e) from unit exponentials
    e = -log(U), U uniform on (0, 1].  Row sums are taken with numpy's
    pairwise summation, which keeps |sum - 1| well below SUM_TOLERANCE
    for any practical n.
    """
    n, size = as_player_count(n), as_count(size, "size")
    return _simplex_rows(as_seed(seed).generator(), n, size)


def _simplex_rows(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` uniform simplex rows from ``rng``, which the caller may go
    on drawing from."""
    import numpy as np

    u = rng.random((size, n))
    # U = 1 - u lies in (0, 1], so the log never sees zero.
    exponentials = -np.log1p(-u)
    exponentials /= exponentials.sum(axis=1, keepdims=True)
    return exponentials


def renyi_partial_sums(weights) -> np.ndarray:
    """Map a weight vector to the vector with k-th entry sum_{j>=k} w_j / j.

    For W uniform on the simplex this has the same joint distribution as
    the descending order statistics of W, which gives a cheap statistical
    oracle for the sampler: ordered draws and transformed draws must be
    indistinguishable.  Entries are non-increasing and sum to 1.
    """
    import numpy as np

    w = as_weight_vector(weights)
    n = w.size
    scaled = w / np.arange(1, n + 1, dtype=np.float64)
    out = np.cumsum(scaled[::-1])[::-1].copy()
    out.setflags(write=False)
    return out
