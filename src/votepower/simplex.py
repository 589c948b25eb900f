"""Uniform sampling on the probability simplex and ordering helpers.

Weight vectors are plain float64 numpy arrays with non-negative entries
summing to one.  Sampling uses the classic construction (normalize n
independent unit exponentials), with the exponentials drawn by inverse
CDF so the mapping from uniforms to draws is explicit and portable.

Reproducibility: the bit generator is numpy's counter-based Philox4x64
keyed directly by ``(seed, stream)``.  Two runs with the same key produce
identical draws on any platform, regardless of how work is chunked or
threaded, because streams never share state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentsError, InvalidDimensionError

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
            value = getattr(self, name)
            if not isinstance(value, int) or not (0 <= value <= _MASK64):
                raise InvalidArgumentsError(
                    f"{name} must be an integer in [0, 2**64)"
                )

    def generator(self) -> np.random.Generator:
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
    if isinstance(seed, RandomSeed):
        return seed
    if isinstance(seed, (int, np.integer)):
        return RandomSeed(int(seed))
    raise InvalidArgumentsError(f"cannot interpret {seed!r} as a random seed")


def as_weight_vector(values, *, normalize: bool = False) -> np.ndarray:
    """Validate ``values`` as a weight vector and return a float64 copy.

    Entries must be finite and non-negative and must sum to 1 within
    ``SUM_TOLERANCE``.  With ``normalize=True`` the input is first divided
    by its exact (fsum) total, which accepts any positive vector.
    """
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
    if n < 1:
        raise InvalidDimensionError("player count must be at least 1")
    if size < 1:
        raise InvalidArgumentsError("size must be at least 1")
    return _simplex_rows(as_seed(seed).generator(), n, size)


def _simplex_rows(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` uniform simplex rows from ``rng``, which the caller may go
    on drawing from."""
    u = rng.random((size, n))
    # U = 1 - u lies in (0, 1], so the log never sees zero.
    exponentials = -np.log1p(-u)
    exponentials /= exponentials.sum(axis=1, keepdims=True)
    return exponentials


def sample_uniform_simplex(n: int, seed) -> np.ndarray:
    """Draw one weight vector uniform on the n-simplex."""
    return sample_uniform_simplex_batch(n, 1, seed)[0]


@dataclass(frozen=True, eq=False)
class OrderedWeights:
    """A descending-sorted weight vector plus the permutation that made it.

    ``permutation[k]`` is the source index whose weight landed at rank k,
    so ``weights == source[permutation]`` exactly.
    """

    weights: np.ndarray
    permutation: np.ndarray

    def restore(self) -> np.ndarray:
        """Invert the sort, recovering the source vector bit for bit."""
        out = np.empty_like(self.weights)
        out[self.permutation] = self.weights
        return out


def order_descending(weights) -> OrderedWeights:
    """Sort a weight vector in non-increasing order.

    Ties keep their original relative order (stable sort on the negated
    values), so the permutation is deterministic for any input.
    """
    w = as_weight_vector(weights)
    perm = np.argsort(-w, kind="stable")
    ordered = w[perm]
    ordered.setflags(write=False)
    perm.setflags(write=False)
    return OrderedWeights(ordered, perm)


def renyi_partial_sums(weights) -> np.ndarray:
    """Map a weight vector to the vector with k-th entry sum_{j>=k} w_j / j.

    For W uniform on the simplex this has the same joint distribution as
    the descending order statistics of W, which gives a cheap statistical
    oracle for the sampler: ordered draws and transformed draws must be
    indistinguishable.  Entries are non-increasing and sum to 1.
    """
    w = as_weight_vector(weights)
    n = w.size
    scaled = w / np.arange(1, n + 1, dtype=np.float64)
    out = np.cumsum(scaled[::-1])[::-1].copy()
    out.setflags(write=False)
    return out
