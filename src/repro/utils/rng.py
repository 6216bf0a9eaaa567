"""Deterministic random-number plumbing.

All stochastic behaviour in the library is funnelled through
:class:`numpy.random.Generator` instances created here.  Two rules keep
scenarios reproducible:

1. a scenario owns exactly one *root* generator, created by
   :func:`make_rng` from the integer seed in
   :class:`repro.config.ScenarioConfig`;
2. every subsystem (topology generator, vantage-point placement,
   validation compiler, ...) receives its own *child* generator derived
   via :func:`child_rng` with a stable string label, so adding a new
   consumer of randomness never perturbs the streams of existing ones.

The label-based derivation hashes the label into the seed sequence, which
is the mechanism numpy itself recommends for spawning independent
streams.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def make_rng(seed: int) -> np.random.Generator:
    """Create the root generator for a scenario.

    Parameters
    ----------
    seed:
        Any non-negative integer.  The same seed always yields the same
        stream on every platform (PCG64 is platform independent).
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def _label_to_ints(label: str) -> list:
    """Hash a textual label into a list of 32-bit words.

    SHA-256 is used purely as a stable, well-distributed hash; there is
    no security requirement here.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def child_rng(seed: int, label: str) -> np.random.Generator:
    """Derive an independent generator for subsystem ``label``.

    Streams for distinct labels are statistically independent, and the
    stream for a given ``(seed, label)`` pair is stable across library
    versions as long as the label text is unchanged.
    """
    entropy = [seed] + _label_to_ints(label)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def weights_to_cdf(weights: Sequence[float]) -> np.ndarray:
    """The cumulative distribution :func:`draw_from_cdf` reads.

    Built exactly as :meth:`numpy.random.Generator.choice` builds it
    from ``p=w / w.sum()`` — normalise, ``cumsum``, divide by the last
    entry — so a cdf built once draws what ``choice`` would draw on
    every call.

    Raises
    ------
    ValueError
        If a weight is negative, or the weights sum to zero or to a
        non-finite value.
    """
    w = np.asarray(weights, dtype=float)
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not sum to zero")
    if not math.isfinite(total):
        raise ValueError("weights must be finite")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_from_cdf(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """Index drawn from a :func:`weights_to_cdf` distribution.

    Consumes one ``rng.random()`` and returns the index
    ``Generator.choice(len(cdf), p=...)`` returns for it: the stream
    and the generator's state afterwards are the same.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


def weighted_choice(
    rng: np.random.Generator,
    items: Sequence[T],
    weights: Optional[Sequence[float]] = None,
) -> T:
    """Pick one element of ``items``, optionally weighted.

    Works for arbitrary (non-numpy) item types.  Unweighted picks draw
    one ``rng.integers``; weighted picks build the weights' cdf and
    draw from it (:func:`weights_to_cdf`, :func:`draw_from_cdf`) —
    the index and stream of ``Generator.choice(len(items), p=w /
    w.sum())``, without its per-call validation.  Callers that draw
    repeatedly from fixed weights keep the cdf and call
    :func:`draw_from_cdf` directly.

    Raises
    ------
    ValueError
        If ``items`` is empty, ``weights`` has another length, or the
        weights are negative, sum to zero or are not finite.
    """
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    if weights is None:
        index = int(rng.integers(0, len(items)))
        return items[index]
    if len(weights) != len(items):
        raise ValueError(f"got {len(items)} items but {len(weights)} weights")
    return items[draw_from_cdf(rng, weights_to_cdf(weights))]
