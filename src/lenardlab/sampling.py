"""Seeded point and segment samplers with singular-locus rejection.

All randomness flows through numpy's default Generator (PCG64) seeded
explicitly, so runs are reproducible bit-for-bit for a fixed seed.  The
draw budget ``max_tries`` defaults to 200 draws per requested point or
segment, and at least 10 000.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chartcore import REGULARITY_MARGIN, predicate_rows, singular_segments

DEFAULT_BOX = (0.5, 3.0)
DEFAULT_GAP = 0.05


class SamplingExhaustedError(RuntimeError):
    """Could not find enough regular points within the retry budget."""


def default_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def sample_box(rng: np.random.Generator, count: int, dim: int,
               low: float, high: float) -> np.ndarray:
    return rng.uniform(low, high, size=(count, dim))


def sample_gapped_box(rng: np.random.Generator, count: int, dim: int = 3,
                      low: float = DEFAULT_BOX[0], high: float = DEFAULT_BOX[1],
                      gap: float = DEFAULT_GAP,
                      predicates: np.ndarray = (),
                      margin: float = REGULARITY_MARGIN,
                      max_tries: int | None = None) -> np.ndarray:
    """Uniform points in [low, high]^dim with pairwise coordinate gaps >= gap,
    rejecting points u where |u . c| < margin for a predicate row c.

    Points are drawn in blocks of twice the number still needed, and
    rejected as masks.  The result and the generator's end state are those
    of drawing one point at a time until ``count`` are accepted, or until
    ``max_tries`` draws: the block that completes the count is rewound to
    its last accepted point with the bit generator's ``advance`` (PCG64, as
    made by :func:`default_rng`, has it).
    """
    rows = predicate_rows(predicates, dim)
    max_tries = max(10_000, 200 * count) if max_tries is None else max_tries
    i, j = np.triu_indices(dim, 1)
    parts: list[np.ndarray] = []
    found = tries = 0
    while found < count and tries < max_tries:
        size = min(2 * (count - found), max_tries - tries)
        state = rng.bit_generator.state
        block = rng.uniform(low, high, size=(size, dim))
        regular = ((np.abs(block[:, i] - block[:, j]) >= gap).all(axis=-1)
                   & (np.abs(block @ rows.T) >= margin).all(axis=-1))
        kept = np.flatnonzero(regular)[:count - found]
        parts.append(block[kept])
        found += len(kept)
        tries += size
        if found == count:
            rng.bit_generator.state = state
            rng.bit_generator.advance(int(kept[-1] + 1) * dim)
    if found < count:
        raise SamplingExhaustedError(
            f"found {found}/{count} regular points after {max_tries} draws"
        )
    return np.concatenate([np.empty((0, dim)), *parts])


def sample_segments(rng: np.random.Generator, count: int,
                    predicates: np.ndarray = (),
                    to_ambient: Callable[[np.ndarray], np.ndarray] | None = None,
                    dim: int = 3, low: float = DEFAULT_BOX[0], high: float = DEFAULT_BOX[1],
                    gap: float = DEFAULT_GAP,
                    max_tries: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Straight segments avoiding the singular loci, as the (count, dim)
    arrays of their start and end points.

    Both endpoints are drawn with the same descending coordinate order, which
    keeps every pairwise difference one-signed along the segment; the
    predicate rows are then checked exactly along the whole path
    (:func:`~lenardlab.chartcore.singular_segments`).  ``to_ambient``
    optionally maps draws of shape (..., dim) into the chart the predicates
    live on.

    Segments are drawn and rejected in blocks, as in
    :func:`sample_gapped_box`, and the block that completes the count is
    rewound, so the result and the generator's end state are those of
    drawing one segment at a time.
    """
    rows = predicate_rows(predicates, dim)
    max_tries = max(10_000, 200 * count) if max_tries is None else max_tries
    parts: list[np.ndarray] = []
    found = tries = 0
    while found < count and tries < max_tries:
        size = min(2 * (count - found), max_tries - tries)
        state = rng.bit_generator.state
        block = np.sort(rng.uniform(low, high, size=(size, 2, dim)), axis=-1)[..., ::-1]
        ends = block if to_ambient is None else to_ambient(block)
        regular = ((np.abs(np.diff(block, axis=-1)) >= gap).all(axis=(-2, -1))
                   # avoid degenerate near-zero paths
                   & (np.max(np.abs(block[:, 1] - block[:, 0]), axis=-1) >= gap)
                   & ~singular_segments(rows, ends[:, 0], ends[:, 1]).any(axis=-1))
        kept = np.flatnonzero(regular)[:count - found]
        parts.append(ends[kept])
        found += len(kept)
        tries += size
        if found == count:
            rng.bit_generator.state = state
            rng.bit_generator.advance(int(kept[-1] + 1) * 2 * dim)
    if found < count:
        raise SamplingExhaustedError(
            f"found {found}/{count} regular segments after {max_tries} draws"
        )
    segments = np.concatenate([np.empty((0, 2, dim)), *parts])
    return segments[:, 0], segments[:, 1]
