"""Seeded point and segment samplers with singular-locus rejection.

All randomness flows through numpy's default Generator (PCG64) seeded
explicitly, so runs are reproducible bit-for-bit for a fixed seed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chartcore import (
    REGULARITY_MARGIN,
    SingularSegmentError,
    assert_segment_regular,
    predicate_rows,
)

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
                      max_tries: int = 10_000) -> np.ndarray:
    """Uniform points in [low, high]^dim with pairwise coordinate gaps >= gap,
    rejecting points u where |u . c| < margin for a predicate row c."""
    rows = predicate_rows(predicates, dim)
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise SamplingExhaustedError(
                f"found {len(out)}/{count} regular points after {max_tries} draws"
            )
        u = rng.uniform(low, high, size=dim)
        diffs = np.abs(u[:, None] - u[None, :])[np.triu_indices(dim, 1)]
        if diffs.size and np.min(diffs) < gap:
            continue
        if (np.abs(rows @ u) < margin).any():
            continue
        out.append(u)
    return np.array(out)


def sample_segments(rng: np.random.Generator, count: int,
                    predicates: np.ndarray = (),
                    to_ambient: Callable[[np.ndarray], np.ndarray] | None = None,
                    dim: int = 3, low: float = DEFAULT_BOX[0], high: float = DEFAULT_BOX[1],
                    gap: float = DEFAULT_GAP,
                    max_tries: int = 10_000) -> list[tuple[np.ndarray, np.ndarray]]:
    """Straight segments avoiding the singular loci.

    Both endpoints are drawn with the same descending coordinate order, which
    keeps every pairwise difference one-signed along the segment; the
    predicate rows are then checked exactly along the whole path.
    ``to_ambient`` optionally maps draws into the chart the predicates live on.
    """
    rows = predicate_rows(predicates, dim)
    segments: list[tuple[np.ndarray, np.ndarray]] = []
    tries = 0
    while len(segments) < count:
        tries += 1
        if tries > max_tries:
            raise SamplingExhaustedError(
                f"found {len(segments)}/{count} regular segments after {max_tries} draws"
            )
        u0 = np.sort(rng.uniform(low, high, size=dim))[::-1]
        u1 = np.sort(rng.uniform(low, high, size=dim))[::-1]
        diffs0 = np.abs(np.diff(u0))
        diffs1 = np.abs(np.diff(u1))
        if np.min(diffs0) < gap or np.min(diffs1) < gap:
            continue
        if np.max(np.abs(u1 - u0)) < gap:  # avoid degenerate near-zero paths
            continue
        if to_ambient is not None:
            u0, u1 = to_ambient(u0), to_ambient(u1)
        try:
            assert_segment_regular(rows, u0, u1)
        except SingularSegmentError:
            continue
        segments.append((u0, u1))
    return segments
