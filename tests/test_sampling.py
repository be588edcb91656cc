"""The block rejection samplers against the one-draw-at-a-time loops they
replace: the same points or segments, the same exhaustion and the same
generator state afterwards, so later draws from the stream do not move."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenardlab import equivariant as eq
from lenardlab.chartcore import REGULARITY_MARGIN
from lenardlab.sampling import (
    SamplingExhaustedError,
    default_rng,
    sample_gapped_box,
    sample_segments,
)
from lenardlab.wdvv import VeselovPotential, veselov_prepotential


def one_draw_at_a_time(rng, count, dim, low, high, gap, predicates, max_tries):
    """The reference: draw one point per try and test it on its own."""
    rows = np.asarray(predicates, dtype=float).reshape(-1, dim)
    out, tries = [], 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise SamplingExhaustedError(
                f"found {len(out)}/{count} regular points after {max_tries} draws")
        u = rng.uniform(low, high, size=dim)
        diffs = np.abs(u[:, None] - u[None, :])[np.triu_indices(dim, 1)]
        if diffs.size and np.min(diffs) < gap:
            continue
        if (np.abs(rows @ u) < REGULARITY_MARGIN).any():
            continue
        out.append(u)
    return np.array(out)


def outcome(sampler, seed, **kwargs):
    """(points or the exhaustion message, generator state afterwards)."""
    rng = default_rng(seed)
    try:
        result = sampler(rng, **kwargs)
    except SamplingExhaustedError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


@st.composite
def sampler_args(draw):
    dim = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                         max_size=4))
    # |u . c| < m is |u . (c * 1e-3 / m)| < 1e-3: rows scaled so, the margin
    # of 1e-3 rejects as a margin m would
    margin = draw(st.sampled_from((1e-3, 0.05, 0.5)))
    return {
        "count": draw(st.integers(1, 60)),
        "dim": dim,
        "low": 0.5,
        "high": 3.0,
        "gap": draw(st.sampled_from((0.0, 0.05, 0.3, 0.7))),
        "predicates": np.array(rows, dtype=float).reshape(-1, dim) * (REGULARITY_MARGIN / margin),
        "max_tries": draw(st.integers(1, 400)),
    }


ZERO_ROW = {"count": 5, "dim": 3, "low": 0.5, "high": 3.0, "gap": 0.05,
            "predicates": np.zeros((1, 3)), "max_tries": 50}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), args=sampler_args())
@example(seed=3, args=ZERO_ROW)
@example(seed=4, args={**ZERO_ROW, "predicates": np.empty((0, 3)), "gap": 0.7,
                       "max_tries": 30})
def test_block_sampler_matches_one_draw_at_a_time(seed, args):
    points, state = outcome(sample_gapped_box, seed, **args)
    expected, expected_state = outcome(one_draw_at_a_time, seed, **args)
    if isinstance(expected, str):
        assert points == expected
    else:
        assert points.shape == expected.shape
        np.testing.assert_array_equal(points, expected)
    assert state == expected_state


def test_zero_row_rejects_every_point():
    with pytest.raises(SamplingExhaustedError, match="found 0/5 regular points after 50 draws"):
        sample_gapped_box(default_rng(3), **ZERO_ROW)


def test_default_budget_grows_with_the_count():
    # about 88 % of these draws are regular, so 20 000 points take about
    # 22 700 draws; a fixed budget of 10 000 draws stopped at 8844 points
    args = {"count": 20_000, "dim": 3, "low": 0.5, "high": 3.0, "gap": 0.05,
            "predicates": veselov_prepotential(VeselovPotential(3, 2.0)).predicates}
    points, state = outcome(sample_gapped_box, 42, **args)
    expected, expected_state = outcome(one_draw_at_a_time, 42, **args, max_tries=10**6)
    np.testing.assert_array_equal(points, expected)
    assert state == expected_state


def segments_one_draw_at_a_time(rng, count, predicates, to_ambient, dim, low, high, gap,
                                max_tries):
    """The reference: draw one segment per try and test it on its own."""
    rows = np.asarray(predicates, dtype=float).reshape(-1, dim)
    starts, ends, tries = [], [], 0
    while len(starts) < count:
        tries += 1
        if tries > max_tries:
            raise SamplingExhaustedError(
                f"found {len(starts)}/{count} regular segments after {max_tries} draws")
        u0 = np.sort(rng.uniform(low, high, size=dim))[::-1]
        u1 = np.sort(rng.uniform(low, high, size=dim))[::-1]
        if min(np.min(np.abs(np.diff(u0))), np.min(np.abs(np.diff(u1)))) < gap:
            continue
        if np.max(np.abs(u1 - u0)) < gap:
            continue
        if to_ambient is not None:
            u0, u1 = to_ambient(u0), to_ambient(u1)
        v0, v1 = rows @ u0, rows @ u1
        if ((np.minimum(np.abs(v0), np.abs(v1)) < REGULARITY_MARGIN) | (v0 * v1 < 0.0)).any():
            continue
        starts.append(u0)
        ends.append(u1)
    return np.array(starts).reshape(-1, dim), np.array(ends).reshape(-1, dim)


SYMMETRIC = np.array([[2.0, 0.5, -0.25], [0.5, 1.0, 0.75], [-0.25, 0.75, 3.0]])


@st.composite
def segment_args(draw):
    dim = draw(st.sampled_from((2, 3)))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                         max_size=4))
    mapped = dim == 3 and draw(st.booleans())
    return {
        "count": draw(st.integers(1, 40)),
        "dim": dim,
        "low": 0.5,
        "high": 3.0,
        "gap": draw(st.sampled_from((0.0, 0.05, 0.3))),
        "predicates": np.array(rows, dtype=float).reshape(-1, dim),
        # einsum sums in the same order at any batch size, so the map itself
        # gives the same bits in both samplers
        "to_ambient": (lambda a: np.einsum("...i,ij->...j", a, SYMMETRIC)) if mapped else None,
        "max_tries": draw(st.integers(1, 400)),
    }


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), args=segment_args())
@example(seed=3, args={"count": 5, "dim": 3, "low": 0.5, "high": 3.0, "gap": 0.05,
                       "predicates": np.zeros((1, 3)), "to_ambient": None, "max_tries": 50})
def test_block_segment_sampler_matches_one_draw_at_a_time(seed, args):
    segments, state = outcome(sample_segments, seed, **args)
    expected, expected_state = outcome(segments_one_draw_at_a_time, seed, **args)
    if isinstance(expected, str):
        assert segments == expected
    else:
        for got, want in zip(segments, expected):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
    assert state == expected_state


@pytest.mark.parametrize("seed", range(10))
def test_example3_segments_are_those_of_the_per_point_map(seed):
    params, _ = eq.example3_fixture()
    cx = eq.assemble_complex(params)
    h = params.quad.hessian()
    preds = np.concatenate([eq.square_form_in_x(cx, j, l).predicates
                            for j in range(3) for l in range(j, 3)])
    args = {"count": 40, "predicates": preds, "dim": 3, "low": 0.5, "high": 3.0,
            "gap": 0.05, "max_tries": 10_000}
    segments, state = outcome(sample_segments, seed, **args, to_ambient=lambda a: a @ h)
    expected, expected_state = outcome(segments_one_draw_at_a_time, seed, **args,
                                       to_ambient=lambda a: h @ a)
    for got, want in zip(segments, expected):
        np.testing.assert_array_equal(got, want)
    assert state == expected_state


def test_segment_sampler_maps_every_endpoint_of_a_batch():
    # a batch of exactly three segments is where h @ a would go wrong
    u0, u1 = sample_segments(default_rng(1), 3)
    v0, v1 = sample_segments(default_rng(1), 3, to_ambient=lambda a: a @ SYMMETRIC)
    np.testing.assert_allclose(v0, [SYMMETRIC @ u for u in u0], rtol=1e-15)
    np.testing.assert_allclose(v1, [SYMMETRIC @ u for u in u1], rtol=1e-15)
