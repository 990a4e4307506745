import numpy as np
import pytest

from pmcmc_lab import SubstreamRng
from pmcmc_lab.errors import IndexOutOfRange
from pmcmc_lab.rng import _PHILOX_W, _counter, _words


@pytest.mark.parametrize(
    "coords",
    [
        (-1,),                # masks to step 2^64 - 1
        (0, -1),
        (0, 0, -1),
        (0, 0, 0, -1),
        (2**64,),             # wraps to step 0
        (0, 2**64),
        (0, 0, 2**48),        # shifts out of the particle field onto (0, 0, 0, 0)
        (0, 0, 0, 2**16),     # spills into the particle field
        (0, 0, 0, 0, 0),
    ],
)
def test_stream_rejects_aliasing_coordinates(coords):
    # Each address would share its Philox counter with another stream; a
    # step block refuses it too, in its counter words or in its base.
    with pytest.raises(IndexOutOfRange):
        SubstreamRng(1).stream(*coords)
    with pytest.raises(IndexOutOfRange):
        step, *rest = coords
        SubstreamRng(1).step_blocks([(_counter((0, *rest))[:-1], 1)], step, 1)


@pytest.mark.parametrize(
    "coords",
    [(), (0,), (3, 1, 0, 2), (2**64 - 1, 2**64 - 1, 2**48 - 1, 2**16 - 1), (7, 0, 5)],
)
def test_uniforms_equal_a_fresh_stream(coords):
    # The re-positioned generator of step_blocks starts where a fresh one
    # does, whatever was drawn from it before (a partly used buffer, after a
    # read of odd width, included) and after a call refused for an aliasing
    # base.
    rng = SubstreamRng(12)
    step, *rest = (*coords, 0)
    words, odd = _counter((0, *rest[:3]))[:-1], [(_words(0, 0), 7)]
    for shape in ((1, 1), (1, 3), (2, 5), (4, 1)):
        next(rng.step_blocks(odd, 9, 1))
        want = rng.stream(*coords).random(shape)
        assert np.array_equal(next(rng.step_blocks([(words, shape[1])], step, shape[0])), want)
        next(rng.step_blocks(odd, 9, 1))
        with pytest.raises(IndexOutOfRange):
            rng.step_blocks([(words, shape[1])], 2**64, shape[0])
        assert np.array_equal(next(rng.step_blocks([(words, shape[1])], step, shape[0])), want)


def test_negative_seed_or_spawn_index_is_refused():
    with pytest.raises(IndexOutOfRange):
        SubstreamRng(-1)
    with pytest.raises(IndexOutOfRange):
        SubstreamRng(5).spawn(-1)


def test_stream_returns_a_fresh_generator():
    rng = SubstreamRng(4)
    first = rng.stream(1, 2)
    head = first.random(3)
    next(rng.step_blocks([(_words(2, 0), 5)], 1, 1))
    second = rng.stream(1, 2)
    assert second is not first
    assert np.array_equal(second.random(3), head)
    assert np.array_equal(first.random(2), rng.stream(1, 2).random(5)[3:])


# (time, particle, site) of the blocks read: the top of every field, alone
# and together, and a few ordinary ones.
_COORDS = [(0, 0, 0), (1, 0, 2), (5, 3, 4), (2**64 - 1, 0, 0), (0, 2**48 - 1, 0), (0, 0, 2**16 - 1),
           (2**64 - 1, 2**48 - 1, 2**16 - 1)]


@pytest.mark.parametrize("seed, wraps", [(0, [True, True]), (4, [True, False]), (6, [False, False]), (2**64 - 1, None)])
@pytest.mark.parametrize("bases", [[7, 0, 2**64 - 1, 3, 7, 12], range(1, 40)])
@pytest.mark.parametrize("widths", [range(18), [0, 1, 5, 63, 64, 65, 255]])
def test_vectorised_blocks_equal_the_generator(seed, wraps, bases, widths):
    # Widths 0-17 fill part of a counter's four words, all four, or spill
    # into the next counters; wide blocks take up to 64 counters each, among
    # narrow ones.  The bases are out of order, repeated
    # and at the top of the step field, or a range.  Seed 0's two key words
    # wrap past 2^64 at the first round, seed 4's first only, seed 6's neither.
    rng = SubstreamRng(seed)
    if wraps is not None:
        assert [k + w >= 2**64 for k, w in zip(rng._key_words, _PHILOX_W)] == wraps
    points = [(coords, width) for width in widths for coords in _COORDS]
    got = rng._blocks([(_counter((0, *coords))[:-1], width) for coords, width in points], bases)
    assert len(got) == len(points)
    for (coords, width), block in zip(points, got):
        want = np.concatenate([rng.stream(base, *coords).random((1, width)) for base in bases])
        assert block.shape == (len(bases), width)
        assert np.array_equal(block, want)


@pytest.mark.parametrize("bases", [[-1], [0, 2**64], [3, -2, 5], range(2**64 - 2, 2**64 + 1)])
def test_vectorised_blocks_refuse_an_aliasing_base(bases):
    # As _counter refuses the step of a stream outside [0, 2^64).
    rng = SubstreamRng(1)
    with pytest.raises(IndexOutOfRange):
        rng._blocks([(_counter((0, 2, 0, 1))[:-1], 3)], bases)
    with pytest.raises(IndexOutOfRange):
        for base in bases:
            _counter((base,))


class _Positions(SubstreamRng):
    """Counts the blocks numpy's generator is positioned at."""

    def __init__(self, seed):
        super().__init__(seed)
        self.positioned = 0

    def _block(self, counter, shape):
        self.positioned += 1
        return super()._block(counter, shape)


# (time, particle, site) and width of each block of a step: narrow and wide
# blocks, and the top of the time field.
_STEP = [((2, 0, 1), 1), ((3, 0, 2), 4), ((0, 5, 4), 7), ((2**64 - 1, 0, 0), 64)]


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("base", [0, 9, 2**64 - 1])
def test_step_blocks_equal_uniforms_block_for_block(R, base):
    # Each block is the stream's first R x width uniforms, read when the
    # iterator reaches it and not before.
    rng = _Positions(8)
    blocks = rng.step_blocks([(_counter((0, *coords))[:-1], width) for coords, width in _STEP], base, R)
    assert rng.positioned == 0
    got = []
    for k in range(1, len(_STEP) + 1):
        got.append(next(blocks))
        assert rng.positioned == k
    assert next(blocks, None) is None
    for block, (coords, width) in zip(got, _STEP):
        assert np.array_equal(block, rng.stream(base, *coords).random((R, width)))


@pytest.mark.parametrize("base", [-1, 2**64])
def test_step_blocks_refuse_a_bad_base_when_called(base):
    rng = _Positions(8)
    with pytest.raises(IndexOutOfRange):
        rng.step_blocks([(_counter((0, *coords))[:-1], width) for coords, width in _STEP], base, 2)
    assert rng.positioned == 0


@pytest.mark.parametrize("N, R", [(1, 1), (4, 3)])
def test_a_pass_positions_the_generator_once_per_block(N, R):
    from fixtures import model_b
    from pmcmc_lab.smc_core import _PassPlan

    plan = _PassPlan(model_b().tables, N, R)
    rng = _Positions(8)
    plan.run(rng, 5)
    assert rng.positioned == len(plan.reads) == 2 * model_b().T
