import numpy as np
import pytest

from pmcmc_lab import SubstreamRng
from pmcmc_lab.errors import IndexOutOfRange


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
    # Each address would share its Philox counter with another stream.
    with pytest.raises(IndexOutOfRange):
        SubstreamRng(1).stream(*coords)
    with pytest.raises(IndexOutOfRange):
        SubstreamRng(1).uniforms(*coords, shape=1)


@pytest.mark.parametrize(
    "coords",
    [(), (0,), (3, 1, 0, 2), (2**64 - 1, 2**64 - 1, 2**48 - 1, 2**16 - 1), (7, 0, 5)],
)
def test_uniforms_equal_a_fresh_stream(coords):
    # The re-positioned generator starts where a fresh one does, whatever was
    # drawn from it before (a partly used buffer included) and after a call
    # refused for an aliasing coordinate.
    rng = SubstreamRng(12)
    for shape in (1, 3, (2, 5), (4, 1)):
        rng.uniforms(9, shape=7)
        want = rng.stream(*coords).random(shape)
        assert np.array_equal(rng.uniforms(*coords, shape=shape), want)
        rng.uniforms(9, shape=7)
        with pytest.raises(IndexOutOfRange):
            rng.uniforms(0, 0, 0, 2**16, shape=shape)
        assert np.array_equal(rng.uniforms(*coords, shape=shape), want)


def test_stream_returns_a_fresh_generator():
    rng = SubstreamRng(4)
    first = rng.stream(1, 2)
    head = first.random(3)
    rng.uniforms(1, 2, shape=5)
    second = rng.stream(1, 2)
    assert second is not first
    assert np.array_equal(second.random(3), head)
    assert np.array_equal(first.random(2), rng.stream(1, 2).random(5)[3:])
