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
