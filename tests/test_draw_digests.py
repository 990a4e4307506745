"""Seeded outputs of every sampler, pinned by sha256 digest.

Any change to how particles are drawn -- the search behind a categorical
draw, the tables it reads, the way a substream is opened -- must leave every
index and every uniform as it is.  These digests were taken from the engine
that gathered and summed transition rows per draw; an engine that reads
precomputed cumulative tables must reproduce them bit for bit.

Integer outputs and looked-up weights are hashed exactly; log estimates
(which go through ``np.log``) are hashed at 12 significant digits so the
digests do not depend on the platform's last-bit rounding of ``log``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from fixtures import joint_two_time, model
from pmcmc_lab import SubstreamRng, Trajectory, build_discrete_model, build_joint_model
from pmcmc_lab.csmc import icsmc_chain, reference_pass
from pmcmc_lab.replicated import (
    pgibbs_replicated,
    pimh_replicated,
    pmmh_replicated,
    smc_replicated,
)
from pmcmc_lab.smc_core import particle_pass


def _sparse_model(S: int, T: int, seed: int):
    """Transition rows with leading, interior and trailing zeros.

    Rows are integer counts over their integer total, so every table entry is
    one correctly rounded division and the model is the same on any platform.
    """
    gen = np.random.default_rng(seed)

    def law():
        counts = gen.integers(1, 9, S) * (gen.random(S) < 0.5)
        counts[gen.integers(S)] += 3
        return counts / counts.sum()

    m = [[law() for _ in range(S)] for _ in range(T - 1)]
    g = [gen.integers(0, 5, S) * 0.5 + 0.25 for _ in range(T)]
    return build_discrete_model(list(range(S)), law(), m, g)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        if a.dtype.kind == "f":
            h.update(" ".join(f"{v:.11e}" for v in a.ravel()).encode())
        else:
            h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        h.update(repr(a.shape).encode())
    return h.hexdigest()[:16]


def _pass_digest(p) -> str:
    # Weights are potentials looked up by state: hash their bits exactly.
    return _digest(p.states, p.ancestors, p.final, p.weights.view(np.int64))


def _models():
    return {
        "A": model("A"),
        "E": model("E"),
        "sparse5": _sparse_model(5, 3, 1),
        "sparse20": _sparse_model(20, 2, 2),
        "sparse40": _sparse_model(40, 2, 3),
    }


def _joint_sparse():
    return build_joint_model(
        ["a", "b", "c"], [0.25, 0.5, 0.25], [_sparse_model(5, 3, s) for s in (4, 5, 6)]
    )


PASS_DIGESTS = {
    ("A", 1, 1): "69332734ff38547a",
    ("A", 3, 5): "b63e28681f437645",
    ("E", 2, 7): "8d24586604d470ec",
    ("E", 17, 3): "ad8fc4de469d3a4b",
    ("E", 40, 1): "6ed7ceaf48aaacac",
    ("E", 70, 3): "419b65e27b10b926",
    ("sparse5", 4, 9): "ecb1ae4473f16a42",
    ("sparse5", 33, 2): "c414c93dfc90cac3",
    ("sparse20", 3, 4): "8b36b8b4b7d61dba",
    ("sparse40", 5, 3): "9f9c0ca81157c490",
}


@pytest.mark.parametrize("name,N,R", list(PASS_DIGESTS))
def test_plain_pass_digest(name, N, R):
    p = particle_pass(_models()[name].tables, N, 31, base=2, rows=R)
    assert _pass_digest(p) == PASS_DIGESTS[name, N, R]


# Potentials across six orders of magnitude, so a sum of them depends on
# the order of its terms, unlike the dyadic potentials of the models above.
_SCALES = np.array([1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])


def _rough_model(S: int, T: int, seed: int):
    gen = np.random.default_rng(seed)

    def law():
        counts = gen.integers(1, 9, S)
        return counts / counts.sum()

    m = [[law() for _ in range(S)] for _ in range(T - 1)]
    g = [(gen.random(S) + 0.5) * _SCALES[gen.integers(0, 7, S)] for _ in range(T)]
    return build_discrete_model(list(range(S)), law(), m, g)


TOTALS_DIGEST = "45f11c64853366db"


def test_short_row_totals_digest():
    # The exact bits of the weight totals of plain and reference passes on
    # rows of 2-7 particles, where the totals are summed column by column.
    m = _rough_model(4, 3, 7)
    out = []
    for N in range(2, 8):
        plain = particle_pass(m.tables, N, 37, base=3, rows=50)
        pinned = reference_pass(m.tables, N, plain.paths(), 23, base=4)
        out += [plain.totals.view(np.int64), pinned.totals.view(np.int64)]
    assert _digest(*out) == TOTALS_DIGEST


REFERENCE_DIGESTS = {
    ("E", 1, 4): "97ce1b164da15583",
    ("E", 3, 6): "369d3f47829f5721",
    ("E", 20, 2): "e7614414622061e1",
    ("sparse5", 5, 8): "68c5e5a0a7a0aa6f",
    ("sparse40", 3, 3): "3f39d9f182010184",
}


@pytest.mark.parametrize("name,N,R", list(REFERENCE_DIGESTS))
def test_reference_pass_digest(name, N, R):
    m = _models()[name]
    start = smc_replicated(m, 2, R, 17)[0]
    p = reference_pass(m.tables, N, start, 23, base=4)
    assert _pass_digest(p) == REFERENCE_DIGESTS[name, N, R]


MULTI_DIGESTS = {
    ("two_time", 3): "3e6cb8d523a17109e3c04269cd018cc2",
    ("two_time", 18): "8b5aefd923fc0dbbee010a83765e06bc",
    ("sparse", 4): "017fad437188da28e18a3ea89913a0ec",
    ("sparse", 40): "fea1b2301d36fa0ed94087bc24857df6",
}


@pytest.mark.parametrize("name,N", list(MULTI_DIGESTS))
def test_multi_model_pass_digest(name, N):
    jm = joint_two_time() if name == "two_time" else _joint_sparse()
    R = 6
    which = np.arange(R) % jm.J
    plain = particle_pass(jm.tables, N, 41, base=1, rows=R, which=which)
    start = plain.paths()
    pinned = reference_pass(jm.tables, N, start, 43, base=2, which=which[::-1].copy())
    assert _pass_digest(plain) + _pass_digest(pinned) == MULTI_DIGESTS[name, N]


REPLICATED_DIGESTS = {
    "smc": "0c09c2d844d9e126",
    "pimh": "0684a632ab7972bb",
    "pmmh": "b525a7eee28bc4d1",
    "pgibbs": "1677a3675dbdd5c7",
}


def _replicated_outputs(kind):
    if kind == "smc":
        paths, lg = smc_replicated(model("E"), 5, 40, 3, base=2)
        return paths, lg
    if kind == "pimh":
        paths, rate, lg = pimh_replicated(_models()["sparse5"], 4, 30, 5, 7)
        return paths, np.array([rate]), lg
    jm = _joint_sparse()
    if kind == "pmmh":
        q = np.full((3, 3), 0.25) + np.eye(3) * 0.25
        thetas, rate = pmmh_replicated(jm, 3, q, 25, 6, 11)
        return thetas, np.array([rate])
    thetas, paths = pgibbs_replicated(jm, 3, 25, 6, 13, smc_replicated(jm.models[0], 2, 1, 1)[0][0], 0)
    return thetas, paths


@pytest.mark.parametrize("kind", list(REPLICATED_DIGESTS))
def test_replicated_sampler_digest(kind):
    assert _digest(*_replicated_outputs(kind)) == REPLICATED_DIGESTS[kind]


CHAIN_DIGESTS = {
    1: "a649c7fa0d7f336c63cff25703e96167",
    2: "36036372d8939549fe3501b4f4594a95",
    3: "96a74408c6dac52733b47d0f9e4d5df4",
    17: "25ab295a8037362bc6cace50bdee677b",
    40: "243eb4adc5e31884f566f4358b9a0395",
}


@pytest.mark.parametrize("N", list(CHAIN_DIGESTS))
def test_icsmc_chain_digest(N):
    # N covers one particle, the few-category comparison and the bisection of
    # the ancestor draw; model E and the 20-state sparse model cover the move.
    digests = []
    for m in (model("E"), _models()["sparse20"]):
        x0 = Trajectory(tuple(int(v) for v in smc_replicated(m, 2, 1, 3)[0][0]))
        trace = icsmc_chain(m, N, x0, 12, 19)
        digests.append(_digest(trace.states, trace.retained, trace.log_gamma_hats))
    assert "".join(digests) == CHAIN_DIGESTS[N]


GENERATIVE_DIGEST = "143607dca55b2c6b"


def test_generative_interface_digest():
    out = []
    for name, m in _models().items():
        rng = SubstreamRng(29).stream(len(name))
        out += [m.sample_initial(rng) for _ in range(20)]
        for t in range(2, m.T + 1):
            out += [m.sample_transition(t, s, rng) for s in range(m.n_states) for _ in range(3)]
    assert _digest(out) == GENERATIVE_DIGEST

