"""The CSV bodies the kinds of the CLI write, pinned by digest.

Each kind runs in process at a fixed seed on the fixture models; every CSV
file it writes is hashed field by field.  Integer and text fields are hashed
as written; float fields at 12 significant digits, as in
``test_draw_digests.py``, so the digests do not depend on the platform's
last-bit rounding of ``log``.  A change to how a pass is run or returned
must leave every digest as it is.  The exact kinds (oracle, sticky) also
pin the engine their manifest names, its count-engine work and the guard,
on both sides of the engine choice: the sticky model at K=25, N=3 counts
past the guard, so its kernel comes from the multiset sweep.
"""

from __future__ import annotations

import csv
import hashlib
import json

import pytest

from fixtures import joint_two_time, model_a, model_b
from pmcmc_lab.cli import main as cli_main
from pmcmc_lab.harness import sticky_example_model


def _joint_doc(jm) -> dict:
    return {
        "T": jm.T,
        "alphabet": list(jm.models[0].alphabet),
        "thetas": list(jm.thetas),
        "prior": jm.prior.tolist(),
        "models": [
            {"m1": m.m1.tolist(), "m": [mat.tolist() for mat in m.transitions],
             "g": [g.tolist() for g in m.potentials]}
            for m in jm.models
        ],
    }


def _field(text: str) -> str:
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return f"{float(text):.11e}"
    except ValueError:
        return text


def _body_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                h.update(",".join(_field(f) for f in row).encode() + b"\n")
    return h.hexdigest()[:16]


# case -> (kind, subcommand, model file, config, digest).  The pgibbs kind
# also writes the ordering report, built from the exact kernels.  Its
# identity residuals are rounding noise (about 1e-16), written as 0.0 below
# harness.RESIDUAL_FLOOR, so that digest does not follow the exact engine's
# last bits; it changed once, when the floor came in, with pgibbs_trace.csv
# byte-identical across the change.  The sticky kind reads no model file.
CASES = {
    "icsmc": ("icsmc", "simulate", "A", {"N": 3, "iterations": 40, "replicates": 2}, "f0161f0fe2d3f4f6"),
    "pimh": ("pimh", "simulate", "B", {"N": 4, "iterations": 40, "replicates": 2}, "ab3050f212958256"),
    "pmmh": ("pmmh", "simulate", "J", {"N": 4, "iterations": 40, "replicates": 2}, "2b84df532d4a534f"),
    "pgibbs": ("pgibbs", "pgibbs", "J", {"N": 3, "iterations": 40}, "8aff50b37300e7c2"),
    "oracle": ("oracle", "oracle", "B", {"N": 3}, "342363181e024bd4"),
    "oracle_past_guard": ("oracle", "oracle", "S25", {"N": 3}, "13ff31408e833cfb"),
    "sticky": ("sticky", "sticky", None, {"N": 3, "params": {"K": 16}}, "5c90ef87863bbca1"),
    "bounds": ("bounds", "bounds", "A", {"N": [2, 3, 5, 8]}, "5a50d48d1bade875"),
}

# case -> the manifest's (exact_engine, histogram_work, guard); None where
# the kind writes no such field.
MANIFESTS = {
    "oracle": ("histogram", 710, 10**7),
    "oracle_past_guard": ("multiset", 10156300, 10**7),
    "sticky": ("histogram", {"sticky.csv": 210816, "sticky_control.csv": 11046}, 10**7),
    "bounds": (None, None, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_csv_bodies_are_pinned(case, tmp_path, capsys):
    kind, sub, label, params, digest = CASES[case]
    model_path = tmp_path / f"{label}.json"
    if label == "J":
        model_path.write_text(json.dumps(_joint_doc(joint_two_time())))
    elif label == "S25":
        sticky_example_model(25).save(model_path)
    elif label is not None:
        {"A": model_a, "B": model_b}[label]().save(model_path)
    cfg = tmp_path / "cfg.json"
    model_file = {} if label is None else {"model_path": str(model_path)}
    cfg.write_text(json.dumps({"kind": kind, **model_file, **params}))
    out = tmp_path / "out"
    assert cli_main([sub, "--config", str(cfg), "--out", str(out), "--seed", "1801"]) == 0
    capsys.readouterr()
    assert _body_digest(out) == digest
    if case in MANIFESTS:
        manifest = json.loads((out / "manifest.json").read_text())
        fields = tuple(manifest.get(key) for key in ("exact_engine", "histogram_work", "guard"))
        assert fields == MANIFESTS[case]
