"""The CSV bodies the chain kinds of the CLI write, pinned by digest.

Each kind runs in process at a fixed seed on the fixture models; every CSV
file it writes is hashed field by field.  Integer and text fields are hashed
as written; float fields at 12 significant digits, as in
``test_draw_digests.py``, so the digests do not depend on the platform's
last-bit rounding of ``log``.  A change to how a pass is run or returned
must leave every digest as it is.
"""

from __future__ import annotations

import csv
import hashlib
import json

import pytest

from fixtures import joint_two_time, model_a, model_b
from pmcmc_lab.cli import main as cli_main


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


# kind -> (subcommand, model file, config, digest).  The pgibbs kind also
# writes the ordering report, built from the exact kernels: its identity
# residuals sit at the rounding floor (about 1e-16), so that digest follows
# the exact engine's rounding as well as the draws.
CASES = {
    "icsmc": ("simulate", "A", {"N": 3, "iterations": 40, "replicates": 2}, "f0161f0fe2d3f4f6"),
    "pimh": ("simulate", "B", {"N": 4, "iterations": 40, "replicates": 2}, "ab3050f212958256"),
    "pmmh": ("simulate", "J", {"N": 4, "iterations": 40, "replicates": 2}, "2b84df532d4a534f"),
    "pgibbs": ("pgibbs", "J", {"N": 3, "iterations": 40}, "637928f6ebec4e80"),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_cli_csv_bodies_are_pinned(kind, tmp_path, capsys):
    sub, label, params, digest = CASES[kind]
    model_path = tmp_path / f"{label}.json"
    if label == "J":
        model_path.write_text(json.dumps(_joint_doc(joint_two_time())))
    else:
        {"A": model_a, "B": model_b}[label]().save(model_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind, "model_path": str(model_path), **params}))
    out = tmp_path / "out"
    assert cli_main([sub, "--config", str(cfg), "--out", str(out), "--seed", "1801"]) == 0
    capsys.readouterr()
    assert _body_digest(out) == digest
