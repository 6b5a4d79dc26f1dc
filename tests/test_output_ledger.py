"""The output ledger: sha256 digests of what the commands print.

The draw ledger pins the counts a run draws; this one pins the reports
built on them, byte for byte: the stdout of a small panel of `fkbench`
commands here, and of every demo in test_demos.py.  Printed floats at repr
precision depend on libm and BLAS as well as on the draws, so a failure
names the output and the numpy and scipy versions that recorded it.

A change that moves an output on purpose records the new digest here and
says which output moved and why.  The ledger records outputs: it is not a
tolerance.
"""

import hashlib

import numpy as np
import pytest
import scipy

from fkbench.cli import main

NUMPY_RECORDED = "2.4.6"
SCIPY_RECORDED = "1.17.1"

# output -> (fkbench argv, sha256 of its stdout)
LEDGER = {
    "verify clt": (
        ["verify", "clt", "--zoo", "binary_hmm", "--reps", "2000", "--seed", "1"],
        "81837d88470b5cecfed6610259b37b9931f9ee87ec5f45eea9376d8e3376052f",
    ),
    "path_simulate": (
        ["simulate", "--zoo", "path_genealogy", "--zoo-params", '{"horizon": 8}',
         "--N", "1000", "--reps", "200", "--seed", "7", "--check-doob", "--record-steps"],
        "dd62dc9add9e7094489b99e992a76c711c259460d0e9c2a37eb596ebb08026b6",
    ),
    "oracle ring": (
        ["oracle", "--zoo", "ring_walk", "--zoo-params", '{"d": 16, "horizon": 40}'],
        "99454d40b76951dde430dd41f7078e615550b6ce450a059ee4ab606d5aa6c981",
    ),
    "verify concentration": (
        ["verify", "concentration", "--zoo", "ring_walk",
         "--N", "400", "--reps", "500", "--seed", "3"],
        "82ded2f35d6c8f75f8f5ee0e9ed773983a4d3342828ebe9772b84ad670033cf2",
    ),
    "verify moments": (
        ["verify", "moments", "--zoo", "binary_hmm", "--N", "200", "--reps", "500", "--seed", "3"],
        "071fac0b3d2bb1889fc2e3d02f88bfae7ae0a05d441a6a660747f981ce37268f",
    ),
    "verify stein": (
        ["verify", "stein", "--zoo", "binary_hmm", "--N", "200", "--reps", "500", "--seed", "3"],
        "5d07c1b903e59791d7c30f4b50dc1eb758bef6f7aaf3063e745bb70c641c1b58",
    ),
    "zoo list": (
        ["zoo", "list"],
        "c655dfef137d56d22245320fe44b2674b38cda09a555fde3a65ba2ed7f0cc706",
    ),
}


def moved(name: str) -> str:
    """The failure message of a ledger entry whose output moved."""
    return (
        f"{name}: output moved; the ledger was recorded under numpy {NUMPY_RECORDED} "
        f"and scipy {SCIPY_RECORDED}, this run uses numpy {np.__version__} "
        f"and scipy {scipy.__version__}"
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(LEDGER))
def test_command_output_matches_the_ledger(name, capsys):
    argv, recorded = LEDGER[name]
    assert main(argv) == 0
    assert digest(capsys.readouterr().out) == recorded, moved(name)
