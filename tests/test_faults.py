"""Planted engine faults that `cuntzfock verify all` must catch.

Each entry replaces one engine function by a version with a one-line fault,
and `verify all` at the CLI defaults must then report at least one failed
check.  The suites named with each fault are the ones that caught it when it
was added; the test holds them to it, so a suite that stops catching a fault
fails here, while a suite that starts catching one does not.  No entry is
skipped or expected to fail: a fault that no suite catches is a gap in
`verify`, to close before its entry lands.
"""

import contextlib
import io
import json

import pytest

from cuntzfock import correspondence, ladder
from cuntzfock.cli import main
from cuntzfock.radical import sqrt_of_nat


def fermion_sign_flipped_from_mode_7(fermion_word):
    def fault(create, n, w):
        out = fermion_word(create, n, w)
        if out is None or n < 7:
            return out
        coeff, v = out
        return -coeff, v
    return fault


def boson_annihilates_a_block_of_2_from_mode_7(boson_word):
    def fault(create, n, w):
        if not create and n >= 7 and ladder.nth_block(w, n)[1] == 2:
            return None
        return boson_word(create, n, w)
    return fault


def boson_creation_weight_times_sqrt2_from_mode_4(boson_word):
    def fault(create, n, w):
        out = boson_word(create, n, w)
        if out is None or not create or n < 4:
            return out
        coeff, v = out
        return coeff * sqrt_of_nat(2), v
    return fault


# name -> (ladder function, fault, suites that catch it)
FAULTS = {
    "a_n sign flipped for n >= 7": (
        "_fermion_word", fermion_sign_flipped_from_mode_7, {"car", "branch-fermion", "oracle"}),
    "b_n annihilates a block of length 2 for n >= 7": (
        "_boson_word", boson_annihilates_a_block_of_2_from_mode_7, {"branch-boson"}),
    "b_n* weight times sqrt(2) for n >= 4": (
        "_boson_word", boson_creation_weight_times_sqrt2_from_mode_4,
        {"ccr", "branch-boson", "roundtrip"}),
}


def verify_all_failures() -> dict[str, int]:
    """Failed checks per suite of `cuntzfock verify all --json`, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all", "--json"])
    failures: dict[str, int] = {}
    for r in json.loads(out.getvalue()):
        failures[r["suite"]] = failures.get(r["suite"], 0) + len(r["failures"])
    assert code == (1 if any(failures.values()) else 0)
    return failures


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_verify_all_catches_the_planted_fault(name, monkeypatch):
    target, plant, catchers = FAULTS[name]
    monkeypatch.setattr(ladder, target, plant(getattr(ladder, target)))
    # norm factors are cached across calls: start from none, so that a fault
    # on their path is computed, not read from a run without it
    monkeypatch.setattr(correspondence, "_NORMS", {})
    failures = verify_all_failures()
    caught = {suite for suite, count in failures.items() if count}
    assert caught >= catchers, failures
