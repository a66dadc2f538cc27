"""Planted engine faults that `cuntzfock verify all` must catch.

Each entry replaces one engine function by a version with a one-line fault,
in its module and in every engine module that imports it by name, and
`verify all` at the CLI defaults must then report at least one failed
check.  The suites named with each fault are the ones that caught it when it
was added; the test holds them to it, so a suite that stops catching a fault
fails here, while a suite that starts catching one does not.  No entry is
skipped or expected to fail: a fault that no suite catches is a gap in
`verify`, to close before its entry lands.
"""

import contextlib
import io
import json
import sys

import pytest

# every engine module is loaded before a fault is planted, so that no module
# binds a faulty function by importing it while the fault is in place
from cuntzfock import correspondence, ladder, verify, words  # noqa: F401
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


def unroll_rotates_the_tail_once_more_from_6(unroll):
    def fault(w, h):
        letters, rot = unroll(w, h)
        if h < 6 or h <= len(w.prefix) or len(rot) == 1:
            return letters, rot
        return letters, rot[1:] + rot[:1]
    return fault


def unroll_drops_the_prefix_past_h_from_6(unroll):
    def fault(w, h):
        letters, rot = unroll(w, h)
        if h < 6 or h >= len(w.prefix):
            return letters, rot
        return letters[:h], rot
    return fault


def roll_absorbs_one_letter_at_most(roll):
    def fault(letters, period, rot):
        w = roll(letters, period, rot)
        if len(letters) - w.depth < 2:
            return w
        return words._make(letters[:-1], period, rot[-1:] + rot[:-1])
    return fault


def runs_report_one_more_for_runs_of_3_in_subsets_of_5(runs):
    def fault(elements):
        factors, ks = runs(elements)
        if len(elements) < 5:
            return factors, ks
        return factors, tuple(k + 1 if k >= 3 else k for k in ks)
    return fault


def fermion_label_last_one_higher_in_subsets_of_5(fermion):
    def fault(elements):
        if len(elements) < 5:
            return fermion(elements)
        return fermion(elements[:-1] + (elements[-1] + 1,))
    return fault


def nth_block_answers_for_n_plus_1_from_6(nth_block):
    def fault(w, n):
        return nth_block(w, n + 1 if n >= 6 else n)
    return fault


def tail_block_one_period_too_far_past_the_first_period(tail_block):
    def fault(w, n, ones):
        found = tail_block(w, n, ones)
        # the n-th 1 is the (n - ones)-th of the tail: past its first period when rot holds fewer
        if found is None or len(w.rot) == 1 or n - ones <= w.rot.count(1):
            return found
        start, m = found
        return start, m + len(w.rot)
    return fault


def index_to_word_one_off_above_300(index_to_word):
    def fault(n):
        return index_to_word(n + 1 if n > 300 else n)
    return fault


# name -> (module, function, fault, suites that catch it)
FAULTS = {
    "a_n sign flipped for n >= 7": (
        ladder, "_fermion_word", fermion_sign_flipped_from_mode_7,
        {"car", "branch-fermion", "oracle"}),
    "b_n annihilates a block of length 2 for n >= 7": (
        ladder, "_boson_word", boson_annihilates_a_block_of_2_from_mode_7, {"branch-boson"}),
    "b_n* weight times sqrt(2) for n >= 4": (
        ladder, "_boson_word", boson_creation_weight_times_sqrt2_from_mode_4,
        {"ccr", "branch-boson", "roundtrip"}),
    "unroll rotates the tail once more past the prefix, h >= 6, period > 1": (
        words, "unroll", unroll_rotates_the_tail_once_more_from_6,
        {"branch-boson", "branch-fermion"}),
    "unroll drops the prefix letters past h when 6 <= h < depth": (
        words, "unroll", unroll_drops_the_prefix_past_h_from_6, {"cuntz", "ccr", "car"}),
    "roll absorbs at most one letter into the tail": (
        words, "roll", roll_absorbs_one_letter_at_most,
        {"ccr", "car", "branch-oinfty", "branch-boson", "branch-fermion"}),
    "_runs reports k + 1 for runs of k >= 3 in subsets of 5 or more": (
        correspondence, "_runs", runs_report_one_more_for_runs_of_3_in_subsets_of_5,
        {"roundtrip"}),
    "index_to_word(n) gives the word of n + 1 above 300": (
        words, "index_to_word", index_to_word_one_off_above_300, {"oracle"}),
    "_fermion raises the last element by one in subsets of 5 or more": (
        correspondence, "_fermion", fermion_label_last_one_higher_in_subsets_of_5,
        {"roundtrip"}),
    "nth_block(w, n) answers for n + 1 when n >= 6": (
        words, "nth_block", nth_block_answers_for_n_plus_1_from_6,
        {"ccr", "branch-boson", "oracle"}),
    "nth_block puts a tail 1 past the first period one period too far, period > 1": (
        words, "_tail_block", tail_block_one_period_too_far_past_the_first_period,
        {"branch-boson"}),
}


def plant(monkeypatch, module, name: str, fault) -> list[str]:
    """Replace module.name by fault(module.name) in every engine module that
    binds it, and return where it was replaced."""
    original = getattr(module, name)
    faulty = fault(original)
    planted = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.partition(".")[0] != "cuntzfock":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, faulty)
                planted.append(f"{mod_name}.{attr}")
    return planted


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
    module, target, fault, catchers = FAULTS[name]
    plant(monkeypatch, module, target, fault)
    # norm factors are cached across calls: start from none, so that a fault
    # on their path is computed, not read from a run without it
    monkeypatch.setattr(correspondence, "_NORMS", {})
    failures = verify_all_failures()
    caught = {suite for suite, count in failures.items() if count}
    assert caught >= catchers, failures


def test_a_fault_reaches_every_alias_of_its_function(monkeypatch):
    """`ladder`, `rep` and `verify` import `words` functions by name, and `ladder` imports
    the label builders of `correspondence`: each alias is patched."""
    planted = plant(monkeypatch, words, "unroll", unroll_rotates_the_tail_once_more_from_6)
    assert {"cuntzfock.words.unroll", "cuntzfock.ladder.unroll",
            "cuntzfock.rep.unroll"} <= set(planted), planted
    planted = plant(monkeypatch, words, "index_to_word", index_to_word_one_off_above_300)
    assert {"cuntzfock.words.index_to_word", "cuntzfock.ladder.index_to_word",
            "cuntzfock.verify.index_to_word"} <= set(planted), planted
    planted = plant(monkeypatch, correspondence, "_fermion",
                    fermion_label_last_one_higher_in_subsets_of_5)
    assert {"cuntzfock.correspondence._fermion",
            "cuntzfock.ladder._fermion"} <= set(planted), planted
