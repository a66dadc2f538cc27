"""Fixtures shared by the test modules."""

import pytest

from cuntzfock import verify
from cuntzfock.rep import State


def _class_report(psi: State, q: int, i: int, lam=None, starred: bool = False):
    """The class relations at the one word of psi, on `verify.RUNGS` rungs, in a report of
    their own: the boson relations with weight lam, the fermion ones without.  A state that is
    not one word is refused, as `verify._image` refuses it."""
    image = verify._image(psi)
    maps = verify._maps("a" if lam is None else "b", verify.RUNGS * q + i)
    report = verify.SuiteReport("ff-class" if lam is None else "bf-class")
    verify._class_rungs(report, maps, image, q, i, lam, starred)
    return report


@pytest.fixture
def class_report():
    """`verify`'s rung loop of the branch suites, on a `State` of one basis word."""
    return _class_report
