"""The package root: its public names, each imported from its module on first use."""

import importlib
import re
from pathlib import Path

import pytest

import cuntzfock

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_the_object_of_its_module():
    assert len(cuntzfock.__all__) == len(set(cuntzfock.__all__)) == 27
    for name in cuntzfock.__all__:
        module = importlib.import_module(f"cuntzfock.{cuntzfock._MODULE_OF[name]}")
        value = getattr(cuntzfock, name)
        assert value is getattr(module, name), name
        # defined there, not re-exported from elsewhere (the scalars ONE and ZERO have no owner)
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from cuntzfock import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cuntzfock.__all__)


def test_unknown_names_raise_attribute_error_and_dir_lists_all():
    with pytest.raises(AttributeError, match="no_such_name"):
        cuntzfock.no_such_name  # noqa: B018
    assert not hasattr(cuntzfock, "sqrt_factorial")  # public in `radical`, not at the root
    assert set(cuntzfock.__all__) <= set(dir(cuntzfock))
    assert cuntzfock.__version__ == "0.1.0"


def test_readme_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    (snippet,) = re.findall(r"```python\n(.*?)```", tour[:tour.index("\n## ", 1)], re.S)
    namespace: dict = {}
    exec(snippet, namespace)
    M = namespace["M"]
    assert namespace["forward"](M) == namespace["forward_operational"](M)
    assert len(namespace["e2"]) == 1  # b1* Ω is a single basis term


def test_readme_lists_every_public_name_under_its_module():
    text = README.read_text()
    section = text[text.index("### Public names"):]
    section = section[:section.index("\n#", 1)]
    listed = {}
    for module, names in re.findall(r"^- `(\w+)`: (.*(?:\n  .*)*)", section, re.M):
        listed[module] = re.findall(r"`(\w+)`", names)
    assert listed == {module: list(names) for module, names in cuntzfock._PUBLIC.items()}
    assert sorted(n for names in listed.values() for n in names) == cuntzfock.__all__
    assert f"binds these {len(cuntzfock.__all__)} names" in " ".join(section.split())
