"""errors.require and errors.naming: the one route by which a config
refusal names its keys."""

import pytest

from mildns.errors import ConfigError, DataError, WindowError, naming, require


@pytest.mark.parametrize(
    "names, text",
    [
        (("a",), "config key 'a': bad"),
        (("a", "b"), "config keys 'a' and 'b': bad"),
        (("a", "b", "c"), "config keys 'a', 'b' and 'c': bad"),
    ],
    ids=["one", "two", "three"],
)
def test_require_and_naming_render_the_keys_alike(names, text):
    with pytest.raises(ConfigError) as required:
        require(False, names, "bad")
    with pytest.raises(ConfigError) as named:
        with naming(*names):
            raise ConfigError("bad")
    assert str(required.value) == str(named.value) == text


def test_require_passes_a_condition_that_holds():
    assert require(True, ("a",), "bad") is None


@pytest.mark.parametrize("cls", [ConfigError, WindowError, DataError])
def test_naming_keeps_the_class_and_the_cause(cls):
    with pytest.raises(cls) as caught:
        with naming("a"):
            raise cls("bad")
    assert type(caught.value) is cls
    assert type(caught.value.__cause__) is cls and str(caught.value.__cause__) == "bad"
