"""Property test: invalid numbers in the shipped configs are rejected.

Each example takes one shipped config, replaces one of its numeric
fields (a scalar or a list element, nested ``task`` fields included) by
a boolean, NaN, an infinity or a negative number, and checks that
:func:`validate_config` raises :class:`ConfigError` with a one-line
message, and that the CLI exits 2 with one ``config error:`` line.
Every shipped numeric field is a count, a size, a seed, a class index or
a weight, so each of these replacements is invalid.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearn_lab.cli import main
from unlearn_lab.errors import ConfigError
from unlearn_lab.experiments import validate_config

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def _numeric_paths(value, path=()):
    """Paths to every int/float leaf of a JSON value, booleans excluded."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _numeric_paths(item, path + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def _replaced(value, path, new):
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


SHIPPED = [json.loads(path.read_text(encoding="utf-8")) for path in CONFIGS]
CASES = [(raw, path) for raw in SHIPPED for path in _numeric_paths(raw)]

INVALID_NUMBERS = st.one_of(
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-6, allow_infinity=False),
)


def test_every_shipped_config_is_valid():
    assert len(SHIPPED) == 5 and CASES
    for raw in SHIPPED:
        validate_config(raw, raw["experiment"])


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES), new=INVALID_NUMBERS)
def test_invalid_number_is_a_one_line_config_error(case, new):
    raw, path = case
    with pytest.raises(ConfigError) as excinfo:
        validate_config(_replaced(raw, path, new), raw["experiment"])
    assert "\n" not in str(excinfo.value)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(CASES), new=INVALID_NUMBERS)
def test_invalid_number_exits_two_through_the_cli(case, new):
    raw, path = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(_replaced(raw, path, new)), encoding="utf-8")
        out = Path(tmp) / "out.csv"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([raw["experiment"], "--config", str(config), "--out", str(out)])
        assert not out.exists()
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
