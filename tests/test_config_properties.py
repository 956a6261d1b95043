"""Property tests of config validation, on the shipped configs.

Invalid numbers: each example takes one shipped config, replaces one of
its numeric fields (a scalar or a list element, nested ``task`` fields
included) by a boolean, NaN, an infinity or a negative number, and
checks that :func:`validate_config` raises :class:`ConfigError` with a
one-line message, and that the CLI exits 2 with one ``config error:``
line.  Every shipped numeric field is a count, a size, a seed, a class
index or a weight, so each of these replacements is invalid.

Table-driven cases: every field of :data:`FIELDS`, shipped or not, gets
values just outside its domain, derived from the domain's kind and
bounds, so a new field is tested with no new code.  Valid mutations move
one shipped numeric field between its lower bound and its shipped value;
a config that still validates must run and exit 0 or 1, never 2.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unlearn_lab.classifier import ClassTask
from unlearn_lab.cli import main
from unlearn_lab.errors import ConfigError
from unlearn_lab.experiments import FIELDS, REQUIRED, validate_config

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


# ----------------------------------------------------------------------
# Cases drawn from the field table
# ----------------------------------------------------------------------

def _outside(domain, default):
    """Values just outside ``domain``, from its kind and bounds alone."""
    values = [] if default is None else [None]
    if domain.many:
        one = dataclasses.replace(domain, many=False)
        first = domain.choices[0] if domain.kind == "enum" else domain.low
        return values + [[], "x", [first, first]] + [[value] for value in _outside(one, 0)]
    if domain.kind in ("int", "number"):
        closed_low, closed_high = domain.bounds[0] == "[", domain.bounds[1] == "]"
        step = 1 if domain.kind == "int" else 0.5
        if domain.low > -math.inf:
            values.append(domain.low - step if closed_low else domain.low)
        if domain.high < math.inf:
            values.append(domain.high + step if closed_high else domain.high)
        values += [True, "1", [1]]
        values += [1.5] if domain.kind == "int" else [math.nan, math.inf, -math.inf, 10**400]
    elif domain.kind == "enum":
        values += ["no-such-choice", 0, False, list(domain.choices[:1])]
    elif domain.kind == "layout":
        values += [[1, 2], [1, 2, 3, 4], [-1, 0, 0], [1.0, 0, 0], [True, 0, 0], "1,2,3", 3]
    elif domain.kind == "path":
        values += ["", 0, False, ["out.csv"], {}]
    else:  # object
        values += [0, False, [], "x"]
    return values


def _with_field(raw, name, value):
    """``raw`` with the dotted field ``name`` set to ``value``."""
    group, _, key = name.rpartition(".")
    copy = dict(raw)
    if group:
        copy[group] = dict(copy.get(group) or {}, **{key: value})
    else:
        copy[key] = value
    return copy


BY_EXPERIMENT = {raw["experiment"]: raw for raw in SHIPPED}
TABLE_CASES = [
    (experiment, name, value)
    for experiment, fields in FIELDS.items()
    for name, (default, domain) in fields.items()
    for value in _outside(domain, default)
]


def test_table_cases_cover_every_field_shipped_or_not():
    assert BY_EXPERIMENT.keys() == FIELDS.keys()
    covered = {(experiment, name) for experiment, name, _ in TABLE_CASES}
    assert covered == {(e, name) for e, fields in FIELDS.items() for name in fields}
    names = {name for _, name in covered}
    assert {"task." + field.name for field in dataclasses.fields(ClassTask)} <= names
    assert {"dist", "nt_values", "variants"} <= names


def test_every_value_outside_a_field_domain_is_rejected_by_name():
    for experiment, name, value in TABLE_CASES:
        domain = FIELDS[experiment][name][1]
        with pytest.raises(ConfigError) as excinfo:
            validate_config(_with_field(BY_EXPERIMENT[experiment], name, value), experiment)
        assert str(excinfo.value) == (
            f"{experiment}: field {name!r} must be {domain} (got {value!r})"
        ), (experiment, name, value)


def _readme_tables() -> dict[str, list[str]]:
    """The README's config tables: each section's label (``Every
    experiment`` or an experiment's name) -> its field rows, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config_format = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    tables: dict[str, list[str]] = {}
    for line in config_format.splitlines():
        if line.endswith(":") and not line.startswith("|"):
            label = line.removesuffix(":").strip("`")
        elif line.startswith("| `"):
            tables.setdefault(label, []).append(line)
    return tables


def test_readme_tables_are_copied_from_the_field_table():
    # "Every experiment" lists exactly the rows that all five tables share,
    # and each experiment's table exactly the rest of its fields.
    rows = {
        experiment: [f"| `{name}` | "
                     + ("required" if default is REQUIRED else f"`{json.dumps(default)}`")
                     + f" | {domain} |"
                     for name, (default, domain) in fields.items() if name != "experiment"]
        for experiment, fields in FIELDS.items()
    }
    shared = [row for row in rows["verify-theorems"] if all(row in own for own in rows.values())]
    assert _readme_tables() == {
        "Every experiment": [
            "| `experiment` | the requested experiment | the requested experiment's name |",
            *shared,
        ],
        **{experiment: [row for row in own if row not in shared] for experiment, own in rows.items()},
    }


# ----------------------------------------------------------------------
# Valid mutations run
# ----------------------------------------------------------------------

def _get(value, path):
    for key in path:
        value = value[key]
    return value


MOVABLE = [(raw, path) for raw, path in CASES if path[0] != "seeds"]


@settings(max_examples=8, deadline=None)
@given(case=st.sampled_from(MOVABLE), data=st.data())
def test_a_field_moved_inside_its_domain_runs(case, data):
    raw, path = case
    experiment = raw["experiment"]
    domain = FIELDS[experiment][".".join(key for key in path if isinstance(key, str))][1]
    shipped = _get(raw, path)
    low, open_low = (0, False) if domain.kind == "layout" else (domain.low, domain.bounds[0] == "(")
    if isinstance(shipped, int):
        new = data.draw(st.integers(min_value=low + open_low, max_value=shipped))
    else:
        new = data.draw(st.floats(min_value=low, max_value=shipped, exclude_min=open_low))
    mutated = _replaced(raw, path, new)
    try:
        validate_config(mutated, experiment)
    except ConfigError:
        assume(False)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(mutated), encoding="utf-8")
        argv = [experiment, "--config", str(config), "--out", str(Path(tmp) / "out.csv"),
                "--seeds", str(raw["seeds"][0])]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1), err.getvalue()
