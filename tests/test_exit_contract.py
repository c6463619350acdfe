"""The command line's exit contract, over generated scenario files and flags.

Every run of ``cli.main`` in process exits 0, 2, 3 or 4 with no exception
and no warning, prints CSV whose cells are words, finite numbers or NA, and
on failure prints one ``marginseq:`` line on stderr, followed only by the
tab-indented lines of configparser's parse errors.  Integers are drawn
either small enough for a run to stay quick or above every size limit, so
that no run is slow for its size alone.  Flags take values of their own
type: argparse's usage errors are outside the contract.
"""

import contextlib
import csv
import io
import math
import os
import re
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from marginseq import cli

_SMALL = st.integers(-3, 64)
_HUGE = st.integers(10**12, 10**400) | st.integers(-(10**400), -(10**12))
_FLOATS = (st.floats(1e-9, 1e300) | st.floats(-1e300, -1e-9)).map(repr)
_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "1e400"])
_INTEGERS = (_SMALL | _HUGE).map(str)
_NUMBERS = st.one_of(_INTEGERS, _FLOATS, _SPECIAL)
_TEXT = st.sampled_from(["", "seven", "1_0", "0x10", "7%", " 5 "])

# every key a scenario file may hold, with its stock value where the run stays quick
_KEYS = {"scenario": {"c": "100", "delta": "0.1", "y_lim": "30"},
         "plan": {"k": "7", "b_max": "12", "n_versions": "8"},
         "pool": {"size": "50", "eps_d": "2", "seed": "42"},
         "attack": {"samples": "0", "seed": "42"}}
_INTS = ("n_versions", "size", "seed", "samples")


@st.composite
def _scenarios(draw) -> dict:
    """A valid [scenario] at scales from 1e-9 to 1e300: c > 1, 0 < delta < c / 10, y_lim > 0."""
    c = 10.0 ** draw(st.floats(1e-6, 300.0))
    delta = c * draw(st.floats(1e-12, 0.0999))
    y_lim = 10.0 ** draw(st.floats(-9.0, 300.0))
    return {"c": repr(c), "delta": repr(delta), "y_lim": repr(y_lim)}


@st.composite
def _ini_files(draw) -> bytes:
    """Each section there or not, each value stock or a number; one file in eight is broken,
    its keys missing or their values text or not finite too."""
    scaled = draw(st.booleans()) and draw(_scenarios())
    broken = draw(st.integers(0, 7)) == 0
    lines = []
    for section, keys in _KEYS.items():
        if section != "scenario" and draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        for key, stock in keys.items():
            if broken and draw(st.booleans()):
                lines.append(f"{key} = {draw(_SPECIAL | _TEXT)}" if draw(st.booleans()) else "")
                continue
            number = _INTEGERS if key in _INTS else _NUMBERS
            value = draw(st.one_of(st.just(stock), st.just(stock), number))
            lines.append(f"{key} = {scaled[key] if scaled and section == 'scenario' else value}")
    return "\n".join(lines).encode() + b"\n"


_FILES = st.none() | _ini_files() | st.binary(max_size=120)

_POINT = st.tuples(_NUMBERS, _NUMBERS).map(",".join)
_COMMANDS = st.one_of(
    st.just(["table"]),
    st.tuples(st.just("plan"), st.lists(_INTEGERS.map("--n={}".format), max_size=1)),
    st.tuples(st.just("pool"), st.lists(st.one_of(
        _INTEGERS.map("--sequence-length={}".format), _INTEGERS.map("--seed={}".format),
        _INTEGERS.map("--samples={}".format)), max_size=3)),
    st.tuples(st.just("boundary"), st.one_of(
        _POINT.map(lambda p: [f"--h={p}"]),
        st.tuples(_NUMBERS, _NUMBERS).map(lambda kb: [f"--k={kb[0]}", f"--b={kb[1]}"]))),
).map(lambda c: c if isinstance(c, list) else [c[0], *c[1]])

_WORD = re.compile(r"[a-z][a-z0-9_]*")


def _check_cell(cell: str) -> None:
    if cell == "NA":
        return
    try:
        value = float(cell)
    except ValueError:
        assert _WORD.fullmatch(cell), cell
        return
    assert math.isfinite(value), cell


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(text=_FILES, argv=_COMMANDS)
def test_every_run_keeps_the_exit_contract(text, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "scenario.ini")
            with open(path, "wb") as fh:
                fh.write(text)
            argv = ["--scenario", path, *argv]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
    assert code in (0, 2, 3, 4), code
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    for row in rows:
        assert len(row) == len(rows[0]), row
        for cell in row:
            _check_cell(cell)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert lines and lines[0].startswith("marginseq: "), lines
        assert not lines[0].startswith("marginseq: marginseq"), lines
        assert all(line.startswith("\t") for line in lines[1:]), lines
