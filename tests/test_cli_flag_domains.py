"""Every numeric CLI flag, given a bad value, exits cleanly.

The walk reads each subcommand's ``int`` and ``float`` options from the
parser itself, so a new flag is covered with no new test code.  Each
option runs in-process on minimal arguments with ``nan``, ``inf`` and
``-1`` (floats) or ``-1`` and ``0`` (ints).  ``fleet`` runs with
autoscaling on so its autoscaler options act.

A run must not raise or emit a ``RuntimeWarning``, and must exit 0 or
2, or 1 through one of the explicit no-result paths (a ``sweep`` that
skips every point, a ``sweep-nc`` with no curve).  NaN and infinity are
never accepted.
"""

import math
import warnings

import pytest

from repro.cli import _build_parser, main

#: Minimal arguments, given to every subcommand that takes them.
MINIMAL = {"--tokens": "2048", "--rps": "20", "--duration": "1", "--systems": "comet"}
EXTRA = {"fleet": ["--autoscale", "1"]}
BAD = {float: ("nan", "inf", "-1"), int: ("-1", "0")}
NO_RESULT = ("error: no valid scenario", "no curve on this cluster:")


def _cases():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    for command, parser in sub.choices.items():
        base = [command, *EXTRA.get(command, ())]
        for option, value in MINIMAL.items():
            if option in parser._option_string_actions:
                base += [option, value]
        for action in parser._actions:
            if action.type not in BAD:
                continue
            flag = action.option_strings[0]
            for value in BAD[action.type]:
                yield pytest.param(base + [flag, value], id=f"{command} {flag} {value}")


CASES = list(_cases())


def test_walk_covers_every_numeric_subcommand():
    commands = {case.values[0][0] for case in CASES}
    assert commands == {"layer", "model", "sweep", "sweep-nc", "serve", "fleet", "trace"}
    assert len(CASES) > 120


@pytest.mark.parametrize("argv", CASES)
def test_bad_numeric_value_exits_cleanly(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # trace writes its --out file here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    last_line = (err.splitlines() or [""])[-1]
    assert code in (0, 2) or (code == 1 and last_line.startswith(NO_RESULT)), (code, err)
    if not math.isfinite(float(argv[-1])):
        assert code != 0, "a non-finite value was accepted"
