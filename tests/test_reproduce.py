"""The battery's table of check groups and the guard around each group.

``reproduce._GROUPS`` declares every check name once, with the group
that computes it.  A group that raises ``ValueError`` (numpy's
``LinAlgError`` is one) or ``RuntimeError`` fails exactly its own checks,
with the exception as the note and no computed value; every other check
is reported as on a normal run.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from dqc1lab import reproduce
from dqc1lab.cli import main

GROUP_IDS = [group.__name__ for group, _ in reproduce._GROUPS]
DISCORD_CHECKS = ["discord-positive-range", "discord-register-qubit-positive",
                  "discord-vanishes-at-zero"]


@pytest.fixture(scope="module")
def normal_run():
    return reproduce.run_reproduce()


def _raise_in_discord(monkeypatch, exc):
    def failing(*args):
        raise exc

    monkeypatch.setattr(reproduce, "discord", failing)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_table_declares_the_battery_in_order(normal_run):
    declared = [name for _, rows in reproduce._GROUPS for name, *_ in rows]
    assert len(declared) == len(set(declared)) == 20
    assert declared == [c.name for c in normal_run.checks]


@pytest.mark.parametrize("group, rows", reproduce._GROUPS, ids=GROUP_IDS)
def test_each_group_returns_exactly_its_own_checks(normal_run, group, rows):
    computed = {c.name: c.computed for c in normal_run.checks}
    values = [float(v) for v in group()]
    # one value per declared row, each the very bits the battery reported
    assert [v.hex() for v in values] == [computed[name].hex() for name, *_ in rows]


@pytest.mark.parametrize("exc", [
    ValueError("bad input"),
    RuntimeError("clamp exceeded"),
    np.linalg.LinAlgError("Eigenvalues did not converge"),
], ids=["ValueError", "RuntimeError", "LinAlgError"])
def test_a_raising_group_fails_only_its_own_checks(monkeypatch, normal_run, exc):
    _raise_in_discord(monkeypatch, exc)
    report = reproduce.run_reproduce()
    assert [c.name for c in report.checks] == [c.name for c in normal_run.checks]
    note = f"{type(exc).__name__}: {exc}"
    for normal, c in zip(normal_run.checks, report.checks):
        if c.name in DISCORD_CHECKS:
            assert (c.computed, c.passed, c.note) == (None, False, note)
            assert (c.expected, c.tolerance, c.comparison) == (
                normal.expected, normal.tolerance, normal.comparison)
        else:
            assert c == normal
            assert c.computed.hex() == normal.computed.hex()


@pytest.mark.parametrize("change, rows_are", [
    (lambda values: values[:-1], "longer"),
    (lambda values: (*values, 0.0), "shorter"),
], ids=["one-value-too-few", "one-value-too-many"])
def test_a_group_returning_the_wrong_count_fails_only_its_own_checks(
        monkeypatch, normal_run, change, rows_are):
    # the group's values pair with its rows strictly, so no check is dropped
    groups = [(group, rows) if group is not reproduce._discord_group
              else (lambda: change(tuple(reproduce._discord_group())), rows)
              for group, rows in reproduce._GROUPS]
    monkeypatch.setattr(reproduce, "_GROUPS", tuple(groups))
    report = reproduce.run_reproduce()
    assert [c.name for c in report.checks] == [c.name for c in normal_run.checks]
    note = f"ValueError: zip() argument 2 is {rows_are} than argument 1"
    for normal, c in zip(normal_run.checks, report.checks):
        if c.name in DISCORD_CHECKS:
            assert (c.computed, c.passed, c.note) == (None, False, note)
        else:
            assert c == normal


def test_a_raising_group_prints_strict_json(monkeypatch):
    _raise_in_discord(monkeypatch, RuntimeError("clamp exceeded"))
    code, out = _run_cli(["reproduce", "--json"])
    assert code == 1
    payload = json.loads(out, parse_constant=pytest.fail)
    assert payload["all_passed"] is False
    assert len(payload["checks"]) == 20
    failed = [c["name"] for c in payload["checks"] if c["computed"] is None]
    assert failed == DISCORD_CHECKS
    assert """
    {
      "name": "discord-vanishes-at-zero",
      "computed": null,
      "expected": 0.0,
      "tolerance": 1e-09,
      "comparison": "abs_error<=tol",
      "passed": false,
      "note": "RuntimeError: clamp exceeded"
    }""" in out


def test_a_raising_group_prints_its_checks_as_failed_text(monkeypatch):
    _raise_in_discord(monkeypatch, RuntimeError("clamp exceeded"))
    code, out = _run_cli(["reproduce"])
    assert code == 1
    lines = out.splitlines()
    width = max(len(name) for _, rows in reproduce._GROUPS for name, *_ in rows)
    row = lines.index(f"FAIL  {'discord-vanishes-at-zero':<{width}}  computed=none  "
                      "expected=0.000e+00  (abs_error<=tol, tol=1e-09)")
    assert lines[row + 1] == "      note: RuntimeError: clamp exceeded"
    # 17 checks pass on a normal run, two of them in the discord group
    assert lines[-1] == "15/20 checks passed"


def test_other_exceptions_propagate(monkeypatch):
    _raise_in_discord(monkeypatch, TypeError("not a numeric failure"))
    with pytest.raises(TypeError, match="^not a numeric failure$"):
        reproduce.run_reproduce()


def test_out_of_memory_in_a_group_exits_2(monkeypatch, capsys):
    _raise_in_discord(monkeypatch, MemoryError())
    assert main(["reproduce", "--json"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")
