"""Golden-output regression for the coordination-plane CLI.

``tests/data/control_golden/`` holds the stdout (and ``--output`` CSV)
of ``repro control run`` and ``repro control chaos`` recorded before
both commands moved onto the one epoch driver.  Every case is replayed
here and compared byte for byte, exit code included: the scripted
schedule run as a fault plan, and the chaos plans run with scripted
crash tracking, must reproduce the old drivers exactly.
"""

import os

import pytest

from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "control_golden")

#: (golden stem, CLI arguments after ``control``, expected exit code,
#: whether the case writes an ``--output`` CSV named after the stem).
CASES = [
    ("control_run_seed3", ["run", "--seed", "3"], 0, True),
    ("control_run_seed17", ["run", "--seed", "17"], 0, True),
    ("control_run_seed42", ["run", "--seed", "42"], 0, True),
    (
        "control_run_no_events",
        ["run", "--no-events", "--epochs", "6", "--sessions", "300"],
        0,
        True,
    ),
] + [
    (
        f"control_chaos_{plan}_seed{seed}",
        ["chaos", "--plan", plan, "--seed", str(seed)],
        # The controller-outage run at seed 42 has always convicted a
        # coverage-floor violation at epoch 9; the golden keeps it.
        1 if (plan, seed) == ("controller-outage", 42) else 0,
        False,
    )
    for plan in ("controller-outage", "leader-crash-mid-push")
    for seed in (3, 17, 42)
]


def _golden(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read()


@pytest.mark.parametrize(
    "stem, args, exit_code, writes_csv", CASES, ids=[c[0] for c in CASES]
)
def test_cli_output_matches_golden(
    stem, args, exit_code, writes_csv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    argv = ["control"] + args
    if writes_csv:
        argv += ["--output", f"{stem}.csv"]
    code = main(argv)
    out = capsys.readouterr().out
    assert out.encode() == _golden(f"{stem}.txt")
    assert code == exit_code
    if writes_csv:
        assert (tmp_path / f"{stem}.csv").read_bytes() == _golden(f"{stem}.csv")
