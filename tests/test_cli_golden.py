"""Golden-file regression tests for the analytical CLI commands.

``repro-hbm estimate`` and ``repro-hbm advise`` are pure functions of
their arguments (no simulation, no randomness), so their exact output is
pinned under ``tests/golden/``.  ``repro-hbm chaos`` does simulate, but
deterministically — seeded traffic, scheduled fault events, counter-hash
ECC — so its resilience report is pinned the same way (and doubles as a
regression net over the whole fault/retry/degradation stack).  Any
intentional change to the estimator, the guideline texts, or the output
formatting is updated explicitly with

    pytest tests/test_cli_golden.py --update-golden

which makes such changes visible in review as golden-file diffs instead
of silently drifting.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.runner import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "list.txt": ["list"],
    "estimate_ccs_xlnx_2to1_bl16.txt": [
        "estimate", "--pattern", "CCS", "--fabric", "xlnx",
        "--rw", "2:1", "--burst", "16"],
    "estimate_ccra_mao_1to1_bl8.txt": [
        "estimate", "--pattern", "CCRA", "--fabric", "mao",
        "--rw", "1:1", "--burst", "8"],
    "estimate_scs_xlnx_rdonly_bl1.txt": [
        "estimate", "--pattern", "SCS", "--fabric", "xlnx",
        "--rw", "1:0", "--burst", "1"],
    "estimate_scra_ideal_2to1_bl4.txt": [
        "estimate", "--pattern", "SCRA", "--fabric", "ideal",
        "--rw", "2:1", "--burst", "4"],
    "advise_ccra_xlnx_o4.txt": [
        "advise", "--pattern", "CCRA", "--fabric", "xlnx",
        "--outstanding", "4"],
    "advise_ccs_xlnx_bl1.txt": [
        "advise", "--pattern", "CCS", "--fabric", "xlnx",
        "--burst", "1", "--rw", "1:0"],
    "advise_scs_mao_default.txt": [
        "advise", "--pattern", "SCS", "--fabric", "mao"],
    "chaos_pch_offline.txt": [
        "chaos", "--scenario", "pch-offline", "--cycles", "2000"],
    "chaos_pch_offline_strict.txt": [
        "chaos", "--scenario", "pch-offline-strict", "--cycles", "2000"],
    # The profiler simulates deterministically (seeded traffic, no
    # wall-clock anywhere in the summary), so the whole bottleneck
    # report — attribution shares included — pins as a golden file.
    "profile_fig2.txt": [
        "profile", "fig2", "--cycles", "2000"],
}


@pytest.mark.parametrize("name,argv", sorted(CASES.items()), ids=sorted(CASES))
def test_cli_output_matches_golden(name, argv, capsys, update_golden):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    path = GOLDEN_DIR / name
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(out)
        return
    assert path.exists(), (
        f"missing golden file {path.name}; run pytest --update-golden")
    assert out == path.read_text(), (
        f"CLI output drifted from {path.name}; if intentional, rerun with "
        f"--update-golden and review the diff")


def test_golden_dir_has_no_orphans():
    """Every checked-in golden file is exercised by a case above."""
    on_disk = {p.name for p in GOLDEN_DIR.glob("*.txt")}
    assert on_disk == set(CASES)
