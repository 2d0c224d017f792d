import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _verdict(base_runs, change_runs, floor=0.0):
    """The claim verdict for lower-is-better runs, paired in order."""
    wins = {side: sum(bench_pairs.better(a, b, "lower") for a, b in zip(mine, other))
            for side, mine, other in (("base", base_runs, change_runs),
                                      ("change", change_runs, base_runs))}
    return bench_pairs.claim_rule_met(bench_pairs.summary(base_runs, wins["base"]),
                                      bench_pairs.summary(change_runs, wins["change"]), "lower",
                                      floor)


BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("wins, met", [(10, True), (9, True), (8, False)])
def test_ten_pairs_meet_the_rule_with_nine_wins_and_a_gap_above_the_iqr(wins, met):
    # Each win is 0.5 below its base run, each loss 0.1 above it: the median
    # gap exceeds the base's IQR of 0.045 with nine or eight wins alike.
    change = [b - 0.5 if i < wins else b + 0.1 for i, b in enumerate(BASE)]
    assert _verdict(BASE, change) is met


def test_fewer_than_ten_pairs_give_no_verdict():
    assert bench_pairs.MIN_PAIRS == 10
    assert _verdict(BASE[:1], [0.5]) is False
    assert _verdict(BASE[:9], [b - 0.5 for b in BASE[:9]]) is False


@pytest.mark.parametrize("gap_mb, met", [(0.12, False), (2.0, True)])
def test_a_memory_claim_needs_a_median_gap_above_the_floor(gap_mb, met):
    # Ten winning pairs with a base IQR of 0.009 MB: 0.12 MB beats the IQR
    # alone, as two checkouts of one tree can, but not the 0.5 MB floor.
    base = [42.70 + 0.002 * i for i in range(10)]
    change = [b - gap_mb for b in base]
    assert bench_pairs.MEMORY_FLOOR_MB == 0.5
    assert _verdict(base, change) is True
    assert _verdict(base, change, bench_pairs.MEMORY_FLOOR_MB) is met
