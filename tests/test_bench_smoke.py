"""One short traced benchmark run, end to end.  The traced run wraps
sepmult's functions by name (perfbench/spans.py) and feeds the verdicts and
maps to ``_pairs_hook`` and ``_map_hook``, so a rename or a refactor the
harness does not follow fails here rather than in a benchmark run.  The run
writes its result and trace files under perfbench/out/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_refute_run_completes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refute", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    # seed 3's refute rounds run 61 searches, and 61 pairs decide them
    assert metrics["classify.separating_test.calls"]["value"] == 61
    assert metrics["classify.pairs_examined"]["value"] == 61
    # the search draws its trial pairs through the traced one-pair drawers,
    # two projection splits or more per pair, and looks them up in the cache
    draws = metrics["vna.random_disjoint_pair.calls"]["value"]
    assert draws > 0
    assert metrics["vna.random_projection_pair.calls"]["value"] >= 2 * draws
    assert 0 < metrics["vna.pair_draw_yield"]["value"] <= 0.5
    assert metrics["classify.pair_cache_hit_ratio"]["value"] < 1
