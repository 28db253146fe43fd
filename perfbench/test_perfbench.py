#!/usr/bin/env python3
"""Self-checks of the repository benchmark.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout. Takes about two minutes: it builds
perfbench/ like run.py does and makes short runs of the training
workloads.

- The deterministic counts of the training workloads repeat exactly for
  a seed, and those that depend on the trace change with the seed.
  run.py --trace 1 also checks that the traced and untraced runs agree
  on them.
- Without the library sources next to it, run.py fails and prints no
  result line.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TRAIN = ("train-kaggle-laoram", "train-kaggle-pathoram")
COUNTS = ("oram.path_reads_per_access", "oram.slots_per_access",
          "oram.bytes_per_access", "oram.stash_peak",
          "preprocessor.future_linked_frac")

# Counts that must move with the seed. PathORAM moves one full path per
# access whatever the trace (that is its obliviousness), so only its
# stash peak can move; LAORAM's stash peak is 0 for every seed because
# each union write-back empties the stash.
MOVING = {
    "train-kaggle-laoram": ("oram.path_reads_per_access",
                            "oram.slots_per_access", "oram.bytes_per_access",
                            "preprocessor.future_linked_frac"),
    "train-kaggle-pathoram": ("oram.stash_peak",),
}


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {k: result["metrics"][k]["value"] for k in COUNTS}


class Determinism(unittest.TestCase):
    def test_counts_repeat_for_a_seed_and_move_with_it(self):
        for workload in TRAIN:
            with self.subTest(workload=workload):
                a = traced_counts(workload, 11)
                self.assertEqual(a, traced_counts(workload, 11))
                others = [traced_counts(workload, s) for s in (12, 13, 14)]
                for name in MOVING[workload]:
                    self.assertTrue(any(o[name] != a[name] for o in others),
                                    f"{name} ignores the seed")


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "train-kaggle-laoram", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=300)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        self.assertFalse(last.startswith("{"), last)


if __name__ == "__main__":
    unittest.main(verbosity=2)
