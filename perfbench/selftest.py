#!/usr/bin/env python3
"""Self-test of the simulator benchmark (run by ctest in the benchmark build).

Checks, on every workload, that
  * the output check passes on the unmodified program for two seeds;
  * the same seed twice gives an identical simulated digest (engine events,
    end time, latency samples, every registry counter), and a different seed
    changes it, so the workload really uses its seed;
and, on stream_small and mpi16_lossy, that the output check fails by name
when fed a corrupted payload or a dropped delivery.

    python3 perfbench/selftest.py --bin .bench_build/perfbench/bclperf
"""
import argparse
import json
import re
import subprocess
import sys
import unittest

BIN = None
WORKLOADS = ("stream_small", "bulk_large", "mpi16_lossy")


def run(workload, seed, inject="none"):
    """Runs the shortest valid measurement; returns (result, digest, checks)."""
    out = subprocess.run(
        [BIN, "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", "0", "--inject", inject],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True).stdout
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    checks = [l for l in lines if l.startswith("CHECK FAILED")]
    return result, digest, checks


class Determinism(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_differs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, da, ca = run(w, 11)
                b, db, cb = run(w, 11)
                c, dc, cc = run(w, 12)
                for r, checks in ((a, ca), (b, cb), (c, cc)):
                    self.assertTrue(r["correct"], checks)
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                self.assertEqual(da, db, "same seed, different simulation")
                self.assertNotEqual(da, dc, "the seed does not reach the inputs")
                self.assertEqual(set(a), {"correct", "attempted", "failed",
                                          "metrics"})
                sim = [k for k in a["metrics"] if k.startswith("sim_")]
                self.assertEqual(len(sim), 3)
                for k in sim:
                    self.assertEqual(a["metrics"][k], b["metrics"][k], k)


class OutputCheck(unittest.TestCase):
    def expect_failure(self, workload, inject, check):
        r, _, checks = run(workload, 5, inject=inject)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertTrue(any(re.match(rf"CHECK FAILED {check}:", c)
                            for c in checks), checks)

    def test_corrupted_payload_fails_by_name(self):
        for w in ("stream_small", "mpi16_lossy"):
            with self.subTest(workload=w):
                self.expect_failure(w, "corrupt", "payload_mismatch")

    def test_dropped_delivery_fails_by_name(self):
        for w in ("stream_small", "mpi16_lossy"):
            with self.subTest(workload=w):
                self.expect_failure(w, "drop", "missing_delivery")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True, help="path to the bclperf binary")
    args, rest = ap.parse_known_args()
    BIN = args.bin
    unittest.main(argv=[sys.argv[0]] + rest, verbosity=2)
