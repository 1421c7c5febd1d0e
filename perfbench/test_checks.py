"""Tests for the benchmark's output checks, on canned JSONL.

    python3 perfbench/test_checks.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402


def jsonl(*records):
    return "".join(json.dumps(r) + "\n" for r in records)


CONFORMANCE = {"type": "conformance", "gap": {"count": 40, "min": 4, "max": 30, "p50": 7}}
LATENCY_WARN = {"type": "anomaly", "monitor": "latency_drift", "metric": "ns_per_event",
                "severity": "warn", "step": 3, "detail": "wall latency drifted"}

SERVE_PARAMS = {"n": "1024", "events": "40000000"}


def serve_output(n=1024, events="40,000,000", arrivals="4,005,404",
                 departures="3,997,303", live="8,101", extra=()):
    return jsonl(
        {"type": "scenario_start", "scenario": "serve_adversarial",
         "params": {"events": "40000000", "n": "1024"}},
        {"type": "table", "title": "[serve] adversarial gap trajectory, n=%d (checkpoint)" % n,
         "headers": ["epoch", "trace time", "live balls", "total load", "gap", "migrations"],
         "rows": [["0", "0.7", "706", "706", "5", "54"],
                  ["39,062", "3898.6", live, "8,178", "9", "2,296,732"]]},
        {"type": "table", "title": "[serve] adversarial summary (post-warmup gap)",
         "headers": ["events", "arrivals", "departures", "resamples", "migrations",
                     "migr/resample", "repairs", "mean gap", "max gap", "final disc",
                     "closed bound", "gap/bound"],
         "rows": [[events, arrivals, departures, "31,997,293", "2,285,156", "0.0714",
                   "11,576", "7.093", "30", "6.99", "8", "0.887"]]},
        {"type": "timing", "title": "[serve] adversarial loop throughput",
         "headers": ["loop wall s"], "rows": [["1.782"]]},
        LATENCY_WARN, *extra, CONFORMANCE)


CAPACITY_PARAMS = {"n_list": "1000000", "load_list": "1", "epb": "2"}


def capacity_output(n=1000000, events=2000000, live=673569, departures=442008):
    return jsonl(
        {"type": "scenario_start", "scenario": "serve_capacity",
         "params": {"epb": "2", "load_list": "1", "n_list": "1000000"}},
        {"type": "frontier", "n": n, "events": events, "arrivals": 1115577,
         "live_balls": live, "mean_gap": 3, "max_gap": 3},
        {"type": "table", "title": "[capacity] frontier sweep, backend=compact",
         "headers": ["n", "events", "arrivals", "migrations"],
         "rows": [["1,000,000", "2,000,000", "1,115,577", "33,101"]]},
        {"type": "metrics", "counters": {"serve.arrivals": 1115577,
                                         "serve.departures": departures}},
        CONFORMANCE)


PROCESS_PARAMS = {"process": "rls", "n": "65536", "ratio": "8", "start": "allinone",
                  "target": "perfect", "reps": "32"}


def process_output(reached="1", disc="0", reps="32"):
    return jsonl(
        {"type": "scenario_start", "scenario": "process_compare",
         "params": {"n": "65536", "process": "rls", "ratio": "8", "start": "allinone",
                    "target": "perfect"}},
        {"type": "table", "title": "[process_compare] every dynamic, n=65536, m=524288 (x)",
         "headers": ["process", "reps", "E[at stop]", "E[events]", "E[moves]",
                     "final disc", "reached"],
         "rows": [["rls", reps, "10310", "702858", "702858", disc, reached]]},
        CONFORMANCE)


class ServeChecks(unittest.TestCase):
    def test_healthy_run_passes(self):
        errors, facts = checks.check_invocation(serve_output(), "serve_adversarial",
                                                SERVE_PARAMS)
        self.assertEqual(errors, [])
        self.assertEqual(facts["events"], 40000000)
        self.assertEqual(facts["gap_p50"], 7)

    def test_shrunken_n_is_flagged(self):
        errors, _ = checks.check_invocation(serve_output(n=1), "serve_adversarial",
                                            SERVE_PARAMS)
        self.assertTrue(any("n=1024" in e for e in errors), errors)

    def test_short_trace_is_flagged(self):
        errors, _ = checks.check_invocation(serve_output(events="40,000"),
                                            "serve_adversarial", SERVE_PARAMS)
        self.assertTrue(any("events" in e for e in errors), errors)

    def test_broken_conservation_is_flagged(self):
        errors, _ = checks.check_invocation(serve_output(live="8,100"),
                                            "serve_adversarial", SERVE_PARAMS)
        self.assertTrue(any("live balls" in e for e in errors), errors)

    def test_error_anomaly_fails_but_latency_drift_does_not(self):
        error = {"type": "anomaly", "monitor": "gap_envelope", "metric": "gap",
                 "severity": "error", "step": 9, "detail": "gap above envelope"}
        drift_error = dict(LATENCY_WARN, severity="error")
        errors, _ = checks.check_invocation(serve_output(extra=[error]),
                                            "serve_adversarial", SERVE_PARAMS)
        self.assertTrue(any("gap_envelope" in e for e in errors), errors)
        errors, _ = checks.check_invocation(serve_output(extra=[drift_error]),
                                            "serve_adversarial", SERVE_PARAMS)
        self.assertEqual(errors, [])

    def test_missing_conformance_is_flagged(self):
        text = "".join(line + "\n" for line in serve_output().splitlines()
                       if '"conformance"' not in line)
        errors, _ = checks.check_invocation(text, "serve_adversarial", SERVE_PARAMS)
        self.assertTrue(any("conformance" in e for e in errors), errors)


class CapacityChecks(unittest.TestCase):
    def test_healthy_cell_passes(self):
        errors, facts = checks.check_invocation(capacity_output(), "serve_capacity",
                                                CAPACITY_PARAMS)
        self.assertEqual(errors, [])
        self.assertEqual(facts["migrations"], 33101)

    def test_prefix_parsed_n_is_flagged(self):
        # n_list=1e6 parsed as its numeric prefix ran an n=1 cell.
        errors, _ = checks.check_invocation(capacity_output(n=1), "serve_capacity",
                                            CAPACITY_PARAMS)
        self.assertTrue(any("n=1," in e for e in errors), errors)

    def test_broken_conservation_is_flagged(self):
        errors, _ = checks.check_invocation(capacity_output(departures=442007),
                                            "serve_capacity", CAPACITY_PARAMS)
        self.assertTrue(any("live balls" in e for e in errors), errors)


class ProcessChecks(unittest.TestCase):
    def test_healthy_run_passes(self):
        errors, facts = checks.check_invocation(process_output(), "process_compare",
                                                PROCESS_PARAMS)
        self.assertEqual(errors, [])
        self.assertEqual(facts["events"], 32 * 702858)

    def test_unreached_balance_is_flagged(self):
        for out in (process_output(reached="0.97"), process_output(disc="0.5")):
            errors, _ = checks.check_invocation(out, "process_compare", PROCESS_PARAMS)
            self.assertTrue(any("perfect balance" in e for e in errors), errors)

    def test_wrong_reps_is_flagged(self):
        errors, _ = checks.check_invocation(process_output(reps="10"), "process_compare",
                                            PROCESS_PARAMS)
        self.assertTrue(any("reps" in e for e in errors), errors)

    def test_traced_counts_must_match_the_table(self):
        _, facts = checks.check_invocation(process_output(), "process_compare",
                                           PROCESS_PARAMS)
        traced = {"count.reps": 32, "count.reached": 32, "count.events": 22491459,
                  "count.moves": 22491459, "sim.balance_time_mean": 10309.67}
        self.assertEqual(checks.check_traced(traced, facts, "process_compare"), [])
        traced["count.moves"] += 32
        self.assertEqual(len(checks.check_traced(traced, facts, "process_compare")), 1)


class Helpers(unittest.TestCase):
    def test_digest_ignores_timing_records(self):
        a = serve_output()
        b = a.replace('"1.782"', '"2.5"')
        self.assertNotEqual(a, b)
        self.assertEqual(checks.table_digest(a), checks.table_digest(b))
        self.assertNotEqual(checks.table_digest(a),
                            checks.table_digest(serve_output(live="8,100")))

    def test_matches_printed(self):
        self.assertTrue(checks.matches_printed(702858.09, "702858"))
        self.assertFalse(checks.matches_printed(702859.0, "702858"))
        self.assertTrue(checks.matches_printed(7.0934, "7.093"))
        self.assertFalse(checks.matches_printed(7.0946, "7.093"))

    def test_unparseable_output_fails(self):
        errors, _ = checks.check_invocation("{not json\n", "serve_adversarial", SERVE_PARAMS)
        self.assertTrue(errors)


if __name__ == "__main__":
    unittest.main()
