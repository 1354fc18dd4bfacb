#!/usr/bin/env python3
"""Self-tests of tracereduce.py on small synthetic traces.

  python3 e2ebench/tracereduce_test.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep the benchmark directory clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracereduce  # noqa: E402


def span(name, ts, dur, tid=1, pid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid,
            "tid": tid, "cat": "test"}


class SelfTimeTest(unittest.TestCase):
    def summary(self, events):
        return tracereduce.summarize(
            [{"name": e["name"], "ts": e["ts"], "dur": e["dur"],
              "pid": e["pid"], "tid": e["tid"]} for e in events])

    def test_nested_spans(self):
        # epoch [0,100) holds dn [10,30) and dr [40,90); dr holds step
        # [50,60). A span on another thread is nobody's child.
        s = self.summary([span("epoch", 0, 100), span("dn", 10, 20),
                          span("dr", 40, 50), span("step", 50, 10),
                          span("other", 0, 50, tid=2)])
        self.assertEqual(s["epoch"]["self_us"], 30)
        self.assertEqual(s["dn"]["self_us"], 20)
        self.assertEqual(s["dr"]["self_us"], 40)
        self.assertEqual(s["step"]["self_us"], 10)
        self.assertEqual(s["other"]["self_us"], 50)

    def test_child_starting_with_parent(self):
        s = self.summary([span("child", 0, 40), span("parent", 0, 100)])
        self.assertEqual(s["parent"]["self_us"], 60)
        self.assertEqual(s["child"]["self_us"], 40)

    def test_other_process_is_not_a_child(self):
        s = self.summary([span("a", 0, 100, pid=1), span("b", 10, 10, pid=2)])
        self.assertEqual(s["a"]["self_us"], 100)

    def test_overlapping_children_count_once(self):
        # b is not contained in a, so both are direct children of p and
        # their overlap [30,40) is subtracted once.
        s = self.summary([span("p", 0, 100), span("a", 10, 30),
                          span("b", 30, 30)])
        self.assertEqual(s["p"]["self_us"], 50)

    def test_medians_and_counts(self):
        s = self.summary([span("e", 0, 10), span("e", 20, 30),
                          span("e", 60, 50)])
        self.assertEqual(s["e"]["count"], 3)
        self.assertEqual(s["e"]["median_us"], 30)
        self.assertEqual(s["e"]["total_us"], 90)

    def test_load_skips_metadata(self):
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "trainer"}},
            span("x", 5, 7)], "mamdrMeta": {"base_us": 0}}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.trace.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            events = tracereduce.load_events(path)
        self.assertEqual([e["name"] for e in events], ["x"])
        self.assertEqual(events[0]["dur"], 7)


if __name__ == "__main__":
    unittest.main()
