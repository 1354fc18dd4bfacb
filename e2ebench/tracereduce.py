#!/usr/bin/env python3
"""Self time per span name from Chrome-trace files.

Reads the chrome://tracing documents that the trainer's global recorder and
every shard's recorder write ({"traceEvents": [...]} with "ph":"X" complete
events, ts/dur in microseconds) and prints, per span name, the number of
spans, their total and median duration, and their total and median self
time. A span's self time is its duration minus the part of its interval
covered by its direct children: the spans of the same process and thread
nested inside it.

  python3 e2ebench/tracereduce.py run/core.trace.json run/shard-0.trace.json
"""

import json
import statistics
import sys


def load_events(path):
    """The complete ("X") events of one trace file as dicts with name, ts,
    dur, pid and tid. Metadata events are skipped."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    out = []
    for e in events:
        if e.get("ph") != "X":
            continue
        out.append({"name": e["name"], "ts": float(e["ts"]),
                    "dur": float(e.get("dur", 0.0)),
                    "pid": e.get("pid", 0), "tid": e.get("tid", 0)})
    return out


def _union_length(intervals):
    total = 0.0
    end = None
    start = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            if end is not None:
                total += end - start
            start, end = s, e
        else:
            end = max(end, e)
    if end is not None:
        total += end - start
    return total


def self_times(events):
    """[(event, self_us)] for every event. The parent of a span is the
    innermost span of the same (pid, tid) whose interval contains it."""
    by_thread = {}
    for i, e in enumerate(events):
        by_thread.setdefault((e["pid"], e["tid"]), []).append(i)
    children = {i: [] for i in range(len(events))}
    for idxs in by_thread.values():
        # Parents sort before the children they contain: earlier start
        # first, and on equal starts the longer span first.
        idxs.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []
        for i in idxs:
            ts = events[i]["ts"]
            end = ts + events[i]["dur"]
            while stack:
                top = events[stack[-1]]
                if top["ts"] <= ts and end <= top["ts"] + top["dur"]:
                    break
                stack.pop()
            if stack:
                children[stack[-1]].append((ts, end))
            stack.append(i)
    return [(e, e["dur"] - _union_length(children[i]))
            for i, e in enumerate(events)]


def summarize(events):
    """name -> {"count", "total_us", "self_us", "median_us",
    "median_self_us"}."""
    groups = {}
    for e, self_us in self_times(events):
        g = groups.setdefault(e["name"], {"durs": [], "selfs": []})
        g["durs"].append(e["dur"])
        g["selfs"].append(self_us)
    return {name: {"count": len(g["durs"]),
                   "total_us": sum(g["durs"]),
                   "self_us": sum(g["selfs"]),
                   "median_us": statistics.median(g["durs"]),
                   "median_self_us": statistics.median(g["selfs"])}
            for name, g in groups.items()}


def format_table(summary):
    lines = ["%-40s %8s %12s %12s %12s" % ("span", "count", "total_ms",
                                           "self_ms", "med_self_ms")]
    for name, s in sorted(summary.items(), key=lambda kv: -kv[1]["self_us"]):
        lines.append("%-40s %8d %12.3f %12.3f %12.3f" % (
            name[:40], s["count"], s["total_us"] / 1e3, s["self_us"] / 1e3,
            s["median_self_us"] / 1e3))
    return "\n".join(lines)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        print("== %s" % path)
        print(format_table(summarize(load_events(path))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
