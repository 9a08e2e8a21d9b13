#!/usr/bin/env python3
"""Per-request timelines from a Chrome trace (UCUDNN_TRACE_FILE).

Every span recorded under a request's trace id carries it as the "trace"
argument. This tool groups the trace's spans by that id, sorts each group by
start time and prints one block per id:

    trace 7: 4 span(s) over 512.250 us
          +0.000 us     210.000 us  tid 1  serve_queue
          +0.125 us       1.500 us  tid 2  serve_admit
        +210.000 us     300.250 us  tid 1  serve_exec_request
        +512.250 us       0.000 us  tid 1  serve_resolve  UCUDNN_STATUS_SUCCESS

Spans without a trace id are left out. A trace whose recorder hit its span
cap says so in "otherData": {"dropped_spans": N}; the tool then warns on
stderr that timelines may be incomplete.

Usage:
  request_timelines.py TRACE.json                      # print the timelines
  request_timelines.py TRACE.json --require A,B,...    # ... and check them
  request_timelines.py --self-test                     # built-in test cases

--require fails every trace id that has a span named A but lacks one of the
other names, and fails when no id has A at all. So `--require serve_admit,
serve_queue,serve_exec_request,serve_resolve` checks that each admitted
request left a complete timeline (ids of merged batches carry no serve_admit
and are not checked).

Exit codes: 0 ok, 1 --require failed, 2 malformed input or usage.
"""

import argparse
import io
import json
import math
import sys


class MalformedTrace(ValueError):
    pass


def _number(event, key):
    value = event.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            not math.isfinite(value):
        raise MalformedTrace("event %r: %r is not a finite number"
                             % (event.get("name"), key))
    return float(value)


def parse(text):
    """Returns ({trace id: [span, ...] sorted by ts}, dropped span count)."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise MalformedTrace("not JSON: %s" % e)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        raise MalformedTrace('no "traceEvents" array')
    other = doc.get("otherData", {})
    dropped = other.get("dropped_spans", 0) if isinstance(other, dict) else 0
    if isinstance(dropped, bool) or not isinstance(dropped, int):
        raise MalformedTrace('"otherData.dropped_spans" is not an integer')
    groups = {}
    for event in doc["traceEvents"]:
        if not isinstance(event, dict) or not isinstance(event.get("name"),
                                                         str):
            raise MalformedTrace("event without a name: %r" % (event,))
        args = event.get("args", {})
        if not isinstance(args, dict):
            raise MalformedTrace("event %r: args is not an object"
                                 % event["name"])
        trace = args.get("trace")
        if trace is None:
            continue
        if isinstance(trace, bool) or not isinstance(trace, int):
            raise MalformedTrace("event %r: trace %r is not an integer"
                                 % (event["name"], trace))
        groups.setdefault(trace, []).append({
            "name": event["name"],
            "ts": _number(event, "ts"),
            "dur": _number(event, "dur"),
            "tid": event.get("tid", 0),
            "detail": args.get("detail", ""),
        })
    for spans in groups.values():
        spans.sort(key=lambda span: span["ts"])  # stable: ties keep order
    return groups, dropped


def render(groups):
    lines = []
    for trace in sorted(groups):
        spans = groups[trace]
        begin = spans[0]["ts"]
        end = max(span["ts"] + span["dur"] for span in spans)
        lines.append("trace %d: %d span(s) over %.3f us"
                     % (trace, len(spans), end - begin))
        for span in spans:
            line = "  %+14.3f us %12.3f us  tid %s  %s" % (
                span["ts"] - begin, span["dur"], span["tid"], span["name"])
            if span["detail"]:
                line += "  " + str(span["detail"])
            lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def missing_spans(groups, required):
    """One finding per trace id that has required[0] but lacks another, or
    one saying no id has required[0] (an empty run proves nothing)."""
    findings = []
    checked = 0
    for trace in sorted(groups):
        names = {span["name"] for span in groups[trace]}
        if required[0] not in names:
            continue
        checked += 1
        lacking = [name for name in required[1:] if name not in names]
        if lacking:
            findings.append("trace %d: has %s but lacks %s"
                            % (trace, required[0], ", ".join(lacking)))
    if checked == 0:
        findings.append("no trace id has a %s span" % required[0])
    return findings


def run(text, required, out, err):
    try:
        groups, dropped = parse(text)
    except MalformedTrace as e:
        print("request_timelines: malformed trace: %s" % e, file=err)
        return 2
    if dropped > 0:
        print("request_timelines: warning: the recorder dropped %d span(s); "
              "timelines may be incomplete" % dropped, file=err)
    out.write(render(groups))
    findings = missing_spans(groups, required) if required else []
    for finding in findings:
        print("request_timelines: %s" % finding, file=err)
    return 1 if findings else 0


def self_test():
    def span(name, trace, ts, dur=1.0, detail=None):
        args = {"depth": 0}
        if trace:
            args["trace"] = trace
        if detail:
            args["detail"] = detail
        return {"name": name, "cat": "ucudnn", "ph": "X", "ts": ts,
                "dur": dur, "pid": 1, "tid": 0, "args": args}

    def trace(events, dropped=0):
        return json.dumps({"traceEvents": events,
                           "otherData": {"dropped_spans": dropped}})

    # Out of order on purpose; request 2 never executed, batch 3 has no
    # admit span, and the unscoped span carries no trace id.
    events = [span("exec", 1, 30.0, 5.0, "UCUDNN_STATUS_SUCCESS"),
              span("admit", 1, 10.0),
              span("admit", 2, 12.0),
              span("batch", 3, 29.0, 8.0),
              span("unscoped", 0, 1.0)]

    def ordered(out, first, second):
        return 0 <= out.find(first) < out.find(second)

    cases = [
        # (name, text, required, exit code, stdout check, stderr check)
        ("groups and sorts", trace(events), None, 0,
         lambda o: (ordered(o, "trace 1:", "trace 2:")
                    and ordered(o, "admit", "exec")
                    and "trace 1: 2 span(s) over 25.000 us" in o
                    and "UCUDNN_STATUS_SUCCESS" in o
                    and "unscoped" not in o),
         lambda e: e == ""),
        ("require passes on complete ids", trace(events[:2]), ["admit", "exec"],
         0, lambda o: "trace 1:" in o, lambda e: e == ""),
        ("require fails on a missing span", trace(events), ["admit", "exec"],
         1, lambda o: "trace 2:" in o,
         lambda e: "trace 2: has admit but lacks exec" in e
         and "trace 1" not in e and "trace 3" not in e),
        ("dropped spans warn", trace(events[:2], dropped=3), None, 0,
         lambda o: "trace 1:" in o, lambda e: "dropped 3 span(s)" in e),
        ("require fails when no id has the first span", trace([]),
         ["admit", "exec"], 1, lambda o: o == "",
         lambda e: "no trace id has a admit span" in e),
        ("not JSON", "{", None, 2, lambda o: o == "",
         lambda e: "malformed" in e),
        ("no event array", json.dumps({"traceEvents": 5}), None, 2,
         lambda o: o == "", lambda e: "malformed" in e),
        ("non-numeric ts", trace([span("admit", 1, "x")]), None, 2,
         lambda o: o == "", lambda e: "malformed" in e),
        ("non-integer trace id", trace([span("admit", "1", 1.0)]), None, 2,
         lambda o: o == "", lambda e: "malformed" in e),
    ]
    failures = []
    for name, text, required, code, out_ok, err_ok in cases:
        out, err = io.StringIO(), io.StringIO()
        got = run(text, required, out, err)
        if got != code or not out_ok(out.getvalue()) or \
                not err_ok(err.getvalue()):
            failures.append((name, code, got, out.getvalue(), err.getvalue()))
    if failures:
        print("self-test FAILED")
        for name, code, got, out, err in failures:
            print("  %s: expected exit %d, got %d\n    stdout: %r\n"
                  "    stderr: %r" % (name, code, got, out, err))
        return 1
    print("self-test passed (%d cases)" % len(cases))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Group a Chrome trace's spans into per-request timelines.")
    parser.add_argument("trace", nargs="?", help="Chrome trace JSON file")
    parser.add_argument("--require", metavar="A,B,...",
                        help="fail ids that have span A but lack any other")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in test cases")
    args = parser.parse_args(argv[1:])
    if args.self_test:
        return self_test()
    if args.trace is None:
        parser.print_usage(sys.stderr)
        return 2
    required = None
    if args.require is not None:
        required = [name for name in args.require.split(",") if name]
        if len(required) < 2:
            print("request_timelines: --require needs at least two span "
                  "names", file=sys.stderr)
            return 2
    try:
        with open(args.trace, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print("request_timelines: %s" % e, file=sys.stderr)
        return 2
    return run(text, required, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
