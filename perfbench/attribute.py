#!/usr/bin/env python3
"""Break a traced run's spans down by request size.

    python3 perfbench/attribute.py .bench_out/spans-warm-timing.jsonl

Reads the span dump a `--trace 1` run writes and prints, per request line
size, the medians of the replayed requests' layers (client wire time,
decode, design resolve, handler self time, encode, and the wait left
over), and per design size the probes' cold parse, store rehydrate and
relay times. All times in microseconds.
"""

import json
import statistics
import sys
from collections import defaultdict


def med(values):
    return statistics.median(values) if values else float("nan")


def main(path):
    spans = [json.loads(line) for line in open(path)]
    by_id = {s["id"]: s for s in spans}
    replayed = defaultdict(dict)
    for s in spans:
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if parent and parent["name"] == "client.call":
            replayed[parent["id"]][s["name"]] = s
    rows = defaultdict(lambda: defaultdict(list))
    for parts in replayed.values():
        if "client.wire" not in parts or "serve.protocol.decode" not in parts:
            continue
        d = {k: (v["end_ns"] - v["start_ns"]) / 1e3 for k, v in parts.items()}
        resolve = d.get("serve.cache.resolve", 0.0)
        handler = d["serve.handlers.execute"] - resolve
        work = (d["serve.protocol.decode"] + resolve + handler
                + d["serve.protocol.encode"])
        key = (parts["client.wire"]["tag"], parts["serve.protocol.decode"]["work"])
        row = rows[key]
        row["wire"].append(d["client.wire"])
        row["decode"].append(d["serve.protocol.decode"])
        row["resolve"].append(resolve)
        row["handler"].append(handler)
        row["encode"].append(d["serve.protocol.encode"])
        row["wait"].append(d["client.wire"] - work)
    cols = ["wire", "decode", "resolve", "handler", "encode", "wait"]
    print(f"{'kind':10} {'line B':>8} {'n':>6} " + " ".join(f"{c:>9}" for c in cols))
    for (kind, size), row in sorted(rows.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        print(f"{kind:10} {size:8d} {len(row['wire']):6d} "
              + " ".join(f"{med(row[c]):9.1f}" for c in cols))

    probes = defaultdict(list)
    for s in spans:
        if s["name"] == "serve.cache.get_or_parse":
            probes[(s["tag"], s["work"])].append((s["end_ns"] - s["start_ns"]) / 1e3)
    print(f"\n{'design B':>9} {'miss us':>9} {'rehydrate us':>13} {'ratio':>6}")
    for size in sorted({w for _, w in probes}):
        miss = med(probes.get(("miss", size), []))
        rehydrate = med(probes.get(("rehydrate", size), []))
        print(f"{size:9d} {miss:9.1f} {rehydrate:13.1f} {rehydrate / miss:6.2f}")

    relay = {name: med([(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans
                        if s["name"] == name])
             for name in ("gateway.call", "direct.call")}
    print(f"\nrelay probe: via gateway {relay['gateway.call']:.1f} us, direct "
          f"{relay['direct.call']:.1f} us, relay {relay['gateway.call'] - relay['direct.call']:.1f} us")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
