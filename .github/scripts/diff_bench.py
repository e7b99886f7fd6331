#!/usr/bin/env python3
"""Diff two BENCH_*.json trajectory files on their stable keys.

Wall-clock fields (any key containing "micros", plus the derived "speedup"
and "overhead" ratios, interval ends included), the core count ("cores") and
the number of timed rounds ("samples") vary per runner, so they are stripped
before comparison; everything else — experiment coordinates, answer sizes,
deterministic evaluator counters like steps / domain sizes / join probes —
must be identical between the committed file and the freshly regenerated one.
"""

import json
import sys

VOLATILE = ("micros", "speedup", "overhead", "cores", "samples")


def stable(node):
    if isinstance(node, dict):
        return {
            k: stable(v)
            for k, v in node.items()
            if not any(tag in k for tag in VOLATILE)
        }
    if isinstance(node, list):
        return [stable(v) for v in node]
    return node


def main() -> int:
    committed_path, regenerated_path = sys.argv[1], sys.argv[2]
    with open(committed_path) as f:
        committed = stable(json.load(f))
    with open(regenerated_path) as f:
        regenerated = stable(json.load(f))
    if committed == regenerated:
        print(f"{committed_path}: stable keys match the regenerated trajectory")
        return 0
    print(f"{committed_path}: stable keys drifted from the regenerated trajectory")
    print("committed:  ", json.dumps(committed, indent=2))
    print("regenerated:", json.dumps(regenerated, indent=2))
    return 1


if __name__ == "__main__":
    sys.exit(main())
