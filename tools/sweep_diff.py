"""Compare two or more ``tools/sweep.py`` outputs key by key.

Prints every query key whose ``order_hash``, ``hash_match``,
``spark_rows`` or ``err`` is not the same in all the given files (a key
missing from a file counts as differing), then one summary line with each
file's SQL-green count.  Exits 1 if any key differs, else 0.

Usage: python tools/sweep_diff.py A.json B.json [C.json ...]

Typical use: one sweep on the parent commit, two on the change, so a
difference between the two change runs shows row-order nondeterminism and
a difference against the parent shows a behaviour change.
"""

from __future__ import annotations

import json
import sys

FIELDS = ("order_hash", "hash_match", "spark_rows", "err")
_MISSING = "<missing>"


def diff_keys(runs: list[dict]) -> dict[str, dict[str, list]]:
    """{key: {field: [value per run]}} for every differing key/field."""
    keys = sorted({k for r in runs for k in r if k != "_summary"})
    out: dict[str, dict[str, list]] = {}
    for k in keys:
        recs = [r.get(k) for r in runs]
        for f in FIELDS:
            vals = [rec.get(f) if rec is not None else _MISSING
                    for rec in recs]
            if any(v != vals[0] for v in vals[1:]):
                out.setdefault(k, {})[f] = vals
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path) as f:
            runs.append(json.load(f))
    diffs = diff_keys(runs)
    for k, fields in diffs.items():
        for f, vals in fields.items():
            print(f"{k}\t{f}\t" + "\t".join(map(str, vals)))
    greens = [
        f"{r.get('_summary', {}).get('sql_green')}/"
        f"{r.get('_summary', {}).get('sql_checked')}"
        for r in runs
    ]
    print(f"{len(diffs)} differing keys; sql_green " + " ".join(greens))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
