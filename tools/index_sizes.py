"""Where an index's bytes go.

    python tools/index_sizes.py INDEX_DIR

Prints the bytes under each top-level entry of INDEX_DIR (largest first),
then, for the segment tier (``segments_merged``), each payload column's raw
cell bytes, its bytes per posting (postings = the sum of ``df``), and the
bytes its parquet column chunks take on disk.  Stdlib and pyarrow only, so
it runs without the package or Ray.
"""

from __future__ import annotations

import glob
import os
import sys

import pyarrow.compute as pc
import pyarrow.parquet as pq

PAYLOAD = ("docs", "tfs", "weights", "positions", "pos_offsets")


def tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def segment_columns(seg_root: str) -> tuple[int, dict, dict]:
    """``(postings, raw cell bytes per column, on-disk bytes per column)``
    over every segment parquet file under ``seg_root``."""
    postings, raw, disk = 0, dict.fromkeys(PAYLOAD, 0), dict.fromkeys(PAYLOAD, 0)
    for fp in sorted(glob.glob(os.path.join(seg_root, "*", "*.parquet"))):
        t = pq.read_table(fp, columns=["df", *PAYLOAD])
        postings += pc.sum(t["df"]).as_py() or 0
        for c in PAYLOAD:
            raw[c] += pc.sum(pc.binary_length(t[c])).as_py() or 0
        md = pq.read_metadata(fp)
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for i in range(rg.num_columns):
                col = rg.column(i)
                if col.path_in_schema in disk:
                    disk[col.path_in_schema] += col.total_compressed_size
    return postings, raw, disk


def main(index_dir: str) -> None:
    entries = sorted(os.listdir(index_dir))
    sizes = {e: tree_bytes(os.path.join(index_dir, e)) for e in entries}
    total = sum(sizes.values())
    print(f"{'entry':<24}{'bytes':>14}{'share':>8}")
    for e, b in sorted(sizes.items(), key=lambda kv: -kv[1]):
        print(f"{e:<24}{b:>14,}{b / total if total else 0:>8.1%}")
    print(f"{'total':<24}{total:>14,}")

    seg_root = os.path.join(index_dir, "segments_merged")
    if not os.path.isdir(seg_root):
        return
    postings, raw, disk = segment_columns(seg_root)
    print(f"\nsegments_merged: {postings:,} postings")
    print(f"{'column':<14}{'raw bytes':>14}{'B/posting':>11}{'on disk':>14}")
    for c in PAYLOAD:
        per = raw[c] / postings if postings else 0.0
        print(f"{c:<14}{raw[c]:>14,}{per:>11.2f}{disk[c]:>14,}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
