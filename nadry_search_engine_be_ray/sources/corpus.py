"""Deterministic synthetic source-code corpus (FIXTURES.md §1).

The input table has exactly the BASELINE.json ``input_hint`` shape:
``(repo:string, path:string, commit:string, lang:string, content:string)``.

Content is generated per-shard from a seeded numpy Generator so generation is
embarrassingly parallel and byte-stable for a given ``(seed, row_index)`` —
sharding or parallelism never changes a row.  The vocabulary deliberately
exercises every tokenizer branch (SURVEY.md §2.2 M5/M6) and the skew path:

* head tokens ``import`` / ``return`` / ``def`` appear in >=60% of rows
  (salting tests, SURVEY.md §4.2)
* the 26 reference stop words (StopWordFilter.java:12-16)
* tokens of length 1/2/3/4/50/51 (length bounds + stemming cutoff,
  Tokenizer.java:46,56)
* emails / urls / numbers (special-token rules, Tokenizer.java:18-23)
* underscores and a literal ``_email_`` (placeholder collision)
* non-ASCII needing NFC
* exact-duplicate contents (sha256 dedup path)
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SHARD_ROWS = 4096  # fixed: part of the corpus definition, not a tuning knob

_EXTS = [("py", "python"), ("java", "java"), ("js", "javascript"), ("md", "markdown")]

HEAD_TOKENS = ["import", "return", "def"]

COMMON_WORDS = [
    "nation", "running", "ability", "item", "order", "arrived", "search",
    "engine", "index", "query", "document", "rank", "page", "crawl", "token",
    "parse", "filter", "build", "merge", "score", "link", "graph", "node",
    "value", "result", "method", "class", "function", "variable", "string",
    "array", "list", "table", "column", "batch", "stream", "shard", "block",
    "cache", "store", "fetch", "write", "read", "update", "delete", "create",
    "process", "thread", "worker", "task", "happy", "early", "trouble",
    "argument", "university", "community", "electrical", "national",
    "generous", "effective", "hopeful", "adjustable", "operator",
]

STOP_WORDS_SAMPLE = [
    "a", "an", "and", "the", "of", "to", "in", "is", "it", "that", "with",
    "for", "on", "as", "this",
]

EDGE_TOKENS = [
    "x", "ab", "abc", "abcd", "q" * 50, "q" * 51, "_email_", "my_var",
    "café", "naïve",
]

SPECIAL_SNIPPETS = [
    "contact test@example.com",
    "see www.example.com/page",
    "pi is 3.14",
    "answer 42",
    "mail admin@site.org now",
]


def _rare(j: int) -> str:
    return f"zq{j}x"


def _ident(j: int) -> str:
    return f"func_{j}"


def make_shard(shard: int, n_rows: int, seed: int = 42) -> pa.Table:
    """Generate rows [shard*SHARD_ROWS, shard*SHARD_ROWS + n_rows)."""
    rng = np.random.default_rng((seed << 20) + shard)
    repos, paths, commits, langs, contents = [], [], [], [], []
    prev_content = None
    for j in range(n_rows):
        i = shard * SHARD_ROWS + j
        ext, lang = _EXTS[i % len(_EXTS)]
        repo = f"org{i % 7}/repo{i % 23}"
        path = f"src/mod{i % 13}/file{i % 97}.{ext}"
        commit = hashlib.sha256(f"c{i}".encode()).hexdigest()[:40]

        if j % 50 == 49 and prev_content is not None:
            content = prev_content  # exact duplicate for the dedup path
        else:
            headline = " ".join(rng.choice(COMMON_WORDS, size=3))
            desc = " ".join(rng.choice(COMMON_WORDS, size=4))
            if rng.random() < 0.3:
                desc += " " + SPECIAL_SNIPPETS[int(rng.integers(len(SPECIAL_SNIPPETS)))]
            lines = [f"// {headline}", f"// {desc}"]
            n_body_lines = int(rng.integers(4, 10))
            for _ in range(n_body_lines):
                toks: list[str] = []
                for h in HEAD_TOKENS:
                    if rng.random() < 0.35:
                        toks.append(h)
                toks.extend(rng.choice(COMMON_WORDS, size=int(rng.integers(2, 7))))
                toks.extend(rng.choice(STOP_WORDS_SAMPLE, size=int(rng.integers(1, 4))))
                if rng.random() < 0.25:
                    toks.append(_rare(int(rng.integers(5000))))
                if rng.random() < 0.4:
                    toks.append(_ident(int(rng.integers(2000))))
                if rng.random() < 0.1:
                    toks.append(EDGE_TOKENS[int(rng.integers(len(EDGE_TOKENS)))])
                if rng.random() < 0.08:
                    toks.append(SPECIAL_SNIPPETS[int(rng.integers(len(SPECIAL_SNIPPETS)))])
                rng.shuffle(toks)
                lines.append(" ".join(toks))
            # make sure the ranking smoke query vocabulary exists
            if i % 17 == 0:
                lines.append("item order arrived late item")
            content = "\n".join(lines)
            prev_content = content

        repos.append(repo)
        paths.append(path)
        commits.append(commit)
        langs.append(lang)
        contents.append(content)

    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(commits, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def make_corpus(n_docs: int, seed: int = 42) -> pa.Table:
    shards = []
    s = 0
    while s * SHARD_ROWS < n_docs:
        n = min(SHARD_ROWS, n_docs - s * SHARD_ROWS)
        shards.append(make_shard(s, n, seed))
        s += 1
    return pa.concat_tables(shards)


def write_corpus(out_dir: str, n_docs: int, seed: int = 42) -> str:
    """Write the corpus as one parquet file per shard (parallel-read layout).

    Shards are generated in parallel via Ray when a session is up (content is
    a pure function of (seed, shard), so parallelism never changes a byte);
    falls back to sequential generation otherwise.  Idempotent: skips
    generation when a _meta marker records the same n_docs/seed.
    """
    marker = os.path.join(out_dir, "_meta")
    tag = f"{n_docs}:{seed}:v1"
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().strip() == tag:
                return out_dir
    os.makedirs(out_dir, exist_ok=True)
    for f in os.listdir(out_dir):
        if f.endswith(".parquet"):
            os.remove(os.path.join(out_dir, f))

    shards = []
    s = 0
    while s * SHARD_ROWS < n_docs:
        shards.append((s, min(SHARD_ROWS, n_docs - s * SHARD_ROWS)))
        s += 1

    use_ray = False
    try:
        import ray

        use_ray = ray.is_initialized() and len(shards) > 1
    except ImportError:
        pass

    if use_ray:
        import ray

        @ray.remote
        def _gen(shard: int, n: int) -> None:
            pq.write_table(
                make_shard(shard, n, seed),
                os.path.join(out_dir, f"corpus-{shard:05d}.parquet"),
            )

        ray.get([_gen.remote(sh, n) for sh, n in shards])
    else:
        for sh, n in shards:
            pq.write_table(
                make_shard(sh, n, seed),
                os.path.join(out_dir, f"corpus-{sh:05d}.parquet"),
            )
    with open(marker, "w") as f:
        f.write(tag)
    return out_dir


# ---------------------------------------------------------------------------
# link graph (FIXTURES.md §3) — known structure for the PageRank quirk tests
# ---------------------------------------------------------------------------

def doc_url(repo: str, path: str, commit: str) -> str:
    return f"{repo}/{path}@{commit}"


def make_links(urls: list[str], seed: int = 42) -> pa.Table:
    """Deterministic (src, dst) edges over the given doc urls.

    Structure: a cycle over the first 10 urls, a sink (url[10] receives but
    never links), a no-inlink source (url[11] links out, nobody links to it),
    dangling edges to non-corpus targets, plus seeded random edges.
    """
    rng = np.random.default_rng(seed + 999)
    src, dst = [], []
    n = len(urls)
    if n >= 12:
        for k in range(10):
            src.append(urls[k]); dst.append(urls[(k + 1) % 10])
        for k in range(0, 8, 2):
            src.append(urls[k]); dst.append(urls[10])      # sink
        src.append(urls[11]); dst.append(urls[0])          # no-inlink source
        src.append(urls[3]); dst.append("org0/ghost.py@deadbeef")  # dangling
    m = max(n, 1)
    for _ in range(3 * n):
        a = int(rng.integers(m)); b = int(rng.integers(m))
        if a != b:
            src.append(urls[a]); dst.append(urls[b])
    return pa.table({"src": pa.array(src, pa.string()), "dst": pa.array(dst, pa.string())})


# ---------------------------------------------------------------------------
# reference query set (FIXTURES.md §2)
# ---------------------------------------------------------------------------

def reference_queries() -> list[dict]:
    return [
        {"query_id": 0, "query": "item order arrived", "page": 0, "page_size": 10},
        {"query_id": 1, "query": "search", "page": 0, "page_size": 10},
        {"query_id": 2, "query": "national community", "page": 0, "page_size": 10},
        {"query_id": 3, "query": '"item order"', "page": 0, "page_size": 10},
        {"query_id": 4, "query": "the a an of", "page": 0, "page_size": 10},
        {"query_id": 5, "query": '"the search"', "page": 0, "page_size": 10},
        {"query_id": 6, "query": "zzzznotaterm", "page": 0, "page_size": 10},
        {"query_id": 7, "query": "test@example.com", "page": 0, "page_size": 10},
        {"query_id": 8, "query": "3.14", "page": 0, "page_size": 10},
        {"query_id": 9, "query": "index merge", "page": 1, "page_size": 5},
        {"query_id": 10, "query": "search engine", "page": 99, "page_size": 10},
        {"query_id": 11, "query": "running university", "page": 0, "page_size": 10},
        {"query_id": 12, "query": '"order arrived late"', "page": 0, "page_size": 10},
        {"query_id": 13, "query": "import", "page": 0, "page_size": 10},
        {"query_id": 14, "query": "func_7 zq11x", "page": 0, "page_size": 10},
    ]


# query-time synonym thesaurus (RAW words; both sides tokenize/stem them).
# A thesaurus is CONFIG, not computation — the oracle shares the table and
# recomputes only the scoring (pipelines/serve mode 'synonym').
QUERY_THESAURUS = {
    "item": ["object", "article"],
    "order": ["purchase", "request"],
    "search": ["find", "lookup"],
    "national": ["country"],
    "community": ["public", "group"],
    "index": ["catalog"],
    "merge": ["combine"],
    "engine": ["system"],
    "running": ["execute"],
    "university": ["college"],
    "import": ["include"],
    "arrived": ["came"],
}
