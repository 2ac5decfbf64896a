"""Seeded inputs for the engine benchmark: corpus, update delta and queries.

The corpus has the engine's input shape ``(repo, path, commit, lang,
content)``.  Each document is the stock synthetic text
(``sources.corpus.make_corpus``) plus one line of identifiers drawn from a
bounded Zipf(1.1) law over a large vocabulary.  The stock text alone yields
a few thousand distinct terms, which fit in the segment reader's row-group
LRU; the identifier line pushes the dictionary well past it, so query
workloads exercise cold row-group reads and posting-cache evictions.

Everything here is a pure function of the seed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from nadry_search_engine_be_ray.sources.corpus import (
    COMMON_WORDS,
    make_corpus,
)

N_DOCS = 1000           # base corpus documents
IDS_PER_DOC = 160       # identifiers appended to each document
ID_VOCAB = 1_000_000    # identifier vocabulary size (ranks 1..ID_VOCAB)
ZIPF_S = 1.1
DELTA_DOCS = 250        # upsert batch; half of it replaces existing keys
DELETE_FRAC = 0.01      # share of base docs deleted and purged

_KEY_PERIOD = 7 * 23 * 13 * 97 * 4  # (repo, path) of row i repeats after this


def ident(rank: int) -> str:
    """Identifier text for a vocabulary rank (a single token)."""
    return f"sym{rank}q"


def _zipf(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` draws of 0-based ranks below ``n``, P(rank r) ~ (r+1)^-ZIPF_S."""
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_S)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(size), side="right")


def _zipf_ranks(rng: np.random.Generator, size: int) -> np.ndarray:
    return _zipf(rng, ID_VOCAB, size) + 1


def _key(i: int) -> tuple[str, str]:
    """(repo, path) of corpus row ``i`` (sources.corpus.make_shard)."""
    ext = ("py", "java", "js", "md")[i % 4]
    return f"org{i % 7}/repo{i % 23}", f"src/mod{i % 13}/file{i % 97}.{ext}"


def _with_identifiers(t: pa.Table, ranks: np.ndarray) -> tuple[pa.Table, np.ndarray]:
    """Append one identifier line per row; returns the table and the ranks
    each row actually got.  A row whose text repeats the previous row's
    (the stock corpus plants exact duplicates) repeats its identifier line
    too, so the dedup path still sees duplicates."""
    ranks = ranks.copy()
    contents: list[str] = []
    prev_text, prev_out = None, None
    for i, c in enumerate(t["content"].to_pylist()):
        if c == prev_text:
            ranks[i] = ranks[i - 1]
        else:
            prev_text = c
            prev_out = c + "\n" + " ".join(ident(int(r)) for r in ranks[i])
        contents.append(prev_out)
    return (t.set_column(t.schema.get_field_index("content"), "content",
                         pa.array(contents, pa.string())), ranks)


class BenchInputs:
    """All inputs of one seed: base corpus, update set and query lists."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.corpus, self._ranks = _with_identifiers(
            make_corpus(N_DOCS, seed),
            _zipf_ranks(rng, N_DOCS * IDS_PER_DOC).reshape(N_DOCS, IDS_PER_DOC))

    def updates(self) -> tuple[pa.Table, np.ndarray]:
        """The upsert delta and the base rows to delete afterwards.

        The delta is fresh text; its first half reuses the keys of random
        base rows (an update), its second half takes keys past the base (an
        insert).  Deleted rows are 1% of the base, none of them replaced."""
        assert N_DOCS + DELTA_DOCS < _KEY_PERIOD
        rng = np.random.default_rng(self.seed + 5)
        n_rep = DELTA_DOCS // 2
        replaced = np.sort(rng.choice(N_DOCS, n_rep, replace=False))
        keys = [_key(int(i)) for i in replaced] + [
            _key(i) for i in range(N_DOCS, N_DOCS + DELTA_DOCS - n_rep)]
        delta, _ = _with_identifiers(
            make_corpus(DELTA_DOCS, self.seed + 1),
            _zipf_ranks(rng, DELTA_DOCS * IDS_PER_DOC).reshape(
                DELTA_DOCS, IDS_PER_DOC))
        commits = [hashlib.sha256(f"delta{self.seed}:{j}".encode()).hexdigest()[:40]
                   for j in range(DELTA_DOCS)]
        delta = delta.set_column(
            0, "repo", pa.array([k[0] for k in keys], pa.string())
        ).set_column(
            1, "path", pa.array([k[1] for k in keys], pa.string())
        ).set_column(2, "commit", pa.array(commits, pa.string()))
        keep = np.setdiff1d(np.arange(N_DOCS), replaced)
        deleted = np.sort(rng.choice(keep, int(N_DOCS * DELETE_FRAC),
                                     replace=False))
        return delta, deleted

    # ---- query pools ----------------------------------------------------

    @staticmethod
    def head_query_log(n: int, pool_size: int = 200) -> list[dict]:
        """The REST workload's query log: ``n`` requests drawn Zipf(1.1) by
        rank from a pool of head-term queries (1-3 terms from the stock
        vocabulary and the 40 most likely identifiers, about one in five a
        quoted phrase, pages 1-3).  The log is the workload's traffic and
        does not depend on the seed, which picks the corpus: a seeded log
        moves the tail latency with which first-time queries fall in the
        window."""
        rng = np.random.default_rng(20111)
        words = COMMON_WORDS + [ident(r) for r in range(1, 41)]
        pool = []
        for _ in range(pool_size):
            k = int(rng.integers(1, 4))
            text = " ".join(rng.choice(words, k, replace=False))
            if k > 1 and rng.random() < 0.2:
                text = f'"{text}"'
            pool.append({"query": text, "page": int(rng.integers(1, 4))})
        return [pool[i] for i in _zipf(rng, pool_size, n)]

    def tail_queries(self, n: int) -> list[str]:
        """Distinct queries of 2-3 long-tail identifiers drawn uniformly,
        one in ten with a stock head word added."""
        doc_freq = np.zeros(ID_VOCAB + 1, dtype=np.int32)
        for row in self._ranks:
            doc_freq[np.unique(row)] += 1
        tail = np.flatnonzero((doc_freq >= 1) & (doc_freq <= 2))
        rng = np.random.default_rng(self.seed + 17)
        seen: set[str] = set()
        out: list[str] = []
        while len(out) < n:
            ids = rng.choice(tail, int(rng.integers(2, 4)), replace=False)
            words = [ident(int(r)) for r in ids]
            if rng.random() < 0.1:
                words.append(str(rng.choice(COMMON_WORDS)))
            q = " ".join(words)
            if q not in seen:
                seen.add(q)
                out.append(q)
        return out
