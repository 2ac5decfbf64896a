"""Search API facade: the reference's REST response contract, minus HTTP.

Mirrors GET /api/search (SearchController.java:53-120): quoted-phrase
detection (M10), pagination (K2) and snippet generation (M11) over the
visible page only, with the response shape ``{success, data, totalPages,
currentPage, totalResults, tokens, searchTimeSec}``
(SearchController.java:103-109).  As in the reference's T4 cache
(SearchController.java:76-97), the finished page is cached: a repeated
request skips ranking, the content fetch and the snippets, and gets a new
envelope around the cached one with its own ``searchTimeSec``.  The page
lives in the engine's bounded query cache (``SearchEngine._cache``), so it
serves the same index snapshot as the engine.

Sentence segmentation follows ``java.text.BreakIterator
.getSentenceInstance(Locale.US)`` semantics (SearchWrapper.java:581) via a
UAX#29-derived rule set (the JDK iterator implements these rules, with no
abbreviation dictionary): a sentence ends after a terminator run + optional
closing quotes/brackets + whitespace — EXCEPT that a '.'-only terminator
followed (after the spaces) by a lowercase letter does not break (SB8:
"e.g. apples" stays together; decimals never break because there is no
intervening whitespace), while any newline is a mandatory break (SB4).
The centered 240-char truncation and first-sentence fallback follow
SearchWrapper.java:566-638.
"""

from __future__ import annotations

import re
import time

from .query import QUOTED, SearchEngine

# group 1 = the terminator run when a [.!?]-triggered candidate; the bare
# newline-run alternative has no group (SB4 mandatory break)
_SENT_CAND = re.compile(r"([.!?]+)[\"'\)\]]*\s+|\n+")
MAX_SNIPPET = 240


def sentence_bounds(content: str) -> list[int]:
    """Start offsets of sentences per the JDK BreakIterator rule set
    (module docstring); always includes 0 and len(content)."""
    bounds = [0]
    for m in _SENT_CAND.finditer(content):
        term = m.group(1)
        if term is not None and "\n" not in m.group(0):
            # SB8: an ATerm-only run followed by lowercase is not a break
            if set(term) == {"."}:
                nxt = content[m.end()] if m.end() < len(content) else ""
                if nxt.islower():
                    continue
        bounds.append(m.end())
    bounds.append(len(content))
    return bounds


def find_first_context_match(content: str, query_tokens: list[str]) -> str:
    """SearchWrapper.findFirstContextMatch (SearchWrapper.java:566-638)."""
    if not content or not query_tokens:
        return "No content available or no valid search terms."
    lower = content.lower()
    sentences = None
    for token in query_tokens:
        if not token:
            continue
        idx = lower.find(token.lower())
        if idx == -1:
            continue
        if sentences is None:
            sentences = sentence_bounds(content)
        start = max(b for b in sentences if b <= idx)
        after = [b for b in sentences if b > idx]
        end = after[0] if after else len(content)
        sentence = content[start:end].strip()
        if len(sentence) > MAX_SNIPPET:
            tpos = sentence.lower().find(token.lower())
            s0 = max(0, tpos - MAX_SNIPPET // 3)
            s1 = min(len(sentence), s0 + MAX_SNIPPET)
            prefix = "..." if s0 > 0 else ""
            suffix = "..." if s1 < len(sentence) else ""
            sentence = prefix + sentence[s0:s1] + suffix
        return sentence
    # fallback: first sentence / first 200 chars (SearchWrapper.java:617-637)
    bounds = sentence_bounds(content)
    first = content[: bounds[1]].strip() if len(bounds) > 2 else content
    if len(first) > 200:
        first = first[:200] + "..."
    return first


class SuggestionStore:
    """Local stand-in for the reference's Supabase ``Suggestions`` table
    (api/SupabaseService.java:67-107, 'ilike.*q*' substring match + limit,
    rows in insertion order; save = plain insert of the trimmed query,
    duplicates allowed).  Persisted as an append-only parquet file so a
    restarted API keeps its history (S-series sink analog)."""

    def __init__(self, path: str | None = None):
        self.path = path
        self._items: list[str] = []
        if path is not None:
            import os

            if os.path.exists(path):
                import pyarrow.parquet as pq

                self._items = pq.read_table(path)["suggestion"].to_pylist()

    def save(self, query: str | None) -> bool:
        if query is None or not query.strip():
            return False
        self._items.append(query.strip())
        if self.path is not None:
            import pyarrow as pa
            import pyarrow.parquet as pq

            tmp = self.path + ".tmp"
            pq.write_table(
                pa.table({"suggestion": pa.array(self._items, pa.string())}), tmp
            )
            import os

            os.replace(tmp, self.path)
        return True

    def suggest(self, query: str | None, limit: int = 5) -> list[str]:
        if not query:
            return []  # SearchController.java:152-156: empty query -> []
        q = query.lower()
        out = []
        for s in self._items:
            if q in s.lower():
                out.append(s)
                if len(out) >= limit:
                    break
        return out


class SearchAPI:
    def __init__(self, index_dir: str, suggestions_path: str | None = None):
        self.engine = SearchEngine(index_dir)
        self.suggestions_store = SuggestionStore(suggestions_path)

    def suggestions(self, query: str | None = None, limit: int = 5) -> dict:
        """GET /api/suggestions (SearchController.java:142-170)."""
        return {
            "success": True,
            "data": self.suggestions_store.suggest(query, limit),
            "source": "database",
        }

    def save_search(self, search_data: dict) -> dict:
        """POST /api/save-search (SearchController.java:172-197)."""
        query = search_data.get("query")
        if query is None or not str(query).strip():
            return {"success": False, "message": "Search query is required"}
        self.suggestions_store.save(str(query))
        return {"success": True, "message": "Search query processed successfully"}

    def search(self, query: str, page: int = 1, limit: int = 10) -> dict:
        """1-based page in, 0-based internally (SearchController.java:87-91).
        The returned envelope is the caller's; its ``data`` rows and
        ``tokens`` are shared with the cache and must not be mutated."""
        t0 = time.time()
        # the raw page: the envelope echoes it, and pages 0 and 1 differ there
        key = ("api", query, page, limit)
        env = self.engine._cache.get(key)
        if env is None:
            env = self._page(query, page, limit)
            self.engine._cache.put(key, env)
        return {**env, "searchTimeSec": round(time.time() - t0, 6)}

    def _page(self, query: str, page: int, limit: int) -> dict:
        tokens = self.engine.tokenizer.tokenize(QUOTED.sub(" ", query or ""))
        res = self.engine._auto_page(query, max(0, page - 1), limit)

        page_ints = [int(r["doc_id"][:15], 16) for r in res["results"]]
        contents = self.engine.docs.content_for(page_ints) if page_ints else {}
        data = []
        for r, di in zip(res["results"], page_ints):
            data.append(
                {
                    **r,
                    "description": find_first_context_match(
                        contents.get(di, ""), tokens
                    ),
                }
            )
        return {
            "success": True,
            "data": data,
            "totalPages": res["total_pages"],
            "currentPage": page,
            "totalResults": res["total_results"],
            "tokens": tokens,
        }
