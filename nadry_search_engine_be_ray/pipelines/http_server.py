"""HTTP layer: the reference's REST surface on stdlib http.server.

Reference: Spring Boot app on port 3000 (api/SearchApplication.java:5-11,
application.properties server.port) exposing
GET /api/search?query=&page=&limit=   (SearchController.java:53-120)
GET /api/suggestions?query=&limit=    (SearchController.java:142-170)
POST /api/save-search {query}         (SearchController.java:172-197)

This serves the SAME response dicts pipelines/api.SearchAPI produces (the
contract is tested there); the HTTP layer adds only routing, query-string
parsing, JSON (de)serialization and error envelopes.  Threading server: the
underlying SearchEngine caches are read-mostly; the suggestion store append
is guarded by a lock.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .api import SearchAPI


def make_handler(api: SearchAPI):
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # quiet test output
            pass

        def _send(self, obj, status=200):
            body = json.dumps(obj).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            parts = urlsplit(self.path)
            qs = parse_qs(parts.query)

            def arg(name, default=None):
                vals = qs.get(name)
                return vals[0] if vals else default

            try:
                if parts.path == "/api/search":
                    query = arg("query", "")
                    if not query.strip():
                        # SearchController.java:62-66 empty-query envelope
                        self._send(
                            {"success": False,
                             "message": "Search query is required"}, 400)
                        return
                    page = int(arg("page", "1"))
                    limit = int(arg("limit", "10"))
                    self._send(api.search(query, page=page, limit=limit))
                elif parts.path == "/api/suggestions":
                    self._send(
                        api.suggestions(arg("query"), int(arg("limit", "5")))
                    )
                # ---- beyond-reference feature endpoints (this engine's
                # additions; same JSON envelope style) --------------------
                elif parts.path == "/api/autocomplete":
                    from .query import prefix_suggest

                    t = prefix_suggest(
                        api.engine.index_dir, [arg("prefix", "")],
                        k=int(arg("limit", "5")),
                    )
                    self._send({"success": True,
                                "suggestions": t["term"].to_pylist()})
                elif parts.path == "/api/spell":
                    from .query import spell_correct

                    words = api.engine.tokenizer.tokenize(arg("query", ""))
                    t = spell_correct(api.engine.index_dir, words)
                    self._send({
                        "success": True,
                        "corrections": {
                            q: s for q, s in zip(t["query"].to_pylist(),
                                                 t["suggestion"].to_pylist())
                        },
                    })
                elif parts.path == "/api/facets":
                    from .query import facet_counts

                    words = api.engine.tokenizer.tokenize(arg("query", ""))
                    t = facet_counts(
                        api.engine.index_dir, words,
                        mode=arg("mode", "any"),
                    )
                    facets: dict = {}
                    for f, v, n in zip(t["facet"].to_pylist(),
                                       t["value"].to_pylist(),
                                       t["n_docs"].to_pylist()):
                        facets.setdefault(f, {})[v] = n
                    self._send({"success": True, "facets": facets})
                elif parts.path == "/api/search_after":
                    # keyset pagination: cursor = "score,doc_id_hex" from
                    # the previous page's last row (omit for page 1)
                    cur = arg("cursor")
                    after = None
                    if cur:
                        s, d = cur.split(",", 1)
                        after = (float(s), int(d, 16))
                    hits = api.engine.search_after(
                        arg("query", ""), after, k=int(arg("limit", "10")),
                        scorer=arg("scorer", "bm25"),
                    )
                    rows = [{"doc_id": f"{d:015x}", "score": s}
                            for d, s in hits]
                    nxt = (f"{rows[-1]['score']!r},{rows[-1]['doc_id']}"
                           if len(rows) == int(arg("limit", "10")) else None)
                    self._send({"success": True, "results": rows,
                                "next_cursor": nxt})
                elif parts.path == "/api/explain":
                    doc_hex = arg("doc_id", "")
                    terms = [{"term": t, "tf": tf, "df": df, "idf": idf,
                              "contribution": c}
                             for t, _, tf, df, idf, c in api.engine.explain(
                                 arg("query", ""), [int(doc_hex[:15], 16)])]
                    self._send({"success": True, "doc_id": doc_hex,
                                "terms": terms,
                                "score": sum(x["contribution"] for x in terms)})
                elif parts.path == "/api/sloppy":
                    hits = api.engine.sloppy_phrase_search(
                        arg("query", ""), slop=int(arg("slop", "1")),
                        k=int(arg("limit", "10")),
                    )
                    self._send({"success": True,
                                "results": [{"doc_id": f"{d:015x}",
                                             "score": s}
                                            for d, s in hits]})
                else:
                    self._send({"success": False, "message": "Not found"}, 404)
            except Exception as e:  # SearchController's 500 envelope
                self._send({"success": False, "message": str(e)}, 500)

        def do_POST(self):
            parts = urlsplit(self.path)
            try:
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length) or b"{}")
                if parts.path == "/api/save-search":
                    with lock:
                        out = api.save_search(payload)
                    self._send(out, 200 if out.get("success") else 400)
                else:
                    self._send({"success": False, "message": "Not found"}, 404)
            except Exception as e:
                self._send({"success": False, "message": str(e)}, 500)

    return Handler


def serve(index_dir: str, port: int = 3000,
          suggestions_path: str | None = None) -> ThreadingHTTPServer:
    """Start the API server (reference default port 3000); returns the
    running server — call ``.shutdown()`` to stop.  Serving state (segment
    readers, caches) loads once, like the Spring singleton wiring."""
    api = SearchAPI(index_dir, suggestions_path)
    server = ThreadingHTTPServer(("127.0.0.1", port), make_handler(api))
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    return server
