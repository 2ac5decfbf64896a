"""HTTP facade vs the reference REST contract (SearchController.java):
routing, envelopes, pagination params, save-search round trip."""

import http.client
import json

import pytest

from nadry_search_engine_be_ray.pipelines.http_server import serve


@pytest.fixture(scope="module")
def server(ray_session, built_index, tmp_path_factory):
    sugg = str(tmp_path_factory.mktemp("sugg") / "suggestions.parquet")
    srv = serve(built_index, port=0, suggestions_path=sugg)  # ephemeral port
    yield srv
    srv.shutdown()


def _get(server, path):
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
    conn.request("GET", path)
    r = conn.getresponse()
    return r.status, json.loads(r.read())


def _post(server, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
    body = json.dumps(payload)
    conn.request("POST", path, body, {"Content-Type": "application/json"})
    r = conn.getresponse()
    return r.status, json.loads(r.read())


def test_search_endpoint(server):
    status, out = _get(server, "/api/search?query=import&page=1&limit=5")
    assert status == 200 and out["success"] is True
    assert out["currentPage"] == 1
    assert len(out["data"]) <= 5
    for item in out["data"]:
        assert {"doc_id", "url", "score", "description"} <= set(item)
    assert out["tokens"]  # tokenized query echoed (import -> ['import'])


def test_search_requires_query(server):
    status, out = _get(server, "/api/search?query=")
    assert status == 400 and out["success"] is False


def test_suggestions_and_save_roundtrip(server):
    status, out = _post(server, "/api/save-search", {"query": "ray data join"})
    assert status == 200 and out["success"] is True
    status, out = _get(server, "/api/suggestions?query=ray")
    assert status == 200
    assert "ray data join" in out["data"]
    assert out["source"] == "database"

    status, out = _post(server, "/api/save-search", {})
    assert status == 400 and out["success"] is False


def test_unknown_route(server):
    status, out = _get(server, "/api/nope")
    assert status == 404


def test_feature_endpoints(server):
    """Beyond-reference endpoints: autocomplete, spell, facets — thin HTTP
    wrappers over the driver-checked operators."""
    status, out = _get(server, "/api/autocomplete?prefix=se&limit=3")
    assert status == 200 and out["success"] is True
    assert out["suggestions"] and all(
        s.startswith("se") for s in out["suggestions"])
    assert len(out["suggestions"]) <= 3

    status, out = _get(server, "/api/spell?query=serch")
    assert status == 200 and out["corrections"].get("serch") == "search"

    status, out = _get(server, "/api/facets?query=search+engine")
    assert status == 200 and out["success"] is True
    assert "lang" in out["facets"] and sum(out["facets"]["lang"].values()) > 0


def test_search_after_endpoint_pages_tile(server):
    """Cursor chaining via /api/search_after must tile the ranking."""
    status, p1 = _get(server, "/api/search_after?query=search+engine&limit=5")
    assert status == 200 and p1["success"] and len(p1["results"]) == 5
    cur = p1["next_cursor"]
    assert cur
    from urllib.parse import quote

    status, p2 = _get(
        server, f"/api/search_after?query=search+engine&limit=5"
        f"&cursor={quote(cur)}"
    )
    assert status == 200 and p2["success"]
    ids1 = [r["doc_id"] for r in p1["results"]]
    ids2 = [r["doc_id"] for r in p2["results"]]
    assert not set(ids1) & set(ids2)
    # page 2 scores never exceed page 1's tail
    assert all(r["score"] <= p1["results"][-1]["score"]
               for r in p2["results"])


def test_explain_endpoint_sums_to_score(server):
    status, p1 = _get(server, "/api/search_after?query=search+engine&limit=1")
    doc = p1["results"][0]["doc_id"]
    status, ex = _get(server, f"/api/explain?query=search+engine&doc_id={doc}")
    assert status == 200 and ex["success"] and ex["terms"]
    assert abs(ex["score"] - p1["results"][0]["score"]) < 1e-9


def test_explain_endpoint_matches_explain_mode(server, built_index):
    """/api/explain and the ``explain`` serve mode report the same rows for
    the same (query, doc): term, tf, df, and idf and contribution at 9 dp."""
    import pyarrow as pa

    from nadry_search_engine_be_ray.pipelines.serve import QueryEvalActor

    q = "search engine query"
    rows = QueryEvalActor(built_index, "explain")(
        pa.table({"query": [q]})).to_pylist()
    assert rows
    for doc in sorted({r["doc_id"] for r in rows}):
        status, ex = _get(
            server, f"/api/explain?query=search+engine+query&doc_id={doc}")
        assert status == 200 and ex["success"]
        assert [(t["term"], t["tf"], t["df"], round(t["idf"], 9),
                 round(t["contribution"], 9)) for t in ex["terms"]] == [
            (r["term"], r["tf"], r["df"], r["idf"], r["contribution"])
            for r in rows if r["doc_id"] == doc], doc


def test_sloppy_endpoint(server):
    status, out = _get(server, "/api/sloppy?query=item+order&slop=3&limit=5")
    assert status == 200 and out["success"]
    assert len(out["results"]) > 0
