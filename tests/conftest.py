import os

import pytest
import ray


@pytest.fixture(scope="session")
def ray_session():
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    from nadry_search_engine_be_ray.sources.corpus import write_corpus

    d = tmp_path_factory.mktemp("corpus")
    write_corpus(str(d), n_docs=300, seed=42)
    return str(d)


@pytest.fixture(scope="session")
def built_index(ray_session, tiny_corpus_dir, tmp_path_factory):
    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index

    index_dir = str(tmp_path_factory.mktemp("index"))
    cfg = BuildConfig(num_shards=4, salt_bits=1)
    build_index(tiny_corpus_dir, index_dir, cfg)
    return index_dir


@pytest.fixture(scope="session")
def oracle_index(tiny_corpus_dir):
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.oracle import OracleIndex

    table = pads.dataset(tiny_corpus_dir, format="parquet").to_table()
    idx = OracleIndex()
    idx.add_corpus(table)
    return idx


@pytest.fixture(scope="session")
def tombstoned_index(built_index, tmp_path_factory):
    """A copy of ``built_index`` with every 7th doc tombstoned (not
    purged): readers mask the postings, the on-disk dictionary is as
    built."""
    import shutil

    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.deletes import delete_docs

    index_dir = str(tmp_path_factory.mktemp("index_tombstoned") / "idx")
    shutil.copytree(built_index, index_dir, ignore=shutil.ignore_patterns(
        "kgram_*", "permuterm", "champions_*"))
    docs = sorted(pads.dataset(os.path.join(index_dir, "doc_stats"),
                               format="parquet")
                  .to_table(columns=["doc_int"])["doc_int"].to_pylist())
    delete_docs(index_dir, docs[::7])
    return index_dir


@pytest.fixture(scope="session")
def assert_one_row_per_term():
    """Checks the segment invariant the reader relies on: every term has
    exactly one dictionary row in ``segments_merged``, and stats.json
    counts those rows."""
    import glob
    import json

    import pyarrow.parquet as pq

    def check(index_dir: str) -> None:
        terms = [
            t for fp in glob.glob(os.path.join(
                index_dir, "segments_merged", "shard=*", "*.parquet"))
            for t in pq.read_table(fp, columns=["term"])["term"].to_pylist()
        ]
        assert terms and len(terms) == len(set(terms)), index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            stats = json.load(f)
        assert stats["compacted"] and stats["n_term_rows"] == len(terms)

    return check


@pytest.fixture(scope="session")
def assert_term_rows_match_segments():
    """Checks that the term vectors ``DocStore.term_rows`` re-tokenizes
    from the stored docs are the segments' postings: per term, the docs,
    the tf summed over fields and each field's positions all equal the
    decoded posting list.  Also checks that the index keeps no
    ``postings/`` (the build's tokenize exchange)."""
    import numpy as np

    from nadry_search_engine_be_ray.pipelines.oracle_dump import (
        _decode_row_positions,
    )
    from nadry_search_engine_be_ray.pipelines.query import DocStore
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    def check(index_dir: str) -> None:
        assert not os.path.exists(os.path.join(index_dir, "postings"))
        docs = DocStore.load(index_dir)
        rows = docs.term_rows(docs.doc_ints)
        vectors: dict[str, dict[int, dict[int, list[int]]]] = {}
        for t, d, f, tf, pos in zip(*(rows[c].to_pylist() for c in (
                "term", "doc_int", "field", "tf", "pos"))):
            positions = _decode_row_positions(pos).tolist()
            assert len(positions) == tf
            vectors.setdefault(t, {}).setdefault(d, {})[f] = positions
        reader = SegmentReader(index_dir)
        assert set(reader.terms()) == set(vectors), index_dir
        for t, per_doc in vectors.items():
            pl = reader.postings(t)
            doc_list = sorted(per_doc)
            assert pl.docs.tolist() == doc_list, t
            assert pl.tfs.tolist() == [
                sum(map(len, per_doc[d].values())) for d in doc_list], t
            got = pl.positions_for_many(np.arange(pl.df))
            assert [{f: p.tolist() for f, p in g.items()} for g in got] \
                == [per_doc[d] for d in doc_list], t

    return check


@pytest.fixture(scope="session")
def assert_doc_ordinals():
    """Checks the doc-ordinal segment tier on disk: the doc-int map beside
    the shards equals the sorted ``doc_int`` column of ``doc_stats``,
    every stored ordinal falls inside the map, and, given ``fresh`` (a
    fresh build of the same live corpus), every term's row holds the
    fresh build's df and payload bytes, ``docs`` cell included."""
    import json

    import numpy as np
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.stages.encode import (
        decode_docs_column,
        load_doc_ints,
    )

    def rows(index_dir: str):
        return pads.dataset(os.path.join(index_dir, "segments_merged"),
                            format="parquet", partitioning="hive").to_table()

    def cells(index_dir: str) -> dict:
        return {r.pop("term"): r for r in rows(index_dir).drop_columns(
            ["shard", "salt"]).to_pylist()}

    def check(index_dir: str, fresh: str | None = None) -> None:
        doc_ints = load_doc_ints(os.path.join(index_dir, "segments_merged"))
        stats_ints = pads.dataset(os.path.join(index_dir, "doc_stats"),
                                  format="parquet").to_table(
            columns=["doc_int"])["doc_int"].to_numpy(zero_copy_only=False)
        assert np.array_equal(doc_ints, np.sort(stats_ints)), index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            docs_codec = json.load(f)["docs_codec"]
        t = rows(index_dir)
        ords, _ = decode_docs_column(t["docs"], t["df"].to_numpy(),
                                     docs_codec)
        assert ords.size and int(ords.max()) < doc_ints.size, index_dir
        if fresh is not None:
            got, exp = cells(index_dir), cells(fresh)
            assert got.keys() == exp.keys(), index_dir
            for term, row in exp.items():
                assert got[term] == row, (index_dir, term)

    return check


@pytest.fixture(scope="session")
def index_tiers(built_index, tombstoned_index):
    """The two dictionary layouts every term-dictionary lookup must answer
    identically on: as built, and with tombstones masking the postings."""
    return {"compacted": built_index, "tombstoned": tombstoned_index}
