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
def uncompacted_index(ray_session, tiny_corpus_dir, tmp_path_factory):
    """The same corpus left as unmerged salted runs: a term's dictionary
    row (and df) is split across up to four salt runs."""
    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index

    index_dir = str(tmp_path_factory.mktemp("index_uncompacted"))
    build_index(tiny_corpus_dir, index_dir,
                BuildConfig(num_shards=2, salt_bits=2, compact_segments=False))
    return index_dir


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
def index_tiers(built_index, uncompacted_index, tombstoned_index):
    """The three dictionary layouts every term-dictionary lookup must
    answer identically on."""
    return {"compacted": built_index, "uncompacted": uncompacted_index,
            "tombstoned": tombstoned_index}
