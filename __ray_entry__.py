"""Driver contract for the Ray-Data-native Nadry rebuild.

``entry()`` runs the flagship pipeline (synthetic source-code corpus ->
index build -> batch reference-query evaluation) at sf0.001 scale.
``queries()`` exposes one callable per implemented operator family
(SURVEY.md §2 + the training-data extras); ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible one.  Ray is initialised by the driver
before import — nothing here calls ray.init()/shutdown().
"""

from __future__ import annotations

import hashlib
import os
import re
from collections.abc import Callable
from typing import Any

_EN_STOPS_SQL = "('a','an','and','are','as','at','be','by','for','from','has','he','in','is','it','its','of','on','that','the','to','was','were','will','with','this')"


def _corpus_docs_for(sf_dir: str) -> int:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    sf = float(m.group(1)) if m else 0.001
    return max(200, int(sf * 200_000))


# bump when the build's on-disk format changes: keys every /tmp entry index
_INDEX_FORMAT = "v8"
# merge/delete/upsert fixture roots: keyed on the format too, so a format
# change rebuilds them instead of re-reading indexes the old code merged
_INDEX_MERGE_ROOT = f"/tmp/nadry_entry/index_merge_{_INDEX_FORMAT}"
_DELETE_MERGE_ROOT = f"/tmp/nadry_entry/delete_merge_{_INDEX_FORMAT}"
_UPSERT_ROOT = f"/tmp/nadry_entry/upsert_{_INDEX_FORMAT}"


def _built_index(sf_dir: str, docs_codec: str = "varint"):
    """Build (once, cached in /tmp) the synthetic corpus + index for sf_dir
    with the given posting docs codec (BuildConfig.docs_codec: 'varint',
    'bitpack' or 'ef'); each (n_docs, codec) pair has its own cache dir."""
    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index
    from nadry_search_engine_be_ray.sources.corpus import write_corpus

    n_docs = _corpus_docs_for(sf_dir)
    key = hashlib.sha256(
        f"{_INDEX_FORMAT}:{n_docs}:{docs_codec}".encode()).hexdigest()[:12]
    root = f"/tmp/nadry_entry/{key}"
    corpus_dir = os.path.join(root, "corpus")
    index_dir = os.path.join(root, "index")
    write_corpus(corpus_dir, n_docs=n_docs, seed=42)
    build_index(corpus_dir, index_dir, BuildConfig(
        num_shards=8, salt_bits=2, docs_codec=docs_codec))
    return corpus_dir, index_dir


def entry() -> Any:
    """Flagship: build the inverted index over the sf0.001-scale synthetic
    corpus and evaluate the reference query set through the actor-pool batch
    scorer; returns the per-query top-10 result table."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.serve import batch_search
    from nadry_search_engine_be_ray.sources.corpus import reference_queries

    _, index_dir = _built_index("/root/testdata/sf0.001")
    qs = reference_queries()
    qds = ray.data.from_arrow(
        pa.table(
            {
                "query": pa.array([q["query"] for q in qs], pa.string()),
                "page": pa.array([q["page"] for q in qs], pa.int32()),
                "page_size": pa.array([q["page_size"] for q in qs], pa.int32()),
            }
        )
    )
    return batch_search(qds, index_dir, mode="reference", concurrency=2)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    from nadry_search_engine_be_ray.pipelines import quant_ops as qo
    from nadry_search_engine_be_ray.pipelines import relational as rel
    from nadry_search_engine_be_ray.pipelines import scan_ops as scan
    from nadry_search_engine_be_ray.pipelines import textqueries as tq

    out: dict[str, Callable[[str], Any]] = {
        # quantitative-analytics family (session 10, SQL-checked)
        "max_drawdown": qo.q_max_drawdown,
        "vwap_daily": qo.q_vwap_daily,
        "anova_f": qo.q_anova_f,
        "mad_outliers": qo.q_mad_outliers,
        "percentile_interp": qo.q_percentile_interp,
        "dict_encoding_profile": qo.q_dict_encoding_profile,
        "decision_stump": qo.q_decision_stump,
        "double_billing": qo.q_double_billing,
        "quantile_normalize": qo.q_quantile_normalize,
        "cusum_drift": qo.q_cusum_drift,
        "attribution_linear": qo.q_attribution_linear,
        "sprt_decision": qo.q_sprt_decision,
        "cohort_ltv": qo.q_cohort_ltv,
        "lorenz_curve": qo.q_lorenz_curve,
        "revenue_proration": qo.q_revenue_proration,
        "skew_audit": qo.q_skew_audit,
        "window_ratios": qo.q_window_ratios,
        "interarrival_stats": qo.q_interarrival_stats,
        "grouping_sets": qo.q_grouping_sets,
        "tree_depth2": qo.q_tree_depth2,
        # relational operator inventory (SQL-checked)
        "agg_pushdown": rel.q_agg_pushdown,
        "broadcast_join": rel.q_broadcast_join,
        "topk_sort": rel.q_topk,
        "distinct_count": rel.q_distinct,
        "filter_project": rel.q_filter_project,
        "window_tumbling": rel.q_window,
        "window_sliding": rel.q_window_sliding,
        "cumulative_sum": rel.q_cumulative_sum,
        "grouped_topk": rel.q_grouped_topk,
        "quantiles_by_type": rel.q_quantiles,
        "pivot_events": rel.q_pivot_events,
        "three_way_join": rel.q_three_way_join,
        "sessionize": rel.q_sessionize,
        "asof_join": rel.q_asof_join,
        "range_join": rel.q_range_join,
        "anti_join": rel.q_anti_join,
        "hash_join": rel.q_hash_join,
        "outer_join": rel.q_outer_join,
        "semi_join": rel.q_semi_join,
        "skew_join": rel.q_skew_join,
        "rollup_agg": rel.q_rollup,
        "cube_agg": rel.q_cube_agg,
        "grouped_median": rel.q_grouped_median,
        "heavy_hitters": _q_heavy_hitters,
        "top_grams_approx": _q_top_grams_approx,
        "tpch_q3": rel.q_tpch_q3,
        "tpch_q5": rel.q_tpch_q5,
        "tpch_q6": rel.q_tpch_q6,
        "tpch_q10": rel.q_tpch_q10,
        "tpch_q12": rel.q_tpch_q12,
        "tpch_q18": rel.q_tpch_q18,
        "tpch_q13": rel.q_tpch_q13,
        "tpch_q14": rel.q_tpch_q14,
        "tpch_q17": rel.q_tpch_q17,
        "tpch_q15": rel.q_tpch_q15,
        "tpch_q4": rel.q_tpch_q4,
        "tpch_q7": rel.q_tpch_q7,
        "tpch_q11": rel.q_tpch_q11,
        "tpch_q19": rel.q_tpch_q19,
        "tpch_q8": rel.q_tpch_q8,
        "tpch_q9": rel.q_tpch_q9,
        "tpch_q16": rel.q_tpch_q16,
        "tpch_q20": rel.q_tpch_q20,
        "tpch_q21": rel.q_tpch_q21,
        "tpch_q22": rel.q_tpch_q22,
        "zscore_outliers": rel.q_zscore_outliers,
        "event_trigrams": rel.q_event_trigrams,
        "tpch_q2": rel.q_tpch_q2,
        "markov_transitions": rel.q_markov_transitions,
        "trend_slope": rel.q_trend_slope,
        "daily_autocorr": rel.q_daily_autocorr,
        "chi2_independence": rel.q_chi2_independence,
        "assoc_rules": rel.q_assoc_rules,
        "gini_by_source": rel.q_gini_by_source,
        "grouped_distinct": rel.q_grouped_distinct,
        "time_weighted_avg": rel.q_time_weighted_avg,
        "covisitation": rel.q_covisitation,
        "event_transitions": rel.q_event_transitions,
        "skyline_orders": rel.q_skyline_orders,
        "retention_cohorts": rel.q_retention_cohorts,
        "interval_coverage": rel.q_interval_coverage,
        "set_intersect": rel.q_set_intersect,
        "event_deltas": rel.q_event_deltas,
        "corr_stats": rel.q_corr_stats,
        "mode_per_group": rel.q_mode_per_group,
        "histogram": rel.q_histogram,
        "group_concat": rel.q_group_concat,
        "weighted_sample": rel.q_weighted_sample,
        "percent_rank": rel.q_percent_rank,
        "unpivot_long": rel.q_unpivot_long,
        "merge_upsert": rel.q_merge_upsert,
        "term_fuzzy_pairs": tq.term_fuzzy_pairs,
        "funnel_conversion": rel.q_funnel_conversion,
        "term_cooccur": tq.term_cooccur,
        "pmi_pairs": tq.pmi_pairs,
        "phrase_suggest": tq.phrase_suggest,
        "type_token_ratio": tq.type_token_ratio,
        "hapax_rate": tq.hapax_rate,
        "doc_keywords": tq.doc_keywords,
        "benford_prices": rel.q_benford_prices,
        "rfm_scores": rel.q_rfm_scores,
        "json_extract_agg": rel.q_json_extract_agg,
        "snapshot_diff": rel.q_snapshot_diff,
        "data_card": tq.data_card,
        # inverted-index mechanics on the documents table (SQL-checked)
        "term_df": tq.term_df,
        "top_terms": tq.top_terms,
        "doc_token_count": tq.doc_token_count,
        "first_position": tq.first_position,
        "phrase_contains": tq.phrase_contains,
        "search_additive": tq.search_additive,
        "tfidf_rank": tq.tfidf_rank,
        "bm25_simple": tq.bm25_simple,
        "search_lm_dirichlet": tq.lm_dirichlet,
        "search_dfr_pl2": tq.dfr_pl2,
        "zipf_fit": tq.zipf_fit,
        "kwic_concordance": tq.kwic_concordance,
        "session_paths": tq.session_paths,
        "mlm_masking": tq.mlm_masking,
        "anchor_text_agg": tq.anchor_text_agg,
        "label_centroids": rel.q_label_centroids,
        "conversion_lag": rel.q_conversion_lag,
        "attribution_first_touch": rel.q_attribution_first_touch,
        "column_profile": rel.q_column_profile,
        "seasonal_dow": rel.q_seasonal_dow,
        "search_lm_jm": tq.lm_jelinek_mercer,
        "ltr_linear": tq.ltr_linear,
        # training-data ops (SQL-checked)
        "exact_dedup": _q_exact_dedup,
        "compact_signature": _q_compact_signature,
        "compact_dedup": _q_compact_dedup,
        "ngram_jaccard": _q_ngram_jaccard,
        "containment_pairs": _q_containment_pairs,
        "js_divergence_sources": tq.js_divergence_sources,
        "ks_test_2sample": rel.q_ks_test_2sample,
        "token_counts": _q_token_counts,
        "quality_scores": _q_quality,
        "lang_id": _q_lang_id,
        "ann_topk": _q_ann_topk,
        "hard_negatives": _q_hard_negatives,
        "naive_bayes": _q_naive_bayes,
        "knn_classify": _q_knn_classify,
        "ntile_quartiles": rel.q_ntile_quartiles,
        "iqr_outliers": rel.q_iqr_outliers,
        "ewma_daily": rel.q_ewma_daily,
        "facet_stats": _q_facet_stats,
        "significant_terms": _q_significant_terms,
        "search_eval": _q_search_eval,
        # SQL-checked since round 2: LSH candidates + distributed exact
        # verify make these equal to their all-pairs SQL oracles
        "minhash_lsh_pairs": _q_minhash_pairs,
        "embedding_near_dup": _q_embedding_near_dup,
        "fingerprint_sha": _q_fingerprint_sha,
        "near_dup_clusters": _q_near_dup_clusters,
        # O(log diameter) pointer-doubling CC — same labels, same oracle
        "near_dup_clusters_pd": lambda sf_dir: _q_near_dup_clusters(
            sf_dir, method="pointer_doubling"
        ),
        "pagerank_power": _q_pagerank_power,
        "ppr_scores": _q_ppr_scores,
        "triangle_count": _q_triangle_count,
        "kcore_nodes": _q_kcore,
        "ktruss_nodes": _q_ktruss,
        "katz_centrality": _q_katz,
        # ops/integrity family
        "partition_checksums": rel.q_partition_checksums,
        "winsorized_mean": rel.q_winsorized_mean,
        "compaction_plan": rel.q_compaction_plan,
        "rolling_median_smooth": rel.q_rolling_median_smooth,
        "clamped_balance": rel.q_clamped_balance,
        "theil_sen": rel.q_theil_sen,
        "ts_dod_bits": rel.q_ts_dod_bits,
        "feature_hashing": tq.feature_hashing_stats,
        "kleinberg_burst": rel.q_kleinberg_burst,
        "term_dict_frontcode": tq.term_dict_frontcode,
        "zone_map_prune": rel.q_zone_map_prune,
        "kmv_distinct": rel.q_kmv_distinct,
        "orphan_keys": rel.q_orphan_keys,
        "cumulative_users": rel.q_cumulative_users,
        "geo_harmonic_means": rel.q_geo_harmonic_means,
        "weighted_median": rel.q_weighted_median,
        "kaplan_meier": rel.q_kaplan_meier,
        "hhi_concentration": rel.q_hhi_concentration,
        "cross_correlation": rel.q_cross_correlation,
        "blocking_quality": rel.q_blocking_quality,
        "fd_discovery": rel.q_fd_discovery,
        "decayed_counts": rel.q_decayed_counts,
        "link_pred_cn": _q_link_pred_cn,
        "link_pred_jaccard": _q_link_pred_jaccard,
        "adamic_adar": _q_adamic_adar,
        "trigram_substring_search": tq.trigram_substring_search,
        "bfs_depths": _q_bfs_depths,
        "closeness_centrality": _q_closeness,
        "reciprocity": _q_reciprocity,
        "item_cf_topk": qo.q_item_cf_topk,
        "permuterm_wildcard": _q_permuterm,
        "scc_seeded": _q_scc_seeded,
        "sssp_fixed": _q_sssp_fixed,
        "luby_mis": _q_luby_mis,
        "rank_correlation": tq.rank_correlation,
        "scd2_dimension": rel.q_scd2_dimension,
        "state_asof": rel.q_state_asof,
        "random_projection": rel.q_random_projection,
        "rank_join": rel.q_rank_join,
        "quality_rules": rel.q_quality_rules,
        "eb_smoothed_rates": rel.q_eb_smoothed_rates,
        "late_orders": rel.q_late_orders,
        "golden_records": tq.golden_records,
        "changepoint_daily": rel.q_changepoint_daily,
        "join_cardinality_est": rel.q_join_cardinality_est,
        "rendezvous_hashing": rel.q_rendezvous_hashing,
        "incremental_agg": rel.q_incremental_agg,
        "zorder_layout": rel.q_zorder_layout,
        "shard_move_plan": rel.q_shard_move_plan,
        "ohlc_daily": rel.q_ohlc_daily,
        "wilson_ci_rates": rel.q_wilson_ci_rates,
        "psi_drift": rel.q_psi_drift,
        "seasonal_naive_mase": rel.q_seasonal_naive_mase,
        "id_gaps": rel.q_id_gaps,
        "clustering_coeff": _q_clustering_coeff,
        "label_propagation": _q_label_prop,
        "assortativity": _q_assortativity,
        "hits_scores": _q_hits,
        # Bloom-filter semi join — the documented 10^12-scale replacement
        # for broadcast sorted-key membership (pipelines/pagerank.py):
        # exact output (prefilter + verify), SQL-checkable; bloom_stats'
        # oracle recomputes the BITMAP itself from the closed-form affine
        # hashes (no dumped state)
        "bloom_semi_join": _q_bloom_semi_join,
        "bloom_stats": _q_bloom_stats,
        # fixed-iteration variant of the AS-IMPLEMENTED PageRank.java quirk
        # recurrence (in-degree divisor, skip in-linkless contributors) —
        # SQL-checkable, shrinking rows-only to pagerank's stop rule alone
        "pagerank_quirk": _q_pagerank_quirk,
        # search engine proper (reference-semantics; oracle = pytest
        # transcription, driver records rows-only)
        "index_term_df_real": _q_index_term_df_real,
        "index_lineage": _q_index_lineage,
        # posting-codec size comparison (varint delta-gap vs FOR bit
        # packing); the oracle recomputes BOTH framings analytically
        "posting_codec_sizes": _q_posting_codec_sizes,
        "posting_codec_sizes_dense": _q_posting_codec_sizes_dense,
        # df read back from a bitpack-tier build (decode path on the
        # driver-checked surface; same oracle shape as index_term_df_real)
        "index_df_bitpack": _q_index_df_bitpack,
        "index_df_ef": _q_index_df_ef,
        "facet_counts": _q_facet_counts,
        "facet_counts_all": _q_facet_counts_all,
        "spell_correct": _q_spell_correct,
        "spell_correct_kgram": _q_spell_correct_kgram,
        "prefix_suggest": _q_prefix_suggest,
        "prefix_suggest_kgram": _q_prefix_suggest_kgram,
        "boolean_search": _q_boolean_search,
        "wildcard_terms": _q_wildcard_terms,
        "champion_lists": _q_champion_lists,
        "champion_topk": _q_champion_topk,
        "highlight_spans": _q_highlight_spans,
        "tiered_topk": _q_tiered_topk,
        "min_should_match": _q_min_should_match,
        "wildcard_kgram": _q_wildcard_kgram,
        "numeric_range": _q_numeric_range,
        "more_like_this": _q_more_like_this,
        # sloppy-phrase analog: within-window same-field co-occurrence
        # counts from the real segments vs a positions-table self-join
        "proximity_pairs": _q_proximity_pairs,
        "proximity_ordered": _q_proximity_ordered,
        "search_reference": _q_search_reference,
        "search_bm25_wand": _q_search_bm25,
        "search_bm25_plus": _q_search_bm25_plus,
        "nb_confusion": _q_nb_confusion,
        "search_after_page2": _q_search_after,
        "collapse_by_repo": _q_collapse_by_repo,
        "rocchio_feedback": _q_rocchio,
        "search_bm25f": _q_search_bm25f,
        "synonym_search": _q_synonym_search,
        "field_search_desc": _q_field_search_desc,
        "explain_scores": _q_explain_scores,
        "incremental_dedup": _q_incremental_dedup,
        "sloppy_phrase": _q_sloppy_phrase,
        "percolate_matches": _q_percolate,
        "span_corruption": _q_span_corruption,
        # tombstone deletes (pipelines/deletes.py): mask-at-read df,
        # stale-stats BM25 on the tombstoned index, and the physical
        # purge rewrite — delete rule doc_int%7==3 is replayed in SQL
        "delete_masked_df": _q_delete_masked_df,
        "delete_stale_bm25": _q_delete_stale_bm25,
        "delete_purge_df": _q_delete_purge_df,
        "delete_purge_stats": _q_delete_purge_stats,
        "delete_merge_df": _q_delete_merge_df,
        "upsert_df": _q_upsert_df,
        "pagerank": _q_pagerank,
        # near-dup + ANN extras (rows-only)
        "simhash_pairs": _q_simhash_pairs,
        "fingerprints": _q_fingerprints,
        "decontaminate": _q_decontaminate,
        "chunk_windows": _q_chunk_windows,
        "redact_pii": _q_redact_pii,
        "c4_clean": _q_c4_clean,
        "paragraph_dedup": _q_paragraph_dedup,
        "token_entropy": tq.token_entropy,
        "pack_sequences": _q_pack_sequences,
        "repetition_scores": _q_repetition_scores,
        "ann_lsh_topk": _q_ann_lsh,
        "ann_ivf_topk": _q_ann_ivf,
        "multimodal_decode": _q_multimodal,
        "multimodal_frames": _q_multimodal_frames,
        "multimodal_audio": _q_multimodal_audio,
        "search_api_page": _q_search_api_page,
        "index_merge": _q_index_merge,
        "training_pipeline": _q_training_pipeline,
        "crawl_sim": _q_crawl_sim,
        "sketch_stats": _q_sketch_stats,
        # sampling / splitting / sharding (SURVEY §2.6 notes the reference
        # has NO sampling; these are the training-data-scale additions)
        "split_train_val": _q_split_train_val,
        "stratified_sample": _q_stratified_sample,
        "domain_cap": _q_domain_cap,
        "quota_sample": _q_quota_sample,
        "temperature_mix": _q_temperature_mix,
        "shuffle_shards": _q_shuffle_shards,
        # distributed embedding clustering (SemDeDup-style curation)
        "kmeans_clusters": _q_kmeans_clusters,
        "semdedup_pairs": _q_semdedup,
        # exact-substring dedup (Lee et al. 2021 gram-shuffle variant)
        "dup_spans": _q_dup_spans,
        # distributed BPE training primitive (merge loop is pytest-golden;
        # the corpus-scale pair-count pass is the SQL-checked surface)
        "bpe_pair_counts": _q_bpe_pair_counts,
        # distributed logistic-regression quality classifier
        "lr_quality_scores": _q_lr_quality_scores,
        # Stupid-Backoff n-gram LM: count-training + CCNet-style
        # perplexity scoring (both fully SQL-expressible — no dump)
        "ngram_lm_top": _q_ngram_lm_top,
        "dunning_llr": _q_dunning_llr,
        "rolling_band": scan.q_rolling_band,
        "isotonic_calibration": qo.q_isotonic_calibration,
        "static_prune": _q_static_prune,
        "textrank_keywords": tq.textrank_keywords,
        "rle_profile": qo.q_rle_profile,
        "kn_bigram_top": _q_kn_bigram_top,
        "lm_perplexity": _q_lm_perplexity,
        # DSIR importance resampling (Xie et al. 2023): target = lang='en'
        "dsir_select": _q_dsir_select,
        # product-quantization ANN (Jégou et al. 2011)
        "pq_ann_topk": _q_pq_ann_topk,
        "ivfpq_ann_topk": _q_ivfpq_topk,
        # CCNet-style perplexity tercile bucketing (head/middle/tail)
        "ppl_buckets": _q_ppl_buckets,
        # code-aware analysis over the source-code corpus (the graft
        # payload): ctags-lite symbol extraction, camelCase/snake_case
        # subtoken df, import fan-in — all RE2-mirrorable, SQL-checked
        "code_def_symbols": _q_code_def_symbols,
        "ident_subtokens": _q_ident_subtokens,
        "import_graph": _q_import_graph,
        # code-corpus curation (stages/codecuration.py): license key-phrase
        # match, The-Stack quality filters (Kocetkov et al. 2022), MOSS
        # winnowing (Schleimer et al. 2003) — full chains SQL-replayed
        "license_detect": _q_license_detect,
        "stack_file_metrics": _q_stack_file_metrics,
        "stack_quality": _q_stack_quality,
        "winnow_stats": _q_winnow_stats,
        "clone_pairs": _q_clone_pairs,
        # hybrid lexical+dense retrieval: BM25 ∪ cosine fused by RRF
        # (Cormack et al. 2009); ranks on 6-dp-rounded scores both sides
        "hybrid_rrf": _q_hybrid_rrf,
        # MMR diversification (Carbonell & Goldstein 1998): greedy
        # relevance-vs-redundancy re-rank of the cosine top-20, unrolled
        # greedy chain replayed by the oracle CTE-per-pick
        "mmr_diversify": _q_mmr_diversify,
        # ordered-scan primitives: halo-exchange rolling window,
        # distributed row_number, streaming burst-collapse dedup
        "rolling_halo": scan.q_rolling_halo,
        "dense_ids": scan.q_dense_ids,
        "stream_dedup": scan.q_stream_dedup,
        # stats / privacy family
        # text curation: readability + vocabulary growth
        "flesch_scores": tq.flesch_scores,
        "heaps_law": tq.heaps_law,
        "mutual_info": rel.q_mutual_info,
        "cramers_v": rel.q_cramers_v,
        "k_anonymity": rel.q_k_anonymity,
        "k_anonymity_stats": rel.q_k_anonymity_stats,
        "ab_ztest": rel.q_ab_ztest,
        # entity resolution: brand blocking + exact Levenshtein matching
        "er_blocking": rel.q_er_blocking,
        # Holt level+trend forecast (recursive-CTE-checked recurrence)
        "holt_forecast": rel.q_holt_forecast,
        # recursive-hierarchy closure rollup (arithmetic org tree)
        "hierarchy_rollup": rel.q_hierarchy_rollup,
        # distributed PCA: dim^2 Gram partials + driver power iteration
        "pca_power": _q_pca_power,
        "ann_sq_topk": _q_sq_topk,
        "random_walks": _q_random_walks,
    }
    return out


_CODE_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/code"

# shared oracle CTEs for the code-curation family (stages/codecuration.py).
# Stack metrics: line stats via the same '\n' split, alnum fraction via the
# same RE2 strip, 4-dp rounding at the same points as the engine.
_STACK_METRICS_CTE = f"""
    WITH f0 AS (SELECT repo, path, lang, content
                FROM read_parquet('{_CODE_DUMP_DIR}/src.parquet')),
    m AS (SELECT repo, path, lang,
                 string_split(content, chr(10)) AS ls,
                 length(content) AS n_chars,
                 length(regexp_replace(content, '[^A-Za-z0-9]', '', 'g'))
                     AS alnum,
                 (contains(lower(content), 'auto-generated')
                  OR contains(lower(content), 'do not edit')) AS autogen
          FROM f0),
    m2 AS (SELECT repo, path, lang,
                  len(ls) AS n_lines,
                  coalesce(list_max(list_transform(ls, l -> length(l))), 0)
                      AS max_line_len,
                  round(CAST(coalesce(list_sum(
                            list_transform(ls, l -> length(l))), 0) AS DOUBLE)
                        / greatest(len(ls), 1), 4) AS avg_line_len,
                  round(CAST(alnum AS DOUBLE)
                        / greatest(n_chars, 1), 4) AS frac_alnum,
                  autogen
           FROM m),
    m3 AS (SELECT *, (max_line_len <= 400 AND avg_line_len <= 120.0
                      AND frac_alnum >= 0.25 AND NOT autogen) AS keep
           FROM m2)
"""

# Winnowing (Schleimer et al. 2003): char 12-grams over the normalized
# [a-z0-9] stream, h = first-8-hex of sha256(gram), window w=8 rightmost-
# minimum selection via the packed (h << 24 | 2^24-1-pos) key — the exact
# rule _winnow_select implements.  MATERIALIZED: fp is referenced twice in
# clone_pairs and the gram chain is sha-heavy.
_WIN_K, _WIN_W, _WIN_POS = 12, 8, 1 << 24
_WINNOW_FP_CTE = f"""
    WITH f AS MATERIALIZED (
        SELECT repo, path, commit,
               regexp_replace(lower(content), '[^a-z0-9]', '', 'g') AS norm
        FROM read_parquet('{_CODE_DUMP_DIR}/src.parquet')),
    g0 AS (SELECT commit, norm,
                  unnest(range(0, greatest(length(norm) - {_WIN_K} + 1, 0)))
                      AS pos
           FROM f),
    g AS MATERIALIZED (
        SELECT commit, pos,
               CAST(('0x' || substr(sha256(substr(norm, pos + 1, {_WIN_K})),
                                    1, 8)) AS BIGINT) AS h
        FROM g0),
    n AS (SELECT commit, count(*) AS n_h FROM g GROUP BY commit),
    wins AS (SELECT commit,
                    unnest(range(0, greatest(n_h - {_WIN_W} + 1, 1))) AS j
             FROM n),
    sel AS (SELECT w.commit, w.j,
                   min(g.h * {_WIN_POS} + ({_WIN_POS - 1} - g.pos)) AS skey
            FROM wins w JOIN g ON g.commit = w.commit
                              AND g.pos BETWEEN w.j AND w.j + {_WIN_W} - 1
            GROUP BY w.commit, w.j),
    fp AS MATERIALIZED (
        SELECT DISTINCT commit,
               skey // {_WIN_POS} AS h,
               {_WIN_POS - 1} - (skey % {_WIN_POS}) AS pos
        FROM sel)
"""


def _code_src(sf_dir: str) -> str:
    """Write the code-analysis input (synthetic corpus + planted real-code
    fixtures) to the fixed dump path the static oracle SQL reads.  The
    corpus itself is the deterministic generator output (cached by
    write_corpus); the dump makes the extraction + aggregation path — not
    the generator — the SQL-checked surface (the tok.parquet trick)."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.codequeries import (
        augment_with_plants,
    )
    from nadry_search_engine_be_ray.sources.corpus import write_corpus

    n_docs = _corpus_docs_for(sf_dir)
    os.makedirs(_CODE_DUMP_DIR, exist_ok=True)
    key_path = os.path.join(_CODE_DUMP_DIR, "_KEY")
    key = f"docs={n_docs}:plants=v2"
    src_path = os.path.join(_CODE_DUMP_DIR, "src.parquet")
    if os.path.exists(key_path) and os.path.exists(src_path):
        with open(key_path) as f:
            if f.read() == key:
                return src_path
    corpus_dir = f"/tmp/nadry_entry/code_corpus/{n_docs}"
    write_corpus(corpus_dir, n_docs=n_docs, seed=42)
    tbl = pads.dataset(corpus_dir, format="parquet").to_table(
        columns=["repo", "path", "commit", "lang", "content"]
    )
    pq.write_table(augment_with_plants(tbl), src_path)
    with open(key_path, "w") as f:
        f.write(key)
    return src_path


def _q_code_def_symbols(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.pipelines.codequeries import (
        code_def_symbols,
    )

    return code_def_symbols(ray.data.read_parquet(_code_src(sf_dir)))


def _q_ident_subtokens(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.pipelines.codequeries import (
        ident_subtokens,
    )

    return ident_subtokens(ray.data.read_parquet(_code_src(sf_dir)))


def _q_import_graph(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.pipelines.codequeries import import_graph

    return import_graph(ray.data.read_parquet(_code_src(sf_dir)))


def _q_license_detect(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.codecuration import license_detect

    return license_detect(ray.data.read_parquet(_code_src(sf_dir)))


def _q_stack_file_metrics(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.codecuration import (
        stack_file_metrics,
    )

    return stack_file_metrics(ray.data.read_parquet(_code_src(sf_dir)))


def _q_stack_quality(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.codecuration import (
        stack_quality_filters,
    )

    return stack_quality_filters(ray.data.read_parquet(_code_src(sf_dir)))


def _q_winnow_stats(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.codecuration import winnow_stats

    return winnow_stats(ray.data.read_parquet(_code_src(sf_dir)))


def _q_clone_pairs(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.codecuration import clone_pairs

    return clone_pairs(ray.data.read_parquet(_code_src(sf_dir)))


def _q_hybrid_rrf(sf_dir: str):
    from nadry_search_engine_be_ray.pipelines.textqueries import hybrid_rrf

    return hybrid_rrf(sf_dir)


def _q_mmr_diversify(sf_dir: str):
    """MMR top-5 from the cosine top-20 for the smallest-vec_id query
    vector (lambda = 0.5); every argmax runs on 6-dp-rounded cosines so
    the greedy chain is bit-equal to the unrolled-CTE oracle."""
    import numpy as np
    import ray.data

    from nadry_search_engine_be_ray.stages.similarity import mmr_diversify

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    head = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
        .to_pandas().sort_values("vec_id").head(1)
    )
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)[0]
    return mmr_diversify(emb, q, k=5, n_candidates=20, lam=0.5)


def _mmr_sql(k: int = 5, n_candidates: int = 20, lam: float = 0.5) -> str:
    """Unrolled greedy-MMR oracle: candidates + pairwise cosines
    MATERIALIZED, then k chained (score -> argmax -> grow selected set)
    CTE levels — the _pagerank_power_sql unrolling pattern."""
    steps = []
    prev_sel = None
    for r in range(1, k + 1):
        if r == 1:
            steps.append(f"""
            s1 AS MATERIALIZED (
                SELECT vec_id, round({lam} * cosine, 6) AS mmr, 1 AS rank
                FROM cands ORDER BY round({lam} * cosine, 6) DESC, vec_id
                LIMIT 1),
            sel1 AS (SELECT vec_id FROM s1)""")
        else:
            steps.append(f"""
            m{r} AS (
                SELECT c.vec_id,
                       round({lam} * c.cosine - {1 - lam} * (
                           SELECT max(p.sim) FROM pairs p
                           WHERE p.va = c.vec_id
                             AND p.vb IN (SELECT vec_id FROM {prev_sel})
                       ), 6) AS mmr
                FROM cands c
                WHERE c.vec_id NOT IN (SELECT vec_id FROM {prev_sel})),
            s{r} AS MATERIALIZED (
                SELECT vec_id, mmr, {r} AS rank FROM m{r}
                ORDER BY mmr DESC, vec_id LIMIT 1),
            sel{r} AS (SELECT vec_id FROM {prev_sel}
                       UNION ALL SELECT vec_id FROM s{r})""")
        prev_sel = f"sel{r}"
    union = "\nUNION ALL ".join(
        f"SELECT rank, vec_id, mmr AS mmr_score FROM s{r}"
        for r in range(1, k + 1)
    )
    return f"""
        WITH q AS (SELECT embedding AS qe FROM embeddings
                   ORDER BY vec_id LIMIT 1),
        cands AS MATERIALIZED (
            SELECT vec_id, cosine, embedding FROM (
                SELECT e.vec_id,
                       round(list_cosine_similarity(
                           CAST(q.qe AS DOUBLE[]),
                           CAST(e.embedding AS DOUBLE[])), 6) AS cosine,
                       e.embedding,
                       row_number() OVER (
                           ORDER BY round(list_cosine_similarity(
                               CAST(q.qe AS DOUBLE[]),
                               CAST(e.embedding AS DOUBLE[])), 6) DESC,
                           e.vec_id) AS rn
                FROM q CROSS JOIN embeddings e)
            WHERE rn <= {n_candidates}),
        pairs AS MATERIALIZED (
            SELECT a.vec_id AS va, b.vec_id AS vb,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 6) AS sim
            FROM cands a JOIN cands b ON a.vec_id <> b.vec_id),
        {','.join(steps)}
        SELECT * FROM ({union}) ORDER BY rank
    """


def _q_ppl_buckets(sf_dir: str):
    """CCNet head/middle/tail perplexity buckets over the min_count=2
    Stupid-Backoff model: exact global (ppl, doc_id) rank via the
    value-histogram prefix sum, bucket = rank*3//n.  The oracle recomputes
    the whole LM + row_number() ranking in SQL."""
    import ray.data

    from nadry_search_engine_be_ray.stages.lm import (
        lm_score,
        ppl_rank_buckets,
        train_lm,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    model = train_lm(ds, min_count=2)
    out = ppl_rank_buckets(lm_score(ds, model), n_buckets=3).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_pq_ann_topk(sf_dir: str):
    """PQ ANN top-10 for the 3 smallest vec_ids (m=8 subspaces, k=16
    codes).  The k-means codebook training isn't SQL-expressible, so the
    trained codebook is DUMPED and the oracle independently recomputes
    normalization, per-subspace code assignment, ADC distances and the
    (rounded-dist, vec_id) ranking in DuckDB."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_
    import ray.data

    from nadry_search_engine_be_ray.stages.pq import (
        pq_adc_topk,
        pq_encode,
        pq_train,
    )

    emb_tbl = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table()
    head = emb_tbl.to_pandas().sort_values("vec_id").head(3)
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    qv_ids = head["vec_id"].to_numpy()

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    m, kk = 8, 16
    cb, normed = pq_train(emb, m=m, k=kk, n_iters=8)
    os.makedirs(_PQ_DUMP_DIR, exist_ok=True)
    pq_.write_table(
        pa.table(
            {
                "sub": pa.array(
                    [j for j in range(m) for _ in range(kk)], pa.int64()
                ),
                "cluster": pa.array(list(range(kk)) * m, pa.int64()),
                "centroid": pa.array(
                    [list(cb[j, c]) for j in range(m) for c in range(kk)],
                    pa.list_(pa.float64()),
                ),
            }
        ),
        f"{_PQ_DUMP_DIR}/codebooks.parquet",
    )
    out = pq_adc_topk(
        pq_encode(normed, cb), q, cb, qv_ids=qv_ids, k=10
    ).to_pandas()
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _q_ivfpq_topk(sf_dir: str):
    """IVF-PQ ANN top-10 (Jégou IVFADC, non-residual): coarse k-means
    prune + ADC table-lookup scoring — the composed FAISS-style index
    completing the brute/LSH/IVF/PQ family.  The trained state (PQ
    codebooks, per-vector list assignment, per-query probe lists) is
    DUMPED; the oracle independently recomputes normalization, codes,
    candidate pruning, ADC distances and the ranking in DuckDB."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_
    import ray.data

    from nadry_search_engine_be_ray.stages.pq import (
        ivfpq_adc_topk,
        pq_encode,
        pq_train,
    )
    from nadry_search_engine_be_ray.stages.similarity import (
        IvfAssignBatch,
        _normalize,
        ivf_probe_lists,
        train_ivf_centroids,
    )

    emb_tbl = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table()
    head = emb_tbl.to_pandas().sort_values("vec_id").head(3)
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    qv_ids = head["vec_id"].to_numpy()

    m, kk, n_lists, n_probes = 8, 16, 8, 3
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cent = train_ivf_centroids(emb, n_lists=n_lists, seed=13)
    cb, normed = pq_train(emb, m=m, k=kk, n_iters=8)
    assigned = normed.map_batches(
        IvfAssignBatch(cent), batch_format="pyarrow"
    )
    encoded = pq_encode(assigned, cb, extra_cols=("ivf_list",)).materialize()

    probes = ivf_probe_lists(_normalize(q), cent, n_probes)
    os.makedirs(_IVFPQ_DUMP_DIR, exist_ok=True)
    pq_.write_table(
        pa.table(
            {
                "sub": pa.array(
                    [j for j in range(m) for _ in range(kk)], pa.int64()
                ),
                "cluster": pa.array(list(range(kk)) * m, pa.int64()),
                "centroid": pa.array(
                    [list(cb[j, c]) for j in range(m) for c in range(kk)],
                    pa.list_(pa.float64()),
                ),
            }
        ),
        f"{_IVFPQ_DUMP_DIR}/codebooks.parquet",
    )
    asg = pa.concat_tables(
        [t.select(["vec_id", "ivf_list"]) for t in
         __import__("ray").get(encoded.to_arrow_refs())
         if "vec_id" in t.schema.names]
    )
    pq_.write_table(asg, f"{_IVFPQ_DUMP_DIR}/assign.parquet")
    probe_q, probe_l = [], []
    for qi, near in enumerate(probes):
        probe_q += [int(qv_ids[qi])] * len(near)
        probe_l += [int(x) for x in near]
    pq_.write_table(
        pa.table({"query_id": pa.array(probe_q, pa.int64()),
                  "ivf_list": pa.array(probe_l, pa.int64())}),
        f"{_IVFPQ_DUMP_DIR}/probes.parquet",
    )

    out = ivfpq_adc_topk(
        encoded, q, cb, qv_ids=qv_ids,
        probe_of_query=[set(pl) for pl in probes], k=10,
    ).to_pandas()
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _q_dsir_select(sf_dir: str):
    """DSIR data selection: importance-weight every document by the log
    ratio of add-0.1-smoothed bag-of-(uni+bi)gram models (target = the
    lang='en' docs vs the whole corpus), keep the top-100 by
    (weight DESC, doc_id).  Closed-form — the oracle recomputes both
    models AND the weights entirely in SQL."""
    import ray.data

    from nadry_search_engine_be_ray.stages.dsir import dsir_select

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    target = ds.filter(expr="lang == 'en'")
    out = dsir_select(ds, target, k=100).to_pandas()
    return out.sort_values("rank").reset_index(drop=True)


def _q_kn_bigram_top(sf_dir: str):
    """Interpolated Kneser-Ney bigram continuation probabilities for the
    context 'hash' (stages/lm.kn_bigram_top, D=0.75) — the oracle
    recomputes discounted counts, continuation mass and bigram-type
    totals in SQL with the identical left-associated algebra."""
    import ray.data

    from nadry_search_engine_be_ray.stages.lm import kn_bigram_top

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    return kn_bigram_top(ds, context="hash", k=20)


def _q_static_prune(sf_dir: str):
    """Static index-pruning footprint per term (pipelines/build.
    static_prune_profile, keep=10, ties by ascending doc key) from the
    REAL segments via the stateful actor-pool scan; the oracle
    recomputes kept-set aggregates with row_number over the dumped
    token table, so the compare covers the decode + prune rule."""
    from nadry_search_engine_be_ray.pipelines.build import (
        static_prune_profile,
    )

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return static_prune_profile(index_dir, keep=10).to_pandas()


_STATIC_PRUNE_SQL_TMPL = """
    WITH r AS (
        SELECT term, tf,
               row_number() OVER (PARTITION BY term
                   ORDER BY tf DESC, doc_int) AS rn,
               count(*) OVER (PARTITION BY term) AS cnt
        FROM read_parquet('{dump}/tok.parquet')
    )
    SELECT term, CAST(count(*) AS BIGINT) AS df,
           CAST(sum(CASE WHEN rn <= 10 THEN 1 ELSE 0 END) AS BIGINT)
               AS df_kept,
           CAST(sum(tf) AS BIGINT) AS sum_tf_total,
           CAST(sum(CASE WHEN rn <= 10 THEN tf ELSE 0 END) AS BIGINT)
               AS sum_tf_kept,
           CAST(sum(CASE WHEN rn = least(10, cnt) THEN tf ELSE 0 END)
               AS BIGINT) AS cutoff_tf
    FROM r GROUP BY term ORDER BY term
"""


def _textrank_sql(n_iter: int = 5, damping: float = 0.85, df_lo: int = 10,
                  df_hi: int = 400, k: int = 20) -> str:
    """Unrolled TextRank oracle: the _pagerank_power_sql recurrence over
    the band-vocabulary word graph, term strings as node keys."""
    iters = []
    prev = "r0"
    for it in range(1, n_iter + 1):
        iters.append(f"""
        r{it} AS MATERIALIZED (
            SELECT n.term AS node,
                   (1 - {damping}) / (SELECT cnt FROM nv)
                   + {damping} * coalesce(sum(rp.rank / outd.od), 0)
                       AS rank
            FROM band n
            LEFT JOIN e ON e.dst = n.term
            LEFT JOIN outd ON outd.src = e.src
            LEFT JOIN {prev} rp ON rp.node = e.src
            GROUP BY n.term
        )""")
        prev = f"r{it}"
    return f"""
        WITH toks AS MATERIALIZED (
            SELECT doc_id,
                   string_split_regex(lower(text), '[^a-z0-9]+') AS ts
            FROM documents
        ),
        tok2 AS MATERIALIZED (
            SELECT doc_id, unnest(ts) AS term FROM toks
        ),
        dfv AS MATERIALIZED (
            SELECT term, count(DISTINCT doc_id) AS df FROM tok2
            WHERE length(term) >= 2 GROUP BY 1
        ),
        band AS MATERIALIZED (
            SELECT term FROM dfv WHERE df BETWEEN {df_lo} AND {df_hi}
        ),
        nv AS (SELECT count(*) AS cnt FROM band),
        posx AS (
            SELECT ts, unnest(range(2, len(ts) + 1)) AS i
            FROM toks WHERE len(ts) >= 2
        ),
        adjraw AS (
            SELECT ts[i - 1] AS a, ts[i] AS b FROM posx
            WHERE length(ts[i - 1]) >= 2 AND length(ts[i]) >= 2
        ),
        adjb AS MATERIALIZED (
            SELECT DISTINCT a, b FROM adjraw
            JOIN band ba ON ba.term = a
            JOIN band bb ON bb.term = b
            WHERE a <> b
        ),
        e AS MATERIALIZED (
            SELECT a AS src, b AS dst FROM adjb
            UNION SELECT b, a FROM adjb
        ),
        outd AS MATERIALIZED (
            SELECT src, count(*) AS od FROM e GROUP BY 1
        ),
        r0 AS MATERIALIZED (
            SELECT term AS node, 1.0 / (SELECT cnt FROM nv) AS rank
            FROM band
        ),
        {','.join(iters)}
        SELECT node AS term, round(rank, 9) AS rank FROM {prev}
        ORDER BY round(rank, 9) DESC, node LIMIT {k}
    """


def _rle_profile_sql() -> str:
    """Per-column RLE layout arithmetic (quant_ops.q_rle_profile): runs
    and bytes in natural key order via lag(), value-clustered layout =
    distinct values."""
    from nadry_search_engine_be_ray.pipelines.quant_ops import _RLE_COLS

    parts = []
    for tbl, col, key in _RLE_COLS:
        parts.append(f"""
            SELECT '{tbl}' AS tbl, '{col}' AS col,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN pv IS NULL OR v <> pv
                            THEN 1 ELSE 0 END) AS BIGINT) AS runs_key,
                   CAST(sum(CASE WHEN pv IS NULL OR v <> pv
                            THEN strlen(v) + 4 ELSE 0 END) AS BIGINT)
                       AS rle_bytes_key,
                   (SELECT CAST(count(*) AS BIGINT) FROM
                        (SELECT DISTINCT {col} FROM {tbl})) AS card,
                   (SELECT CAST(sum(strlen(x) + 4) AS BIGINT) FROM
                        (SELECT DISTINCT {col} AS x FROM {tbl}))
                       AS rle_bytes_sorted
            FROM (SELECT {col} AS v,
                         lag({col}) OVER (ORDER BY {key}) AS pv
                  FROM {tbl})""")
    union = " UNION ALL ".join(parts)
    return f"SELECT * FROM ({union}) ORDER BY tbl, col"


def _q_dunning_llr(sf_dir: str):
    """Dunning LLR collocations over the corpus bigram table
    (stages/lm.dunning_llr_top) — 2x2 contingency per bigram with
    bigram-space margins, bit-parity per-cell k*ln(N*k/(r*c)) algebra;
    oracle recomputes the full chain from regexp-extracted tokens."""
    import ray.data

    from nadry_search_engine_be_ray.stages.lm import dunning_llr_top

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    return dunning_llr_top(ds, k=25, min_pair=5)


def _q_ngram_lm_top(sf_dir: str):
    """Top-100 corpus bigrams with min_count=2 (the bigram table of the
    Stupid-Backoff model; ties broken (n DESC, v, w) on both sides)."""
    import ray.data

    from nadry_search_engine_be_ray.stages.lm import ngram_count_table

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    tbl = ngram_count_table(ds).to_pandas()
    bi = tbl[tbl["gram"].str.contains(" ") & (tbl["count"] >= 2)].copy()
    parts = bi["gram"].str.split(" ", n=1, expand=True)
    bi["v"], bi["w"] = parts[0], parts[1]
    bi = bi.rename(columns={"count": "n"})[["v", "w", "n"]]
    return (
        bi.sort_values(["n", "v", "w"], ascending=[False, True, True])
        .head(100)
        .reset_index(drop=True)
    )


def _q_lm_perplexity(sf_dir: str):
    """Per-doc Stupid-Backoff log10-prob + perplexity against the
    min_count=2 bigram model trained on the same corpus (the CCNet-style
    quality-filter signal).  The scoring rule is closed-form, so the
    oracle recomputes train AND score entirely in SQL."""
    import ray.data

    from nadry_search_engine_be_ray.stages.lm import lm_score, train_lm

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    model = train_lm(ds, min_count=2)
    out = lm_score(ds, model).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_crawl_sim(sf_dir: str):
    """Crawler subsystem (S1/S2/S4, K4/K5) over a deterministic simulated
    site derived from the documents table: doc i lives at
    https://s{i%4}.test/p{i} and links to (31*i + 97*k) mod n for k=1..3;
    host s3 disallows everything via robots.txt.  Rows-only (iterative
    control flow, not SQL-expressible); pytest covers the policies on
    planted fixtures."""
    import ray.data

    from nadry_search_engine_be_ray.pipelines.crawl import SimulatedWeb, crawl
    from nadry_search_engine_be_ray.pipelines.pagerank import link_targets

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas().sort_values("doc_id")
    _, dst = link_targets(docs["doc_id"].to_numpy(), len(docs),
                          quadratic=False)

    def url_of(i: int) -> str:
        return f"https://s{i % 4}.test/p{i}"

    pages = {}
    for i, text, targets in zip(docs["doc_id"], docs["text"],
                                dst.reshape(-1, 3)):
        links = "".join(f'<a href="{url_of(int(t))}">x</a>' for t in targets)
        body = (text or "")[:200]
        pages[url_of(int(i))] = (
            f"<html><head><title>doc {int(i)}</title></head>"
            f"<body><p>{body}</p>{links}</body></html>"
        )
    web = SimulatedWeb(pages, robots={"s3.test": "User-agent: *\nDisallow: /\n"})
    out = crawl([url_of(0)], web, max_pages=200).to_pandas()
    return out[["url", "n_links", "order"]]


def _q_sketch_stats(sf_dir: str):
    """Mergeable-sketch operators: HLL distinct count of lineitem orderkeys
    + grid-sketch quantiles of events.value.  SQL-checked via the dumped-
    table trick: the splitmix64 hash side of HLL (per-item register/rank
    pairs) is DUMPED, and the oracle independently recomputes the register
    max, the harmonic-mean estimator with small-range correction, and the
    full grid-histogram quantile interpolation (which is pure arithmetic on
    events.value, so it needs no dump at all).  Pytest separately asserts
    the estimates' error bounds vs exact answers."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.sketches import (
        hll_distinct,
        hll_item_ranks,
        quantile_sketch,
    )

    keys = (
        pads.dataset(f"{sf_dir}/lineitem.parquet")
        .to_table(columns=["l_orderkey"])["l_orderkey"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    idx, rank = hll_item_ranks(keys)
    os.makedirs(_HLL_DUMP_DIR, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "idx": pa.array(idx, pa.int64()),
                "rank": pa.array(rank.astype(np.int32), pa.int32()),
            }
        ),
        f"{_HLL_DUMP_DIR}/ranks.parquet",
    )

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])
    est_distinct = hll_distinct(li, "l_orderkey")
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    # events.value domain is [0, ~560]; the grid bounds only need to cover
    # it (out-of-range values clip to the edge buckets)
    p50, p90, p99 = quantile_sketch(ev, "value", lo=0.0, hi=1_000.0)
    return pd.DataFrame(
        {
            "metric": ["hll_distinct_orderkeys", "value_p50", "value_p90", "value_p99"],
            "estimate": [round(est_distinct, 3), round(p50, 6),
                         round(p90, 6), round(p99, 6)],
        }
    )


def _q_training_pipeline(sf_dir: str):
    from nadry_search_engine_be_ray.pipelines.training_data import q_training_pipeline

    return q_training_pipeline(sf_dir)


def _q_exact_dedup(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import exact_dedup_groups

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = exact_dedup_groups(ds).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_dups"] = out["n_dups"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_compact_signature(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import compact_signature_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(compact_signature_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_compact_dedup(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import compact_dedup_groups

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = compact_dedup_groups(ds).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_members"] = out["n_members"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_ngram_jaccard(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import ngram_jaccard_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, n=3, threshold=0.5).to_pandas()
    out = _typed_empty(out, {"a": "int64", "b": "int64", "jaccard": "float64"})
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _q_containment_pairs(sf_dir: str):
    """Broder CONTAINMENT near-dup pairs (stages/dedup.ngram_jaccard_pairs
    with measure='containment'): c / min(|A|,|B|) over distinct 3-gram
    sets — the asymmetric measure that catches short-inside-long
    duplicates jaccard dilutes; same count-based exact plan."""
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import ngram_jaccard_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, n=3, threshold=0.6,
                              measure="containment").to_pandas()
    out = _typed_empty(out, {"a": "int64", "b": "int64",
                             "containment": "float64"})
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _q_token_counts(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.textstats import token_count_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (
        ds.map_batches(token_count_batch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_quality(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.textstats import quality_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(quality_batch, batch_format="pyarrow").to_pandas()
    for c in ("mean_token_len", "punct_ratio", "digit_ratio", "upper_ratio", "stopword_ratio"):
        out[c] = out[c].round(9)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_lang_id(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.textstats import lang_id_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(lang_id_batch, batch_format="pyarrow").to_pandas()
    out["en_stop_ratio"] = out["en_stop_ratio"].round(9)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_heavy_hitters(sf_dir: str):
    from nadry_search_engine_be_ray.stages.heavyhitters import heavy_hitter_grams

    return heavy_hitter_grams(sf_dir, threshold=30)


def _q_top_grams_approx(sf_dir: str):
    # capacity (4096) >= distinct-bigram count of the testdata corpus, so
    # the space-saving result is EXACT here and the SQL top-k oracle
    # hash-checks it; the approximation guarantee itself is pytest-covered.
    from nadry_search_engine_be_ray.stages.heavyhitters import approx_top_grams

    return approx_top_grams(sf_dir, k=25)


def _q_naive_bayes(sf_dir: str):
    """Multinomial Naive Bayes (stages/classifier.nb_fit/nb_classify):
    train on the documents table with lang as the label, classify every
    document, report (doc_id, pred_label, score).  The oracle recomputes
    the full count model + log-space argmax in SQL."""
    import ray.data

    from nadry_search_engine_be_ray.stages.classifier import (
        nb_classify,
        nb_fit,
    )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "lang"])
    model = nb_fit(docs, text_col="text", label_col="lang")
    out = nb_classify(docs, model).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_nb_confusion(sf_dir: str):
    """Classifier evaluation (confusion + precision/recall/F1 per lang)
    for the Naive-Bayes self-classification: the truth label rides the
    scoring batch (nb_classify passthrough), per-batch (true, pred)
    count partials fold in one label-pair groupby — label-pair-sized,
    never per-doc, on the driver — and the metrics are exact integer
    ratios.  The oracle extends the full SQL NB recompute with the same
    confusion aggregation."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.stages.classifier import (
        nb_classify,
        nb_fit,
    )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "lang"])
    model = nb_fit(docs, text_col="text", label_col="lang")
    scored = nb_classify(docs, model, passthrough=("lang",))

    def conf_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "true_lang": batch["lang"],
            "pred_lang": batch["pred_label"],
            "n": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
        })
        g = t.group_by(["true_lang", "pred_lang"]).aggregate([("n", "sum")])
        return g.rename_columns(
            [c if c != "n_sum" else "n" for c in g.column_names])

    conf = (scored.map_batches(conf_partial, batch_format="pyarrow")
            .to_pandas().groupby(["true_lang", "pred_lang"], as_index=False)
            .agg(n=("n", "sum")))
    langs = sorted(set(conf["true_lang"]) | set(conf["pred_lang"]))
    rows = []
    for lab in langs:
        tp = int(conf.loc[(conf["true_lang"] == lab)
                          & (conf["pred_lang"] == lab), "n"].sum())
        n_true = int(conf.loc[conf["true_lang"] == lab, "n"].sum())
        n_pred = int(conf.loc[conf["pred_lang"] == lab, "n"].sum())
        p = tp / n_pred if n_pred else 0.0
        r = tp / n_true if n_true else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        rows.append({"lang": lab, "n_true": n_true, "n_pred": n_pred,
                     "tp": tp, "precision": round(p, 6),
                     "recall": round(r, 6), "f1": round(f1, 6)})
    out = pd.DataFrame(rows)
    for c in ("n_true", "n_pred", "tp"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def _q_knn_classify(sf_dir: str, k: int = 5, n_queries: int = 20):
    """k-NN label prediction over the embedding column: for the first 20
    vectors, majority label among the top-5 cosine neighbors (self
    excluded; vote ties broken by label asc).  Self-exclusion is exact
    via a k+1 retrieval: dropping the query row from its own top-(k+1)
    leaves exactly the top-k of the others whether or not self made the
    cut."""
    import numpy as np
    import ray.data

    from nadry_search_engine_be_ray.stages.similarity import (
        brute_force_topk,
    )

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    head = emb.to_pandas().sort_values("vec_id").head(n_queries)
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    top = brute_force_topk(
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet"), q, k=k + 1
    ).to_pandas()
    top["query_id"] = head["vec_id"].to_numpy()[top["query_id"].to_numpy()]
    top = top[top["vec_id"] != top["query_id"]]
    top = (top.sort_values(["query_id", "rank"])
           .groupby("query_id", as_index=False).head(k))

    # neighbor labels: broadcast the (tiny) hit-id set and filter the
    # corpus scan down to it — only n_queries×k label rows reach the driver
    import pyarrow as pa
    import pyarrow.compute as _pc

    need = np.unique(top["vec_id"].to_numpy(np.int64))
    lab = (ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "label"])
           .map_batches(lambda b: b.filter(
               _pc.is_in(b["vec_id"], value_set=pa.array(need))),
               batch_format="pyarrow")
           .to_pandas())
    top = top.merge(lab, on="vec_id")
    votes = (top.groupby(["query_id", "label"], as_index=False)
             .agg(votes=("vec_id", "count")))
    votes = votes.sort_values(["query_id", "votes", "label"],
                              ascending=[True, False, True])
    out = votes.groupby("query_id", as_index=False).head(1).copy()
    out = out.rename(columns={"label": "pred_label"})
    out["votes"] = out["votes"].astype("int64")
    return out[["query_id", "pred_label", "votes"]] \
        .sort_values("query_id").reset_index(drop=True)


def _q_hard_negatives(sf_dir: str):
    """Hard-negative mining (stages/similarity.hard_negatives_topk): for
    each of the first 3 vectors, the top-5 most-similar vectors with a
    DIFFERENT label — the contrastive-training negatives; oracle = the
    cosine cross join with a label-inequality predicate."""
    import numpy as np
    import ray.data

    from nadry_search_engine_be_ray.stages.similarity import (
        hard_negatives_topk,
    )

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    head = emb.to_pandas().sort_values("vec_id").head(3)
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    out = hard_negatives_topk(
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet"),
        q, head["label"].to_numpy(), k=5,
    ).to_pandas()
    out["query_id"] = head["vec_id"].to_numpy()[out["query_id"].to_numpy()]
    out["cosine"] = out["cosine"].round(6)
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _q_ann_topk(sf_dir: str):
    import numpy as np
    import ray.data

    from nadry_search_engine_be_ray.stages.similarity import brute_force_topk

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    head = emb.to_pandas().sort_values("vec_id").head(3)
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    out = brute_force_topk(
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet"), q, k=5
    ).to_pandas()
    # query_id in the oracle is the source vec_id (0,1,2)
    out["query_id"] = head["vec_id"].to_numpy()[out["query_id"].to_numpy()]
    out["cosine"] = out["cosine"].round(6)
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _q_random_walks(sf_dir: str, n_seeds: int = 20, steps: int = 8):
    """Deterministic hash-driven random walks (the DeepWalk/node2vec
    corpus-prep stage, with sha256(node:step) standing in for the RNG so
    the oracle can replay every hop): walks start at nodes 0..n_seeds-1
    on the undirected quadratic link graph and advance ``steps`` rounds,
    each hop picking sorted-neighbor[h % degree].  Distributed shape:
    the frontier is a dataset advanced in synchronized map_batches
    rounds against the broadcast adjacency (graph-key-set-sized, the
    triangle_count probe assumption); a walk with no neighbors halts."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        synthetic_edges,
        undirected_edges,
    )

    edges = undirected_edges(synthetic_edges(sf_dir)[0]).to_pandas()
    adj: dict[int, np.ndarray] = {}
    both = pd.concat([
        edges.rename(columns={"u": "a", "v": "b"}),
        edges.rename(columns={"v": "a", "u": "b"}),
    ])
    for a, g in both.groupby("a"):
        adj[int(a)] = np.sort(g["b"].to_numpy(np.int64))
    adj_ref = ray.put(adj)

    frontier = ray.data.from_arrow(pa.table({
        "walk_id": pa.array(np.arange(n_seeds, dtype=np.int64), pa.int64()),
        "step": pa.array(np.zeros(n_seeds, np.int64), pa.int64()),
        "node": pa.array(np.arange(n_seeds, dtype=np.int64), pa.int64()),
    }))
    rows = [frontier.to_pandas()]
    for t in range(1, steps + 1):
        def hop(batch: pa.Table, step=t) -> pa.Table:
            a = ray.get(adj_ref)
            wid = batch["walk_id"].to_numpy(zero_copy_only=False)
            cur = batch["node"].to_numpy(zero_copy_only=False)
            out_w, out_n = [], []
            for w, c in zip(wid, cur):
                nb = a.get(int(c))
                if nb is None or nb.size == 0:
                    continue
                h = int(hashlib.sha256(
                    f"{int(c)}:{step}".encode()).hexdigest()[:8], 16)
                out_w.append(int(w))
                out_n.append(int(nb[h % nb.size]))
            return pa.table({
                "walk_id": pa.array(out_w, pa.int64()),
                "step": pa.array(
                    np.full(len(out_w), step, np.int64), pa.int64()),
                "node": pa.array(out_n, pa.int64()),
            })

        frontier = frontier.map_batches(hop, batch_format="pyarrow") \
            .materialize()
        rows.append(frontier.to_pandas())
    out = pd.concat(rows).reset_index(drop=True)
    out[["walk_id", "step", "node"]] = out[
        ["walk_id", "step", "node"]].astype("int64")
    return out.sort_values(["walk_id", "step"]).reset_index(drop=True)


def _random_walks_sql(n_seeds: int = 20, steps: int = 8) -> str:
    return f"""
        WITH RECURSIVE raw AS (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        ),
        e0 AS (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src <> dst
        ),
        nb AS (
            SELECT a AS node, list(b ORDER BY b) AS lst
            FROM (SELECT u AS a, v AS b FROM e0
                  UNION ALL SELECT v, u FROM e0)
            GROUP BY a
        ),
        walk AS (
            SELECT i AS walk_id, 0 AS step, i AS node
            FROM range(0, {n_seeds}) t(i)
            UNION ALL
            SELECT w.walk_id, w.step + 1,
                   nb.lst[1 + (CAST(('0x' || substr(sha256(
                       CAST(w.node AS VARCHAR) || ':'
                       || CAST(w.step + 1 AS VARCHAR)), 1, 8)) AS BIGINT)
                       % len(nb.lst))::INT]
            FROM walk w JOIN nb ON nb.node = w.node
            WHERE w.step < {steps}
        )
        SELECT CAST(walk_id AS BIGINT) AS walk_id,
               CAST(step AS BIGINT) AS step,
               CAST(node AS BIGINT) AS node
        FROM walk ORDER BY walk_id, step
    """


def _q_sq_topk(sf_dir: str):
    """Scalar-quantized ANN (stages/similarity.sq_topk): raw queries
    against 255-level dequantized corpus vectors; query_id maps to the
    source vec_id like ann_topk."""
    import numpy as np
    import ray.data

    from nadry_search_engine_be_ray.stages.similarity import sq_topk

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    head = emb.to_pandas().sort_values("vec_id").head(3)
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    out = sq_topk(
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet"), q, k=5
    ).to_pandas()
    out["query_id"] = head["vec_id"].to_numpy()[out["query_id"].to_numpy()]
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _q_pca_power(sf_dir: str):
    import numpy as np
    import pandas as pd
    import ray.data

    from nadry_search_engine_be_ray.stages.similarity import (
        pca_top_component,
    )

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["embedding"])
    v, eig = pca_top_component(emb, iters=8)
    return pd.DataFrame({
        "i": pd.array(np.arange(v.size), dtype="int64"),
        "loading": np.round(v, 6),
        "eigval": round(eig, 4),
    })


def _pca_sql(iters: int = 8) -> str:
    """Unrolled power-iteration oracle: DuckDB recomputes the rounded
    covariance from the raw embeddings (same 6-dp rounding as the Ray
    side, so both engines iterate from bit-identical matrices), then
    ``iters`` matvec+normalize CTE pairs — every CTE MATERIALIZED (the
    repo-wide unrolled-chain rule; inlining re-evaluates exponentially)."""
    parts = ["""
        WITH el AS MATERIALIZED (
            SELECT vec_id,
                   unnest(range(1, len(embedding) + 1)) AS i,
                   unnest(CAST(embedding AS DOUBLE[])) AS x
            FROM embeddings
        ),
        nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM embeddings),
        sums AS MATERIALIZED (SELECT i, sum(x) AS s FROM el GROUP BY i),
        cov AS MATERIALIZED (
            SELECT g.i, g.j,
                   round((g.g - sa.s * sb.s / nn.n) / nn.n, 6) AS c
            FROM (SELECT a.i AS i, b.i AS j, sum(a.x * b.x) AS g
                  FROM el a JOIN el b USING (vec_id) GROUP BY 1, 2) g
            JOIN sums sa ON sa.i = g.i JOIN sums sb ON sb.i = g.j
            CROSS JOIN nn
        ),
        v0 AS MATERIALIZED (
            SELECT i, 1.0 / sqrt((SELECT count(*) FROM sums)) AS v
            FROM sums
        )"""]
    for t in range(1, iters + 1):
        parts.append(f""",
        w{t} AS MATERIALIZED (
            SELECT c.i, sum(c.c * v.v) AS w
            FROM cov c JOIN v{t - 1} v ON v.i = c.j GROUP BY c.i
        ),
        n{t} AS MATERIALIZED (SELECT sqrt(sum(w * w)) AS nv FROM w{t}),
        v{t} AS MATERIALIZED (SELECT i, w / nv AS v FROM w{t}, n{t})""")
    parts.append(f"""
        SELECT CAST(v{iters}.i - 1 AS BIGINT) AS i,
               round(v{iters}.v, 6) AS loading,
               round(n{iters}.nv, 4) AS eigval
        FROM v{iters}, n{iters} ORDER BY i""")
    return "".join(parts)


# ---------------------------------------------------------------------------
# dumped-token-table oracle machinery: the real tokenizer isn't
# SQL-expressible, but its OUTPUT (the map-side posting stream) is dumped to
# parquet by the query fns, so DuckDB can independently recompute everything
# DOWNSTREAM of tokenization — df aggregation, the exact Ranker arithmetic,
# BM25, phrase adjacency — and the driver hash-compares both sides.
# ---------------------------------------------------------------------------

_MAIN_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/main"
_SIMHASH_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/simhash"
_FP_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/fingerprints"
_HLL_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/hll"
_MM_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/multimodal"

# RE2-and-Python-compatible PII patterns shared with the Ray stage
from nadry_search_engine_be_ray.stages.curation import (  # noqa: E402
    EMAIL_RE as _EMAIL_RE,
    PHONE_RE as _PHONE_RE,
)
_ANN_LSH_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/ann_lsh"
_ANN_IVF_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/ann_ivf"
_KM_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/kmeans"
_SD_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/semdedup"
_LR_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/lr"
_PQ_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/pq"
_IVFPQ_DUMP_DIR = "/tmp/nadry_entry/oracle_dumps/ivfpq"


def _tokenizer():
    from nadry_search_engine_be_ray.functions.tokenizer import Tokenizer

    if not hasattr(_tokenizer, "_t"):
        _tokenizer._t = Tokenizer()
    return _tokenizer._t


def _query_plans() -> list[dict]:
    """Static per-query evaluation plan mirroring SearchEngine.search_auto:
    quoted phrase -> phrase_search (1 token delegates back to term search),
    else term search.  Computed once from the tokenizer (data-independent)."""
    import re as _re

    from nadry_search_engine_be_ray.sources.corpus import reference_queries

    tok = _tokenizer()
    quoted = _re.compile(r'"([^"]*)"')
    plans = []
    for q in reference_queries():
        raw, page, size = q["query"], q["page"], q["page_size"]
        m = quoted.search(raw)
        if m:
            terms = tok.tokenize(m.group(1))
            if not terms:
                plan = {"kind": "empty"}
            elif len(terms) == 1:
                bag_terms = tok.tokenize(terms[0])
                plan = {"kind": "term", "tokens": bag_terms}
            else:
                plan = {"kind": "phrase", "tokens": terms}
        else:
            terms = tok.tokenize(raw)
            plan = {"kind": "term", "tokens": terms} if terms else {"kind": "empty"}
        plan.update(query=raw, page=max(0, page),
                    size=size if size > 0 else 10, qid=q["query_id"])
        plans.append(plan)
    return plans


def _phrase_terms() -> list[str]:
    """Terms whose POSITIONS are materialized in the pos dump: every
    reference-query token (phrase adjacency oracles need the phrase
    tokens; the highlight-span oracle needs the term-query tokens too).
    The dump cache key includes this list, so extending it just triggers
    one rebuild."""
    out: set[str] = set()
    for p in _query_plans():
        if p["kind"] != "empty":
            out.update(p["tokens"])
    return sorted(out)


def _ensure_popularity(index_dir: str) -> None:
    """Deterministic popularity state for the shared /tmp index: run the
    same synthetic-link pagerank `_q_pagerank` runs iff it hasn't yet
    (idempotent — _q_pagerank rewrites identical values)."""
    if os.path.exists(os.path.join(index_dir, "popularity", "popularity.parquet")):
        return
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import run_pagerank
    from nadry_search_engine_be_ray.sources.corpus import make_links
    from nadry_search_engine_be_ray.stages.prep import derive_urls

    urls = sorted(
        derive_urls(
            pads.dataset(os.path.join(index_dir, "prepped"), format="parquet")
            .to_table(columns=["repo", "path", "commit"])
        )
    )
    run_pagerank(ray.data.from_arrow(make_links(urls, seed=42)), index_dir)


def _main_dump(sf_dir: str) -> str:
    from nadry_search_engine_be_ray.pipelines.oracle_dump import dump_index_tables

    _, index_dir = _built_index(sf_dir)
    _ensure_popularity(index_dir)
    return dump_index_tables(index_dir, _MAIN_DUMP_DIR, _phrase_terms())


def _q_index_term_df_real(sf_dir: str):
    """Real-tokenizer per-term df from the built SEGMENTS; the SQL oracle
    recomputes df from the dumped pre-shuffle token stream, so the hash
    compare covers the posting shuffle + encode + merge + read path."""
    return _term_df(sf_dir, "varint")


def _term_df(sf_dir: str, docs_codec: str):
    """Per-term df read back from the ``docs_codec`` tier's segments."""
    import pandas as pd

    from nadry_search_engine_be_ray.state.segments import SegmentReader

    _, index_dir = _built_index(sf_dir, docs_codec)
    _main_dump(sf_dir)  # tok.parquet is codec-independent (pre-shuffle)
    r = SegmentReader(index_dir)
    rows = [(t, int(r.postings(t).df)) for t in sorted(r.terms())]
    return pd.DataFrame({"term": [t for t, _ in rows],
                         "df": pd.array([d for _, d in rows], dtype="int64")})


def _q_index_lineage(sf_dir: str):
    """Per-partition (shard) lineage + metrics over the final segment
    tier (pipelines/build.index_lineage — the queryable face of the
    north-rule's per-partition checkpoints with lineage + metrics):
    per-shard term/posting counts + payload byte footprints, one
    distributed pruned read + shard groupby, plus a shard=-1 total row.
    The oracle aggregates the dumped per-row segment facts in SQL and
    recomputes the TOTAL row's n_terms/n_postings INDEPENDENTLY from the
    pre-shuffle token dump (distinct terms / (term, doc) pairs), tying
    the segment tier's df accounting back to the map-side stream."""
    from nadry_search_engine_be_ray.pipelines.build import index_lineage

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return index_lineage(index_dir)


def _q_index_df_bitpack(sf_dir: str):
    """Per-term df read back from a BITPACK-tier index (docs_codec=
    'bitpack', the write-once block code) — same oracle recompute as
    index_term_df_real, so the driver hash-checks the bitpack build's
    encode + decode_sorted_bitpack read path end-to-end."""
    return _term_df(sf_dir, "bitpack")


def _q_index_df_ef(sf_dir: str):
    """Per-term df read back from an ELIAS-FANO-tier index (docs_codec=
    'ef', the quasi-succinct monotone code) — same oracle recompute as
    index_term_df_real, so the driver hash-checks the ef build's
    encode_ef + decode_ef read path end-to-end."""
    return _term_df(sf_dir, "ef")


def _q_proximity_pairs(sf_dir: str):
    """Unordered within-window co-occurrence (Lucene sloppy-phrase analog)
    over the phrase-term dictionary, from the REAL segments (docs intersect
    + batched positions decode); the oracle recomputes every qualifying
    (pos_a, pos_b) combination from the dumped positions table."""
    from nadry_search_engine_be_ray.pipelines.query import proximity_pairs

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)  # pos.parquet for exactly these terms
    return proximity_pairs(index_dir, _phrase_terms(), window=3)


def _q_proximity_ordered(sf_dir: str):
    """Directional slop (a strictly before b, gap <= window) — the ordered
    sloppy-phrase variant; same segments path, same oracle shape."""
    from nadry_search_engine_be_ray.pipelines.query import proximity_pairs

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return proximity_pairs(index_dir, _phrase_terms(), window=3,
                           ordered=True)


_FACET_TERMS = ["search", "engin", "index"]  # tokenize("search engine index")


def _q_facet_counts(sf_dir: str):
    """Faceted search (Lucene/Solr facet counts): per facet column (lang,
    repo), how many docs matching ANY of the query terms carry each value
    — matched set from the REAL segments, facet scan over the prepped side
    table; the oracle recomputes the match + counts from the dumped token
    table joined to the dumped docmeta facet columns."""
    from nadry_search_engine_be_ray.pipelines.query import facet_counts

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return facet_counts(index_dir, _FACET_TERMS, mode="any")


def _q_facet_counts_all(sf_dir: str):
    """Conjunctive facet counts (docs containing ALL query terms)."""
    from nadry_search_engine_be_ray.pipelines.query import facet_counts

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return facet_counts(index_dir, _FACET_TERMS, mode="all")


def _facet_sql(mode: str) -> str:
    terms = ", ".join(f"'{t}'" for t in _FACET_TERMS)
    if mode == "all":
        matched = f"""
            SELECT doc_int FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
            WHERE term IN ({terms})
            GROUP BY doc_int HAVING count(DISTINCT term) = {len(_FACET_TERMS)}
        """
    else:
        matched = f"""
            SELECT DISTINCT doc_int
            FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
            WHERE term IN ({terms})
        """
    return f"""
        WITH matched AS ({matched}),
        m AS (SELECT d.repo, d.lang
              FROM read_parquet('{_MAIN_DUMP_DIR}/docmeta.parquet') d
              JOIN matched USING (doc_int))
        SELECT facet, value, n_docs FROM (
            SELECT 'lang' AS facet, lang AS value, count(*) AS n_docs
            FROM m GROUP BY lang
            UNION ALL
            SELECT 'repo' AS facet, repo AS value, count(*) AS n_docs
            FROM m GROUP BY repo
        ) ORDER BY facet, value
    """


# mix of exact dictionary hits and 1-2-edit typos of corpus vocabulary
_SPELL_WORDS = ["serch", "engin", "documnt", "indx", "crwl", "tokken",
                "merg", "qery"]


def _q_spell_correct(sf_dir: str):
    """Query spell correction ("did you mean"): per query word, the
    highest-df dictionary term within 2 edits (distance asc, df desc,
    term asc tiebreak) — dictionary streamed from the segment parquet
    (term, df columns only), vectorized byte-level Wagner-Fischer DP; the
    oracle recomputes with DuckDB's (byte-based) levenshtein() over the
    dumped token table's term dictionary."""
    from nadry_search_engine_be_ray.pipelines.query import spell_correct

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return spell_correct(index_dir, _SPELL_WORDS, max_distance=2)


def _q_spell_correct_kgram(sf_dir: str):
    """Gram-pruned spell correction (the 100 TB-dictionary path): the
    k-gram index (sorted by gram, row-group pushdown) yields candidates
    sharing >= |set(G(w))| - k*d distinct grams with the query word —
    a sound count filter since one edit rewrites at most k windows —
    then the exact DP verify + (distance, df desc, term) ranking of
    spell_correct; too-short words fall back to the stream scan.  Oracle
    is the SAME levenshtein recompute as spell_correct, so the pruning's
    soundness is hash-checked, not assumed."""
    from nadry_search_engine_be_ray.pipelines.query import (
        spell_correct_kgram,
    )

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return spell_correct_kgram(index_dir, _SPELL_WORDS, max_distance=2)


def _spell_sql() -> str:
    vals = ", ".join(f"('{w}')" for w in sorted(set(_SPELL_WORDS)))
    return f"""
        WITH dict AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
            GROUP BY term
        ),
        q(query) AS (VALUES {vals}),
        c AS (
            SELECT q.query, d.term, d.df,
                   levenshtein(q.query, d.term) AS distance
            FROM q CROSS JOIN dict d
            WHERE levenshtein(q.query, d.term) <= 2
        )
        SELECT query, term AS suggestion, distance, df
        FROM (SELECT *, row_number() OVER (
                  PARTITION BY query
                  ORDER BY distance, df DESC, term) AS rn
              FROM c)
        WHERE rn = 1 ORDER BY query
    """


_PREFIXES = ["se", "ind", "tok", "qu", "zzqx"]


def _q_prefix_suggest(sf_dir: str):
    """Autocomplete: per prefix, top-5 dictionary terms by df (df desc,
    term asc) — dictionary streamed from the segment parquet; the oracle
    recomputes with LIKE + row_number over the dumped token table."""
    from nadry_search_engine_be_ray.pipelines.query import prefix_suggest

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return prefix_suggest(index_dir, _PREFIXES, k=5)


def _q_prefix_suggest_kgram(sf_dir: str):
    """Gram-pruned autocomplete (the 100 TB-dictionary path): prefix ->
    wildcard prefix% through the k-gram index (anchored $prefix grams,
    row-group pushdown, match_like verify), then the same (df desc, term
    asc) top-5; oracle is the SAME LIKE recompute as prefix_suggest, so
    the pruning's soundness is hash-checked."""
    from nadry_search_engine_be_ray.pipelines.query import (
        prefix_suggest_kgram,
    )

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return prefix_suggest_kgram(index_dir, _PREFIXES, k=5)


def _prefix_sql() -> str:
    vals = ", ".join(f"('{p}')" for p in sorted(set(_PREFIXES)))
    return f"""
        WITH dict AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
            GROUP BY term
        ),
        p(prefix) AS (VALUES {vals}),
        c AS (
            SELECT p.prefix, d.term, d.df
            FROM p JOIN dict d ON d.term LIKE p.prefix || '%'
        )
        SELECT prefix, term, df, rank FROM (
            SELECT *, row_number() OVER (
                PARTITION BY prefix ORDER BY df DESC, term) AS rank
            FROM c)
        WHERE rank <= 5 ORDER BY prefix, rank
    """


_WILDCARDS = ["se%ch", "tok%", "%tion", "q__ri", "zz%qx"]


def _q_wildcard_kgram(sf_dir: str):
    """Wildcard lookup through the k-gram index (gram explode + sort by
    gram at build, pushdown-filtered gram reads + intersect + match_like
    verify at query); oracle is the SAME LIKE recompute as
    wildcard_terms, so the gram pruning's soundness is hash-checked."""
    from nadry_search_engine_be_ray.pipelines.query import (
        wildcard_terms_kgram,
    )

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return wildcard_terms_kgram(index_dir, _WILDCARDS)


def _q_numeric_range(sf_dir: str):
    """Range retrieval over the tokenizer's num:<value> special tokens:
    docs with any indexed number in [10, 99], with the count of distinct
    in-range numeric terms per doc; oracle recomputes from the dumped
    token table with TRY_CAST."""
    from nadry_search_engine_be_ray.pipelines.query import (
        numeric_range_search,
    )

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return numeric_range_search(index_dir, 10, 99)


_NUMERIC_RANGE_SQL = """
    SELECT doc_int, count(DISTINCT term) AS n_terms
    FROM read_parquet('{dump}/tok.parquet')
    WHERE term LIKE 'num:%'
      AND try_cast(substr(term, 5) AS BIGINT) BETWEEN 10 AND 99
    GROUP BY doc_int ORDER BY doc_int
"""


def _q_more_like_this(sf_dir: str):
    """More-Like-This over the smallest doc_int: top-5 source terms by
    (tf DESC, df ASC, term ASC) — integer-only selection, no tf-idf
    float hazards — then additive accumulated-weight top-10 excluding
    the source; oracle recomputes the whole chain from tok + tokw +
    docstats."""
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.query import more_like_this

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    import os as _os

    di = pads.dataset(_os.path.join(index_dir, "doc_stats"),
                      format="parquet").to_table(columns=["doc_int"])
    src = min(di["doc_int"].to_pylist())
    return more_like_this(index_dir, src, n_terms=5, k=10)


_MLT_SQL = """
    WITH src AS (SELECT min(doc_int) AS d
                 FROM read_parquet('{dump}/docstats.parquet')),
    tv AS (SELECT term, sum(tf) AS tf
           FROM read_parquet('{dump}/tok.parquet')
           WHERE doc_int = (SELECT d FROM src) GROUP BY term),
    dfs AS (SELECT term, count(*) AS df
            FROM read_parquet('{dump}/tok.parquet') GROUP BY term),
    sel AS (SELECT tv.term FROM tv JOIN dfs USING (term)
            ORDER BY tv.tf DESC, dfs.df ASC, term LIMIT 5),
    scored AS (SELECT w.doc_int, sum(w.weight) AS score
               FROM read_parquet('{dump}/tokw.parquet') w
               JOIN sel USING (term)
               WHERE w.doc_int != (SELECT d FROM src)
               GROUP BY w.doc_int)
    SELECT rank, doc_int, round(score, 9) AS score FROM (
        SELECT doc_int, score,
               row_number() OVER (ORDER BY score DESC, doc_int) AS rank
        FROM scored)
    WHERE rank <= 10 ORDER BY rank
"""


def _q_wildcard_terms(sf_dir: str):
    """Wildcard dictionary lookup: terms matching each LIKE pattern with
    df — Arrow match_like == DuckDB LIKE, so the oracle is a direct LIKE
    join over the dumped token table's dictionary."""
    from nadry_search_engine_be_ray.pipelines.query import wildcard_terms

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return wildcard_terms(index_dir, _WILDCARDS)


def _wildcard_sql() -> str:
    vals = ", ".join(f"('{p}')" for p in sorted(set(_WILDCARDS)))
    return f"""
        WITH dict AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
            GROUP BY term
        ),
        p(pattern) AS (VALUES {vals})
        SELECT p.pattern, d.term, d.df
        FROM p JOIN dict d ON d.term LIKE p.pattern
        ORDER BY p.pattern, d.term
    """


# boolean retrieval test expressions over corpus vocabulary stems
_BOOL_EXPRS = {
    "b_and": ("and", "search", "engin"),
    "b_or": ("or", "crawl", "index"),
    "b_and_not": ("and", "search", ("not", "engin")),
    "b_nested": ("and", ("or", "token", "merg"),
                 ("not", ("and", "index", "queri"))),
}


def _q_boolean_search(sf_dir: str):
    """Unranked boolean retrieval (AND/OR/NOT expression trees over the
    posting lists, NOT complementing against the doc universe); the
    oracle recomputes each fixed expression with INTERSECT / UNION /
    EXCEPT over the dumped token table — x AND (NOT y) = x EXCEPT y, so
    every NOT in the fixture folds into a set difference."""
    from nadry_search_engine_be_ray.pipelines.query import boolean_search

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return boolean_search(index_dir, _BOOL_EXPRS)


def _bool_sql() -> str:
    tok = f"read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')"

    def m(t):
        return f"SELECT doc_int FROM {tok} WHERE term = '{t}'"

    return f"""
        SELECT 'b_and' AS name, doc_int FROM (
            {m('search')} INTERSECT {m('engin')})
        UNION ALL
        SELECT 'b_or', doc_int FROM ({m('crawl')} UNION {m('index')})
        UNION ALL
        SELECT 'b_and_not', doc_int FROM (
            {m('search')} EXCEPT {m('engin')})
        UNION ALL
        SELECT 'b_nested', doc_int FROM (
            ({m('token')} UNION {m('merg')})
            EXCEPT
            ({m('index')} INTERSECT {m('queri')}))
        ORDER BY name, doc_int
    """


def _codec_sizes_sql(dense: bool) -> str:
    """Analytic three-codec size arithmetic over the dumped token table;
    ``dense`` first remaps doc keys to their rank in the doc universe
    (row_number over the dumped docstats key column) — the docid-
    reassignment experiment.  varint bytes = ceil(bit_length/7) per
    delta-gap (min 1); bitpack = varint(n) header + 1 width byte per
    128-value block + ceil(cnt*max_bits/8) per block; Elias-Fano =
    varint(n) + varint(u) + ceil(n*l/8) + ceil((n + (u >> l) + 1)/8)
    with l = bit_length(u // n) - 1 (integer division; 0 when u < n).
    bin(x) has no leading zeros in DuckDB, so length(bin(g)) IS
    bit_length(g) for g > 0; the first gap is the absolute first doc key
    (may be 0 -> width 0, varint 1 byte)."""
    if dense:
        src = f"""
            SELECT t.term, m.did AS doc_int, t.tf
            FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet') t
            JOIN (SELECT doc_int,
                         row_number() OVER (ORDER BY doc_int) - 1 AS did
                  FROM read_parquet('{_MAIN_DUMP_DIR}/docstats.parquet')) m
            USING (doc_int)
        """
    else:
        src = f"""
            SELECT term, doc_int, tf
            FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
        """
    return f"""
        WITH src AS ({src}),
        d AS (
            SELECT term, doc_int, tf,
                   row_number() OVER (PARTITION BY term
                                      ORDER BY doc_int) - 1 AS rn,
                   doc_int - coalesce(lag(doc_int) OVER (
                       PARTITION BY term ORDER BY doc_int), 0) AS gap
            FROM src
        ),
        g AS (
            SELECT term, rn // 128 AS blk,
                   CASE WHEN gap = 0 THEN 0
                        ELSE length(bin(gap)) END AS bl,
                   length(bin(tf)) AS tf_bl
            FROM d
        ),
        blocks AS (
            SELECT term, blk, count(*) AS cnt,
                   max(bl) AS bits,
                   sum(CASE WHEN bl = 0 THEN 1
                            ELSE (bl + 6) // 7 END) AS vbytes,
                   max(tf_bl) AS tf_bits,
                   sum((tf_bl + 6) // 7) AS tf_vbytes
            FROM g GROUP BY term, blk
        ),
        per_term AS (
            SELECT term, sum(cnt) AS df, count(*) AS nblocks,
                   sum(vbytes) AS v_payload,
                   sum((cnt * bits + 7) // 8) AS b_payload,
                   sum(tf_vbytes) AS tf_v_payload,
                   sum((cnt * tf_bits + 7) // 8) AS tf_b_payload
            FROM blocks GROUP BY term
        ),
        ef AS (
            SELECT term, max(doc_int) AS u FROM src GROUP BY term
        ),
        ef2 AS (
            SELECT p.term, p.df, p.nblocks, p.v_payload, p.b_payload,
                   p.tf_v_payload, p.tf_b_payload, e.u,
                   CASE WHEN e.u >= p.df
                        THEN length(bin(e.u // p.df)) - 1
                        ELSE 0 END AS l
            FROM per_term p JOIN ef e USING (term)
        )
        SELECT term, CAST(df AS BIGINT) AS df,
               CAST(hdr + v_payload AS BIGINT) AS varint_bytes,
               CAST(hdr + nblocks + b_payload AS BIGINT)
                   AS bitpack_bytes,
               CAST(hdr
                    + (CASE WHEN u = 0 THEN 1
                            ELSE (length(bin(u)) + 6) // 7 END)
                    + (df * l + 7) // 8
                    + ((df + (u >> l) + 1) + 7) // 8
                    AS BIGINT) AS ef_bytes,
               CAST(hdr + tf_v_payload AS BIGINT) AS tfs_varint_bytes,
               CAST(hdr + nblocks + tf_b_payload AS BIGINT)
                   AS tfs_bitpack_bytes
        FROM (SELECT *,
                     (length(bin(CAST(df AS BIGINT))) + 6) // 7 AS hdr
              FROM ef2)
        ORDER BY term
    """


def _q_champion_lists(sf_dir: str):
    """Champion lists (tiered-index first tier): per term, the top-3
    postings by accumulated field weight, total tie-break (weight DESC,
    doc_int ASC); the oracle is row_number over the dumped tokw table —
    weights are exact multiples of 0.5 (tf x {3.0, 1.5, 1.0} boosts), so
    float summation order cannot break the compare."""
    from nadry_search_engine_be_ray.pipelines.build import champion_lists

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return champion_lists(index_dir, m=3)


def _q_champion_topk(sf_dir: str):
    """Champion-list early-termination retrieval (IR-book §7.1.3 inexact
    top-k / Persin impact ordering): each term contributes only its top-3
    postings by accumulated field weight, scored with the exact bm25f
    expression — per-query candidate work is bounded by tokens x m
    regardless of posting length (serve mode 'champion' reads the
    sorted champion parquet with a term-pruned row-group read and never
    decodes a posting payload).  The oracle replays the identical
    semantics (row_number <= m over the dumped tokw table + the shared
    BM25 expression tree), so the approximation contract is hash-checked,
    not hand-waved."""
    return _serve_eval(sf_dir, "champion", m=3, k=10)


def _q_highlight_spans(sf_dir: str):
    """Match-offset extraction for highlighting (serve mode 'highlight',
    the UnifiedHighlighter analog the reference's snippet marker consumes):
    BM25 top-3 docs per query, then every (term, field, position)
    occurrence of each query term in each top doc, decoded from the
    positions payload of just the query terms' lists.  Oracle = the shared
    BM25 CTE rank window joined to the exploded pos dump, so the positions
    codec's decode path is hash-checked against the map-side stream."""
    return _serve_eval(sf_dir, "highlight", k=3,
                       sort=("query", "rank", "term", "field", "pos"))


def _highlight_sql(k: int = 3) -> str:
    """Highlight oracle: per plan, the BM25 rank window [0, k) from the
    shared score CTE, joined to the exploded positions dump restricted to
    the plan's terms."""
    D = _MAIN_DUMP_DIR
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(set(p["tokens"])))
        ctes.append(_bm25_score_cte(p) + f""",
        hpg{i} AS (
            SELECT doc_int,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM bsc{i})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(g.rn AS INTEGER) AS rank,
               printf('%015x', g.doc_int) AS doc_id,
               pp.term AS term,
               CAST(pp.field AS INTEGER) AS field,
               CAST(pp.pos AS BIGINT) AS pos
        FROM hpg{i} g
        JOIN read_parquet('{D}/pos.parquet') pp
             ON pp.doc_int = g.doc_int AND pp.term IN ({terms_sql})
        WHERE g.rn < {k}""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _champion_topk_sql(m: int = 3, k: int = 10) -> str:
    """Champion-retrieval oracle: per plan, top-m rows per term by
    (weight DESC, doc_int) from the tokw dump, full per-term df for the
    idf, the shared BM25 saturation over the WEIGHT, top-k by
    (score DESC, doc_int)."""
    from collections import Counter

    D = _MAIN_DUMP_DIR
    idf = (f"ln((CAST((SELECT n_docs FROM "
           f"read_parquet('{D}/stats.parquet')) AS DOUBLE)"
           f" - d.df + 0.5) / (d.df + 0.5) + 1.0)")
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        mult = Counter(p["tokens"])
        terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(mult))
        whens = " ".join(
            f"WHEN '{_sqlq(t)}' THEN {float(mn)!r}"
            for t, mn in sorted(mult.items())
        )
        sat = (f"(t.weight * (1.2 + 1)) / (t.weight + 1.2 * (1 - 0.75 + "
               f"0.75 * CAST(ds.total_words AS DOUBLE) / "
               f"(SELECT avgdl FROM read_parquet('{D}/stats.parquet'))))")
        ctes.append(f"""
        chdf{i} AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{D}/tokw.parquet')
            WHERE term IN ({terms_sql}) GROUP BY term),
        chtop{i} AS (
            SELECT term, doc_int, weight FROM (
                SELECT term, doc_int, weight,
                       row_number() OVER (PARTITION BY term
                           ORDER BY weight DESC, doc_int) AS rn
                FROM read_parquet('{D}/tokw.parquet')
                WHERE term IN ({terms_sql}))
            WHERE rn <= {m}),
        chsc{i} AS (
            SELECT t.doc_int,
                   SUM((CASE t.term {whens} END) * {idf} * {sat}) AS score
            FROM chtop{i} t
            JOIN chdf{i} d ON d.term = t.term
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = t.doc_int
            GROUP BY t.doc_int),
        chpg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM chsc{i})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score
        FROM chpg{i}
        WHERE rn < {k}""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _q_tiered_topk(sf_dir: str):
    """Tiered retrieval (IR-book §7.2.1): tier 1 = champion lists (top-3
    by field weight per term); a query with >= 10 distinct tier-1
    candidates is answered from tier 1 alone (champion scoring, bounded
    work), else full bm25f evaluation — serve mode 'tiered', with the
    fired tier emitted per row so the oracle hash-checks the LADDER
    decision, not just the ranking."""
    # m=8: single-term queries (<= 8 distinct tier-1 candidates) fall
    # back while multi-term queries fill tier 1 — BOTH ladder branches
    # fire on the reference query set, so the oracle checks each
    return _serve_eval(sf_dir, "tiered", m=8, k=10)


def _q_min_should_match(sf_dir: str):
    """Minimum-should-match retrieval (Lucene/ES minimum_should_match):
    candidates must match >= ceil(0.5 x n_distinct_query_terms) DISTINCT
    query terms; survivors get the full BM25 score over all their matched
    terms (serve mode 'min_should_match').  Oracle = the shared BM25 CTE
    + a per-doc distinct-term-count gate, both replayed in SQL with the
    per-plan constant threshold."""
    return _serve_eval(sf_dir, "min_should_match", ratio=0.5, k=10)


def _min_should_match_sql(ratio: float = 0.5, k: int = 10) -> str:
    """mm oracle: the shared BM25 CTE gated by a per-doc distinct-term
    count (threshold precomputed per plan)."""
    import math as _math

    D = _MAIN_DUMP_DIR
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        distinct = sorted(set(p["tokens"]))
        required = max(1, _math.ceil(ratio * len(distinct)))
        terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in distinct)
        ctes.append(_bm25_score_cte(p) + f""",
        mmn{i} AS (
            SELECT doc_int, count(DISTINCT term) AS nm
            FROM read_parquet('{D}/tok.parquet')
            WHERE term IN ({terms_sql}) GROUP BY doc_int),
        mmpg{i} AS (
            SELECT b.doc_int, b.score, n.nm,
                   row_number() OVER (ORDER BY b.score DESC,
                                      b.doc_int ASC) - 1 AS rn
            FROM bsc{i} b JOIN mmn{i} n ON n.doc_int = b.doc_int
            WHERE n.nm >= {required})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score,
               CAST(nm AS BIGINT) AS n_matched
        FROM mmpg{i}
        WHERE rn < {k}""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _tiered_topk_sql(m: int = 8, k: int = 10) -> str:
    """Tiered-retrieval oracle: the champion CTE chain (tier 1) plus the
    full bm25f chain (the shared BM25 CTE over the tokw weight source);
    the fired tier is the count-distinct gate replayed in SQL."""
    from collections import Counter

    D = _MAIN_DUMP_DIR
    idf = (f"ln((CAST((SELECT n_docs FROM "
           f"read_parquet('{D}/stats.parquet')) AS DOUBLE)"
           f" - d.df + 0.5) / (d.df + 0.5) + 1.0)")
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        mult = Counter(p["tokens"])
        terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(mult))
        whens = " ".join(
            f"WHEN '{_sqlq(t)}' THEN {float(mn)!r}"
            for t, mn in sorted(mult.items())
        )
        sat = (f"(t.weight * (1.2 + 1)) / (t.weight + 1.2 * (1 - 0.75 + "
               f"0.75 * CAST(ds.total_words AS DOUBLE) / "
               f"(SELECT avgdl FROM read_parquet('{D}/stats.parquet'))))")
        ctes.append(_bm25_score_cte(
            p, tf_source=("tokw.parquet", "weight")) + f""",
        tddf{i} AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{D}/tokw.parquet')
            WHERE term IN ({terms_sql}) GROUP BY term),
        tdtop{i} AS (
            SELECT term, doc_int, weight FROM (
                SELECT term, doc_int, weight,
                       row_number() OVER (PARTITION BY term
                           ORDER BY weight DESC, doc_int) AS rn
                FROM read_parquet('{D}/tokw.parquet')
                WHERE term IN ({terms_sql}))
            WHERE rn <= {m}),
        tdn{i} AS (SELECT count(DISTINCT doc_int) AS n FROM tdtop{i}),
        tdsc{i} AS (
            SELECT t.doc_int,
                   SUM((CASE t.term {whens} END) * {idf} * {sat}) AS score
            FROM tdtop{i} t
            JOIN tddf{i} d ON d.term = t.term
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = t.doc_int
            GROUP BY t.doc_int),
        tdpg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM tdsc{i}),
        tdfull{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM bsc{i})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score,
               CAST(1 AS INTEGER) AS tier
        FROM tdpg{i}
        WHERE rn < {k} AND (SELECT n FROM tdn{i}) >= {k}
        UNION ALL
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score,
               CAST(2 AS INTEGER) AS tier
        FROM tdfull{i}
        WHERE rn < {k} AND (SELECT n FROM tdn{i}) < {k}""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


_CHAMPION_SQL_TMPL = """
    SELECT term, doc_int, round(weight, 9) AS weight, w_rank FROM (
        SELECT term, doc_int, weight,
               row_number() OVER (PARTITION BY term
                                  ORDER BY weight DESC, doc_int) AS w_rank
        FROM read_parquet('{dump}/tokw.parquet'))
    WHERE w_rank <= 3 ORDER BY term, w_rank
"""


def _q_posting_codec_sizes(sf_dir: str):
    """Docs-stream bytes per term under varint delta-gap vs FOR bit packing
    vs Elias-Fano (functions/codec.py), computed from the DECODED segments
    by an actor-pool map_batches; the SQL oracle recomputes all framings
    analytically (bin()-length bit widths, 128-value blocks, EF's
    integer-division lower width) from the dumped pre-shuffle token table,
    so the compare covers shuffle + encode + merge + read + the codecs'
    size arithmetic."""
    from nadry_search_engine_be_ray.pipelines.build import posting_codec_sizes

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return posting_codec_sizes(index_dir)


def _q_posting_codec_sizes_dense(sf_dir: str):
    """The docid-reassignment experiment: same three framings AFTER
    remapping the sparse 60-bit doc keys to their dense rank in the doc
    universe — the regime where Elias-Fano approaches its bits/doc bound
    and overtakes FOR bitpack; the oracle reproduces the remap with
    row_number() over the dumped docstats key column."""
    from nadry_search_engine_be_ray.pipelines.build import posting_codec_sizes

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return posting_codec_sizes(index_dir, dense_remap=True)


def _serve_eval(sf_dir: str, mode: str, *, query_set: str = "plain",
                index=None, sort=("query", "rank"), **params):
    """Run the reference queries through ``serve.batch_search(mode,
    **params)`` and return the rows sorted by ``sort`` (scores rounded to
    9 dp like the SQL oracles).  ``query_set``: "plain" = the non-phrase
    queries, "paged" = every query with its page/page_size; ``index`` maps
    sf_dir to the index dir (default: the shared varint build)."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.serve import (
        batch_search, ensure_champion_tier,
    )
    from nadry_search_engine_be_ray.sources.corpus import reference_queries

    _main_dump(sf_dir)  # popularity made deterministic + oracle tables
    index_dir = index(sf_dir) if index else _built_index(sf_dir)[1]
    if mode in ("champion", "tiered"):
        ensure_champion_tier(index_dir, m=params["m"])
    qs = reference_queries()
    if query_set == "plain":
        qs = [q for q in qs if not q["query"].startswith('"')]
    cols = {"query": pa.array([q["query"] for q in qs], pa.string())}
    if query_set == "paged":
        cols.update({c: pa.array([q[c] for q in qs], pa.int32())
                     for c in ("page", "page_size")})
    tbl = pa.table(cols)
    out = batch_search(ray.data.from_arrow(tbl), index_dir, mode,
                       concurrency=2, **params).to_pandas()
    if "score" in out:
        out["score"] = out["score"].round(9)
    return out.sort_values(list(sort)).reset_index(drop=True)


def _q_search_reference(sf_dir: str):
    return _serve_eval(sf_dir, "reference", query_set="paged")


def _q_search_bm25(sf_dir: str):
    return _serve_eval(sf_dir, "bm25")


def _q_search_bm25_plus(sf_dir: str):
    """BM25+ (Lv & Zhai CIKM'11): per-matched-term lower-bound delta
    added inside the idf product — fixes plain BM25's long-document tf
    underflow; engine path = the same TAAT accumulator with scorer
    'bm25plus', oracle = the generated BM25 SQL with delta = 1.0."""
    return _serve_eval(sf_dir, "bm25plus")


def _q_search_after(sf_dir: str):
    """Keyset ("search_after") deep pagination: page 2 of each BM25 query
    fetched via the strict-after-(score, doc_int) cursor taken from the
    engine's own page-1 tail (SearchEngine.search_after) — page-N cost
    equals page-1 cost, no offset-sized sort; oracle = rank window
    [10, 20) under the identical total order."""
    return _serve_eval(sf_dir, "search_after")


def _q_collapse_by_repo(sf_dir: str):
    """Field-collapsed search (Lucene/ES collapse): at most one hit per
    repo — best doc per repo by (score DESC, doc_int ASC), global top-10
    over the winners (serve mode 'collapse'; the doc->repo
    mapping is the per-actor doc-values column)."""
    return _serve_eval(sf_dir, "collapse")


def _q_synonym_search(sf_dir: str):
    """Synonym-expanded BM25 (serve mode 'synonym'): thesaurus terms OR
    in at weight 0.4; the oracle shares the expansion code (config) and
    recomputes scoring in SQL."""
    return _serve_eval(sf_dir, "synonym")


def _q_field_search_desc(sf_dir: str):
    """Fielded search restricted to the DESCRIPTION field (field 1 — the
    field with query-term coverage in the code corpus; titles are short
    path-derived names): per-field
    tf derived at query time from the positions payload's field masks
    (serve mode 'field'); oracle recomputes from the tokf dump."""
    return _serve_eval(sf_dir, "field", field=1)


def _q_explain_scores(sf_dir: str):
    """Explain API (serve mode 'explain'): factor breakdown per
    (query, top-3 doc, term); the oracle recomputes tf/df/idf/saturation
    independently from the dumps."""
    return _serve_eval(sf_dir, "explain",
                       sort=("query", "doc_id", "term"))


def _q_sloppy_phrase(sf_dir: str):
    """Sloppy phrase queries ("a b"~slop): ordered gap-bounded positional
    chain (SearchEngine.sloppy_phrase_search), matched docs ranked by
    plain BM25 over the phrase tokens; the oracle replays the chain as a
    positions self-join over the pos dump."""
    import pandas as pd

    from nadry_search_engine_be_ray.pipelines.query import SearchEngine

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    eng = SearchEngine(index_dir)
    rows = []
    for phrase, slop in _SLOPPY_SPECS:
        for r_i, (d, s) in enumerate(eng.sloppy_phrase_search(phrase, slop)):
            rows.append((phrase, slop, r_i, f"{d:015x}", round(s, 9)))
    return pd.DataFrame(
        rows, columns=["phrase", "slop", "rank", "doc_id", "score"]
    ).astype({"slop": "int64", "rank": "int32"})


_PERCOLATE_REGISTRY = {
    "alert_slow_join": ["slow", "join", "hash"],
    "alert_stream_window": ["stream", "window", "agg"],
    "alert_vector_scan": ["vector", "scan", "filter"],
    "alert_customer_order": ["customer", "order", "merge"],
}


def _q_percolate(sf_dir: str):
    """Percolator (pipelines/percolate.py): the documents stream is
    matched against a stored-query registry — conjunctive token
    containment, one vectorized boundary-regex pass per registry term;
    the oracle replays membership with list_contains over the same
    tokenizer class."""
    import ray.data

    from nadry_search_engine_be_ray.pipelines.percolate import percolate

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    out = percolate(docs, _PERCOLATE_REGISTRY).to_pandas()
    return out.sort_values(["query_id", "doc_id"]).reset_index(drop=True)


def _q_span_corruption(sf_dir: str):
    """T5 span corruption (stages/curation.span_corruption): deterministic
    salted-sha token masking, consecutive masks merged into sentinel
    spans; the oracle rebuilds both strings with window functions."""
    import ray.data

    from nadry_search_engine_be_ray.stages.curation import span_corruption

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    out = span_corruption(docs).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_incremental_dedup(sf_dir: str):
    """Incremental-ingest near-dup screening (stages/dedup.
    minhash_delta_pairs): a delta of revised documents (doc_id%97==5,
    text + ' delta revision note') is checked against the base corpus —
    only BASE x DELTA candidates are verified; the oracle computes the
    exact cross-corpus n-gram Jaccard join over the same union."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import minhash_delta_pairs

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )

    def mk_delta(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = batch.filter(pa.array(d % 97 == 5))
        i = keep.schema.get_field_index("text")
        return keep.set_column(
            i, "text",
            pc.binary_join_element_wise(
                keep["text"].cast(pa.string()), " delta revision note", ""
            ),
        )

    delta = docs.map_batches(mk_delta, batch_format="pyarrow")
    out = minhash_delta_pairs(docs, delta).to_pandas()
    out["jaccard"] = out["jaccard"].round(9)
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _q_search_eval(sf_dir: str):
    """Built-in IR evaluation (pipelines/query.evaluate_bm25): MRR /
    binary nDCG@10 / recall@10 of the BM25 ranking against derived
    conjunctive-containment qrels, per reference query."""
    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    from nadry_search_engine_be_ray.pipelines.query import evaluate_bm25

    out = evaluate_bm25(
        index_dir, [p["query"] for p in _bm25_term_plans()]
    ).to_pandas()
    return out.sort_values("query").reset_index(drop=True)


def _q_significant_terms(sf_dir: str):
    """Significant-terms aggregation (pipelines/query.significant_terms):
    top-20 lift-overrepresented terms in docs matching any of the query
    terms — computed by a distributed scan over the segment term rows
    with per-batch partial top-k; oracle recomputes lift from the tok
    dump."""
    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    from nadry_search_engine_be_ray.pipelines.query import significant_terms

    return significant_terms(
        index_dir, ["search", "engin"], k=20
    ).to_pandas()


def _q_facet_stats(sf_dir: str):
    """Numeric stats aggregation per facet value over matched docs
    (pipelines/query.facet_stats): doc-length sum/avg/min/max per lang
    for docs matching ANY of the query terms."""
    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    from nadry_search_engine_be_ray.pipelines.query import facet_stats

    return facet_stats(
        index_dir, ["search", "engin", "index"], facet="lang"
    ).to_pandas()


def _q_search_bm25f(sf_dir: str):
    """Simple BM25F (Robertson/Zaragoza): per-field boosted tf sums feed
    one BM25 saturation — the engine reads the stored accumulated field
    weight per posting (zero extra decode); oracle = same generated SQL
    over the tokw dump (weight replaces tf, df unchanged)."""
    return _serve_eval(sf_dir, "bm25f")


def _q_rocchio(sf_dir: str):
    """Rocchio pseudo-relevance feedback (serve mode 'rocchio'): top-5
    BM25 hits are pseudo-relevant, 3 integer-selected expansion terms at
    weight 0.5 join the query, candidates re-scored with the weighted
    multiset; the oracle replays the whole chain in SQL."""
    return _serve_eval(sf_dir, "rocchio")


def _q_pagerank(sf_dir: str):
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import run_pagerank
    from nadry_search_engine_be_ray.sources.corpus import make_links

    from nadry_search_engine_be_ray.stages.prep import derive_urls

    _, index_dir = _built_index(sf_dir)
    urls = sorted(
        derive_urls(
            pads.dataset(os.path.join(index_dir, "prepped"), format="parquet")
            .to_table(columns=["repo", "path", "commit"])
        )
    )
    edges = make_links(urls, seed=42)
    out = run_pagerank(ray.data.from_arrow(edges), index_dir).to_pandas()
    out["popularity"] = out["popularity"].round(12)
    return out.sort_values("url").reset_index(drop=True)


def _q_triangle_count(sf_dir: str):
    """Triangle count of the synthetic link graph (degree-oriented
    node-iterator, pipelines/pagerank.triangle_count); the oracle closes
    wedges with a 3-way self-join over the same edge rule."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        synthetic_edges,
        triangle_count,
    )

    edges, _ = synthetic_edges(sf_dir, quadratic=False)
    return triangle_count(edges).to_pandas()


def _q_kcore(sf_dir: str):
    """Fixed-round k-core peeling (pipelines/pagerank.kcore_nodes, k=4,
    5 rounds) on the QUADRATIC skewed link graph (the hits_scores edge
    rule — the 6-regular linear rule would make k-core all-or-nothing);
    the oracle unrolls the same rounds as MATERIALIZED CTE chains."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        kcore_nodes,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    return kcore_nodes(edges, k=4, n_rounds=5).to_pandas()


def _kcore_sql(k: int = 4, rounds: int = 5) -> str:
    parts = ["""
        raw AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        e0 AS MATERIALIZED (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src <> dst
        )"""]
    for r in range(rounds):
        parts.append(f"""
        d{r} AS MATERIALIZED (
            SELECT node, count(*) AS deg FROM (
                SELECT u AS node FROM e{r}
                UNION ALL SELECT v FROM e{r}
            ) GROUP BY node)""")
        parts.append(f"""
        a{r} AS MATERIALIZED (
            SELECT node FROM d{r} WHERE deg >= {k})""")
        parts.append(f"""
        e{r + 1} AS MATERIALIZED (
            SELECT e.u, e.v FROM e{r} e
            JOIN a{r} x ON x.node = e.u
            JOIN a{r} y ON y.node = e.v)""")
    return "WITH " + ",".join(parts) + f"""
        SELECT node, count(*) AS deg FROM (
            SELECT u AS node FROM e{rounds}
            UNION ALL SELECT v FROM e{rounds}
        ) GROUP BY node ORDER BY node
    """


def _q_ktruss(sf_dir: str):
    """Fixed-round k-truss peeling (pipelines/pagerank.ktruss_nodes,
    k=3 so an edge must stay in a triangle of survivors, 4 rounds — at
    k=4 this graph's truss is empty) on the quadratic skewed link
    graph; the oracle unrolls the same rounds — triangles via the
    canonical 3-way self-join, per-edge support via the 3-projection
    UNION ALL, survivors re-joined — as MATERIALIZED CTE chains."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        ktruss_nodes,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    out = ktruss_nodes(edges, k=3, n_rounds=4).to_pandas()
    return out


def _ktruss_sql(k: int = 3, rounds: int = 4) -> str:
    parts = ["""
        raw AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        e0 AS MATERIALIZED (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src <> dst
        )"""]
    for r in range(rounds):
        parts.append(f"""
        tri{r} AS MATERIALIZED (
            SELECT a.u AS x, a.v AS y, b.v AS z
            FROM e{r} a JOIN e{r} b ON b.u = a.u AND b.v > a.v
            JOIN e{r} c ON c.u = a.v AND c.v = b.v)""")
        parts.append(f"""
        e{r + 1} AS MATERIALIZED (
            SELECT u, v FROM (
                SELECT u, v, count(*) AS c FROM (
                    SELECT x AS u, y AS v FROM tri{r}
                    UNION ALL SELECT x, z FROM tri{r}
                    UNION ALL SELECT y, z FROM tri{r}
                ) GROUP BY u, v
            ) WHERE c >= {k - 2})""")
    return "WITH " + ",".join(parts) + f"""
        SELECT node, count(*) AS deg FROM (
            SELECT u AS node FROM e{rounds}
            UNION ALL SELECT v FROM e{rounds}
        ) GROUP BY node ORDER BY node
    """


def _q_katz(sf_dir: str, alpha: float = 0.05, iters: int = 6, k: int = 20):
    """Katz centrality (fixed ``iters`` synchronous rounds of
    v <- 1 + alpha * A^T v from v0 = 1) on the DIRECTED quadratic link
    graph; the top-k ranks on 6-dp-rounded scores (node-asc ties), the
    repo-wide cross-engine rank rule.  Distributed shape per round: one
    edge->dst partial-sum shuffle with the node-count-sized score vector
    broadcast (the pagerank_power exchange); the oracle unrolls the same
    rounds as MATERIALIZED LEFT-JOIN CTEs."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import link_targets

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = int(docs.count())

    def loop_free_edges(batch: pa.Table) -> pa.Table:
        src, dst = link_targets(
            batch["doc_id"].to_numpy(zero_copy_only=False), n)
        keep = src != dst
        return pa.table({"src": pa.array(src[keep], pa.int64()),
                         "dst": pa.array(dst[keep], pa.int64())})

    edges = (docs.map_batches(loop_free_edges, batch_format="pyarrow")
             .groupby(["src", "dst"]).count()
             .select_columns(["src", "dst"]).materialize())

    v = np.ones(n, dtype=np.float64)
    for _ in range(iters):
        v_ref = ray.put(v)

        def push(batch: pa.Table) -> pa.Table:
            vv = ray.get(v_ref)
            s = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            d = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            un, inv = np.unique(d, return_inverse=True)
            return pa.table({
                "dst": pa.array(un, pa.int64()),
                "x": pa.array(np.bincount(inv, weights=vv[s]), pa.float64()),
            })

        agg = (edges.map_batches(push, batch_format="pyarrow")
               .groupby("dst")
               .aggregate(ray.data.aggregate.Sum("x", alias_name="x"))
               .to_pandas())
        nv = np.ones(n, dtype=np.float64)
        nv[agg["dst"].to_numpy(np.int64)] += \
            alpha * agg["x"].to_numpy(np.float64)
        v = nv

    import pandas as pd

    out = pd.DataFrame({"node": np.arange(n, dtype=np.int64),
                        "katz": np.round(v, 6)})
    out = out.sort_values(["katz", "node"],
                          ascending=[False, True]).head(k)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["rank", "node", "katz"]].reset_index(drop=True)


def _katz_sql(alpha: float = 0.05, iters: int = 6, k: int = 20) -> str:
    parts = ["""
        raw AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        e0 AS MATERIALIZED (
            SELECT DISTINCT src AS u, dst AS v FROM raw WHERE src <> dst
        )""", """
        v0 AS MATERIALIZED (
            SELECT doc_id AS node, 1.0 AS val FROM documents
        )"""]
    for t in range(1, iters + 1):
        parts.append(f"""
        v{t} AS MATERIALIZED (
            SELECT d.doc_id AS node,
                   1.0 + {alpha} * coalesce(s.x, 0) AS val
            FROM documents d LEFT JOIN (
                SELECT e.v, sum(vp.val) AS x
                FROM e0 e JOIN v{t - 1} vp ON vp.node = e.u
                GROUP BY e.v
            ) s ON s.v = d.doc_id)""")
    return "WITH " + ",".join(parts) + f"""
        SELECT CAST(row_number() OVER (ORDER BY round(val, 6) DESC, node)
                    AS BIGINT) AS rank,
               node, round(val, 6) AS katz
        FROM v{iters}
        ORDER BY round(val, 6) DESC, node LIMIT {k}
    """


def _q_link_pred_cn(sf_dir: str):
    """Link prediction by common-neighbor count over the quadratic skewed
    link graph (pipelines/pagerank.common_neighbors_topk): top-20
    non-adjacent pairs; oracle = wedge self-join + edge anti-join."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        common_neighbors_topk,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    return common_neighbors_topk(edges, k=20).to_pandas()


def _q_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction (pipelines/pagerank.adamic_adar_topk)
    over the quadratic skewed link graph: top-20 non-adjacent pairs by
    the degree-discounted common-neighbor sum; oracle = weighted wedge
    self-join + edge anti-join, ranked on the 6-dp-rounded score."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        adamic_adar_topk,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    return adamic_adar_topk(edges, k=20)


def _q_link_pred_jaccard(sf_dir: str):
    """Jaccard-normalized link prediction over the quadratic skewed
    link graph (pipelines/pagerank.common_neighbors_topk with
    score="jaccard"): top-20 non-adjacent pairs by integer-ppm Jaccard;
    the oracle adds a degree join to the wedge self-join and states the
    same FLOOR(10⁶·c/union) integer division."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        common_neighbors_topk,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    return common_neighbors_topk(edges, k=20, score="jaccard").to_pandas()


def _q_bfs_depths(sf_dir: str):
    """Fixed-round synchronous BFS from node 0 over the quadratic skewed
    link graph (pipelines/pagerank.bfs_depths, 4 rounds); the oracle
    unrolls frontier/visited rounds as chained MATERIALIZED CTEs."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        bfs_depths,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    return bfs_depths(edges, source=0, n_rounds=4).to_pandas()


def _q_closeness(sf_dir: str):
    """Bounded-radius closeness centrality for 5 fixed seeds
    ((97*i) % n, i = 0..4) over the quadratic skewed link graph — ONE
    simultaneous multi-source BFS (pipelines/pagerank.
    multi_bfs_closeness, 4 rounds, shared edge materialization), exact
    integer micro-ratio; the oracle unrolls a per-seed frontier/visited
    CTE chain."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        multi_bfs_closeness,
        synthetic_edges,
    )

    edges, n = synthetic_edges(sf_dir)
    seeds = [(97 * i) % n for i in range(5)]
    return multi_bfs_closeness(edges, seeds, n_rounds=4).to_pandas()


def _q_reciprocity(sf_dir: str):
    """Edge reciprocity of the DIRECTED linear link graph, bucketed by
    src % 32: per bucket the count of distinct directed edges and of
    edges whose reverse also exists.  The pure linear rule is a
    permutation family with NO mutual pairs on this node count, so the
    graph also plants the REVERSE of every 5th source's k=1 edge —
    deterministic, reproduced by the oracle — making reciprocity
    nontrivial.  Distributed shape: distinct-edge
    groupby -> (lo, hi) pair groupby whose count IS the direction count
    (rows are distinct) -> mutual pairs emit one row per direction's
    source bucket; the driver sees only the 32-row histograms."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import link_targets

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = int(docs.count())

    def planted_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src, dst = link_targets(ids, n, quadratic=False)
        # planted reciprocal edges: reverse of the k=1 edge for every
        # 5th source (the linear rule alone has no mutual pairs here)
        fifth = ids[ids % 5 == 0]
        rsrc = link_targets(fifth, n, quadratic=False)[1][::3]
        src = np.concatenate([src, rsrc])
        dst = np.concatenate([dst, fifth])
        keep = src != dst
        return pa.table(
            {"src": pa.array(src[keep], pa.int64()),
             "dst": pa.array(dst[keep], pa.int64())}
        )

    edges = (docs.map_batches(planted_edges, batch_format="pyarrow")
             .groupby(["src", "dst"]).count()
             .select_columns(["src", "dst"])
             .materialize())

    def bucket_partial(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"bucket": pa.array(s % 32, pa.int64())})

    n_edges = (edges.map_batches(bucket_partial, batch_format="pyarrow")
               .groupby("bucket").count().to_pandas()
               .rename(columns={"count()": "n_edges"}))

    def pair_partial(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"lo": pa.array(np.minimum(s, d), pa.int64()),
                         "hi": pa.array(np.maximum(s, d), pa.int64())})

    def mutual_buckets(batch: pa.Table) -> pa.Table:
        nd = batch["count()"].to_numpy(zero_copy_only=False)
        lo = batch["lo"].to_numpy(zero_copy_only=False).astype(np.int64)
        hi = batch["hi"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = nd == 2  # rows are distinct directed edges: count == #dirs
        b = np.concatenate([lo[m] % 32, hi[m] % 32])
        return pa.table({"bucket": pa.array(b, pa.int64())})

    n_recip = (edges.map_batches(pair_partial, batch_format="pyarrow")
               .groupby(["lo", "hi"]).count()
               .map_batches(mutual_buckets, batch_format="pyarrow")
               .groupby("bucket").count().to_pandas()
               .rename(columns={"count()": "n_recip"}))
    if "bucket" not in n_recip.columns:  # graph with zero mutual pairs
        n_recip = pd.DataFrame({"bucket": pd.array([], dtype="int64"),
                                "n_recip": pd.array([], dtype="int64")})
    out = n_edges.merge(n_recip, on="bucket", how="left")
    out["n_recip"] = out["n_recip"].fillna(0).astype("int64")
    out["n_edges"] = out["n_edges"].astype("int64")
    out["bucket"] = out["bucket"].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def _q_permuterm(sf_dir: str):
    """Wildcard lookup through the PERMUTERM rotation index (build-time
    term-rotation explode sorted by rotation; a%b answered by ONE
    [b$a, b$a+1) prefix range scan with parquet pushdown); oracle is the
    SAME LIKE recompute as wildcard_terms, so the rotation lookup's
    soundness is hash-checked against the stream scan."""
    from nadry_search_engine_be_ray.pipelines.query import (
        wildcard_terms_permuterm,
    )

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    return wildcard_terms_permuterm(index_dir, _WILDCARDS)


def _q_clustering_coeff(sf_dir: str):
    """Per-node local clustering coefficient over the quadratic skewed
    link graph (pipelines/pagerank.clustering_coeff — degree-oriented
    wedge closing with per-triangle corner emission); the oracle counts
    each node's closed neighbor pairs with an adjacency self-join."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        clustering_coeff,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    return clustering_coeff(edges, k=20).to_pandas()


def _q_label_prop(sf_dir: str):
    """Fixed-round synchronous min-label community propagation over the
    quadratic skewed link graph (pipelines/pagerank.label_propagation_min,
    5 rounds); the oracle unrolls the same recurrence as MATERIALIZED
    CTE rounds and histograms the final labels."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        label_propagation_min,
        synthetic_edges,
    )

    edges, n = synthetic_edges(sf_dir)
    return label_propagation_min(edges, n, n_rounds=5).to_pandas()


def _label_prop_sql(rounds: int = 5) -> str:
    parts = ["""
        raw AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        e AS MATERIALIZED (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src <> dst
        )""", """
        adj AS MATERIALIZED (
            SELECT u AS a, v AS b FROM e UNION ALL SELECT v, u FROM e
        )""", """
        l0 AS MATERIALIZED (
            SELECT doc_id AS node, doc_id AS lab FROM documents
        )"""]
    for r in range(rounds):
        parts.append(f"""
        l{r + 1} AS MATERIALIZED (
            SELECT l.node,
                   least(l.lab, coalesce(min(ln.lab), l.lab)) AS lab
            FROM l{r} l
            LEFT JOIN adj ON adj.a = l.node
            LEFT JOIN l{r} ln ON ln.node = adj.b
            GROUP BY l.node, l.lab
        )""")
    return "WITH " + ",".join(parts) + f"""
        SELECT lab AS community, count(*) AS size
        FROM l{rounds} GROUP BY lab ORDER BY community
    """


def _q_assortativity(sf_dir: str):
    """Degree assortativity of the quadratic skewed link graph
    (pipelines/pagerank.degree_assortativity — integer edge-moment sums,
    one float division at the end); the oracle recomputes the same
    moments from a degree self-join."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        degree_assortativity,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    return degree_assortativity(edges).to_pandas()


def _q_scc_seeded(sf_dir: str):
    """Radius-bounded SCC of node 191 (pipelines/pagerank.scc_seeded): the
    forward-backward seed step over the DIRECTED quadratic link graph —
    nodes both forward- and backward-reachable within 4 hops; the oracle
    unrolls both directed BFS sweeps as chained MATERIALIZED CTEs and
    intersects them."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        scc_seeded,
        synthetic_edges,
    )

    edges, _ = synthetic_edges(sf_dir)
    return scc_seeded(edges, source=191, n_rounds=4)


def _scc_sql(rounds: int = 4) -> str:
    parts = ["""
        raw AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        e AS MATERIALIZED (
            SELECT DISTINCT src AS a, dst AS b FROM raw WHERE src <> dst
        )""", """
        fv0 AS MATERIALIZED (SELECT 191 AS node, 0 AS depth)""", """
        ff0 AS MATERIALIZED (SELECT 191 AS node)""", """
        bv0 AS MATERIALIZED (SELECT 191 AS node, 0 AS depth)""", """
        bf0 AS MATERIALIZED (SELECT 191 AS node)"""]
    for r in range(1, rounds + 1):
        parts.append(f"""
        ff{r} AS MATERIALIZED (
            SELECT DISTINCT e.b AS node
            FROM e JOIN ff{r - 1} f ON e.a = f.node
            WHERE e.b NOT IN (SELECT node FROM fv{r - 1})
        )""")
        parts.append(f"""
        fv{r} AS MATERIALIZED (
            SELECT node, depth FROM fv{r - 1}
            UNION ALL SELECT node, {r} AS depth FROM ff{r}
        )""")
        parts.append(f"""
        bf{r} AS MATERIALIZED (
            SELECT DISTINCT e.a AS node
            FROM e JOIN bf{r - 1} f ON e.b = f.node
            WHERE e.a NOT IN (SELECT node FROM bv{r - 1})
        )""")
        parts.append(f"""
        bv{r} AS MATERIALIZED (
            SELECT node, depth FROM bv{r - 1}
            UNION ALL SELECT node, {r} AS depth FROM bf{r}
        )""")
    return "WITH " + ",".join(parts) + f"""
        SELECT f.node, f.depth AS fwd_depth, b.depth AS bwd_depth
        FROM fv{rounds} f JOIN bv{rounds} b ON b.node = f.node
        ORDER BY f.node
    """


def _q_luby_mis(sf_dir: str):
    """Fixed-round deterministic Luby MIS (pipelines/pagerank.luby_mis,
    4 rounds, injective affine priorities) over the undirected quadratic
    link graph; the oracle unrolls identical join/exclude rounds."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        luby_mis,
        synthetic_edges,
    )

    edges, n = synthetic_edges(sf_dir)
    return luby_mis(edges, n_nodes=n, n_rounds=4)


def _luby_sql(rounds: int = 4) -> str:
    parts = ["""
        raw AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        e AS MATERIALIZED (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src <> dst
        )""", """
        adj AS MATERIALIZED (
            SELECT u AS a, v AS b FROM e UNION ALL SELECT v, u FROM e
        )""", """
        u0 AS MATERIALIZED (
            SELECT doc_id AS node,
                   (2654435761 * doc_id + 12345) % 2147483647 AS p
            FROM documents
        )"""]
    for r in range(1, rounds + 1):
        parts.append(f"""
        mx{r} AS MATERIALIZED (
            SELECT a.a AS node, max(ub.p) AS mx
            FROM adj a
            JOIN u{r - 1} un ON un.node = a.a
            JOIN u{r - 1} ub ON ub.node = a.b
            GROUP BY 1
        )""")
        parts.append(f"""
        m{r} AS MATERIALIZED (
            SELECT un.node FROM u{r - 1} un
            LEFT JOIN mx{r} x ON x.node = un.node
            WHERE un.p > COALESCE(x.mx, -1)
        )""")
        parts.append(f"""
        x{r} AS MATERIALIZED (
            SELECT DISTINCT a.b AS node
            FROM adj a
            JOIN m{r} m ON m.node = a.a
            JOIN u{r - 1} ub ON ub.node = a.b
            WHERE a.b NOT IN (SELECT node FROM m{r})
        )""")
        parts.append(f"""
        u{r} AS MATERIALIZED (
            SELECT node, p FROM u{r - 1}
            WHERE node NOT IN (SELECT node FROM m{r})
              AND node NOT IN (SELECT node FROM x{r})
        )""")
    sel = " UNION ALL ".join(
        [f"SELECT node, 'mis' AS status, {r} AS round FROM m{r} "
         f"UNION ALL SELECT node, 'excluded', {r} FROM x{r}"
         for r in range(1, rounds + 1)])
    return "WITH " + ",".join(parts) + f"""
        SELECT CAST(node AS BIGINT) AS node, status,
               CAST(round AS BIGINT) AS round
        FROM ({sel}) ORDER BY node
    """


def _q_sssp_fixed(sf_dir: str):
    """Fixed-round weighted SSSP (pipelines/pagerank.sssp_fixed,
    Bellman-Ford min-plus, 4 rounds) from node 191 over the directed
    quadratic graph with integer weights w = (src+dst)%7 + 1; the
    oracle unrolls relax/min rounds as MATERIALIZED CTEs."""
    import pyarrow as pa
    import ray.data

    from nadry_search_engine_be_ray.pipelines.pagerank import (
        link_targets,
        sssp_fixed,
    )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    n = int(docs.count())

    def weighted_edges(batch: pa.Table) -> pa.Table:
        src, dst = link_targets(
            batch["doc_id"].to_numpy(zero_copy_only=False), n)
        w = (src + dst) % 7 + 1
        return pa.table(
            {"src": pa.array(src, pa.int64()),
             "dst": pa.array(dst, pa.int64()),
             "w": pa.array(w, pa.int64())}
        )

    edges = docs.map_batches(weighted_edges, batch_format="pyarrow")
    out = sssp_fixed(edges, source=191, n_rounds=4)
    out["node"] = out["node"].astype("int64")
    out["dist"] = out["dist"].astype("int64")
    return out


def _sssp_sql(rounds: int = 4) -> str:
    parts = ["""
        e AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst,
                   (d.doc_id + (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents)) % 7 + 1 AS w
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        d0 AS MATERIALIZED (SELECT 191 AS node, 0 AS dist)"""]
    for r in range(1, rounds + 1):
        parts.append(f"""
        c{r} AS MATERIALIZED (
            SELECT e.dst AS node, min(d.dist + e.w) AS nd
            FROM e JOIN d{r - 1} d ON e.src = d.node
            GROUP BY 1
        )""")
        parts.append(f"""
        d{r} AS MATERIALIZED (
            SELECT node, min(dist) AS dist FROM (
                SELECT node, dist FROM d{r - 1}
                UNION ALL SELECT node, nd AS dist FROM c{r}
            ) GROUP BY node
        )""")
    return "WITH " + ",".join(parts) + f"""
        SELECT CAST(node AS BIGINT) AS node, CAST(dist AS BIGINT) AS dist
        FROM d{rounds} ORDER BY node
    """


def _bfs_sql(rounds: int = 4) -> str:
    parts = ["""
        raw AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        e0 AS MATERIALIZED (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src <> dst
        )""", """
        adj AS MATERIALIZED (
            SELECT u AS a, v AS b FROM e0
            UNION ALL SELECT v, u FROM e0
        )""", """
        v0 AS MATERIALIZED (SELECT 0 AS node, 0 AS depth)""", """
        f0 AS MATERIALIZED (SELECT 0 AS node)"""]
    for r in range(1, rounds + 1):
        parts.append(f"""
        f{r} AS MATERIALIZED (
            SELECT DISTINCT adj.b AS node
            FROM adj JOIN f{r - 1} f ON adj.a = f.node
            WHERE adj.b NOT IN (SELECT node FROM v{r - 1})
        )""")
        parts.append(f"""
        v{r} AS MATERIALIZED (
            SELECT node, depth FROM v{r - 1}
            UNION ALL SELECT node, {r} AS depth FROM f{r}
        )""")
    return "WITH " + ",".join(parts) + f"""
        SELECT node, depth FROM v{rounds} ORDER BY node
    """


def _closeness_sql(rounds: int = 4, n_seeds: int = 5) -> str:
    """Per-seed unrolled BFS chains (the _bfs_sql pattern, one chain per
    seed (97*i) %% n) folded to bounded-radius closeness; the integer
    micro-ratio (n_reached-1)*10^6 // sum_depth mirrors
    multi_bfs_closeness exactly."""
    parts = ["""
        raw AS MATERIALIZED (
            SELECT d.doc_id AS src,
                   (d.doc_id * d.doc_id * 31 + k * 97) %
                       (SELECT count(*) FROM documents) AS dst
            FROM documents d
            CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        )""", """
        e0 AS MATERIALIZED (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src <> dst
        )""", """
        adj AS MATERIALIZED (
            SELECT u AS a, v AS b FROM e0
            UNION ALL SELECT v, u FROM e0
        )"""]
    for i in range(n_seeds):
        seed = f"(97 * {i}) % (SELECT count(*) FROM documents)"
        parts.append(f"""
        s{i}v0 AS MATERIALIZED (SELECT {seed} AS node, 0 AS depth)""")
        parts.append(f"""
        s{i}f0 AS MATERIALIZED (SELECT node FROM s{i}v0)""")
        for r in range(1, rounds + 1):
            parts.append(f"""
        s{i}f{r} AS MATERIALIZED (
            SELECT DISTINCT adj.b AS node
            FROM adj JOIN s{i}f{r - 1} f ON adj.a = f.node
            WHERE adj.b NOT IN (SELECT node FROM s{i}v{r - 1})
        )""")
            parts.append(f"""
        s{i}v{r} AS MATERIALIZED (
            SELECT node, depth FROM s{i}v{r - 1}
            UNION ALL SELECT node, {r} AS depth FROM s{i}f{r}
        )""")
    selects = []
    for i in range(n_seeds):
        seed = f"(97 * {i}) % (SELECT count(*) FROM documents)"
        selects.append(f"""
        SELECT CAST({seed} AS BIGINT) AS seed,
               CAST(count(*) AS BIGINT) AS n_reached,
               CAST(sum(depth) AS BIGINT) AS sum_depth,
               CAST(CASE WHEN sum(depth) > 0
                    THEN (count(*) - 1) * 1000000 // sum(depth)
                    ELSE 0 END AS BIGINT) AS closeness_micro
        FROM s{i}v{rounds}""")
    return ("WITH " + ",".join(parts)
            + " SELECT * FROM (" + " UNION ALL ".join(selects)
            + ") ORDER BY seed")


def _q_ppr_scores(sf_dir: str):
    """Personalized PageRank (random walk with restart at node 0,
    Haveliwala 2002; 5 fixed iterations) over the quadratic skewed link
    graph — pipelines/pagerank.pagerank_power_int(restart_node=0); the
    oracle unrolls the same recurrence with the indicator teleport."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        pagerank_power_int,
        synthetic_edges,
    )

    edges, n = synthetic_edges(sf_dir)
    out = pagerank_power_int(edges, n, restart_node=0).to_pandas()
    # drop never-visited nodes so the result is reach-sized, not n-sized
    return out[out["rank"] > 0].reset_index(drop=True)


def _ppr_sql(n_iter: int = 5, damping: float = 0.85) -> str:
    iters = []
    prev = "r0"
    for k in range(1, n_iter + 1):
        iters.append(f"""
            r{k} AS MATERIALIZED (
                SELECT d.doc_id AS node,
                       (1 - {damping}) * (CASE WHEN d.doc_id = 0
                                          THEN 1.0 ELSE 0.0 END)
                       + {damping} * coalesce(sum(rp.rank / outd.od), 0)
                           AS rank
                FROM documents d
                LEFT JOIN e ON e.dst = d.doc_id
                LEFT JOIN outd ON outd.src = e.src
                LEFT JOIN {prev} rp ON rp.node = e.src
                GROUP BY d.doc_id
            )""")
        prev = f"r{k}"
    return f"""
        WITH nn AS (SELECT count(*) AS cnt FROM documents),
        e AS MATERIALIZED (
            SELECT doc_id AS src,
                   (doc_id * doc_id * 31 + k * 97) % (SELECT cnt FROM nn)
                       AS dst
            FROM documents CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        ),
        outd AS MATERIALIZED (SELECT src, count(*) AS od FROM e GROUP BY src),
        r0 AS (SELECT doc_id AS node,
                      CASE WHEN doc_id = 0 THEN 1.0 ELSE 0.0 END AS rank
               FROM documents),
        {','.join(iters)}
        SELECT node, round(rank, 9) AS rank FROM {prev}
        WHERE rank > 0 ORDER BY node
    """


def _q_pagerank_power(sf_dir: str):
    """Textbook fixed-iteration PageRank over a deterministic synthetic link
    graph on the documents table (doc i -> (31*i + 97*k) mod n, k=1..3) —
    the SQL-checkable complement to the reference-quirk `pagerank` query
    (the oracle unrolls the same 5 power iterations as chained CTEs)."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        pagerank_power_int,
        synthetic_edges,
    )

    edges, n = synthetic_edges(sf_dir, quadratic=False)
    return (
        pagerank_power_int(edges, n, damping=0.85, n_iter=5)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )


def _q_hits(sf_dir: str):
    """Kleinberg HITS (hubs & authorities, 5 fixed L2-normalized
    iterations) over a deterministic synthetic link graph on the
    documents table — QUADRATIC dst rule (i*i*31 + 97k mod n) so
    in-degrees are skewed and the hub/authority fixpoint is
    non-trivial (the pagerank_power linear rule is a union of three
    bijections, which makes HITS converge to the uniform vector); the
    oracle unrolls the iterations as chained materialized CTEs."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        hits_int,
        synthetic_edges,
    )

    edges, n = synthetic_edges(sf_dir)
    return (
        hits_int(edges, n, n_iter=5)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )


def _hits_sql(n_iter: int = 5) -> str:
    """Unrolled-CTE HITS oracle: same synthetic edge rule as
    _q_pagerank_power; per iteration authority = L2-normalized in-neighbor
    hub sum, then hub = L2-normalized out-neighbor authority sum."""
    # every CTE is MATERIALIZED: DuckDB inlines CTEs by default, and each
    # normalized level here is referenced 2-3 times, so inlining would
    # re-evaluate the whole chain exponentially across 5 iterations
    iters = []
    prev_h = "h0"
    for k in range(1, n_iter + 1):
        iters.append(f"""
            araw{k} AS MATERIALIZED (
                SELECT d.doc_id AS node, coalesce(sum(hp.h), 0) AS raw
                FROM documents d
                LEFT JOIN e ON e.dst = d.doc_id
                LEFT JOIN {prev_h} hp ON hp.node = e.src
                GROUP BY d.doc_id
            ),
            a{k} AS MATERIALIZED (
                SELECT node, raw / sqrt((SELECT sum(raw * raw)
                                         FROM araw{k})) AS a
                FROM araw{k}
            ),
            hraw{k} AS MATERIALIZED (
                SELECT d.doc_id AS node, coalesce(sum(ap.a), 0) AS raw
                FROM documents d
                LEFT JOIN e ON e.src = d.doc_id
                LEFT JOIN a{k} ap ON ap.node = e.dst
                GROUP BY d.doc_id
            ),
            h{k} AS MATERIALIZED (
                SELECT node, raw / sqrt((SELECT sum(raw * raw)
                                         FROM hraw{k})) AS h
                FROM hraw{k}
            )""")
        prev_h = f"h{k}"
    return f"""
        WITH nn AS (SELECT count(*) AS cnt FROM documents),
        e AS MATERIALIZED (
            SELECT doc_id AS src,
                   (doc_id * doc_id * 31 + k * 97)
                       % (SELECT cnt FROM nn) AS dst
            FROM documents CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        ),
        h0 AS (SELECT doc_id AS node, 1.0 AS h FROM documents),
        {','.join(iters)}
        SELECT h{n_iter}.node, round(h{n_iter}.h, 9) AS hub,
               round(a{n_iter}.a, 9) AS authority
        FROM h{n_iter} JOIN a{n_iter} USING (node)
        ORDER BY node
    """


_BLOOM_M, _BLOOM_K = 1 << 17, 3


def _q_bloom_semi_join(sf_dir: str):
    """Orders that have lineitems, via the scale-shaped semi join: Bloom
    prefilter (m-bit broadcast bitmap over l_orderkey) + exact verify.
    False positives are removed by the verify, so the oracle is the plain
    SQL semi join (`stages/bloom.py`)."""
    import ray.data

    from nadry_search_engine_be_ray.stages.bloom import bloom_semi_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    )
    joined, _ = bloom_semi_join(
        orders, li, "o_orderkey", "l_orderkey", m=_BLOOM_M, k=_BLOOM_K
    )
    return (
        joined.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    )


def _q_bloom_stats(sf_dir: str):
    """Observability row for the Bloom prefilter: set-bit count, candidate
    count (bloom-passing orders), exact member count, false positives.
    The DuckDB oracle recomputes the whole BITMAP from the closed-form
    affine hashes (key mod 2^31-1 arithmetic) — no dumped state."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data

    from nadry_search_engine_be_ray.stages.bloom import (
        bloom_build,
        bloom_filter_ds,
    )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    )
    bitmap = bloom_build(li, "l_orderkey", m=_BLOOM_M, k=_BLOOM_K)
    cand = bloom_filter_ds(orders, "o_orderkey", ray.put(bitmap), _BLOOM_K)
    n_cand = int(cand.count())
    rkeys = np.unique(
        li.to_pandas()["l_orderkey"].to_numpy(np.int64)
    )
    okeys = orders.to_pandas()["o_orderkey"].to_numpy(np.int64)
    n_exact = int(np.isin(okeys, rkeys).sum())
    return pd.DataFrame(
        {
            "m": pd.Series([_BLOOM_M], dtype="int64"),
            "k": pd.Series([_BLOOM_K], dtype="int64"),
            "n_set_bits": pd.Series([int(bitmap.sum())], dtype="int64"),
            "n_candidates": pd.Series([n_cand], dtype="int64"),
            "n_exact": pd.Series([n_exact], dtype="int64"),
            "n_false_positives": pd.Series(
                [n_cand - n_exact], dtype="int64"
            ),
        }
    )


def _q_pagerank_quirk(sf_dir: str):
    """Fixed-iteration variant of the AS-IMPLEMENTED reference recurrence
    (``nadry/ranker/PageRank.java:44-81``: divisor = contributor's
    IN-degree, in-linkless contributors skipped, node set = targets) over
    the same synthetic link graph as `pagerank_power` — the SQL-checkable
    witness for the quirk arithmetic (the converge-to-tolerance `pagerank`
    stays rows-only for its stop rule only)."""
    from nadry_search_engine_be_ray.pipelines.pagerank import (
        pagerank_quirk_int,
        synthetic_edges,
    )

    edges, n = synthetic_edges(sf_dir, quadratic=False)
    return (
        pagerank_quirk_int(edges, n, damping=0.85, n_iter=5)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )


def _q_minhash_pairs(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import minhash_lsh_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    out = _typed_empty(out, {"a": "int64", "b": "int64", "jaccard": "float64"})
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _q_simhash_pairs(sf_dir: str):
    """SimHash near-dup over documents AUGMENTED with five planted exact
    duplicates (doc_id + 1,000,000, identical text -> hamming-0 pairs), so
    the green hash is non-trivial on random testdata.  The 64-bit simhash
    itself is not SQL-expressible, so the per-doc signature/band table is
    DUMPED to parquet and the oracle independently recomputes everything
    DOWNSTREAM of the hash in DuckDB — band-bucket candidate generation,
    the hamming verify (bit_count(xor(...))), and the cross-band pair
    dedup (the dumped-token-table trick, same as index_term_df_real)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import SimHashBatch, simhash_pairs

    base = pads.dataset(f"{sf_dir}/documents.parquet").to_table(
        columns=["doc_id", "text"]
    )
    ids = base["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids)[:5]
    planted = pa.table(
        {
            "doc_id": pa.array(ids[order] + 1_000_000, pa.int64()),
            "text": base["text"].combine_chunks().take(pa.array(order)),
        }
    )
    aug = pa.concat_tables([base, planted])
    os.makedirs(_SIMHASH_DUMP_DIR, exist_ok=True)
    pq.write_table(SimHashBatch()(aug), f"{_SIMHASH_DUMP_DIR}/sig.parquet")
    out = simhash_pairs(ray.data.from_arrow(aug), max_hamming=3).to_pandas()
    return _typed_empty(out, {"a": "int64", "b": "int64", "hamming": "int32"})


def _typed_empty(df, cols: dict):
    """A zero-row Dataset can lose its schema through groupby; rebuild the
    typed empty frame so the driver's schema compare still matches."""
    import pandas as pd

    if len(df) == 0 and list(df.columns) != list(cols):
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return df


def _q_embedding_near_dup(sf_dir: str):
    """Embedding cosine near-dup over the testdata vectors AUGMENTED with
    five deterministic planted near-duplicates (vec_id + 1,000,000 = the
    original with its first coordinate scaled by exactly 1.25 — an exact
    binary scaling, so the SQL oracle reproduces the planted vectors
    bitwise).  Random testdata vectors have max cosine ~0.5, so without the
    plants both sides agree on an EMPTY pair set — the plants make the
    green hash non-trivial (5 expected pairs, cosine ~0.9999, LSH band-miss
    probability < 1e-30)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import embedding_near_dup_pairs

    src = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"]
    )
    ids = src["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = np.array(src["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids)[:5]
    planted = mat[order].copy()
    planted[:, 0] *= 1.25
    dim = mat.shape[1]

    def to_f64(vals: np.ndarray, vid: np.ndarray) -> pa.Table:
        return pa.table(
            {
                "vec_id": pa.array(vid, pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(vals.reshape(-1), pa.float64()), dim
                ),
            }
        )

    aug = ray.data.from_arrow(
        pa.concat_tables(
            [to_f64(mat, ids), to_f64(planted, ids[order] + 1_000_000)]
        )
    )
    out = embedding_near_dup_pairs(aug, threshold=0.95).to_pandas()
    out = _typed_empty(out, {"a": "int64", "b": "int64", "cosine": "float64"})
    out["cosine"] = out["cosine"].round(6)
    return out


def _q_fingerprint_sha(sf_dir: str):
    import ray.data

    from nadry_search_engine_be_ray.stages.textstats import fingerprint_sha_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(fingerprint_sha_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_near_dup_clusters(sf_dir: str, method: str = "propagate"):
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import (
        minhash_lsh_pairs,
        near_dup_clusters,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    out = near_dup_clusters(pairs, method=method).to_pandas()
    out = _typed_empty(out, {"node": "int64", "cluster": "int64"})
    return out.sort_values("node").reset_index(drop=True)


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: the 10 lowest-doc_id documents form the
    eval set; the train side is every other doc PLUS five planted
    contaminated copies (doc_id + 2,000,000 = the text of the five lowest
    eval docs verbatim), so the flagged set is non-trivially non-empty.
    Grams are strings on both sides — the SQL oracle rebuilds the 8-gram
    sets from scratch with regexp_extract_all + list slices."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.stages.curation import decontaminate

    docs = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    bench = docs.slice(0, 10)
    rest = docs.slice(10)
    planted = pa.table(
        {
            "doc_id": pa.compute.add(bench["doc_id"].slice(0, 5), 2_000_000),
            "text": bench["text"].combine_chunks().slice(0, 5),
        }
    )
    train = pa.concat_tables([rest, planted])
    out = decontaminate(
        ray.data.from_arrow(train), bench["text"].to_pylist(), n=8
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_chunk_windows(sf_dir: str):
    """Token-window chunking (window=32, stride=16) over every document."""
    import ray.data

    from nadry_search_engine_be_ray.stages.curation import chunk_windows

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = chunk_windows(ds, window=32, stride=16).to_pandas()
    return out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


def _q_redact_pii(sf_dir: str):
    """PII redaction over documents AUGMENTED with five planted docs
    (doc_id + 3,000,000) carrying a literal email + phone, so both rewrite
    paths are exercised non-trivially."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.stages.curation import redact_pii

    docs = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    head = docs.slice(0, 5)
    planted = pa.table(
        {
            "doc_id": pa.compute.add(head["doc_id"], 3_000_000),
            "text": pa.array(
                [
                    t + " contact john.doe@example.com or 555-123-4567 now"
                    for t in head["text"].to_pylist()
                ],
                pa.string(),
            ),
        }
    )
    aug = pa.concat_tables([docs, planted])
    out = redact_pii(ray.data.from_arrow(aug)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_C4_JUNK_LINES = [
    "too short line",
    "please enable javascript to continue viewing",
    "div style width height { color red }",
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed",
    "this is a perfectly ordinary content sentence kept by the filter",
]

_PARA_SHARED = "this exact shared paragraph is planted verbatim in several documents"


def _q_c4_clean(sf_dir: str):
    """C4-style line cleaning over documents AUGMENTED with five planted
    multi-line docs (doc_id + 3,000,000) whose extra lines trip each filter
    rule (short / javascript / brace / lorem-ipsum) plus one keeper line —
    the base corpus has no newlines, so the plant makes every rule path
    non-trivial."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.stages.curation import c4_clean

    docs = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    head = docs.slice(0, 5)
    planted = pa.table(
        {
            "doc_id": pa.compute.add(head["doc_id"], 3_000_000),
            "text": pa.array(
                [
                    t + "\n" + "\n".join(_C4_JUNK_LINES)
                    for t in head["text"].to_pylist()
                ],
                pa.string(),
            ),
        }
    )
    aug = pa.concat_tables([docs, planted])
    out = c4_clean(ray.data.from_arrow(aug)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_paragraph_dedup(sf_dir: str):
    """Corpus-wide exact paragraph dedup over documents AUGMENTED with five
    planted two-paragraph docs (doc_id + 3,000,000): paragraph 1 duplicates
    the base doc's whole text (base keeps, plant loses) and paragraph 2 is
    one shared sentence kept only by the smallest planted doc_id."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.stages.curation import paragraph_dedup

    docs = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    head = docs.slice(0, 5)
    planted = pa.table(
        {
            "doc_id": pa.compute.add(head["doc_id"], 3_000_000),
            "text": pa.array(
                [t + "\n" + _PARA_SHARED for t in head["text"].to_pylist()],
                pa.string(),
            ),
        }
    )
    aug = pa.concat_tables([docs, planted])
    out = paragraph_dedup(ray.data.from_arrow(aug)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_repetition_scores(sf_dir: str):
    """Gopher-style repetition signals per document."""
    import ray.data

    from nadry_search_engine_be_ray.stages.curation import repetition_scores

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = repetition_scores(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_pack_sequences(sf_dir: str):
    """Sequence packing (context=128) over documents; tiny part_docs so the
    driver-scale corpus still exercises the multi-part prefix-sum path."""
    import ray.data

    from nadry_search_engine_be_ray.stages.curation import pack_sequences

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = pack_sequences(ds, context=128, part_docs=64).to_pandas()
    return out.sort_values(["seq_id", "doc_id"]).reset_index(drop=True)


def _q_split_train_val(sf_dir: str):
    """Deterministic 90/5/5 split assignment from the salted sha256 bucket
    of doc_id; the SQL oracle recomputes the identical hash with DuckDB's
    sha256() hex prefix."""
    import ray.data

    from nadry_search_engine_be_ray.stages.sampling import assign_splits

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    out = assign_splits(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_stratified_sample(sf_dir: str):
    """Per-language deterministic subsampling (en 50 %, de 100 %, zh 25 %,
    default 10 %)."""
    import ray.data

    from nadry_search_engine_be_ray.stages.sampling import stratified_sample

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    out = stratified_sample(
        ds, "lang", {"en": 0.5, "de": 1.0, "zh": 0.25}, default_frac=0.1
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_domain_cap(sf_dir: str):
    """Per-source cap (first 7 docs by doc_id per source) via the
    partial-then-groupby head-per-key exchange."""
    import ray.data

    from nadry_search_engine_be_ray.stages.sampling import cap_per_key

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    out = cap_per_key(ds, "source", 7).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_temperature_mix(sf_dir: str):
    """Temperature-scaled (alpha=0.5) language mixing over the skewed
    lang column (stages/sampling.temperature_mix): target counts
    proportional to sqrt(n_lang), rows drawn per lang in salted-hash
    order; the oracle recomputes targets with SQL sqrt (correctly
    rounded in both engines) and replays the rank selection."""
    import ray.data

    from nadry_search_engine_be_ray.stages.sampling import temperature_mix

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    out = temperature_mix(ds, total=200, key="lang").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_quota_sample(sf_dir: str):
    """Mixture quotas per source (src0:10, src1:5, src2:3, others 0),
    drawn in salted-hash order."""
    import ray.data

    from nadry_search_engine_be_ray.stages.sampling import quota_sample

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    out = quota_sample(
        ds, "source", {"src0": 10, "src1": 5, "src2": 3}, default_quota=0
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_shuffle_shards(sf_dir: str):
    """Seeded global shuffle into 8 training shards with dense within-shard
    positions."""
    import ray.data

    from nadry_search_engine_be_ray.stages.sampling import shuffle_shards

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    out = shuffle_shards(ds, n_shards=8).to_pandas()
    return out.sort_values(["shard", "pos"]).reset_index(drop=True)


def _q_lr_quality_scores(sf_dir: str):
    """Distributed logistic-regression quality classifier: train on the
    embeddings table (weak label y = label < 5), score every vector.  The
    iterative fit isn't SQL-expressible, so the trained WEIGHTS are dumped
    and the oracle independently recomputes the sigmoid scoring + 0.5
    decision in DuckDB."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.classifier import lr_fit, lr_predict

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )

    def add_y(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "y", pc.cast(pc.less(batch["label"], 5), pa.int64())
        )

    labeled = ds.map_batches(add_y, batch_format="pyarrow")
    w = lr_fit(labeled, label_col="y", n_iters=30, lr=1.0)
    os.makedirs(_LR_DUMP_DIR, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "w": pa.array([list(w[:-1])], pa.list_(pa.float64())),
                "b": pa.array([float(w[-1])], pa.float64()),
            }
        ),
        f"{_LR_DUMP_DIR}/weights.parquet",
    )
    out = (
        lr_predict(ds, w)
        .select_columns(["vec_id", "score", "pred"])
        .to_pandas()
    )
    return out.sort_values("vec_id").reset_index(drop=True)


def _q_bpe_pair_counts(sf_dir: str):
    """Top-50 adjacent intra-word character pairs over every word
    occurrence (the first BPE training iteration's statistics; ties broken
    (count DESC, a, b) on both sides)."""
    import ray.data

    from nadry_search_engine_be_ray.stages.bpe import pair_counts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    out = pair_counts(ds, top_k=50).to_pandas()
    return out.reset_index(drop=True)


def _q_dup_spans(sf_dir: str):
    """Exact-substring duplicate spans (8-gram) over documents AUGMENTED
    with planted duplication: full copies of the three lowest docs
    (doc_id + 4,000,000) and one token-slice excerpt (tokens 5..24 of the
    lowest doc, doc_id 5,000,000).  The SQL oracle rebuilds the identical
    augmented corpus (token slices re-join with single spaces, so
    re-tokenization is exact) and recomputes gram explode → cross-doc dup
    filter → gaps-and-islands span merge independently."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from nadry_search_engine_be_ray.stages.dedup import _WORD, dup_spans

    docs = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    head = docs.slice(0, 3)
    toks0 = _WORD.findall((head["text"][0].as_py() or "").lower())
    excerpt = " ".join(toks0[5:25])
    planted = pa.table(
        {
            "doc_id": pa.array(
                [i + 4_000_000 for i in head["doc_id"].to_pylist()]
                + [5_000_000],
                pa.int64(),
            ),
            "text": pa.array(
                head["text"].to_pylist() + [excerpt], pa.string()
            ),
        }
    )
    aug = pa.concat_tables([docs, planted])
    out = dup_spans(ray.data.from_arrow(aug), n=8).to_pandas()
    out = _typed_empty(
        out,
        {
            "doc_id": "int64",
            "span_start": "int64",
            "span_end": "int64",
            "n_dup_grams": "int64",
        },
    )
    return out.sort_values(["doc_id", "span_start"]).reset_index(drop=True)


def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd k-means (k=8, 5 iters, cosine) over the embeddings
    table.  The iterative fit isn't SQL-expressible, so the FINAL centroid
    matrix is DUMPED to parquet and the oracle independently recomputes the
    nearest-centroid assignment in DuckDB (list_cosine_similarity rank,
    ties → lowest cluster id — numpy argmax parity)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.clustering import (
        kmeans_assign,
        kmeans_fit,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cent, normed = kmeans_fit(ds, k=8, n_iters=5)
    os.makedirs(_KM_DUMP_DIR, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "cluster_id": pa.array(range(len(cent)), pa.int64()),
                "v": pa.array([r for r in cent], pa.list_(pa.float64())),
            }
        ),
        f"{_KM_DUMP_DIR}/centroids.parquet",
    )
    out = (
        kmeans_assign(normed, cent, normalized=True)
        .select_columns(["vec_id", "cluster"])
        .to_pandas()
    )
    return out.sort_values("vec_id").reset_index(drop=True)


def _q_semdedup(sf_dir: str):
    """SemDeDup (k-means then within-cluster cosine near-dup) over the
    embeddings AUGMENTED with five planted near-duplicates (vec_id +
    1,000,000 = the original with its first coordinate scaled by exactly
    1.25 — same plant as embedding_near_dup, SQL-reproducible bitwise).
    The k-means assignment is DUMPED; the oracle recomputes the
    within-cluster pair join + cosine threshold independently in DuckDB."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.clustering import (
        kmeans_assign,
        kmeans_fit,
        semdedup_pairs,
    )

    src = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"]
    )
    ids = src["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = np.array(src["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids)[:5]
    planted = mat[order].copy()
    planted[:, 0] *= 1.25
    dim = mat.shape[1]

    def to_f64(vals: np.ndarray, vid: np.ndarray) -> pa.Table:
        return pa.table(
            {
                "vec_id": pa.array(vid, pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(vals.reshape(-1), pa.float64()), dim
                ),
            }
        )

    aug = ray.data.from_arrow(
        pa.concat_tables(
            [to_f64(mat, ids), to_f64(planted, ids[order] + 1_000_000)]
        )
    )
    cent, normed = kmeans_fit(aug, k=8, n_iters=5)
    assigned = kmeans_assign(normed, cent, normalized=True)
    os.makedirs(_SD_DUMP_DIR, exist_ok=True)
    pq.write_table(
        pa.Table.from_pandas(
            assigned.select_columns(["vec_id", "cluster"]).to_pandas(),
            preserve_index=False,
        ),
        f"{_SD_DUMP_DIR}/assign.parquet",
    )
    out = semdedup_pairs(aug, threshold=0.95, centroids=cent).to_pandas()
    out = _typed_empty(
        out, {"a": "int64", "b": "int64", "cluster": "int64", "cosine": "float64"}
    )
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _q_fingerprints(sf_dir: str):
    """Winnowed Rabin-Karp document fingerprints.  The tokenizer regex +
    crc32 token hashing aren't SQL-expressible, so the exploded
    (doc_id, pos, token_hash) stream is DUMPED to parquet and the oracle
    independently recomputes everything DOWNSTREAM in DuckDB: the k=5
    polynomial k-gram hash (HUGEINT mod-2^64 arithmetic over lead()
    windows), the w=8 winnowing sliding minima, the distinct-min XOR fold,
    and the short-doc list_reduce fallback."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.textstats import (
        _WORD,
        _token_hashes,
        fingerprint_batch,
    )

    base = pads.dataset(f"{sf_dir}/documents.parquet").to_table(
        columns=["doc_id", "text"]
    )
    d_o, p_o, h_o = [], [], []
    for did, text in zip(base["doc_id"].to_pylist(), base["text"].to_pylist()):
        th = _token_hashes(_WORD.findall((text or "").lower()))
        d_o += [did] * len(th)
        p_o += list(range(len(th)))
        h_o += [int(x) for x in th]
    os.makedirs(_FP_DUMP_DIR, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(d_o, pa.int64()),
                "pos": pa.array(p_o, pa.int64()),
                "th": pa.array(np.array(h_o, dtype=np.uint64), pa.uint64()),
            }
        ),
        f"{_FP_DUMP_DIR}/tok.parquet",
    )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(fingerprint_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_ann_lsh(sf_dir: str):
    """LSH ANN top-k.  The random-hyperplane bucketing isn't SQL-
    expressible, so the (vec_id, bucket) assignment and per-query probe
    sets are DUMPED (recomputed on the driver with the SAME seeded
    LshIndexBatch stage + probe rule the distributed path constructs) and
    the oracle independently recomputes candidate selection, cosine, and
    the (-cosine, vec_id) top-k ranking in DuckDB."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.similarity import (
        LshIndexBatch,
        _normalize,
        lsh_probe_lists,
        lsh_topk,
    )

    emb_tbl = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table()
    head = emb_tbl.to_pandas().sort_values("vec_id").head(3)
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    qv_ids = head["vec_id"].to_numpy()

    n_planes, n_probes = 6, 16
    stage = LshIndexBatch(q.shape[1], n_planes=n_planes, seed=11)
    assigned = stage(emb_tbl)
    probe_q, probe_b = [], []
    for qi, near in enumerate(
        lsh_probe_lists(_normalize(q), stage.planes, n_planes, n_probes)
    ):
        probe_q += [int(qv_ids[qi])] * len(near)
        probe_b += near
    os.makedirs(_ANN_LSH_DUMP_DIR, exist_ok=True)
    pq.write_table(
        assigned.select(["vec_id", "bucket"]),
        f"{_ANN_LSH_DUMP_DIR}/assign.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "query_id": pa.array(probe_q, pa.int64()),
                "bucket": pa.array(probe_b, pa.int64()),
            }
        ),
        f"{_ANN_LSH_DUMP_DIR}/probes.parquet",
    )

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = lsh_topk(emb, q, k=5, n_planes=n_planes, n_probes=n_probes).to_pandas()
    out["query_id"] = qv_ids[out["query_id"].to_numpy()]
    out["cosine"] = out["cosine"].round(6)
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _q_ann_ivf(sf_dir: str):
    """IVF ANN top-k.  The k-means coarse quantizer isn't SQL-expressible,
    so the quantizer is trained ONCE on the driver, its (vec_id, ivf_list)
    assignment and per-query probed lists are DUMPED, the SAME centroids
    are passed to the distributed path, and the oracle independently
    recomputes candidate selection + cosine + top-k ranking in DuckDB."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.similarity import (
        IvfAssignBatch,
        _normalize,
        ivf_probe_lists,
        ivf_topk,
        train_ivf_centroids,
    )

    emb_tbl = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table()
    head = emb_tbl.to_pandas().sort_values("vec_id").head(3)
    q = np.stack(head["embedding"].to_numpy()).astype(np.float64)
    qv_ids = head["vec_id"].to_numpy()

    n_lists, n_probes = 8, 3
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cent = train_ivf_centroids(emb, n_lists=n_lists, seed=13)
    assigned = IvfAssignBatch(cent)(emb_tbl)
    probe_q, probe_l = [], []
    for qi, near in enumerate(ivf_probe_lists(_normalize(q), cent, n_probes)):
        probe_q += [int(qv_ids[qi])] * len(near)
        probe_l += near
    os.makedirs(_ANN_IVF_DUMP_DIR, exist_ok=True)
    pq.write_table(
        assigned.select(["vec_id", "ivf_list"]),
        f"{_ANN_IVF_DUMP_DIR}/assign.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "query_id": pa.array(probe_q, pa.int64()),
                "ivf_list": pa.array(probe_l, pa.int64()),
            }
        ),
        f"{_ANN_IVF_DUMP_DIR}/probes.parquet",
    )

    out = ivf_topk(
        emb, q, k=5, n_lists=n_lists, n_probes=n_probes, centroids=cent
    ).to_pandas()
    out["query_id"] = qv_ids[out["query_id"].to_numpy()]
    out["cosine"] = out["cosine"].round(6)
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _q_multimodal(sf_dir: str):
    """Image decode + grid-luminance features (SQL-checked via the
    dumped-pixel trick: the PPM parse + nearest resize aren't SQL, so the
    resized RGB pixels are DUMPED and DuckDB independently recomputes the
    gray conversion and the 4x4 grid means; features are exploded to
    (feat_idx, value) rows so no list-typed column rides the compare)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.multimodal import (
        decode_images,
        decode_ppm,
        resize_nearest,
        synth_media_table,
    )

    media_tbl = synth_media_table(64, "image")
    m_o, y_o, x_o, r_o, g_o, b_o = [], [], [], [], [], []
    meta_m, meta_w, meta_h = [], [], []
    for mid, payload in zip(
        media_tbl["media_id"].to_pylist(), media_tbl["payload"].to_pylist()
    ):
        img = decode_ppm(payload)
        resized = resize_nearest(img, 64, 64)
        meta_m.append(mid)
        meta_w.append(img.shape[1])
        meta_h.append(img.shape[0])
        yy, xx = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        m_o.append(np.full(64 * 64, mid, dtype=np.int64))
        y_o.append(yy.reshape(-1))
        x_o.append(xx.reshape(-1))
        r_o.append(resized[:, :, 0].reshape(-1).astype(np.int32))
        g_o.append(resized[:, :, 1].reshape(-1).astype(np.int32))
        b_o.append(resized[:, :, 2].reshape(-1).astype(np.int32))
    os.makedirs(_MM_DUMP_DIR, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "media_id": pa.array(np.concatenate(m_o), pa.int64()),
                "y": pa.array(np.concatenate(y_o).astype(np.int64), pa.int64()),
                "x": pa.array(np.concatenate(x_o).astype(np.int64), pa.int64()),
                "r": pa.array(np.concatenate(r_o), pa.int32()),
                "g": pa.array(np.concatenate(g_o), pa.int32()),
                "b": pa.array(np.concatenate(b_o), pa.int32()),
            }
        ),
        f"{_MM_DUMP_DIR}/pixels.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "media_id": pa.array(meta_m, pa.int64()),
                "width": pa.array(meta_w, pa.int32()),
                "height": pa.array(meta_h, pa.int32()),
            }
        ),
        f"{_MM_DUMP_DIR}/image_meta.parquet",
    )

    media = ray.data.from_arrow(media_tbl)
    out = decode_images(media, concurrency=2, batch_size=16).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    exploded = out.explode("features", ignore_index=True)
    exploded["feat_idx"] = exploded.groupby("media_id").cumcount().astype("int64")
    exploded["value"] = exploded["features"].astype("float64").round(6)
    return exploded[["media_id", "width", "height", "feat_idx", "value"]]


def _q_multimodal_frames(sf_dir: str):
    """Video frame sampling (SQL-checked): the NVID container parse isn't
    SQL, so every SOURCE frame's bytes + per-video (nf, fps) are DUMPED and
    DuckDB independently recomputes the sampling arithmetic (src index,
    truncated timestamp) and joins the sampled frames back."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.multimodal import (
        _NVID_MAGIC,
        sample_frames,
        synth_media_table,
    )
    import struct

    media_tbl = synth_media_table(32, "video")
    fm, fs, fb = [], [], []
    meta_m, meta_nf, meta_fps = [], [], []
    for mid, payload in zip(
        media_tbl["media_id"].to_pylist(), media_tbl["payload"].to_pylist()
    ):
        assert payload[:4] == _NVID_MAGIC
        w, h, nf, fps = struct.unpack_from("<HHHH", payload, 4)
        frame_bytes = w * h * 3
        body = payload[12:]
        meta_m.append(mid)
        meta_nf.append(nf)
        meta_fps.append(fps)
        for s in range(nf):
            fm.append(mid)
            fs.append(s)
            fb.append(body[s * frame_bytes : (s + 1) * frame_bytes])
    os.makedirs(_MM_DUMP_DIR, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "media_id": pa.array(fm, pa.int64()),
                "src": pa.array(fs, pa.int64()),
                "frame_bytes": pa.array(fb, pa.binary()),
            }
        ),
        f"{_MM_DUMP_DIR}/frames.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "media_id": pa.array(meta_m, pa.int64()),
                "nf": pa.array(meta_nf, pa.int64()),
                "fps": pa.array(meta_fps, pa.int64()),
            }
        ),
        f"{_MM_DUMP_DIR}/video_meta.parquet",
    )

    media = ray.data.from_arrow(media_tbl)
    out = sample_frames(media, n_frames=4, concurrency=2, batch_size=8).to_pandas()
    # raw frame bytes aren't safely comparable through the driver's
    # string-canonicalizing hash; fingerprint them (md5 of the lowercase
    # hex, reproducible in SQL as md5(lower(hex(blob))))
    out["frame_md5"] = out["frame_bytes"].map(
        lambda b: hashlib.md5(bytes(b).hex().encode()).hexdigest()
    )
    out = out.drop(columns=["frame_bytes"])
    return out.sort_values(["media_id", "frame"]).reset_index(drop=True)


def _q_multimodal_audio(sf_dir: str):
    """Windowed audio RMS energy (SQL-checked): the WAV parse isn't SQL, so
    the decoded PCM16 samples + rates are DUMPED and DuckDB independently
    recomputes the windowing and sqrt(avg(s^2))/32768 energies."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from nadry_search_engine_be_ray.stages.multimodal import (
        AudioFeaturesBatch,
        audio_features,
        synth_media_table,
    )

    media_tbl = synth_media_table(32, "audio")
    dec = AudioFeaturesBatch()
    sm, si, sv = [], [], []
    meta_m, meta_r = [], []
    for mid, payload in zip(
        media_tbl["media_id"].to_pylist(), media_tbl["payload"].to_pylist()
    ):
        samples, rate = dec._decode(payload)
        sm.append(np.full(samples.size, mid, dtype=np.int64))
        si.append(np.arange(samples.size, dtype=np.int64))
        sv.append(samples.astype(np.int32))
        meta_m.append(mid)
        meta_r.append(rate)
    os.makedirs(_MM_DUMP_DIR, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "media_id": pa.array(np.concatenate(sm), pa.int64()),
                "idx": pa.array(np.concatenate(si), pa.int64()),
                "sample": pa.array(np.concatenate(sv), pa.int32()),
            }
        ),
        f"{_MM_DUMP_DIR}/samples.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "media_id": pa.array(meta_m, pa.int64()),
                "rate": pa.array(meta_r, pa.int64()),
            }
        ),
        f"{_MM_DUMP_DIR}/audio_meta.parquet",
    )

    media = ray.data.from_arrow(media_tbl)
    out = audio_features(media, window_ms=1000, concurrency=2, batch_size=8).to_pandas()
    out["energy"] = out["energy"].round(9)
    return out.sort_values(["media_id", "window"]).reset_index(drop=True)


def _q_search_api_page(sf_dir: str):
    """Full API response ENVELOPE (pagination K2 + cache T4 +
    SearchController.java:87-109 response shape) for the reference query
    set; rows = flattened page entries with the envelope fields
    (totalResults / totalPages 1-based currentPage / tokenizer tokens).
    The snippet text (M11) is exercised on the same call path but is not
    SQL-expressible, so it is excluded here and stays golden-tested
    (tests/test_snippets.py) — this key is hash-checked against the
    reference-scorer CTE chain + docmap url + ceil-division page math
    (VERDICT r4 #5; was rows-only)."""
    import pandas as pd

    from nadry_search_engine_be_ray.pipelines.api import SearchAPI
    from nadry_search_engine_be_ray.sources.corpus import reference_queries

    _, index_dir = _built_index(sf_dir)
    _main_dump(sf_dir)
    api = SearchAPI(index_dir)
    rows = []
    for q in reference_queries():
        resp = api.search(q["query"], page=q["page"] + 1, limit=q["page_size"])
        assert "description" in (resp["data"][0] if resp["data"] else
                                 {"description": None})  # snippet path ran
        for rank, item in enumerate(resp["data"]):
            rows.append(
                {
                    "query": q["query"],
                    "rank": rank,
                    "doc_id": item["doc_id"],
                    "url": item["url"],
                    "score": round(float(item["score"]), 9),
                    "tokens": " ".join(resp["tokens"]),
                    "total_results": resp["totalResults"],
                    "total_pages": resp["totalPages"],
                    "current_page": resp["currentPage"],
                }
            )
    out = pd.DataFrame(rows)
    return out.sort_values(["query", "rank"]).reset_index(drop=True)


def _write_term_rows(index_dir: str, path: str) -> None:
    """Oracle-side term vectors of every doc of ``index_dir``: the
    (term, doc_int, field, tf) rows ``DocStore.term_rows`` re-tokenizes
    from prepped, for SQL that recomputes df over a source index (the
    index itself keeps no term vectors)."""
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.pipelines.query import DocStore

    docs = DocStore.load(index_dir)
    pq.write_table(docs.term_rows(docs.doc_ints).drop_columns(["pos"]), path)


def _q_index_merge(sf_dir: str):
    """Incremental-merge demo (rows-only; pytest asserts byte-parity with a
    full build): two half-corpus indexes k-way merged, returning the merged
    per-term df table."""
    import shutil

    import pandas as pd
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index
    from nadry_search_engine_be_ray.pipelines.merge import merge_indexes
    from nadry_search_engine_be_ray.sources.corpus import write_corpus
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    root = _INDEX_MERGE_ROOT
    idx_m = os.path.join(root, "merged")
    # the term-row dumps are written last, so they mark a whole fixture
    if not os.path.exists(os.path.join(root, "ib_terms.parquet")):
        shutil.rmtree(root, ignore_errors=True)
        corpus = os.path.join(root, "corpus")
        write_corpus(corpus, n_docs=400, seed=42)
        tbl = pads.dataset(corpus, format="parquet").to_table()
        ca, cb = os.path.join(root, "ca"), os.path.join(root, "cb")
        os.makedirs(ca), os.makedirs(cb)
        pq.write_table(tbl.slice(0, 200), os.path.join(ca, "part.parquet"))
        pq.write_table(tbl.slice(200), os.path.join(cb, "part.parquet"))
        cfg = BuildConfig(num_shards=4, salt_bits=1)
        ia, ib = os.path.join(root, "ia"), os.path.join(root, "ib")
        build_index(ca, ia, cfg)
        build_index(cb, ib, cfg)
        merge_indexes([ia, ib], idx_m)
        for d in (ia, ib):
            _write_term_rows(d, d + "_terms.parquet")
    r = SegmentReader(idx_m)
    rows = sorted((t, r.postings(t).df) for t in r.terms())
    return pd.DataFrame(rows, columns=["term", "df"])


# ---------------------------------------------------------------------------
# document deletes: tombstone mask + purge (pipelines/deletes.py)
# ---------------------------------------------------------------------------

# the SQL-expressible delete rule: tombstone every doc with
# doc_int % 7 == 3 (~14% of the corpus), so DuckDB can replay the
# deletion as a pure WHERE predicate over the dumped token tables
_DELETE_PRED = "doc_int % 7 != 3"


def _deleted_index(sf_dir: str) -> str:
    """A tombstoned COPY of the shared index (the original stays pristine
    for every other key).  Idempotent via sentinel; built fresh-copy +
    delete_docs on miss."""
    import shutil

    import numpy as np
    import pyarrow.dataset as pads

    from nadry_search_engine_be_ray.pipelines.deletes import delete_docs

    _, index_dir = _built_index(sf_dir)
    root = index_dir + "_deleted_v1"
    sentinel = os.path.join(root, "deletes", "tombstones.parquet")
    if not os.path.exists(sentinel):
        shutil.rmtree(root, ignore_errors=True)
        tmp = root + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(index_dir, tmp)
        di = pads.dataset(
            os.path.join(tmp, "doc_stats"), format="parquet"
        ).to_table(columns=["doc_int"])["doc_int"].to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        delete_docs(tmp, di[di % 7 == 3])
        os.rename(tmp, root)
    return root


def _purged_index(sf_dir: str) -> str:
    """The tombstoned copy after purge_deletes (physical rewrite)."""
    import shutil

    from nadry_search_engine_be_ray.pipelines.deletes import purge_deletes
    from nadry_search_engine_be_ray.state.deletes import tombstone_path

    src = _deleted_index(sf_dir)
    root = src.replace("_deleted_v1", "_purged_v1")
    if not os.path.exists(os.path.join(root, "stats.json")) or \
            os.path.exists(tombstone_path(root)):
        shutil.rmtree(root, ignore_errors=True)
        tmp = root + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(src, tmp)
        purge_deletes(tmp)
        os.rename(tmp, root)
    return root


def _df_table_of(index_dir: str):
    """Per-term LIVE df from a SegmentReader (terms whose postings fully
    died are excluded, matching the SQL GROUP BY over surviving rows)."""
    import pandas as pd

    from nadry_search_engine_be_ray.state.segments import SegmentReader

    r = SegmentReader(index_dir)
    rows = sorted(
        (t, r.postings(t).df) for t in r.terms() if r.postings(t).df > 0
    )
    return pd.DataFrame({"term": [t for t, _ in rows],
                         "df": pd.array([d for _, d in rows],
                                        dtype="int64")})


def _q_delete_masked_df(sf_dir: str):
    """Per-term df AFTER tombstoning doc_int%7==3 but BEFORE purge — the
    mask-at-decode read path (state/deletes.live_mask): every posting
    list is filtered against the tombstone set inside SegmentReader, so
    the hash compare covers the score-column decode and mask (decode
    errors would shift df or crash)."""
    _main_dump(sf_dir)
    return _df_table_of(_deleted_index(sf_dir))


def _q_delete_purge_df(sf_dir: str):
    """Per-term df AFTER purge_deletes — the physical per-shard segment
    rewrite (pipelines/deletes.py): same expected table as the masked
    read, but produced by the re-encode + swap path with the tombstone
    file gone (pytest separately asserts byte-parity with a fresh build
    over the survivors)."""
    _main_dump(sf_dir)
    return _df_table_of(_purged_index(sf_dir))


def _q_delete_purge_stats(sf_dir: str):
    """Global stats after purge (stats.json recompute): n_docs /
    total_words / avgdl over the survivors plus the live dictionary
    size."""
    import json as _json

    import pandas as pd

    from nadry_search_engine_be_ray.state.segments import SegmentReader

    _main_dump(sf_dir)
    idx = _purged_index(sf_dir)
    with open(os.path.join(idx, "stats.json")) as f:
        s = _json.load(f)
    r = SegmentReader(idx)
    n_terms = sum(1 for t in r.terms() if r.postings(t).df > 0)
    return pd.DataFrame(
        {"n_docs": pd.array([s["n_docs"]], dtype="int64"),
         "total_words": pd.array([s["total_words"]], dtype="int64"),
         "avgdl": [round(float(s["avgdl"]), 9)],
         "n_terms": pd.array([n_terms], dtype="int64")}
    )


def _q_delete_stale_bm25(sf_dir: str):
    """BM25 top-10 on the TOMBSTONED index: candidates are masked but idf
    keeps the stale df (PostingList.df_stale — Lucene's docFreq-includes-
    deletes) and n_docs/avgdl stay the full-build values; the oracle
    replays exactly that asymmetry in SQL (unfiltered df CTE + stale
    stats.parquet, WHERE-filtered candidate rows)."""
    return _serve_eval(sf_dir, "bm25", index=_deleted_index)


def _q_delete_merge_df(sf_dir: str):
    """Per-term df after a merge that CONSUMES tombstones (Lucene
    segment-merge semantics, pipelines/merge.py): two half-corpus indexes
    each tombstoned with doc_int%7==3, k-way merged — dead docs are
    dropped during the merge itself, no purge step; the oracle recomputes
    df from the sources' term-row dumps under the same predicate."""
    import shutil

    import numpy as np
    import pandas as pd
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.build import build_index
    from nadry_search_engine_be_ray.pipelines.deletes import delete_docs
    from nadry_search_engine_be_ray.pipelines.merge import merge_indexes
    from nadry_search_engine_be_ray.sources.corpus import write_corpus
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    root = _DELETE_MERGE_ROOT
    idx_m = os.path.join(root, "merged")
    if not os.path.exists(os.path.join(root, "ib_terms.parquet")):
        shutil.rmtree(root, ignore_errors=True)
        corpus = os.path.join(root, "corpus")
        write_corpus(corpus, n_docs=400, seed=99)
        tbl = pads.dataset(corpus, format="parquet").to_table()
        ca, cb = os.path.join(root, "ca"), os.path.join(root, "cb")
        os.makedirs(ca), os.makedirs(cb)
        pq.write_table(tbl.slice(0, 200), os.path.join(ca, "part.parquet"))
        pq.write_table(tbl.slice(200), os.path.join(cb, "part.parquet"))
        cfg = BuildConfig(num_shards=4, salt_bits=1)
        ia, ib = os.path.join(root, "ia"), os.path.join(root, "ib")
        build_index(ca, ia, cfg)
        build_index(cb, ib, cfg)
        for d in (ia, ib):
            di = pads.dataset(
                os.path.join(d, "doc_stats"), format="parquet"
            ).to_table(columns=["doc_int"])["doc_int"].to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            delete_docs(d, di[di % 7 == 3])
        merge_indexes([ia, ib], idx_m)
        for d in (ia, ib):
            _write_term_rows(d, d + "_terms.parquet")
    r = SegmentReader(idx_m)
    rows = sorted(
        (t, r.postings(t).df) for t in r.terms() if r.postings(t).df > 0
    )
    return pd.DataFrame({"term": [t for t, _ in rows],
                         "df": pd.array([d for _, d in rows],
                                        dtype="int64")})


def _q_upsert_df(sf_dir: str):
    """Per-term df after upsert_index (pipelines/merge.py) — Lucene's
    updateDocument re-expressed: 60 base docs get NEW versions (reversed
    commit + appended line ⇒ new doc_int, same (repo, path) key) and 100
    genuinely new docs arrive; the old versions are tombstoned by key and
    consumed by the merge.  Oracle recomputes the delete-by-key algebra
    from the raw prepped files and the term-row dumps."""
    import shutil

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from nadry_search_engine_be_ray.config import BuildConfig
    from nadry_search_engine_be_ray.pipelines.merge import upsert_index
    from nadry_search_engine_be_ray.sources.corpus import write_corpus
    from nadry_search_engine_be_ray.state.segments import SegmentReader

    root = _UPSERT_ROOT
    idx_up = os.path.join(root, "merged")
    if not os.path.exists(os.path.join(root, "delta_terms.parquet")):
        shutil.rmtree(root, ignore_errors=True)
        corpus = os.path.join(root, "corpus")
        write_corpus(corpus, n_docs=400, seed=123)
        tbl = pads.dataset(corpus, format="parquet").to_table()
        base_c = os.path.join(root, "base_c")
        os.makedirs(base_c)
        pq.write_table(tbl.slice(0, 300),
                       os.path.join(base_c, "p.parquet"))
        upd = tbl.slice(0, 60)
        upd = upd.set_column(
            upd.schema.get_field_index("commit"), "commit",
            pa.array([c[::-1] for c in upd["commit"].to_pylist()],
                     pa.string()),
        )
        upd = upd.set_column(
            upd.schema.get_field_index("content"), "content",
            pa.array([c + "\nupdated marker line xylophone"
                      for c in upd["content"].to_pylist()], pa.string()),
        )
        delta_c = os.path.join(root, "delta_c")
        os.makedirs(delta_c)
        pq.write_table(pa.concat_tables([upd, tbl.slice(300)]),
                       os.path.join(delta_c, "p.parquet"))
        from nadry_search_engine_be_ray.pipelines.build import build_index

        base_i = os.path.join(root, "base")
        build_index(base_c, base_i, BuildConfig(num_shards=4, salt_bits=1))
        upsert_index(base_i, delta_c, idx_up,
                     BuildConfig(num_shards=4, salt_bits=1))
        _write_term_rows(base_i, os.path.join(root, "base_terms.parquet"))
        _write_term_rows(idx_up + ".delta",
                         os.path.join(root, "delta_terms.parquet"))
    r = SegmentReader(idx_up)
    rows = sorted(
        (t, r.postings(t).df) for t in r.terms() if r.postings(t).df > 0
    )
    return pd.DataFrame({"term": [t for t, _ in rows],
                         "df": pd.array([d for _, d in rows],
                                        dtype="int64")})


# ---------------------------------------------------------------------------
# oracle SQL
# ---------------------------------------------------------------------------

def _gram_pair_ctes(src: str, threshold: float = 0.5) -> str:
    """The all-pairs exact n-gram-Jaccard CTE chain over relation ``src``
    (must expose doc_id, text) — shared by the ngram_jaccard, minhash,
    clusters and training-pipeline oracles."""
    return f"""
            toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
                FROM {src}
            ),
            grams AS (
                SELECT DISTINCT doc_id, g
                FROM (
                    SELECT doc_id,
                           CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                                ELSE list_transform(range(1, len(ts) - 1),
                                                    i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
                           END AS gs
                    FROM toks WHERE len(ts) >= 1
                ), unnest(gs) AS u(g)
            ),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
            inter AS (
                SELECT g1.doc_id AS a, g2.doc_id AS b, count(*) AS c
                FROM grams g1 JOIN grams g2 ON g1.g = g2.g AND g1.doc_id < g2.doc_id
                GROUP BY 1, 2
            ),
            jpairs AS (
                SELECT a, b, round(c * 1.0 / (sa.n + sb.n - c), 9) AS jaccard
                FROM inter
                JOIN sizes sa ON inter.a = sa.doc_id
                JOIN sizes sb ON inter.b = sb.doc_id
                WHERE c * 1.0 / (sa.n + sb.n - c) >= {threshold}
            )"""


def _pagerank_power_sql(n_iter: int = 5, damping: float = 0.85) -> str:
    """Unroll the fixed power iterations as chained CTEs (no recursive
    aggregate needed); same synthetic edge rule as _q_pagerank_power."""
    iters = []
    prev = "r0"
    for k in range(1, n_iter + 1):
        iters.append(f"""
            r{k} AS (
                SELECT d.doc_id AS node,
                       (1 - {damping}) / (SELECT cnt FROM nn)
                       + {damping} * coalesce(sum(rp.rank / outd.od), 0) AS rank
                FROM documents d
                LEFT JOIN e ON e.dst = d.doc_id
                LEFT JOIN outd ON outd.src = e.src
                LEFT JOIN {prev} rp ON rp.node = e.src
                GROUP BY d.doc_id
            )""")
        prev = f"r{k}"
    return f"""
        WITH nn AS (SELECT count(*) AS cnt FROM documents),
        e AS (
            SELECT doc_id AS src,
                   (doc_id * 31 + k * 97) % (SELECT cnt FROM nn) AS dst
            FROM documents CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        ),
        outd AS (SELECT src, count(*) AS od FROM e GROUP BY src),
        r0 AS (SELECT doc_id AS node, 1.0 / (SELECT cnt FROM nn) AS rank
               FROM documents),
        {','.join(iters)}
        SELECT node, round(rank, 9) AS rank FROM {prev} ORDER BY node
    """


_PAGERANK_POWER_SQL = _pagerank_power_sql()


def _pagerank_quirk_sql(n_iter: int = 5, damping: float = 0.85) -> str:
    """Unrolled-CTE oracle for the AS-IMPLEMENTED quirk recurrence
    (PageRank.java:44-81): nodes = DISTINCT targets; a contribution is
    rank(src) / IN-degree(src); a src with no in-links has no row in
    ``ind``/``r{k}`` so its contribution is NULL and drops out of sum()
    — exactly the reference's skip branch (PageRank.java:63-66)."""
    iters = []
    prev = "q0"
    for k in range(1, n_iter + 1):
        iters.append(f"""
            q{k} AS (
                SELECT n.node,
                       (1 - {damping}) / (SELECT cnt FROM nc)
                       + {damping} * coalesce(sum(rp.rank / ind.id), 0)
                           AS rank
                FROM nodes n
                LEFT JOIN e ON e.dst = n.node
                LEFT JOIN ind ON ind.dst = e.src
                LEFT JOIN {prev} rp ON rp.node = e.src
                GROUP BY n.node
            )""")
        prev = f"q{k}"
    return f"""
        WITH nn AS (SELECT count(*) AS cnt FROM documents),
        e AS (
            SELECT doc_id AS src,
                   (doc_id * 31 + k * 97) % (SELECT cnt FROM nn) AS dst
            FROM documents CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
        ),
        nodes AS (SELECT DISTINCT dst AS node FROM e),
        nc AS (SELECT count(*) AS cnt FROM nodes),
        ind AS (SELECT dst, CAST(count(*) AS DOUBLE) AS id
                FROM e GROUP BY dst),
        q0 AS (SELECT node, 1.0 / (SELECT cnt FROM nc) AS rank
               FROM nodes),
        {','.join(iters)}
        SELECT node, round(rank, 9) AS rank FROM {prev} ORDER BY node
    """


_PAGERANK_QUIRK_SQL = _pagerank_quirk_sql()


def _sqlq(s: str) -> str:
    return s.replace("'", "''")


def _sql_str(s: str) -> str:
    """A full single-quoted SQL string literal (newlines pass through)."""
    return "'" + _sqlq(s) + "'"


def _reference_plan_ctes(p: dict) -> str:
    """The per-plan CTE chain of the EXACT reference scorer
    (Ranker.java:25-162) over the dumped token tables: candidate set
    (term union or positional phrase adjacency), candidate-relative df/N,
    the two max-normalizations with Java IEEE semantics (x/0 -> ±inf,
    0/0 -> NaN — DuckDB's NULL-on-zero-division is CASE-guarded), 0.7/0.3
    blend, NaN-first (score DESC, doc ASC) rank in ``pg{qid}`` — shared by
    the search_reference and search_api_page oracles."""
    from collections import Counter

    D = _MAIN_DUMP_DIR
    ctes: list[str] = []
    if True:  # single-plan body kept at the original loop indentation so
        #       the generated SQL text stays byte-identical to round 4's
        i = p["qid"]
        bag = Counter(p["tokens"])
        qlen = sum(bag.values())
        if p["kind"] == "term":
            terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(bag))
            whens = " ".join(
                f"WHEN '{_sqlq(t)}' THEN {bag[t] / qlen!r}" for t in sorted(bag)
            )
            idf = (f"log10(CAST((SELECT n FROM stat{i}) AS DOUBLE)"
                   f" / (1.0 + d.df))")
            dt = ("(CASE WHEN ds.total_words = 0 THEN 'infinity'::DOUBLE "
                  "ELSE CAST(c.tf AS DOUBLE) / CAST(ds.total_words AS DOUBLE) "
                  "END)")
            ctes.append(f"""
        cand{i} AS (
            SELECT doc_int, term, SUM(tf) AS tf
            FROM read_parquet('{D}/tok.parquet')
            WHERE term IN ({terms_sql})
            GROUP BY doc_int, term),
        stat{i} AS (SELECT count(DISTINCT doc_int) AS n FROM cand{i}),
        dfq{i} AS (SELECT term, count(*) AS df FROM cand{i} GROUP BY term),
        rel{i} AS (
            SELECT c.doc_int,
                   SUM(((CASE c.term {whens} END) * {idf}) * ({dt} * {idf}))
                       AS rel
            FROM cand{i} c
            JOIN dfq{i} d ON d.term = c.term
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = c.doc_int
            GROUP BY c.doc_int)""")
        else:  # phrase: chained same-field adjacency (SearchWrapper J2)
            terms = p["tokens"]
            joins = " ".join(
                f"JOIN read_parquet('{D}/pos.parquet') p{k + 1} "
                f"ON p{k + 1}.doc_int = p1.doc_int "
                f"AND p{k + 1}.field = p1.field "
                f"AND p{k + 1}.term = '{_sqlq(terms[k])}' "
                f"AND p{k + 1}.pos = p1.pos + {k}"
                for k in range(1, len(terms))
            )
            idf_p = (f"log10(CAST((SELECT n FROM stat{i}) AS DOUBLE)"
                     f" / (1.0 + (SELECT n FROM stat{i})))")
            dt_p = ("(CASE WHEN ds.total_words = 0 THEN 'infinity'::DOUBLE "
                    "ELSE 1.0 / CAST(ds.total_words AS DOUBLE) END)")
            sum_expr = " + ".join(
                f"(({bag[t] / qlen!r}) * {idf_p}) * ({dt_p} * {idf_p})"
                for t in sorted(bag)
            )
            ctes.append(f"""
        pm{i} AS (
            SELECT DISTINCT p1.doc_int AS doc_int
            FROM read_parquet('{D}/pos.parquet') p1
            {joins}
            WHERE p1.term = '{_sqlq(terms[0])}'),
        stat{i} AS (SELECT count(*) AS n FROM pm{i}),
        rel{i} AS (
            SELECT m.doc_int, {sum_expr} AS rel
            FROM pm{i} m
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = m.doc_int)""")
        ctes.append(f"""
        mx{i} AS (SELECT greatest(0.0::DOUBLE, max(rel)) AS m FROM rel{i}),
        mp{i} AS (SELECT greatest(0.0::DOUBLE, max(p.popularity)) AS m
                  FROM rel{i} r
                  JOIN read_parquet('{D}/pop.parquet') p
                       ON p.doc_int = r.doc_int),
        sc{i} AS (
            SELECT r.doc_int,
                   0.7 * (CASE WHEN (SELECT m FROM mx{i}) <> 0
                               THEN r.rel / (SELECT m FROM mx{i})
                               WHEN r.rel = 0 THEN 'nan'::DOUBLE
                               WHEN r.rel > 0 THEN 'infinity'::DOUBLE
                               ELSE '-infinity'::DOUBLE END)
                 + 0.3 * (CASE WHEN (SELECT m FROM mp{i}) <> 0
                               THEN p.popularity / (SELECT m FROM mp{i})
                               WHEN p.popularity = 0 THEN 'nan'::DOUBLE
                               WHEN p.popularity > 0 THEN 'infinity'::DOUBLE
                               ELSE '-infinity'::DOUBLE END) AS score
            FROM rel{i} r
            JOIN read_parquet('{D}/pop.parquet') p ON p.doc_int = r.doc_int),
        pg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM sc{i})""")
    return ",".join(ctes)


def _search_reference_sql() -> str:
    """Generated oracle for the reference scorer: the shared per-plan CTE
    chain (:func:`_reference_plan_ctes`) + the paginated rank-window
    select.  Scores rounded to 9 dp on both sides (SUM order differs)."""
    D = _MAIN_DUMP_DIR
    ctes: list[str] = []
    selects: list[str] = []
    for p in _query_plans():
        if p["kind"] == "empty":
            continue
        i = p["qid"]
        start = p["page"] * p["size"]
        ctes.append(_reference_plan_ctes(p))
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn - {start} AS INTEGER) AS rank,
               dm.doc_id AS doc_id,
               round(score, 9) AS score,
               (SELECT count(*) FROM sc{i}) AS total_results
        FROM pg{i} g
        JOIN read_parquet('{D}/docmap.parquet') dm ON dm.doc_int = g.doc_int
        WHERE rn >= {start} AND rn < {start + p["size"]}""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _search_api_page_sql() -> str:
    """Oracle for the FULL API response envelope (minus the snippet text,
    which is not SQL-expressible and stays golden-tested in
    tests/test_snippets.py): the same per-plan reference-scorer CTE chain
    as search_reference, plus url (docmap dump v5), 1-based currentPage,
    ceil-division totalPages and the shared-tokenizer token string — so
    the pagination/envelope arithmetic of SearchController.java:87-109 is
    hash-checked, not just row-counted (VERDICT r4 #5)."""
    D = _MAIN_DUMP_DIR
    ctes: list[str] = []
    selects: list[str] = []
    for p in _query_plans():
        if p["kind"] == "empty":
            continue
        i = p["qid"]
        start = p["page"] * p["size"]
        # the envelope's token list is tokenize(QUOTED.sub(" ", raw)) —
        # SearchAPI.search strips the quoted span before tokenizing (the
        # snippet-term list), which differs from the PLAN tokens for
        # phrase queries; replicate with the shared tokenizer
        from nadry_search_engine_be_ray.pipelines.query import QUOTED

        toks = " ".join(_tokenizer().tokenize(QUOTED.sub(" ", p["query"])))
        ctes.append(_reference_plan_ctes(p))
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn - {start} AS INTEGER) AS rank,
               dm.doc_id AS doc_id,
               dm.url AS url,
               round(score, 9) AS score,
               '{_sqlq(toks)}' AS tokens,
               (SELECT count(*) FROM sc{i}) AS total_results,
               CAST(((SELECT count(*) FROM sc{i}) + {p["size"]} - 1)
                    // {p["size"]} AS BIGINT) AS total_pages,
               CAST({p["page"] + 1} AS BIGINT) AS current_page
        FROM pg{i} g
        JOIN read_parquet('{D}/docmap.parquet') dm ON dm.doc_int = g.doc_int
        WHERE rn >= {start} AND rn < {start + p["size"]}""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _bm25_score_cte(p: dict, live_pred: str | None = None,
                    tf_source: tuple[str, str] = ("tok.parquet", "tf"),
                    delta: float = 0.0) -> str:
    """Per-query-plan CTE pair ``bdf{i}, bsc{i}`` computing every
    candidate's exact Okapi-BM25 score over the dumped token tables
    (global df, engine stats.json n_docs/avgdl verbatim, expression tree
    mirroring SearchEngine._scores_for including the (1.2 + 1) form of
    k1+1) — shared by the bm25 / stale-delete / search_after / collapse
    oracles.

    ``live_pred`` replays a tombstone delete: candidate rows are filtered
    to the survivors while the df CTE and stats.parquet stay UNFILTERED —
    exactly the engine's stale-stats delete semantics
    (PostingList.df_stale, state/deletes.py)."""
    from collections import Counter

    D = _MAIN_DUMP_DIR
    live = f"AND t.{live_pred}" if live_pred else ""
    # tf_source: (dump table, tf expression) — ("tok.parquet", tf) is
    # plain BM25; ("tokw.parquet", weight) scores the accumulated field
    # weight = simple BM25F (same key set, so df is unchanged)
    table, tf_col = tf_source
    tf_expr = f"CAST(t.{tf_col} AS DOUBLE)"
    i = p["qid"]
    mult = Counter(p["tokens"])
    terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(mult))
    whens = " ".join(
        f"WHEN '{_sqlq(t)}' THEN {float(m)!r}" for t, m in sorted(mult.items())
    )
    idf = (f"ln((CAST((SELECT n_docs FROM read_parquet('{D}/stats.parquet')) AS DOUBLE)"
           f" - d.df + 0.5) / (d.df + 0.5) + 1.0)")
    denom = (f"({tf_expr} + 1.2 * (1 - 0.75 + 0.75 * "
             f"CAST(ds.total_words AS DOUBLE) / "
             f"(SELECT avgdl FROM read_parquet('{D}/stats.parquet'))))")
    # BM25+ (delta > 0) adds the Lv&Zhai lower bound INSIDE the idf
    # product; delta == 0 keeps the exact original expression tree
    sat = f"({tf_expr} * (1.2 + 1)) / {denom}"
    if delta:
        sat = f"({sat} + {delta!r})"
    return f"""
        bdf{i} AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{D}/{table}')
            WHERE term IN ({terms_sql}) GROUP BY term),
        bsc{i} AS (
            SELECT t.doc_int,
                   SUM((CASE t.term {whens} END) * {idf}
                       * {sat}) AS score
            FROM read_parquet('{D}/{table}') t
            JOIN bdf{i} d ON d.term = t.term
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = t.doc_int
            WHERE t.term IN ({terms_sql}) {live}
            GROUP BY t.doc_int)"""


def _bm25_term_plans() -> list[dict]:
    return [p for p in _query_plans()
            if not p["query"].startswith('"') and p["kind"] == "term"]


def _search_bm25_sql(live_pred: str | None = None,
                     tf_source: tuple[str, str] = ("tok.parquet", "tf"),
                     delta: float = 0.0) -> str:
    """Okapi-BM25 top-10 oracle (see _bm25_score_cte); ``delta`` > 0
    generates the BM25+ variant."""
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        ctes.append(_bm25_score_cte(p, live_pred, tf_source, delta) + f""",
        bpg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM bsc{i})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score,
               least(10::BIGINT, (SELECT count(*) FROM bsc{i}))
                   AS total_results
        FROM bpg{i} WHERE rn < 10""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _search_after_sql() -> str:
    """Page-2 keyset-pagination oracle: under the total order (score DESC,
    doc_int ASC) the engine's strict-after-cursor filter is exactly the
    rank window [10, 20) — and page 2 exists only when page 1 was full."""
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        ctes.append(_bm25_score_cte(p) + f""",
        bpg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM bsc{i})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score
        FROM bpg{i}
        WHERE rn >= 10 AND rn < 20
          AND (SELECT count(*) FROM bsc{i}) >= 10""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _rocchio_sql(r: int = 5, e: int = 3, beta: float = 0.5) -> str:
    """Pseudo-relevance-feedback oracle, full chain in SQL: top-r BM25
    docs -> candidate terms from their token rows -> integer-only
    selection (tf-sum DESC, global df ASC, term ASC) LIMIT e excluding
    the original tokens -> re-score with weights (orig multiplicity at
    1.0, expansion at beta) -> top-10.  Mirrors serve mode 'rocchio'."""
    from collections import Counter

    D = _MAIN_DUMP_DIR
    idf = (f"ln((CAST((SELECT n_docs FROM read_parquet('{D}/stats.parquet')) AS DOUBLE)"
           f" - d.df + 0.5) / (d.df + 0.5) + 1.0)")
    denom = (f"(CAST(t.tf AS DOUBLE) + 1.2 * (1 - 0.75 + 0.75 * "
             f"CAST(ds.total_words AS DOUBLE) / "
             f"(SELECT avgdl FROM read_parquet('{D}/stats.parquet'))))")
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        mult = Counter(p["tokens"])
        orig_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(mult))
        vals = ", ".join(f"('{_sqlq(t)}', {float(m)!r})"
                         for t, m in sorted(mult.items()))
        ctes.append(_bm25_score_cte(p) + f""",
        fb{i} AS (
            SELECT doc_int FROM bsc{i}
            ORDER BY score DESC, doc_int ASC LIMIT {r}),
        cand{i} AS (
            SELECT t.term, sum(t.tf) AS tf_sum
            FROM read_parquet('{D}/tok.parquet') t
            JOIN fb{i} f ON f.doc_int = t.doc_int
            WHERE t.term NOT IN ({orig_sql})
            GROUP BY t.term),
        cdf{i} AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{D}/tok.parquet')
            WHERE term IN (SELECT term FROM cand{i}) GROUP BY term),
        sel{i} AS (
            SELECT c.term FROM cand{i} c JOIN cdf{i} d USING (term)
            ORDER BY c.tf_sum DESC, d.df ASC, c.term ASC LIMIT {e}),
        wt{i} AS (
            SELECT * FROM (VALUES {vals}) AS v(term, w)
            UNION ALL SELECT term, {beta!r} FROM sel{i}),
        rdf{i} AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{D}/tok.parquet')
            WHERE term IN (SELECT term FROM wt{i}) GROUP BY term),
        rsc{i} AS (
            SELECT t.doc_int,
                   SUM(w.w * {idf}
                       * (CAST(t.tf AS DOUBLE) * (1.2 + 1)) / {denom})
                       AS score
            FROM read_parquet('{D}/tok.parquet') t
            JOIN wt{i} w ON w.term = t.term
            JOIN rdf{i} d ON d.term = t.term
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = t.doc_int
            GROUP BY t.doc_int),
        rpg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM rsc{i})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score
        FROM rpg{i} WHERE rn < 10""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _synonym_sql(gamma: float = 0.4) -> str:
    """Synonym-expanded BM25 oracle: the weight map is computed by the
    SAME expand_with_synonyms/stem_thesaurus code the engine actor uses
    (a thesaurus is config), then scoring is recomputed independently in
    SQL — static VALUES weights -> df -> weighted saturation -> top-10."""
    from nadry_search_engine_be_ray.pipelines.serve import (
        expand_with_synonyms,
        stem_thesaurus,
    )
    from nadry_search_engine_be_ray.sources.corpus import QUERY_THESAURUS

    D = _MAIN_DUMP_DIR
    syn = stem_thesaurus(QUERY_THESAURUS, _tokenizer())
    idf = (f"ln((CAST((SELECT n_docs FROM read_parquet('{D}/stats.parquet')) AS DOUBLE)"
           f" - d.df + 0.5) / (d.df + 0.5) + 1.0)")
    denom = (f"(CAST(t.tf AS DOUBLE) + 1.2 * (1 - 0.75 + 0.75 * "
             f"CAST(ds.total_words AS DOUBLE) / "
             f"(SELECT avgdl FROM read_parquet('{D}/stats.parquet'))))")
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        weights = expand_with_synonyms(p["tokens"], syn, gamma)
        vals = ", ".join(f"('{_sqlq(t)}', {w!r})"
                         for t, w in sorted(weights.items()))
        ctes.append(f"""
        ywt{i} AS (SELECT * FROM (VALUES {vals}) AS v(term, w)),
        ydf{i} AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{D}/tok.parquet')
            WHERE term IN (SELECT term FROM ywt{i}) GROUP BY term),
        ysc{i} AS (
            SELECT t.doc_int,
                   SUM(w.w * {idf}
                       * (CAST(t.tf AS DOUBLE) * (1.2 + 1)) / {denom})
                       AS score
            FROM read_parquet('{D}/tok.parquet') t
            JOIN ywt{i} w ON w.term = t.term
            JOIN ydf{i} d ON d.term = t.term
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = t.doc_int
            GROUP BY t.doc_int),
        ypg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM ysc{i})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score
        FROM ypg{i} WHERE rn < 10""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _field_search_sql(field: int = 0) -> str:
    """Fielded-search oracle: BM25 over the per-field tf rows (tokf dump),
    field-restricted df, whole-doc length norm — mirrors
    serve.field_postings' positions-derived numbers."""
    from collections import Counter

    D = _MAIN_DUMP_DIR
    idf = (f"ln((CAST((SELECT n_docs FROM read_parquet('{D}/stats.parquet')) AS DOUBLE)"
           f" - d.df + 0.5) / (d.df + 0.5) + 1.0)")
    denom = (f"(CAST(t.tf AS DOUBLE) + 1.2 * (1 - 0.75 + 0.75 * "
             f"CAST(ds.total_words AS DOUBLE) / "
             f"(SELECT avgdl FROM read_parquet('{D}/stats.parquet'))))")
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        mult = Counter(p["tokens"])
        terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(mult))
        whens = " ".join(
            f"WHEN '{_sqlq(t)}' THEN {float(m)!r}"
            for t, m in sorted(mult.items())
        )
        ctes.append(f"""
        ftf{i} AS (
            SELECT term, doc_int, tf
            FROM read_parquet('{D}/tokf.parquet')
            WHERE field = {field} AND term IN ({terms_sql})),
        fdf{i} AS (
            SELECT term, count(*) AS df FROM ftf{i} GROUP BY term),
        fsc{i} AS (
            SELECT t.doc_int,
                   SUM((CASE t.term {whens} END) * {idf}
                       * (CAST(t.tf AS DOUBLE) * (1.2 + 1)) / {denom})
                       AS score
            FROM ftf{i} t
            JOIN fdf{i} d ON d.term = t.term
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = t.doc_int
            GROUP BY t.doc_int),
        fpg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM fsc{i})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score
        FROM fpg{i} WHERE rn < 10""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _explain_sql(n_docs: int = 3) -> str:
    """Explain oracle: per-term factor breakdown for each query's top-n
    BM25 hits, every factor recomputed independently in SQL."""
    from collections import Counter

    D = _MAIN_DUMP_DIR
    idf = (f"ln((CAST((SELECT n_docs FROM read_parquet('{D}/stats.parquet')) AS DOUBLE)"
           f" - d.df + 0.5) / (d.df + 0.5) + 1.0)")
    denom = (f"(CAST(t.tf AS DOUBLE) + 1.2 * (1 - 0.75 + 0.75 * "
             f"CAST(ds.total_words AS DOUBLE) / "
             f"(SELECT avgdl FROM read_parquet('{D}/stats.parquet'))))")
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        mult = Counter(p["tokens"])
        terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(mult))
        whens = " ".join(
            f"WHEN '{_sqlq(t)}' THEN {float(m)!r}"
            for t, m in sorted(mult.items())
        )
        ctes.append(_bm25_score_cte(p) + f""",
        etp{i} AS (
            SELECT doc_int FROM bsc{i}
            ORDER BY score DESC, doc_int ASC LIMIT {n_docs})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               printf('%015x', t.doc_int) AS doc_id,
               t.term,
               CAST(t.tf AS BIGINT) AS tf,
               CAST(d.df AS BIGINT) AS df,
               round({idf}, 9) AS idf,
               round((CASE t.term {whens} END) * {idf}
                     * (CAST(t.tf AS DOUBLE) * (1.2 + 1)) / {denom}, 9)
                   AS contribution
        FROM read_parquet('{D}/tok.parquet') t
        JOIN bdf{i} d ON d.term = t.term
        JOIN etp{i} e ON e.doc_int = t.doc_int
        JOIN read_parquet('{D}/docstats.parquet') ds
             ON ds.doc_int = t.doc_int
        WHERE t.term IN ({terms_sql})""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


_SLOPPY_SPECS = [("item order", 3), ("order arrived late", 4)]


def _sloppy_sql(specs=None) -> str:
    """Sloppy-phrase oracle: ordered gap-bounded chain over the pos dump
    (consecutive tokens same doc+field, gap in [1, slop]) -> matched docs
    -> plain BM25 over the phrase tokens -> top-10."""
    from collections import Counter

    D = _MAIN_DUMP_DIR
    specs = specs if specs is not None else _SLOPPY_SPECS
    tok = _tokenizer()
    idf = (f"ln((CAST((SELECT n_docs FROM read_parquet('{D}/stats.parquet')) AS DOUBLE)"
           f" - d.df + 0.5) / (d.df + 0.5) + 1.0)")
    denom = (f"(CAST(t.tf AS DOUBLE) + 1.2 * (1 - 0.75 + 0.75 * "
             f"CAST(ds.total_words AS DOUBLE) / "
             f"(SELECT avgdl FROM read_parquet('{D}/stats.parquet'))))")
    ctes: list[str] = []
    selects: list[str] = []
    for j, (phrase, slop) in enumerate(specs):
        tokens = tok.tokenize(phrase)
        mult = Counter(tokens)
        terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(mult))
        whens = " ".join(
            f"WHEN '{_sqlq(t)}' THEN {float(m)!r}"
            for t, m in sorted(mult.items())
        )
        chain = [f"""
        sp{j}m0 AS (
            SELECT DISTINCT doc_int, field, pos
            FROM read_parquet('{D}/pos.parquet')
            WHERE term = '{_sqlq(tokens[0])}')"""]
        for ti in range(1, len(tokens)):
            chain.append(f"""
        sp{j}m{ti} AS (
            SELECT DISTINCT b.doc_int, b.field, b.pos
            FROM read_parquet('{D}/pos.parquet') b
            JOIN sp{j}m{ti - 1} a
              ON a.doc_int = b.doc_int AND a.field = b.field
             AND b.pos - a.pos BETWEEN 1 AND {slop}
            WHERE b.term = '{_sqlq(tokens[ti])}')""")
        ctes.append(",".join(chain) + f""",
        sp{j}d AS (
            SELECT DISTINCT doc_int FROM sp{j}m{len(tokens) - 1}),
        sp{j}df AS (
            SELECT term, count(*) AS df
            FROM read_parquet('{D}/tok.parquet')
            WHERE term IN ({terms_sql}) GROUP BY term),
        sp{j}sc AS (
            SELECT t.doc_int,
                   SUM((CASE t.term {whens} END) * {idf}
                       * (CAST(t.tf AS DOUBLE) * (1.2 + 1)) / {denom})
                       AS score
            FROM read_parquet('{D}/tok.parquet') t
            JOIN sp{j}df d ON d.term = t.term
            JOIN read_parquet('{D}/docstats.parquet') ds
                 ON ds.doc_int = t.doc_int
            WHERE t.term IN ({terms_sql})
              AND t.doc_int IN (SELECT doc_int FROM sp{j}d)
            GROUP BY t.doc_int),
        sp{j}pg AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM sp{j}sc)""")
        selects.append(f"""
        SELECT '{_sqlq(phrase)}' AS phrase,
               {slop}::BIGINT AS slop,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               round(score, 9) AS score
        FROM sp{j}pg WHERE rn < 10""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _search_eval_sql(k: int = 10) -> str:
    """IR-metrics oracle: qrels = conjunctive token containment, ranking
    = the generated BM25 CTE, MRR / binary nDCG@k / recall@k recomputed
    with the SAME discount literals the engine uses (query.NDCG_DISCOUNTS
    — embedding the doubles sidesteps libm log parity) and an ORDERED
    list_sum for dcg (sum() has no order guarantee)."""
    from collections import Counter

    from nadry_search_engine_be_ray.pipelines.query import (
        NDCG_DISCOUNTS,
        NDCG_IDCG,
    )

    D = _MAIN_DUMP_DIR
    disc_case = " ".join(
        f"WHEN {i + 1} THEN {NDCG_DISCOUNTS[i]!r}" for i in range(k)
    )
    idcg_case = " ".join(
        f"WHEN {n} THEN {NDCG_IDCG[n - 1]!r}" for n in range(1, k + 1)
    )
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        mult = Counter(p["tokens"])
        terms_sql = ", ".join(f"'{_sqlq(t)}'" for t in sorted(mult))
        n_terms = len(mult)
        ctes.append(_bm25_score_cte(p) + f""",
        bpg{i} AS (
            SELECT doc_int, score,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM bsc{i}),
        rel{i} AS (
            SELECT doc_int
            FROM read_parquet('{D}/tok.parquet')
            WHERE term IN ({terms_sql})
            GROUP BY doc_int HAVING count(DISTINCT term) = {n_terms}),
        fl{i} AS (
            SELECT t.rn + 1 AS rank,
                   (r.doc_int IS NOT NULL) AS f
            FROM bpg{i} t LEFT JOIN rel{i} r USING (doc_int)
            WHERE t.rn < {k})""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               (SELECT CAST(count(*) AS BIGINT) FROM rel{i}) AS n_rel,
               round(coalesce(
                   (SELECT 1.0 / min(rank) FROM fl{i} WHERE f), 0.0), 9)
                   AS mrr,
               round(CASE WHEN (SELECT count(*) FROM rel{i}) = 0 THEN 0.0
                     ELSE coalesce(
                         (SELECT list_sum(list(
                              CASE rank {disc_case} END ORDER BY rank))
                          FROM fl{i} WHERE f), 0.0)
                       / (CASE least((SELECT count(*) FROM rel{i}), {k})
                          {idcg_case} END)
                     END, 9) AS ndcg,
               round(CASE WHEN (SELECT count(*) FROM rel{i}) = 0 THEN 0.0
                     ELSE (SELECT count(*) FROM fl{i} WHERE f) * 1.0
                          / (SELECT count(*) FROM rel{i}) END, 9)
                   AS recall""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


def _collapse_sql(group_col: str = "repo") -> str:
    """Field-collapse oracle: best doc per ``group_col`` value by
    (score DESC, doc_int ASC), then global top-10 over the winners —
    docmeta.parquet supplies the doc -> group mapping."""
    D = _MAIN_DUMP_DIR
    ctes: list[str] = []
    selects: list[str] = []
    for p in _bm25_term_plans():
        i = p["qid"]
        ctes.append(_bm25_score_cte(p) + f""",
        cgr{i} AS (
            SELECT s.doc_int, s.score, m.{group_col} AS grp,
                   row_number() OVER (
                       PARTITION BY m.{group_col}
                       ORDER BY s.score DESC, s.doc_int ASC) AS rg
            FROM bsc{i} s
            JOIN read_parquet('{D}/docmeta.parquet') m
                 ON m.doc_int = s.doc_int),
        cwin{i} AS (
            SELECT doc_int, score, grp,
                   row_number() OVER (ORDER BY score DESC, doc_int ASC) - 1
                       AS rn
            FROM cgr{i} WHERE rg = 1)""")
        selects.append(f"""
        SELECT '{_sqlq(p["query"])}' AS query,
               CAST(rn AS INTEGER) AS rank,
               printf('%015x', doc_int) AS doc_id,
               grp AS "group",
               round(score, 9) AS score
        FROM cwin{i} WHERE rn < 10""")
    return "WITH " + ",".join(ctes) + " ".join(
        [""] + [" UNION ALL ".join(selects)]
    )


_INDEX_MERGE_SQL = f"""
    SELECT term, count(DISTINCT doc_int) AS df FROM (
        SELECT term, doc_int
        FROM read_parquet('{_INDEX_MERGE_ROOT}/ia_terms.parquet')
        UNION ALL
        SELECT term, doc_int
        FROM read_parquet('{_INDEX_MERGE_ROOT}/ib_terms.parquet')
    ) GROUP BY term ORDER BY term
"""


def _dict_encoding_sql() -> str:
    """Per-column dictionary-encoding size model (pipelines/quant_ops.
    q_dict_encoding_profile): plain = sum UTF-8 bytes, dict = distinct
    bytes + ceil(n * bit_length(card-1) / 8).  length(bin(x)) IS
    bit_length(x) for x > 0 (no leading zeros); card <= 1 -> width 0."""
    from nadry_search_engine_be_ray.pipelines.quant_ops import _DICT_COLS

    parts = []
    for tbl, col in _DICT_COLS:
        parts.append(f"""
            SELECT '{tbl}' AS tbl, '{col}' AS col,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(DISTINCT {col}) AS BIGINT) AS card,
                   CAST(sum(strlen({col})) AS BIGINT) AS plain_bytes,
                   CAST((SELECT sum(strlen(v)) FROM
                            (SELECT DISTINCT {col} AS v FROM {tbl}))
                        + (count(*) * (CASE
                               WHEN count(DISTINCT {col}) <= 1 THEN 0
                               ELSE length(bin(count(DISTINCT {col}) - 1))
                           END) + 7) // 8 AS BIGINT) AS dict_bytes
            FROM {tbl}""")
    union = " UNION ALL ".join(parts)
    return f"""
        SELECT tbl, col, n, card, plain_bytes, dict_bytes,
               round(CAST(dict_bytes AS DOUBLE) / plain_bytes, 6) AS ratio
        FROM ({union}) ORDER BY tbl, col
    """


def oracle_sql() -> dict[str, str]:
    tok = "string_split_regex(lower(text), '[^a-z0-9]+')"
    ws_tok = "string_split_regex(trim(text), '\\s+')"
    ws_list = f"CASE WHEN trim(text) = '' THEN [] ELSE list_filter({ws_tok}, t -> t <> '') END"
    sqls = {
        "max_drawdown": """
            WITH d AS (
                SELECT date_trunc('day', o_orderdate) AS day,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS v
                FROM orders GROUP BY 1
            )
            SELECT day, CAST(v AS BIGINT) AS v_cents,
                   CAST(max(v) OVER (ORDER BY day
                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS peak_cents,
                   CAST(max(v) OVER (ORDER BY day
                        ROWS UNBOUNDED PRECEDING) - v AS BIGINT) AS dd_cents
            FROM d ORDER BY day
        """,
        "vwap_daily": """
            WITH d AS (
                SELECT date_trunc('day', l_shipdate) AS day,
                       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                           * CAST(round(l_quantity) AS BIGINT)) AS pv,
                       sum(CAST(round(l_quantity) AS BIGINT)) AS q
                FROM lineitem GROUP BY 1
            )
            SELECT day, CAST(q AS BIGINT) AS q_units,
                   CAST(pv AS BIGINT) AS pv_cents,
                   CAST((pv * 10000) // q AS BIGINT) AS vwap_micro
            FROM d ORDER BY day
        """,
        "anova_f": """
            WITH g AS (
                SELECT event_type,
                       count(*) AS n,
                       sum(CAST(round(value * 100) AS BIGINT)) AS s,
                       sum(CAST(round(value * 100) AS BIGINT)
                           * CAST(round(value * 100) AS BIGINT)) AS ss
                FROM events GROUP BY 1
            ),
            agg AS (
                SELECT count(*) AS k, sum(n) AS n, sum(s) AS s_tot,
                       CAST(sum(ss) AS DOUBLE) AS ss_tot,
                       sum(CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / n) AS a
                FROM g
            )
            SELECT CAST(k AS BIGINT) AS k, CAST(n AS BIGINT) AS n,
                   round(((a - CAST(s_tot AS DOUBLE) * CAST(s_tot AS DOUBLE)
                               / n) / (k - 1))
                         / ((ss_tot - a) / (n - k)), 4) AS f_stat
            FROM agg
        """,
        "mad_outliers": """
            WITH c AS (
                SELECT event_type,
                       CAST(round(value * 100) AS BIGINT) AS cents
                FROM events
            ),
            r AS (
                SELECT event_type, cents,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY cents) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM c
            ),
            m AS (
                SELECT event_type, max(n) AS n,
                       sum(CASE WHEN rn = (n + 1) // 2 THEN cents
                                ELSE 0 END)
                       + sum(CASE WHEN rn = n // 2 + 1 THEN cents
                                  ELSE 0 END) AS med2
                FROM r GROUP BY event_type
            ),
            d AS (
                SELECT c.event_type, abs(2 * c.cents - m.med2) AS d2
                FROM c JOIN m USING (event_type)
            ),
            r2 AS (
                SELECT event_type, d2,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY d2) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM d
            ),
            m2 AS (
                SELECT event_type,
                       sum(CASE WHEN rn = (n + 1) // 2 THEN d2 ELSE 0 END)
                       + sum(CASE WHEN rn = n // 2 + 1 THEN d2
                             ELSE 0 END) AS mad4
                FROM r2 GROUP BY event_type
            ),
            o AS (
                SELECT d.event_type, count(*) AS n_out
                FROM d JOIN m2 USING (event_type)
                WHERE 4 * d.d2 > 3 * m2.mad4
                GROUP BY d.event_type
            )
            SELECT m.event_type, CAST(m.n AS BIGINT) AS n,
                   CAST(m.med2 AS BIGINT) AS med_x2_cents,
                   CAST(m2.mad4 AS BIGINT) AS mad_x4_cents,
                   CAST(coalesce(o.n_out, 0) AS BIGINT) AS n_outliers
            FROM m JOIN m2 USING (event_type)
            LEFT JOIN o USING (event_type)
            ORDER BY m.event_type
        """,
        "percentile_interp": """
            WITH c AS (
                SELECT event_type,
                       CAST(round(value * 100) AS BIGINT) AS cents
                FROM events
            ),
            r AS (
                SELECT event_type, cents,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY cents) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM c
            )
            SELECT event_type, CAST(max(n) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN rn = (n - 1) * 1 // 4 + 1
                        THEN (4 - (n - 1) * 1 % 4) * cents ELSE 0 END)
                   + sum(CASE WHEN rn = least((n - 1) * 1 // 4 + 2, n)
                        THEN ((n - 1) * 1 % 4) * cents ELSE 0 END)
                        AS BIGINT) AS p25_x4_cents,
                   CAST(sum(CASE WHEN rn = (n - 1) * 2 // 4 + 1
                        THEN (4 - (n - 1) * 2 % 4) * cents ELSE 0 END)
                   + sum(CASE WHEN rn = least((n - 1) * 2 // 4 + 2, n)
                        THEN ((n - 1) * 2 % 4) * cents ELSE 0 END)
                        AS BIGINT) AS p50_x4_cents,
                   CAST(sum(CASE WHEN rn = (n - 1) * 3 // 4 + 1
                        THEN (4 - (n - 1) * 3 % 4) * cents ELSE 0 END)
                   + sum(CASE WHEN rn = least((n - 1) * 3 // 4 + 2, n)
                        THEN ((n - 1) * 3 % 4) * cents ELSE 0 END)
                        AS BIGINT) AS p75_x4_cents
            FROM r GROUP BY event_type ORDER BY event_type
        """,
        "decision_stump": """
            WITH h AS (
                SELECT CAST(floor(o_totalprice / 1000) AS BIGINT) AS thr,
                       count(*) AS c,
                       sum(CASE WHEN o_orderstatus = 'F' THEN 1
                                ELSE 0 END) AS p
                FROM orders GROUP BY 1
            ),
            t AS (SELECT sum(c) AS n, sum(p) AS pos FROM h),
            cum AS (
                SELECT thr,
                       sum(c) OVER (ORDER BY thr
                           ROWS UNBOUNDED PRECEDING) AS nl,
                       sum(p) OVER (ORDER BY thr
                           ROWS UNBOUNDED PRECEDING) AS pl
                FROM h
            ),
            e AS (
                SELECT thr, nl, pl,
                       least(pl, nl - pl)
                       + least(t.pos - pl,
                               (t.n - nl) - (t.pos - pl)) AS errors
                FROM cum, t
            )
            SELECT CAST(thr AS BIGINT) AS thr, CAST(nl AS BIGINT) AS n_left,
                   CAST(pl AS BIGINT) AS pos_left,
                   CAST(errors AS BIGINT) AS errors,
                   (errors = (SELECT min(errors) FROM e)
                    AND thr = (SELECT min(thr) FROM e e2
                               WHERE e2.errors =
                                     (SELECT min(errors) FROM e)))
                       AS is_best
            FROM e ORDER BY thr
        """,
        "dict_encoding_profile": _dict_encoding_sql(),
        "static_prune": _STATIC_PRUNE_SQL_TMPL.format(dump=_MAIN_DUMP_DIR),
        "textrank_keywords": _textrank_sql(),
        "rle_profile": _rle_profile_sql(),
        "quantile_normalize": """
            WITH c AS (
                SELECT event_type,
                       CAST(round(value * 100) AS BIGINT) AS cents
                FROM events
            ),
            r AS (
                SELECT event_type, cents,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY cents) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM c
            ),
            rp AS (
                SELECT cents, row_number() OVER (ORDER BY cents) AS rn,
                       count(*) OVER () AS n
                FROM c
            ),
            d AS (SELECT unnest(range(1, 10)) AS k),
            src AS (
                SELECT event_type, d.k, max(n) AS n,
                       sum(CASE WHEN rn = ((n - 1) * d.k) // 10 + 1
                                THEN cents ELSE 0 END) AS src_cents
                FROM r CROSS JOIN d GROUP BY 1, 2
            ),
            tgt AS (
                SELECT d.k,
                       sum(CASE WHEN rn = ((n - 1) * d.k) // 10 + 1
                                THEN cents ELSE 0 END) AS target_cents
                FROM rp CROSS JOIN d GROUP BY 1
            )
            SELECT src.event_type, CAST(src.k AS BIGINT) AS decile,
                   CAST(src.n AS BIGINT) AS n,
                   CAST(src.src_cents AS BIGINT) AS src_cents,
                   CAST(tgt.target_cents AS BIGINT) AS target_cents
            FROM src JOIN tgt ON tgt.k = src.k
            ORDER BY event_type, decile
        """,
        "cusum_drift": """
            WITH daily AS (
                SELECT date_trunc('day', o_orderdate) AS day,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS v
                FROM orders GROUP BY 1
            ),
            p AS (SELECT count(*) AS n, sum(v) AS tot FROM daily),
            x AS (
                SELECT day, v,
                       p.n * v - p.tot - p.n * (p.tot // (2 * p.n)) AS xs,
                       p.n * (p.tot // p.n) AS h
                FROM daily, p
            ),
            s AS (
                SELECT day, v, h,
                       sum(xs) OVER (ORDER BY day
                           ROWS UNBOUNDED PRECEDING) AS cs
                FROM x
            ),
            g AS (
                SELECT day, v, h, cs,
                       least(min(cs) OVER (ORDER BY day
                           ROWS UNBOUNDED PRECEDING), 0) AS runmin
                FROM s
            )
            SELECT day, CAST(v AS BIGINT) AS v_cents,
                   CAST(cs - runmin AS BIGINT) AS g_scaled,
                   (cs - runmin > h) AS alarm
            FROM g ORDER BY day
        """,
        "interarrival_stats": """
            WITH g AS (
                SELECT event_type,
                       date_diff('microsecond', lag(ts) OVER w, ts)
                           // 60000000 AS gmin,
                       lag(ts) OVER w AS prev
                FROM events
                WINDOW w AS (PARTITION BY user_id, event_type
                             ORDER BY ts, event_id)
            ),
            v AS (SELECT event_type, CAST(gmin AS BIGINT) AS gmin
                  FROM g WHERE prev IS NOT NULL),
            r AS (
                SELECT event_type, gmin,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY gmin) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM v
            )
            SELECT event_type, CAST(max(n) AS BIGINT) AS n_gaps,
                   CAST(sum(gmin) AS BIGINT) AS sum_min,
                   CAST(sum(CASE WHEN rn = (n + 1) // 2 THEN gmin
                                 ELSE 0 END)
                        + sum(CASE WHEN rn = n // 2 + 1 THEN gmin
                                   ELSE 0 END) AS BIGINT) AS med_x2_min,
                   CAST(sum(CASE WHEN rn = (n - 1) * 9 // 10 + 1
                                 THEN gmin ELSE 0 END) AS BIGINT)
                       AS p90_min,
                   CAST(max(gmin) AS BIGINT) AS max_min
            FROM r GROUP BY event_type ORDER BY event_type
        """,
        "grouping_sets": """
            WITH e AS (
                SELECT event_type,
                       epoch_us(ts) // 86400000000 % 7 AS dow,
                       CAST(round(value * 100) AS BIGINT) AS cents
                FROM events
            )
            SELECT CAST(CASE WHEN grouping(event_type) = 0
                                  AND grouping(dow) = 0 THEN 3
                             WHEN grouping(dow) = 1
                                  AND grouping(event_type) = 0 THEN 1
                             WHEN grouping(event_type) = 1
                                  AND grouping(dow) = 0 THEN 2
                             ELSE 0 END AS BIGINT) AS set_id,
                   coalesce(event_type, '') AS event_type,
                   CAST(coalesce(dow, -1) AS BIGINT) AS dow,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(cents) AS BIGINT) AS v
            FROM e
            GROUP BY GROUPING SETS ((event_type, dow), (event_type),
                                    (dow), ())
            ORDER BY set_id, event_type, dow
        """,
        "tree_depth2": """
            WITH src AS (
                SELECT CAST(floor(o_totalprice / 1000) AS BIGINT) AS thr,
                       epoch_us(o_orderdate) // 86400000000 % 7 AS dow,
                       CASE WHEN o_orderstatus = 'F' THEN 1
                            ELSE 0 END AS lab
                FROM orders
            ),
            b AS (SELECT thr, dow, count(*) AS c, sum(lab) AS p
                  FROM src GROUP BY 1, 2),
            tt AS (SELECT DISTINCT thr FROM b),
            dd AS (SELECT unnest(range(7)) AS dow),
            gr AS (
                SELECT tt.thr, dd.dow, coalesce(b.c, 0) AS c,
                       coalesce(b.p, 0) AS p
                FROM tt CROSS JOIN dd LEFT JOIN b USING (thr, dow)
            ),
            cum AS (
                SELECT thr, dow,
                       sum(c) OVER (PARTITION BY dow ORDER BY thr
                           ROWS UNBOUNDED PRECEDING) AS lc,
                       sum(p) OVER (PARTITION BY dow ORDER BY thr
                           ROWS UNBOUNDED PRECEDING) AS lp
                FROM gr
            ),
            tot AS (SELECT dow, max(lc) AS tc, max(lp) AS tp
                    FROM cum GROUP BY dow),
            sides AS (
                SELECT c.thr, c.dow, c.lc AS lcd, c.lp AS lpd,
                       t.tc - c.lc AS rcd, t.tp - c.lp AS rpd
                FROM cum c JOIN tot t USING (dow)
            ),
            cumd AS (
                SELECT thr, dow,
                       sum(lcd) OVER wd AS llc, sum(lpd) OVER wd AS llp,
                       sum(rcd) OVER wd AS rlc, sum(rpd) OVER wd AS rlp,
                       sum(lcd) OVER wt AS ltc, sum(lpd) OVER wt AS ltp,
                       sum(rcd) OVER wt AS rtc, sum(rpd) OVER wt AS rtp
                FROM sides
                WINDOW wd AS (PARTITION BY thr ORDER BY dow
                              ROWS UNBOUNDED PRECEDING),
                       wt AS (PARTITION BY thr)
            ),
            errs AS (
                SELECT thr, dow,
                       least(llp, llc - llp)
                       + least(ltp - llp, (ltc - llc) - (ltp - llp))
                           AS errl,
                       least(rlp, rlc - rlp)
                       + least(rtp - rlp, (rtc - rlc) - (rtp - rlp))
                           AS errr
                FROM cumd
            ),
            bl AS (SELECT thr, min(errl) AS bel FROM errs GROUP BY thr),
            bld AS (
                SELECT e.thr, min(e.dow) AS d2l
                FROM errs e JOIN bl USING (thr)
                WHERE e.errl = bl.bel GROUP BY e.thr
            ),
            br AS (SELECT thr, min(errr) AS ber FROM errs GROUP BY thr),
            brd AS (
                SELECT e.thr, min(e.dow) AS d2r
                FROM errs e JOIN br USING (thr)
                WHERE e.errr = br.ber GROUP BY e.thr
            ),
            tt2 AS (SELECT bl.thr, bl.bel + br.ber AS total
                    FROM bl JOIN br USING (thr)),
            best AS (SELECT min(thr) AS t1 FROM tt2
                     WHERE total = (SELECT min(total) FROM tt2)),
            st AS (
                SELECT min(least(ltp, ltc - ltp)
                           + least(rtp, rtc - rtp)) AS es
                FROM (SELECT DISTINCT thr, ltc, ltp, rtc, rtp FROM cumd)
            )
            SELECT CAST(best.t1 AS BIGINT) AS t1,
                   CAST(bld.d2l AS BIGINT) AS d2_left,
                   CAST(brd.d2r AS BIGINT) AS d2_right,
                   CAST((SELECT min(total) FROM tt2) AS BIGINT)
                       AS errors,
                   CAST(st.es AS BIGINT) AS errors_stump,
                   CAST((SELECT count(*) FROM src) AS BIGINT) AS n
            FROM best
            JOIN bld ON bld.thr = best.t1
            JOIN brd ON brd.thr = best.t1
            CROSS JOIN st
        """,
        "revenue_proration": """
            WITH o AS (
                SELECT date_trunc('day', o_orderdate) AS d0,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                       CASE o_orderpriority
                           WHEN '1-URGENT' THEN 7
                           WHEN '2-HIGH' THEN 14
                           WHEN '3-MEDIUM' THEN 21
                           WHEN '4-NOT SPECIFIED' THEN 28
                           ELSE 35 END AS span
                FROM orders
            ),
            x AS (
                SELECT d0 + to_days(CAST(off AS INTEGER)) AS day,
                       cents // span
                       + CASE WHEN off = 0 THEN cents % span
                              ELSE 0 END AS rec
                FROM o, unnest(range(o.span)) AS u(off)
            )
            SELECT day, CAST(sum(rec) AS BIGINT) AS rec_cents
            FROM x GROUP BY 1 ORDER BY day
        """,
        "skew_audit": """
            WITH b AS (
                SELECT 'o_custkey' AS key, o_custkey % 64 AS bucket
                FROM orders
                UNION ALL
                SELECT 'o_orderkey', o_orderkey % 64 FROM orders
                UNION ALL
                SELECT 'day', CAST(epoch(o_orderdate) AS BIGINT)
                              // 86400 % 64
                FROM orders
                UNION ALL
                SELECT 'priority_code',
                       CAST(substr(o_orderpriority, 1, 1) AS BIGINT) % 64
                FROM orders
            ),
            h AS (SELECT key, bucket, count(*) AS c FROM b GROUP BY 1, 2)
            SELECT key, CAST(sum(c) AS BIGINT) AS n,
                   CAST(count(*) AS BIGINT) AS nonempty,
                   CAST(min(c) AS BIGINT) AS min_rows,
                   CAST(max(c) AS BIGINT) AS max_rows,
                   CAST(max(c) * 64 * 1000000 // sum(c) AS BIGINT)
                       AS imbalance_micro
            FROM h GROUP BY key ORDER BY key
        """,
        "window_ratios": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       sum(CAST(round(value * 100) AS BIGINT)) AS v
                FROM events GROUP BY 1, 2
            )
            SELECT event_type, day, CAST(v AS BIGINT) AS v_cents,
                   CAST(count(*) OVER (PARTITION BY event_type
                            ORDER BY v RANGE BETWEEN UNBOUNDED PRECEDING
                            AND CURRENT ROW) * 1000000
                        // count(*) OVER (PARTITION BY event_type)
                        AS BIGINT) AS cd_micro,
                   CAST(v * 1000000
                        // sum(v) OVER (PARTITION BY event_type)
                        AS BIGINT) AS pct_micro
            FROM daily ORDER BY event_type, day
        """,
        "sprt_decision": """
            WITH d AS (
                SELECT date_trunc('day', ts) AS day, count(*) AS n,
                       sum(CASE WHEN event_type = 'purchase'
                                THEN 1 ELSE 0 END) AS k
                FROM events GROUP BY 1
            ),
            c AS (
                SELECT day,
                       sum(n) OVER w AS n_cum, sum(k) OVER w AS k_cum
                FROM d WINDOW w AS (ORDER BY day
                    ROWS UNBOUNDED PRECEDING)
            ),
            l AS (
                SELECT day, n_cum, k_cum,
                       k_cum * ln(0.25 / 0.15)
                       + (n_cum - k_cum) * ln((1 - 0.25) / (1 - 0.15))
                           AS llr
                FROM c
            ),
            x AS (
                SELECT day, n_cum, k_cum, llr,
                       CASE WHEN llr >= ln(19.0) OR llr <= -ln(19.0)
                            THEN 1 ELSE 0 END AS cr
                FROM l
            )
            SELECT day, CAST(n_cum AS BIGINT) AS n_cum,
                   CAST(k_cum AS BIGINT) AS k_cum,
                   round(llr, 6) AS llr,
                   (max(cr) OVER (ORDER BY day
                        ROWS UNBOUNDED PRECEDING) > 0) AS decided
            FROM x ORDER BY day
        """,
        "cohort_ltv": """
            WITH f AS (
                SELECT o_custkey,
                       min(date_trunc('month', o_orderdate)) AS m
                FROM orders GROUP BY 1
            ),
            sz AS (SELECT m AS cohort, count(*) AS nc FROM f GROUP BY 1),
            r AS (
                SELECT f.m AS cohort,
                       (date_part('year', o_orderdate) * 12
                        + date_part('month', o_orderdate))
                       - (date_part('year', f.m) * 12
                          + date_part('month', f.m)) AS age,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                FROM orders JOIN f USING (o_custkey)
            ),
            g AS (SELECT cohort, age, sum(cents) AS rev FROM r
                  GROUP BY 1, 2)
            SELECT g.cohort, CAST(g.age AS BIGINT) AS age,
                   CAST(sz.nc AS BIGINT) AS n_customers,
                   CAST(g.rev AS BIGINT) AS rev,
                   CAST(sum(g.rev) OVER (PARTITION BY g.cohort
                        ORDER BY g.age ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS cum_rev
            FROM g JOIN sz ON sz.cohort = g.cohort
            ORDER BY g.cohort, g.age
        """,
        "lorenz_curve": """
            WITH per AS (
                SELECT o_custkey,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS v
                FROM orders GROUP BY 1
            ),
            c AS (
                SELECT row_number() OVER (ORDER BY v, o_custkey) AS rn,
                       count(*) OVER () AS n,
                       sum(v) OVER () AS total,
                       sum(v) OVER (ORDER BY v, o_custkey
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM per
            ),
            d AS (SELECT unnest(range(1, 11)) AS k)
            -- LEFT JOIN + coalesce: with under 10 customers the k=1
            -- cutoff rank n*k//10 is 0 and no rn=0 row exists; the Ray
            -- side emits that decile with cum 0 (ADVICE r4)
            SELECT CAST(d.k AS BIGINT) AS decile,
                   COALESCE(CAST(c.rn AS BIGINT), 0) AS cum_users,
                   COALESCE(CAST(c.cum AS BIGINT), 0) AS cum_cents,
                   COALESCE(CAST(c.cum * 1000000 // c.total AS BIGINT), 0)
                       AS share_micro
            FROM d LEFT JOIN c
              ON c.rn = (SELECT max(n) FROM c) * d.k // 10
            ORDER BY d.k
        """,
        "attribution_linear": """
            WITH p AS (
                SELECT user_id, ts, event_id FROM events
                WHERE event_type = 'purchase'
            ),
            w AS (
                SELECT p.event_id AS pid, t.event_type, count(*) AS cnt
                FROM p JOIN events t
                  ON t.user_id = p.user_id
                 AND t.ts >= p.ts - INTERVAL 7 DAY
                 AND (t.ts < p.ts OR (t.ts = p.ts
                                      AND t.event_id < p.event_id))
                 AND t.event_type <> 'purchase'
                GROUP BY 1, 2
            ),
            k AS (SELECT pid, sum(cnt) AS k FROM w GROUP BY 1)
            SELECT w.event_type,
                   CAST(sum(w.cnt) AS BIGINT) AS n_touches,
                   CAST(sum(w.cnt * (1000000 // k.k)) AS BIGINT)
                       AS credit_micro
            FROM w JOIN k USING (pid)
            GROUP BY 1 ORDER BY 1
        """,
        "dunning_llr": """
            WITH toks AS (
                SELECT regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
                FROM documents
            ),
            pos AS (
                SELECT ts, unnest(range(2, len(ts) + 1)) AS i
                FROM toks WHERE len(ts) >= 2
            ),
            big AS (
                SELECT ts[i - 1] AS v, ts[i] AS w, count(*) AS c12
                FROM pos GROUP BY 1, 2
            ),
            cv AS (SELECT v, sum(c12) AS c1 FROM big GROUP BY 1),
            cw AS (SELECT w, sum(c12) AS c2 FROM big GROUP BY 1),
            t AS (SELECT sum(c12) AS n FROM big),
            x AS (
                SELECT b.v, b.w, b.c12,
                       b.c12 AS k11, cv.c1 - b.c12 AS k12,
                       cw.c2 - b.c12 AS k21,
                       t.n - cv.c1 - cw.c2 + b.c12 AS k22,
                       cv.c1, cw.c2, t.n
                FROM big b JOIN cv USING (v) JOIN cw USING (w)
                CROSS JOIN t
                WHERE b.c12 >= 5
            ),
            s AS (
                SELECT v, w, CAST(c12 AS BIGINT) AS c12,
                       round(2 * (
                           CASE WHEN k11 > 0 THEN k11 *
                               ln((n * k11) / (c1 * c2)) ELSE 0 END
                         + CASE WHEN k12 > 0 THEN k12 *
                               ln((n * k12) / (c1 * (n - c2))) ELSE 0 END
                         + CASE WHEN k21 > 0 THEN k21 *
                               ln((n * k21) / ((n - c1) * c2)) ELSE 0 END
                         + CASE WHEN k22 > 0 THEN k22 *
                               ln((n * k22) / ((n - c1) * (n - c2)))
                           ELSE 0 END), 6) AS llr
                FROM x
            )
            SELECT v, w, c12, llr FROM s
            ORDER BY llr DESC, v, w LIMIT 25
        """,
        "rolling_band": """
            WITH c AS (
                SELECT event_id, ts,
                       CAST(round(value * 100) AS BIGINT) AS cents
                FROM events
            ),
            w AS (
                SELECT event_id, cents,
                       sum(cents) OVER win AS s,
                       sum(cents * cents) OVER win AS ss,
                       count(*) OVER win AS nw
                FROM c WINDOW win AS (ORDER BY ts, event_id
                    ROWS BETWEEN 19 PRECEDING AND CURRENT ROW)
            )
            SELECT event_id, CAST(cents AS BIGINT) AS v_cents,
                   CAST(s AS BIGINT) AS win_sum,
                   CAST(ss AS BIGINT) AS win_sumsq
            FROM w
            WHERE nw = 20
              AND (20 * cents - s) * (20 * cents - s) * 19
                  > 4 * 20 * (20 * ss - s * s)
            ORDER BY event_id
        """,
        "isotonic_calibration": """
            WITH h AS (
                SELECT CAST(floor(o_totalprice / 5000) AS BIGINT) AS thr,
                       count(*) AS c,
                       sum(CASE WHEN o_orderstatus = 'F' THEN 1
                                ELSE 0 END) AS p
                FROM orders GROUP BY 1
            ),
            r AS (
                SELECT thr, c, p,
                       row_number() OVER (ORDER BY thr) AS rn,
                       sum(c) OVER (ORDER BY thr
                           ROWS UNBOUNDED PRECEDING) AS cn,
                       sum(p) OVER (ORDER BY thr
                           ROWS UNBOUNDED PRECEDING) AS cp
                FROM h
            ),
            a AS (
                SELECT j.rn AS j, k.rn AS k,
                       CAST(k.cp - j.cp + j.p AS DOUBLE)
                           / (k.cn - j.cn + j.c) AS avg
                FROM r j JOIN r k ON k.rn >= j.rn
            ),
            m AS (
                SELECT a.j, i.rn AS i, min(a.avg) AS mn
                FROM a JOIN r i ON a.k >= i.rn AND a.j <= i.rn
                GROUP BY 1, 2
            ),
            f AS (SELECT i, max(mn) AS fit FROM m GROUP BY i)
            SELECT r.thr, CAST(r.c AS BIGINT) AS n,
                   CAST(r.p AS BIGINT) AS pos,
                   round(f.fit, 6) AS fitted
            FROM r JOIN f ON f.i = r.rn ORDER BY r.thr
        """,
        "double_billing": """
            WITH o AS (
                SELECT o_custkey, o_orderkey AS k,
                       date_trunc('day', o_orderdate) AS d,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                FROM orders
            )
            SELECT a.o_custkey, least(a.k, b.k) AS k1,
                   greatest(a.k, b.k) AS k2,
                   CAST(abs(date_diff('day', a.d, b.d)) AS BIGINT)
                       AS gap_days,
                   CAST(abs(a.cents - b.cents) AS BIGINT)
                       AS price_diff_cents
            FROM o a JOIN o b
              ON a.o_custkey = b.o_custkey AND a.k < b.k
             AND abs(date_diff('day', a.d, b.d)) <= 7
            ORDER BY a.o_custkey, k1, k2
        """,
        "agg_pushdown": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 4) AS sum_qty,
                   round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue,
                   count(*) AS n_rows
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "broadcast_join": """
            SELECT c_mktsegment,
                   count(*) AS n_orders,
                   round(sum(o_totalprice), 4) AS sum_price
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "topk_sort": """
            SELECT o_orderkey, round(o_totalprice, 4) AS o_totalprice
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "distinct_count": """
            SELECT l_returnflag, count(DISTINCT l_orderkey) AS n_orders
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "filter_project": """
            SELECT round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue,
                   count(*) AS n
            FROM lineitem
            WHERE l_shipdate < TIMESTAMP '1997-01-01' AND l_quantity > 25
        """,
        "window_tumbling": """
            SELECT event_type,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) AS window_h,
                   count(*) AS n,
                   round(sum(value), 4) AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY event_type, window_h
        """,
        "window_sliding": """
            SELECT event_type,
                   CAST(s AS BIGINT) AS window_start_s,
                   count(*) AS n, round(sum(value), 4) AS sum_value
            FROM (
                SELECT event_type, value,
                       unnest([CAST(floor(epoch(ts) / 1800) AS BIGINT) * 1800,
                               CAST(floor(epoch(ts) / 1800) AS BIGINT) * 1800 - 1800]) AS s
                FROM events
            )
            GROUP BY event_type, s ORDER BY event_type, s
        """,
        "cumulative_sum": """
            SELECT event_id, user_id,
                   round(sum(value) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id
                                          ROWS UNBOUNDED PRECEDING), 4)
                       AS running_value
            FROM events ORDER BY event_id
        """,
        "grouped_topk": """
            WITH j AS (
                SELECT c_mktsegment, o_orderkey, o_totalprice
                FROM orders JOIN customer ON o_custkey = c_custkey
            ),
            r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY c_mktsegment
                    ORDER BY o_totalprice DESC, o_orderkey) AS rank
                FROM j
            )
            SELECT c_mktsegment, rank, o_orderkey,
                   round(o_totalprice, 4) AS o_totalprice
            FROM r WHERE rank <= 3 ORDER BY c_mktsegment, rank
        """,
        "pivot_events": """
            SELECT user_id,
                   count(*) FILTER (WHERE event_type = 'click') AS n_click,
                   count(*) FILTER (WHERE event_type = 'error') AS n_error,
                   count(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
                   count(*) FILTER (WHERE event_type = 'signup') AS n_signup,
                   count(*) FILTER (WHERE event_type = 'view') AS n_view
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "quantiles_by_type": """
            SELECT event_type,
                   round(quantile_cont(value, 0.5), 4) AS p50,
                   round(quantile_cont(value, 0.9), 4) AS p90,
                   round(quantile_cont(value, 0.99), 4) AS p99
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "three_way_join": """
            SELECT r_name, count(*) AS n_suppliers,
                   round(sum(s_acctbal), 4) AS sum_acctbal
            FROM supplier
            JOIN nation ON s_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name ORDER BY r_name
        """,
        "sessionize": """
            WITH e AS (
                SELECT user_id, event_id, ts, value,
                       lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
                FROM events
            ), s AS (
                SELECT *, CAST(sum(CASE WHEN prev IS NULL
                                        OR ts - prev > INTERVAL 30 MINUTE
                                   THEN 1 ELSE 0 END)
                          OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_no
                FROM e
            )
            SELECT user_id, session_no, count(*) AS n_events,
                   min(ts) AS start_ts, max(ts) AS end_ts,
                   round(sum(value), 4) AS sum_value
            FROM s GROUP BY user_id, session_no
            ORDER BY user_id, session_no
        """,
        "asof_join": """
            WITH m AS (
                SELECT e.event_id, o.o_orderkey,
                       row_number() OVER (PARTITION BY e.event_id
                                          ORDER BY o.o_orderdate DESC,
                                                   o.o_orderkey DESC) AS rn
                FROM events e
                JOIN orders o ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            )
            SELECT e.event_id, coalesce(m.o_orderkey, -1) AS o_orderkey
            FROM events e LEFT JOIN m ON m.event_id = e.event_id AND m.rn = 1
            ORDER BY e.event_id
        """,
        "range_join": """
            SELECT p.event_id AS purchase_id, c.event_id AS click_id
            FROM events p
            JOIN events c
              ON c.user_id = p.user_id
             AND p.event_type = 'purchase' AND c.event_type = 'click'
             AND c.ts >= p.ts - INTERVAL 1 HOUR AND c.ts <= p.ts
            ORDER BY purchase_id, click_id
        """,
        "anti_join": """
            SELECT c_custkey FROM customer
            WHERE c_custkey NOT IN (SELECT user_id FROM events)
            ORDER BY c_custkey
        """,
        "hash_join": """
            SELECT o_orderpriority,
                   count(*) AS n_lines,
                   round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "outer_join": """
            SELECT c_mktsegment,
                   count(*) AS n_rows,
                   CAST(sum(CASE WHEN o.o_custkey IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_no_order,
                   round(sum(coalesce(o_totalprice, 0)), 4) AS sum_price
            FROM customer c LEFT JOIN orders o ON c_custkey = o_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "semi_join": """
            SELECT p_brand, count(*) AS n_parts
            FROM part
            WHERE p_partkey IN
                  (SELECT l_partkey FROM lineitem WHERE l_quantity >= 45)
            GROUP BY p_brand ORDER BY p_brand
        """,
        "skew_join": """
            SELECT c_mktsegment,
                   count(*) AS n_events,
                   round(sum(value), 4) AS sum_value
            FROM events e JOIN customer c ON e.user_id = c.c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "cube_agg": """
            SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
                   coalesce(l_linestatus, 'ALL') AS l_linestatus,
                   round(sum(l_quantity), 4) AS sum_qty,
                   count(*) AS n_rows
            FROM lineitem
            GROUP BY CUBE(l_returnflag, l_linestatus)
            ORDER BY l_returnflag, l_linestatus
        """,
        "rollup_agg": """
            SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
                   coalesce(l_linestatus, 'ALL') AS l_linestatus,
                   round(sum(l_quantity), 4) AS sum_qty,
                   count(*) AS n_rows
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
            ORDER BY l_returnflag, l_linestatus
        """,
        "grouped_median": """
            SELECT l_returnflag,
                   round(quantile_disc(l_extendedprice, 0.5), 4) AS median_price,
                   count(*) AS n
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "tpch_q3": """
            SELECT l_orderkey,
                   round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue,
                   o_orderdate
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1995-03-15'
              AND l_shipdate > TIMESTAMP '1995-03-15'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY revenue DESC, l_orderkey LIMIT 10
        """,
        "tpch_q5": """
            SELECT n_name,
                   round(sum(l_extendedprice * (1 - l_discount)), 4)
                       AS revenue
            FROM customer
            JOIN orders   ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation   ON s_nationkey = n_nationkey
            JOIN region   ON n_regionkey = r_regionkey
            WHERE r_name = 'ASIA'
              AND c_nationkey = s_nationkey
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY n_name
            ORDER BY revenue DESC, n_name
        """,
        "tpch_q6": """
            SELECT round(sum(l_extendedprice * l_discount), 4) AS revenue
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND l_discount BETWEEN 0.05 AND 0.07
              AND l_quantity < 24
        """,
        "tpch_q10": """
            WITH agg AS (
                SELECT o_custkey AS c_custkey,
                       round(sum(l_extendedprice * (1 - l_discount)), 4)
                           AS revenue
                FROM orders
                JOIN lineitem ON l_orderkey = o_orderkey
                WHERE o_orderdate >= TIMESTAMP '1996-10-01'
                  AND o_orderdate < TIMESTAMP '1997-01-01'
                  AND l_returnflag = 'R'
                GROUP BY o_custkey
                ORDER BY revenue DESC, c_custkey
                LIMIT 20
            )
            SELECT agg.c_custkey, c_name, revenue, c_acctbal, n_name
            FROM agg
            JOIN customer ON customer.c_custkey = agg.c_custkey
            JOIN nation   ON c_nationkey = n_nationkey
            ORDER BY revenue DESC, agg.c_custkey
        """,
        "skyline_orders": """
            SELECT o_orderkey, round(o_totalprice, 4) AS o_totalprice,
                   o_orderdate
            FROM orders q
            WHERE NOT EXISTS (
                SELECT 1 FROM orders p
                WHERE p.o_totalprice >= q.o_totalprice
                  AND p.o_orderdate <= q.o_orderdate
                  AND (p.o_totalprice > q.o_totalprice
                       OR p.o_orderdate < q.o_orderdate)
            )
            ORDER BY o_orderkey
        """,
        "retention_cohorts": """
            WITH firsts AS (
                SELECT user_id, date_trunc('week', min(ts)) AS cohort_week
                FROM events GROUP BY user_id
            ),
            weeks AS (
                SELECT DISTINCT user_id, date_trunc('week', ts) AS w
                FROM events
            )
            SELECT f.cohort_week,
                   CAST(date_diff('day', f.cohort_week, w.w) / 7 AS BIGINT)
                       AS week_offset,
                   count(*) AS n_users
            FROM weeks w JOIN firsts f USING (user_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "interval_coverage": """
            WITH iv AS (
                SELECT user_id, epoch_us(ts) AS s,
                       epoch_us(ts) + 300000000 AS e
                FROM events
            ),
            m AS (
                SELECT user_id, s, e,
                       max(e) OVER (PARTITION BY user_id ORDER BY s, e
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS maxe
                FROM iv
            ),
            g AS (
                SELECT user_id, s, e,
                       sum(CASE WHEN maxe IS NULL OR s > maxe
                                THEN 1 ELSE 0 END)
                           OVER (PARTITION BY user_id ORDER BY s, e
                                 ROWS UNBOUNDED PRECEDING) AS isl
                FROM m
            ),
            spans AS (
                SELECT user_id, isl, max(e) - min(s) AS len
                FROM g GROUP BY user_id, isl
            )
            SELECT user_id, CAST(sum(len) AS BIGINT) AS covered_us
            FROM spans GROUP BY user_id ORDER BY user_id
        """,
        "tpch_q12": """
            SELECT CAST(year(l_shipdate) AS BIGINT) AS ship_year,
                   CAST(sum(CASE WHEN o_orderpriority
                                 IN ('1-URGENT', '2-HIGH')
                            THEN 1 ELSE 0 END) AS BIGINT)
                       AS high_line_count,
                   CAST(sum(CASE WHEN o_orderpriority
                                 IN ('1-URGENT', '2-HIGH')
                            THEN 0 ELSE 1 END) AS BIGINT)
                       AS low_line_count
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1998-01-01'
            GROUP BY 1 ORDER BY 1
        """,
        "event_transitions": """
            WITH seq AS (
                SELECT user_id, event_type,
                       lead(event_type) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id)
                           AS next_type
                FROM events
            )
            SELECT event_type AS from_type, next_type AS to_type,
                   count(*) AS n
            FROM seq WHERE next_type IS NOT NULL
            GROUP BY 1, 2
            ORDER BY n DESC, from_type, to_type LIMIT 20
        """,
        "tpch_q18": """
            WITH big AS (
                SELECT l_orderkey, round(sum(l_quantity), 4) AS sum_qty
                FROM lineitem GROUP BY l_orderkey
                HAVING sum(l_quantity) > 250
            )
            SELECT c_name, c_custkey, o_orderkey,
                   round(o_totalprice, 4) AS o_totalprice, sum_qty
            FROM big
            JOIN orders ON o_orderkey = l_orderkey
            JOIN customer ON c_custkey = o_custkey
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
        """,
        "tpch_q13": """
            WITH per_cust AS (
                SELECT c.c_custkey, count(o.o_orderkey) AS c_count
                FROM customer c LEFT JOIN orders o
                  ON c.c_custkey = o.o_custkey
                 AND o.o_orderpriority <> '1-URGENT'
                GROUP BY c.c_custkey
            )
            SELECT c_count, count(*) AS custdist FROM per_cust
            GROUP BY c_count ORDER BY custdist DESC, c_count DESC
        """,
        "tpch_q14": """
            WITH j AS (
                SELECT year(l_shipdate) AS ship_year,
                       l_extendedprice * (1 - l_discount) AS rev,
                       p_type = 'PROMO' AS isp
                FROM lineitem JOIN part ON p_partkey = l_partkey
            ),
            a AS (
                SELECT ship_year,
                       round(sum(CASE WHEN isp THEN rev ELSE 0 END), 4)
                           AS promo_rev,
                       round(sum(rev), 4) AS total_rev
                FROM j GROUP BY ship_year
            )
            SELECT ship_year, promo_rev, total_rev,
                   round(100.0 * promo_rev / total_rev, 6) AS promo_share
            FROM a ORDER BY ship_year
        """,
        "tpch_q17": """
            WITH bp AS (
                SELECT p_partkey FROM part WHERE p_brand = 'Brand#21'
            ),
            st AS (
                SELECT l_partkey, sum(CAST(l_quantity AS BIGINT)) AS sq,
                       count(*) AS n
                FROM lineitem JOIN bp ON p_partkey = l_partkey
                GROUP BY l_partkey
            )
            SELECT round(sum(l_extendedprice) / 7.0, 4) AS avg_yearly
            FROM lineitem l JOIN st ON st.l_partkey = l.l_partkey
            WHERE 5 * CAST(l.l_quantity AS BIGINT) * st.n < st.sq
        """,
        "tpch_q15": """
            WITH rev AS (
                SELECT l_suppkey,
                       round(sum(l_extendedprice * (1 - l_discount)), 4)
                           AS revenue
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate < TIMESTAMP '1996-04-01'
                GROUP BY l_suppkey
            )
            SELECT s_suppkey, s_name, revenue
            FROM rev JOIN supplier ON s_suppkey = l_suppkey
            WHERE revenue = (SELECT max(revenue) FROM rev)
            ORDER BY s_suppkey
        """,
        "tpch_q22": """
            WITH thr AS (
                SELECT round(avg(c_acctbal), 4) AS t
                FROM customer WHERE c_acctbal > 0
            )
            SELECT c_mktsegment, count(*) AS numcust,
                   round(sum(c_acctbal), 4) AS totacctbal
            FROM customer, thr
            WHERE c_acctbal > thr.t
              AND c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_orderpriority = '1-URGENT')
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "zscore_outliers": """
            WITH mom AS (
                SELECT event_type, sum(value) AS s1,
                       sum(value * value) AS s2, count(*) AS n
                FROM events GROUP BY event_type
            )
            SELECT e.event_id, e.event_type, round(e.value, 6) AS value,
                   round((e.value - m.s1 / m.n) /
                         sqrt(m.s2 / m.n - pow(m.s1 / m.n, 2)), 6) AS z
            FROM events e JOIN mom m ON m.event_type = e.event_type
            ORDER BY abs(round((e.value - m.s1 / m.n) /
                         sqrt(m.s2 / m.n - pow(m.s1 / m.n, 2)), 6)) DESC,
                     e.event_id
            LIMIT 20
        """,
        "tpch_q4": """
            SELECT o_orderpriority, count(*) AS order_count
            FROM orders o
            WHERE EXISTS (
                SELECT 1 FROM lineitem l
                WHERE l.l_orderkey = o.o_orderkey
                  AND l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
            )
            GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "tpch_q7": """
            WITH top3 AS (SELECT n_name FROM nation ORDER BY n_name LIMIT 3)
            SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   round(sum(l_extendedprice * (1 - l_discount)), 4)
                       AS revenue
            FROM lineitem
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN orders ON o_orderkey = l_orderkey
            JOIN customer ON c_custkey = o_custkey
            JOIN nation ns ON ns.n_nationkey = s_nationkey
            JOIN nation nc ON nc.n_nationkey = c_nationkey
            WHERE ns.n_name IN (SELECT n_name FROM top3)
              AND nc.n_name IN (SELECT n_name FROM top3)
              AND ns.n_name <> nc.n_name
            GROUP BY 1, 2, 3
            ORDER BY 1, 2, 3
        """,
        "tpch_q11": """
            WITH pv AS (
                SELECT l_partkey AS p_partkey,
                       round(sum(l_extendedprice), 4) AS value
                FROM lineitem GROUP BY 1
            ),
            tot AS (SELECT sum(value) AS t FROM pv)
            SELECT p_partkey, value FROM pv CROSS JOIN tot
            WHERE 1000000.0 * value > 600 * t
            ORDER BY value DESC, p_partkey
        """,
        "tpch_q19": """
            SELECT round(sum(l_extendedprice * (1 - l_discount)), 4)
                       AS revenue,
                   CAST(count(*) AS BIGINT) AS n_lines
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE (p_brand = 'Brand#11' AND p_size BETWEEN 1 AND 10
                   AND l_quantity BETWEEN 1.0 AND 15.0)
               OR (p_brand = 'Brand#22' AND p_size BETWEEN 5 AND 20
                   AND l_quantity BETWEEN 5.0 AND 25.0)
               OR (p_brand = 'Brand#33' AND p_size BETWEEN 10 AND 30
                   AND l_quantity BETWEEN 10.0 AND 35.0)
        """,
        "tpch_q8": """
            WITH rn AS (
                SELECT n_nationkey FROM nation
                JOIN region ON r_regionkey = n_regionkey
                WHERE r_name = 'ASIA'
            )
            SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   round(sum(CASE WHEN ns.n_name = 'NATION_2'
                                  THEN l_extendedprice * (1 - l_discount)
                                  ELSE 0 END)
                         / sum(l_extendedprice * (1 - l_discount)), 6)
                       AS mkt_share
            FROM lineitem
            JOIN orders ON o_orderkey = l_orderkey
            JOIN customer ON c_custkey = o_custkey
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ns ON ns.n_nationkey = s_nationkey
            WHERE c_nationkey IN (SELECT n_nationkey FROM rn)
            GROUP BY 1 ORDER BY 1
        """,
        "tpch_q9": """
            SELECT ns.n_name AS nation,
                   CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   round(sum(l_extendedprice * (1 - l_discount)
                             - p_retailprice * l_quantity), 4) AS sum_profit
            FROM lineitem
            JOIN part ON p_partkey = l_partkey
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN orders ON o_orderkey = l_orderkey
            JOIN nation ns ON ns.n_nationkey = s_nationkey
            WHERE p_name LIKE '%red%'
            GROUP BY 1, 2
            ORDER BY nation, o_year DESC
        """,
        "tpch_q16": """
            SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_brand <> 'Brand#11' AND p_type <> 'PROMO'
              AND p_size IN (1, 5, 10, 15, 20, 25, 30, 35)
            GROUP BY 1, 2, 3
            ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
        """,
        "tpch_q20": """
            SELECT CAST(s.s_suppkey AS BIGINT) AS s_suppkey, s.s_name,
                   round(sum(l_quantity), 4) AS total_qty
            FROM lineitem
            JOIN part ON p_partkey = l_partkey
            JOIN supplier s ON s.s_suppkey = l_suppkey
            WHERE p_name LIKE 'red%'
            GROUP BY 1, 2
            HAVING sum(l_quantity) > 100.0
            ORDER BY s_name
        """,
        "tpch_q21": """
            WITH pairs AS (
                SELECT l_orderkey AS o, l_suppkey AS s,
                       max(CASE WHEN l_shipdate >
                                     o_orderdate + INTERVAL 60 DAY
                                THEN 1 ELSE 0 END) AS late
                FROM lineitem JOIN orders ON o_orderkey = l_orderkey
                GROUP BY 1, 2
            ),
            ord AS (
                SELECT o, count(*) AS n_supp, sum(late) AS n_late,
                       sum(late * s) AS late_skey
                FROM pairs GROUP BY 1
            )
            SELECT s_name, CAST(count(*) AS BIGINT) AS numwait
            FROM ord JOIN supplier ON s_suppkey = late_skey
            WHERE n_supp > 1 AND n_late = 1
            GROUP BY 1
            ORDER BY numwait DESC, s_name
            LIMIT 25
        """,
        "kwic_concordance": """
            WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text),
                                                      '[^a-z0-9]+'),
                                   x -> x <> '') AS t
                FROM documents
            ),
            occ AS (
                SELECT doc_id, t, unnest(range(1, len(t) + 1)) AS i
                FROM toks
            )
            SELECT doc_id, CAST(i - 1 AS BIGINT) AS pos,
                   COALESCE(array_to_string(t[greatest(i - 2, 1):i - 1],
                                            ' '), '') AS left_ctx,
                   COALESCE(array_to_string(t[i + 1:least(i + 2, len(t))],
                                            ' '), '') AS right_ctx
            FROM occ WHERE t[i] = 'batch'
            ORDER BY doc_id, pos
        """,
        "mlm_masking": """
            WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text),
                                                      '[^a-z0-9]+'),
                                   x -> x <> '') AS t
                FROM documents
            )
            SELECT doc_id,
                   COALESCE(array_to_string(
                       list_transform(range(1, len(t) + 1),
                           i -> CASE WHEN i % 7 = 3 THEN '[MASK]'
                                     ELSE t[i] END), ' '), '')
                       AS masked_text,
                   COALESCE(array_to_string(
                       list_transform(
                           list_filter(range(1, len(t) + 1),
                                       i -> i % 7 = 3),
                           i -> t[i]), ' '), '') AS labels,
                   CAST(len(list_filter(range(1, len(t) + 1),
                                        i -> i % 7 = 3)) AS BIGINT)
                       AS n_masked
            FROM toks ORDER BY doc_id
        """,
        "kn_bigram_top": """
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
                FROM documents
            ),
            pos AS (
                SELECT ts, unnest(range(2, len(ts) + 1)) AS i
                FROM toks WHERE len(ts) >= 2
            ),
            big AS (
                SELECT ts[i - 1] AS v, ts[i] AS w, count(*) AS c
                FROM pos GROUP BY 1, 2
            ),
            cv AS (SELECT v, sum(c) AS cv, count(*) AS n1f FROM big
                   GROUP BY v),
            back AS (SELECT w, count(*) AS n1b FROM big GROUP BY w),
            t AS (SELECT count(*) AS nt FROM big),
            raw AS (
                SELECT b.w,
                       greatest(b.c - 0.75, 0) / cv.cv
                       + 0.75 * cv.n1f / cv.cv
                         * (back.n1b * 1.0 / t.nt) AS p
                FROM big b
                JOIN cv ON cv.v = b.v
                JOIN back ON back.w = b.w
                CROSS JOIN t
                WHERE b.v = 'hash'
            )
            SELECT w, round(p, 6) AS p_kn FROM raw
            ORDER BY p DESC, w LIMIT 20
        """,
        "eb_smoothed_rates": """
            WITH u AS (
                SELECT user_id, count(*) AS n,
                       count(*) FILTER (WHERE event_type = 'purchase') AS k
                FROM events GROUP BY 1
            ),
            r AS (SELECT user_id, n, k, k * 1.0 / n AS p FROM u),
            mo AS (SELECT avg(p) AS m, avg(p * p) - avg(p) * avg(p) AS v
                   FROM r),
            ab AS (SELECT m * (m * (1 - m) / v - 1) AS a,
                          (1 - m) * (m * (1 - m) / v - 1) AS b
                   FROM mo)
            SELECT user_id, CAST(n AS BIGINT) AS n, CAST(k AS BIGINT) AS k,
                   round((k + a) / (n + a + b), 6) AS smoothed
            FROM r CROSS JOIN ab
            ORDER BY (k + a) / (n + a + b) DESC, user_id LIMIT 20
        """,
        "late_orders": """
            WITH w AS (
                SELECT o_orderdate AS ts,
                       max(o_orderdate) OVER (ORDER BY o_orderkey
                                              ROWS BETWEEN UNBOUNDED
                                              PRECEDING AND 1 PRECEDING)
                           AS mx
                FROM orders
            )
            SELECT CAST(year(ts) AS BIGINT) AS o_year,
                   CAST(count(*) AS BIGINT) AS n_late
            FROM w WHERE mx IS NOT NULL AND ts < mx - INTERVAL 365 DAY
            GROUP BY 1 ORDER BY 1
        """,
        "changepoint_daily": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       count(*)::DOUBLE AS c
                FROM events GROUP BY 1, 2
            ),
            numbered AS (
                SELECT event_type, c,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY day) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n,
                       sum(c) OVER (PARTITION BY event_type
                                    ORDER BY day
                                    ROWS UNBOUNDED PRECEDING) AS s1,
                       sum(c * c) OVER (PARTITION BY event_type
                                        ORDER BY day
                                        ROWS UNBOUNDED PRECEDING) AS q1,
                       sum(c) OVER (PARTITION BY event_type) AS st,
                       sum(c * c) OVER (PARTITION BY event_type) AS qt
                FROM daily
            ),
            splits AS (
                SELECT event_type, rn AS k,
                       (q1 - s1 * s1 / rn)
                       + ((qt - q1) - (st - s1) * (st - s1) / (n - rn))
                           AS sse,
                       s1 / rn AS mean_left,
                       (st - s1) / (n - rn) AS mean_right
                FROM numbered WHERE rn < n
            ),
            best AS (
                SELECT *, row_number() OVER (PARTITION BY event_type
                                             ORDER BY sse, k) AS r
                FROM splits
            )
            SELECT event_type, CAST(k AS BIGINT) AS split_rn,
                   round(sse, 6) AS sse,
                   round(mean_left, 6) AS mean_left,
                   round(mean_right, 6) AS mean_right
            FROM best WHERE r = 1 ORDER BY event_type
        """,
        "join_cardinality_est": """
            WITH s AS (
                SELECT count(*) AS n_sample
                FROM lineitem JOIN orders ON o_orderkey = l_orderkey
                WHERE o_orderkey % 20 = 0
            ),
            e AS (
                SELECT count(*) AS n_exact
                FROM lineitem JOIN orders ON o_orderkey = l_orderkey
            )
            SELECT CAST(20 * n_sample AS BIGINT) AS estimated,
                   CAST(n_exact AS BIGINT) AS exact,
                   round(20 * n_sample * 1.0 / n_exact, 6) AS ratio
            FROM s CROSS JOIN e
        """,
        "wilson_ci_rates": """
            WITH u AS (
                SELECT event_type, count(*) AS n,
                       count(*) FILTER (WHERE value > 100.0) AS k
                FROM events GROUP BY 1
            ),
            f AS (
                SELECT event_type, n, k, k * 1.0 / n AS p,
                       1 + 1.96 * 1.96 / n AS denom
                FROM u
            )
            SELECT event_type, CAST(n AS BIGINT) AS n,
                   CAST(k AS BIGINT) AS k, round(p, 6) AS p,
                   round((p + 1.96 * 1.96 / (2 * n)) / denom
                         - (1.96 * sqrt(p * (1 - p) / n
                                        + 1.96 * 1.96 / (4 * n * n)))
                           / denom, 6) AS ci_lo,
                   round((p + 1.96 * 1.96 / (2 * n)) / denom
                         + (1.96 * sqrt(p * (1 - p) / n
                                        + 1.96 * 1.96 / (4 * n * n)))
                           / denom, 6) AS ci_hi
            FROM f ORDER BY event_type
        """,
        "psi_drift": """
            WITH base AS (
                SELECT quantile_disc(value, [0.1, 0.2, 0.3, 0.4, 0.5,
                                             0.6, 0.7, 0.8, 0.9]) AS bds
                FROM events WHERE event_type = 'click'
            ),
            binned AS (
                SELECT CAST(list_sum(list_transform(base.bds,
                           b -> CASE WHEN e.value > b THEN 1 ELSE 0 END))
                           AS BIGINT) AS bin,
                       count(*) FILTER (WHERE event_type = 'click') AS ca,
                       count(*) FILTER (WHERE event_type = 'error') AS cb
                FROM events e CROSS JOIN base
                WHERE event_type IN ('click', 'error')
                GROUP BY 1
            ),
            dense AS (
                SELECT b.bin, COALESCE(ca, 0) AS ca, COALESCE(cb, 0) AS cb
                FROM (SELECT unnest(range(0, 10)) AS bin) b
                LEFT JOIN binned USING (bin)
            ),
            tot AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM dense),
            p AS (
                SELECT bin, (ca + 0.5) / (na + 5) AS pa,
                       (cb + 0.5) / (nb + 5) AS pb
                FROM dense CROSS JOIN tot
            )
            SELECT round(sum((pa - pb) * ln(pa / pb)), 6) AS psi,
                   CAST((SELECT na FROM tot) AS BIGINT) AS n_a,
                   CAST((SELECT nb FROM tot) AS BIGINT) AS n_b
            FROM p
        """,
        "seasonal_naive_mase": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       avg(value) AS m
                FROM events GROUP BY 1, 2
            ),
            l AS (
                SELECT event_type, m,
                       lag(m, 7) OVER (PARTITION BY event_type
                                       ORDER BY day) AS m7,
                       lag(m, 1) OVER (PARTITION BY event_type
                                       ORDER BY day) AS m1
                FROM daily
            )
            SELECT event_type,
                   round((avg(abs(m - m7)) FILTER (WHERE m7 IS NOT NULL))
                         / (avg(abs(m - m1))
                            FILTER (WHERE m1 IS NOT NULL)), 6) AS mase,
                   round(avg(abs(m - m7)) FILTER (WHERE m7 IS NOT NULL),
                         6) AS mae_seasonal,
                   CAST(count(*) AS BIGINT) AS n_days
            FROM l GROUP BY 1 HAVING count(*) > 7 ORDER BY 1
        """,
        "shard_move_plan": """
            WITH h AS (
                SELECT doc_id, j,
                       (((2654435761 * (j + 1)) % 2147483647) * doc_id
                        + ((40503 * (j + 1)) % 2147483647)) % 2147483647
                           AS hv
                FROM documents, unnest(range(0, 9)) AS n(j)
            ),
            old AS (
                SELECT doc_id, j + 1 AS node,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY hv DESC, j) AS r
                FROM h WHERE j < 8
            ),
            new AS (
                SELECT doc_id, j + 1 AS node,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY hv DESC, j) AS r
                FROM h
            )
            SELECT CAST(o.node AS BIGINT) AS from_node,
                   CAST(count(*) AS BIGINT) AS n_moved
            FROM old o JOIN new nn ON nn.doc_id = o.doc_id AND nn.r = 1
            WHERE o.r = 1 AND o.node <> nn.node
            GROUP BY 1 ORDER BY 1
        """,
        "ohlc_daily": """
            WITH e AS (
                SELECT event_type, date_trunc('day', ts) AS day, value,
                       row_number() OVER (PARTITION BY event_type,
                                          date_trunc('day', ts)
                                          ORDER BY ts, event_id) AS rf,
                       row_number() OVER (PARTITION BY event_type,
                                          date_trunc('day', ts)
                                          ORDER BY ts DESC,
                                                   event_id DESC) AS rl
                FROM events
            )
            SELECT event_type, day,
                   round(max(CASE WHEN rf = 1 THEN value END), 6) AS open,
                   round(max(value), 6) AS high,
                   round(min(value), 6) AS low,
                   round(max(CASE WHEN rl = 1 THEN value END), 6) AS close
            FROM e GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "incremental_agg": """
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   round(sum(value), 4) AS sum_value
            FROM events GROUP BY 1 ORDER BY 1
        """,
        "zorder_layout": """
            WITH b AS (
                SELECT CAST(l_quantity AS BIGINT) AS qb,
                       CAST(floor(l_extendedprice / 500.0) AS BIGINT) AS pb,
                       l_quantity AS q
                FROM lineitem
            ),
            z AS (
                SELECT q, sum((((qb >> i) & 1) << (2 * i + 1))
                              + (((pb >> i) & 1) << (2 * i))) AS zkey
                FROM (SELECT *, row_number() OVER () AS rid FROM b),
                     unnest(range(0, 8)) AS u(i)
                GROUP BY rid, q
            )
            SELECT CAST(zkey >> 8 AS BIGINT) AS zprefix,
                   CAST(count(*) AS BIGINT) AS n,
                   round(sum(q), 4) AS sum_qty
            FROM z GROUP BY 1
            ORDER BY n DESC, zprefix LIMIT 20
        """,
        "rendezvous_hashing": """
            WITH h AS (
                SELECT doc_id, j,
                       (((2654435761 * (j + 1)) % 2147483647) * doc_id
                        + ((40503 * (j + 1)) % 2147483647)) % 2147483647
                           AS hv
                FROM documents, unnest(range(0, 8)) AS n(j)
            ),
            rk AS (
                SELECT doc_id, j,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY hv DESC, j) AS r
                FROM h
            )
            SELECT CAST(j + 1 AS BIGINT) AS node,
                   CAST(count(*) AS BIGINT) AS n_keys
            FROM rk WHERE r = 1 GROUP BY 1 ORDER BY 1
        """,
        "golden_records": """
            WITH anchors AS (
                SELECT doc_id, n_chars,
                       COALESCE(array_to_string(
                           (list_filter(string_split_regex(lower(text),
                                                           '[^a-z0-9]+'),
                                        x -> x <> ''))[1:2], ' '), '')
                           AS block_key
                FROM documents
            ),
            rk AS (
                SELECT block_key, doc_id, n_chars,
                       row_number() OVER (PARTITION BY block_key
                                          ORDER BY n_chars DESC, doc_id)
                           AS r,
                       count(*) OVER (PARTITION BY block_key) AS n_members
                FROM anchors
            )
            SELECT block_key, CAST(doc_id AS BIGINT) AS golden_doc_id,
                   CAST(n_chars AS BIGINT) AS max_chars,
                   CAST(n_members AS BIGINT) AS n_members
            FROM rk WHERE r = 1 AND n_members >= 2 ORDER BY block_key
        """,
        "quality_rules": """
            WITH n AS (SELECT count(*) AS nr FROM lineitem),
            v AS (
                SELECT 'discount_high' AS rule, count(*) AS n_violations
                FROM lineitem WHERE l_discount >= 0.09
                UNION ALL
                SELECT 'quantity_high', count(*) FROM lineitem
                WHERE l_quantity >= 45.0
                UNION ALL
                SELECT 'price_high', count(*) FROM lineitem
                WHERE l_extendedprice > 90000.0
                UNION ALL
                SELECT 'ship_late', count(*)
                FROM lineitem JOIN orders ON o_orderkey = l_orderkey
                WHERE l_shipdate > o_orderdate + INTERVAL 60 DAY
            )
            SELECT rule, CAST(n_violations AS BIGINT) AS n_violations,
                   round(n_violations * 1.0 / n.nr, 6) AS pct
            FROM v CROSS JOIN n ORDER BY rule
        """,
        "zipf_fit": f"""
            WITH tf AS (
                SELECT token AS term, count(*) AS tf
                FROM (SELECT unnest({tok}) AS token FROM documents)
                WHERE length(token) >= 2
                GROUP BY token
            ),
            top AS (
                SELECT tf, row_number() OVER (ORDER BY tf DESC, term) AS r
                FROM tf
            ),
            xy AS (SELECT ln(r * 1.0) AS x, ln(tf * 1.0) AS y
                   FROM top WHERE r <= 100),
            s AS (SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                         sum(x * y) AS sxy, sum(x * x) AS sxx
                  FROM xy)
            SELECT round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6)
                       AS slope,
                   round((sy - ((n * sxy - sx * sy)
                                / (n * sxx - sx * sx)) * sx) / n, 6)
                       AS intercept,
                   CAST(n AS BIGINT) AS n_terms
            FROM s
        """,
        "state_asof": """
            WITH f AS (
                SELECT user_id, event_type, ts,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts DESC,
                                                   event_id DESC) AS rn
                FROM events WHERE ts <= TIMESTAMP '2024-01-15'
            )
            SELECT user_id, event_type AS state, ts AS state_ts
            FROM f WHERE rn = 1 ORDER BY user_id
        """,
        "random_projection": """
            SELECT vec_id, CAST(j AS BIGINT) AS dim,
                   round(sum(CAST(embedding[i] AS DOUBLE)
                             * (((i * 31 + j * 17) % 2) * 2 - 1)), 6)
                       AS value
            FROM embeddings,
                 unnest(range(1, 65)) AS u(i),
                 unnest(range(1, 9)) AS v(j)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "rank_join": """
            SELECT c_custkey, o_orderkey,
                   round(c_acctbal + o_totalprice, 4) AS combined
            FROM orders JOIN customer ON c_custkey = o_custkey
            ORDER BY c_acctbal + o_totalprice DESC, c_custkey, o_orderkey
            LIMIT 10
        """,
        "scd2_dimension": """
            WITH s AS (
                SELECT user_id, event_type, ts, event_id,
                       lag(event_type) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id)
                           AS prev_type
                FROM events
            ),
            c AS (
                SELECT *, CASE WHEN prev_type IS NULL
                               OR prev_type <> event_type
                          THEN 1 ELSE 0 END AS chg
                FROM s
            ),
            r AS (
                SELECT *, CAST(sum(chg) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id
                                              ROWS UNBOUNDED PRECEDING)
                               AS BIGINT) AS run
                FROM c
            ),
            runs AS (
                SELECT user_id, run, event_type AS state,
                       min(ts) AS valid_from, max(ts) AS last_ts
                FROM r GROUP BY 1, 2, 3
            ),
            nxt AS (
                SELECT *, lead(valid_from) OVER (PARTITION BY user_id
                                                 ORDER BY run) AS nxt_from
                FROM runs
            )
            SELECT user_id, run, state, valid_from,
                   COALESCE(nxt_from, last_ts) AS valid_to
            FROM nxt ORDER BY user_id, run
        """,
        "id_gaps": """
            WITH c AS (
                SELECT event_id FROM events WHERE event_type = 'click'
            ),
            l AS (
                SELECT event_id,
                       lead(event_id) OVER (ORDER BY event_id) AS nxt
                FROM c
            )
            SELECT CAST(event_id + 1 AS BIGINT) AS gap_start,
                   CAST(nxt - 1 AS BIGINT) AS gap_end,
                   CAST(nxt - 1 - event_id AS BIGINT) AS gap_len
            FROM l WHERE nxt > event_id + 1 ORDER BY gap_start
        """,
        "containment_pairs": """
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
                FROM documents
            ),
            grams AS (
                SELECT DISTINCT doc_id, g
                FROM (
                    SELECT doc_id,
                           CASE WHEN len(ts) < 3
                                THEN [array_to_string(ts, ' ')]
                                ELSE list_transform(range(1, len(ts) - 1),
                                    i -> ts[i] || ' ' || ts[i+1] || ' '
                                         || ts[i+2])
                           END AS gs
                    FROM toks WHERE len(ts) >= 1
                ), unnest(gs) AS u(g)
            ),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams
                      GROUP BY doc_id),
            inter AS (
                SELECT g1.doc_id AS a, g2.doc_id AS b, count(*) AS c
                FROM grams g1
                JOIN grams g2 ON g1.g = g2.g AND g1.doc_id < g2.doc_id
                GROUP BY 1, 2
            )
            SELECT a, b, round(c * 1.0 / least(sa.n, sb.n), 9)
                       AS containment
            FROM inter
            JOIN sizes sa ON inter.a = sa.doc_id
            JOIN sizes sb ON inter.b = sb.doc_id
            WHERE c * 1.0 / least(sa.n, sb.n) >= 0.6
            ORDER BY a, b
        """,
        "js_divergence_sources": """
            WITH toks AS (
                SELECT source, t AS token
                FROM documents,
                     unnest(string_split_regex(lower(text),
                                               '[^a-z0-9_]+')) AS u(t)
                WHERE t <> ''
            ),
            ct AS (SELECT source, token, count(*) AS c FROM toks
                   GROUP BY 1, 2),
            tot AS (SELECT source, sum(c) AS t FROM ct GROUP BY 1),
            pairs AS (
                SELECT a.source AS s1, a.t AS t1, b.source AS s2, b.t AS t2
                FROM tot a JOIN tot b ON a.source < b.source
            ),
            vocab AS (SELECT DISTINCT token FROM ct),
            terms AS (
                SELECT p.s1, p.s2,
                       COALESCE(c1.c, 0) * 1.0 / p.t1 AS p1,
                       COALESCE(c2.c, 0) * 1.0 / p.t2 AS p2
                FROM pairs p
                CROSS JOIN vocab
                LEFT JOIN ct c1 ON c1.source = p.s1
                               AND c1.token = vocab.token
                LEFT JOIN ct c2 ON c2.source = p.s2
                               AND c2.token = vocab.token
            )
            SELECT s1, s2, round(sum(
                CASE WHEN p1 > 0
                     THEN 0.5 * p1 * ln(p1 / ((p1 + p2) / 2.0))
                     ELSE 0 END
              + CASE WHEN p2 > 0
                     THEN 0.5 * p2 * ln(p2 / ((p1 + p2) / 2.0))
                     ELSE 0 END), 6) AS jsd
            FROM terms GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "ks_test_2sample": """
            WITH s AS (
                SELECT value, event_type FROM events
                WHERE event_type IN ('click', 'error')
            ),
            n AS (SELECT count(*) FILTER (WHERE event_type = 'click') AS n1,
                         count(*) FILTER (WHERE event_type = 'error') AS n2
                  FROM s),
            g AS (SELECT value,
                         count(*) FILTER (WHERE event_type = 'click') AS ca,
                         count(*) FILTER (WHERE event_type = 'error') AS cb
                  FROM s GROUP BY value),
            cum AS (SELECT sum(ca) OVER (ORDER BY value) AS f1c,
                           sum(cb) OVER (ORDER BY value) AS f2c
                    FROM g)
            SELECT round(max(abs(f1c * 1.0 / n1 - f2c * 1.0 / n2)), 6)
                       AS ks_d,
                   CAST(n1 AS BIGINT) AS n1, CAST(n2 AS BIGINT) AS n2
            FROM cum CROSS JOIN n GROUP BY n1, n2
        """,
        "anchor_text_agg": """
            WITH anchors AS (
                SELECT doc_id,
                       COALESCE(array_to_string(
                           (list_filter(string_split_regex(lower(text),
                                                           '[^a-z0-9]+'),
                                        x -> x <> ''))[1:2], ' '), '')
                           AS anchor
                FROM documents
            ),
            edges AS (
                SELECT d.doc_id AS src,
                       (d.doc_id * d.doc_id * 31 + k * 97) %
                           (SELECT count(*) FROM documents) AS dst
                FROM documents d
                CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
            ),
            cnt AS (
                SELECT e.dst, a.anchor, count(*) AS n
                FROM edges e JOIN anchors a ON a.doc_id = e.src
                WHERE e.dst < 10 AND e.src <> e.dst
                GROUP BY 1, 2
            ),
            rk AS (
                SELECT dst, anchor, n,
                       row_number() OVER (PARTITION BY dst
                                          ORDER BY n DESC, anchor) AS r
                FROM cnt
            )
            SELECT CAST(dst AS BIGINT) AS dst, anchor,
                   CAST(n AS BIGINT) AS n
            FROM rk WHERE r <= 3 ORDER BY dst, n DESC, anchor
        """,
        "label_centroids": """
            SELECT CAST(label AS BIGINT) AS label, CAST(i AS BIGINT) AS dim,
                   round(avg(CAST(embedding[i] AS DOUBLE)), 6) AS centroid
            FROM embeddings, unnest(range(1, 65)) AS u(i)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "conversion_lag": """
            WITH v AS (
                SELECT user_id, min(ts) AS t0 FROM events
                WHERE event_type = 'view' GROUP BY 1
            ),
            p AS (
                SELECT e.user_id, min(e.ts) AS t1
                FROM events e JOIN v ON v.user_id = e.user_id
                WHERE e.event_type = 'purchase' AND e.ts > v.t0
                GROUP BY 1
            ),
            lag AS (
                SELECT epoch_us(p.t1) - epoch_us(v.t0) AS lag_us
                FROM p JOIN v USING (user_id)
            )
            SELECT CAST(count(*) AS BIGINT) AS n_converted,
                   CAST(quantile_disc(lag_us, 0.5) AS BIGINT)
                       AS median_lag_us,
                   CAST(quantile_disc(lag_us, 0.9) AS BIGINT) AS p90_lag_us
            FROM lag
        """,
        "attribution_first_touch": """
            WITH f AS (
                SELECT user_id, value,
                       first_value(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS ftype
                FROM events
            )
            SELECT ftype AS event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
                   round(sum(value), 4) AS sum_value
            FROM f GROUP BY 1 ORDER BY 1
        """,
        "column_profile": """
            WITH p AS (
                SELECT 'l_quantity' AS "column", count(*) AS n,
                       count(*) - count(l_quantity) AS n_null,
                       round(min(l_quantity), 6) AS min_v,
                       round(max(l_quantity), 6) AS max_v,
                       round(sum(l_quantity), 4) AS sum_v,
                       round(round(sum(l_quantity), 4) / count(l_quantity), 6) AS avg_v
                FROM lineitem
                UNION ALL
                SELECT 'l_extendedprice', count(*),
                       count(*) - count(l_extendedprice),
                       round(min(l_extendedprice), 6),
                       round(max(l_extendedprice), 6),
                       round(sum(l_extendedprice), 4),
                       round(round(sum(l_extendedprice), 4) / count(l_extendedprice), 6)
                FROM lineitem
                UNION ALL
                SELECT 'l_discount', count(*),
                       count(*) - count(l_discount),
                       round(min(l_discount), 6), round(max(l_discount), 6),
                       round(sum(l_discount), 4),
                       round(round(sum(l_discount), 4) / count(l_discount), 6)
                FROM lineitem
                UNION ALL
                SELECT 'l_tax', count(*), count(*) - count(l_tax),
                       round(min(l_tax), 6), round(max(l_tax), 6),
                       round(sum(l_tax), 4),
                       round(round(sum(l_tax), 4) / count(l_tax), 6)
                FROM lineitem
            )
            SELECT "column", CAST(n AS BIGINT) AS n,
                   CAST(n_null AS BIGINT) AS n_null,
                   min_v, max_v, sum_v, avg_v
            FROM p ORDER BY "column"
        """,
        "seasonal_dow": """
            SELECT event_type, CAST(isodow(ts) AS BIGINT) AS dow,
                   CAST(count(*) AS BIGINT) AS n,
                   round(avg(value), 6) AS avg_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "session_paths": """
            WITH e AS (
                SELECT user_id, event_id, ts, event_type,
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS prev
                FROM events
            ), s AS (
                SELECT *, sum(CASE WHEN prev IS NULL
                                   OR ts - prev > INTERVAL 30 MINUTE
                              THEN 1 ELSE 0 END)
                          OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS session_no
                FROM e
            ), r AS (
                SELECT user_id, session_no, event_type,
                       row_number() OVER (PARTITION BY user_id, session_no
                                          ORDER BY ts, event_id) AS rn
                FROM s
            ), p AS (
                SELECT user_id, session_no,
                       string_agg(event_type, '>' ORDER BY rn) AS path
                FROM r WHERE rn <= 3 GROUP BY 1, 2
            )
            SELECT path, CAST(count(*) AS BIGINT) AS n
            FROM p GROUP BY 1 ORDER BY n DESC, path LIMIT 20
        """,
        "naive_bayes": """
            WITH toks AS (
                SELECT doc_id, lang, t AS token
                FROM documents,
                     unnest(string_split_regex(lower(text),
                                               '[^a-z0-9_]+')) AS u(t)
                WHERE t <> ''
            ),
            ct AS (SELECT lang, token, count(*) AS c FROM toks GROUP BY 1, 2),
            tot AS (SELECT lang, sum(c) AS tl FROM ct GROUP BY 1),
            vocab AS (SELECT count(DISTINCT token) AS v FROM ct),
            priors AS (
                SELECT lang,
                       ln(CAST(count(*) AS DOUBLE)
                          / (SELECT count(*) FROM documents)) AS lp
                FROM documents GROUP BY 1
            ),
            doc_lang AS (
                SELECT d.doc_id, p.lang, p.lp, t2.tl, vocab.v
                FROM documents d
                CROSS JOIN priors p
                JOIN tot t2 ON t2.lang = p.lang
                CROSS JOIN vocab
            ),
            tok_scores AS (
                SELECT tk.doc_id, dl.lang,
                       sum(ln((COALESCE(ct.c, 0) + 1.0)
                              / (dl.tl + dl.v))) AS s
                FROM toks tk
                JOIN doc_lang dl ON dl.doc_id = tk.doc_id
                LEFT JOIN ct ON ct.lang = dl.lang AND ct.token = tk.token
                GROUP BY 1, 2
            ),
            scored AS (
                SELECT dl.doc_id, dl.lang, dl.lp + COALESCE(ts.s, 0.0) AS sc
                FROM doc_lang dl
                LEFT JOIN tok_scores ts
                  ON ts.doc_id = dl.doc_id AND ts.lang = dl.lang
            ),
            best AS (
                SELECT doc_id, lang, sc,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY sc DESC, lang) AS rb
                FROM scored
            )
            SELECT doc_id, lang AS pred_label, round(sc, 4) AS score
            FROM best WHERE rb = 1 ORDER BY doc_id
        """,
        "knn_classify": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                ORDER BY vec_id LIMIT 20
            ),
            sims AS (
                SELECT q.query_id, e.vec_id, e.label,
                       list_cosine_similarity(
                           CAST(q.qe AS DOUBLE[]),
                           CAST(e.embedding AS DOUBLE[])) AS cosine
                FROM q JOIN embeddings e ON e.vec_id <> q.query_id
            ),
            ranked AS (
                SELECT query_id, label,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id) AS rn
                FROM sims
            ),
            votes AS (
                SELECT query_id, label, count(*) AS v
                FROM ranked WHERE rn <= 5 GROUP BY 1, 2
            ),
            best AS (
                SELECT query_id, label, v,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY v DESC, label) AS rb
                FROM votes
            )
            SELECT CAST(query_id AS BIGINT) AS query_id,
                   label AS pred_label, CAST(v AS BIGINT) AS votes
            FROM best WHERE rb = 1 ORDER BY query_id
        """,
        "ntile_quartiles": """
            WITH t AS (
                SELECT o_totalprice,
                       ntile(4) OVER (ORDER BY o_totalprice, o_orderkey) AS q
                FROM orders
            )
            SELECT CAST(q AS BIGINT) AS quartile,
                   CAST(count(*) AS BIGINT) AS n,
                   round(sum(o_totalprice), 4) AS sum_price
            FROM t GROUP BY 1 ORDER BY 1
        """,
        "iqr_outliers": """
            WITH s AS (
                SELECT event_type,
                       quantile_disc(value, 0.25) AS q1,
                       quantile_disc(value, 0.75) AS q3
                FROM events GROUP BY 1
            )
            SELECT e.event_type, round(s.q1, 6) AS q1, round(s.q3, 6) AS q3,
                   CAST(count(*) FILTER (
                       WHERE e.value < s.q1 - 1.5 * (s.q3 - s.q1)
                          OR e.value > s.q3 + 1.5 * (s.q3 - s.q1))
                       AS BIGINT) AS n_outliers,
                   COALESCE(round(sum(e.value) FILTER (
                       WHERE e.value < s.q1 - 1.5 * (s.q3 - s.q1)
                          OR e.value > s.q3 + 1.5 * (s.q3 - s.q1)), 4),
                       0.0) AS sum_outliers
            FROM events e JOIN s USING (event_type)
            GROUP BY e.event_type, s.q1, s.q3
            ORDER BY e.event_type
        """,
        "ewma_daily": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       avg(value) AS m
                FROM events GROUP BY 1, 2
            ),
            numbered AS (
                SELECT event_type, m,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY day) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM daily
            )
            SELECT event_type, CAST(max(n) AS BIGINT) AS n_days,
                   round(sum(CASE WHEN rn = 1 THEN pow(0.7, n - 1) * m
                                  ELSE 0.3 * pow(0.7, n - rn) * m END), 6)
                       AS ewma
            FROM numbered GROUP BY event_type ORDER BY event_type
        """,
        "tpch_q2": """
            WITH lp AS (
                SELECT p_partkey FROM part WHERE p_type = 'LARGE'
            ),
            ps AS (
                SELECT DISTINCT l_partkey AS p, l_suppkey AS s
                FROM lineitem JOIN lp ON p_partkey = l_partkey
            ),
            ranked AS (
                SELECT p, s, s_acctbal, s_name,
                       row_number() OVER (PARTITION BY p
                           ORDER BY s_acctbal DESC, s) AS rn
                FROM ps JOIN supplier ON s_suppkey = s
            )
            SELECT p_partkey, p_name,
                   round(p_retailprice, 4) AS p_retailprice,
                   s AS s_suppkey, s_name, round(s_acctbal, 4) AS s_acctbal
            FROM ranked JOIN part ON p_partkey = p
            WHERE rn = 1
            ORDER BY p_retailprice DESC, p_partkey LIMIT 20
        """,
        "markov_transitions": """
            WITH seq AS (
                SELECT event_type AS f,
                       lead(event_type) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS t
                FROM events
            ),
            c AS (
                SELECT f AS from_type, t AS to_type, count(*) AS n
                FROM seq WHERE t IS NOT NULL GROUP BY 1, 2
            ),
            o AS (
                SELECT from_type, CAST(sum(n) AS BIGINT) AS out_total
                FROM c GROUP BY 1
            )
            SELECT c.from_type, c.to_type, c.n, o.out_total,
                   (1000000 * c.n) // o.out_total AS prob_ppm
            FROM c JOIN o USING (from_type)
            ORDER BY c.from_type, c.to_type
        """,
        "benford_prices": """
            WITH digits AS (
                SELECT CAST(substr(CAST(CAST(floor(o_totalprice) AS BIGINT)
                            AS VARCHAR), 1, 1) AS BIGINT) AS digit
                FROM orders
            ),
            obs AS (SELECT digit, count(*) AS observed
                    FROM digits GROUP BY digit),
            tot AS (SELECT CAST(sum(observed) AS BIGINT) AS t FROM obs),
            bf(digit, benford_ppm) AS (VALUES
                (1, 301029), (2, 176091), (3, 124938), (4, 96910),
                (5, 79181), (6, 66946), (7, 57991), (8, 51152), (9, 45757))
            SELECT o.digit, o.observed,
                   (1000000 * o.observed) // tot.t AS observed_ppm,
                   CAST(bf.benford_ppm AS BIGINT) AS benford_ppm,
                   CAST((1000000 * o.observed) // tot.t - bf.benford_ppm
                        AS BIGINT) AS excess_ppm
            FROM obs o JOIN bf USING (digit) CROSS JOIN tot
            ORDER BY o.digit
        """,
        "rfm_scores": """
            WITH per AS (
                SELECT o_custkey AS c_custkey,
                       max(epoch_us(o_orderdate)) AS last_us,
                       count(*) AS n_orders, sum(o_totalprice) AS spend
                FROM orders GROUP BY 1
            ),
            mx AS (SELECT max(last_us) AS m FROM per),
            sc AS (
                SELECT c_custkey,
                       CAST((mx.m - last_us) // 86400000000 AS BIGINT)
                           AS recency_days,
                       CAST(n_orders AS BIGINT) AS frequency,
                       round(spend, 4) AS monetary
                FROM per CROSS JOIN mx
            )
            SELECT c_custkey, recency_days, frequency, monetary,
                   CAST(100 * (CASE WHEN recency_days < 365 THEN 3
                                    WHEN recency_days < 1095 THEN 2
                                    ELSE 1 END)
                        + 10 * (CASE WHEN frequency >= 15 THEN 3
                                     WHEN frequency >= 8 THEN 2
                                     ELSE 1 END)
                        + (CASE WHEN monetary >= 3000000.0 THEN 3
                                WHEN monetary >= 1500000.0 THEN 2
                                ELSE 1 END) AS BIGINT) AS rfm
            FROM sc ORDER BY monetary DESC, c_custkey LIMIT 20
        """,
        "trend_slope": """
            WITH daily AS (
                SELECT event_type,
                       CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                       count(*) AS n
                FROM events GROUP BY 1, 2
            ),
            s AS (
                SELECT event_type, count(*) AS n_days,
                       sum(day) AS sx, sum(n) AS sy,
                       sum(day * day) AS sxx, sum(day * n) AS sxy
                FROM daily GROUP BY 1
            )
            SELECT event_type, CAST(n_days AS BIGINT) AS n_days,
                   round((n_days * sxy - sx * sy) /
                         (n_days * sxx - sx * sx), 6) AS slope,
                   round((sy - (n_days * sxy - sx * sy) /
                          (n_days * sxx - sx * sx) * sx) / n_days, 6)
                       AS intercept
            FROM s ORDER BY event_type
        """,
        "event_trigrams": """
            WITH seq AS (
                SELECT event_type AS t1,
                       lead(event_type) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS t2,
                       lead(event_type, 2) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS t3
                FROM events
            )
            SELECT t1, t2, t3, count(*) AS n FROM seq
            WHERE t3 IS NOT NULL
            GROUP BY 1, 2, 3
            ORDER BY n DESC, t1, t2, t3 LIMIT 20
        """,
        "daily_autocorr": """
            WITH daily AS (
                SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                       count(*) AS n
                FROM events GROUP BY 1
            ),
            p AS (
                SELECT a.n AS x, b.n AS y
                FROM daily a JOIN daily b ON b.day = a.day + 1
            ),
            s AS (
                SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                       sum(x * x) AS sxx, sum(y * y) AS syy,
                       sum(x * y) AS sxy
                FROM p
            )
            SELECT CAST(n AS BIGINT) AS n_pairs,
                   round((n * sxy - sx * sy) /
                         sqrt((n * sxx - sx * sx) *
                              (n * syy - sy * sy) * 1.0), 6) AS autocorr
            FROM s
        """,
        "chi2_independence": """
            WITH cells AS (
                SELECT c_mktsegment, o_orderpriority, count(*) AS observed
                FROM orders JOIN customer ON c_custkey = o_custkey
                GROUP BY 1, 2
            ),
            tot AS (SELECT sum(observed) AS t FROM cells),
            r AS (SELECT c_mktsegment, sum(observed) AS rt
                  FROM cells GROUP BY 1),
            c AS (SELECT o_orderpriority, sum(observed) AS ct
                  FROM cells GROUP BY 1)
            SELECT cells.c_mktsegment, cells.o_orderpriority, observed,
                   round((rt * ct) / t, 6) AS expected,
                   round(pow(observed - (rt * ct) / t, 2) /
                         ((rt * ct) / t), 6) AS contrib
            FROM cells
            JOIN r USING (c_mktsegment)
            JOIN c USING (o_orderpriority)
            CROSS JOIN tot
            ORDER BY cells.c_mktsegment, cells.o_orderpriority
        """,
        "assoc_rules": """
            WITH ui AS (
                SELECT DISTINCT user_id,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS item
                FROM events
            ),
            nu AS (SELECT count(DISTINCT user_id) AS n_users FROM ui),
            itc AS (SELECT item, count(*) AS n_item FROM ui GROUP BY item),
            pairs AS (
                SELECT a.item AS i1, b.item AS i2, count(*) AS n_pair
                FROM ui a JOIN ui b
                  ON a.user_id = b.user_id AND a.item < b.item
                GROUP BY 1, 2
            )
            SELECT i1, i2, n_pair, c1.n_item AS n_i1, c2.n_item AS n_i2,
                   round(n_pair * 1.0 / nu.n_users, 6) AS support,
                   round(n_pair * 1.0 / c1.n_item, 6) AS conf_12,
                   round(n_pair * 1.0 / c2.n_item, 6) AS conf_21,
                   round(n_pair * 1.0 * nu.n_users /
                         (c1.n_item * c2.n_item), 6) AS lift
            FROM pairs
            JOIN itc c1 ON c1.item = i1
            JOIN itc c2 ON c2.item = i2
            CROSS JOIN nu
            WHERE n_pair >= 2
            ORDER BY lift DESC, i1, i2 LIMIT 20
        """,
        "gini_by_source": """
            WITH h AS (
                SELECT source, CAST(n_chars AS BIGINT) AS v, count(*) AS c
                FROM documents GROUP BY 1, 2
            ),
            cum AS (
                SELECT source, v, c,
                       coalesce(sum(c) OVER (
                           PARTITION BY source ORDER BY v
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0) AS cp
                FROM h
            ),
            agg AS (
                SELECT source,
                       sum(v * (c * cp + (c * (c + 1)) // 2)) AS s,
                       sum(v * c) AS t, sum(c) AS n
                FROM cum GROUP BY source
            )
            SELECT source, CAST(n AS BIGINT) AS n_docs,
                   round(2.0 * s / (n * t) - (n + 1.0) / n, 6) AS gini
            FROM agg ORDER BY source
        """,
        "clustering_coeff": """
            WITH raw AS MATERIALIZED (
                SELECT d.doc_id AS src,
                       (d.doc_id * d.doc_id * 31 + k * 97) %
                           (SELECT count(*) FROM documents) AS dst
                FROM documents d
                CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
            ),
            e AS MATERIALIZED (
                SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
                FROM raw WHERE src <> dst
            ),
            adj AS MATERIALIZED (
                SELECT u AS a, v AS b FROM e
                UNION ALL SELECT v, u FROM e
            ),
            deg AS (SELECT a AS node, count(*) AS deg FROM adj GROUP BY a),
            tri AS (
                SELECT n1.a AS node, count(*) AS t
                FROM adj n1
                JOIN adj n2 ON n1.a = n2.a AND n1.b < n2.b
                JOIN e ON e.u = n1.b AND e.v = n2.b
                GROUP BY n1.a
            )
            SELECT d.node, d.deg, coalesce(t.t, 0) AS n_tri,
                   round(2.0 * coalesce(t.t, 0) /
                         (d.deg * (d.deg - 1)), 6) AS coeff
            FROM deg d LEFT JOIN tri t ON t.node = d.node
            WHERE d.deg >= 2
            ORDER BY coeff DESC, d.node LIMIT 20
        """,
        "grouped_distinct": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "time_weighted_avg": """
            WITH seq AS (
                SELECT user_id, value, epoch_us(ts) AS t,
                       lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                                ORDER BY ts, event_id) AS nt
                FROM events
            ),
            agg AS (
                SELECT user_id,
                       sum(value * (nt - t)) AS numer,
                       max(t) - min(t) AS span
                FROM seq GROUP BY user_id
            )
            SELECT user_id, round(numer / span, 6) AS twa_value
            FROM agg WHERE span > 0 ORDER BY user_id
        """,
        "covisitation": """
            WITH ui AS (
                SELECT DISTINCT user_id,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS item
                FROM events
            ),
            pairs AS (
                SELECT a.item AS i1, b.item AS i2, count(*) AS n
                FROM ui a JOIN ui b
                  ON a.user_id = b.user_id AND a.item < b.item
                GROUP BY 1, 2
            )
            SELECT i1, i2, n FROM pairs
            ORDER BY n DESC, i1, i2 LIMIT 20
        """,
        "set_intersect": """
            SELECT user_id FROM events WHERE event_type = 'click'
            INTERSECT
            SELECT user_id FROM events WHERE event_type = 'purchase'
            ORDER BY user_id
        """,
        "event_deltas": """
            WITH d AS (
                SELECT user_id,
                       (epoch_us(ts) - lag(epoch_us(ts))
                            OVER (PARTITION BY user_id ORDER BY ts)) / 1e6
                           AS gap
                FROM events
            )
            SELECT user_id,
                   count(*) AS n_events,
                   round(avg(gap), 4) AS mean_gap_s,
                   round(max(gap), 4) AS max_gap_s
            FROM d GROUP BY user_id ORDER BY user_id
        """,
        "corr_stats": """
            SELECT l_returnflag,
                   CAST(count(*) AS BIGINT) AS n,
                   round(corr(l_quantity, l_extendedprice), 6) AS corr_qty_price
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "mode_per_group": """
            WITH c AS (
                SELECT user_id, event_type, count(*) AS n
                FROM events GROUP BY user_id, event_type
            ),
            r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY user_id ORDER BY n DESC, event_type
                ) AS rn FROM c
            )
            SELECT user_id, event_type AS mode_type, CAST(n AS BIGINT) AS n
            FROM r WHERE rn = 1 ORDER BY user_id
        """,
        "histogram": """
            SELECT event_type,
                   CAST(floor(value / 50) AS BIGINT) AS bin,
                   CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY event_type, bin
            ORDER BY event_type, bin
        """,
        "group_concat": """
            SELECT user_id,
                   string_agg(DISTINCT event_type, ',' ORDER BY event_type)
                       AS types,
                   CAST(count(DISTINCT event_type) AS BIGINT) AS n_types
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "weighted_sample": """
            WITH keyed AS (
                SELECT o_orderkey,
                       ln(((o_orderkey * 2654435761) % 4294967296 + 0.5)
                          / 4294967296.0) / o_totalprice AS es_key
                FROM orders
            )
            SELECT CAST(row_number() OVER (
                       ORDER BY es_key DESC, o_orderkey) AS BIGINT)
                       AS sel_rank,
                   o_orderkey
            FROM keyed ORDER BY es_key DESC, o_orderkey LIMIT 20
        """,
        "percent_rank": """
            SELECT event_id, event_type,
                   round(percent_rank() OVER (
                       PARTITION BY event_type ORDER BY value), 6)
                       AS pct_rank
            FROM events ORDER BY event_id
        """,
        "data_card": f"""
            WITH per_doc AS (
                SELECT lang, source, n_chars,
                       len(list_filter({tok}, t -> length(t) >= 2))
                           AS n_tokens
                FROM documents
            )
            SELECT lang, source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS sum_tokens,
                   round(avg(n_chars), 4) AS avg_chars
            FROM per_doc GROUP BY lang, source ORDER BY lang, source
        """,
        "json_extract_agg": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT))
                        AS BIGINT) AS sum_k,
                   round(avg(CAST(json_extract(props, '$.k') AS BIGINT)), 4)
                       AS avg_k
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "snapshot_diff": """
            WITH base AS (SELECT doc_id, text FROM documents),
            ordered AS (
                SELECT doc_id, text,
                       row_number() OVER (ORDER BY doc_id) AS rn
                FROM base
            ),
            snap2 AS (
                SELECT doc_id,
                       CASE WHEN rn BETWEEN 6 AND 10
                            THEN 'changed ' || text ELSE text END AS text
                FROM ordered WHERE rn > 5
                UNION ALL
                SELECT doc_id + 7000000, 'new doc ' || CAST(doc_id AS VARCHAR)
                FROM ordered WHERE rn <= 5
            )
            SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                   CASE WHEN b.doc_id IS NULL THEN 'removed'
                        WHEN a.doc_id IS NULL THEN 'added'
                        ELSE 'changed' END AS status
            FROM base a FULL OUTER JOIN snap2 b USING (doc_id)
            WHERE b.doc_id IS NULL OR a.doc_id IS NULL OR a.text <> b.text
            ORDER BY doc_id
        """,
        "funnel_conversion": """
            WITH ev AS (
                SELECT user_id, ts, event_type FROM events
                WHERE value >= 100
            ),
            c AS (
                SELECT user_id, min(ts) AS t1 FROM ev
                WHERE event_type = 'click' GROUP BY user_id
            ),
            v AS (
                SELECT e.user_id, min(e.ts) AS t2
                FROM ev e JOIN c USING (user_id)
                WHERE e.event_type = 'view' AND e.ts >= c.t1
                GROUP BY e.user_id
            ),
            p AS (
                SELECT DISTINCT e.user_id
                FROM ev e JOIN v USING (user_id)
                WHERE e.event_type = 'purchase' AND e.ts >= v.t2
            )
            SELECT CAST((SELECT count(DISTINCT user_id) FROM ev)
                        AS BIGINT) AS n_users,
                   CAST((SELECT count(*) FROM c) AS BIGINT) AS n_click,
                   CAST((SELECT count(*) FROM v) AS BIGINT) AS n_click_view,
                   CAST((SELECT count(*) FROM p) AS BIGINT) AS n_full_funnel
        """,
        "pmi_pairs": f"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(list_distinct(
                           list_filter({tok}, t -> length(t) >= 2))) AS term
                FROM documents
            ),
            df AS (SELECT term, count(*) AS df FROM toks GROUP BY term),
            band AS (SELECT term, df FROM df WHERE df BETWEEN 10 AND 400),
            bt AS (SELECT doc_id, term FROM toks JOIN band USING (term)),
            pairs AS (
                SELECT a.term AS term_a, b.term AS term_b,
                       count(*) AS n_docs
                FROM bt a JOIN bt b
                  ON a.doc_id = b.doc_id AND a.term < b.term
                GROUP BY 1, 2
                HAVING count(*) >= 5
            ),
            stats AS (SELECT count(*) AS n FROM documents)
            SELECT term_a, term_b, CAST(n_docs AS BIGINT) AS n_docs,
                   round(ln(CAST(stats.n * n_docs AS DOUBLE)
                            / CAST(da.df * db.df AS DOUBLE)), 6) AS pmi
            FROM pairs CROSS JOIN stats
            JOIN band da ON da.term = term_a
            JOIN band db ON db.term = term_b
            ORDER BY round(ln(CAST(stats.n * n_docs AS DOUBLE)
                              / CAST(da.df * db.df AS DOUBLE)), 6) DESC,
                     term_a, term_b
            LIMIT 20
        """,
        "phrase_suggest": f"""
            WITH toks AS (
                SELECT doc_id, list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            dict AS (
                SELECT DISTINCT unnest(ts) AS term FROM toks
            ),
            big AS (
                SELECT split_part(bg, ' ', 1) AS w1,
                       split_part(bg, ' ', 2) AS w2, count(*) AS n
                FROM (
                    SELECT unnest(list_transform(
                        range(1, len(ts)),
                        i -> ts[i] || ' ' || ts[i + 1])) AS bg
                    FROM toks WHERE len(ts) >= 2
                )
                GROUP BY 1, 2
            ),
            c1 AS (SELECT term, levenshtein('tble', term) AS d1
                   FROM dict WHERE levenshtein('tble', term) <= 1),
            c2 AS (SELECT term, levenshtein('hach', term) AS d2
                   FROM dict WHERE levenshtein('hach', term) <= 1)
            SELECT b.w1, b.w2, CAST(b.n AS BIGINT) AS n,
                   CAST(c1.d1 + c2.d2 AS BIGINT) AS dist
            FROM big b
            JOIN c1 ON b.w1 = c1.term
            JOIN c2 ON b.w2 = c2.term
            ORDER BY b.n DESC, dist, b.w1, b.w2 LIMIT 5
        """,
        "hapax_rate": f"""
            WITH toks AS (
                SELECT source, unnest(list_filter({tok},
                           t -> length(t) >= 2)) AS term
                FROM documents
            ),
            tc AS (SELECT source, term, count(*) AS n
                   FROM toks GROUP BY 1, 2),
            agg AS (
                SELECT source, CAST(count(*) AS BIGINT) AS n_types,
                       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)
                            AS BIGINT) AS n_hapax
                FROM tc GROUP BY source
            )
            SELECT source, n_types, n_hapax,
                   (1000000 * n_hapax) // n_types AS hapax_ppm
            FROM agg ORDER BY source
        """,
        "doc_keywords": f"""
            WITH toks AS (
                SELECT doc_id, unnest(list_filter({tok},
                           t -> length(t) >= 2)) AS term
                FROM documents
            ),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM toks WHERE doc_id < 20 GROUP BY 1, 2),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM toks GROUP BY term),
            nn AS (SELECT count(*) AS n FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.term, tf.tf, df.df,
                       tf.tf * ((nn.n * 1000000) // df.df) AS score
                FROM tf JOIN df USING (term) CROSS JOIN nn
            ),
            ranked AS (
                SELECT *, row_number() OVER (PARTITION BY doc_id
                    ORDER BY score DESC, term) AS rn
                FROM scored
            )
            SELECT doc_id, term, tf, df, score
            FROM ranked WHERE rn <= 3
            ORDER BY doc_id, score DESC, term
        """,
        "type_token_ratio": f"""
            WITH toks AS (
                SELECT source, unnest(list_filter({tok},
                           t -> length(t) >= 2)) AS term
                FROM documents
            ),
            t AS (SELECT source, count(DISTINCT term) AS n_types,
                         count(*) AS n_tokens
                  FROM toks GROUP BY source)
            SELECT source, n_types, n_tokens,
                   round(n_types * 1.0 / n_tokens, 6) AS ttr
            FROM t ORDER BY source
        """,
        "term_cooccur": f"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(list_distinct(
                           list_filter({tok}, t -> length(t) >= 2))) AS term
                FROM documents
            ),
            df AS (SELECT term, count(*) AS df FROM toks GROUP BY term),
            band AS (SELECT term FROM df WHERE df BETWEEN 10 AND 400),
            bt AS (SELECT doc_id, term FROM toks JOIN band USING (term)),
            pairs AS (
                SELECT a.term AS term_a, b.term AS term_b,
                       count(*) AS n_docs
                FROM bt a JOIN bt b
                  ON a.doc_id = b.doc_id AND a.term < b.term
                GROUP BY 1, 2
            )
            SELECT term_a, term_b, CAST(n_docs AS BIGINT) AS n_docs
            FROM pairs ORDER BY n_docs DESC, term_a, term_b LIMIT 20
        """,
        "unpivot_long": """
            SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
                   m.metric, round(m.val, 4) AS val
            FROM lineitem,
                 LATERAL (VALUES ('quantity', l_quantity),
                                 ('extendedprice', l_extendedprice),
                                 ('discount', l_discount)) m(metric, val)
            ORDER BY l_orderkey, l_linenumber, m.metric
        """,
        "merge_upsert": """
            WITH base AS (
                SELECT doc_id, text FROM documents
            ),
            head AS (
                SELECT doc_id, text,
                       row_number() OVER (ORDER BY doc_id) AS rn
                FROM base ORDER BY doc_id LIMIT 10
            ),
            delta AS (
                SELECT doc_id, 'updated ' || text AS text, 'U' AS op
                FROM head WHERE rn <= 5
                UNION ALL
                SELECT doc_id, NULL, 'D' FROM head WHERE rn > 5
                UNION ALL
                SELECT doc_id + 5000000,
                       'inserted doc ' || CAST(doc_id AS VARCHAR), 'I'
                FROM head WHERE rn <= 5
            )
            SELECT COALESCE(d.doc_id, b.doc_id) AS doc_id,
                   CASE WHEN d.op IS NOT NULL THEN d.text
                        ELSE b.text END AS text
            FROM base b FULL OUTER JOIN delta d USING (doc_id)
            WHERE d.op IS NULL OR d.op <> 'D'
            ORDER BY doc_id
        """,
        "term_fuzzy_pairs": f"""
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 3000000, text || ' ' || mis
                FROM (SELECT doc_id, text,
                             row_number() OVER (ORDER BY doc_id) AS rn
                      FROM documents ORDER BY doc_id LIMIT 5) h
                JOIN (VALUES (1, 'tablee'), (2, 'valu'), (3, 'batchh'),
                             (4, 'mergee'), (5, 'sorta')) m(rn, mis)
                  USING (rn)
            ),
            terms AS (
                SELECT DISTINCT unnest(
                    list_filter({tok}, t -> length(t) >= 4)) AS term
                FROM aug
            )
            SELECT a.term AS term_a, b.term AS term_b
            FROM terms a JOIN terms b
              ON a.term < b.term
             AND abs(length(a.term) - length(b.term)) <= 1
             AND levenshtein(a.term, b.term) <= 1
            ORDER BY term_a, term_b
        """,
        "c4_clean": f"""
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 3000000,
                       text || chr(10) || {_sql_str(chr(10).join(_C4_JUNK_LINES))}
                FROM (SELECT doc_id, text FROM documents
                      ORDER BY doc_id LIMIT 5)
            ),
            split AS (
                SELECT doc_id,
                       string_split(text, chr(10)) AS lines,
                       list_filter(
                           string_split(text, chr(10)),
                           x -> len(string_split(x, ' ')) >= 5
                                AND trim(x) <> ''
                                AND NOT contains(x, '{{')
                                AND NOT contains(lower(x), 'javascript')
                                AND NOT contains(lower(x), 'lorem ipsum')
                       ) AS kept
                FROM aug
            )
            SELECT doc_id,
                   array_to_string(kept, chr(10)) AS clean_text,
                   CAST(len(kept) AS BIGINT) AS n_lines_kept,
                   CAST(len(lines) - len(kept) AS BIGINT) AS n_lines_dropped
            FROM split
            WHERE len(kept) >= 1
              AND len(string_split(array_to_string(kept, chr(10)), ' ')) >= 50
            ORDER BY doc_id
        """,
        "paragraph_dedup": f"""
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 3000000,
                       text || chr(10) || {_sql_str(_PARA_SHARED)}
                FROM (SELECT doc_id, text FROM documents
                      ORDER BY doc_id LIMIT 5)
            ),
            ex AS (
                SELECT doc_id,
                       unnest(string_split(text, chr(10))) AS para,
                       unnest(generate_series(
                           1, len(string_split(text, chr(10))))) AS i
                FROM aug
            ),
            marked AS (
                SELECT doc_id, i, para,
                       row_number() OVER (
                           PARTITION BY para ORDER BY doc_id, i
                       ) AS rn
                FROM ex
            )
            SELECT doc_id,
                   coalesce(string_agg(
                       CASE WHEN rn = 1 THEN para END, chr(10) ORDER BY i
                   ), '') AS clean_text,
                   CAST(count(*) FILTER (WHERE rn = 1) AS BIGINT)
                       AS n_paras_kept,
                   CAST(count(*) FILTER (WHERE rn > 1) AS BIGINT)
                       AS n_dupes_removed
            FROM marked GROUP BY doc_id ORDER BY doc_id
        """,
        "token_entropy": f"""
            WITH toks AS (
                SELECT doc_id,
                       list_filter({tok}, t -> length(t) >= 2) AS t
                FROM documents
            ),
            ex AS (SELECT doc_id, unnest(t) AS term FROM toks),
            cnt AS (
                SELECT doc_id, term, count(*) AS c
                FROM ex GROUP BY doc_id, term
            ),
            agg AS (
                SELECT doc_id,
                       sum(c) AS n,
                       sum(c * log2(c)) AS s
                FROM cnt GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(a.n, 0) AS BIGINT) AS n_tokens,
                   CASE WHEN a.n > 0
                        THEN round(log2(a.n) - a.s / a.n, 4) END
                       AS entropy_bits
            FROM documents d LEFT JOIN agg a USING (doc_id)
            ORDER BY d.doc_id
        """,
        "heavy_hitters": f"""
            WITH toks AS (
                SELECT list_filter({tok}, t -> length(t) >= 2) AS t
                FROM documents
            )
            SELECT g AS gram, count(*) AS cnt FROM (
                SELECT unnest(list_transform(range(1, len(t)),
                                             i -> t[i] || ' ' || t[i+1])) AS g
                FROM toks
            ) GROUP BY g HAVING count(*) >= 30 ORDER BY gram
        """,
        "top_grams_approx": f"""
            WITH toks AS (
                SELECT list_filter({tok}, t -> length(t) >= 2) AS t
                FROM documents
            )
            SELECT g AS gram, count(*) AS cnt FROM (
                SELECT unnest(list_transform(range(1, len(t)),
                                             i -> t[i] || ' ' || t[i+1])) AS g
                FROM toks
            ) GROUP BY g ORDER BY cnt DESC, gram LIMIT 25
        """,
        "term_df": f"""
            SELECT token AS term, count(DISTINCT doc_id) AS df
            FROM (SELECT doc_id, unnest({tok}) AS token FROM documents)
            WHERE length(token) >= 2
            GROUP BY token ORDER BY term
        """,
        "top_terms": f"""
            SELECT token AS term, count(*) AS tf
            FROM (SELECT doc_id, unnest({tok}) AS token FROM documents)
            WHERE length(token) >= 2
            GROUP BY token ORDER BY tf DESC, term LIMIT 20
        """,
        "doc_token_count": f"""
            SELECT doc_id,
                   coalesce(len(list_filter({tok}, t -> length(t) >= 2)), 0) AS n_tokens
            FROM documents ORDER BY doc_id
        """,
        "first_position": f"""
            SELECT doc_id,
                   CAST(list_position({tok}, 'spark') - 1 AS BIGINT) AS pos
            FROM documents
            WHERE list_position({tok}, 'spark') > 0
            ORDER BY doc_id
        """,
        "phrase_contains": f"""
            SELECT doc_id FROM documents
            WHERE contains(' ' || array_to_string({tok}, ' ') || ' ',
                           ' hash join ')
            ORDER BY doc_id
        """,
        "search_additive": f"""
            SELECT doc_id, count(*) AS score
            FROM (SELECT doc_id, unnest({tok}) AS token FROM documents)
            WHERE token IN ('hash', 'join', 'performance')
            GROUP BY doc_id
            ORDER BY score DESC, doc_id LIMIT 10
        """,
        "tfidf_rank": f"""
            WITH toks AS (
                SELECT doc_id,
                       list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            tf AS (
                SELECT doc_id, len(ts) AS total_words, token, count(*) AS tf
                FROM (SELECT doc_id, ts, unnest(ts) AS token FROM toks)
                WHERE token IN ('hash', 'join', 'performance')
                GROUP BY doc_id, len(ts), token
            ),
            stats AS (
                SELECT token, count(DISTINCT doc_id) AS df FROM tf GROUP BY token
            ),
            nn AS (SELECT count(DISTINCT doc_id) AS n FROM tf),
            scored AS (
                SELECT tf.doc_id,
                       sum((tf.tf * 1.0 / tf.total_words)
                           * log10(nn.n * 1.0 / (1 + stats.df))
                           * ((1.0 / 3) * log10(nn.n * 1.0 / (1 + stats.df)))) AS rel
                FROM tf JOIN stats USING (token) CROSS JOIN nn
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(rel / max(rel) OVER (), 9) AS score
            FROM scored
            ORDER BY round(rel / max(rel) OVER (), 9) DESC, doc_id LIMIT 10
        """,
        "bm25_simple": f"""
            WITH toks AS (
                SELECT doc_id, list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            dl AS (SELECT doc_id, len(ts) AS dl FROM toks),
            stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, token, count(*) AS tf
                FROM (SELECT doc_id, unnest(ts) AS token FROM toks)
                WHERE token IN ('hash', 'join', 'performance')
                GROUP BY doc_id, token
            ),
            df AS (SELECT token, count(*) AS df FROM tf GROUP BY token),
            scored AS (
                SELECT tf.doc_id,
                       sum(ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1)
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS raw_score
                FROM tf JOIN df USING (token) JOIN dl USING (doc_id)
                CROSS JOIN stats
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(raw_score, 6) AS score FROM scored
            ORDER BY raw_score DESC, doc_id LIMIT 10
        """,
        "search_lm_dirichlet": f"""
            WITH toks AS (
                SELECT doc_id, list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            dl AS (SELECT doc_id, len(ts) AS dl FROM toks),
            stats AS (SELECT sum(dl) AS total FROM dl),
            tf AS (
                SELECT doc_id, token, count(*) AS tf
                FROM (SELECT doc_id, unnest(ts) AS token FROM toks)
                WHERE token IN ('hash', 'join', 'performance')
                GROUP BY doc_id, token
            ),
            ctf AS (SELECT token, sum(tf) AS ctf FROM tf GROUP BY token),
            cand AS (SELECT DISTINCT doc_id FROM tf),
            scored AS (
                SELECT cand.doc_id,
                       sum(ln((coalesce(tf.tf, 0)
                               + 2000.0 * (ctf.ctf * 1.0 / stats.total))
                              / (dl.dl + 2000.0))) AS raw
                FROM cand
                CROSS JOIN (SELECT unnest(['hash', 'join', 'performance'])
                            AS token) qt
                JOIN ctf ON ctf.token = qt.token
                LEFT JOIN tf ON tf.doc_id = cand.doc_id
                            AND tf.token = qt.token
                JOIN dl ON dl.doc_id = cand.doc_id
                CROSS JOIN stats
                GROUP BY cand.doc_id
            )
            SELECT doc_id, round(raw, 6) AS score FROM scored
            ORDER BY raw DESC, doc_id LIMIT 10
        """,
        "rank_correlation": f"""
            WITH toks AS (
                SELECT doc_id, list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            dl AS (SELECT doc_id, len(ts) AS dl FROM toks),
            stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, token, count(*) AS tf
                FROM (SELECT doc_id, unnest(ts) AS token FROM toks)
                WHERE token IN ('hash', 'join', 'performance')
                GROUP BY 1, 2
            ),
            df AS (SELECT token, count(*) AS df FROM tf GROUP BY 1),
            nn AS (SELECT count(DISTINCT doc_id) AS nc FROM tf),
            bm AS (
                SELECT tf.doc_id,
                       sum(ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1)
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75
                                             + 0.75 * dl.dl / stats.avgdl)))
                           AS s
                FROM tf JOIN df USING (token) JOIN dl USING (doc_id)
                CROSS JOIN stats GROUP BY 1
            ),
            ti AS (
                SELECT tf.doc_id,
                       sum((tf.tf * 1.0 / dl.dl)
                           * log10(nn.nc * 1.0 / (1 + df.df))
                           * ((1.0 / 3)
                              * log10(nn.nc * 1.0 / (1 + df.df)))) AS s
                FROM tf JOIN df USING (token) JOIN dl USING (doc_id)
                CROSS JOIN nn GROUP BY 1
            ),
            r1 AS (SELECT doc_id,
                          row_number() OVER (ORDER BY round(s, 6) DESC,
                                             doc_id) - 1 AS r
                   FROM bm),
            r2 AS (SELECT doc_id,
                          row_number() OVER (ORDER BY round(s, 6) DESC,
                                             doc_id) - 1 AS r
                   FROM ti),
            d AS (SELECT sum((r1.r - r2.r) * (r1.r - r2.r)) AS d2,
                         count(*) AS n
                  FROM r1 JOIN r2 USING (doc_id))
            SELECT CAST(n AS BIGINT) AS n_common,
                   CAST(d2 AS BIGINT) AS sum_d2,
                   round(1.0 - 6.0 * d2 / (n * (n * n - 1.0)), 6)
                       AS spearman_rho
            FROM d
        """,
        "search_dfr_pl2": f"""
            WITH toks AS (
                SELECT doc_id, list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            dl AS (SELECT doc_id, len(ts) AS dl FROM toks),
            stats AS (SELECT sum(dl) AS total, count(*) AS n FROM dl),
            tf AS (
                SELECT doc_id, token, count(*) AS tf
                FROM (SELECT doc_id, unnest(ts) AS token FROM toks)
                WHERE token IN ('merge', 'join', 'column', 'scan')
                GROUP BY doc_id, token
            ),
            ctf AS (SELECT token, sum(tf) AS ctf FROM tf GROUP BY token),
            normed AS (
                SELECT tf.doc_id,
                       tf.tf * ln(1.0 + (stats.total * 1.0 / stats.n)
                                  / dl.dl) / ln(2) AS tfn,
                       ctf.ctf * 1.0 / stats.n AS lam
                FROM tf
                JOIN dl ON dl.doc_id = tf.doc_id
                JOIN ctf ON ctf.token = tf.token
                CROSS JOIN stats
            ),
            scored AS (
                SELECT doc_id,
                       sum((1.0 / (tfn + 1.0)) * (
                           tfn * ln(tfn / lam) / ln(2)
                           + (lam - tfn) / ln(2)
                           + 0.5 * ln(2 * pi() * tfn) / ln(2))) AS raw
                FROM normed GROUP BY doc_id
            )
            SELECT doc_id, round(raw, 6) AS score FROM scored
            ORDER BY raw DESC, doc_id LIMIT 10
        """,
        "ltr_linear": f"""
            WITH toks AS (
                SELECT doc_id, list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            feats AS (
                SELECT doc_id,
                       len(ts) AS dl,
                       len(list_filter(ts, t -> t = 'data')) AS tf,
                       (CASE WHEN list_contains(ts, 'data') THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(ts, 'hash') THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(ts, 'join') THEN 1 ELSE 0 END
                       ) AS y
                FROM toks
            ),
            sums AS (
                SELECT CAST(count(*) AS HUGEINT) AS n,
                       CAST(sum(dl) AS HUGEINT) AS s1,
                       CAST(sum(tf) AS HUGEINT) AS s2,
                       CAST(sum(dl * dl) AS HUGEINT) AS s11,
                       CAST(sum(dl * tf) AS HUGEINT) AS s12,
                       CAST(sum(tf * tf) AS HUGEINT) AS s22,
                       CAST(sum(y) AS HUGEINT) AS sy,
                       CAST(sum(dl * y) AS HUGEINT) AS s1y,
                       CAST(sum(tf * y) AS HUGEINT) AS s2y
                FROM feats
            ),
            dets AS (
                SELECT n*(s11*s22 - s12*s12) - s1*(s1*s22 - s12*s2)
                           + s2*(s1*s12 - s11*s2) AS det,
                       sy*(s11*s22 - s12*s12) - s1*(s1y*s22 - s12*s2y)
                           + s2*(s1y*s12 - s11*s2y) AS det0,
                       n*(s1y*s22 - s12*s2y) - sy*(s1*s22 - s12*s2)
                           + s2*(s1*s2y - s1y*s2) AS det1,
                       n*(s11*s2y - s1y*s12) - s1*(s1*s2y - s1y*s2)
                           + sy*(s1*s12 - s11*s2) AS det2
                FROM sums
            ),
            w AS (
                SELECT CAST(det0 AS DOUBLE) / CAST(det AS DOUBLE) AS w0,
                       CAST(det1 AS DOUBLE) / CAST(det AS DOUBLE) AS w1,
                       CAST(det2 AS DOUBLE) / CAST(det AS DOUBLE) AS w2
                FROM dets
            )
            SELECT doc_id,
                   round(w0 + w1 * dl + w2 * tf, 6) AS yhat,
                   round(w0, 6) AS w0, round(w1, 6) AS w1,
                   round(w2, 6) AS w2
            FROM feats CROSS JOIN w
            ORDER BY round(w0 + w1 * dl + w2 * tf, 6) DESC, doc_id
            LIMIT 20
        """,
        "search_lm_jm": f"""
            WITH toks AS (
                SELECT doc_id, list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            dl AS (SELECT doc_id, len(ts) AS dl FROM toks),
            stats AS (SELECT sum(dl) AS total FROM dl),
            tf AS (
                SELECT doc_id, token, count(*) AS tf
                FROM (SELECT doc_id, unnest(ts) AS token FROM toks)
                WHERE token IN ('hash', 'join', 'table')
                GROUP BY doc_id, token
            ),
            ctf AS (SELECT token, sum(tf) AS ctf FROM tf GROUP BY token),
            cand AS (SELECT DISTINCT doc_id FROM tf),
            scored AS (
                SELECT cand.doc_id,
                       sum(ln((1 - 0.3) * (coalesce(tf.tf, 0) * 1.0 / dl.dl)
                              + 0.3 * (ctf.ctf * 1.0 / stats.total))) AS raw
                FROM cand
                CROSS JOIN (SELECT unnest(['hash', 'join', 'table'])
                            AS token) qt
                JOIN ctf ON ctf.token = qt.token
                LEFT JOIN tf ON tf.doc_id = cand.doc_id
                            AND tf.token = qt.token
                JOIN dl ON dl.doc_id = cand.doc_id
                CROSS JOIN stats
                GROUP BY cand.doc_id
            )
            SELECT doc_id, round(raw, 6) AS score FROM scored
            ORDER BY raw DESC, doc_id LIMIT 10
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id, count(*) AS n_dups
            FROM documents GROUP BY text ORDER BY doc_id
        """,
        "ngram_jaccard": """
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
                FROM documents
            ),
            grams AS (
                SELECT DISTINCT doc_id, g
                FROM (
                    SELECT doc_id,
                           CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
                                ELSE list_transform(range(1, len(ts) - 1),
                                                    i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
                           END AS gs
                    FROM toks WHERE len(ts) >= 1
                ), unnest(gs) AS u(g)
            ),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
            inter AS (
                SELECT g1.doc_id AS a, g2.doc_id AS b, count(*) AS c
                FROM grams g1 JOIN grams g2 ON g1.g = g2.g AND g1.doc_id < g2.doc_id
                GROUP BY 1, 2
            )
            SELECT a, b, round(c * 1.0 / (sa.n + sb.n - c), 9) AS jaccard
            FROM inter
            JOIN sizes sa ON inter.a = sa.doc_id
            JOIN sizes sb ON inter.b = sb.doc_id
            WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.5
            ORDER BY a, b
        """,
        "compact_signature": f"""
            SELECT doc_id,
                   array_to_string(
                     list_transform(
                       list_filter({ws_tok},
                                   t -> length(t) > 2 AND regexp_matches(t, '^[a-zA-Z0-9]')),
                       t -> t[1]), '') AS signature
            FROM documents ORDER BY doc_id
        """,
        "compact_dedup": f"""
            SELECT min(doc_id) AS doc_id, count(*) AS n_members
            FROM (SELECT doc_id,
                         array_to_string(
                           list_transform(
                             list_filter({ws_tok},
                                         t -> length(t) > 2 AND regexp_matches(t, '^[a-zA-Z0-9]')),
                             t -> t[1]), '') AS signature
                  FROM documents)
            GROUP BY signature ORDER BY doc_id
        """,
        "token_counts": f"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(list_filter({ws_tok}, t -> t <> '')) END AS n_ws_tokens,
                   len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS n_word_tokens,
                   len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]+')) AS n_bpe_tokens
            FROM documents ORDER BY doc_id
        """,
        "quality_scores": f"""
            WITH toks AS (
                SELECT doc_id, length(text) AS n_chars, text,
                       CASE WHEN trim(text) = '' THEN []
                            ELSE list_filter({ws_tok}, t -> t <> '') END AS ts
                FROM documents
            )
            SELECT doc_id, n_chars,
                   round(CASE WHEN len(ts) = 0 THEN 0.0
                        ELSE list_sum(list_transform(ts, t -> length(t))) * 1.0 / len(ts) END, 9) AS mean_token_len,
                   round(CASE WHEN length(text) = 0 THEN 0.0
                        ELSE length(regexp_replace(text, '[^.,;:!?''"()\\[\\]{{}}-]', '', 'g')) * 1.0 / length(text) END, 9) AS punct_ratio,
                   round(CASE WHEN length(text) = 0 THEN 0.0
                        ELSE length(regexp_replace(text, '[^0-9]', '', 'g')) * 1.0 / length(text) END, 9) AS digit_ratio,
                   round(CASE WHEN length(text) = 0 THEN 0.0
                        ELSE length(regexp_replace(text, '[^A-Z]', '', 'g')) * 1.0 / length(text) END, 9) AS upper_ratio,
                   round(CASE WHEN len(ts) = 0 THEN 0.0
                        ELSE len(list_filter(ts, t -> lower(t) IN {_EN_STOPS_SQL})) * 1.0 / len(ts) END, 9) AS stopword_ratio
            FROM toks ORDER BY doc_id
        """,
        "lang_id": f"""
            WITH toks AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN []
                            ELSE list_filter({ws_tok}, t -> t <> '') END AS ts
                FROM documents
            )
            SELECT doc_id,
                   round(CASE WHEN len(ts) = 0 THEN 0.0
                        ELSE len(list_filter(ts, t -> lower(t) IN {_EN_STOPS_SQL})) * 1.0 / len(ts) END, 9) AS en_stop_ratio,
                   CASE WHEN (CASE WHEN len(ts) = 0 THEN 0.0
                        ELSE len(list_filter(ts, t -> lower(t) IN {_EN_STOPS_SQL})) * 1.0 / len(ts) END) >= 0.08
                        THEN 'en' ELSE 'other' END AS pred_lang
            FROM toks ORDER BY doc_id
        """,
        "ann_topk": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                WHERE vec_id IN (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3)
            ),
            sims AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                              CAST(e.embedding AS DOUBLE[])) AS cosine
                FROM q CROSS JOIN embeddings e
            ),
            ranked AS (
                SELECT query_id, vec_id, cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id) - 1 AS rank
                FROM sims
            )
            SELECT query_id, rank, vec_id, round(cosine, 6) AS cosine
            FROM ranked WHERE rank < 5 ORDER BY query_id, rank
        """,
        "hard_negatives": """
            WITH q AS (
                SELECT vec_id AS query_id, label AS ql, embedding AS qe
                FROM embeddings
                WHERE vec_id IN (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3)
            ),
            sims AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                              CAST(e.embedding AS DOUBLE[])) AS cosine
                FROM q JOIN embeddings e ON e.label <> q.ql
            ),
            ranked AS (
                SELECT query_id, vec_id, cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id) - 1 AS rank
                FROM sims
            )
            SELECT query_id, rank, vec_id, round(cosine, 6) AS cosine
            FROM ranked WHERE rank < 5 ORDER BY query_id, rank
        """,
        # dumped-assignment oracles: the query fn dumps the (seeded, non-SQL)
        # bucket/list assignments + per-query probe sets; DuckDB independently
        # recomputes candidate selection, cosine and the (-cosine, vec_id)
        # top-k over them (same trick as the dumped-token-table oracles)
        "ann_lsh_topk": f"""
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                WHERE vec_id IN (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3)
            ),
            assign AS (SELECT * FROM read_parquet('{_ANN_LSH_DUMP_DIR}/assign.parquet')),
            probes AS (SELECT * FROM read_parquet('{_ANN_LSH_DUMP_DIR}/probes.parquet')),
            cand AS (
                SELECT DISTINCT p.query_id, a.vec_id
                FROM probes p JOIN assign a ON a.bucket = p.bucket
            ),
            sims AS (
                SELECT c.query_id, c.vec_id,
                       list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                              CAST(e.embedding AS DOUBLE[])) AS cosine
                FROM cand c
                JOIN q ON q.query_id = c.query_id
                JOIN embeddings e ON e.vec_id = c.vec_id
            ),
            ranked AS (
                SELECT query_id, vec_id, cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id) - 1 AS rank
                FROM sims
            )
            SELECT query_id, rank, vec_id, round(cosine, 6) AS cosine
            FROM ranked WHERE rank < 5 ORDER BY query_id, rank
        """,
        "ann_ivf_topk": f"""
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                WHERE vec_id IN (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3)
            ),
            assign AS (SELECT * FROM read_parquet('{_ANN_IVF_DUMP_DIR}/assign.parquet')),
            probes AS (SELECT * FROM read_parquet('{_ANN_IVF_DUMP_DIR}/probes.parquet')),
            cand AS (
                SELECT DISTINCT p.query_id, a.vec_id
                FROM probes p JOIN assign a ON a.ivf_list = p.ivf_list
            ),
            sims AS (
                SELECT c.query_id, c.vec_id,
                       list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                              CAST(e.embedding AS DOUBLE[])) AS cosine
                FROM cand c
                JOIN q ON q.query_id = c.query_id
                JOIN embeddings e ON e.vec_id = c.vec_id
            ),
            ranked AS (
                SELECT query_id, vec_id, cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id) - 1 AS rank
                FROM sims
            )
            SELECT query_id, rank, vec_id, round(cosine, 6) AS cosine
            FROM ranked WHERE rank < 5 ORDER BY query_id, rank
        """,
        # dumped-signature oracle: band-bucket candidates + hamming verify +
        # cross-band pair dedup recomputed in SQL over the dumped sig table
        "simhash_pairs": f"""
            WITH sig AS (
                -- replicate the engine's per-bucket cap: first 50 distinct
                -- (doc_id, simhash) rows in sorted order (dedup.py
                -- bucket_pairs truncation)
                SELECT * FROM read_parquet('{_SIMHASH_DUMP_DIR}/sig.parquet')
                QUALIFY row_number() OVER (PARTITION BY band, band_key
                                           ORDER BY doc_id, simhash) <= 50
            ),
            cand AS (
                SELECT DISTINCT s1.doc_id AS a, s2.doc_id AS b,
                       s1.simhash AS ha, s2.simhash AS hb
                FROM sig s1 JOIN sig s2
                  ON s1.band = s2.band AND s1.band_key = s2.band_key
                 AND s1.doc_id < s2.doc_id
            )
            SELECT a, b, CAST(bit_count(xor(ha, hb)) AS INTEGER) AS hamming
            FROM cand WHERE bit_count(xor(ha, hb)) <= 3
            ORDER BY a, b
        """,
        # dumped-token-hash oracle: winnowed Rabin-Karp (k=5 polynomial
        # k-gram hash, w=8 sliding minima, distinct-min XOR) recomputed in
        # SQL with HUGEINT mod-2^64 arithmetic over the dumped crc32 stream
        "fingerprints": f"""
            WITH tok AS (
                SELECT doc_id, pos, CAST(th AS HUGEINT) AS th
                FROM read_parquet('{_FP_DUMP_DIR}/tok.parquet')
            ),
            counts AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
            kgram AS (
                SELECT t.doc_id, t.pos, c.n,
                       (t.th * {pow(1000003, 4, 1 << 64)}
                        + lead(t.th, 1) OVER w * {pow(1000003, 3, 1 << 64)}
                        + lead(t.th, 2) OVER w * {pow(1000003, 2, 1 << 64)}
                        + lead(t.th, 3) OVER w * 1000003
                        + lead(t.th, 4) OVER w) % {1 << 64} AS kg
                FROM tok t JOIN counts c USING (doc_id)
                WHERE c.n >= 5
                WINDOW w AS (PARTITION BY t.doc_id ORDER BY t.pos)
                QUALIFY t.pos <= c.n - 5
            ),
            slid AS (
                SELECT doc_id, pos, n,
                       min(kg) OVER (PARTITION BY doc_id ORDER BY pos
                                     ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING)
                           AS wmin
                FROM kgram
            ),
            mins AS (
                SELECT DISTINCT doc_id, wmin AS m
                FROM slid WHERE n - 4 > 8 AND pos <= n - 12
                UNION
                SELECT doc_id, min(kg) AS m
                FROM kgram WHERE n - 4 <= 8 GROUP BY doc_id
            ),
            long_fp AS (
                SELECT doc_id, bit_xor(CAST(m AS UBIGINT)) AS fp
                FROM mins GROUP BY doc_id
            ),
            short_fp AS (
                SELECT t.doc_id,
                       list_reduce(list(t.th ORDER BY t.pos),
                                   (a, b) -> (a * 1000003 + b) % {1 << 64}) AS fp
                FROM tok t JOIN counts c USING (doc_id)
                WHERE c.n < 5
                GROUP BY t.doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(l.fp, s.fp, 0) AS UBIGINT) AS fingerprint
            FROM documents d
            LEFT JOIN long_fp l ON l.doc_id = d.doc_id
            LEFT JOIN short_fp s ON s.doc_id = d.doc_id
            ORDER BY d.doc_id
        """,
        # curation ops: fully SQL-expressible (string n-grams / list slices /
        # RE2-compatible regexes), so no dumps — DuckDB rebuilds everything
        "decontaminate": """
            WITH bench AS (
                SELECT doc_id, text FROM documents
                WHERE doc_id IN (SELECT doc_id FROM documents
                                 ORDER BY doc_id LIMIT 10)
            ),
            train AS (
                SELECT doc_id, text FROM documents
                WHERE doc_id NOT IN (SELECT doc_id FROM bench)
                UNION ALL
                SELECT doc_id + 2000000, text
                FROM (SELECT doc_id, text FROM bench ORDER BY doc_id LIMIT 5)
            ),
            btok AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
                FROM bench
            ),
            bidx AS (
                SELECT doc_id, tk,
                       unnest(generate_series(1, greatest(len(tk) - 7, 0)))
                           AS i
                FROM btok
            ),
            bgrams AS (
                SELECT DISTINCT array_to_string(tk[i : i + 7], ' ') AS g
                FROM bidx
            ),
            ttok AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
                FROM train
            ),
            tidx AS (
                SELECT doc_id, tk,
                       unnest(generate_series(1, greatest(len(tk) - 7, 0)))
                           AS i
                FROM ttok
            ),
            tgram AS (
                SELECT doc_id, array_to_string(tk[i : i + 7], ' ') AS g
                FROM tidx
            ),
            hits AS (
                SELECT doc_id, count(*) AS n_contaminated
                FROM tgram WHERE g IN (SELECT g FROM bgrams)
                GROUP BY doc_id
            )
            SELECT t.doc_id,
                   greatest(len(tk) - 7, 0) AS n_grams,
                   COALESCE(h.n_contaminated, 0) AS n_contaminated,
                   COALESCE(h.n_contaminated, 0) > 0 AS contaminated
            FROM ttok t LEFT JOIN hits h USING (doc_id)
            ORDER BY t.doc_id
        """,
        "chunk_windows": """
            WITH ttok AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
                FROM documents
            ),
            starts AS (
                SELECT doc_id, tk,
                       unnest(generate_series(
                           0, CAST(len(tk) AS BIGINT) - 1, 16)) AS s
                FROM ttok
            )
            SELECT doc_id,
                   s // 16 AS chunk_id,
                   CAST(s AS BIGINT) AS start_tok,
                   least(32, len(tk) - s) AS n_tokens,
                   array_to_string(tk[s + 1 : s + 32], ' ') AS chunk_text
            FROM starts
            ORDER BY doc_id, chunk_id
        """,
        # Gopher repetition rules: n-gram multiplicity fractions per doc
        "repetition_scores": """
            WITH ttok AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
                FROM documents
            ),
            g2i AS (
                SELECT doc_id, tk,
                       unnest(generate_series(1, greatest(len(tk) - 1, 0)))
                           AS i
                FROM ttok
            ),
            g2c AS (
                SELECT doc_id, array_to_string(tk[i : i + 1], ' ') AS g,
                       count(*) AS c
                FROM g2i GROUP BY doc_id, g
            ),
            g2s AS (
                SELECT doc_id,
                       CAST(max(c) AS DOUBLE) / sum(c) AS top2
                FROM g2c GROUP BY doc_id
            ),
            g5i AS (
                SELECT doc_id, tk,
                       unnest(generate_series(1, greatest(len(tk) - 4, 0)))
                           AS i
                FROM ttok
            ),
            g5c AS (
                SELECT doc_id, array_to_string(tk[i : i + 4], ' ') AS g,
                       count(*) AS c
                FROM g5i GROUP BY doc_id, g
            ),
            g5s AS (
                SELECT doc_id,
                       CAST(sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS DOUBLE)
                           / sum(c) AS dup5
                FROM g5c GROUP BY doc_id
            )
            SELECT t.doc_id,
                   round(COALESCE(g2s.top2, 0.0), 9) AS top2gram_frac,
                   round(COALESCE(g5s.dup5, 0.0), 9) AS dup5gram_frac,
                   COALESCE(g2s.top2, 0.0) > 0.20
                       OR COALESCE(g5s.dup5, 0.0) > 0.30 AS repetitive
            FROM ttok t
            LEFT JOIN g2s ON g2s.doc_id = t.doc_id
            LEFT JOIN g5s ON g5s.doc_id = t.doc_id
            ORDER BY t.doc_id
        """,
        # GPT-style packing: concatenate token streams in doc_id order,
        # split at 128-token boundaries; pure window-cumsum arithmetic
        "pack_sequences": """
            WITH t AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                            AS BIGINT) AS n
                FROM documents
            ),
            o AS (
                SELECT doc_id, n,
                       CAST(COALESCE(sum(n) OVER (ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING), 0) AS BIGINT) AS off
                FROM t
            ),
            idx AS (
                SELECT doc_id, n, off,
                       unnest(generate_series(off // 128,
                                              (off + n - 1) // 128)) AS seq_id
                FROM o WHERE n > 0
            )
            SELECT seq_id, doc_id,
                   greatest(seq_id * 128, off) - off AS doc_start_tok,
                   least((seq_id + 1) * 128, off + n)
                       - greatest(seq_id * 128, off) AS n_tokens
            FROM idx ORDER BY seq_id, doc_id
        """,
        "redact_pii": f"""
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 3000000,
                       text || ' contact john.doe@example.com or 555-123-4567 now'
                FROM (SELECT doc_id, text FROM documents
                      ORDER BY doc_id LIMIT 5)
            ),
            pass1 AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(text, '{_EMAIL_RE}')) AS BIGINT)
                           AS n_emails,
                       regexp_replace(text, '{_EMAIL_RE}', '[EMAIL]', 'g') AS t2
                FROM aug
            )
            SELECT doc_id,
                   regexp_replace(t2, '{_PHONE_RE}', '[PHONE]', 'g') AS clean_text,
                   n_emails,
                   CAST(len(regexp_extract_all(t2, '{_PHONE_RE}')) AS BIGINT)
                       AS n_phones
            FROM pass1 ORDER BY doc_id
        """,
        # dumped-decode oracles: the container parse (PPM/NVID/WAV) is the
        # non-SQL stage; its output (resized pixels / source frames /
        # PCM samples) is dumped and DuckDB recomputes everything
        # downstream — gray + grid means, sampling arithmetic, windowed RMS
        "multimodal_decode": f"""
            WITH px AS (
                SELECT * FROM read_parquet('{_MM_DUMP_DIR}/pixels.parquet')
            ),
            meta AS (
                SELECT * FROM read_parquet('{_MM_DUMP_DIR}/image_meta.parquet')
            ),
            cells AS (
                SELECT media_id,
                       (y // 16) * 4 + (x // 16) AS feat_idx,
                       avg((r + g + b) / 3.0 / 255.0) AS v
                FROM px GROUP BY media_id, (y // 16) * 4 + (x // 16)
            )
            SELECT c.media_id, m.width, m.height,
                   CAST(c.feat_idx AS BIGINT) AS feat_idx,
                   round(c.v, 6) AS value
            FROM cells c JOIN meta m USING (media_id)
            ORDER BY c.media_id, feat_idx
        """,
        "multimodal_frames": f"""
            WITH meta AS (
                SELECT * FROM read_parquet('{_MM_DUMP_DIR}/video_meta.parquet')
            ),
            fr AS (
                SELECT * FROM read_parquet('{_MM_DUMP_DIR}/frames.parquet')
            ),
            sel AS (
                SELECT media_id, nf, fps,
                       unnest(generate_series(0, 3)) AS f
                FROM meta
            ),
            calc AS (
                SELECT media_id, CAST(f AS INTEGER) AS frame,
                       least(nf - 1, (f * nf) // 4) AS src,
                       CAST(floor(least(nf - 1, (f * nf) // 4) * 1000.0 / fps)
                            AS INTEGER) AS ts_ms
                FROM sel
            )
            SELECT c.media_id, c.frame, c.ts_ms,
                   md5(lower(hex(fr.frame_bytes))) AS frame_md5
            FROM calc c
            JOIN fr ON fr.media_id = c.media_id AND fr.src = c.src
            ORDER BY c.media_id, c.frame
        """,
        "multimodal_audio": f"""
            WITH s AS (
                SELECT * FROM read_parquet('{_MM_DUMP_DIR}/samples.parquet')
            ),
            meta AS (
                SELECT * FROM read_parquet('{_MM_DUMP_DIR}/audio_meta.parquet')
            ),
            cnt AS (SELECT media_id, count(*) AS n FROM s GROUP BY media_id),
            par AS (
                SELECT m.media_id, m.rate AS win,
                       greatest(1, c.n // m.rate) AS n_windows
                FROM meta m JOIN cnt c USING (media_id)
            )
            SELECT s.media_id,
                   CAST(s.idx // p.win AS INTEGER) AS "window",
                   CAST((s.idx // p.win) * 1000 AS INTEGER) AS window_start_ms,
                   round(sqrt(avg(CAST(s.sample AS DOUBLE) * s.sample))
                         / 32768.0, 9) AS energy
            FROM s JOIN par p USING (media_id)
            WHERE s.idx // p.win < p.n_windows
            GROUP BY s.media_id, s.idx // p.win, p.win
            ORDER BY s.media_id, "window"
        """,
        # dumped-hash oracle: the splitmix64 register/rank pairs are dumped;
        # SQL recomputes the HLL register max + harmonic-mean estimator
        # (with small-range correction) and the ENTIRE grid-quantile sketch
        # (pure arithmetic over events.value — no dump needed for it)
        "sketch_stats": f"""
            WITH ranks AS (
                SELECT idx, rank
                FROM read_parquet('{_HLL_DUMP_DIR}/ranks.parquet')
            ),
            regs AS (SELECT idx, max(rank) AS r FROM ranks GROUP BY idx),
            hll_parts AS (
                SELECT (SELECT sum(pow(2.0, -r)) FROM regs)
                       + (4096 - (SELECT count(*) FROM regs)) AS denom,
                       4096 - (SELECT count(*) FROM regs) AS zeros
            ),
            hll_est AS (
                SELECT CASE WHEN raw <= 2.5 * 4096 AND zeros > 0
                            THEN 4096 * ln(4096.0 / zeros)
                            ELSE raw END AS e
                FROM (SELECT (0.7213 / (1.0 + 1.079 / 4096)) * 4096 * 4096
                             / denom AS raw, zeros
                      FROM hll_parts)
            ),
            hist AS (
                SELECT CAST(floor(LEAST(GREATEST(
                           value / 1000.0 * 2048, 0.0), 2047.0)) AS BIGINT)
                           AS b,
                       count(*) AS c
                FROM events GROUP BY 1
            ),
            cdf AS (SELECT b, c, sum(c) OVER (ORDER BY b) AS cum FROM hist),
            tot AS (SELECT CAST(sum(c) AS DOUBLE) AS t FROM hist),
            qv(q) AS (VALUES (CAST(0.5 AS DOUBLE)), (CAST(0.9 AS DOUBLE)),
                             (CAST(0.99 AS DOUBLE))),
            pick AS (
                SELECT q, min(b) AS i
                FROM qv, cdf, tot WHERE cum >= q * t GROUP BY q
            ),
            quant AS (
                SELECT q,
                       (i + (q * t - prev) / hc) * (1000.0 / 2048) AS v
                FROM (
                    SELECT p.q, p.i, tot.t,
                           COALESCE((SELECT cum FROM cdf
                                     WHERE b < p.i
                                     ORDER BY b DESC LIMIT 1), 0) AS prev,
                           (SELECT c FROM cdf WHERE b = p.i) AS hc
                    FROM pick p, tot
                )
            )
            SELECT 'hll_distinct_orderkeys' AS metric,
                   round(e, 3) AS estimate FROM hll_est
            UNION ALL
            SELECT 'value_p50', round(v, 6) FROM quant WHERE q = 0.5
            UNION ALL
            SELECT 'value_p90', round(v, 6) FROM quant WHERE q = 0.9
            UNION ALL
            SELECT 'value_p99', round(v, 6) FROM quant WHERE q = 0.99
        """,
        # LSH candidates + distributed exact verify == the capless all-pairs
        # jaccard join up to the ~1e-8/pair LSH miss probability (dedup.py
        # MinHashBatch docstring) — same oracle as ngram_jaccard.
        "minhash_lsh_pairs": f"""
            WITH {_gram_pair_ctes("documents")}
            SELECT a, b, jaccard FROM jpairs ORDER BY a, b
        """,
        "near_dup_clusters": f"""
            WITH RECURSIVE {_gram_pair_ctes("documents")},
            edges AS (
                SELECT a AS u, b AS v FROM jpairs
                UNION SELECT b, a FROM jpairs
            ),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
            )
            SELECT u AS node, least(u, min(v)) AS cluster
            FROM reach GROUP BY u ORDER BY node
        """,
        "embedding_near_dup": """
            WITH base AS (
                SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                FROM embeddings
            ),
            aug AS (
                SELECT vec_id, v FROM base
                UNION ALL
                SELECT vec_id + 1000000,
                       list_concat([v[1] * 1.25], v[2:])
                FROM base
                WHERE vec_id IN (SELECT vec_id FROM base ORDER BY vec_id LIMIT 5)
            )
            SELECT a1.vec_id AS a, a2.vec_id AS b,
                   round(list_cosine_similarity(a1.v, a2.v), 6) AS cosine
            FROM aug a1 JOIN aug a2 ON a1.vec_id < a2.vec_id
            WHERE list_cosine_similarity(a1.v, a2.v) >= 0.95
            ORDER BY a, b
        """,
        "pagerank_power": _PAGERANK_POWER_SQL,
        "ppr_scores": _ppr_sql(),
        "hits_scores": _hits_sql(),
        "pagerank_quirk": _PAGERANK_QUIRK_SQL,
        # exact output after prefilter+verify -> plain semi join
        "bloom_semi_join": """
            SELECT o_orderkey FROM orders
            WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem)
            ORDER BY o_orderkey
        """,
        # the oracle REBUILDS the bitmap from the closed-form affine
        # hashes (stages/bloom.py docstring): bit_i(key) =
        # ((a_i * (|key| % P) + b_i) % P) % m, P = 2^31 - 1
        "bloom_stats": """
            WITH iv AS (SELECT unnest(range(1, 4)) AS i),
            hc AS (
                SELECT i,
                       (1103515245 * i + 12345) % 2147483647 AS a,
                       (i * 2654435761) % 2147483647 AS b
                FROM iv
            ),
            rk AS (SELECT DISTINCT l_orderkey AS key FROM lineitem),
            bits AS (
                SELECT DISTINCT
                    ((hc.a * (abs(rk.key) % 2147483647) + hc.b)
                     % 2147483647) % 131072 AS bit
                FROM rk CROSS JOIN hc
            ),
            probe AS (SELECT o_orderkey AS key FROM orders),
            ph AS (
                SELECT probe.key, hc.i,
                    ((hc.a * (abs(probe.key) % 2147483647) + hc.b)
                     % 2147483647) % 131072 AS bit
                FROM probe CROSS JOIN hc
            ),
            cand AS (
                SELECT ph.key FROM ph LEFT JOIN bits USING (bit)
                GROUP BY ph.key HAVING count(bits.bit) = 3
            ),
            exact AS (SELECT key FROM probe
                      WHERE key IN (SELECT key FROM rk))
            SELECT CAST(131072 AS BIGINT) AS m,
                   CAST(3 AS BIGINT) AS k,
                   (SELECT count(*) FROM bits) AS n_set_bits,
                   (SELECT count(*) FROM cand) AS n_candidates,
                   (SELECT count(*) FROM exact) AS n_exact,
                   (SELECT count(*) FROM cand)
                   - (SELECT count(*) FROM exact) AS n_false_positives
        """,
        "fingerprint_sha": """
            SELECT doc_id,
                   substr(md5(array_to_string(
                       regexp_extract_all(lower(text), '[a-z0-9_]+'), ' ')),
                       1, 16) AS fp16
            FROM documents ORDER BY doc_id
        """,
        "training_pipeline": f"""
            WITH gated AS (
                SELECT doc_id, text,
                       {ws_list} AS ts
                FROM documents
            ),
            q AS (
                SELECT doc_id, text FROM gated
                WHERE len(ts) >= 3
                  AND len(list_filter(ts, t -> lower(t) IN {_EN_STOPS_SQL})) * 1.0
                      / len(ts) <= 0.9
            ),
            w AS (SELECT min(doc_id) AS doc_id FROM q GROUP BY text),
            d AS (SELECT q.doc_id, q.text FROM q JOIN w ON q.doc_id = w.doc_id),
            {_gram_pair_ctes("d")},
            kept AS (
                SELECT doc_id, text FROM d
                WHERE doc_id NOT IN (SELECT b FROM jpairs)
            )
            SELECT doc_id,
                   len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS n_tokens,
                   CASE WHEN (CASE WHEN len({ws_list}) = 0 THEN 0.0
                              ELSE len(list_filter({ws_list},
                                       t -> lower(t) IN {_EN_STOPS_SQL})) * 1.0
                                   / len({ws_list}) END) >= 0.08
                        THEN 'en' ELSE 'other' END AS pred_lang
            FROM kept ORDER BY doc_id
        """,
        # dumped-token-table oracles (the real-tokenizer stream is
        # materialized to parquet by the query fns; everything downstream
        # of tokenization — df, reference ranking, BM25, phrase adjacency,
        # the incremental merge — is recomputed independently by DuckDB)
        "index_term_df_real": (
            f"SELECT term, count(*) AS df "
            f"FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet') "
            f"GROUP BY term ORDER BY term"
        ),
        "index_lineage": f"""
            WITH per AS (
                SELECT * FROM read_parquet('{_MAIN_DUMP_DIR}/seg.parquet')),
            s AS (
                SELECT CAST(shard AS BIGINT) AS shard,
                       count(*) AS n_terms, sum(df) AS n_postings,
                       sum(docs_bytes) AS docs_bytes,
                       sum(tfs_bytes) AS tfs_bytes,
                       sum(weights_bytes) AS weights_bytes,
                       sum(positions_bytes) AS positions_bytes
                FROM per GROUP BY shard),
            tot AS (
                SELECT CAST(-1 AS BIGINT) AS shard,
                       (SELECT count(DISTINCT term) FROM
                        read_parquet('{_MAIN_DUMP_DIR}/tok.parquet'))
                           AS n_terms,
                       (SELECT count(*) FROM
                        read_parquet('{_MAIN_DUMP_DIR}/tok.parquet'))
                           AS n_postings,
                       (SELECT sum(docs_bytes) FROM per) AS docs_bytes,
                       (SELECT sum(tfs_bytes) FROM per) AS tfs_bytes,
                       (SELECT sum(weights_bytes) FROM per)
                           AS weights_bytes,
                       (SELECT sum(positions_bytes) FROM per)
                           AS positions_bytes)
            SELECT shard, CAST(n_terms AS BIGINT) AS n_terms,
                   CAST(n_postings AS BIGINT) AS n_postings,
                   CAST(docs_bytes AS BIGINT) AS docs_bytes,
                   CAST(tfs_bytes AS BIGINT) AS tfs_bytes,
                   CAST(weights_bytes AS BIGINT) AS weights_bytes,
                   CAST(positions_bytes AS BIGINT) AS positions_bytes
            FROM (SELECT * FROM tot UNION ALL SELECT * FROM s)
            ORDER BY shard
        """,
        "index_df_bitpack": (
            f"SELECT term, count(*) AS df "
            f"FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet') "
            f"GROUP BY term ORDER BY term"
        ),
        "index_df_ef": (
            f"SELECT term, count(*) AS df "
            f"FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet') "
            f"GROUP BY term ORDER BY term"
        ),
        # faceted search: matched set (OR / AND over the token table)
        # joined to the dumped facet columns, counted per value
        "facet_counts": _facet_sql("any"),
        "facet_counts_all": _facet_sql("all"),
        # numeric stats per facet value over matched docs; avg computed
        # as int-sum / count in BOTH engines for bit parity
        "facet_stats": f"""
            WITH matched AS (
                SELECT DISTINCT doc_int
                FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
                WHERE term IN ('search', 'engin', 'index')
            )
            SELECT m.lang AS value,
                   count(*) AS n_docs,
                   CAST(sum(ds.total_words) AS BIGINT) AS sum_words,
                   round(CAST(sum(ds.total_words) AS DOUBLE) / count(*), 6)
                       AS avg_words,
                   CAST(min(ds.total_words) AS BIGINT) AS min_words,
                   CAST(max(ds.total_words) AS BIGINT) AS max_words
            FROM matched
            JOIN read_parquet('{_MAIN_DUMP_DIR}/docmeta.parquet') m
                 USING (doc_int)
            JOIN read_parquet('{_MAIN_DUMP_DIR}/docstats.parquet') ds
                 USING (doc_int)
            GROUP BY m.lang ORDER BY m.lang
        """,
        "spell_correct": _spell_sql(),
        "spell_correct_kgram": _spell_sql(),
        "prefix_suggest": _prefix_sql(),
        "prefix_suggest_kgram": _prefix_sql(),
        "boolean_search": _bool_sql(),
        "wildcard_terms": _wildcard_sql(),
        "champion_lists": _CHAMPION_SQL_TMPL.format(dump=_MAIN_DUMP_DIR),
        "wildcard_kgram": _wildcard_sql(),
        "numeric_range": _NUMERIC_RANGE_SQL.format(dump=_MAIN_DUMP_DIR),
        "more_like_this": _MLT_SQL.format(dump=_MAIN_DUMP_DIR),
        # every qualifying (pos_a, pos_b) combination within the window,
        # same doc + same field, unordered pair (term_a < term_b)
        "proximity_pairs": f"""
            WITH p AS (SELECT term, doc_int, field, pos
                       FROM read_parquet('{_MAIN_DUMP_DIR}/pos.parquet'))
            SELECT p1.term AS term_a, p2.term AS term_b,
                   p1.doc_int AS doc_int, count(*) AS n_pairs
            FROM p p1 JOIN p p2
              ON p1.doc_int = p2.doc_int AND p1.field = p2.field
             AND p1.term < p2.term
             AND abs(p1.pos - p2.pos) <= 3
            GROUP BY 1, 2, 3
            ORDER BY 1, 2, 3
        """,
        "proximity_ordered": f"""
            WITH p AS (SELECT term, doc_int, field, pos
                       FROM read_parquet('{_MAIN_DUMP_DIR}/pos.parquet'))
            SELECT p1.term AS term_a, p2.term AS term_b,
                   p1.doc_int AS doc_int, count(*) AS n_pairs
            FROM p p1 JOIN p p2
              ON p1.doc_int = p2.doc_int AND p1.field = p2.field
             AND p1.term < p2.term
             AND p2.pos - p1.pos BETWEEN 1 AND 3
            GROUP BY 1, 2, 3
            ORDER BY 1, 2, 3
        """,
        # both posting-codec framings recomputed analytically: varint bytes
        # = ceil(bit_length/7) per delta-gap (min 1); bitpack bytes =
        # varint(n) header + 1 width byte per 128-value block + per-block
        # ceil(cnt*max_bits/8) payload (functions/codec.py format note).
        # bin(x) has no leading zeros in DuckDB, so length(bin(g)) IS
        # bit_length(g) for g>0; the first gap is the absolute first doc_int
        # (may be 0 -> width 0, varint 1 byte).
        "posting_codec_sizes": _codec_sizes_sql(dense=False),
        "posting_codec_sizes_dense": _codec_sizes_sql(dense=True),
        "search_reference": _search_reference_sql(),
        "search_bm25_wand": _search_bm25_sql(),
        "search_bm25_plus": _search_bm25_sql(delta=1.0),
        "search_after_page2": _search_after_sql(),
        "champion_topk": _champion_topk_sql(),
        "highlight_spans": _highlight_sql(),
        "tiered_topk": _tiered_topk_sql(),
        "min_should_match": _min_should_match_sql(),
        "search_api_page": _search_api_page_sql(),
        "collapse_by_repo": _collapse_sql("repo"),
        "rocchio_feedback": _rocchio_sql(),
        "search_bm25f": _search_bm25_sql(
            tf_source=("tokw.parquet", "weight")
        ),
        "synonym_search": _synonym_sql(),
        "field_search_desc": _field_search_sql(1),
        "explain_scores": _explain_sql(),
        "sloppy_phrase": _sloppy_sql(),
        "search_eval": _search_eval_sql(),
        "kcore_nodes": _kcore_sql(),
        "ktruss_nodes": _ktruss_sql(),
        "katz_centrality": _katz_sql(),
        "bfs_depths": _bfs_sql(),
        "closeness_centrality": _closeness_sql(),
        "permuterm_wildcard": _wildcard_sql(),
        "reciprocity": """
            WITH raw AS MATERIALIZED (
                SELECT d.doc_id AS src,
                       (d.doc_id * 31 + k * 97) %
                           (SELECT count(*) FROM documents) AS dst
                FROM documents d
                CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
                UNION ALL
                SELECT (d.doc_id * 31 + 97) %
                           (SELECT count(*) FROM documents) AS src,
                       d.doc_id AS dst
                FROM documents d WHERE d.doc_id % 5 = 0
            ),
            e AS MATERIALIZED (
                SELECT DISTINCT src, dst FROM raw WHERE src <> dst
            ),
            p AS (
                SELECT least(src, dst) AS lo, greatest(src, dst) AS hi,
                       count(*) AS nd
                FROM e GROUP BY 1, 2
            )
            SELECT CAST(e.src % 32 AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_edges,
                   CAST(sum(CASE WHEN p.nd = 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_recip
            FROM e JOIN p ON least(e.src, e.dst) = p.lo
                         AND greatest(e.src, e.dst) = p.hi
            GROUP BY 1 ORDER BY 1
        """,
        "item_cf_topk": """
            WITH ui AS (
                SELECT DISTINCT user_id,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS item
                FROM events
            ),
            ic AS (SELECT item, count(*) AS c FROM ui GROUP BY 1),
            pr AS (
                SELECT a.item AS a, b.item AS b, count(*) AS cab
                FROM ui a JOIN ui b
                  ON a.user_id = b.user_id AND a.item < b.item
                GROUP BY 1, 2
            )
            SELECT a, b, CAST(cab AS BIGINT) AS cab,
                   round(cab / sqrt(CAST(ca.c * cb.c AS DOUBLE)), 6)
                       AS cosine
            FROM pr JOIN ic ca ON ca.item = pr.a
                    JOIN ic cb ON cb.item = pr.b
            ORDER BY cab / sqrt(CAST(ca.c * cb.c AS DOUBLE)) DESC, a, b
            LIMIT 30
        """,
        "scc_seeded": _scc_sql(),
        "sssp_fixed": _sssp_sql(),
        "luby_mis": _luby_sql(),
        "adamic_adar": """
            WITH raw AS MATERIALIZED (
                SELECT d.doc_id AS src,
                       (d.doc_id * d.doc_id * 31 + k * 97) %
                           (SELECT count(*) FROM documents) AS dst
                FROM documents d
                CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
            ),
            e AS MATERIALIZED (
                SELECT DISTINCT least(src, dst) AS u,
                                greatest(src, dst) AS v
                FROM raw WHERE src <> dst
            ),
            adj AS MATERIALIZED (
                SELECT u AS n, v AS m FROM e UNION ALL SELECT v, u FROM e
            ),
            deg AS (SELECT n, count(*) AS d FROM adj GROUP BY 1),
            wed AS (
                SELECT a.m AS x, b.m AS y, sum(1.0 / ln(deg.d)) AS w
                FROM adj a
                JOIN adj b ON a.n = b.n AND a.m < b.m
                JOIN deg ON deg.n = a.n
                GROUP BY 1, 2
            ),
            nonadj AS (
                SELECT wed.* FROM wed
                LEFT JOIN e ON e.u = wed.x AND e.v = wed.y
                WHERE e.u IS NULL
            )
            SELECT x, y, round(w, 6) AS aa_score FROM nonadj
            ORDER BY round(w, 6) DESC, x, y LIMIT 20
        """,
        "trigram_substring_search": """
            WITH low AS (
                SELECT doc_id, lower(COALESCE(text, '')) AS t
                FROM documents
            )
            SELECT doc_id,
                   CAST(CASE WHEN contains(t, 'hash join')
                        THEN 1 ELSE 0 END AS BIGINT) AS is_match
            FROM low
            WHERE contains(t, 'has') AND contains(t, 'ash')
              AND contains(t, 'sh ') AND contains(t, 'h j')
              AND contains(t, ' jo') AND contains(t, 'joi')
              AND contains(t, 'oin')
            ORDER BY doc_id
        """,
        "label_propagation": _label_prop_sql(),
        "assortativity": """
            WITH raw AS MATERIALIZED (
                SELECT d.doc_id AS src,
                       (d.doc_id * d.doc_id * 31 + k * 97) %
                           (SELECT count(*) FROM documents) AS dst
                FROM documents d
                CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
            ),
            e AS MATERIALIZED (
                SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
                FROM raw WHERE src <> dst
            ),
            adj AS (SELECT u AS a, v AS b FROM e UNION ALL SELECT v, u FROM e),
            deg AS (SELECT a AS node, count(*) AS deg FROM adj GROUP BY a),
            ed AS (
                SELECT d1.deg AS du, d2.deg AS dv
                FROM e JOIN deg d1 ON d1.node = e.u
                       JOIN deg d2 ON d2.node = e.v
            ),
            s AS (
                SELECT count(*) AS m2, sum(2 * du * dv) AS sxy,
                       sum(du + dv) AS sx, sum(du * du + dv * dv) AS sxx
                FROM ed
            )
            SELECT m2 AS n_edges,
                   round((sxy * 1.0 / (2 * m2) -
                          pow(sx * 1.0 / (2 * m2), 2)) /
                         (sxx * 1.0 / (2 * m2) -
                          pow(sx * 1.0 / (2 * m2), 2)), 6) AS assortativity
            FROM s
        """,
        # common-neighbor link prediction on the quadratic graph: wedge
        # self-join, edge anti-join, (count DESC, x, y) top-20
        "link_pred_cn": """
            WITH raw AS (
                SELECT d.doc_id AS src,
                       (d.doc_id * d.doc_id * 31 + k * 97) %
                           (SELECT count(*) FROM documents) AS dst
                FROM documents d
                CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
            ),
            e0 AS (
                SELECT DISTINCT least(src, dst) AS u,
                                greatest(src, dst) AS v
                FROM raw WHERE src <> dst
            ),
            adj AS (
                SELECT u AS n, v AS m FROM e0
                UNION ALL SELECT v, u FROM e0
            ),
            w AS (
                SELECT a.m AS x, b.m AS y, count(*) AS c
                FROM adj a JOIN adj b ON a.n = b.n AND a.m < b.m
                GROUP BY 1, 2
            )
            SELECT w.x, w.y, w.c AS common_neighbors
            FROM w LEFT JOIN e0 ON e0.u = w.x AND e0.v = w.y
            WHERE e0.u IS NULL
            ORDER BY w.c DESC, w.x, w.y LIMIT 20
        """,
        # jaccard link prediction: same wedge chain + degree join; the
        # score is FLOOR(1e6*c/union) INTEGER ppm — union denominators
        # are often powers of two whose exact 1e-6 halves round
        # half-even in numpy but half-away in DuckDB
        "link_pred_jaccard": """
            WITH raw AS (
                SELECT d.doc_id AS src,
                       (d.doc_id * d.doc_id * 31 + k * 97) %
                           (SELECT count(*) FROM documents) AS dst
                FROM documents d
                CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
            ),
            e0 AS (
                SELECT DISTINCT least(src, dst) AS u,
                                greatest(src, dst) AS v
                FROM raw WHERE src <> dst
            ),
            adj AS (
                SELECT u AS n, v AS m FROM e0
                UNION ALL SELECT v, u FROM e0
            ),
            deg AS (SELECT n, count(*) AS d FROM adj GROUP BY n),
            w AS (
                SELECT a.m AS x, b.m AS y, count(*) AS c
                FROM adj a JOIN adj b ON a.n = b.n AND a.m < b.m
                GROUP BY 1, 2
            )
            SELECT w.x, w.y, w.c AS common_neighbors,
                   (1000000 * w.c) // (dx.d + dy.d - w.c) AS jaccard_ppm
            FROM w
            JOIN deg dx ON dx.n = w.x
            JOIN deg dy ON dy.n = w.y
            LEFT JOIN e0 ON e0.u = w.x AND e0.v = w.y
            WHERE e0.u IS NULL
            ORDER BY jaccard_ppm DESC, w.x, w.y LIMIT 20
        """,
        # triangles of the synthetic link graph: undirect+dedup, then the
        # canonical (x<y<z) 3-way self-join
        "triangle_count": """
            WITH raw AS (
                SELECT d.doc_id AS src,
                       (d.doc_id * 31 + k * 97) %
                           (SELECT count(*) FROM documents) AS dst
                FROM documents d
                CROSS JOIN (SELECT unnest([1, 2, 3]) AS k) ks
            ),
            e0 AS (
                SELECT DISTINCT least(src, dst) AS u,
                                greatest(src, dst) AS v
                FROM raw WHERE src <> dst
            )
            SELECT
                (SELECT count(DISTINCT x) FROM
                    (SELECT u AS x FROM e0 UNION SELECT v FROM e0))
                    AS n_nodes,
                (SELECT count(*) FROM e0) AS n_edges,
                (SELECT count(*)
                 FROM e0 a
                 JOIN e0 b ON b.u = a.u AND b.v > a.v
                 JOIN e0 c ON c.u = a.v AND c.v = b.v) AS n_triangles
        """,
        # T5 span corruption: salted-sha mask -> islands -> sentinel
        # strings, all rebuilt with window functions (threshold =
        # floor(0.15 * 2^32) = 644245094, same as the engine)
        # significant terms: lift vs corpus share over the matched set;
        # same division order as the engine, ties (lift, n_match) by term
        "significant_terms": f"""
            WITH matched AS (
                SELECT DISTINCT doc_int
                FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
                WHERE term IN ('search', 'engin')
            ),
            nm AS (SELECT count(*) AS c FROM matched),
            per_term AS (
                SELECT t.term,
                       count(*) AS df,
                       count(*) FILTER (WHERE m.doc_int IS NOT NULL)
                           AS n_match
                FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet') t
                LEFT JOIN matched m ON m.doc_int = t.doc_int
                GROUP BY t.term
            )
            SELECT term,
                   CAST(n_match AS BIGINT) AS n_match,
                   CAST(df AS BIGINT) AS df,
                   round((CAST(n_match AS DOUBLE) / (SELECT c FROM nm))
                         / (CAST(df AS DOUBLE) /
                            (SELECT n_docs FROM
                             read_parquet('{_MAIN_DUMP_DIR}/stats.parquet'))),
                         9) AS lift
            FROM per_term
            WHERE n_match >= 3
            ORDER BY lift DESC, n_match DESC, term LIMIT 20
        """,
        "span_corruption": r"""
            WITH base AS (
                SELECT doc_id,
                       list_filter(string_split_regex(trim(text), '\s+'),
                                   t -> t <> '') AS ts
                FROM documents
            ),
            toks AS (
                SELECT doc_id, unnest(ts) AS tok,
                       generate_subscripts(ts, 1) AS i
                FROM base
            ),
            masked AS (
                SELECT doc_id, tok, i,
                       cast(('0x' || substr(sha256('mask-v1:' ||
                           CAST(doc_id AS VARCHAR) || ':' ||
                           CAST(i AS VARCHAR)), 1, 8)) AS BIGINT)
                           < 644245094 AS m
                FROM toks
            ),
            w AS (
                SELECT *, CASE WHEN m AND NOT coalesce(
                    lag(m) OVER (PARTITION BY doc_id ORDER BY i), FALSE)
                    THEN 1 ELSE 0 END AS firstm
                FROM masked
            ),
            k AS (
                SELECT *, sum(firstm) OVER (PARTITION BY doc_id ORDER BY i
                    ROWS UNBOUNDED PRECEDING) - 1 AS span_k
                FROM w
            ),
            inp AS (
                SELECT doc_id, string_agg(
                    CASE WHEN NOT m THEN tok
                         ELSE '<extra_id_' || span_k || '>' END,
                    ' ' ORDER BY i) AS input_text
                FROM k WHERE NOT m OR firstm = 1 GROUP BY doc_id
            ),
            tgt AS (
                SELECT doc_id, string_agg(
                    CASE WHEN firstm = 1
                         THEN '<extra_id_' || span_k || '> ' || tok
                         ELSE tok END,
                    ' ' ORDER BY i) AS target_text
                FROM k WHERE m GROUP BY doc_id
            )
            SELECT d.doc_id,
                   coalesce(inp.input_text, '') AS input_text,
                   coalesce(tgt.target_text, '') AS target_text
            FROM documents d
            LEFT JOIN inp ON inp.doc_id = d.doc_id
            LEFT JOIN tgt ON tgt.doc_id = d.doc_id
            ORDER BY d.doc_id
        """,
        # conjunctive token containment per stored query (registry =
        # config shared with pipelines/percolate.py)
        "percolate_matches": "WITH toks AS (SELECT doc_id, "
        "regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts "
        "FROM documents) " + " UNION ALL ".join(
            "SELECT '" + q + "' AS query_id, doc_id FROM toks WHERE "
            + " AND ".join(f"list_contains(ts, '{t}')" for t in sorted(set(ts)))
            for q, ts in sorted(_PERCOLATE_REGISTRY.items())
        ) + " ORDER BY query_id, doc_id",
        # cross-corpus (base x delta) exact jaccard join; the engine
        # screens the same delta via minhash with a cross-pair candidate
        # filter (stages/dedup.minhash_delta_pairs)
        "incremental_dedup": f"""
            WITH u AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 1000000000 AS doc_id,
                       text || ' delta revision note' AS text
                FROM documents WHERE doc_id % 97 = 5
            ),
            {_gram_pair_ctes("u")}
            SELECT a, b, jaccard FROM jpairs
            WHERE a < 1000000000 AND b >= 1000000000
            ORDER BY a, b
        """,
        # tombstone deletes: surviving-row recompute (mask + purge agree
        # on the same expected table through two different engine paths);
        # the stale-BM25 oracle keeps df/stats UNFILTERED by construction
        "delete_masked_df": (
            f"SELECT term, count(*) AS df "
            f"FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet') "
            f"WHERE {_DELETE_PRED} GROUP BY term ORDER BY term"
        ),
        "delete_purge_df": (
            f"SELECT term, count(*) AS df "
            f"FROM read_parquet('{_MAIN_DUMP_DIR}/tok.parquet') "
            f"WHERE {_DELETE_PRED} GROUP BY term ORDER BY term"
        ),
        "delete_purge_stats": f"""
            WITH ds AS (SELECT * FROM
                        read_parquet('{_MAIN_DUMP_DIR}/docstats.parquet')
                        WHERE {_DELETE_PRED})
            SELECT (SELECT count(*) FROM ds) AS n_docs,
                   (SELECT CAST(sum(total_words) AS BIGINT) FROM ds)
                       AS total_words,
                   round((SELECT CAST(sum(total_words) AS DOUBLE) FROM ds)
                         / (SELECT count(*) FROM ds), 9) AS avgdl,
                   (SELECT count(DISTINCT term) FROM
                    read_parquet('{_MAIN_DUMP_DIR}/tok.parquet')
                    WHERE {_DELETE_PRED}) AS n_terms
        """,
        "delete_stale_bm25": _search_bm25_sql(live_pred=_DELETE_PRED),
        "index_merge": _INDEX_MERGE_SQL,
        # merge-consumes-tombstones: df over the sources' term-row dumps
        # minus the delete rule (engine side drops those docs DURING the
        # k-way merge, pipelines/merge.py)
        "delete_merge_df": f"""
            SELECT term, count(DISTINCT doc_int) AS df FROM (
                SELECT term, doc_int FROM read_parquet(
                    '{_DELETE_MERGE_ROOT}/ia_terms.parquet')
                UNION ALL
                SELECT term, doc_int FROM read_parquet(
                    '{_DELETE_MERGE_ROOT}/ib_terms.parquet')
            ) WHERE doc_int % 7 != 3
            GROUP BY term ORDER BY term
        """,
        # upsert = delete-by-(repo,path) + add: dead = base docs whose key
        # matches a delta doc; df over (base term rows - dead) ∪ delta
        "upsert_df": f"""
            WITH dkeys AS (
                SELECT DISTINCT repo, path FROM read_parquet(
                    '{_UPSERT_ROOT}/merged.delta/prepped/*.parquet')
            ),
            dead AS (
                SELECT b.doc_int
                FROM read_parquet(
                    '{_UPSERT_ROOT}/base/prepped/*.parquet') b
                JOIN dkeys k ON b.repo = k.repo AND b.path = k.path
            ),
            u AS (
                SELECT term, doc_int FROM read_parquet(
                    '{_UPSERT_ROOT}/base_terms.parquet')
                WHERE doc_int NOT IN (SELECT doc_int FROM dead)
                UNION ALL
                SELECT term, doc_int FROM read_parquet(
                    '{_UPSERT_ROOT}/delta_terms.parquet')
            )
            SELECT term, count(DISTINCT doc_int) AS df
            FROM u GROUP BY term ORDER BY term
        """,
        # code-aware analysis: the dumped src table is corpus + plants;
        # DuckDB replays the IDENTICAL RE2 token stream / next-token rule /
        # camel-split rewrite (verified kernel-equal in pytest), so the
        # whole extraction + aggregation path is hash-checked
        "code_def_symbols": f"""
            WITH t AS (SELECT repo, path,
                              string_split_regex(content, '\\s+') AS ts
                       FROM read_parquet('{_CODE_DUMP_DIR}/src.parquet')),
            m AS (SELECT repo, path, list_filter(
                    list_transform(range(1, len(ts)),
                                   i -> {{'kw': ts[i], 'nx': ts[i+1]}}),
                    s -> s.kw IN ('def', 'class', 'function')
                         AND regexp_full_match(s.nx,
                                               '[A-Za-z_][A-Za-z0-9_]*')
                  ) AS ms FROM t),
            u AS (SELECT repo, path, unnest(ms, recursive := true) FROM m)
            SELECT repo, path, kw AS kind, nx AS symbol, count(*) AS n
            FROM u GROUP BY repo, path, kw, nx
            ORDER BY repo, path, kind, symbol
        """,
        "ident_subtokens": f"""
            WITH t AS (SELECT string_split_regex(content, '\\s+') AS ts
                       FROM read_parquet('{_CODE_DUMP_DIR}/src.parquet')),
            tok AS (SELECT unnest(ts) AS w FROM t),
            ids AS (SELECT w FROM tok
                    WHERE regexp_full_match(w, '[A-Za-z_][A-Za-z0-9_]*')
                          AND length(w) >= 2),
            subs AS (SELECT unnest(string_split_regex(lower(
                       regexp_replace(
                         regexp_replace(w, '([A-Z]+)([A-Z][a-z])',
                                        '\\1 \\2', 'g'),
                         '([a-z0-9])([A-Z])', '\\1 \\2', 'g')),
                       '[_\\s]+')) AS sub
                     FROM ids)
            SELECT sub, count(*) AS n FROM subs WHERE sub <> ''
            GROUP BY sub ORDER BY sub
        """,
        "import_graph": f"""
            WITH t AS (SELECT repo,
                              string_split_regex(content, '\\s+') AS ts
                       FROM read_parquet('{_CODE_DUMP_DIR}/src.parquet')),
            m AS (SELECT repo, list_filter(
                    list_transform(range(1, len(ts)),
                                   i -> {{'kw': ts[i], 'nx': ts[i+1]}}),
                    s -> s.kw = 'import'
                         AND regexp_full_match(s.nx,
                                               '[A-Za-z_][A-Za-z0-9_.]*')
                  ) AS ms FROM t),
            u AS (SELECT repo, unnest(ms, recursive := true) FROM m)
            SELECT nx AS module, count(DISTINCT repo) AS n_repos,
                   count(*) AS n_imports
            FROM u GROUP BY nx ORDER BY module
        """,
        # code-corpus curation (stages/codecuration.py): DuckDB replays the
        # identical prioritized CASE / line-split / RE2-strip / winnowing
        # selection chain over the same dumped src table
        "license_detect": f"""
            WITH c AS (SELECT repo, path, lang, lower(content) AS low
                       FROM read_parquet('{_CODE_DUMP_DIR}/src.parquet')),
            lic AS (SELECT repo, path, lang,
                CASE
                  WHEN contains(low, 'licensed under the apache license, version 2.0') THEN 'apache-2.0'
                  WHEN contains(low, 'permission is hereby granted, free of charge') THEN 'mit'
                  WHEN contains(low, 'gnu general public license') THEN 'gpl-3.0'
                  WHEN contains(low, 'redistribution and use in source and binary forms') THEN 'bsd-3-clause'
                  WHEN contains(low, 'mozilla public license') THEN 'mpl-2.0'
                  WHEN contains(low, 'free and unencumbered software') THEN 'unlicense'
                  ELSE 'none' END AS license
                FROM c)
            SELECT repo, path, lang, license FROM lic WHERE license <> 'none'
            ORDER BY repo, path, license
        """,
        "stack_file_metrics": f"""
            {_STACK_METRICS_CTE}
            SELECT repo, path, lang, n_lines, max_line_len, avg_line_len,
                   frac_alnum, autogen, keep
            FROM m3 WHERE starts_with(repo, 'plants/')
            ORDER BY repo, path
        """,
        "stack_quality": f"""
            {_STACK_METRICS_CTE}
            SELECT lang, keep, count(*) AS n_files,
                   CAST(sum(CASE WHEN autogen THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_autogen,
                   CAST(sum(n_lines) AS BIGINT) AS sum_lines,
                   round(sum(CAST(round(frac_alnum * 10000) AS BIGINT))
                         / (count(*) * 10000.0), 4) AS avg_frac_alnum
            FROM m3 GROUP BY lang, keep ORDER BY lang, keep
        """,
        "winnow_stats": f"""
            {_WINNOW_FP_CTE}
            , st AS (SELECT commit, count(*) AS n_fp, bit_xor(h) AS fp_xor
                     FROM fp GROUP BY commit)
            SELECT f.repo, f.path, f.commit,
                   greatest(length(f.norm) - {_WIN_K} + 1, 0) AS n_grams,
                   coalesce(st.n_fp, 0) AS n_fp,
                   coalesce(st.fp_xor, 0) AS fp_xor
            FROM f LEFT JOIN st ON f.commit = st.commit
            ORDER BY f.repo, f.path, f.commit
        """,
        "clone_pairs": f"""
            {_WINNOW_FP_CTE}
            , dfc AS (SELECT h, count(DISTINCT commit) AS dfc
                      FROM fp GROUP BY h),
            fpd AS (SELECT DISTINCT fp.commit, fp.h
                    FROM fp JOIN dfc ON fp.h = dfc.h
                    WHERE dfc.dfc BETWEEN 2 AND 10),
            pr AS (SELECT a.commit AS commit_a, b.commit AS commit_b, a.h
                   FROM fpd a JOIN fpd b
                     ON a.h = b.h AND a.commit < b.commit)
            SELECT commit_a, commit_b, count(DISTINCT h) AS n_shared
            FROM pr GROUP BY commit_a, commit_b
            HAVING count(DISTINCT h) >= 15
            ORDER BY commit_a, commit_b
        """,
        # hybrid RRF: bm25_simple chain + ann cosine chain, ranks on the
        # 6-dp-ROUNDED scores (ties by id), fused 1/(60+r) + 1/(60+r)
        "hybrid_rrf": f"""
            WITH toks AS (
                SELECT doc_id, list_filter({tok}, t -> length(t) >= 2) AS ts
                FROM documents
            ),
            dl AS (SELECT doc_id, len(ts) AS dl FROM toks),
            stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, token, count(*) AS tf
                FROM (SELECT doc_id, unnest(ts) AS token FROM toks)
                WHERE token IN ('hash', 'join', 'performance')
                GROUP BY doc_id, token
            ),
            df AS (SELECT token, count(*) AS df FROM tf GROUP BY token),
            scored AS (
                SELECT tf.doc_id,
                       sum(ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1)
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS raw_score
                FROM tf JOIN df USING (token) JOIN dl USING (doc_id)
                CROSS JOIN stats
                GROUP BY tf.doc_id
            ),
            bmr AS (
                SELECT doc_id,
                       row_number() OVER (ORDER BY round(raw_score, 6) DESC,
                                          doc_id) AS bm25_rank
                FROM scored
                QUALIFY bm25_rank <= 50
            ),
            q AS (SELECT embedding AS qe FROM embeddings
                  ORDER BY vec_id LIMIT 1),
            sims AS (
                SELECT e.vec_id AS doc_id,
                       round(list_cosine_similarity(
                           CAST(q.qe AS DOUBLE[]),
                           CAST(e.embedding AS DOUBLE[])), 6) AS cosine
                FROM q CROSS JOIN embeddings e
            ),
            annr AS (
                SELECT doc_id,
                       row_number() OVER (ORDER BY cosine DESC,
                                          doc_id) AS ann_rank
                FROM sims
                QUALIFY ann_rank <= 50
            ),
            fused AS (
                SELECT coalesce(b.doc_id, a.doc_id) AS doc_id,
                       round(coalesce(1.0 / (60 + b.bm25_rank), 0)
                             + coalesce(1.0 / (60 + a.ann_rank), 0), 6)
                           AS rrf_score,
                       coalesce(b.bm25_rank, -1) AS bm25_rank,
                       coalesce(a.ann_rank, -1) AS ann_rank
                FROM bmr b FULL OUTER JOIN annr a ON b.doc_id = a.doc_id
            )
            SELECT doc_id, rrf_score, bm25_rank, ann_rank
            FROM fused ORDER BY rrf_score DESC, doc_id LIMIT 10
        """,
        "mmr_diversify": _mmr_sql(),
        "rolling_halo": """
            WITH s AS (
                SELECT event_type,
                       round(avg(value) OVER (
                           ORDER BY ts, event_id
                           ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 6)
                           AS rm
                FROM events
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   round(sum(rm), 4) AS sum_rm,
                   CAST(sum(CASE WHEN rm > 60.0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS hi_cnt
            FROM s GROUP BY event_type ORDER BY event_type
        """,
        "dense_ids": """
            WITH n AS (
                SELECT o_orderkey, o_orderdate,
                       row_number() OVER (ORDER BY o_orderdate, o_orderkey)
                           AS rn
                FROM orders
            )
            SELECT rn, o_orderkey, o_orderdate FROM n
            WHERE rn <= 10 OR rn % 500 = 0 ORDER BY rn
        """,
        "stream_dedup": """
            WITH l AS (
                SELECT event_type, value, ts,
                       lag(ts) OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) AS prev
                FROM events
            )
            SELECT event_type,
                   CAST(sum(CASE WHEN prev IS NULL
                                 OR ts - prev > INTERVAL 10 SECOND
                            THEN 1 ELSE 0 END) AS BIGINT) AS kept,
                   CAST(sum(CASE WHEN prev IS NOT NULL
                                 AND ts - prev <= INTERVAL 10 SECOND
                            THEN 1 ELSE 0 END) AS BIGINT) AS dropped,
                   round(sum(CASE WHEN prev IS NULL
                                  OR ts - prev > INTERVAL 10 SECOND
                             THEN value ELSE 0 END), 4) AS kept_value
            FROM l GROUP BY event_type ORDER BY event_type
        """,
        "flesch_scores": """
            WITH c AS (
                SELECT doc_id,
                       len(regexp_extract_all(text, '\\S+')) AS words,
                       greatest(len(regexp_extract_all(text, '[.!?]+')), 1)
                           AS sentences,
                       len(regexp_extract_all(lower(text), '[aeiouy]+'))
                           AS syllables
                FROM documents
            )
            SELECT doc_id, CAST(words AS BIGINT) AS words,
                   CAST(sentences AS BIGINT) AS sentences,
                   CAST(syllables AS BIGINT) AS syllables,
                   round(206.835
                         - 1.015 * (CAST(words AS DOUBLE) / sentences)
                         - 84.6 * (CAST(syllables AS DOUBLE) / words), 6)
                       AS flesch
            FROM c WHERE words > 0 ORDER BY doc_id
        """,
        "heaps_law": f"""
            WITH first AS (
                SELECT token, min(doc_id) AS fd
                FROM (SELECT doc_id, unnest({tok}) AS token FROM documents)
                WHERE length(token) >= 2 GROUP BY token
            ),
            n AS (SELECT count(*) AS nd FROM documents),
            sel AS (
                SELECT CAST(ceil(nd * i / 10.0) AS BIGINT) AS k_docs,
                       (SELECT count(*) FROM first
                        WHERE fd < ceil(nd * i / 10.0)) AS vocab
                FROM n, range(1, 11) t(i)
            ),
            st AS (
                SELECT count(*) AS m, sum(ln(k_docs)) AS sx,
                       sum(ln(vocab)) AS sy,
                       sum(ln(k_docs) * ln(vocab)) AS sxy,
                       sum(ln(k_docs) * ln(k_docs)) AS sxx
                FROM sel
            )
            SELECT k_docs, CAST(vocab AS BIGINT) AS vocab,
                   round((m * sxy - sx * sy) / (m * sxx - sx * sx), 6)
                       AS beta
            FROM sel, st ORDER BY k_docs
        """,
        "pca_power": _pca_sql(),
        "term_dict_frontcode": f"""
            WITH v AS (
                SELECT DISTINCT token AS term
                FROM (SELECT unnest({tok}) AS token FROM documents)
                WHERE length(token) >= 2
            ),
            s AS (
                SELECT term, substr(term, 1, 1) AS head,
                       lag(term) OVER (PARTITION BY substr(term, 1, 1)
                                       ORDER BY term) AS prev
                FROM v
            ),
            c0 AS (
                SELECT head, term, prev,
                       unnest(range(1, least(length(prev),
                                             length(term)) + 1)) AS k
                FROM s WHERE prev IS NOT NULL
            ),
            cp AS (
                SELECT head, term,
                       coalesce(max(CASE WHEN substr(prev, 1, k)
                                              = substr(term, 1, k)
                                    THEN k END), 0) AS cpl
                FROM c0 GROUP BY head, term
            ),
            agg AS (
                SELECT s.head, count(*) AS n_terms,
                       sum(length(s.term) + 1) AS raw_bytes,
                       sum(CASE WHEN s.prev IS NULL
                                THEN length(s.term) + 1
                                ELSE 2 + length(s.term)
                                     - coalesce(cp.cpl, 0) END)
                           AS fc_bytes
                FROM s LEFT JOIN cp
                  ON cp.head = s.head AND cp.term = s.term
                GROUP BY s.head
            )
            SELECT head, CAST(n_terms AS BIGINT) AS n_terms,
                   CAST(raw_bytes AS BIGINT) AS raw_bytes,
                   CAST(fc_bytes AS BIGINT) AS fc_bytes,
                   round(CAST(raw_bytes AS DOUBLE) / fc_bytes, 6) AS ratio
            FROM agg ORDER BY head
        """,
        "kleinberg_burst": """
            WITH RECURSIVE daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       CAST(count(*) AS DOUBLE) AS y
                FROM events GROUP BY 1, 2
            ),
            num AS (
                SELECT event_type, y,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY day) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n,
                       sum(y) OVER (PARTITION BY event_type)
                           / count(*) OVER (PARTITION BY event_type) AS p0
                FROM daily
            ),
            rec AS (
                SELECT event_type, rn, n, p0,
                       least(0.0, 1.0) + (p0 - y * ln(p0)) AS c0,
                       least(0.0 + 1.0, 1.0)
                           + (2 * p0 - y * ln(2 * p0)) AS c1,
                       CASE WHEN least(0.0 + 1.0, 1.0)
                                 + (2 * p0 - y * ln(2 * p0))
                               < least(0.0, 1.0) + (p0 - y * ln(p0))
                            THEN 1 ELSE 0 END AS bd
                FROM num WHERE rn = 1
                UNION ALL
                SELECT x.event_type, x.rn, x.n, x.p0,
                       least(r.c0, r.c1) + (x.p0 - x.y * ln(x.p0)),
                       least(r.c0 + 1.0, r.c1)
                           + (2 * x.p0 - x.y * ln(2 * x.p0)),
                       r.bd + CASE WHEN least(r.c0 + 1.0, r.c1)
                                        + (2 * x.p0 - x.y * ln(2 * x.p0))
                                      < least(r.c0, r.c1)
                                        + (x.p0 - x.y * ln(x.p0))
                                   THEN 1 ELSE 0 END
                FROM rec r JOIN num x
                  ON x.event_type = r.event_type AND x.rn = r.rn + 1
            )
            SELECT event_type, CAST(n AS BIGINT) AS n_days,
                   round(c0, 6) AS cost_base,
                   round(c1, 6) AS cost_burst,
                   CAST(bd AS BIGINT) AS burst_days
            FROM rec WHERE rn = n ORDER BY event_type
        """,
        "random_walks": _random_walks_sql(),
        "ann_sq_topk": """
            WITH el AS MATERIALIZED (
                SELECT vec_id,
                       unnest(range(1, len(embedding) + 1)) AS i,
                       unnest(CAST(embedding AS DOUBLE[])) AS x
                FROM embeddings
            ),
            mm AS MATERIALIZED (
                SELECT i, min(x) AS lo,
                       CASE WHEN (max(x) - min(x)) / 255 = 0 THEN 1.0
                            ELSE (max(x) - min(x)) / 255 END AS step
                FROM el GROUP BY i
            ),
            deq AS MATERIALIZED (
                SELECT e.vec_id, e.i,
                       m.lo + (least(floor((e.x - m.lo) / m.step), 255)
                               + 0.5) * m.step AS d
                FROM el e JOIN mm m USING (i)
            ),
            q AS MATERIALIZED (
                SELECT e.vec_id AS query_id, e.i, e.x AS qx
                FROM el e WHERE e.vec_id IN (
                    SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3)
            ),
            sims AS (
                SELECT q.query_id, d.vec_id,
                       round(sum(d.d * q.qx), 6) AS score
                FROM deq d JOIN q ON q.i = d.i GROUP BY 1, 2
            ),
            ranked AS (
                SELECT query_id, vec_id, score,
                       row_number() OVER (PARTITION BY query_id
                           ORDER BY score DESC, vec_id) - 1 AS rank
                FROM sims
            )
            SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id, score
            FROM ranked WHERE rank < 5 ORDER BY query_id, rank
        """,
        "kmv_distinct": """
            WITH d AS (SELECT DISTINCT l_partkey AS k FROM lineitem),
            h AS (
                SELECT DISTINCT CAST(('0x' || substr(
                    sha256(CAST(k AS VARCHAR)), 1, 12)) AS BIGINT) AS h
                FROM d
            ),
            top AS (SELECT h FROM h ORDER BY h LIMIT 64),
            st AS (SELECT count(*) AS kk, max(h) AS hk FROM top),
            ex AS (SELECT count(*) AS exact FROM d)
            SELECT CAST(kk AS BIGINT) AS k,
                   CAST(exact AS BIGINT) AS exact_distinct,
                   round((kk - 1) / (CAST(hk AS DOUBLE)
                                     / 281474976710656.0), 4)
                       AS kmv_estimate,
                   round(abs((kk - 1) / (CAST(hk AS DOUBLE)
                                         / 281474976710656.0) - exact)
                         / exact, 6) AS rel_error
            FROM st, ex
        """,
        "cross_correlation": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       count(*) AS n
                FROM events GROUP BY 1, 2
            ),
            di AS (
                SELECT day, row_number() OVER (ORDER BY day) - 1 AS i
                FROM (SELECT DISTINCT day FROM daily)
            ),
            a AS (
                SELECT di.i, coalesce(d.n, 0) AS v
                FROM di LEFT JOIN daily d
                  ON d.day = di.day AND d.event_type = 'view'
            ),
            b AS (
                SELECT di.i, coalesce(d.n, 0) AS v
                FROM di LEFT JOIN daily d
                  ON d.day = di.day AND d.event_type = 'purchase'
            ),
            lags AS (SELECT unnest(range(-5, 6)) AS lag),
            j AS (
                SELECT l.lag, a.v AS x, b.v AS y
                FROM lags l JOIN a ON TRUE JOIN b ON b.i = a.i + l.lag
            ),
            agg AS (
                SELECT lag, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                       sum(x * y) AS sxy, sum(x * x) AS sxx,
                       sum(y * y) AS syy
                FROM j GROUP BY lag
            )
            SELECT CAST(lag AS BIGINT) AS lag, CAST(n AS BIGINT) AS n_days,
                   round((n * sxy - sx * sy)
                         / sqrt((n * sxx - sx * sx)
                                * (n * syy - sy * sy)), 6) AS r
            FROM agg ORDER BY lag
        """,
        "blocking_quality": """
            WITH nr AS (SELECT count(*) AS n FROM part),
            bp AS (SELECT sum(c * (c - 1) // 2) AS p FROM (
                SELECT count(*) AS c FROM part GROUP BY p_brand)),
            tp AS (SELECT sum(c * (c - 1) // 2) AS p FROM (
                SELECT count(*) AS c FROM part GROUP BY p_name)),
            cp AS (SELECT sum(c * (c - 1) // 2) AS p FROM (
                SELECT count(*) AS c FROM part GROUP BY p_brand, p_name))
            SELECT CAST(n AS BIGINT) AS n_rows,
                   CAST(n * (n - 1) // 2 AS BIGINT) AS all_pairs,
                   CAST(bp.p AS BIGINT) AS blocked_pairs,
                   CAST(tp.p AS BIGINT) AS true_dup_pairs,
                   CAST(cp.p AS BIGINT) AS caught_dup_pairs,
                   round(1 - CAST(bp.p AS DOUBLE) / (n * (n - 1) // 2), 6)
                       AS reduction_ratio,
                   round(CAST(cp.p AS DOUBLE) / tp.p, 6)
                       AS pair_completeness
            FROM nr, bp, tp, cp
        """,
        "fd_discovery": """
            WITH all_c AS (
                SELECT 'customer.c_custkey->c_mktsegment' AS candidate,
                       count(*) AS n_lhs,
                       sum(CASE WHEN k > 1 THEN 1 ELSE 0 END) AS v
                FROM (SELECT c_custkey, count(DISTINCT c_mktsegment) AS k
                      FROM customer GROUP BY 1)
                UNION ALL
                SELECT 'customer.c_nationkey->c_mktsegment', count(*),
                       sum(CASE WHEN k > 1 THEN 1 ELSE 0 END)
                FROM (SELECT c_nationkey, count(DISTINCT c_mktsegment) AS k
                      FROM customer GROUP BY 1)
                UNION ALL
                SELECT 'orders.o_custkey->o_orderpriority', count(*),
                       sum(CASE WHEN k > 1 THEN 1 ELSE 0 END)
                FROM (SELECT o_custkey, count(DISTINCT o_orderpriority)
                          AS k
                      FROM orders GROUP BY 1)
                UNION ALL
                SELECT 'part.p_name->p_brand', count(*),
                       sum(CASE WHEN k > 1 THEN 1 ELSE 0 END)
                FROM (SELECT p_name, count(DISTINCT p_brand) AS k
                      FROM part GROUP BY 1)
                UNION ALL
                SELECT 'part.p_brand->p_name', count(*),
                       sum(CASE WHEN k > 1 THEN 1 ELSE 0 END)
                FROM (SELECT p_brand, count(DISTINCT p_name) AS k
                      FROM part GROUP BY 1)
                UNION ALL
                SELECT 'nation.n_nationkey->n_regionkey', count(*),
                       sum(CASE WHEN k > 1 THEN 1 ELSE 0 END)
                FROM (SELECT n_nationkey, count(DISTINCT n_regionkey) AS k
                      FROM nation GROUP BY 1)
            )
            SELECT candidate, CAST(n_lhs AS BIGINT) AS n_lhs,
                   CAST(v AS BIGINT) AS violations, v = 0 AS holds
            FROM all_c ORDER BY candidate
        """,
        "geo_harmonic_means": """
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   round(exp(sum(ln(value)) / count(*)), 4) AS geo_mean,
                   round(count(*) / sum(1.0 / value), 4) AS harm_mean
            FROM events GROUP BY 1 ORDER BY event_type
        """,
        "weighted_median": """
            WITH o AS (
                SELECT c.c_mktsegment AS seg,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                       o_orderkey AS k
                FROM orders JOIN customer c ON c_custkey = o_custkey
            ),
            w AS (
                SELECT seg, cents,
                       sum(cents) OVER (PARTITION BY seg
                           ORDER BY cents, k
                           ROWS UNBOUNDED PRECEDING) AS cum,
                       sum(cents) OVER (PARTITION BY seg) AS total
                FROM o
            )
            SELECT seg, CAST(count(*) AS BIGINT) AS n,
                   min(CASE WHEN 2 * cum >= total THEN cents END) / 100.0
                       AS wmedian
            FROM w GROUP BY seg ORDER BY seg
        """,
        "kaplan_meier": """
            WITH u AS (
                SELECT user_id, event_type,
                       min(date_trunc('day', ts)) AS lo,
                       max(date_trunc('day', ts)) AS hi
                FROM events GROUP BY 1, 2
            ),
            mx AS (SELECT max(hi) AS md FROM u),
            lt AS (
                SELECT date_diff('day', lo, hi) AS lifetime,
                       (hi = md) AS cens
                FROM u, mx
            ),
            km AS (
                SELECT lifetime,
                       sum(CASE WHEN cens THEN 0 ELSE 1 END) AS d,
                       sum(CASE WHEN cens THEN 1 ELSE 0 END) AS c
                FROM lt GROUP BY 1
            ),
            r AS (
                SELECT lifetime, d, c,
                       (SELECT count(*) FROM lt)
                           - coalesce(sum(d + c) OVER (ORDER BY lifetime
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS n_risk
                FROM km
            ),
            s AS (
                SELECT lifetime, d, c, n_risk,
                       round(exp(sum(CASE WHEN d > 0
                           THEN ln(1 - CAST(d AS DOUBLE) / n_risk)
                           ELSE 0 END) OVER (ORDER BY lifetime
                           ROWS UNBOUNDED PRECEDING)), 6) AS surv
                FROM r
            )
            SELECT CAST(lifetime AS BIGINT) AS lifetime,
                   CAST(n_risk AS BIGINT) AS n_risk,
                   CAST(d AS BIGINT) AS d, CAST(c AS BIGINT) AS c, surv
            FROM s WHERE d > 0 ORDER BY lifetime
        """,
        "hhi_concentration": """
            WITH a AS (
                SELECT event_type, user_id, sum(value) AS v
                FROM events GROUP BY 1, 2
            ),
            t AS (SELECT event_type, sum(v) AS tot FROM a GROUP BY 1)
            SELECT a.event_type, CAST(count(*) AS BIGINT) AS n_users,
                   round(sum(pow(a.v / t.tot, 2)), 6) AS hhi
            FROM a JOIN t USING (event_type)
            GROUP BY a.event_type ORDER BY a.event_type
        """,
        "cumulative_users": """
            WITH f AS (
                SELECT user_id, event_type,
                       min(date_trunc('day', ts)) AS day
                FROM events GROUP BY 1, 2
            ),
            h AS (SELECT day, count(*) AS new_pairs FROM f GROUP BY 1)
            SELECT day, CAST(new_pairs AS BIGINT) AS new_pairs,
                   CAST(sum(new_pairs) OVER (ORDER BY day
                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_pairs
            FROM h ORDER BY day
        """,
        "decayed_counts": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       count(*) AS n
                FROM events GROUP BY 1, 2
            ),
            mx AS (SELECT max(day) AS md FROM daily)
            SELECT event_type, CAST(sum(n) AS BIGINT) AS n_total,
                   round(sum(pow(0.5, date_diff('day', day, md) / 7.0)
                             * n), 6) AS decayed
            FROM daily, mx GROUP BY event_type ORDER BY event_type
        """,
        "orphan_keys": """
            SELECT date_trunc('month', o_orderdate) AS month,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN c.c_custkey IS NULL
                            THEN 1 ELSE 0 END) AS BIGINT) AS orphans,
                   round(CAST(sum(CASE WHEN c.c_custkey IS NULL
                                  THEN 1 ELSE 0 END) AS DOUBLE)
                         / count(*), 6) AS orphan_rate
            FROM orders o LEFT JOIN (
                SELECT c_custkey FROM customer WHERE c_acctbal >= 0
            ) c ON c.c_custkey = o.o_custkey
            GROUP BY 1 ORDER BY month
        """,
        "zone_map_prune": """
            SELECT CAST(floor(value / 50.0) AS BIGINT) AS val_bucket,
                   CAST(count(*) AS BIGINT) AS n,
                   round(min(value), 6) AS min_v,
                   round(max(value), 6) AS max_v,
                   (round(max(value), 6) < 80.0
                    OR round(min(value), 6) > 120.0) AS prunable
            FROM events GROUP BY 1 ORDER BY val_bucket
        """,
        "feature_hashing": f"""
            WITH v AS (
                SELECT DISTINCT token AS term
                FROM (SELECT unnest({tok}) AS token FROM documents)
                WHERE length(token) >= 2
            ),
            b AS (
                SELECT CAST(('0x' || substr(sha256(term), 1, 8)) AS BIGINT)
                       % 4096 AS bucket
                FROM v
            ),
            g AS (SELECT bucket, count(*) AS n_terms FROM b GROUP BY 1),
            t AS (SELECT sum(n_terms) AS total FROM g)
            SELECT bucket, CAST(n_terms AS BIGINT) AS n_terms,
                   CAST(total AS BIGINT) AS total_terms
            FROM g, t ORDER BY n_terms DESC, bucket LIMIT 15
        """,
        "ts_dod_bits": """
            WITH s AS (
                SELECT user_id, epoch_us(ts) AS t,
                       row_number() OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS rn
                FROM events
            ),
            d AS (
                SELECT user_id, rn,
                       t - lag(t) OVER (PARTITION BY user_id
                                        ORDER BY rn) AS delta
                FROM s
            ),
            x AS (
                SELECT user_id, rn,
                       CASE WHEN rn = 2 THEN delta
                            ELSE delta - lag(delta) OVER (
                                PARTITION BY user_id ORDER BY rn) END AS v
                FROM d WHERE rn >= 2
            ),
            b AS (
                SELECT user_id,
                       sum(length(format('{:b}',
                           CASE WHEN v >= 0 THEN 2 * v
                                ELSE -2 * v - 1 END)) + 6) AS extra
                FROM x GROUP BY user_id
            ),
            n AS (SELECT user_id, count(*) AS n_events
                  FROM events GROUP BY 1)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(n_events AS BIGINT) AS n_events,
                   CAST(64 + coalesce(extra, 0) AS BIGINT) AS dod_bits,
                   round(64.0 * n_events / (64 + coalesce(extra, 0)), 6)
                       AS ratio
            FROM n LEFT JOIN b USING (user_id) ORDER BY user_id
        """,
        "clamped_balance": """
            WITH d AS (
                SELECT user_id, ts, event_id,
                       CASE WHEN event_type = 'purchase'
                            THEN CAST(round(value * 100) AS BIGINT)
                            ELSE -CAST(round(value * 100) AS BIGINT)
                       END AS delta
                FROM events
            ),
            s AS (
                SELECT user_id,
                       sum(delta) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS s,
                       row_number() OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS rn,
                       count(*) OVER (PARTITION BY user_id) AS n
                FROM d
            ),
            w AS (
                SELECT user_id, s, rn, n,
                       min(s) OVER (PARTITION BY user_id ORDER BY rn
                           ROWS UNBOUNDED PRECEDING) AS mn,
                       coalesce(min(s) OVER (PARTITION BY user_id
                           ORDER BY rn ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING), 0) AS prevmn
                FROM s
            ),
            agg AS (
                SELECT user_id,
                       max(CASE WHEN rn = n
                           THEN s - least(0, mn) END) AS balance_cents,
                       sum(CASE WHEN s < least(0, prevmn)
                           THEN 1 ELSE 0 END) AS n_clamps
                FROM w GROUP BY user_id
            )
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(balance_cents AS BIGINT) AS balance_cents,
                   CAST(n_clamps AS BIGINT) AS n_clamps
            FROM agg ORDER BY balance_cents DESC, user_id LIMIT 25
        """,
        "theil_sen": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       CAST(round(round(avg(value), 6) * 1000000)
                            AS BIGINT) AS mi
                FROM events GROUP BY 1, 2
            ),
            num AS (
                SELECT event_type, mi,
                       row_number() OVER (PARTITION BY event_type
                           ORDER BY day) - 1 AS x
                FROM daily
            ),
            sl AS (
                SELECT a.event_type,
                       CAST(b.mi - a.mi AS DOUBLE) / (b.x - a.x) AS s
                FROM num a JOIN num b
                  ON a.event_type = b.event_type AND b.x > a.x
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n_pairs,
                   round(2 * median(s), 6) AS slope2_micro
            FROM sl GROUP BY event_type ORDER BY event_type
        """,
        "partition_checksums": """
            WITH r AS (
                SELECT date_trunc('day', ts) AS day, event_id,
                       CAST(event_id AS VARCHAR) || '|' ||
                       CAST(user_id AS VARCHAR) || '|' ||
                       event_type || '|' ||
                       CAST(epoch_us(ts) AS VARCHAR) || '|' ||
                       CAST(CAST(round(value * 100) AS BIGINT) AS VARCHAR)
                           AS line
                FROM events
            )
            SELECT day, CAST(count(*) AS BIGINT) AS n_rows,
                   sha256(string_agg(line, chr(10) ORDER BY event_id))
                       AS sha
            FROM r GROUP BY day ORDER BY day
        """,
        "winsorized_mean": """
            WITH q AS (
                SELECT event_type,
                       quantile_disc(value, 0.05) AS p_lo,
                       quantile_disc(value, 0.95) AS p_hi,
                       count(*) AS n
                FROM events GROUP BY 1
            )
            SELECT e.event_type, CAST(max(q.n) AS BIGINT) AS n,
                   round(max(q.p_lo), 6) AS p_lo,
                   round(max(q.p_hi), 6) AS p_hi,
                   CAST(sum(CASE WHEN e.value < q.p_lo
                                 OR e.value > q.p_hi
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_clipped,
                   round(sum(e.value) / max(q.n), 6) AS mean_raw,
                   round(sum(CASE WHEN e.value < q.p_lo THEN q.p_lo
                                  WHEN e.value > q.p_hi THEN q.p_hi
                                  ELSE e.value END) / max(q.n), 6)
                       AS mean_winsorized
            FROM events e JOIN q USING (event_type)
            GROUP BY e.event_type ORDER BY e.event_type
        """,
        "compaction_plan": """
            WITH RECURSIVE daily AS (
                SELECT date_trunc('day', ts) AS day, count(*) AS n
                FROM events GROUP BY 1
            ),
            num AS (
                SELECT day, n, row_number() OVER (ORDER BY day) AS rn
                FROM daily
            ),
            rec AS (
                SELECT day, n, rn, 1 AS bin, n AS bin_fill
                FROM num WHERE rn = 1
                UNION ALL
                SELECT x.day, x.n, x.rn,
                       CASE WHEN r.bin_fill + x.n > 1200
                            THEN r.bin + 1 ELSE r.bin END,
                       CASE WHEN r.bin_fill + x.n > 1200
                            THEN x.n ELSE r.bin_fill + x.n END
                FROM rec r JOIN num x ON x.rn = r.rn + 1
            )
            SELECT day, CAST(n AS BIGINT) AS n,
                   CAST(bin AS BIGINT) AS bin,
                   CAST(bin_fill AS BIGINT) AS bin_fill
            FROM rec ORDER BY day
        """,
        "rolling_median_smooth": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       round(avg(value), 6) AS m,
                       CAST(round(round(avg(value), 6) * 1000000)
                            AS BIGINT) AS mi
                FROM events GROUP BY 1, 2
            ),
            w AS (
                SELECT event_type, day, m, mi,
                       CAST(round(2 * median(mi) OVER (
                           PARTITION BY event_type ORDER BY day
                           ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING))
                           AS BIGINT) AS med2_micro
                FROM daily
            )
            SELECT event_type, day, m, med2_micro,
                   abs(2 * mi - med2_micro) > 16000000 AS is_spike
            FROM w ORDER BY event_type, day
        """,
        "hierarchy_rollup": """
            WITH RECURSIVE cl AS (
                SELECT c_custkey AS node, c_custkey AS anc,
                       c_acctbal AS bal
                FROM customer
                UNION ALL
                SELECT node, anc // 2, bal FROM cl WHERE anc > 0
            ),
            agg AS (
                SELECT anc, count(*) AS subtree_size,
                       round(sum(bal), 4) AS subtree_bal
                FROM cl GROUP BY 1
            ),
            dep AS (SELECT node, count(*) - 1 AS depth FROM cl GROUP BY 1)
            SELECT CAST(anc AS BIGINT) AS c_custkey,
                   CAST(depth AS BIGINT) AS depth,
                   CAST(subtree_size AS BIGINT) AS subtree_size,
                   subtree_bal
            FROM agg JOIN dep ON node = anc
            WHERE anc < 63 ORDER BY c_custkey
        """,
        "holt_forecast": """
            WITH RECURSIVE daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       CAST(count(*) AS DOUBLE) AS y
                FROM events GROUP BY 1, 2
            ),
            numbered AS (
                SELECT event_type, y,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY day) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM daily
            ),
            rec AS (
                SELECT a.event_type, 1 AS rn, a.y AS l, b.y - a.y AS b, a.n
                FROM numbered a JOIN numbered b
                  ON a.event_type = b.event_type AND a.rn = 1 AND b.rn = 2
                UNION ALL
                SELECT r.event_type, r.rn + 1,
                       0.5 * d.y + 0.5 * (r.l + r.b),
                       0.3 * ((0.5 * d.y + 0.5 * (r.l + r.b)) - r.l)
                           + 0.7 * r.b,
                       r.n
                FROM rec r JOIN numbered d
                  ON d.event_type = r.event_type AND d.rn = r.rn + 1
            )
            SELECT event_type, CAST(n AS BIGINT) AS n_days,
                   round(l, 6) AS level, round(b, 6) AS trend,
                   round(l + 7 * b, 6) AS forecast_7
            FROM rec WHERE rn = n ORDER BY event_type
        """,
        "er_blocking": """
            WITH p AS (
                SELECT a.p_brand AS brand,
                       levenshtein(a.p_name, b.p_name) AS d
                FROM part a JOIN part b
                  ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
            ),
            agg AS (
                SELECT brand, count(*) AS pairs,
                       sum(CASE WHEN d = 0 THEN 1 ELSE 0 END) AS dup_d0,
                       sum(CASE WHEN d <= 1 THEN 1 ELSE 0 END) AS dup_le1,
                       sum(CASE WHEN d <= 2 THEN 1 ELSE 0 END) AS dup_le2
                FROM p GROUP BY brand
            ),
            it AS (SELECT p_brand AS brand, count(*) AS n_items
                   FROM part GROUP BY 1)
            SELECT brand, CAST(n_items AS BIGINT) AS n_items,
                   CAST(coalesce(pairs, 0) AS BIGINT) AS pairs,
                   CAST(coalesce(dup_d0, 0) AS BIGINT) AS dup_d0,
                   CAST(coalesce(dup_le1, 0) AS BIGINT) AS dup_le1,
                   CAST(coalesce(dup_le2, 0) AS BIGINT) AS dup_le2
            FROM it LEFT JOIN agg USING (brand) ORDER BY brand
        """,
        "mutual_info": """
            WITH cells AS (
                SELECT c_mktsegment AS seg,
                       CAST(c_nationkey AS BIGINT) AS nat,
                       count(*) AS n
                FROM customer GROUP BY 1, 2
            ),
            tot AS (SELECT sum(n) AS total FROM cells),
            rw AS (SELECT seg, sum(n) AS nr FROM cells GROUP BY 1),
            cl AS (SELECT nat, sum(n) AS nc FROM cells GROUP BY 1)
            SELECT seg, nat, CAST(n AS BIGINT) AS n,
                   round(ln(CAST(n AS DOUBLE) * total / (nr * nc)), 6)
                       AS pmi,
                   round(CAST(n AS DOUBLE) / total
                         * ln(CAST(n AS DOUBLE) * total / (nr * nc)), 6)
                       AS contrib
            FROM cells JOIN rw USING (seg) JOIN cl USING (nat)
            CROSS JOIN tot
            ORDER BY seg, nat
        """,
        "cramers_v": """
            WITH cells AS (
                SELECT c_mktsegment AS seg, c_nationkey AS nat,
                       count(*) AS n
                FROM customer GROUP BY 1, 2
            ),
            tot AS (SELECT sum(n) AS total, count(*) AS n_cells FROM cells),
            rw AS (SELECT seg, sum(n) AS nr FROM cells GROUP BY 1),
            cl AS (SELECT nat, sum(n) AS nc FROM cells GROUP BY 1),
            dims AS (SELECT (SELECT count(*) FROM rw) AS kr,
                            (SELECT count(*) FROM cl) AS kc),
            chi AS (
                SELECT sum(pow(n - CAST(nr AS DOUBLE) * nc / total, 2)
                           / (CAST(nr AS DOUBLE) * nc / total)) AS chi2
                FROM cells JOIN rw USING (seg) JOIN cl USING (nat)
                CROSS JOIN tot
            )
            SELECT CAST(total AS BIGINT) AS n_rows,
                   CAST(n_cells AS BIGINT) AS n_cells,
                   round(chi2, 4) AS chi2,
                   round(sqrt(chi2 / (total * (least(kr, kc) - 1))), 6)
                       AS cramers_v
            FROM tot, chi, dims
        """,
        "k_anonymity": """
            SELECT CAST(c_nationkey AS BIGINT) AS nat,
                   c_mktsegment AS seg,
                   CAST(floor(c_acctbal / 2000.0) AS BIGINT) AS bal_bin,
                   CAST(count(*) AS BIGINT) AS n
            FROM customer GROUP BY 1, 2, 3
            HAVING count(*) >= 5 ORDER BY 1, 2, 3
        """,
        "k_anonymity_stats": """
            WITH g AS (
                SELECT count(*) AS n
                FROM customer
                GROUP BY c_nationkey, c_mktsegment,
                         floor(c_acctbal / 2000.0)
            )
            SELECT CAST(sum(CASE WHEN n >= 5 THEN 1 ELSE 0 END) AS BIGINT)
                       AS groups_released,
                   CAST(sum(CASE WHEN n < 5 THEN 1 ELSE 0 END) AS BIGINT)
                       AS groups_suppressed,
                   CAST(coalesce(sum(CASE WHEN n >= 5 THEN n END), 0)
                        AS BIGINT) AS rows_released,
                   CAST(coalesce(sum(CASE WHEN n < 5 THEN n END), 0)
                        AS BIGINT) AS rows_suppressed,
                   CAST(coalesce(min(CASE WHEN n >= 5 THEN n END), 0)
                        AS BIGINT) AS min_released_size
            FROM g
        """,
        "ab_ztest": """
            WITH u AS (
                SELECT user_id, user_id % 2 AS cohort,
                       max(CASE WHEN event_type = 'purchase'
                                AND value > 150.0
                           THEN 1 ELSE 0 END) AS conv
                FROM events GROUP BY 1, 2
            ),
            c AS (
                SELECT cohort, count(*) AS users, sum(conv) AS converted
                FROM u GROUP BY 1
            ),
            w AS (
                SELECT
                    (SELECT users FROM c WHERE cohort = 0) AS na,
                    (SELECT converted FROM c WHERE cohort = 0) AS xa,
                    (SELECT users FROM c WHERE cohort = 1) AS nb,
                    (SELECT converted FROM c WHERE cohort = 1) AS xb
            )
            SELECT CAST(na AS BIGINT) AS users_a,
                   CAST(xa AS BIGINT) AS conv_a,
                   CAST(nb AS BIGINT) AS users_b,
                   CAST(xb AS BIGINT) AS conv_b,
                   round(CAST(xa AS DOUBLE) / na, 6) AS rate_a,
                   round(CAST(xb AS DOUBLE) / nb, 6) AS rate_b,
                   round((CAST(xa AS DOUBLE) / na - CAST(xb AS DOUBLE) / nb)
                         / sqrt((CAST(xa + xb AS DOUBLE) / (na + nb))
                                * (1 - CAST(xa + xb AS DOUBLE) / (na + nb))
                                * (1.0 / na + 1.0 / nb)), 6) AS z
            FROM w
        """,
    }
    # sampling family: the salted sha256-prefix bucket is recomputed by
    # DuckDB byte-for-byte, so the whole decision path is SQL-checkable
    from nadry_search_engine_be_ray.stages.sampling import split_thresholds

    def _bkt(salt: str, col: str = "doc_id") -> str:
        return (
            f"cast(('0x' || substr(sha256('{salt}:' || "
            f"cast({col} as varchar)), 1, 8)) as bigint)"
        )

    _sp = split_thresholds([("train", 0.9), ("val", 0.05), ("test", 0.05)])
    _f32 = 1 << 32
    sqls["split_train_val"] = f"""
        WITH b AS (SELECT doc_id, {_bkt('split-v1')} AS bucket FROM documents)
        SELECT doc_id, bucket,
               CASE WHEN bucket < {_sp[0][1]} THEN 'train'
                    WHEN bucket < {_sp[1][1]} THEN 'val'
                    ELSE 'test' END AS split
        FROM b ORDER BY doc_id
    """
    sqls["stratified_sample"] = f"""
        WITH b AS (SELECT doc_id, lang, {_bkt('sample-v1')} AS bucket
                   FROM documents)
        SELECT doc_id, lang, bucket FROM b
        WHERE bucket < CASE lang
            WHEN 'en' THEN {int(round(0.5 * _f32))}
            WHEN 'de' THEN {int(round(1.0 * _f32))}
            WHEN 'zh' THEN {int(round(0.25 * _f32))}
            ELSE {int(round(0.1 * _f32))} END
        ORDER BY doc_id
    """
    sqls["domain_cap"] = """
        SELECT doc_id, source FROM (
            SELECT doc_id, source,
                   row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
            FROM documents
        ) WHERE rn <= 7 ORDER BY doc_id
    """
    sqls["quota_sample"] = f"""
        WITH b AS (SELECT doc_id, source, {_bkt('quota-v1')} AS bucket
                   FROM documents),
        r AS (SELECT *, row_number() OVER
                  (PARTITION BY source ORDER BY bucket, doc_id) AS rn
              FROM b)
        SELECT doc_id, source, bucket FROM r
        WHERE rn <= CASE source WHEN 'src0' THEN 10 WHEN 'src1' THEN 5
                                WHEN 'src2' THEN 3 ELSE 0 END
        ORDER BY doc_id
    """
    sqls["temperature_mix"] = f"""
        WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
        tgt AS (SELECT lang,
                       CAST(floor(200 * sqrt(CAST(n AS DOUBLE)) /
                                  (SELECT sum(sqrt(CAST(n AS DOUBLE)))
                                   FROM c)) AS BIGINT) AS t
                FROM c),
        b AS (SELECT doc_id, lang, {_bkt('mix-v1')} AS bucket
              FROM documents),
        r AS (SELECT *, row_number() OVER
                  (PARTITION BY lang ORDER BY bucket, doc_id) AS rn
              FROM b)
        SELECT r.doc_id, r.lang, r.bucket
        FROM r JOIN tgt ON tgt.lang = r.lang
        WHERE r.rn <= tgt.t
        ORDER BY r.doc_id
    """
    sqls["shuffle_shards"] = f"""
        WITH b AS (SELECT doc_id, {_bkt('shuffle-v1')} AS bucket FROM documents)
        SELECT doc_id, bucket, bucket % 8 AS shard,
               row_number() OVER (PARTITION BY bucket % 8
                                  ORDER BY bucket, doc_id) - 1 AS pos
        FROM b ORDER BY shard, pos
    """
    # clustering: the iterative k-means fit is dumped (centroids /
    # assignments); DuckDB independently recomputes the argmax-cosine
    # assignment and the within-cluster near-dup pair join
    sqls["kmeans_clusters"] = f"""
        WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings),
        c AS (SELECT cluster_id, v AS cv
              FROM read_parquet('{_KM_DUMP_DIR}/centroids.parquet')),
        r AS (SELECT e.vec_id, c.cluster_id,
                     row_number() OVER (PARTITION BY e.vec_id
                         ORDER BY list_cosine_similarity(e.v, c.cv) DESC,
                                  c.cluster_id) AS rn
              FROM e CROSS JOIN c)
        SELECT vec_id, cluster_id AS cluster FROM r WHERE rn = 1
        ORDER BY vec_id
    """
    sqls["semdedup_pairs"] = f"""
        WITH base AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                      FROM embeddings),
        aug AS (
            SELECT vec_id, v FROM base
            UNION ALL
            SELECT vec_id + 1000000, list_concat([v[1] * 1.25], v[2:])
            FROM base
            WHERE vec_id IN (SELECT vec_id FROM base ORDER BY vec_id LIMIT 5)
        ),
        asg AS (SELECT * FROM read_parquet('{_SD_DUMP_DIR}/assign.parquet'))
        SELECT x.vec_id AS a, y.vec_id AS b, ax.cluster AS cluster,
               round(list_cosine_similarity(x.v, y.v), 6) AS cosine
        FROM aug x JOIN asg ax ON x.vec_id = ax.vec_id
             JOIN asg ay ON ay.cluster = ax.cluster
             JOIN aug y ON y.vec_id = ay.vec_id
        WHERE x.vec_id < y.vec_id
          AND list_cosine_similarity(x.v, y.v) >= 0.95
        ORDER BY a, b
    """
    # exact-substring dup spans: rebuild the augmented corpus, explode
    # 8-gram positions, keep grams in >= 2 distinct docs, merge surviving
    # positions per doc with a gaps-and-islands window
    _DSN = 8
    sqls["dup_spans"] = f"""
        WITH aug AS (
            SELECT doc_id, text FROM documents
            UNION ALL
            SELECT doc_id + 4000000, text FROM documents
            WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 3)
            UNION ALL
            SELECT 5000000,
                   array_to_string(
                       (regexp_extract_all(lower(text), '[a-z0-9_]+'))[6:25], ' ')
            FROM (SELECT text FROM documents ORDER BY doc_id LIMIT 1)
        ),
        toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
            FROM aug
        ),
        pg AS (
            SELECT doc_id, u.s.i - 1 AS pos, u.s.g AS gram
            FROM (
                SELECT doc_id,
                       list_transform(range(1, len(ts) - {_DSN} + 2),
                           i -> struct_pack(i := i,
                               g := array_to_string(ts[i : i + {_DSN} - 1], ' '))) AS gs
                FROM toks WHERE len(ts) >= {_DSN}
            ), unnest(gs) AS u(s)
        ),
        dpos AS (
            SELECT doc_id, pos FROM pg
            WHERE gram IN (SELECT gram FROM pg
                           GROUP BY gram HAVING count(DISTINCT doc_id) >= 2)
        ),
        isl AS (
            SELECT doc_id, pos,
                   CASE WHEN lag(pos) OVER w IS NULL
                             OR pos > lag(pos) OVER w + {_DSN}
                        THEN 1 ELSE 0 END AS brk
            FROM dpos WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
        ),
        gisl AS (
            SELECT doc_id, pos,
                   sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS gid
            FROM isl
        )
        SELECT doc_id, min(pos) AS span_start, max(pos) + {_DSN} AS span_end,
               count(*) AS n_dup_grams
        FROM gisl GROUP BY doc_id, gid ORDER BY doc_id, span_start
    """
    # BPE pair counting: re-derive intra-word adjacent char pairs per word
    # occurrence from scratch
    sqls["bpe_pair_counts"] = """
        WITH words AS (
            SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS w
            FROM documents
        ),
        prs AS (
            SELECT w[i:i] AS a, w[i+1:i+1] AS b
            FROM (SELECT w, unnest(range(1, len(w))) AS i
                  FROM words WHERE len(w) >= 2)
        )
        SELECT a, b, count(*) AS n FROM prs
        GROUP BY a, b ORDER BY n DESC, a, b LIMIT 50
    """
    # logistic-regression scoring from the dumped trained weights
    sqls["lr_quality_scores"] = f"""
        WITH wt AS (SELECT w, b FROM read_parquet('{_LR_DUMP_DIR}/weights.parquet')),
        e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
        s AS (SELECT vec_id,
                     list_dot_product(v, (SELECT w FROM wt))
                         + (SELECT b FROM wt) AS z
              FROM e)
        SELECT vec_id,
               round(1 / (1 + exp(-z)), 6) AS score,
               1 / (1 + exp(-z)) >= 0.5 AS pred
        FROM s ORDER BY vec_id
    """
    # the pointer-doubling CC variant converges to the SAME labels as the
    # propagate method (both = component-min transitive closure)
    sqls["near_dup_clusters_pd"] = sqls["near_dup_clusters"]
    # Stupid-Backoff n-gram LM: the count-training AND the closed-form
    # scoring rule are both SQL-expressible, so DuckDB recomputes the whole
    # train->score pipeline independently (no dump)
    sqls["ngram_lm_top"] = """
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
            FROM documents
        ),
        pos AS (
            SELECT ts, unnest(range(2, len(ts) + 1)) AS i
            FROM toks WHERE len(ts) >= 2
        )
        SELECT ts[i - 1] AS v, ts[i] AS w, count(*) AS n
        FROM pos GROUP BY ts[i - 1], ts[i]
        HAVING count(*) >= 2
        ORDER BY n DESC, v, w LIMIT 100
    """
    sqls["lm_perplexity"] = """
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
            FROM documents
        ),
        pw AS (
            SELECT doc_id, ts[i] AS w,
                   CASE WHEN i > 1 THEN ts[i - 1] END AS v
            FROM (SELECT doc_id, ts, unnest(range(1, len(ts) + 1)) AS i
                  FROM toks WHERE len(ts) > 0)
        ),
        tot AS (SELECT count(*)::DOUBLE AS n FROM pw),
        unik AS (SELECT w, count(*)::DOUBLE AS c FROM pw
                 GROUP BY w HAVING count(*) >= 2),
        bigk AS (SELECT v, w, count(*)::DOUBLE AS c FROM pw
                 WHERE v IS NOT NULL GROUP BY v, w HAVING count(*) >= 2),
        sc AS (
            SELECT p.doc_id,
                   CASE
                     WHEN p.v IS NULL THEN
                       log10(coalesce(u.c, 0.4) / (SELECT n FROM tot))
                     WHEN b.c IS NOT NULL AND uv.c IS NOT NULL THEN
                       log10(b.c / uv.c)
                     ELSE
                       log10(0.4 * (coalesce(u.c, 0.4) / (SELECT n FROM tot)))
                   END AS lp
            FROM pw p
            LEFT JOIN unik u ON u.w = p.w
            LEFT JOIN unik uv ON uv.w = p.v
            LEFT JOIN bigk b ON b.v = p.v AND b.w = p.w
        ),
        agg AS (SELECT doc_id, sum(lp) AS lp FROM sc GROUP BY doc_id)
        SELECT t.doc_id,
               len(t.ts) AS n_tokens,
               round(coalesce(a.lp, 0.0), 6) AS log10_prob,
               round(pow(10, -coalesce(a.lp, 0.0)
                             / greatest(len(t.ts), 1)), 6) AS ppl
        FROM toks t LEFT JOIN agg a USING (doc_id)
        ORDER BY t.doc_id
    """
    # DSIR importance resampling: both bag-of-gram models and the per-doc
    # log-ratio weights recomputed end-to-end in SQL; ranking uses the
    # ROUNDED weight (both sides) so boundary ties break by doc_id
    sqls["dsir_select"] = """
        WITH toks AS (
            SELECT doc_id, lang,
                   regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
            FROM documents
        ),
        pos AS (
            SELECT doc_id, lang, ts[i] AS g
            FROM (SELECT doc_id, lang, ts, unnest(range(1, len(ts) + 1)) AS i
                  FROM toks WHERE len(ts) > 0)
            UNION ALL
            SELECT doc_id, lang, ts[i - 1] || ' ' || ts[i] AS g
            FROM (SELECT doc_id, lang, ts, unnest(range(2, len(ts) + 1)) AS i
                  FROM toks WHERE len(ts) >= 2)
        ),
        raw AS (SELECT g, count(*)::DOUBLE AS cr FROM pos GROUP BY g),
        tgt AS (SELECT g, count(*)::DOUBLE AS ct FROM pos
                WHERE lang = 'en' GROUP BY g),
        consts AS (
            SELECT (SELECT count(*) FROM raw)::DOUBLE AS v,
                   (SELECT count(*) FROM pos)::DOUBLE AS nr,
                   (SELECT count(*) FROM pos WHERE lang = 'en')::DOUBLE AS nt
        ),
        ratio AS (
            SELECT r.g,
                   log10(coalesce(t.ct, 0) + 0.1)
                   - log10(c.nt + 0.1 * c.v)
                   - log10(r.cr + 0.1)
                   + log10(c.nr + 0.1 * c.v) AS lr
            FROM raw r LEFT JOIN tgt t USING (g) CROSS JOIN consts c
        ),
        wts AS (
            SELECT p.doc_id, round(sum(x.lr), 6) AS weight
            FROM pos p JOIN ratio x USING (g)
            GROUP BY p.doc_id
        ),
        everydoc AS (
            SELECT d.doc_id, coalesce(w.weight, 0.0) AS weight
            FROM documents d LEFT JOIN wts w USING (doc_id)
        ),
        ranked AS (
            SELECT doc_id, weight,
                   row_number() OVER (ORDER BY weight DESC, doc_id) - 1
                       AS rank
            FROM everydoc
        )
        SELECT rank, doc_id, weight FROM ranked
        WHERE rank < 100 ORDER BY rank
    """
    # CCNet perplexity buckets: the full LM chain above + row_number()
    # ranking (rank over the ROUNDED ppl, doc_id tiebreak — both sides)
    sqls["ppl_buckets"] = f"""
        WITH base AS ({sqls["lm_perplexity"]}),
        ranked AS (
            SELECT doc_id,
                   row_number() OVER (ORDER BY ppl, doc_id) - 1 AS rank,
                   count(*) OVER () AS n
            FROM base
        )
        SELECT doc_id, rank, rank * 3 // n AS bucket
        FROM ranked ORDER BY doc_id
    """
    # PQ ANN: codebook dumped (k-means isn't SQL); DuckDB independently
    # recomputes normalization, per-subspace code assignment (argmin with
    # (distance, cluster) tiebreak), ADC distances, and the
    # (rounded-dist, vec_id) ranking
    sqls["ivfpq_ann_topk"] = f"""
        WITH cb AS (
            SELECT sub, cluster, centroid
            FROM read_parquet('{_IVFPQ_DUMP_DIR}/codebooks.parquet')
        ),
        e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
              FROM embeddings),
        n AS (
            SELECT vec_id,
                   list_transform(v, x -> x / greatest(
                       sqrt(list_dot_product(v, v)), 1e-12)) AS v
            FROM e
        ),
        subs AS (
            SELECT vec_id, s.sub, n.v[s.sub * 8 + 1 : (s.sub + 1) * 8] AS sv
            FROM n, (SELECT unnest(range(0, 8)) AS sub) s
        ),
        codes AS (
            SELECT vec_id, sub, cluster FROM (
                SELECT subs.vec_id, subs.sub, cb.cluster,
                       row_number() OVER (
                           PARTITION BY subs.vec_id, subs.sub
                           ORDER BY list_distance(subs.sv, cb.centroid),
                                    cb.cluster
                       ) AS rn
                FROM subs JOIN cb ON cb.sub = subs.sub
            ) WHERE rn = 1
        ),
        qsub AS (
            SELECT vec_id AS query_id, sub, sv FROM subs
            WHERE vec_id IN (SELECT vec_id FROM embeddings
                             ORDER BY vec_id LIMIT 3)
        ),
        qtab AS (
            SELECT qs.query_id, qs.sub, cb.cluster,
                   pow(list_distance(qs.sv, cb.centroid), 2) AS d2
            FROM qsub qs JOIN cb ON cb.sub = qs.sub
        ),
        cand AS (
            SELECT p.query_id, a.vec_id
            FROM read_parquet('{_IVFPQ_DUMP_DIR}/probes.parquet') p
            JOIN read_parquet('{_IVFPQ_DUMP_DIR}/assign.parquet') a
                 USING (ivf_list)
        ),
        adc AS (
            SELECT cand.query_id, cand.vec_id,
                   round(sum(qt.d2), 6) AS adc_dist
            FROM cand
            JOIN codes c ON c.vec_id = cand.vec_id
            JOIN qtab qt ON qt.query_id = cand.query_id
                        AND qt.sub = c.sub AND qt.cluster = c.cluster
            GROUP BY cand.query_id, cand.vec_id
        ),
        ranked AS (
            SELECT query_id, vec_id, adc_dist,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY adc_dist, vec_id) - 1 AS rank
            FROM adc
        )
        SELECT query_id, rank, vec_id, adc_dist FROM ranked
        WHERE rank < 10 ORDER BY query_id, rank
    """
    sqls["pq_ann_topk"] = f"""
        WITH cb AS (
            SELECT sub, cluster, centroid
            FROM read_parquet('{_PQ_DUMP_DIR}/codebooks.parquet')
        ),
        e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
              FROM embeddings),
        n AS (
            SELECT vec_id,
                   list_transform(v, x -> x / greatest(
                       sqrt(list_dot_product(v, v)), 1e-12)) AS v
            FROM e
        ),
        subs AS (
            SELECT vec_id, s.sub, n.v[s.sub * 8 + 1 : (s.sub + 1) * 8] AS sv
            FROM n, (SELECT unnest(range(0, 8)) AS sub) s
        ),
        codes AS (
            SELECT vec_id, sub, cluster FROM (
                SELECT subs.vec_id, subs.sub, cb.cluster,
                       row_number() OVER (
                           PARTITION BY subs.vec_id, subs.sub
                           ORDER BY list_distance(subs.sv, cb.centroid),
                                    cb.cluster
                       ) AS rn
                FROM subs JOIN cb ON cb.sub = subs.sub
            ) WHERE rn = 1
        ),
        qsub AS (
            SELECT vec_id AS query_id, sub, sv FROM subs
            WHERE vec_id IN (SELECT vec_id FROM embeddings
                             ORDER BY vec_id LIMIT 3)
        ),
        qtab AS (
            SELECT qs.query_id, qs.sub, cb.cluster,
                   pow(list_distance(qs.sv, cb.centroid), 2) AS d2
            FROM qsub qs JOIN cb ON cb.sub = qs.sub
        ),
        adc AS (
            SELECT qt.query_id, c.vec_id, round(sum(qt.d2), 6) AS adc_dist
            FROM codes c
            JOIN qtab qt ON qt.sub = c.sub AND qt.cluster = c.cluster
            GROUP BY qt.query_id, c.vec_id
        ),
        ranked AS (
            SELECT query_id, vec_id, adc_dist,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY adc_dist, vec_id) - 1 AS rank
            FROM adc
        )
        SELECT query_id, rank, vec_id, adc_dist FROM ranked
        WHERE rank < 10 ORDER BY query_id, rank
    """
    # nb_confusion shares the full NB recompute chain and swaps the final
    # projection for the confusion/precision/recall/F1 aggregation
    sqls["nb_confusion"] = sqls["naive_bayes"].replace(
        """SELECT doc_id, lang AS pred_label, round(sc, 4) AS score
            FROM best WHERE rb = 1 ORDER BY doc_id""",
        """, conf AS (
                SELECT d.lang AS true_lang, b.lang AS pred_lang,
                       count(*) AS n
                FROM best b JOIN documents d USING (doc_id)
                WHERE b.rb = 1 GROUP BY 1, 2
            ),
            langs AS (SELECT DISTINCT lang FROM documents),
            m AS (
                SELECT l.lang,
                       coalesce((SELECT sum(n) FROM conf
                                 WHERE true_lang = l.lang), 0) AS n_true,
                       coalesce((SELECT sum(n) FROM conf
                                 WHERE pred_lang = l.lang), 0) AS n_pred,
                       coalesce((SELECT sum(n) FROM conf
                                 WHERE true_lang = l.lang
                                   AND pred_lang = l.lang), 0) AS tp
                FROM langs l
            ),
            pr AS (
                SELECT lang, n_true, n_pred, tp,
                       CASE WHEN n_pred > 0
                            THEN CAST(tp AS DOUBLE) / n_pred
                            ELSE 0.0 END AS p,
                       CASE WHEN n_true > 0
                            THEN CAST(tp AS DOUBLE) / n_true
                            ELSE 0.0 END AS r
                FROM m
            )
            SELECT lang, CAST(n_true AS BIGINT) AS n_true,
                   CAST(n_pred AS BIGINT) AS n_pred,
                   CAST(tp AS BIGINT) AS tp,
                   round(p, 6) AS precision, round(r, 6) AS recall,
                   round(CASE WHEN p + r > 0
                              THEN 2 * p * r / (p + r)
                              ELSE 0.0 END, 6) AS f1
            FROM pr ORDER BY lang""")
    assert sqls["nb_confusion"] != sqls["naive_bayes"]
    return sqls
