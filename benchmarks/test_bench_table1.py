"""Bench: regenerate Table 1 (OMS workload settings)."""

from repro.experiments import run_table1


def test_table1_workload_settings(record):
    result = run_table1(scale=0.5)
    record(result)
    queries = result.column("queries")
    references = result.column("references")
    # Same structure as the paper's Table 1: two datasets, the second
    # with both a larger query set and a larger library.
    assert len(result.rows) == 2
    assert queries[1] > queries[0]
    assert references[1] > references[0]
    # Library >= 10x query count, as in both paper datasets.
    assert all(r >= 5 * q for q, r in zip(queries, references))
    # The open window must widen the candidate set by orders of
    # magnitude relative to the standard window (the paper's Section 1
    # motivation).
    open_candidates = result.column("open_cands")
    standard_candidates = result.column("std_cands")
    assert all(o > 20 * max(s, 0.05) for o, s in zip(open_candidates, standard_candidates))
