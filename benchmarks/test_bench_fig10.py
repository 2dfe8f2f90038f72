"""Bench: regenerate Figure 10 (Venn diagram of identified peptides)."""

from repro.experiments import run_fig10


def test_fig10_venn_of_identifications(record):
    result = run_fig10()
    record(result)
    regions = {row[0]: row[1] for row in result.rows}
    # The triple intersection dominates: most identified peptides are
    # shared by all three tools (the paper's validity argument).
    exclusive = (
        regions["only_annsolo"]
        + regions["only_hyperoms"]
        + regions["only_this_work"]
    )
    assert regions["all_three"] > 3 * exclusive
    assert result.notes["triple_overlap_fraction_of_union"] > 0.5
    # This work's total identifications are comparable to both
    # state-of-the-art baselines (within 30%).
    totals = [
        regions["total_annsolo"],
        regions["total_hyperoms"],
        regions["total_this_work"],
    ]
    assert max(totals) <= 1.3 * min(totals)
    assert all(total > 0 for total in totals)
