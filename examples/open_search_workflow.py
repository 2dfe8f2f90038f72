#!/usr/bin/env python
"""Full OMS workflow: modified-peptide discovery with tool comparison.

Reproduces the scientific story of the paper's introduction: a
reference library only contains *unmodified* peptides, yet ~half the
measured spectra carry modifications.  A standard (narrow-window)
search misses them; the open search recovers them.  The script then
cross-checks the HD search against the ANN-SoLo-style shifted-dot-
product baseline, and breaks identifications down by the modification
actually present (the "delta-mass histogram" view practitioners use).

Run:  python examples/open_search_workflow.py
"""

from collections import Counter

from repro.baselines import AnnSoloSearcher
from repro.hdc import HDSpaceConfig
from repro.ms import append_decoys, decoy_factory
from repro.oms import (
    HDSearchConfig,
    OmsPipeline,
    PipelineConfig,
    analyze_modifications,
    grouped_fdr,
)
from repro.experiments import iprg2012_like

FDR = 0.01

workload = iprg2012_like(scale=0.5)
print(f"workload: {workload.summary()}")

# --- 1. standard vs. open search with the same HD pipeline ----------
for mode in ("standard", "open"):
    config = PipelineConfig(
        space=HDSpaceConfig(dim=4096, id_precision_bits=3, seed=1),
        search=HDSearchConfig(mode=mode),
        fdr_threshold=FDR,
    )
    pipeline = OmsPipeline.from_workload(workload, config)
    result = pipeline.run_workload(workload)
    modified = sum(1 for psm in result.accepted_psms if psm.is_modified_match)
    print(
        f"{mode:>8s} search: {result.num_identifications:4d} peptides "
        f"({modified} modified matches), "
        f"precision={result.evaluation['precision']:.3f}"
    )

# --- 2. what modifications did the open search find? ----------------
config = PipelineConfig(
    space=HDSpaceConfig(dim=4096, id_precision_bits=3, seed=1),
    fdr_threshold=FDR,
)
pipeline = OmsPipeline.from_workload(workload, config)
result = pipeline.run_workload(workload)

truth_mods = {}
for query in workload.queries:
    if query.peptide is not None and query.peptide.is_modified:
        truth_mods[query.identifier] = query.peptide.modifications[0].name

found = Counter(
    truth_mods[psm.query_id]
    for psm in result.accepted_psms
    if psm.query_id in truth_mods and psm.is_modified_match
)
print("\nmodified identifications by PTM type (top 8):")
for name, count in found.most_common(8):
    print(f"  {name:20s} {count}")

delta_masses = [
    round(psm.precursor_mass_difference, 2)
    for psm in result.accepted_psms
    if psm.is_modified_match
]
print("\nmost frequent precursor delta masses (Da):")
for delta, count in Counter(delta_masses).most_common(6):
    print(f"  {delta:+8.2f}  x{count}")

# --- 2b. the practitioner's view: automated PTM annotation ----------
report = analyze_modifications(result.accepted_psms, min_count=2)
print("\nautomated modification report:")
print(report.render())

# --- 3. cross-check against the ANN-SoLo-style baseline -------------
library = append_decoys(workload.references, decoy_factory(workload.config.seed), seed=99)
annsolo = AnnSoloSearcher(library)
baseline_accepted = grouped_fdr(annsolo.search(workload.queries).psms, FDR)
baseline_ids = {psm.peptide_key for psm in baseline_accepted if psm.peptide_key}
shared = result.identified_peptides & baseline_ids
print(
    f"\nANN-SoLo-style baseline: {len(baseline_ids)} peptides; "
    f"{len(shared)} shared with HD search "
    f"({len(shared) / max(len(baseline_ids), 1):.0%} agreement)"
)
