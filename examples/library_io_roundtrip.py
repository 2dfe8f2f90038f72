#!/usr/bin/env python
"""Working with real file formats: MGF queries and an MSP library.

Shows the package as a practitioner would use it on disk data: write a
synthetic library to MSP and queries to MGF, read both back, and search
— the exact workflow for users bringing their own files.

Run:  python examples/library_io_roundtrip.py
"""

import tempfile
from pathlib import Path

from repro.hdc import HDSpaceConfig
from repro.ms import (
    WorkloadConfig,
    build_workload,
    decoy_factory,
    read_mgf,
    read_msp,
    write_mgf,
    write_msp,
)
from repro.oms import OmsPipeline, PipelineConfig

workload = build_workload(
    WorkloadConfig(name="io-demo", num_references=800, num_queries=120, seed=77)
)

with tempfile.TemporaryDirectory() as tmp:
    library_path = Path(tmp) / "library.msp"
    queries_path = Path(tmp) / "queries.mgf"

    num_refs = write_msp(workload.references, library_path)
    num_queries = write_mgf(workload.queries, queries_path)
    print(f"wrote {num_refs} library entries -> {library_path.name}")
    print(f"wrote {num_queries} query spectra -> {queries_path.name}")

    references = list(read_msp(library_path))
    queries = list(read_mgf(queries_path))
    print(f"read back {len(references)} references, {len(queries)} queries")

    annotated = sum(1 for ref in references if ref.peptide is not None)
    print(f"library entries with parsed peptide annotations: {annotated}")

    pipeline = OmsPipeline(
        references,
        decoy_factory(workload.config.seed),
        config=PipelineConfig(
            space=HDSpaceConfig(dim=2048, id_precision_bits=3, seed=3)
        ),
    )
    result = pipeline.run(queries)
    print(
        f"identified {result.num_identifications} peptides at 1% FDR "
        "from file-loaded data"
    )
