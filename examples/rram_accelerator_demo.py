#!/usr/bin/env python
"""Run the OMS pipeline on the simulated MLC RRAM accelerator.

Walks through everything the paper's hardware does, on the behavioural
chip model:

1. characterises the device (storage BER at 1/2/3 bits per cell after
   relaxation — Figure 7's measurement);
2. indexes a reference library on the in-memory search fabric and
   encodes queries through the chunked in-memory encoder (Section 4.2);
3. searches and compares accuracy against the exact digital pipeline;
4. prints the modelled speedup/energy story at paper scale (Figure 12).

Run:  python examples/rram_accelerator_demo.py
"""

import numpy as np

from repro.accelerator import (
    AcceleratorConfig,
    OmsAccelerator,
    PAPER_IPRG2012_SHAPE,
    energy_improvements,
    speedups_vs_this_work,
)
from repro.hdc import HDSpaceConfig
from repro.ms import append_decoys, decoy_factory
from repro.oms import HDOmsSearcher, PackedBackend, grouped_fdr
from repro.rram import HypervectorStore, PAPER_TIME_POINTS_S
from repro.hdc.encoder import SpectrumEncoder
from repro.hdc.spaces import HDSpace
from repro.ms.vectorize import BinningConfig
from repro.experiments import iprg2012_like

FDR = 0.01
DIM = 2048

# --- 1. device characterisation: dense hypervector storage ----------
print("== MLC storage characterisation (Figure 7) ==")
rng = np.random.default_rng(0)
hvs = (rng.integers(0, 2, size=(32, DIM), dtype=np.int8) * 2 - 1)
for bits in (1, 2, 3):
    store = HypervectorStore(bits, seed=bits)
    store.write(hvs)
    ber = store.read(PAPER_TIME_POINTS_S["after_1day"]).bit_error_rate
    print(f"  {bits} bit(s)/cell: BER after 1 day = {ber:6.2%} "
          f"(capacity {bits}x vs SLC)")

# --- 2. index + search on the simulated accelerator ------------------
print("\n== OMS on the simulated accelerator ==")
workload = iprg2012_like(scale=0.25)
library = append_decoys(workload.references, decoy_factory(workload.config.seed), seed=5)
space_config = HDSpaceConfig(dim=DIM, num_levels=16, id_precision_bits=3, seed=3)

accelerator = OmsAccelerator(
    config=AcceleratorConfig(seed=11),
    space_config=space_config,
    store_query_hypervectors=True,  # queries take the 3 bits/cell round trip
)
searcher = accelerator.build_searcher(library)
result = searcher.search(workload.queries)
accepted = grouped_fdr(result.psms, FDR)
rram_ids = {psm.peptide_key for psm in accepted if psm.peptide_key}
correct = sum(
    1 for psm in accepted if workload.truth.get(psm.query_id) == psm.peptide_key
)
print(f"  in-RRAM pipeline : {len(rram_ids)} peptides "
      f"({correct}/{len(accepted)} accepted PSMs correct)")
print(f"  encoder activity : {accelerator.im_encoder.stats}")
print(f"  search activity  : {accelerator.backend.stats}")

# --- 3. exact digital reference --------------------------------------
encoder = SpectrumEncoder(HDSpace(space_config), BinningConfig())
digital = HDOmsSearcher(encoder, library, backend=PackedBackend())
digital_accepted = grouped_fdr(digital.search(workload.queries).psms, FDR)
digital_ids = {psm.peptide_key for psm in digital_accepted if psm.peptide_key}
shared = rram_ids & digital_ids
print(f"  exact digital    : {len(digital_ids)} peptides; "
      f"{len(shared)} shared with RRAM path "
      f"({len(shared) / max(len(digital_ids), 1):.0%} agreement)")

# --- 4. modelled performance at paper scale ---------------------------
print("\n== Modelled performance at 16k x 1M scale (Figure 12) ==")
for name, value in speedups_vs_this_work(PAPER_IPRG2012_SHAPE).items():
    print(f"  this work is {value:6.1f}x faster than {name}")
for name, value in energy_improvements(PAPER_IPRG2012_SHAPE).items():
    print(f"  energy improvement vs ANN-SoLo CPU — {name}: {value:,.2f}x")
