"""Open modification spectral library search in high-dimensional space.

HD-OMS-MLC: hyperdimensional open-modification search on (simulated)
multi-level-cell RRAM.  A full reproduction of Fan et al., "Efficient Open Modification Spectral
Library Searching in High-Dimensional Space with Multi-Level-Cell
Memory" (DAC 2024, arXiv:2405.02756).  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured record.

Subpackages
-----------
``repro.ms``
    Mass-spectrometry substrate: peptides, spectra, preprocessing,
    MGF/MSP IO, decoys, synthetic workloads.
``repro.hdc``
    Hyperdimensional computing core: ID/level hypervectors, the
    ID-Level encoder, Hamming similarity, packing, noise injection.
``repro.oms``
    The search engine: precursor-window candidates, HD search,
    target-decoy FDR, end-to-end pipeline.
``repro.index``
    Persistent encoded-library index (build once, ``.npz`` on disk,
    memory-mapped load).
``repro.store``
    Out-of-core segmented library store and the one read path: streaming
    ingest bounded by ``segment_rows``, append/merge compaction, manifest
    provenance, and ``SegmentedSearcher``, which searches every library
    (a bare ``.npz`` opens as a one-segment store).
``repro.engine``
    ``EngineConfig`` — the single engine-construction config accepted
    by every searcher, the service layer, and the CLI flag group.
``repro.service``
    Long-lived online search service: dynamic micro-batching, LRU
    result caching, stdlib HTTP JSON API (``repro serve``), client.
``repro.baselines``
    ANN-SoLo-like, HyperOMS-like, and brute-force comparators.
``repro.rram``
    MLC RRAM simulator: device physics, differential crossbar MVM,
    dense hypervector storage, tiling, chip facade.
``repro.accelerator``
    This work's accelerator: in-memory encoding/search plus the
    performance & energy models.
``repro.experiments``
    One module per paper table/figure, regenerating its rows/series.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
