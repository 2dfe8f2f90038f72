"""Mass-spectrometry substrate: peptides, spectra, IO, and synthesis.

This subpackage supplies everything the OMS application layer needs from
the proteomics world: peptide chemistry (masses, fragments, PTMs), the
:class:`~repro.ms.spectrum.Spectrum` container, preprocessing and
vectorisation (paper Section 3.1), MGF/MSP codecs, decoy generation for
FDR, and the synthetic workload generator that substitutes for the
paper's public datasets.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "elements": ["AMINO_ACIDS", "RESIDUE_MASSES", "residue_mass"],
        "modifications": [
            "COMMON_MODIFICATIONS", "Modification", "ModificationSampler", "ModificationType",
        ],
        "peptide": ["Peptide", "neutral_mass_from_mz"],
        "spectrum": ["Spectrum"],
        "preprocessing": [
            "EmptyLibraryError", "PreprocessingConfig", "preprocess", "preprocess_many",
        ],
        "vectorize": [
            "BinningConfig", "SparseVector", "cosine_similarity", "quantize_intensities",
            "vectorize",
        ],
        "mgf": ["read_mgf", "write_mgf"],
        "msp": ["read_msp", "write_msp"],
        "io": ["SPECTRUM_READERS", "iter_spectra"],
        "decoy": [
            "append_decoys", "decoy_factory", "iter_decoys", "reverse_sequence",
            "shuffle_sequence",
        ],
        "synthetic": [
            "NoiseModel", "PeptideSampler", "QUERY_NOISE", "REFERENCE_NOISE",
            "SpectrumSimulator", "SyntheticWorkload", "WorkloadConfig", "build_workload",
            "scaled_config",
        ],
    },
)
