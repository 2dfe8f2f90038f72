"""Synthetic OMS workload generation.

The paper evaluates on public datasets (iPRG2012 queries vs. a 1M-spectrum
human/yeast library; HEK293 vs. a 3M-spectrum human library) that cannot
be downloaded in this offline environment.  This module builds the
closest synthetic equivalent that exercises the same code paths:

* a *reference library* of tryptic-like peptides with theoretical b/y-ion
  spectra (consensus-quality: tiny m/z jitter, no dropout);
* *query spectra* re-measured from library peptides with realistic noise
  (m/z jitter, intensity jitter, peak dropout, background noise peaks),
  where a configurable fraction carries a random PTM — shifting the
  precursor mass and every fragment containing the modified residue —
  and another fraction is *foreign* (peptides absent from the library,
  exercising the FDR machinery).

Crucially, fragment intensities are drawn from a per-sequence seeded RNG
so the modified query and its unmodified reference share the same
fragmentation pattern, exactly the geometry that makes open modification
search work on real data.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import DEFAULT_MAX_MZ, DEFAULT_MIN_MZ, PROTON_MASS
from .elements import AMINO_ACIDS, NATURAL_FREQUENCIES
from .modifications import COMMON_MODIFICATIONS, ModificationSampler
from .peptide import Peptide, fragment_block
from .spectrum import Spectrum


def _stable_hash(text: str) -> int:
    """64-bit stable hash of a string (Python's ``hash`` is salted)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-noise knobs for simulated spectra.

    ``mz_jitter_sd`` is the per-peak mass error (Da); ``intensity_jitter_sd``
    the sigma of the multiplicative log-normal intensity error;
    ``dropout_probability`` the chance each fragment peak is missed;
    ``noise_peaks`` the expected count of background peaks;
    ``noise_intensity_fraction`` their intensity scale relative to the
    base peak.
    """

    mz_jitter_sd: float = 0.01
    intensity_jitter_sd: float = 0.25
    dropout_probability: float = 0.15
    noise_peaks: int = 25
    noise_intensity_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.dropout_probability < 1:
            raise ValueError("dropout_probability must be in [0, 1)")
        if self.noise_peaks < 0:
            raise ValueError("noise_peaks must be >= 0")


#: Consensus-library quality: essentially noiseless.
REFERENCE_NOISE = NoiseModel(
    mz_jitter_sd=0.002,
    intensity_jitter_sd=0.05,
    dropout_probability=0.0,
    noise_peaks=3,
    noise_intensity_fraction=0.02,
)

#: Single-scan query quality.
QUERY_NOISE = NoiseModel()


@dataclass
class PeptideSampler:
    """Sample unique tryptic-like peptides.

    Sequences are drawn with human-proteome residue frequencies, end in
    K or R (trypsin cleaves after K/R), and are deduplicated.
    """

    min_length: int = 7
    max_length: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_length < 2:
            raise ValueError("min_length must be >= 2")
        if self.max_length < self.min_length:
            raise ValueError("max_length must be >= min_length")
        self._rng = np.random.default_rng(self.seed)
        frequencies = np.array([NATURAL_FREQUENCIES[aa] for aa in AMINO_ACIDS])
        self._frequencies = frequencies / frequencies.sum()
        self._alphabet = np.array(list(AMINO_ACIDS))
        self._seen: set = set()

    def sample(self) -> str:
        """Return one fresh peptide sequence (never repeats)."""
        while True:
            length = int(
                self._rng.integers(self.min_length, self.max_length + 1)
            )
            body = self._rng.choice(
                self._alphabet, size=length - 1, p=self._frequencies
            )
            terminus = "K" if self._rng.random() < 0.5 else "R"
            sequence = "".join(body) + terminus
            if sequence not in self._seen:
                self._seen.add(sequence)
                return sequence

    def sample_many(self, count: int) -> List[str]:
        """Return ``count`` unique sequences."""
        return [self.sample() for _ in range(count)]


#: Spectra :meth:`SpectrumSimulator.spectra` simulates per padded block.
SIMULATION_BLOCK = 128


class SpectrumSimulator:
    """Generate theoretical spectra with a reproducible intensity model.

    The fragmentation pattern (relative b/y-ion intensities) of a given
    *sequence* is a deterministic function of ``(seed, sequence)``, so a
    modified peptide and its unmodified base share intensities while
    their fragment masses differ — the signal OMS exploits.
    """

    def __init__(
        self,
        seed: int = 0,
        min_mz: float = DEFAULT_MIN_MZ,
        max_mz: float = DEFAULT_MAX_MZ,
    ) -> None:
        self.seed = seed
        self.min_mz = min_mz
        self.max_mz = max_mz

    def _pattern_rng(self, sequence: str) -> np.random.Generator:
        return np.random.default_rng(
            (self.seed * 0x9E3779B97F4A7C15 + _stable_hash(sequence)) % (2**63)
        )

    def base_pattern(self, sequence: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cleavage-site b and y intensities for *sequence*.

        Returns ``(b_intensity, y_intensity)``, each of length
        ``len(sequence) - 1``, log-normally distributed with y-ions
        boosted (they dominate HCD spectra).
        """
        rng = self._pattern_rng(sequence)
        sites = len(sequence) - 1
        b_intensity = rng.lognormal(mean=0.0, sigma=0.8, size=sites)
        y_intensity = rng.lognormal(mean=0.0, sigma=0.8, size=sites) * 1.6
        return b_intensity, y_intensity

    def spectrum(
        self,
        peptide: Peptide,
        charge: int,
        identifier: str,
        noise: NoiseModel = REFERENCE_NOISE,
        rng: Optional[np.random.Generator] = None,
    ) -> Spectrum:
        """Simulate one measured spectrum of *peptide* at *charge*."""
        rngs = None if rng is None else [rng]
        return self.spectra([peptide], [charge], [identifier], noise, rngs)[0]

    def spectra(
        self, peptides: Sequence[Peptide], charges: Sequence[int], identifiers: Sequence[str],
        noise: NoiseModel = REFERENCE_NOISE, rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> List[Spectrum]:
        """Simulate a block of spectra, one per ``(peptide, charge, identifier)``.

        Each spectrum draws what a one-spectrum simulation draws, in
        order, from its own generator (``rngs``, or one seeded from its
        identifier).  The b/y ions and their stable m/z sort are padded
        arrays of up to ``SIMULATION_BLOCK`` rows; so are the jitter and
        the m/z-range mask, except under dropout, whose draws depend on
        the data and keep a per-ion loop.
        """
        spectra: List[Spectrum] = []
        for start in range(0, len(peptides), SIMULATION_BLOCK):
            block = slice(start, start + SIMULATION_BLOCK)
            generators = rngs[block] if rngs is not None else [
                np.random.default_rng((_stable_hash(identifier) + self.seed) % (2**63))
                for identifier in identifiers[block]
            ]
            spectra += [
                Spectrum(identifier, peptide.precursor_mz(charge), charge, mz, intensity, peptide)
                for peptide, charge, identifier, (mz, intensity) in zip(
                    peptides[block], charges[block], identifiers[block],
                    self._peaks(peptides[block], noise, generators),
                )
            ]
        return spectra

    def _peaks(self, peptides, noise, rngs) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(mz, intensity)`` of each peptide: jittered ions, then background."""
        ions = fragment_block(peptides) + PROTON_MASS  # singly charged
        base = np.zeros_like(ions)
        base[np.isfinite(ions)] = np.concatenate(
            [np.concatenate(self.base_pattern(p.sequence)) for p in peptides]
        )
        order = np.argsort(ions, axis=1, kind="stable")
        ions, base = (np.take_along_axis(array, order, axis=1) for array in (ions, base))
        counts = np.isfinite(ions).sum(axis=1)
        if noise.dropout_probability:
            return [
                self._dropped_peaks(ions[row, :count], base[row, :count], noise, rng)
                for row, (count, rng) in enumerate(zip(counts.tolist(), rngs))
            ]
        # Each ion draws an m/z then an intensity normal: one standard
        # normal call per row, scaled as ``normal`` scales it; the row's
        # background draws follow from the same generator.
        normals, background = zip(*[
            (rng.standard_normal(2 * count), self._background(rng, noise))
            for count, rng in zip(counts, rngs)
        ])
        jitter = np.zeros(ions.shape + (2,))
        jitter[np.arange(ions.shape[1]) < counts[:, None]] = np.concatenate(
            normals
        ).reshape(-1, 2)
        mz = ions + noise.mz_jitter_sd * jitter[..., 0]
        intensity = base * np.exp(noise.intensity_jitter_sd * jitter[..., 1])
        keep = (self.min_mz <= mz) & (mz <= self.max_mz)
        base_peaks = np.where(keep, intensity, -np.inf).max(axis=1, initial=-np.inf)
        base_peaks[~keep.any(axis=1)] = 1.0
        sizes = np.array([len(draws) for draws in background])
        filled = np.arange(sizes.max(initial=0)) < sizes[:, None]
        noise_mz, noise_draws = np.full(filled.shape, np.inf), np.zeros(filled.shape)
        if filled.any():
            noise_mz[filled], noise_draws[filled] = np.array(
                [draw for draws in background for draw in draws]
            ).T
        # ``rng.exponential(scale)`` is ``scale`` times the standard draw.
        scales = noise.noise_intensity_fraction * base_peaks
        mz = np.concatenate([np.where(keep, mz, np.inf), noise_mz], axis=1)
        intensity = np.concatenate([intensity, scales[:, None] * noise_draws], axis=1)
        # Sorted as Spectrum sorts them (stable), so it need not re-sort.
        order = np.argsort(mz, axis=1, kind="stable")
        mz, intensity = (np.take_along_axis(array, order, axis=1) for array in (mz, intensity))
        real = np.isfinite(mz)
        mz, intensity, sizes = mz[real], intensity[real].astype(np.float32), real.sum(axis=1)
        return [
            (mz[stop - size : stop], intensity[stop - size : stop])
            for size, stop in zip(sizes.tolist(), np.cumsum(sizes).tolist())
        ]

    def _dropped_peaks(self, ions, base, noise, rng) -> Tuple[List[float], List[float]]:
        """``(mz, intensity)`` of one row under dropout: the per-ion loop."""
        mz_list: List[float] = []
        intensity_list: List[float] = []
        for mz, intensity in zip(ions.tolist(), base.tolist()):
            if rng.random() < noise.dropout_probability:
                continue
            jittered_mz = mz + rng.normal(0.0, noise.mz_jitter_sd)
            jittered_intensity = intensity * float(
                np.exp(rng.normal(0.0, noise.intensity_jitter_sd))
            )
            if self.min_mz <= jittered_mz <= self.max_mz:
                mz_list.append(jittered_mz)
                intensity_list.append(jittered_intensity)
        scale = noise.noise_intensity_fraction * max(intensity_list, default=1.0)
        for noise_mz, draw in self._background(rng, noise):
            mz_list.append(noise_mz)
            intensity_list.append(float(scale * draw))
        return mz_list, intensity_list

    def _background(self, rng, noise: NoiseModel) -> List[Tuple[float, float]]:
        """Background draws: a Poisson count, then (uniform m/z, exponential) pairs."""
        count = int(rng.poisson(noise.noise_peaks)) if noise.noise_peaks else 0
        return [
            (float(rng.uniform(self.min_mz, self.max_mz)), rng.standard_exponential())
            for _ in range(count)
        ]


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one synthetic OMS workload (see Table 1)."""

    name: str = "synthetic"
    num_references: int = 1000
    num_queries: int = 200
    seed: int = 0
    modification_probability: float = 0.5
    foreign_fraction: float = 0.10
    min_length: int = 7
    max_length: int = 20
    charges: Tuple[int, ...] = (2, 3)
    charge_weights: Tuple[float, ...] = (0.7, 0.3)
    reference_noise: NoiseModel = REFERENCE_NOISE
    query_noise: NoiseModel = QUERY_NOISE

    def __post_init__(self) -> None:
        if self.num_references < 1 or self.num_queries < 0:
            raise ValueError("workload sizes must be positive")
        if not 0 <= self.modification_probability <= 1:
            raise ValueError("modification_probability must be in [0, 1]")
        if not 0 <= self.foreign_fraction <= 1:
            raise ValueError("foreign_fraction must be in [0, 1]")
        if len(self.charges) != len(self.charge_weights):
            raise ValueError("charges and charge_weights must align")


@dataclass
class SyntheticWorkload:
    """A complete OMS benchmark instance.

    ``references`` holds target library spectra only (decoys are added by
    the pipeline); ``queries`` are the spectra to identify.  Each query's
    ``peptide`` attribute is the *ground truth* (None for pure noise) —
    search code never reads it, but evaluation can.
    ``truth`` maps query identifier to the true unmodified peptide key
    (``SEQ/charge``) or None for foreign queries.
    """

    config: WorkloadConfig
    references: List[Spectrum]
    queries: List[Spectrum]
    truth: Dict[str, Optional[str]] = field(default_factory=dict)

    @property
    def num_modified_queries(self) -> int:
        """How many queries carry a PTM (ground-truth count)."""
        return sum(
            1
            for query in self.queries
            if query.peptide is not None and query.peptide.is_modified
        )

    def summary(self) -> Dict[str, float]:
        """Table-1-style workload summary."""
        return {
            "name": self.config.name,
            "num_queries": len(self.queries),
            "num_references": len(self.references),
            "modified_fraction": (
                self.num_modified_queries / len(self.queries)
                if self.queries
                else 0.0
            ),
        }


def build_workload(config: WorkloadConfig) -> SyntheticWorkload:
    """Construct a synthetic workload from *config* (fully deterministic)."""
    sampler = PeptideSampler(config.min_length, config.max_length, config.seed)
    simulator = SpectrumSimulator(seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    mod_rng = random.Random(config.seed + 2)
    mod_sampler = ModificationSampler(COMMON_MODIFICATIONS, mod_rng)

    charge_weights = np.asarray(config.charge_weights, dtype=np.float64)
    charge_weights = charge_weights / charge_weights.sum()

    def pick_charge(sequence: str) -> int:
        # Deterministic per-sequence charge so reference and query agree.
        """Deterministic per-sequence precursor charge draw."""
        local = np.random.default_rng(_stable_hash(sequence) % (2**63))
        return int(local.choice(config.charges, p=charge_weights))

    sequences = sampler.sample_many(config.num_references)
    references = simulator.spectra(
        [Peptide(sequence) for sequence in sequences],
        [pick_charge(sequence) for sequence in sequences],
        [f"{config.name}_ref_{index}" for index in range(len(sequences))],
        noise=config.reference_noise,
    )

    planned: List[Tuple[Peptide, int, str]] = []
    truth: Dict[str, Optional[str]] = {}
    num_foreign = int(round(config.num_queries * config.foreign_fraction))
    num_library = config.num_queries - num_foreign

    library_indices = rng.integers(0, len(sequences), size=num_library)
    for query_number, ref_index in enumerate(library_indices):
        sequence = sequences[int(ref_index)]
        peptide = Peptide(sequence)
        charge = pick_charge(sequence)
        if rng.random() < config.modification_probability:
            modification = mod_sampler.sample(sequence)
            if modification is not None:
                peptide = peptide.with_modification(modification)
        identifier = f"{config.name}_query_{query_number}"
        planned.append((peptide, charge, identifier))
        truth[identifier] = f"{sequence}/{charge}"

    for foreign_number in range(num_foreign):
        sequence = sampler.sample()  # guaranteed absent from the library
        identifier = f"{config.name}_foreign_{foreign_number}"
        planned.append((Peptide(sequence), pick_charge(sequence), identifier))
        truth[identifier] = None

    queries = simulator.spectra(*zip(*planned), noise=config.query_noise) if planned else []
    # Shuffle queries so foreign/modified spectra are interleaved.
    order = rng.permutation(len(queries))
    queries = [queries[i] for i in order]
    return SyntheticWorkload(config, references, queries, truth)


def scaled_config(base: WorkloadConfig, scale: float) -> WorkloadConfig:
    """Scale a workload's sizes by ``scale`` (at least 1 ref / 0 queries)."""
    if scale <= 0:
        raise ValueError("scale must be > 0")
    return replace(
        base,
        num_references=max(1, int(base.num_references * scale)),
        num_queries=max(0, int(base.num_queries * scale)),
    )
