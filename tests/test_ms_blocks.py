"""Block library preparation against the per-line / per-ion / per-spectrum code.

The readers convert a block of peak lines at once, decoys are simulated
a block at a time and preprocessing runs over concatenated peaks.  Each
is checked here against a reference that does the same work one line,
one ion or one spectrum at a time, exactly as the code did before: the
reference implementations live in this file.
"""

import io
import math
import random

import numpy as np
import pytest

from repro.constants import PROTON_MASS, WATER_MASS
from repro.cli import InputFileError, _read_spectra, main
from repro.ms import mgf, msp, peaklist
from repro.ms.elements import RESIDUE_MASSES
from repro.ms.decoy import append_decoys, decoy_factory, iter_decoys, shuffle_sequence
from repro.ms.modifications import Modification
from repro.ms.peptide import Peptide, fragment_block
from repro.ms.preprocessing import PreprocessingConfig, preprocess, preprocess_many
from repro.ms.spectrum import Spectrum
from repro.ms.synthetic import (
    QUERY_NOISE,
    REFERENCE_NOISE,
    NoiseModel,
    SpectrumSimulator,
    _stable_hash,
)


def _key(spectrum):
    return (
        spectrum.identifier,
        spectrum.precursor_mz,
        spectrum.precursor_charge,
        spectrum.mz.dtype.str,
        spectrum.mz.tobytes(),
        spectrum.intensity.dtype.str,
        spectrum.intensity.tobytes(),
        None if spectrum.peptide is None else spectrum.peptide.proforma(),
        spectrum.is_decoy,
        spectrum.retention_time,
    )


def _collect(spectra):
    """Keys of the spectra yielded before an error, and the error."""
    keys = []
    try:
        for spectrum in spectra:
            keys.append(_key(spectrum))
    except ValueError as error:
        return keys, (type(error), str(error))
    return keys, None


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------


def _peak(line, fields, malformed):
    if len(fields) < 2:
        raise malformed
    return [float(fields[0]), float(fields[1])]


def reference_msp(text):
    """The per-line MSP reader: one ``float`` pair per peak line."""
    headers, peaks, expected, index, in_entry = {}, [], -1, 0, False
    for raw_line in io.StringIO(text, newline=""):
        line = raw_line.strip()
        if line and (line[0].isdigit() or line[0] == "-"):
            fields = line.replace("\t", " ").split()
            error = msp.MspFormatError(f"malformed peak line: {line!r}")
            peaks.append(_peak(line, fields, error))
            continue
        key, _, value = line.partition(":")
        key = key.strip().upper().replace(" ", "")
        if not line or key == "NAME":
            if in_entry:
                table = np.array(peaks, dtype=np.float64).reshape(-1, 2)
                yield msp._finalise((headers, expected, index), table[:, 0], table[:, 1])
                index += 1
            headers, peaks, expected, in_entry = {}, [], -1, False
        if line:
            if key == "NUMPEAKS":
                expected = int(value.strip())
            headers[key], in_entry = value.strip(), True
    if in_entry:
        table = np.array(peaks, dtype=np.float64).reshape(-1, 2)
        yield msp._finalise((headers, expected, index), table[:, 0], table[:, 1])


def reference_mgf(text):
    """The per-line MGF reader: one ``float`` pair per peak line."""
    in_block, headers, peaks, index = False, {}, [], 0
    for number, raw_line in enumerate(io.StringIO(text, newline=""), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "BEGIN IONS":
            if in_block:
                raise mgf.MgfFormatError(f"nested BEGIN IONS at line {number}")
            in_block, headers, peaks = True, {}, []
        elif line == "END IONS":
            if not in_block:
                raise mgf.MgfFormatError(f"END IONS without BEGIN at line {number}")
            table = np.array(peaks, dtype=np.float64).reshape(-1, 2)
            yield mgf._spectrum_from_block((headers, index), table[:, 0], table[:, 1])
            index, in_block = index + 1, False
        elif in_block and "=" in line and not line[0].isdigit():
            key, _, value = line.partition("=")
            headers[key.strip().upper()] = value.strip()
        elif in_block:
            error = mgf.MgfFormatError(f"malformed peak line {number}: {line!r}")
            peaks.append(_peak(line, line.split(), error))
    if in_block:
        raise mgf.MgfFormatError("file ended inside a BEGIN IONS block")


@pytest.fixture(scope="module")
def texts(small_workload):
    library, queries = io.StringIO(), io.StringIO()
    msp.write_msp(small_workload.references[:12], library)
    mgf.write_mgf(small_workload.queries[:12], queries)
    return {"msp": library.getvalue(), "mgf": queries.getvalue()}


def _peak_rows(text):
    return [row for row, line in enumerate(text.splitlines()) if line[:1].isdigit()]


def _edit(text, edit):
    lines = text.splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def _map_peaks(text, change, every=1):
    """*text* with ``change(line)`` applied to every ``every``-th peak line."""

    def edit(lines):
        for row in _peak_rows(text)[::every]:
            lines[row] = change(lines[row])

    return _edit(text, edit)


def _set_peak(text, nth, line):
    def edit(lines):
        lines[_peak_rows(text)[nth]] = line

    return _edit(text, edit)


def _header_rows(lines, prefix):
    return [row for row, line in enumerate(lines) if line.startswith(prefix)]


def _variants(fmt, text):
    """(name, text) pairs: layouts both readers accept and faults both raise."""
    rows = _peak_rows(text)
    middle, last = len(rows) // 2, len(rows) - 1
    variants = {
        "as written": text,
        "space separated": _map_peaks(text, lambda line: line.replace("\t", " ")),
        "tab separated": _map_peaks(text, lambda line: line.replace(" ", "\t")),
        "annotation column": _map_peaks(text, lambda line: line + '\t"b2/0.01 1/2"'),
        "crlf": text.replace("\n", "\r\n"),
        "indented peaks": _map_peaks(text, lambda line: "  " + line, every=3),
        "comments": _edit(text, lambda lines: lines.insert(rows[middle], "# a comment")),
        "underscore digits": _set_peak(text, middle, "1_000.5 2_0"),
        "malformed peak line": _set_peak(text, middle, "512.25"),
        "unparseable value": _set_peak(text, middle, "512.25 x7"),
        "negative intensity": _set_peak(text, middle, "512.25 -3"),
        "infinite m/z": _set_peak(text, middle, "1e999 3"),
        "nan intensity": _set_peak(text, middle, "512.25 nan"),
        "malformed last line": _set_peak(text, last, "7"),
        "no final newline": text.rstrip("\n"),
    }
    if fmt == "msp":
        def mismatch(lines):
            lines[_header_rows(lines, "Num peaks")[3]] = "Num peaks: 999"

        def empty_entry(lines):
            lines[rows[middle]:rows[middle]] = [
                "", "Name: EMPTYK/2", "PrecursorMZ: 400.5", "Num peaks: 0", ""
            ]

        def bad_count_after_bad_peak(lines):
            head = _header_rows(lines, "Num peaks")[3]
            lines[head - 1 : head + 1] = ["1.0", "Num peaks: many"]

        def stray_peaks(lines):
            lines[rows[middle]:rows[middle]] = ["", "100.5 7", "Comment: stray"]

        variants.update({
            "num peaks mismatch": _edit(text, mismatch),
            "empty entry": _edit(text, empty_entry),
            "unparseable num peaks after a bad line": _edit(text, bad_count_after_bad_peak),
            "stray peaks": _edit(text, stray_peaks),
            "stray bad peak": "12 y\n" + text,
            "negative m/z line": _set_peak(text, middle, "-5 3"),
            "header on the unterminated last line": (
                text + "Name: LASTK/2\nNum peaks: 0\nPrecursorMZ: 300.1"
            ),
        })
    else:
        def nested(lines):
            lines.insert(_header_rows(lines, "BEGIN IONS")[3] + 3, "BEGIN IONS")

        variants.update({
            "empty entry": "BEGIN IONS\nTITLE=empty\nPEPMASS=400.5\nEND IONS\n" + text,
            "nested begin": _edit(text, nested),
            "unterminated": text.rsplit("END IONS", 1)[0],
            "end without begin": "END IONS\n" + text,
            "header-like peak": _set_peak(text, middle, "abc def"),
        })
    return variants


@pytest.mark.parametrize("fmt", ["msp", "mgf"])
@pytest.mark.parametrize("block_entries", [1, 3, peaklist.BLOCK_ENTRIES])
def test_block_readers_equal_the_per_line_reader(fmt, block_entries, texts, monkeypatch):
    monkeypatch.setattr(peaklist, "BLOCK_ENTRIES", block_entries)
    reader, reference = (
        (msp.read_msp, reference_msp) if fmt == "msp" else (mgf.read_mgf, reference_mgf)
    )
    for name, text in _variants(fmt, texts[fmt]).items():
        expected = _collect(reference(text))
        assert _collect(reader(io.StringIO(text, newline=""))) == expected, name


def test_variants_cover_both_outcomes(texts):
    """The cases above include clean files and every fault kind."""
    for fmt, reference in (("msp", reference_msp), ("mgf", reference_mgf)):
        outcomes = {
            name: _collect(reference(text))[1]
            for name, text in _variants(fmt, texts[fmt]).items()
        }
        assert outcomes["as written"] is None and outcomes["annotation column"] is None
        assert outcomes["malformed peak line"][0] is (
            msp.MspFormatError if fmt == "msp" else mgf.MgfFormatError
        )
        assert "could not convert" in outcomes["unparseable value"][1]
        assert "non-negative" in outcomes["negative intensity"][1]
        assert "finite" in outcomes["infinite m/z"][1]


def test_readers_and_decoys_stream_one_block_at_a_time(texts, small_workload, monkeypatch):
    """The first spectrum arrives after one block, not after the whole input."""
    from repro.ms import decoy

    monkeypatch.setattr(peaklist, "BLOCK_ENTRIES", 2)
    monkeypatch.setattr(decoy, "DECOY_BLOCK", 3)
    for fmt, reader in (("msp", msp.read_msp), ("mgf", mgf.read_mgf)):
        lines = texts[fmt].splitlines(keepends=True)
        consumed = []
        next(reader(consumed.append(line) or line for line in lines))
        assert len(consumed) < len(lines) / 3, fmt
    taken = []
    references = (taken.append(ref) or ref for ref in small_workload.references)
    next(iter_decoys(references, decoy_factory(1), seed=1))
    assert len(taken) == 3


def test_block_peak_bound_splits_large_entries(texts, monkeypatch):
    monkeypatch.setattr(peaklist, "BLOCK_PEAKS", 5)
    for fmt, reader, reference in (
        ("msp", msp.read_msp, reference_msp),
        ("mgf", mgf.read_mgf, reference_mgf),
    ):
        text = texts[fmt]
        assert _collect(reader(io.StringIO(text))) == _collect(reference(text))


@pytest.mark.parametrize("value", ["-3", "inf", "nan"])
def test_bad_peaks_end_as_input_file_errors_through_the_cli(
    texts, tmp_path, capsys, value
):
    library = tmp_path / "bad.msp"
    library.write_text(_set_peak(texts["msp"], 20, f"512.25 {value}"))
    with pytest.raises(InputFileError, match="bad.msp"):
        list(_read_spectra(library))
    assert main(
        ["index", "build", "--library", str(library), "--output",
         str(tmp_path / "bad.npz"), "--dim", "256"]
    ) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("index build: ")
    assert not (tmp_path / "bad.npz").exists()


# ----------------------------------------------------------------------
# decoys and the simulator
# ----------------------------------------------------------------------


def reference_masses(peptide):
    """Residue masses one dictionary lookup at a time, plus modifications."""
    masses = np.array([RESIDUE_MASSES[residue] for residue in peptide.sequence])
    for mod in peptide.modifications:
        masses[mod.position] += mod.mass_delta
    return masses


def reference_ions(peptide):
    """Singly charged ``(series, index, mz)`` of one peptide, sorted by m/z."""
    masses = reference_masses(peptide)
    prefix = np.cumsum(masses)[:-1]
    suffix = np.cumsum(masses[::-1])[:-1] + WATER_MASS
    ions = [("b", index, (mass + 1 * PROTON_MASS) / 1) for index, mass in enumerate(prefix, 1)]
    ions += [("y", index, (mass + 1 * PROTON_MASS) / 1) for index, mass in enumerate(suffix, 1)]
    return sorted(ions, key=lambda ion: ion[2])


def reference_spectrum(simulator, peptide, charge, identifier, noise, rng=None):
    """The per-ion simulator loop: two scalar normals per fragment ion."""
    if rng is None:
        rng = np.random.default_rng((_stable_hash(identifier) + simulator.seed) % (2**63))
    b_intensity, y_intensity = simulator.base_pattern(peptide.sequence)
    mz_list, intensity_list = [], []
    for series, index, mz in reference_ions(peptide):
        base = b_intensity[index - 1] if series == "b" else y_intensity[index - 1]
        if noise.dropout_probability and rng.random() < noise.dropout_probability:
            continue
        jittered_mz = mz + rng.normal(0.0, noise.mz_jitter_sd)
        jittered = base * float(np.exp(rng.normal(0.0, noise.intensity_jitter_sd)))
        if simulator.min_mz <= jittered_mz <= simulator.max_mz:
            mz_list.append(jittered_mz)
            intensity_list.append(jittered)
    base_peak = max(intensity_list, default=1.0)
    for _ in range(int(rng.poisson(noise.noise_peaks)) if noise.noise_peaks else 0):
        mz_list.append(float(rng.uniform(simulator.min_mz, simulator.max_mz)))
        intensity_list.append(
            float(rng.exponential(noise.noise_intensity_fraction * base_peak))
        )
    neutral = float(reference_masses(peptide).sum()) + WATER_MASS
    return Spectrum(
        identifier, (neutral + charge * PROTON_MASS) / charge, charge,
        np.asarray(mz_list, dtype=np.float64),
        np.asarray(intensity_list, dtype=np.float64),
        peptide=peptide,
    )


def _peptides(small_workload):
    peptides = [reference.peptide for reference in small_workload.references[:30]]
    return peptides + [
        Peptide("K"),
        Peptide("GK"),
        Peptide("MSTYK", (Modification("Phospho", 2, 79.96633),)),
        Peptide(
            "MSTYMK",
            (
                Modification("Oxidation", 0, 15.99491),
                Modification("Oxidation", 4, 15.99491),
                Modification("Deamidation", 4, 0.98402),
            ),
        ),
    ]


def test_fragment_block_equals_the_per_peptide_running_sums(small_workload):
    peptides = _peptides(small_workload)
    block = fragment_block(peptides)
    width = block.shape[1] // 2
    for row, peptide in enumerate(peptides):
        masses = reference_masses(peptide)
        sites = len(peptide) - 1
        assert block[row, :sites].tolist() == np.cumsum(masses)[:-1].tolist()
        assert block[row, width : width + sites].tolist() == (
            np.cumsum(masses[::-1])[:-1] + WATER_MASS
        ).tolist()
        assert np.isinf(block[row, sites:width]).all()
        assert np.isinf(block[row, width + sites :]).all()
        ions = [(series, index, 1, mz) for series, index, mz in reference_ions(peptide)]
        assert peptide.fragment_ions() == ions


@pytest.mark.parametrize(
    "noise",
    [REFERENCE_NOISE, NoiseModel(dropout_probability=0.0, noise_peaks=0), QUERY_NOISE],
    ids=["reference", "no-noise-peaks", "query-dropout"],
)
def test_block_simulation_equals_the_per_ion_loop(small_workload, noise):
    simulator = SpectrumSimulator(seed=7)
    peptides = _peptides(small_workload)
    charges = [2 + row % 2 for row in range(len(peptides))]
    identifiers = [f"sim_{row}" for row in range(len(peptides))]
    expected = [
        _key(reference_spectrum(simulator, *args, noise))
        for args in zip(peptides, charges, identifiers)
    ]
    block = simulator.spectra(peptides, charges, identifiers, noise=noise)
    assert [_key(spectrum) for spectrum in block] == expected
    one_by_one = [
        simulator.spectrum(*args, noise=noise)
        for args in zip(peptides, charges, identifiers)
    ]
    assert [_key(spectrum) for spectrum in one_by_one] == expected


@pytest.mark.parametrize("noise", [REFERENCE_NOISE, QUERY_NOISE], ids=["reference", "query"])
def test_explicit_generators_are_drawn_in_order(small_workload, noise):
    simulator = SpectrumSimulator(seed=3)
    peptides = _peptides(small_workload)[:10]
    charges = [2] * len(peptides)
    identifiers = [f"x{row}" for row in range(len(peptides))]
    shared = np.random.default_rng(11)
    expected = [
        _key(reference_spectrum(simulator, *args, noise, rng=shared))
        for args in zip(peptides, charges, identifiers)
    ]
    drawn = np.random.default_rng(11)
    block = simulator.spectra(
        peptides, charges, identifiers, noise=noise, rngs=[drawn] * len(peptides)
    )
    assert [_key(spectrum) for spectrum in block] == expected
    single = simulator.spectrum(
        peptides[0], 2, "x0", noise=noise, rng=np.random.default_rng(11)
    )
    assert _key(single) == expected[0]


def test_block_decoys_equal_per_decoy_decoys(small_workload):
    references = small_workload.references
    simulator = SpectrumSimulator(seed=5)

    def per_decoy(peptide, charge, identifier):
        return reference_spectrum(simulator, peptide, charge, identifier, REFERENCE_NOISE)

    rng, expected = random.Random(9), list(references)
    for reference in references:  # the per-decoy loop: shuffle, then simulate
        sequence = reference.peptide.sequence
        decoy_sequence = shuffle_sequence(sequence, rng)
        if decoy_sequence != sequence:
            decoy = per_decoy(
                Peptide(decoy_sequence), reference.precursor_charge,
                f"DECOY_{reference.identifier}",
            )
            decoy.is_decoy = True
            expected.append(decoy)
    library = append_decoys(references, decoy_factory(5), seed=9)
    assert [_key(spectrum) for spectrum in library] == [_key(s) for s in expected]
    # A plain per-decoy callable takes the same path one decoy at a time.
    assert [_key(s) for s in iter_decoys(references, per_decoy, seed=9)] == [
        _key(s) for s in expected[len(references) :]
    ]


def test_decoys_do_not_depend_on_the_block_size(small_workload, monkeypatch):
    from repro.ms import decoy

    whole = [_key(s) for s in iter_decoys(small_workload.references, decoy_factory(2), seed=4)]
    monkeypatch.setattr(decoy, "DECOY_BLOCK", 7)
    assert [
        _key(s) for s in iter_decoys(small_workload.references, decoy_factory(2), seed=4)
    ] == whole


# ----------------------------------------------------------------------
# preprocessing
# ----------------------------------------------------------------------


def reference_preprocess(spectrum, config):
    """The one-spectrum preprocessing pass."""
    mz, intensity = spectrum.mz, spectrum.intensity
    keep = (mz >= config.min_mz) & (mz <= config.max_mz)
    if config.remove_precursor_tolerance is not None:
        keep &= np.abs(mz - spectrum.precursor_mz) > config.remove_precursor_tolerance
    mz, intensity = mz[keep], intensity[keep]
    if len(mz):
        keep = intensity >= float(intensity.max()) * config.min_intensity_fraction
        mz, intensity = mz[keep], intensity[keep]
        if len(mz) > config.max_peaks:
            top = np.sort(np.argsort(-intensity, kind="stable")[: config.max_peaks])
            mz, intensity = mz[top], intensity[top]
    if len(mz) < config.min_peaks:
        return None
    if config.scaling == "sqrt":
        intensity = np.sqrt(intensity.astype(np.float64)).astype(np.float32)
    elif config.scaling == "rank":
        ranks = np.empty(len(mz), dtype=np.float32)
        ranks[np.argsort(intensity, kind="stable")] = np.arange(1, len(mz) + 1)
        intensity = ranks
    norm = float(np.sqrt(intensity.dot(intensity)))
    if norm != 0.0:
        intensity = intensity / norm
    return Spectrum(
        spectrum.identifier, spectrum.precursor_mz, spectrum.precursor_charge,
        mz, intensity, spectrum.peptide, spectrum.is_decoy, spectrum.retention_time,
    )


@pytest.fixture(scope="module")
def raw_spectra(small_workload):
    spectra = list(small_workload.references) + list(small_workload.queries)
    tied = spectra[0]
    return spectra + [
        # Ties at the top-k cut, and a spectrum every peak of which is cut.
        Spectrum("tied", 600.0, 2, np.linspace(200, 900, 40), np.full(40, 5.0)),
        Spectrum("outside", 600.0, 2, np.array([10.0, 20.0, 1900.0]), np.ones(3)),
        Spectrum("empty", 600.0, 2, np.empty(0), np.empty(0)),
        Spectrum("zeros", 600.0, 2, np.linspace(200, 900, 8), np.zeros(8)),
        # 100 x 0.007 rounds down in float32, which keeps the 0.7 peak.
        Spectrum("boundary", 600.0, 2, np.linspace(200, 900, 6), [100, 0.7, 5, 5, 5, 5]),
        Spectrum(tied.identifier, tied.precursor_mz, 3, tied.mz, tied.intensity),
    ]


@pytest.mark.parametrize(
    "config",
    [
        PreprocessingConfig(),
        PreprocessingConfig(max_peaks=12),
        PreprocessingConfig(min_peaks=30),
        PreprocessingConfig(max_peaks=7, scaling="rank"),
        PreprocessingConfig(scaling="none", remove_precursor_tolerance=None),
        PreprocessingConfig(min_intensity_fraction=0.3, min_peaks=1),
        PreprocessingConfig(min_intensity_fraction=0.007, min_peaks=1),
    ],
    ids=["default", "over-max-peaks", "qc-drops", "rank", "none", "high-threshold", "float32"],
)
def test_block_preprocess_equals_per_spectrum(raw_spectra, config):
    expected = [reference_preprocess(spectrum, config) for spectrum in raw_spectra]
    assert any(result is None for result in expected)
    if config.max_peaks < 20:
        assert any(
            result is not None and len(result) == config.max_peaks for result in expected
        )
    for results in (
        preprocess_many(raw_spectra, config),
        [preprocess(spectrum, config) for spectrum in raw_spectra],
    ):
        assert [None if r is None else _key(r) for r in results] == [
            None if r is None else _key(r) for r in expected
        ]


def test_block_preprocess_of_nothing():
    assert preprocess_many([]) == []
    assert math.isclose(
        float(np.linalg.norm(
            preprocess(Spectrum("one", 700.0, 2, np.linspace(150, 1400, 9), np.ones(9))).intensity
        )),
        1.0,
        rel_tol=1e-6,
    )
