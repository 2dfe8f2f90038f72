"""NIST MSP spectral-library reader and writer.

Reference libraries (the paper's human HCD / yeast libraries) ship as
MSP text.  This codec covers the subset the pipeline needs: Name,
MW / PrecursorMZ, Charge (possibly embedded in Name as ``SEQ/2``),
Comment flags (decoy detection), and the peak table.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, TextIO, Union

import numpy as np

from .elements import is_valid_sequence
from .peaklist import PeakBlock
from .peptide import Peptide
from .spectrum import Spectrum

PathLike = Union[str, Path]


class MspFormatError(ValueError):
    """Raised when an MSP file violates the expected structure."""


def _parse_decoy_flag(comment: str, name: str) -> bool:
    """Decide whether an entry is a decoy.

    Recognises explicit ``Decoy=true/false`` key-value pairs in the
    Comment field (case-insensitive); otherwise falls back to the
    common ``DECOY_``-prefixed naming convention.  A bare ``Decoy=false``
    must NOT be treated as a decoy.
    """
    for token in comment.replace(",", " ").split():
        key, _, value = token.partition("=")
        if key.strip().upper() == "DECOY":
            return value.strip().lower() in ("true", "1", "yes")
    upper_name = name.upper()
    return upper_name.startswith("DECOY_") or upper_name.startswith("DECOY-")


def _finalise(record, mz: np.ndarray, intensity: np.ndarray) -> Spectrum:
    headers, expected_peaks, index = record
    if expected_peaks >= 0 and len(mz) != expected_peaks:
        raise MspFormatError(
            f"entry #{index}: expected {expected_peaks} peaks, got {len(mz)}"
        )
    name = headers.get("NAME", f"library_{index}")
    sequence, charge = name, 2
    if "/" in name:
        sequence, _, charge_text = name.rpartition("/")
        if charge_text.isdigit():
            charge = int(charge_text)
    if "CHARGE" in headers:
        charge = int(headers["CHARGE"])
    if "PRECURSORMZ" in headers:
        precursor_mz = float(headers["PRECURSORMZ"])
    elif "MW" in headers:
        # MW is the neutral mass; convert to m/z at the parsed charge.
        from ..constants import PROTON_MASS

        precursor_mz = (float(headers["MW"]) + charge * PROTON_MASS) / charge
    else:
        raise MspFormatError(f"entry {name!r} has neither PrecursorMZ nor MW")
    is_decoy = _parse_decoy_flag(headers.get("COMMENT", ""), name)
    peptide = Peptide(sequence) if is_valid_sequence(sequence) else None
    return Spectrum(name, precursor_mz, charge, mz, intensity, peptide, is_decoy)


def read_msp(source: Union[PathLike, TextIO]) -> Iterator[Spectrum]:
    """Yield :class:`Spectrum` objects from an MSP library.

    Entries end at a blank line or the next ``Name:``.  Peak lines are
    converted a :class:`~repro.ms.peaklist.PeakBlock` at a time, so
    memory is bounded by one block of entries.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_msp(handle)
        return

    block = PeakBlock(lambda _number, line: MspFormatError(f"malformed peak line: {line!r}"))
    lines, numbers = block.lines, block.numbers
    headers: Dict[str, str] = {}
    expected_peaks, index, start, in_entry, pending = -1, 0, 0, False, None
    for number, raw_line in enumerate(source, start=1):
        # Most lines are peaks: take them before stripping anything.
        peak = raw_line[:1].isdigit()
        line = raw_line if peak else raw_line.strip()
        if peak or line[:1].isdigit() or line[:1] == "-":
            lines.append(line)
            numbers.append(number)
            continue
        key, _, value = line.partition(":")
        key = key.strip().upper().replace(" ", "")
        if not line or key == "NAME":
            # The entry so far ends; peak lines outside an entry are
            # parsed but belong to none.
            if in_entry:
                full = block.close((headers, expected_peaks, index), start)
                index += 1
                if full:
                    yield from block.spectra(_finalise)
            headers, expected_peaks, in_entry, start = {}, -1, False, len(lines)
        if line:
            if key == "NUMPEAKS":
                try:
                    expected_peaks = int(value.strip())
                except ValueError as error:
                    pending = error
                    break
            headers[key], in_entry = value.strip(), True
    else:
        if in_entry:
            block.close((headers, expected_peaks, index), start)
    yield from block.spectra(_finalise)
    if pending is not None:
        raise pending


def write_msp(
    spectra: Iterable[Spectrum], destination: Union[PathLike, TextIO]
) -> int:
    """Write spectra as an MSP library; returns the entry count."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_msp(spectra, handle)

    count = 0
    for spectrum in spectra:
        if spectrum.peptide is not None:
            name = f"{spectrum.peptide.sequence}/{spectrum.precursor_charge}"
        else:
            name = spectrum.identifier
        destination.write(f"Name: {name}\n")
        destination.write(f"PrecursorMZ: {spectrum.precursor_mz:.6f}\n")
        destination.write(f"Charge: {spectrum.precursor_charge}\n")
        comment = "Decoy=true" if spectrum.is_decoy else "Decoy=false"
        destination.write(f"Comment: {comment} Id={spectrum.identifier}\n")
        destination.write(f"Num peaks: {len(spectrum)}\n")
        for mz, intensity in zip(spectrum.mz, spectrum.intensity):
            destination.write(f"{mz:.5f}\t{intensity:.6g}\n")
        destination.write("\n")
        count += 1
    return count
