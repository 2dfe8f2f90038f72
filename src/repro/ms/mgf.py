"""Mascot Generic Format (MGF) reader and writer.

pyteomics is not available offline, so the package carries its own small
MGF codec.  Only the fields the pipeline uses are handled (TITLE,
PEPMASS, CHARGE, RTINSECONDS, SEQ); unknown ``KEY=VALUE`` headers are
preserved on read and ignored on write.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, TextIO, Union

import numpy as np

from .peaklist import PeakBlock
from .peptide import Peptide
from .spectrum import Spectrum

PathLike = Union[str, Path]


class MgfFormatError(ValueError):
    """Raised when an MGF file violates the expected structure."""


def _parse_charge(raw: str) -> int:
    """Parse MGF charge notation: ``2+``, ``+2``, ``2`` or ``3-``."""
    text = raw.strip().split()[0]
    sign = -1 if text.endswith("-") or text.startswith("-") else 1
    digits = text.strip("+-")
    if not digits.isdigit():
        raise MgfFormatError(f"cannot parse CHARGE value {raw!r}")
    return sign * int(digits)


def _spectrum_from_block(record, mz: np.ndarray, intensity: np.ndarray) -> Spectrum:
    headers, index = record
    if "PEPMASS" not in headers:
        raise MgfFormatError(f"spectrum #{index} is missing PEPMASS")
    pepmass = float(headers["PEPMASS"].split()[0])
    charge = _parse_charge(headers.get("CHARGE", "2+"))
    title = headers.get("TITLE", f"index={index}")
    rt = float(headers["RTINSECONDS"]) if "RTINSECONDS" in headers else None
    peptide = None
    if headers.get("SEQ"):
        peptide = Peptide(headers["SEQ"].strip())
    return Spectrum(
        title, pepmass, abs(charge), mz, intensity, peptide, retention_time=rt
    )


def read_mgf(source: Union[PathLike, TextIO]) -> Iterator[Spectrum]:
    """Yield :class:`Spectrum` objects from an MGF file or file object.

    Peak lines are converted a :class:`~repro.ms.peaklist.PeakBlock` at
    a time, so memory is bounded by one block of entries.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_mgf(handle)
        return

    block = PeakBlock(
        lambda number, line: MgfFormatError(f"malformed peak line {number}: {line!r}")
    )
    lines, numbers = block.lines, block.numbers
    headers: Dict[str, str] = {}
    in_block, index, start, pending = False, 0, 0, None
    for line_number, raw_line in enumerate(source, start=1):
        # Most lines are peaks: take them before stripping anything.
        if in_block and raw_line[:1].isdigit():
            lines.append(raw_line)
            numbers.append(line_number)
            continue
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if in_block and line != "END IONS" and line != "BEGIN IONS":
            if "=" in line and not line[0].isdigit():
                key, _, value = line.partition("=")
                headers[key.strip().upper()] = value.strip()
            else:
                lines.append(line)
                numbers.append(line_number)
        elif line == "BEGIN IONS":
            if in_block:
                pending = MgfFormatError(f"nested BEGIN IONS at line {line_number}")
                break
            in_block, headers, start = True, {}, len(lines)
        elif line == "END IONS":
            if not in_block:
                pending = MgfFormatError(f"END IONS without BEGIN at line {line_number}")
                break
            in_block = False
            full = block.close((headers, index), start)
            index += 1
            if full:
                yield from block.spectra(_spectrum_from_block)
    else:
        if in_block:
            pending = MgfFormatError("file ended inside a BEGIN IONS block")
    yield from block.spectra(_spectrum_from_block)
    if pending is not None:
        raise pending


def write_mgf(
    spectra: Iterable[Spectrum], destination: Union[PathLike, TextIO]
) -> int:
    """Write spectra to MGF; returns the number of spectra written."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_mgf(spectra, handle)

    count = 0
    for spectrum in spectra:
        destination.write("BEGIN IONS\n")
        destination.write(f"TITLE={spectrum.identifier}\n")
        destination.write(f"PEPMASS={spectrum.precursor_mz:.6f}\n")
        destination.write(f"CHARGE={spectrum.precursor_charge}+\n")
        if spectrum.retention_time is not None:
            destination.write(f"RTINSECONDS={spectrum.retention_time:.3f}\n")
        if spectrum.peptide is not None:
            destination.write(f"SEQ={spectrum.peptide.sequence}\n")
        for mz, intensity in zip(spectrum.mz, spectrum.intensity):
            destination.write(f"{mz:.5f} {intensity:.6g}\n")
        destination.write("END IONS\n")
        count += 1
    return count
