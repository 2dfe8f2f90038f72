"""Block conversion of peak-list text for the MGF and MSP readers.

A reader appends each peak line (and its line number) to a
:class:`PeakBlock` and closes each entry with its own record.  When the
block is full, or the file ends, one ``np.loadtxt`` converts every peak
line of the block and the entries become spectra in file order, so a
reader holds one block of entries, never the file.
"""

from __future__ import annotations

from typing import Callable, Iterator, List

import numpy as np

from .spectrum import Spectrum

#: A block is converted once it holds this many peak lines or entries.
BLOCK_PEAKS, BLOCK_ENTRIES = 2048, 128


class PeakBlock:
    """The peak lines and entry records of one block of a peak-list file.

    ``malformed(line_number, line)`` builds the error for a peak line of
    fewer than two fields.  Lines outside any entry are converted too,
    so a bad value raises wherever it stands.
    """

    def __init__(self, malformed: Callable[[int, str], ValueError]) -> None:
        self.lines: List[str] = []
        self.numbers: List[int] = []
        self.entries: List[tuple] = []
        self.malformed = malformed

    def close(self, record, start: int) -> bool:
        """Close an entry whose peaks are ``lines[start:]``; True once full."""
        self.entries.append((record, start, len(self.lines)))
        return len(self.lines) >= BLOCK_PEAKS or len(self.entries) >= BLOCK_ENTRIES

    def spectra(self, finalise: Callable[..., Spectrum]) -> Iterator[Spectrum]:
        """Yield ``finalise(record, mz, intensity)`` per entry, then empty the block.

        A bad peak line raises after every entry that ends before it.
        """
        bad, error = len(self.lines), None
        try:
            table = np.empty((0, 2)) if not self.lines else np.loadtxt(
                self.lines, comments=None, usecols=(0, 1), ndmin=2
            )
        except ValueError:
            table, bad, error = self._line_by_line()
        mz, intensity = np.ascontiguousarray(table[:, 0]), table[:, 1].astype(np.float32)
        entries, self.entries = self.entries, []
        self.lines.clear()
        self.numbers.clear()
        for record, start, stop in entries:
            if stop > bad:
                break
            yield finalise(record, mz[start:stop], intensity[start:stop])
        if error is not None:
            raise error

    def _line_by_line(self):
        """The rows before the first bad peak line, its position and error.

        Values ``float`` takes and ``loadtxt`` rejects (``1_000``) are kept.
        """
        rows: List[np.ndarray] = []
        for position, line in enumerate(self.lines):
            fields = line.split()
            try:
                if len(fields) < 2:
                    raise self.malformed(self.numbers[position], line.strip())
                rows.append(np.array(fields[:2], dtype=np.float64))
            except ValueError as error:
                return np.reshape(rows, (-1, 2)), position, error
        return np.reshape(rows, (-1, 2)), len(rows), None
