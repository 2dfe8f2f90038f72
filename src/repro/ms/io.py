"""Format-agnostic, extension-dispatching spectrum IO.

One entry point — :func:`iter_spectra` — lazily streams spectra from
any supported peak-list format, so ingest code (the CLI, the segmented
store builder) never hard-codes a parser.  Both readers convert one
block of entries at a time (:mod:`repro.ms.peaklist`), so memory stays
bounded by one block whatever the file size.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Union

from .mgf import read_mgf
from .msp import read_msp
from .spectrum import Spectrum

#: Extension (lower-case, with dot) → lazy reader.
SPECTRUM_READERS: Dict[str, Callable] = {".mgf": read_mgf, ".msp": read_msp}


def iter_spectra(source: Union[str, Path], format: Optional[str] = None) -> Iterator[Spectrum]:
    """Lazily yield spectra from a peak-list file of any known format.

    Args:
        source: Path to an ``.mgf`` or ``.msp`` file.
        format: Explicit format override (``"mgf"`` / ``"msp"``) for
            paths whose extension lies.

    Yields:
        One :class:`Spectrum` at a time; only the current block of
        entries is materialized.

    Raises:
        ValueError: When the extension (or override) names no reader.
    """
    path = Path(source)
    suffix = f".{format.lower().lstrip('.')}" if format else path.suffix.lower()
    reader = SPECTRUM_READERS.get(suffix)
    if reader is None:
        raise ValueError(
            f"no spectrum reader for {suffix!r} (supported: "
            f"{sorted(SPECTRUM_READERS)})"
        )
    yield from reader(path)
