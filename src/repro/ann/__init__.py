"""Truncated-precision candidate shortlisting with exact re-rank.

The package provides the approximate stage of the cascade described in
``docs/architecture.md``: :func:`shortlist` scores every row of a large
precursor window on a prefix of its packed hypervector and keeps the
best few, which the searchers re-rank with the exact full-width score.
:class:`CandidatePrefilter` is the standalone form of the same pass.
``docs/ann-tuning.md`` covers the knobs.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "config": ["AnnConfig"],
        "prefilter": [
            "OUTCOMES",
            "AnnRows",
            "AnnStats",
            "CandidatePrefilter",
            "PrefilterSelection",
            "shortlist",
        ],
    },
)
