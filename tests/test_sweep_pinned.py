"""Pinned sweep documents over the paper's design space.

``run_sweep`` prices a sampled prefix of every column phase and
extrapolates it; how the prefix is generated and how the engine batches
it are implementation choices that must never show in a result
document.  This test runs a paper-shaped grid -- N in {1024, 2048,
4096}, the row-major baseline plus the DDL at Eq. (1) and h in
{4, 8, 16, 32}, both ``whole_blocks`` values, two fixed timing
variants -- at the sweep's default request budget and compares the
sha256 of the documents with a recorded value.

Regenerate the value only for a deliberate change to the timing model
or the document schema: ``PYTHONPATH=src python tests/test_sweep_pinned.py``.
"""

from __future__ import annotations

import hashlib

from repro.sweep import grid_from_dict, run_sweep

#: The two timing variants: the defaults and a skewed part within the
#: +-20% band the repository benchmark perturbs by.
VARIANTS = (
    {"label": "defaults", "overrides": {}},
    {
        "label": "skewed",
        "overrides": {
            "memory": {
                "timing": {
                    "t_in_row": 1.412,
                    "t_in_vault": 5.531,
                    "t_diff_bank": 8.377,
                    "t_diff_row": 23.906,
                }
            }
        },
    },
)

#: sha256 of the two documents (whole_blocks true, then false; each
#: covers both variants), each followed by a newline.
PINNED_SHA256 = "a78f2c51f49280e4cb022ee41b3d5275ff07da252471bf4f843e6f0adb548e76"


def documents_sha256() -> str:
    digest = hashlib.sha256()
    for whole_blocks in (True, False):
        grid = grid_from_dict(
            {
                "sizes": [1024, 2048, 4096],
                "layouts": ["row-major", "ddl"],
                "heights": [None, 4, 8, 16, 32],
                "whole_blocks": whole_blocks,
                "configs": list(VARIANTS),
            }
        )
        result = run_sweep(grid)
        assert not result.failures
        digest.update(result.to_json().encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_paper_grid_documents_are_pinned():
    assert documents_sha256() == PINNED_SHA256


if __name__ == "__main__":
    print(documents_sha256())
