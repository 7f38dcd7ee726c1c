"""Pinned digests of `fracapprox sample` outputs.

The sampler draws digits and folds them into points; any change to either
step that moves a single bit of the output changes these digests.  They
were captured at seed 0 before the sampler was rewritten, and the CSV is
hashed without its `# config_hash=` line (a definition file's path is part
of the config).  25,000 samples cross two shard seams of the CLI's
10,000-point chunks, and `--jobs` 1 and 2 must give the same bytes.
"""

import hashlib
import json

import pytest

from fracapprox.cli import main

# ratios 1/2 and 1/4 on [0, 1]: unequal digit weights
UNEQUAL = {
    "dimension": 1,
    "maps": [
        {"ratio": 0.5, "rotation": [1.0], "translation": [0.0]},
        {"ratio": 0.25, "rotation": [1.0], "translation": [0.75]},
    ],
    "open_set": {"type": "box", "min": [0.0], "max": [1.0]},
}

DIGESTS = {
    "cantor": "191ed61cd4bbccfb8e88f507fee6d648bf32d4ed4b93e05774ef29e17a03d73f",
    "gasket": "43f369a962cdcb725768e3e985f757f6558962fa3ba7f6a4c9c2e3ffe5acbc0f",
    "dust": "3b270e79906072290ad893f1e60f88a4d3cb1a14d138e7901269481cce0202e7",
    "koch": "4e938cc48566f19dec5ad0e1fe4838e030221d2d2e7277b66105d92377bcfaa2",
    "unequal": "68bf94f453cfec13e41e970d9d43e5621d995b0d573ab278f5227a1c0709570c",
}


def _digest(path) -> str:
    lines = [line for line in path.read_bytes().split(b"\n")
             if not line.startswith(b"# config_hash=")]
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_sample_output_digest(tmp_path, name, jobs):
    ifs = name
    if name == "unequal":
        ifs = tmp_path / "unequal.json"
        ifs.write_text(json.dumps(UNEQUAL))
    out = tmp_path / "run"
    code = main(["--seed", "0", "--out", str(out), "--jobs", str(jobs),
                 "sample", "--ifs", str(ifs), "--samples", "25000"])
    assert code == 0
    assert _digest(out / "samples.csv") == DIGESTS[name]
