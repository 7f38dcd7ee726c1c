"""Golden output files and the byte checker.

Golden files are the CLI's output CSVs at the golden seed, stored as they
were written; the largest is about 40 kB.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

HEAD_LINES = 4  # three provenance comments and the column header


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def capture(src: Path, dest_dir: Path) -> Path:
    """Store the output file ``src`` as golden under ``dest_dir``."""
    dest_dir.mkdir(parents=True, exist_ok=True)
    return Path(shutil.copyfile(src, dest_dir / src.name))


def head(golden_dir: Path, name: str) -> list:
    """First HEAD_LINES lines of a golden file."""
    return (golden_dir / name).read_text(encoding="utf-8").split("\n")[:HEAD_LINES]


def _short(line: bytes) -> str:
    text = line.decode("utf-8", "replace").rstrip("\n")
    return repr(text if len(text) <= 60 else text[:57] + "...")


def diff(path: Path, golden_dir: Path) -> str | None:
    """None when ``path`` matches its golden byte for byte, else a message
    naming the file and the first line that differs."""
    name = path.name
    if not path.exists():
        return f"{name}: not written"
    if not (golden_dir / name).exists():
        return f"{name}: no golden file in {golden_dir}"
    want, got = (golden_dir / name).read_bytes(), path.read_bytes()
    if want == got:
        return None
    want_lines = want.splitlines(keepends=True)
    got_lines = got.splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(want_lines, got_lines), start=1):
        if a != b:
            return f"{name}: line {i} differs: golden {_short(a)}, got {_short(b)}"
    i = min(len(want_lines), len(got_lines)) + 1
    if len(got_lines) < len(want_lines):
        return f"{name}: line {i} missing: golden {_short(want_lines[i - 1])}"
    return f"{name}: line {i} is extra: got {_short(got_lines[i - 1])}"


def check_head(path: Path, golden_head: list, seed: int) -> str | None:
    """Limited check for a seed without golden files: provenance lines and
    the CSV column header."""
    name = path.name
    if not path.exists():
        return f"{name}: not written"
    with open(path, encoding="utf-8") as fh:
        got = [fh.readline().rstrip("\n") for _ in range(HEAD_LINES)]
    want = [golden_head[0], None, f"# seed={seed}", golden_head[3]]
    for i, (a, b) in enumerate(zip(want, got), start=1):
        if a is None:
            ok = b.startswith("# config_hash=")
        else:
            ok = a == b
        if not ok:
            return f"{name}: header line {i} is {b!r}, expected {a or '# config_hash=...'!r}"
    return None
