"""The cached reference model every workload starts from.

The model is trained once per checkout with the reference configuration
(seed 7, 100 images per class, the default TrainConfig) and saved under
``.bench_build/``. The file name carries a hash of the tivis sources and of
that configuration, so a commit that changes any source file never reuses a
model trained by another.

Run as a script to fill the cache: ``python3 bench/refmodel.py``.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tivis"
CACHE_DIR = ROOT / ".bench_build"

REFERENCE_SEED = 7
COUNT_PER_CLASS = 100


def source_digest() -> str:
    """Hash of every file of the tivis package, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def cache_path() -> Path:
    h = hashlib.sha256(source_digest().encode())
    h.update(f"seed={REFERENCE_SEED} count_per_class={COUNT_PER_CLASS} config=TrainConfig()".encode())
    return CACHE_DIR / f"reference-{h.hexdigest()[:16]}.gbxm"


def load_reference_model():
    """Locate the cached model by its key and load it."""
    from tivis import load_model

    return load_model(cache_path())


def reference_dataset():
    from tivis import generate_dataset

    return generate_dataset(REFERENCE_SEED, COUNT_PER_CLASS)


def fill_cache() -> Path:
    """Train the reference model and write it atomically to the cache."""
    from tivis import TrainConfig, reference_architecture, save_model, train

    path = cache_path()
    result = train(reference_dataset(), reference_architecture(REFERENCE_SEED), TrainConfig())
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    save_model(result.model, tmp)
    os.replace(tmp, path)
    return path


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(f"trained reference model -> {fill_cache()}", file=sys.stderr)
