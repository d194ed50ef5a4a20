"""Synthetic ring scenes with controllable rotational symmetry.

Cameras sit uniformly on a circle. Each image's descriptor is a harmonic
map of its *folded* angle (the angle modulo the symmetry period), so
images from distinct symmetry copies at the same folded angle collide in
descriptor space: exactly the ambiguity that breaks visual-only retrieval.
Ground-truth matchability, by contrast, uses the true angular distance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix, first_repeat, raise_earliest, read_rows
from .errors import InvalidRecord
from .overlaps import OverlapStore


@dataclass(frozen=True)
class SceneConfig:
    """Scene shape: image count, s-fold symmetry, matchability window,
    descriptor noise and dimension, and the generation seed."""

    n_images: int
    symmetry_s: int = 1
    overlap_angle: float = math.pi / 12
    noise_sigma: float = 0.0
    dim: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_images < 1:
            raise ValueError("need at least one image")
        if self.symmetry_s < 1:
            raise ValueError("symmetry order must be >= 1")
        if not 0.0 < self.overlap_angle < math.pi:
            raise ValueError("overlap angle must lie in (0, pi)")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise sigma must be a finite number >= 0, got {self.noise_sigma!r}")
        if self.dim < 2:
            raise ValueError("descriptor dimension must be >= 2")


@dataclass(frozen=True)
class Scene:
    embeddings: EmbeddingMatrix
    overlaps: OverlapStore
    classes: dict[int, int]


def _harmonic_map(psi: np.ndarray, dim: int) -> np.ndarray:
    """Smooth injective map of an angle onto a sphere in `dim` dimensions.

    Harmonic m gets amplitude 1/m, which makes the chord distance strictly
    increasing in angular distance over a half period (the partial sums of
    sin(m t)/m stay positive on (0, pi)).
    """
    n = psi.shape[0]
    out = np.zeros((n, dim), dtype=np.float64)
    pairs = dim // 2
    for m in range(1, pairs + 1):
        out[:, 2 * m - 2] = np.cos(m * psi) / m
        out[:, 2 * m - 1] = np.sin(m * psi) / m
    if dim % 2:
        out[:, -1] = np.cos((pairs + 1) * psi) / (pairs + 1)
    return out


def generate_scene(config: SceneConfig) -> Scene:
    """Build embeddings, overlap supervision, and symmetry-class labels.

    Camera i sits at angle 2*pi*i/n. Its folded angle is computed from the
    integer residue (i * s) mod n so that aligned copies (when s divides n)
    collide bitwise, making the zero-noise ambiguity exact. A pair is
    matchable iff its true circular distance is within the overlap window;
    its mesh-overlap and common-track scores decay linearly to zero at the
    window edge, and non-matchable pairs get no record at all.
    """
    n = config.n_images
    s = config.symmetry_s
    psi = 2.0 * math.pi * ((np.arange(n) * s) % n) / n
    vectors = _harmonic_map(psi, config.dim)
    if config.noise_sigma > 0.0:
        rng = np.random.default_rng([config.seed])
        vectors = vectors + rng.normal(0.0, config.noise_sigma, size=vectors.shape)
    emb = EmbeddingMatrix(list(range(n)), vectors)

    # Pairs j > i at circular offset m = min(j - i, n - (j - i)) lie m * step
    # apart, which grows with m, so only offsets up to the window are visited.
    step = 2.0 * math.pi / n
    i, j, mo = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    m = 1
    while m <= n // 2 and m * step <= config.overlap_angle:
        score = max(0.0, 1.0 - m * step / config.overlap_angle)
        for gap in {m, n - m}:
            i.append(np.arange(n - gap))
            j.append(i[-1] + gap)
            mo.append(np.full(n - gap, score))
        m += 1
    mo = np.concatenate(mo)
    store = OverlapStore.from_columns(np.concatenate(i), np.concatenate(j), mo, mo)

    classes = {i: (i * s) // n for i in range(n)}
    return Scene(embeddings=emb, overlaps=store, classes=classes)


def save_classes(classes: dict[int, int]) -> str:
    return "\n".join(f"{i} {classes[i]}" for i in sorted(classes)) + "\n"


def load_classes(text: str) -> dict[int, int]:
    """The `id class` lines of a class file, which `read_rows` parses: ids
    in [0, 2^64), each once, and classes in [-2^63, 2^63)."""
    rows, fault = read_rows(text, np.dtype([("id", "u8"), ("label", "i8")]), "class")
    r = first_repeat(rows["id"])
    raise_earliest(text, fault, None if r is None else
                   (r, InvalidRecord(f"image id {int(rows['id'][r])} repeated")))
    return dict(zip(rows["id"].tolist(), rows["label"].tolist()))
