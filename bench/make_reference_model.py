"""Regenerate the benchmark's reference model with the criterion-5 recipe.

    python3 bench/make_reference_model.py [--out bench/reference_model.ckpt]

Trains on the 360-image, 4-fold-symmetric ring (noise 0.05, 32-d, seed 42)
for 140 epochs and prints the checkpoint's SHA-256. Training is
bit-reproducible, so the printed digest must equal the one recorded in
bench/README.md.
"""

import argparse
import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from matchgraph.gcn import save_model  # noqa: E402
from matchgraph.synthetic import generate_scene  # noqa: E402
from matchgraph.trainer import train  # noqa: E402

from scenes import REFERENCE_CONV_WIDTHS, REFERENCE_FC_WIDTHS, reference_config, ring360_config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "reference_model.ckpt"))
    args = parser.parse_args()
    scene = generate_scene(ring360_config(seed=42))
    emb = scene.embeddings
    model, history = train(
        emb, scene.overlaps, list(emb.ids), reference_config(epochs=140),
        conv_widths=REFERENCE_CONV_WIDTHS, fc_widths=REFERENCE_FC_WIDTHS,
    )
    data = save_model(model)
    Path(args.out).write_bytes(data)
    last = history[-1]
    print(f"epochs {last.epoch} loss {last.loss:.6f} fmeasure {last.fmeasure:.4f}")
    print(f"sha256 {hashlib.sha256(data).hexdigest()} bytes {len(data)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
