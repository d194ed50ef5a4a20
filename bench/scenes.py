"""Scene and training settings shared by the workloads and the reference
model script. The criterion-5 recipe lives here once."""

import math

from matchgraph.subgraph import QesParams
from matchgraph.synthetic import SceneConfig
from matchgraph.trainer import TrainConfig

TAU_MO = 0.25
TAU_CT = 0.15
OVERLAP_ANGLE = math.pi / 12
SYMMETRY = 4
NOISE = 0.05
DIM = 32
REFERENCE_SEED = 42
REFERENCE_CONV_WIDTHS = (128, 128, 64, 64)
REFERENCE_FC_WIDTHS = (32,)
REFERENCE_QES = QesParams(k1=100, k2=5, u=10)


def ring360_config(seed: int, n_images: int = 360) -> SceneConfig:
    return SceneConfig(
        n_images=n_images, symmetry_s=SYMMETRY, overlap_angle=OVERLAP_ANGLE,
        noise_sigma=NOISE, dim=DIM, seed=seed,
    )


def reference_config(epochs: int, seed: int = REFERENCE_SEED) -> TrainConfig:
    return TrainConfig(
        tau_mo=TAU_MO, tau_ct=TAU_CT, qes_params=REFERENCE_QES,
        learning_rate=1e-2, epochs=epochs, batch_size=8, beta2=0.99, seed=seed,
    )
