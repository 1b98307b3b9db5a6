"""Golden reference: pinned outputs of a tiny training run on a 1-channel and
on a 3-channel corpus, of a tiny ``compare`` run, of three ``train`` and two
``compare`` runs at the default shape, of ``eval``, of ``hv --mc``, of
``pareto``, of ``gradcheck`` and of the exact hypervolume.

The values below were recorded once and are compared against, not against a
rerun of the current code. A refactor that keeps them passes; one that moves
a training value past 1e-12 relative, changes one dominance count or one
printed byte of a Pareto front, or changes the last bit of an exact
hypervolume fails.
"""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from hvgan import cli, model
from hvgan.data_io import ImageBuffer, save_image
from hvgan.moo import Orientation, PointSet, hypervolume_exact
from hvgan.synth import make_image, write_corpus

REL = 1e-12

PRETRAIN_HEADER = ["iter", "l_pix"]
PRETRAIN_ROWS = [
    [1, 0.16782442470843423],
    [2, 0.19780598770941804],
    [3, 0.1334483061766263],
]

HISTORY_HEADER = [
    "iter", "l_gan", "l_pix", "l_fea", "scalar",
    "w_gan", "w_pix", "w_fea", "clamped", "lr",
]
HISTORY_ROWS = [
    [1, 1.383163705877228, 0.19196385881647, 0.045845488071704014,
     8.593454206654824, 0.05371481943555008, 1000000.0, 0.10046056636971795,
     1, 0.001],
    [2, 1.3948736305747036, 0.14111432235469432, 0.032218747605528376,
     8.592715387139702, 0.05374862713339848, 1000000.0, 0.10032322887902248,
     1, 0.001],
    [3, 1.3729552116474202, 0.15517777386576237, 0.037433193817757233,
     8.592061262572045, 0.053685381195051195, 1000000.0, 0.1003757384471894,
     1, 0.0005],
    [4, 1.390938655453493, 0.19567094782402894, 0.046866317858526546,
     8.59397448229662, 0.0537372617288435, 1000000.0, 0.10047086997276664,
     1, 0.0005],
]

# Per-parameter L2 norm of checkpoint.hvgn, in file order.
CHECKPOINT_NORMS = [
    ("g.conv1.w", 1.5493406621199233),
    ("g.conv1.b", 0.004062732832619477),
    ("g.conv2.w", 2.0184879302783147),
    ("g.conv2.b", 0.003342325964559363),
    ("g.conv3.w", 2.1588376174555823),
    ("g.conv3.b", 0.005349482909820713),
    ("g.conv4.w", 0.9140763401180513),
    ("g.conv4.b", 0.0002669353042396873),
    ("d.conv1.w", 1.7080213275779408),
    ("d.conv1.b", 0.0057509243886417856),
    ("d.conv2.w", 2.821088956235484),
    ("d.conv2.b", 0.008224198822202416),
    ("d.fc.w", 0.9815065114218674),
    ("d.fc.b", 0.002996237792675491),
]

# The same run on a seeded 3-channel corpus (RGB_CORPUS_SEED): G conv4 narrows
# 4 -> 3, G conv2-3 keep 4 -> 4 and D conv1 widens 3 -> 4, so every shape rule
# of the conv kernels runs. Recorded with the im2col-only kernels.
RGB_CORPUS_SEED = 311
RGB_PRETRAIN_ROWS = [
    [1, 0.24915954731272882],
    [2, 0.23923945074533812],
    [3, 0.26313951535509567],
]
RGB_HISTORY_ROWS = [
    [1, 1.3934457505488527, 0.2429925545517241, 0.060261558676038635,
     8.595455953741101, 0.05374450242604688, 1000000.0, 0.10060626905860526,
     1, 0.001],
    [2, 1.3715235266563905, 0.2628731504356742, 0.059740646929391905,
     8.594226042643557, 0.053681255224008705, 1000000.0, 0.10060099686343633,
     1, 0.001],
    [3, 1.3831571011063661, 0.24770008124292028, 0.059209590869291284,
     8.594797319265185, 0.053714800378931504, 1000000.0, 0.10059562256553468,
     1, 0.0005],
    [4, 1.3856331843534244, 0.2477084186377795, 0.05598816771099592,
     8.594606321856407, 0.05372194552217782, 1000000.0, 0.10056303400131925,
     1, 0.0005],
]
RGB_CHECKPOINT_NORMS = [
    ("g.conv1.w", 1.9134154178667964),
    ("g.conv1.b", 0.005200513901410581),
    ("g.conv2.w", 2.106317263595673),
    ("g.conv2.b", 0.004289226098792113),
    ("g.conv3.w", 1.926917033980004),
    ("g.conv3.b", 0.006975054095430241),
    ("g.conv4.w", 1.8757379665011482),
    ("g.conv4.b", 0.005039013417213064),
    ("d.conv1.w", 1.8165421005923859),
    ("d.conv1.b", 0.00513625135004719),
    ("d.conv2.w", 2.615077069177579),
    ("d.conv2.b", 0.007985114304466908),
    ("d.fc.w", 1.0206893954744554),
    ("d.fc.b", 0.0029691819747034247),
]

# The compare_run config of tests/test_cli.py: results.csv rows (mode, psnr,
# ssim, gmsd, clamp_events), every <mode>/history.csv row, and the
# per-parameter L2 norm of pretrained.hvgn in file order.
COMPARE_RESULTS = [
    ["linear", 10.675526743281331, 0.0004888326733345217, 0.2397579179574681, 0],
    ["hv_log", 10.677166993134664, 0.0006886514806177806, 0.23939766610224525, 2],
    ["hv_log_norm", 10.677166993134664, 0.0006886514806177806,
     0.23939766610224525, 2],
]
COMPARE_HISTORY = {
    "linear": [
        [1, 1.3831331838023053, 0.19201011770481607, 0.04585148932255447,
         0.05468725641861416, 0.005, 0.01, 1.0, 0, 0.001],
        [2, 1.3943568530377872, 0.14099007116754686, 0.03218690667129156,
         0.04056859164815596, 0.005, 0.01, 1.0, 0, 0.0005],
    ],
    "hv_log": [
        [1, 1.3831331838023053, 0.19201011770481607, 0.04585148932255447,
         8.593453170057666, 0.05371473137090636, 1000000.0, 0.10046062693633083,
         1, 0.001],
        [2, 1.3943703879761462, 0.14106445261053546, 0.032209013030916306,
         8.59268736230324, 0.05374717334767063, 1000000.0, 0.10032313090305589,
         1, 0.0005],
    ],
    "hv_log_norm": [
        [1, 1.3831331838023053, 0.19201011770481607, 0.04585148932255447,
         13.891770536605703, 0.05371473137090636, 1000000.0, 0.10046062693633083,
         1, 0.001],
        [2, 1.3943703879761462, 0.14106445261053546, 0.032209013030916306,
         13.891004728851275, 0.05374717334767063, 1000000.0, 0.10032313090305589,
         1, 0.0005],
    ],
}
PRETRAINED_NORMS = [
    ("g.conv1.w", 1.5492697857213054),
    ("g.conv1.b", 0.0038687979328560066),
    ("g.conv2.w", 2.015570557194155),
    ("g.conv2.b", 0.0038872653828918038),
    ("g.conv3.w", 2.1581100501569277),
    ("g.conv3.b", 0.003821092374278297),
    ("g.conv4.w", 0.9136078325801616),
    ("g.conv4.b", 0.0020010808720608395),
    ("d.conv1.w", 1.709545966388461),
    ("d.conv1.b", 0.0),
    ("d.conv2.w", 2.823482743083387),
    ("d.conv2.b", 0.0),
    ("d.fc.w", 0.9844586016885564),
    ("d.fc.b", 0.0),
]

POINTS_3D = (
    "0.1,0.6,0.7\n0.3,0.3,0.5\n0.6,0.1,0.4\n"
    "0.2,0.5,0.2\n0.7,0.4,0.1\n0.5,0.2,0.6\n"
)
POINTS_6D = (
    "0.13,0.26,0.77,0.57,0.13,0.44\n"
    "0.48,0.19,0.71,0.15,0.4,0.52\n"
    "0.44,0.58,0.71,0.91,0.31,0.63\n"
    "0.68,0.31,0.05,0.93,0.32,0.33\n"
    "0.85,0.58,0.47,0.75,0.08,0.69\n"
    "0.39,0.13,0.64,0.89,0.24,0.62\n"
    "0.32,0.72,0.7,0.25,0.8,0.64\n"
    "0.66,0.79,0.44,0.73,0.84,0.14\n"
)
POINTS = {3: POINTS_3D, 6: POINTS_6D}
HV_STDOUT = {
    3: "0.48600000000\n0.485951400000 0.00243012147266\n",
    6: "0.0587967646700\n0.0583921483834 0.00111417157695\n",
}

# `hvgan pareto` stdout for POINTS and the 5d_grid rows below, per orientation.
PARETO_STDOUT = {
    ("3d", "min"): POINTS_3D,
    ("3d", "max"): POINTS_3D,
    ("6d", "min"): (
        "0.13,0.26,0.77,0.57,0.13,0.44\n0.48,0.19,0.71,0.15,0.4,0.52\n"
        "0.68,0.31,0.05,0.93,0.32,0.33\n0.85,0.58,0.47,0.75,0.08,0.69\n"
        "0.39,0.13,0.64,0.89,0.24,0.62\n0.32,0.72,0.7,0.25,0.8,0.64\n"
        "0.66,0.79,0.44,0.73,0.84,0.14\n"
    ),
    ("6d", "max"): (
        "0.13,0.26,0.77,0.57,0.13,0.44\n0.48,0.19,0.71,0.15,0.4,0.52\n"
        "0.44,0.58,0.71,0.91,0.31,0.63\n0.68,0.31,0.05,0.93,0.32,0.33\n"
        "0.85,0.58,0.47,0.75,0.08,0.69\n0.32,0.72,0.7,0.25,0.8,0.64\n"
        "0.66,0.79,0.44,0.73,0.84,0.14\n"
    ),
    ("5d_grid", "min"): (
        "1,1,2,3,2\n0,2,3,0,2\n1,3,0,1,3\n1,0,3,3,3\n3,2,0,1,2\n"
        "1,2,1,3,0\n2,0,0,2,1\n1,1,3,2,1\n3,3,1,0,0\n3,2,2,0,1\n"
        "3,3,0,1,1\n2,0,1,1,0\n0,2,1,1,1\n1,3,0,1,3\n3,2,0,1,2\n"
    ),
    ("5d_grid", "max"): (
        "2,3,3,2,3\n3,3,0,1,2\n1,0,3,3,3\n3,1,2,3,2\n1,2,1,3,0\n"
        "3,3,1,0,0\n3,2,2,0,1\n3,2,0,3,2\n3,3,0,1,2\n"
    ),
}

# Exact hypervolumes pinned bit for bit: a 32-point 3-objective front, a
# 32-point 6-objective set with 25 nondominated points, and an integer grid
# with duplicate rows, tied last-objective values and points on the
# reference face.
HV_SET_3D = (
    (0.543, 0.271, 0.491), (0.428, 0.181, 0.96), (0.584, 0.754, 0.125),
    (0.389, 0.479, 0.404), (0.402, 0.199, 0.974), (0.51, 0.169, 0.737),
    (0.265, 0.558, 0.486), (0.064, 0.662, 0.896), (0.106, 0.663, 0.703),
    (0.366, 0.346, 0.587), (0.883, 0.122, 0.535), (0.229, 0.691, 0.442),
    (0.748, 0.4, 0.241), (0.708, 0.743, 0.079), (0.155, 0.744, 0.531),
    (0.613, 0.08, 0.943), (0.204, 0.722, 0.462), (0.808, 0.987, 0.019),
    (0.251, 0.58, 0.487), (0.916, 0.06, 0.67), (0.476, 0.343, 0.458),
    (0.521, 0.678, 0.183), (0.367, 0.299, 0.67), (0.854, 0.134, 0.522),
    (0.036, 0.952, 0.737), (0.478, 0.168, 0.813), (0.084, 0.911, 0.609),
    (0.067, 0.776, 0.718), (0.893, 0.091, 0.598), (0.527, 0.125, 0.895),
    (0.557, 0.104, 0.971), (0.723, 0.149, 0.554),
)
HV_SET_6D = (
    (1.0, 1.0, 0.664, 1.0, 0.776, 0.963),
    (0.422, 0.58, 0.688, 0.439, 0.724, 0.982),
    (0.175, 0.922, 0.558, 0.74, 0.807, 0.888),
    (0.786, 0.458, 0.933, 0.29, 0.654, 0.817),
    (0.427, 0.94, 0.528, 0.415, 0.71, 0.86),
    (0.19, 0.832, 0.872, 0.566, 0.828, 0.715),
    (0.756, 0.952, 0.707, 0.442, 0.53, 0.434),
    (0.54, 0.733, 0.91, 0.893, 0.502, 0.33),
    (0.319, 0.503, 0.865, 0.543, 0.998, 0.752),
    (0.381, 0.81, 0.793, 0.665, 0.431, 0.682),
    (0.805, 0.477, 0.223, 0.778, 0.853, 0.884),
    (0.499, 0.582, 0.799, 0.302, 0.984, 0.784),
    (0.99, 1.0, 0.696, 0.876, 1.0, 1.0),
    (0.98, 0.167, 0.922, 0.737, 0.843, 0.546),
    (0.532, 0.769, 0.787, 0.526, 0.724, 0.382),
    (1.0, 0.601, 1.0, 1.0, 1.0, 0.859),
    (1.0, 1.0, 0.771, 0.745, 1.0, 0.923),
    (0.922, 0.492, 0.587, 0.395, 0.663, 0.706),
    (0.05, 0.837, 0.754, 0.954, 0.968, 0.915),
    (0.709, 0.682, 0.403, 0.695, 0.646, 0.511),
    (0.605, 0.577, 0.962, 0.285, 0.932, 0.614),
    (0.339, 0.88, 0.736, 0.522, 0.516, 0.875),
    (0.857, 0.471, 0.994, 0.583, 0.439, 0.54),
    (0.497, 0.907, 1.0, 1.0, 1.0, 1.0),
    (0.866, 0.849, 0.202, 0.954, 0.663, 0.546),
    (0.841, 0.954, 0.531, 0.718, 0.994, 0.18),
    (0.891, 0.962, 0.57, 0.131, 0.814, 0.892),
    (0.781, 0.902, 0.249, 0.979, 0.964, 0.386),
    (0.658, 0.965, 0.902, 1.0, 0.965, 1.0),
    (0.775, 0.944, 0.459, 0.623, 0.29, 0.912),
    (0.856, 0.264, 0.567, 0.859, 0.692, 0.633),
    (1.0, 0.859, 1.0, 1.0, 0.662, 0.888),
)
HV_SET_5D_GRID = (
    (2, 3, 3, 2, 3), (3, 3, 0, 1, 2), (1, 1, 2, 3, 2), (0, 2, 3, 0, 2),
    (1, 3, 0, 1, 3), (1, 0, 3, 3, 3), (3, 1, 2, 3, 2), (3, 2, 0, 1, 2),
    (1, 2, 1, 3, 0), (2, 0, 0, 2, 1), (1, 1, 3, 2, 1), (3, 3, 1, 0, 0),
    (0, 2, 2, 2, 3), (3, 2, 2, 0, 1), (3, 3, 0, 1, 1), (2, 0, 1, 1, 0),
    (3, 2, 0, 3, 2), (0, 2, 1, 1, 1), (3, 3, 0, 1, 2), (1, 3, 0, 1, 3),
    (3, 2, 0, 1, 2),
)
HV_EXACT_HEX = {
    "3d": (HV_SET_3D, 1.0, "0x1.963d9c0f3721fp-2"),
    "6d": (HV_SET_6D, 1.0, "0x1.e26ab54ca1c47p-8"),
    "5d_grid": (HV_SET_5D_GRID, 3.0, "0x1.d000000000000p+5"),
}

# `hvgan eval` stdout for each (ref, test) pair that _eval_images builds.
EVAL_STDOUT = {
    "identical": "inf,1.000000,0.000000\n",
    "non_square": "20.107992,0.940747,0.074667\n",
    "rgb_ppm": "20.431391,0.945951,0.083943\n",
    "synth_noisy": "26.001025,0.891946,0.013618\n",
    "synth_pair": "5.877919,0.040837,0.229275\n",
}

# `hvgan gradcheck` stdout: each primitive's worst relative error over its ten
# seeded trials, as printed.
GRADCHECK_STDOUT = (
    "absolute 4.63e-09\n"
    "add 2.41e-09\n"
    "bias_add 4.24e-08\n"
    "clip 1.45e-09\n"
    "conv2d 6.24e-07\n"
    "leaky_relu 1.36e-09\n"
    "log 6.35e-10\n"
    "matmul 3.11e-09\n"
    "mean_spatial 9.7e-11\n"
    "mul 1.37e-09\n"
    "reduce_mean 7.34e-11\n"
    "reduce_sum 3.94e-10\n"
    "scalar_broadcast 5.05e-10\n"
    "sigmoid 7.88e-10\n"
    "square 2.39e-09\n"
    "sub 3.03e-09\n"
    "upsample_nearest 1.56e-08\n"
)


# Runs at the default shape (batch 4, patch 48, widths 16/8) on an 8-image
# 64x64 synth corpus (seed 3), with 4 pretraining and 4 adversarial
# iterations and every other key at its default except each run's "config"
# overrides. G conv1-3 and D conv2 take the default-width conv paths there,
# which the tiny runs above never reach. A compare run evaluates on the
# corpus's first two images.
# pretrain.csv rows of every default-shape run, by norm_p
DEFAULT_SHAPE_PRETRAIN = {
    1: [
        [1, 0.26244343770665646],
        [2, 0.22481151227939306],
        [3, 0.3070791999577483],
        [4, 0.29089356325034565],
    ],
    2: [
        [1, 0.09728527945464954],
        [2, 0.07349206772564235],
        [3, 0.12354366280774338],
        [4, 0.11341817285126991],
    ],
}
# history.csv rows and checkpoint.hvgn norms of each train config
DEFAULT_SHAPE_TRAIN = {
    "relativistic_hv_log": {
        "config": {},
        "history": [
            [1, 1.3791652211704422, 0.40894924060991095, 0.1005355142529683,
             8.598748791416199, 0.05370328515759789, 1000000.0, 0.10101556517928537, 1,
             0.0001],
            [2, 1.369816332437809, 0.20844833294178025, 0.05552542173033925,
             8.593710436543324, 0.053676336092227724, 1000000.0, 0.10055835450423566,
             1, 0.0001],
            [3, 1.385317740399921, 0.2602991665340697, 0.06691435059111651,
             8.595688749927998, 0.05372103515139367, 1000000.0, 0.10067365119916286, 1,
             0.0001],
            [4, 1.3887696899448851, 0.23124170834698676, 0.06026933427802487,
             8.595205455038949, 0.05373099915161056, 1000000.0, 0.10060634776036607, 1,
             0.0001],
        ],
        "norms": [
            ("g.conv1.w", 3.8401799703208424),
            ("g.conv1.b", 0.0017196539752899899),
            ("g.conv2.w", 4.009419381014561),
            ("g.conv2.b", 0.001225652378965852),
            ("g.conv3.w", 3.9747673373376746),
            ("g.conv3.b", 0.001428281235006093),
            ("g.conv4.w", 0.931531216540612),
            ("g.conv4.b", 0.00022272493516076837),
            ("d.conv1.w", 2.899240628222853),
            ("d.conv1.b", 0.0007955440149670188),
            ("d.conv2.w", 3.9823762738096162),
            ("d.conv2.b", 0.001255402151033753),
            ("d.fc.w", 0.7718066652505753),
            ("d.fc.b", 0.00039824564468828185),
        ],
    },
    "relativistic_linear": {
        "config": {"mode": "linear"},
        "history": [
            [1, 1.3791652211704422, 0.40894924060991095, 0.1005355142529683,
             0.11152083276491963, 0.005, 0.01, 1.0, 0, 0.0001],
            [2, 1.369814406813067, 0.20844955303316923, 0.055525773855308644,
             0.06445934141970568, 0.005, 0.01, 1.0, 0, 0.0001],
            [3, 1.3853155736632368, 0.2602959026277696, 0.06691314747735304,
             0.07644268437194691, 0.005, 0.01, 1.0, 0, 0.0001],
            [4, 1.3887662925425708, 0.2312444135638238, 0.06026980831272802,
             0.06952608391107912, 0.005, 0.01, 1.0, 0, 0.0001],
        ],
        "norms": [
            ("g.conv1.w", 3.8401256410089135),
            ("g.conv1.b", 0.0016852428485273309),
            ("g.conv2.w", 4.00944389592162),
            ("g.conv2.b", 0.0013195296221437005),
            ("g.conv3.w", 3.974746196288792),
            ("g.conv3.b", 0.0014135286060601908),
            ("g.conv4.w", 0.9315481229195225),
            ("g.conv4.b", 0.0002166379566083234),
            ("d.conv1.w", 2.899240620550132),
            ("d.conv1.b", 0.0007955390071872477),
            ("d.conv2.w", 3.9823762705505352),
            ("d.conv2.b", 0.001255404678913032),
            ("d.fc.w", 0.771806652557601),
            ("d.fc.b", 0.00039824535637882454),
        ],
    },
    "standard_hv_log_norm_p2_pre": {
        "config": {
            "adversarial": "standard", "mode": "hv_log_norm", "norm_p": 2,
            "feature_tap": "pre",
        },
        "history": [
            [1, 0.7286218272893256, 0.1847885773338708, 0.07256506876536487,
             13.826443282772553, 0.005018282149548286, 1000000.0, 0.10073095486667007,
             1, 0.0001],
            [2, 0.7264303952220011, 0.06420767476793904, 0.028241732511959827,
             1.0339036275656714, 0.005018226962980157, 27.938950417902724,
             0.10028321717950223, 0, 0.0001],
            [3, 0.7257656613011021, 0.0960034204500517, 0.039487181915159784,
             3.2273232666378893, 0.0050182102233063295, 250.2139610890352,
             0.10039643723808542, 0, 0.0001],
            [4, 0.72459329997891, 0.0782783979693526, 0.03410825616695293,
             1.5339091364062323, 0.005018180700568578, 46.037120033277546,
             0.10034224991645187, 0, 0.0001],
        ],
        "norms": [
            ("g.conv1.w", 3.840124489776593),
            ("g.conv1.b", 0.0016176442485754863),
            ("g.conv2.w", 4.009309681187949),
            ("g.conv2.b", 0.0013430106341384147),
            ("g.conv3.w", 3.974706940585827),
            ("g.conv3.b", 0.0014751485210331512),
            ("g.conv4.w", 0.9316642520716403),
            ("g.conv4.b", 7.753200911649058e-05),
            ("d.conv1.w", 2.8992403820225263),
            ("d.conv1.b", 0.0007955221156738874),
            ("d.conv2.w", 3.982370572409831),
            ("d.conv2.b", 0.0012553251884492205),
            ("d.fc.w", 0.7718060938623588),
            ("d.fc.b", 0.0003982242930952937),
        ],
    },
}
# printed checkpoint sha256, results.csv rows, every <mode>/history.csv
# and the pretrained.hvgn norms of each compare config
DEFAULT_SHAPE_COMPARE = {
    "relativistic": {
        "config": {},
        "sha256": (
            "340b218584c613da77fe8779b8de4493"
            "8745a738091a3df3da55d120928ef304"
        ),
        "results": [
            ["linear", 12.1209757029928, 0.31959015591678097, 0.14896478700079224, 0],
            ["hv_log", 12.12097991440574, 0.3195597863599569, 0.1490216117825, 4],
            ["hv_log_norm", 12.12097991440574, 0.3195597863599569, 0.1490216117825, 4],
        ],
        "history": {
            "linear": [
                [1, 1.3791652211704422, 0.40894924060991095, 0.1005355142529683,
                 0.11152083276491963, 0.005, 0.01, 1.0, 0, 0.0001],
                [2, 1.369814406813067, 0.20844955303316923, 0.055525773855308644,
                 0.06445934141970568, 0.005, 0.01, 1.0, 0, 0.0001],
                [3, 1.3853155736632368, 0.2602959026277696, 0.06691314747735304,
                 0.07644268437194691, 0.005, 0.01, 1.0, 0, 0.0001],
                [4, 1.3887662925425708, 0.2312444135638238, 0.06026980831272802,
                 0.06952608391107912, 0.005, 0.01, 1.0, 0, 0.0001],
            ],
            "hv_log": [
                [1, 1.3791652211704422, 0.40894924060991095, 0.1005355142529683,
                 8.598748791416199, 0.05370328515759789, 1000000.0,
                 0.10101556517928537, 1, 0.0001],
                [2, 1.369816332437809, 0.20844833294178025, 0.05552542173033925,
                 8.593710436543324, 0.053676336092227724, 1000000.0,
                 0.10055835450423566, 1, 0.0001],
                [3, 1.385317740399921, 0.2602991665340697, 0.06691435059111651,
                 8.595688749927998, 0.05372103515139367, 1000000.0,
                 0.10067365119916286, 1, 0.0001],
                [4, 1.3887696899448851, 0.23124170834698676, 0.06026933427802487,
                 8.595205455038949, 0.05373099915161056, 1000000.0,
                 0.10060634776036607, 1, 0.0001],
            ],
            "hv_log_norm": [
                [1, 1.3791652211704422, 0.40894924060991095, 0.1005355142529683,
                 13.897066157964234, 0.05370328515759789, 1000000.0,
                 0.10101556517928537, 1, 0.0001],
                [2, 1.369816332437809, 0.20844833294178025, 0.05552542173033925,
                 13.89202780309136, 0.053676336092227724, 1000000.0,
                 0.10055835450423566, 1, 0.0001],
                [3, 1.385317740399921, 0.2602991665340697, 0.06691435059111651,
                 13.894006116476033, 0.05372103515139367, 1000000.0,
                 0.10067365119916286, 1, 0.0001],
                [4, 1.3887696899448851, 0.23124170834698676, 0.06026933427802487,
                 13.893522821586986, 0.05373099915161056, 1000000.0,
                 0.10060634776036607, 1, 0.0001],
            ],
        },
        "norms": [
            ("g.conv1.w", 3.8404786738703787),
            ("g.conv1.b", 0.0009300567847932782),
            ("g.conv2.w", 4.009221384449033),
            ("g.conv2.b", 0.0007867480095672674),
            ("g.conv3.w", 3.9749184218069162),
            ("g.conv3.b", 0.000769672368804063),
            ("g.conv4.w", 0.9320644749883994),
            ("g.conv4.b", 0.00017683589053718512),
            ("d.conv1.w", 2.899319699142186),
            ("d.conv1.b", 0.0),
            ("d.conv2.w", 3.9825096809331337),
            ("d.conv2.b", 0.0),
            ("d.fc.w", 0.771912068244514),
            ("d.fc.b", 0.0),
        ],
    },
    "standard": {
        "config": {"adversarial": "standard"},
        "sha256": (
            "340b218584c613da77fe8779b8de4493"
            "8745a738091a3df3da55d120928ef304"
        ),
        "results": [
            ["linear", 12.121065348700526, 0.3195899664937877, 0.14896227567768422, 0],
            ["hv_log", 12.120979914734011, 0.31955978637117294, 0.14902161179231824,
             4],
            ["hv_log_norm", 12.120979914734011, 0.31955978637117294,
             0.14902161179231824, 4],
        ],
        "history": {
            "linear": [
                [1, 0.7286166403841816, 0.40894924060991095, 0.1005355142529683,
                 0.10826808986098832, 0.005, 0.01, 1.0, 0, 0.0001],
                [2, 0.7264237209782813, 0.20844854055565923, 0.055525485722018986,
                 0.06124208973246698, 0.005, 0.01, 1.0, 0, 0.0001],
                [3, 0.7258256127552976, 0.26029605155980673, 0.06691319985799671,
                 0.07314528843737127, 0.005, 0.01, 1.0, 0, 0.0001],
                [4, 0.7247336736043165, 0.23124408761282933, 0.06026969603741545,
                 0.06620580528156533, 0.005, 0.01, 1.0, 0, 0.0001],
            ],
            "hv_log": [
                [1, 0.7286166403841816, 0.40894924060991095, 0.1005355142529683,
                 6.228362263478283, 0.00501828201892565, 1000000.0,
                 0.10101556517928537, 1, 0.0001],
                [2, 0.7264244817522183, 0.20844833294178025, 0.05552542173033925,
                 6.2238148478402024, 0.005018226814063606, 1000000.0,
                 0.10055835450423566, 1, 0.0001],
                [3, 0.7258264324035812, 0.26029916653410723, 0.06691435059115156,
                 6.2249577549453825, 0.005018211753671064, 1000000.0,
                 0.1006736511991632, 1, 0.0001],
                [4, 0.7247350870992315, 0.23124170834507732, 0.06026933427750217,
                 6.224283523970046, 0.005018184271073883, 1000000.0,
                 0.10060634776036077, 1, 0.0001],
            ],
            "hv_log_norm": [
                [1, 0.7286166403841816, 0.40894924060991095, 0.1005355142529683,
                 13.829264723020364, 0.00501828201892565, 1000000.0,
                 0.10101556517928537, 1, 0.0001],
                [2, 0.7264244817522183, 0.20844833294178025, 0.05552542173033925,
                 13.824717307382285, 0.005018226814063606, 1000000.0,
                 0.10055835450423566, 1, 0.0001],
                [3, 0.7258264324035812, 0.26029916653410723, 0.06691435059115156,
                 13.825860214487465, 0.005018211753671064, 1000000.0,
                 0.1006736511991632, 1, 0.0001],
                [4, 0.7247350870992315, 0.23124170834507732, 0.06026933427750217,
                 13.825185983512126, 0.005018184271073883, 1000000.0,
                 0.10060634776036077, 1, 0.0001],
            ],
        },
        "norms": [
            ("g.conv1.w", 3.8404786738703787),
            ("g.conv1.b", 0.0009300567847932782),
            ("g.conv2.w", 4.009221384449033),
            ("g.conv2.b", 0.0007867480095672674),
            ("g.conv3.w", 3.9749184218069162),
            ("g.conv3.b", 0.000769672368804063),
            ("g.conv4.w", 0.9320644749883994),
            ("g.conv4.b", 0.00017683589053718512),
            ("d.conv1.w", 2.899319699142186),
            ("d.conv1.b", 0.0),
            ("d.conv2.w", 3.9825096809331337),
            ("d.conv2.b", 0.0),
            ("d.fc.w", 0.771912068244514),
            ("d.fc.b", 0.0),
        ],
    },
}


def _train_tiny(root, corpus):
    """The test_determinism tiny config on ``corpus``, trained once."""
    cfg = {
        "dataset": str(corpus), "output_dir": str(root / "run"),
        "seed": 0, "pretrain_iters": 3, "adversarial_iters": 4,
        "batch_size": 2, "patch_size": 8, "lr": 1e-3,
        "lr_milestones": [3], "gen_width": 4, "disc_width": 4,
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return root / "run"


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_corpus(root / "corpus", seed=0, count=2, size=24)
    return _train_tiny(root, root / "corpus")


@pytest.fixture(scope="module")
def rgb_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_rgb")
    corpus = root / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(RGB_CORPUS_SEED)
    for k in range(2):
        save_image(ImageBuffer(rng.uniform(size=(3, 24, 24))), corpus / f"rgb{k}.ppm")
    return _train_tiny(root, corpus)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _assert_csv_rows(path, header, rows):
    got_header, got_rows = _read_csv(path)
    assert got_header == header
    assert len(got_rows) == len(rows)
    for got, want in zip(got_rows, rows):
        assert got == pytest.approx(want, rel=REL, abs=0)


def _assert_norms(path, norms):
    state = model.load_checkpoint(path)
    assert list(state) == [name for name, _ in norms]
    for name, want in norms:
        got = float(np.linalg.norm(state[name]))
        assert got == pytest.approx(want, rel=REL, abs=0), name


@pytest.mark.parametrize(
    "name, header, rows",
    [
        ("pretrain.csv", PRETRAIN_HEADER, PRETRAIN_ROWS),
        ("history.csv", HISTORY_HEADER, HISTORY_ROWS),
    ],
    ids=["pretrain", "history"],
)
def test_training_csv_matches_pinned_values(tiny_run, name, header, rows):
    _assert_csv_rows(tiny_run / name, header, rows)


def test_checkpoint_norms_match_pinned_values(tiny_run):
    _assert_norms(tiny_run / "checkpoint.hvgn", CHECKPOINT_NORMS)


@pytest.mark.parametrize(
    "name, header, rows",
    [
        ("pretrain.csv", PRETRAIN_HEADER, RGB_PRETRAIN_ROWS),
        ("history.csv", HISTORY_HEADER, RGB_HISTORY_ROWS),
    ],
    ids=["pretrain", "history"],
)
def test_rgb_training_csv_matches_pinned_values(rgb_run, name, header, rows):
    _assert_csv_rows(rgb_run / name, header, rows)


def test_rgb_checkpoint_norms_match_pinned_values(rgb_run):
    _assert_norms(rgb_run / "checkpoint.hvgn", RGB_CHECKPOINT_NORMS)


@pytest.fixture(scope="module")
def tiny_compare(tmp_path_factory):
    """The compare_run config of tests/test_cli.py, compared once."""
    root = tmp_path_factory.mktemp("golden_compare")
    corpus = root / "corpus"
    write_corpus(corpus, seed=0, count=2, size=24)
    eval_img = root / "eval.pgm"
    pixels = np.random.default_rng(132).integers(0, 256, size=(16, 16))
    eval_img.write_bytes(b"P5\n16 16\n255\n" + pixels.astype(np.uint8).tobytes())
    cfg = {
        "dataset": str(corpus), "output_dir": str(root / "out"),
        "seed": 0, "pretrain_iters": 2, "adversarial_iters": 2,
        "batch_size": 2, "patch_size": 8, "lr": 1e-3,
        "lr_milestones": [2], "gen_width": 4, "disc_width": 4,
        "eval_list": [str(eval_img)],
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["compare", "--config", str(cfg_path)]) == 0
    return root / "out"


def _assert_results(path, results):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mode", "psnr", "ssim", "gmsd", "clamp_events"]
    assert len(rows) - 1 == len(results)
    for got, want in zip(rows[1:], results):
        assert got[0] == want[0]
        assert [float(v) for v in got[1:4]] == pytest.approx(want[1:4], rel=REL, abs=0)
        assert int(got[4]) == want[4]


def test_compare_results_match_pinned_values(tiny_compare):
    _assert_results(tiny_compare / "results.csv", COMPARE_RESULTS)


@pytest.mark.parametrize("mode", sorted(COMPARE_HISTORY))
def test_compare_history_matches_pinned_values(tiny_compare, mode):
    _assert_csv_rows(
        tiny_compare / mode / "history.csv", HISTORY_HEADER, COMPARE_HISTORY[mode]
    )


def test_pretrained_checkpoint_norms_match_pinned_values(tiny_compare):
    _assert_norms(tiny_compare / "pretrained.hvgn", PRETRAINED_NORMS)


@pytest.mark.parametrize("dim", [3, 6])
def test_hv_mc_stdout_is_pinned(tmp_path, dim):
    pts = tmp_path / f"p{dim}.csv"
    pts.write_text(POINTS[dim])
    ref = ",".join(["1"] * dim)
    proc = subprocess.run(
        [sys.executable, "-m", "hvgan", "hv", str(pts), "--ref", ref,
         "--mc", "20000", "--seed", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == HV_STDOUT[dim]


@pytest.mark.parametrize("name, orient", sorted(PARETO_STDOUT))
def test_pareto_stdout_is_pinned(tmp_path, name, orient):
    if name == "5d_grid":
        text = "".join(",".join(map(str, row)) + "\n" for row in HV_SET_5D_GRID)
    else:
        text = POINTS[int(name[0])]
    pts = tmp_path / f"{name}.csv"
    pts.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "hvgan", "pareto", str(pts), "--orient", orient],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == PARETO_STDOUT[name, orient]


@pytest.mark.parametrize("name", sorted(HV_EXACT_HEX))
def test_hv_exact_is_bit_identical(name):
    rows, ref, want = HV_EXACT_HEX[name]
    points = PointSet(rows, Orientation.MINIMIZE)
    got = hypervolume_exact(points, (ref,) * len(rows[0]))
    assert float.hex(got) == want


def _eval_images(name):
    """The (ref, test) images of one EVAL_STDOUT case."""
    rng = np.random.default_rng(1801)
    if name == "synth_pair":
        return make_image(0, 0), make_image(0, 3)
    if name == "synth_noisy":
        ref = make_image(0, 1)
        noisy = ref.data + rng.normal(0.0, 0.05, size=ref.data.shape)
        return ref, ImageBuffer(np.clip(noisy, 0.0, 1.0))
    if name == "identical":
        return make_image(0, 2), make_image(0, 2)
    shape = {"rgb_ppm": (3, 40, 52), "non_square": (1, 28, 45)}[name]
    ref = rng.uniform(size=shape)
    noisy = ref + rng.normal(0.0, 0.1, size=shape)
    return ImageBuffer(ref), ImageBuffer(np.clip(noisy, 0.0, 1.0))


@pytest.mark.parametrize("name", sorted(EVAL_STDOUT))
def test_eval_stdout_is_pinned(tmp_path, capsys, name):
    args = ["eval"]
    for role, img in zip(("ref", "test"), _eval_images(name)):
        path = tmp_path / f"{role}.{'ppm' if img.channels == 3 else 'pgm'}"
        save_image(img, path)
        args += [f"--{role}", str(path)]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == EVAL_STDOUT[name]


def test_gradcheck_stdout_is_pinned(capsys):
    assert cli.main(["gradcheck"]) == 0
    assert capsys.readouterr().out == GRADCHECK_STDOUT


@pytest.fixture(scope="module")
def default_shape_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("golden_default_shape") / "corpus"
    write_corpus(corpus, seed=3, count=8, size=64)
    return corpus


def _run_default_shape(root, corpus, command, overrides):
    cfg = {
        "dataset": str(corpus), "output_dir": str(root / "out"),
        "pretrain_iters": 4, "adversarial_iters": 4, **overrides,
    }
    if command == "compare":
        cfg["eval_list"] = [str(corpus / "img_000.pgm"), str(corpus / "img_001.pgm")]
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(cfg_path)]) == 0
    return root / "out"


@pytest.mark.parametrize("name", sorted(DEFAULT_SHAPE_TRAIN))
def test_default_shape_train_matches_pinned_values(tmp_path, default_shape_corpus, name):
    want = DEFAULT_SHAPE_TRAIN[name]
    out = _run_default_shape(tmp_path, default_shape_corpus, "train", want["config"])
    norm_p = want["config"].get("norm_p", 1)
    _assert_csv_rows(out / "pretrain.csv", PRETRAIN_HEADER, DEFAULT_SHAPE_PRETRAIN[norm_p])
    _assert_csv_rows(out / "history.csv", HISTORY_HEADER, want["history"])
    _assert_norms(out / "checkpoint.hvgn", want["norms"])


@pytest.mark.parametrize("name", sorted(DEFAULT_SHAPE_COMPARE))
def test_default_shape_compare_matches_pinned_values(
    tmp_path, capsys, default_shape_corpus, name
):
    want = DEFAULT_SHAPE_COMPARE[name]
    out = _run_default_shape(tmp_path, default_shape_corpus, "compare", want["config"])
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"pretrained checkpoint sha256 {want['sha256']}"
    _assert_csv_rows(out / "pretrain.csv", PRETRAIN_HEADER, DEFAULT_SHAPE_PRETRAIN[1])
    _assert_results(out / "results.csv", want["results"])
    for mode, rows in want["history"].items():
        _assert_csv_rows(out / mode / "history.csv", HISTORY_HEADER, rows)
    _assert_norms(out / "pretrained.hvgn", want["norms"])
