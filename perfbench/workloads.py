"""Seeded inputs and command plans for the four benchmark workloads.

Each workload is a fixed sequence of ``eccentric`` CLI commands (one *pass*)
that the load process repeats in a closed loop.  Paths inside a plan are
relative: the load process runs each phase (warm-up, untraced, traced) from
its own directory under the work directory, so the resolved configs, and
therefore the manifests, are identical across phases.  Inputs live in
``../inputs``.

Inputs are derived from ``--seed`` and generation is never timed, with one
exception.  ``jacobi_eigh`` fails its convergence test on about one random
covariance in five at d=16, 64 and 128 (its off-diagonal norm is the
difference of two nearly equal sums); it then runs all 100 sweeps and emits
~10^4 overflow warnings, which costs 50x the time at d=64.  Seeded Jacobi
inputs would split the figures into two modes across seeds, so the
matrices it receives on flow and analyze are the same for every seed:

* flow simulates from seed 6, the first seed whose b=2048 cloud takes the
  non-converging path, so the defect and its warnings show on every run
  at a cost of ~0.2 s per pass;
* analyze draws its training rows and its d=128 reference from a fixed
  stream (``default_rng(0)``); neither takes the slow path.

The seed still drives the theory grid, the training runs, the IDX images,
and the analyze test rows, permutation, noise and sampler.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Dimensions of the theory grid and of the sweep; the sweep dimensions and
# their maximum-deviation thresholds are those of acceptance criterion 1.
THEORY_DIMS = (4, 12, 38, 117)
SOLVES_PER_DIM = 6
SWEEP_DIMS = (12, 38, 117)
SWEEP_MU_STEP = 16.0
SWEEP_THRESHOLDS = {12: 0.1, 38: 0.01, 117: 0.001}

FLOW_DIM = 16
FLOW_SIZES = {512: 120, 2048: 12}  # particle count -> descent steps
FLOW_SEED = 6  # see the module docstring

RING_ITEMS = 400
RING_EPOCHS = 100
IDX_ITEMS = 500
IDX_SIDE = 8
IDX_CLASSES = 10
IDX_LATENT = 8
IDX_EPOCHS = 60
HIDDEN = "32,32"

EMB_DIM = 64
EMB_TRAIN = 5000
EMB_TEST = 2000
EMB_CLASSES = 10
REF_DIM = 128
REF_ROWS = 2000
SAMPLE_N = 2000
KNN_K = 5

NAMES = ("theory", "flow", "train", "analyze")


@dataclass
class Plan:
    """One workload: its pass, the kinds of its two headline commands, its inputs."""

    name: str
    commands: list = field(default_factory=list)  # [(kind, argv)]
    primary: str = ""
    secondary: str = ""
    data: dict = field(default_factory=dict)      # generated arrays and params


def _f(x: float) -> str:
    return repr(float(x))


def write_embedding(path: Path, coords: np.ndarray, labels=None):
    """Write coordinates in the program's CSV layout with 17 significant digits."""
    header = ",".join([f"c{i}" for i in range(coords.shape[1])]
                      + (["label"] if labels is not None else []))
    fmt = ["%.17g"] * coords.shape[1]
    table = coords
    if labels is not None:
        table = np.column_stack([coords, labels])
        fmt = fmt + ["%d"]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


def write_idx(images_path: Path, labels_path: Path, images: np.ndarray, labels: np.ndarray):
    count, rows, cols = images.shape
    images_path.write_bytes(struct.pack(">iiii", 0x00000803, count, rows, cols)
                            + images.astype(np.uint8).tobytes())
    labels_path.write_bytes(struct.pack(">ii", 0x00000801, count)
                            + labels.astype(np.uint8).tobytes())


def _theory(rng, plan: Plan):
    grid = []
    for d in THEORY_DIMS:
        # stratified mu over the calibrated range [1, 2d+1]
        u = rng.random(SOLVES_PER_DIM)
        for k in range(SOLVES_PER_DIM):
            grid.append((d, 1.0 + 2.0 * d * (k + u[k]) / SOLVES_PER_DIM))
    plan.data["grid"] = grid
    for i, (d, mu) in enumerate(grid):
        plan.commands.append(("solve", [
            "solve-radius", "--dim", str(d), "--mu", _f(mu), "--auto-n",
            "--out-dir", f"solve/{i:02d}"]))
    plan.commands.append(("sweep", [
        "sweep-radius", "--dims", ",".join(map(str, SWEEP_DIMS)),
        "--mu-step", _f(SWEEP_MU_STEP), "--out-dir", "sweep"]))
    plan.primary, plan.secondary = "solve", "sweep"


def _flow(plan: Plan):
    for count, steps in FLOW_SIZES.items():
        plan.commands.append((f"simulate.b{count}", [
            "simulate", "--dim", str(FLOW_DIM), "--mu", "1.0", "--auto-n",
            "--count", str(count), "--steps", str(steps), "--step-size", "0.2",
            "--init-scale", "1.0", "--seed", str(FLOW_SEED), "--out-dir", f"b{count}"]))
    plan.primary, plan.secondary = "simulate.b512", "simulate.b2048"


def _idx_images(rng):
    protos = rng.uniform(0.0, 255.0, (IDX_CLASSES, IDX_SIDE, IDX_SIDE))
    labels = np.arange(IDX_ITEMS) % IDX_CLASSES
    rng.shuffle(labels)
    noisy = protos[labels] + rng.normal(0.0, 40.0, (IDX_ITEMS, IDX_SIDE, IDX_SIDE))
    return np.clip(np.rint(noisy), 0, 255).astype(np.uint8), labels


def _train(rng, plan: Plan, inputs: Path):
    data_seed = int(rng.integers(0, 2**31 - 1))
    seeds = [int(v) for v in rng.integers(0, 2**31 - 1, 2)]
    images, labels = _idx_images(rng)
    write_idx(inputs / "images.idx", inputs / "labels.idx", images, labels)
    plan.data.update(data_seed=data_seed, seeds=seeds, images=images, labels=labels,
                     opt_steps={"train.ring": RING_EPOCHS * (RING_ITEMS // 100),
                                "train.idx": IDX_EPOCHS * (IDX_ITEMS // 100)})
    common = ["--lam", "0.1", "--mu", "1.0", "--auto-n", "--batch-size", "100",
              "--learning-rate", "3e-3", "--hidden", HIDDEN]
    ring = ["--dataset", "noisy-ring", "--data-n", str(RING_ITEMS),
            "--data-seed", str(data_seed), "--latent-dim", "2"]
    idx = ["--dataset", "idx", "--images", "../inputs/images.idx",
           "--labels", "../inputs/labels.idx", "--latent-dim", str(IDX_LATENT)]
    for tag, src, epochs, seed, width in (("ring", ring, RING_EPOCHS, seeds[0], 2),
                                           ("idx", idx, IDX_EPOCHS, seeds[1],
                                            IDX_SIDE * IDX_SIDE)):
        plan.commands += [
            (f"train.{tag}", ["train", *src, *common, "--epochs", str(epochs),
                              "--seed", str(seed), "--out-dir", tag]),
            (f"encode.{tag}", ["encode", *src, "--hidden", HIDDEN,
                               "--checkpoint", f"{tag}/encoder.bin",
                               "--out-dir", f"{tag}-encode"]),
            (f"decode.{tag}", ["decode-components", "--input", f"{tag}/embedding.csv",
                               "--checkpoint", f"{tag}/decoder.bin", "--hidden", HIDDEN,
                               "--output-width", str(width), "--scale", "1.0",
                               "--out-dir", f"{tag}-decode"]),
        ]
    plan.primary, plan.secondary = "train.ring", "train.idx"


def _analyze(rng, plan: Plan, inputs: Path):
    fixed = np.random.default_rng(0)  # Jacobi inputs: see the module docstring
    scale = np.exp(-np.arange(EMB_DIM) / 24.0)
    # overlapping classes: ~25% KNN error, so vote ties and the tie rule occur
    centers = 0.5 * fixed.standard_normal((EMB_CLASSES, EMB_DIM))

    def labeled(gen, n):
        lab = gen.integers(0, EMB_CLASSES, n)
        return (centers[lab] + gen.standard_normal((n, EMB_DIM))) * scale, lab

    train, train_lab = labeled(fixed, EMB_TRAIN)
    mix = fixed.standard_normal((REF_DIM, REF_DIM)) * np.exp(-np.arange(REF_DIM) / 40.0)
    ref = fixed.standard_normal((REF_ROWS, REF_DIM)) @ mix.T + fixed.standard_normal(REF_DIM)
    test, test_lab = labeled(rng, EMB_TEST)
    perm = rng.permutation(EMB_DIM)
    signs = rng.choice([-1.0, 1.0], EMB_DIM)
    copy = test[:, perm] * signs + 0.05 * scale[perm] * rng.standard_normal(test.shape)
    sample_seed = int(rng.integers(0, 2**31 - 1))

    write_embedding(inputs / "train.csv", train, train_lab)
    write_embedding(inputs / "test.csv", test, test_lab)
    write_embedding(inputs / "test_perm.csv", copy)
    write_embedding(inputs / "ref.csv", ref)
    plan.data.update(train=train, train_labels=train_lab, test=test,
                     test_labels=test_lab, copy=copy, ref=ref)

    plan.commands = [
        ("spectrum", ["spectrum", "--input", "../inputs/train.csv", "--out-dir", "spectrum"]),
        ("align", ["align", "--e1", "../inputs/test.csv", "--e2", "../inputs/test_perm.csv",
                   "--out-dir", "align"]),
        ("metrics", ["metrics", "--e1", "align/aligned_e1.csv",
                     "--e2", "align/aligned_e2.csv", "--out-dir", "metrics"]),
        ("knn", ["knn", "--train", "../inputs/train.csv", "--test", "../inputs/test.csv",
                 "--k", str(KNN_K), "--out-dir", "knn"]),
        ("sample", ["sample", "--mode", "matched", "--reference", "../inputs/ref.csv",
                    "--n", str(SAMPLE_N), "--dim", str(REF_DIM), "--seed", str(sample_seed),
                    "--out-dir", "sample"]),
    ]
    plan.primary, plan.secondary = "knn", "sample"


def build(name: str, seed: int, inputs: Path) -> Plan:
    """Generate the inputs of workload ``name`` into ``inputs`` and return its plan."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    plan = Plan(name)
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "theory":
        _theory(rng, plan)
    elif name == "flow":
        _flow(plan)
    elif name == "train":
        _train(rng, plan, inputs)
    else:
        _analyze(rng, plan, inputs)
    return plan
