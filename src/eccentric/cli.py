"""Command-line entry point exposing every capability as a subcommand.

Every run takes its configuration from flags; an optional flat key=value
config file is read as flags placed before the command line, so the flags
win.  It executes deterministically from --seed, writes its outputs plus a
manifest with content hashes into --out-dir, and exits 0 on success, 1 on a
validation error, 2 on a numerical failure: any FloatingPointError, which
includes numpy's overflow, invalid value or division by zero anywhere in a
subcommand's computation.  A failed computation writes no file.  Library
functions keep their own guards where they expect such values.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import analysis, autoencoder, datasets, io, particles, radius
from .kernel import ParamSet, PointBatch, choose_big_n

__all__ = ["main", "run", "load_config"]


def load_config(path) -> dict[str, str]:
    """Parse a flat key=value config file ('#' comments, last duplicate wins)."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            print(f"warning: duplicate key {key!r} in {path}, last occurrence wins",
                  file=sys.stderr)
        values[key] = value.strip()
    return values


def _config_argv(path, defaults: dict) -> list[str]:
    """A config file's lines as --key=value tokens for the subcommand's parser."""
    argv = []
    for key, value in load_config(path).items():
        if key not in defaults:
            raise ValueError(f"{path}: unknown config key {key!r} for this subcommand")
        flag = "--" + key.replace("_", "-")
        if not isinstance(defaults[key], bool):
            argv.append(f"{flag}={value}")  # one token: a value may start with '-'
        elif value.lower() in ("1", "true", "yes"):
            argv.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            raise ValueError(f"{path}: {key} expects true/1/yes or false/0/no, got {value!r}")
    return argv


def _resolve_big_n(cfg, dim: int) -> float:
    if cfg["auto_n"]:
        if cfg["big_n"] > 0:
            raise ValueError("pass either --big-n or --auto-n, not both")
        return choose_big_n(dim, cfg["mu"])
    if not cfg["big_n"] > 0:
        raise ValueError("either --big-n > 0 or --auto-n is required")
    return cfg["big_n"]


def _check_out(name: str) -> None:
    """--out names a file inside --out-dir: the manifest and --verify key outputs by name."""
    if Path(name).name != name or name in ("", ".", "..", io.MANIFEST_NAME):
        raise ValueError(
            f"--out must be a bare file name other than {io.MANIFEST_NAME}, got {name!r}")


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers; "" is the empty list, an empty entry is an error."""
    try:
        return [int(v) for v in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _net_specs(sizes: list[int], latent: int, width: int):
    """Encoder width -> hidden sizes -> latent and decoder latent -> sizes -> width."""
    acts = ("leaky-relu",) * len(sizes)
    return (autoencoder.DenseNetSpec((width, *sizes, latent), acts + ("identity",)),
            autoencoder.DenseNetSpec((latent, *sizes, width), acts + ("sigmoid",)))


def _load_cli_dataset(cfg) -> PointBatch:
    name = cfg["dataset"]
    if name == "idx":
        if not cfg["images"] or not cfg["labels"]:
            raise ValueError("dataset 'idx' requires --images and --labels")
        return datasets.load_idx_pair(cfg["images"], cfg["labels"])
    if name not in datasets.GENERATORS:
        raise ValueError(f"unknown dataset {name!r}; expected one of "
                         f"{sorted(datasets.GENERATORS)} or 'idx'")
    return datasets.GENERATORS[name](n=cfg["data_n"], seed=cfg["data_seed"])


def _read_embedding(path) -> PointBatch:
    """An embedding CSV as a batch, with its label column if it has one."""
    coords, labels = io.read_embedding_csv(path)
    try:
        return PointBatch(coords, labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers: each checks its flags, computes, and returns its outputs
# as {file name: (writer, *args)}; _run_handler calls writer(path, *args)


def _cmd_solve_radius(cfg):
    big_n = _resolve_big_n(cfg, cfg["dim"])
    sol = radius.solve_radius(cfg["dim"], cfg["mu"], big_n)
    print(f"rho = {sol.rho:.17g} (residual {sol.residual:.3e})")
    return {"radius.json": (io.write_json, {
        "dim": cfg["dim"], "mu": cfg["mu"], "big_n": big_n,
        "rho": sol.rho, "residual": sol.residual,
        "iterations": sol.iterations, "quadrature_points": sol.quadrature_points,
    })}


def _cmd_sweep_radius(cfg):
    rows = radius.sweep_radius(_parse_int_list(cfg["dims"], "--dims"), mu_step=cfg["mu_step"])
    return {cfg["out"]: (io.write_csv, ["d", "max_percent_diff"], rows)}


def _cmd_force_profile(cfg):
    big_n = _resolve_big_n(cfg, cfg["dim"])
    params = ParamSet(dim=cfg["dim"], mu=cfg["mu"], big_n=big_n)
    prof = radius.force_profile(params, cfg["r_max"], cfg["steps"])
    return {cfg["out"]: (io.write_csv, ["distance", "magnitude"],
                         zip(prof.distances, prof.magnitudes))}


def _cmd_lemma_check(cfg):
    payload = {"dim": cfg["dim"], "a": cfg["a"],
               "lemma_a_integral": radius.lemma_a_check(cfg["dim"], cfg["a"])}
    if cfg["dim"] >= 4:
        payload["lemma_b_u_closed_form"] = radius.lemma_b_argmax(cfg["dim"], cfg["a"])
        payload["lemma_b_u_numeric"] = radius.lemma_b_argmax_numeric(cfg["dim"], cfg["a"])
    return {"lemma.json": (io.write_json, payload)}


def _cmd_simulate(cfg):
    big_n = _resolve_big_n(cfg, cfg["dim"])
    params = ParamSet(dim=cfg["dim"], mu=cfg["mu"], big_n=big_n)
    rep = particles.simulate(particles.SimConfig(
        params=params, count=cfg["count"], steps=cfg["steps"], step_size=cfg["step_size"],
        seed=cfg["seed"], init_scale=cfg["init_scale"]))
    return {
        "points.csv": (io.write_embedding_csv, rep.final_batch.data),
        "loss_trace.csv": (io.write_csv, ["record", "loss"], list(enumerate(rep.loss_trace))),
        "simulate.json": (io.write_json, {
            "radial_mean": rep.radial_mean, "radial_std": rep.radial_std,
            "trace": rep.spectrum.trace,
            "eigenvalues": [float(v) for v in rep.spectrum.eigenvalues],
        }),
    }


def _cmd_train(cfg):
    sizes = _parse_int_list(cfg["hidden"], "--hidden")
    ds = _load_cli_dataset(cfg)
    big_n = _resolve_big_n(cfg, cfg["latent_dim"])
    enc_spec, dec_spec = _net_specs(sizes, cfg["latent_dim"], ds.dim)
    params = ParamSet(dim=cfg["latent_dim"], mu=cfg["mu"], big_n=big_n, lam=cfg["lam"])
    rep = autoencoder.train(autoencoder.TrainConfig(
        encoder=enc_spec, decoder=dec_spec, params=params, batch_size=cfg["batch_size"],
        epochs=cfg["epochs"], learning_rate=cfg["learning_rate"],
        weight_decay=cfg["weight_decay"], seed=cfg["seed"]), ds)
    return {
        "encoder.bin": (functools.partial(autoencoder.save_checkpoint, rep.encoder),),
        "decoder.bin": (functools.partial(autoencoder.save_checkpoint, rep.decoder),),
        "traces.csv": (io.write_csv, ["epoch", "recon", "reg"],
                       [(i, *rg) for i, rg in enumerate(zip(rep.recon_trace, rep.reg_trace))]),
        "embedding.csv": (io.write_embedding_csv, rep.embedding.data, rep.embedding.labels),
    }


def _cmd_encode(cfg):
    sizes = _parse_int_list(cfg["hidden"], "--hidden")
    if cfg["dataset"] != "idx" and cfg["data_n"] < 1:
        raise ValueError(f"--data-n must be >= 1, got {cfg['data_n']}")
    if not cfg["checkpoint"]:
        raise ValueError("encode requires --checkpoint")
    ds = _load_cli_dataset(cfg)
    enc_spec, _ = _net_specs(sizes, cfg["latent_dim"], ds.dim)
    net = autoencoder.load_checkpoint(cfg["checkpoint"], enc_spec)
    batch = autoencoder.encode_dataset(net, ds)
    return {"embedding.csv": (io.write_embedding_csv, batch.data, batch.labels)}


def _cmd_spectrum(cfg):
    rep = analysis.spectrum(_read_embedding(cfg["input"]))
    return {"spectrum.json": (io.write_json, {
        "eigenvalues": [float(v) for v in rep.eigenvalues],
        "trace": rep.trace,
        "mean": [float(v) for v in rep.mean],
    })}


def _cmd_align(cfg):
    res = analysis.align(_read_embedding(cfg["e1"]), _read_embedding(cfg["e2"]))
    header = [f"q{j}" for j in range(res.corr_before.shape[1])]
    return {
        "aligned_e1.csv": (io.write_embedding_csv, res.aligned_p.data),
        "aligned_e2.csv": (io.write_embedding_csv, res.aligned_q.data),
        "corr_before.csv": (io.write_csv, header, res.corr_before),
        "corr_after.csv": (io.write_csv, header, res.corr_after),
        "align.json": (io.write_json, {
            key: [int(v) for v in getattr(res, key)]
            for key in ("permutation_p", "permutation_q", "signs_p", "signs_q")}),
    }


def _cmd_metrics(cfg):
    m = analysis.similarity_metrics(_read_embedding(cfg["e1"]), _read_embedding(cfg["e2"]))
    return {"metrics.json": (io.write_json, {
        "rms_distance": m.rms_distance, "mean_cosine": m.mean_cosine,
        "mean_angle_deg": m.mean_angle_deg, "excluded_rows": m.excluded_rows,
    })}


def _cmd_sample(cfg):
    reference = None
    if cfg["mode"] == "matched":
        if not cfg["reference"]:
            raise ValueError("matched mode requires --reference")
        reference = _read_embedding(cfg["reference"])
    batch = analysis.sample_latents(cfg["mode"], reference, cfg["n"], cfg["dim"],
                                    cfg["seed"])
    return {"sample.csv": (io.write_embedding_csv, batch.data)}


def _cmd_knn(cfg):
    train, test = _read_embedding(cfg["train"]), _read_embedding(cfg["test"])
    if train.labels is None:
        raise ValueError("--train file must carry a label column")
    preds, error = analysis.knn_classify(train.data, train.labels, test.data, cfg["k"],
                                         test.labels)
    return {"predictions.csv": (io.write_csv, ["item", "label"], list(enumerate(preds))),
            "knn.json": (io.write_json, {"k": cfg["k"], "error_rate": error})}


def _cmd_decode_components(cfg):
    sizes = _parse_int_list(cfg["hidden"], "--hidden")
    if not cfg["checkpoint"]:
        raise ValueError("decode-components requires --checkpoint")
    rep = analysis.spectrum(_read_embedding(cfg["input"]))
    _, dec_spec = _net_specs(sizes, rep.eigenvalues.shape[0], cfg["output_width"])
    net = autoencoder.load_checkpoint(cfg["checkpoint"], dec_spec)
    comps = analysis.decode_eigen_components(net.forward, rep, cfg["scale"])
    rows = [[k, sign, *row] for k, pair in enumerate(comps)
            for sign, row in zip((1, -1), pair)]
    return {"components.csv": (
        io.write_csv, ["component", "sign"] + [f"o{i}" for i in range(comps.shape[2])], rows)}


_COMMANDS = {
    "solve-radius": (_cmd_solve_radius, {
        "dim": 0, "mu": 0.0, "big_n": 0.0, "auto_n": False}),
    "sweep-radius": (_cmd_sweep_radius, {
        "dims": "", "mu_step": 0.25, "out": "sweep.csv"}),
    "force-profile": (_cmd_force_profile, {
        "dim": 2, "mu": 0.0, "big_n": 0.0, "auto_n": False, "r_max": 0.0,
        "steps": 0, "out": "force_profile.csv"}),
    "lemma-check": (_cmd_lemma_check, {"dim": 0, "a": 0.0}),
    "simulate": (_cmd_simulate, {
        "dim": 0, "mu": 0.0, "big_n": 0.0, "auto_n": False, "count": 0,
        "steps": 0, "step_size": 0.0, "seed": 0, "init_scale": 0.01}),
    "train": (_cmd_train, {
        "dataset": "noisy-ring", "data_n": 400, "data_seed": 0, "images": "",
        "labels": "", "latent_dim": 2, "lam": 0.1, "mu": 1.0, "big_n": 0.0,
        "auto_n": False, "batch_size": 100, "epochs": 1, "learning_rate": 1e-4,
        "weight_decay": 1e-6, "seed": 0, "hidden": "32,32"}),
    "encode": (_cmd_encode, {
        "dataset": "noisy-ring", "data_n": 400, "data_seed": 0, "images": "",
        "labels": "", "latent_dim": 2, "hidden": "32,32", "checkpoint": ""}),
    "spectrum": (_cmd_spectrum, {"input": ""}),
    "align": (_cmd_align, {"e1": "", "e2": ""}),
    "metrics": (_cmd_metrics, {"e1": "", "e2": ""}),
    "sample": (_cmd_sample, {
        "mode": "standard", "reference": "", "n": 0, "dim": 0, "seed": 0}),
    "knn": (_cmd_knn, {"train": "", "test": "", "k": 1}),
    "decode-components": (_cmd_decode_components, {
        "input": "", "checkpoint": "", "hidden": "32,32", "output_width": 2,
        "scale": 1.0}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eccentric",
        description="Hyperspherical latent regularization toolkit")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, defaults) in _COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="flat key=value config file (flags override it)")
        sub.add_argument("--out-dir", default=".", help="output directory (default .)")
        sub.add_argument("--verify", action="store_true",
                         help="re-run and compare output hashes with the stored manifest")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                sub.add_argument(flag, action="store_true")
            else:
                sub.add_argument(flag, type=type(default), default=default)
    return parser


def _run_handler(handler, cfg, out_dir: Path) -> list[Path]:
    """Compute a subcommand's outputs with numpy's errors raised, then write them."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        outputs = handler(cfg)
    for name, (writer, *args) in outputs.items():
        writer(out_dir / name, *args)
    return [out_dir / name for name in outputs]


def run(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        handler, defaults = _COMMANDS[args.command]
        if args.config:
            # the file's tokens go right after the command name; a later flag wins
            cut = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:cut] + _config_argv(args.config, defaults) + argv[cut:])
        cfg = {key: getattr(args, key) for key in defaults}
        if "out" in cfg:
            _check_out(cfg["out"])
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.verify:
            if not (out_dir / io.MANIFEST_NAME).exists():
                raise ValueError(f"--verify: no manifest in {out_dir}")
            # re-run into a scratch directory so the checked run is never touched
            with tempfile.TemporaryDirectory() as scratch:
                shutil.copy(out_dir / io.MANIFEST_NAME, scratch)
                _run_handler(handler, cfg, Path(scratch))
                bad = io.verify_manifest(scratch)
            if bad:
                print(f"verify: output hashes differ from stored manifest: {', '.join(bad)}",
                      file=sys.stderr)
                return 1
            print("verify: outputs match stored manifest")
            return 0
        io.write_manifest(out_dir, args.command, cfg, _run_handler(handler, cfg, out_dir))
        return 0
    except SystemExit as exc:  # argparse: a bad flag or file value, or --help
        return 1 if exc.code not in (0, None) else 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
