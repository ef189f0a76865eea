"""Command-line entry point exposing every capability as a subcommand.

Every run takes its configuration from flags; an optional flat key=value
config file is read as flags placed before the command line, so the flags
win.  It executes deterministically from --seed, writes its outputs plus a
manifest with content hashes into --out-dir, and exits 0 on success, 1 on a
validation error, 2 on a numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
import tempfile
from pathlib import Path

from . import analysis, autoencoder, datasets, io, particles, radius
from .kernel import ParamSet, PointBatch

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


def _resolve_big_n(cfg) -> float:
    if cfg["auto_n"]:
        if cfg["big_n"] > 0:
            raise ValueError("pass either --big-n or --auto-n, not both")
        return ParamSet.auto(cfg["dim"], cfg["mu"]).big_n
    if not cfg["big_n"] > 0:
        raise ValueError("either --big-n > 0 or --auto-n is required")
    return cfg["big_n"]


def _out_file(out: Path, name: str) -> Path:
    """--out names a file inside --out-dir: the manifest and --verify key outputs by name."""
    if Path(name).name != name or name in ("", ".", "..", io.MANIFEST_NAME):
        raise ValueError(
            f"--out must be a bare file name other than {io.MANIFEST_NAME}, got {name!r}")
    return out / name


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in str(text).split(",") if v != ""]


def _net_specs(hidden: str, latent: int, width: int):
    """Encoder width -> hidden -> latent and decoder latent -> hidden -> width."""
    sizes = _parse_int_list(hidden)
    acts = ("leaky-relu",) * len(sizes)
    return (autoencoder.DenseNetSpec((width, *sizes, latent), acts + ("identity",)),
            autoencoder.DenseNetSpec((latent, *sizes, width), acts + ("sigmoid",)))


def _load_cli_dataset(cfg) -> datasets.Dataset:
    name = cfg["dataset"]
    if name == "idx":
        if not cfg["images"] or not cfg["labels"]:
            raise ValueError("dataset 'idx' requires --images and --labels")
        return datasets.load_idx_pair(cfg["images"], cfg["labels"])
    return datasets.load_dataset(name, n=cfg["data_n"], seed=cfg["data_seed"])


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (config_for_manifest, output_paths)


def _cmd_solve_radius(cfg, out):
    big_n = _resolve_big_n(cfg)
    sol = radius.solve_radius(cfg["dim"], cfg["mu"], big_n)
    payload = {
        "dim": cfg["dim"], "mu": cfg["mu"], "big_n": big_n,
        "rho": sol.rho, "residual": sol.residual,
        "iterations": sol.iterations, "quadrature_points": sol.quadrature_points,
    }
    path = out / "radius.json"
    io.write_json(path, payload)
    print(f"rho = {sol.rho:.17g} (residual {sol.residual:.3e})")
    return [path]


def _cmd_sweep_radius(cfg, out):
    dims = _parse_int_list(cfg["dims"])
    rows = radius.sweep_radius(dims, mu_step=cfg["mu_step"])
    path = _out_file(out, cfg["out"])
    io.write_csv(path, ["d", "max_percent_diff"], rows)
    return [path]


def _cmd_force_profile(cfg, out):
    big_n = _resolve_big_n(cfg)
    params = ParamSet(dim=cfg["dim"], mu=cfg["mu"], big_n=big_n)
    prof = radius.force_profile(params, cfg["r_max"], cfg["steps"])
    path = _out_file(out, cfg["out"])
    io.write_csv(path, ["distance", "magnitude"],
                 zip(prof.distances, prof.magnitudes))
    return [path]


def _cmd_lemma_check(cfg, out):
    payload = {"dim": cfg["dim"], "a": cfg["a"],
               "lemma_a_integral": radius.lemma_a_check(cfg["dim"], cfg["a"])}
    if cfg["dim"] >= 4:
        payload["lemma_b_u_closed_form"] = radius.lemma_b_argmax(cfg["dim"], cfg["a"])
        payload["lemma_b_u_numeric"] = radius.lemma_b_argmax_numeric(cfg["dim"], cfg["a"])
    path = out / "lemma.json"
    io.write_json(path, payload)
    return [path]


def _cmd_simulate(cfg, out):
    big_n = _resolve_big_n(cfg)
    params = ParamSet(dim=cfg["dim"], mu=cfg["mu"], big_n=big_n)
    sim = particles.SimConfig(params=params, count=cfg["count"], steps=cfg["steps"],
                              step_size=cfg["step_size"], seed=cfg["seed"],
                              init_scale=cfg["init_scale"])
    rep = particles.simulate(sim)
    points_path = out / "points.csv"
    io.write_embedding_csv(points_path, rep.final_batch.data)
    trace_path = out / "loss_trace.csv"
    io.write_csv(trace_path, ["record", "loss"], list(enumerate(rep.loss_trace)))
    report_path = out / "simulate.json"
    io.write_json(report_path, {
        "radial_mean": rep.radial_mean, "radial_std": rep.radial_std,
        "trace": rep.spectrum.trace,
        "eigenvalues": [float(v) for v in rep.spectrum.eigenvalues],
    })
    return [points_path, trace_path, report_path]


def _cmd_train(cfg, out):
    ds = _load_cli_dataset(cfg)
    big_n = _resolve_big_n(cfg | {"dim": cfg["latent_dim"]})
    enc_spec, dec_spec = _net_specs(cfg["hidden"], cfg["latent_dim"], ds.width)
    params = ParamSet(dim=cfg["latent_dim"], mu=cfg["mu"], big_n=big_n, lam=cfg["lam"])
    tc = autoencoder.TrainConfig(
        encoder=enc_spec, decoder=dec_spec, params=params,
        batch_size=cfg["batch_size"], epochs=cfg["epochs"],
        learning_rate=cfg["learning_rate"], weight_decay=cfg["weight_decay"],
        seed=cfg["seed"])
    rep = autoencoder.train(tc, ds)
    enc_path, dec_path = out / "encoder.bin", out / "decoder.bin"
    autoencoder.save_checkpoint(rep.encoder, enc_path)
    autoencoder.save_checkpoint(rep.decoder, dec_path)
    trace_path = out / "traces.csv"
    io.write_csv(trace_path, ["epoch", "recon", "reg"],
                 [(i, r, g) for i, (r, g) in enumerate(zip(rep.recon_trace, rep.reg_trace))])
    emb_path = out / "embedding.csv"
    io.write_embedding_csv(emb_path, rep.embedding.data, ds.labels)
    return [enc_path, dec_path, trace_path, emb_path]


def _cmd_encode(cfg, out):
    ds = _load_cli_dataset(cfg)
    enc_spec, _ = _net_specs(cfg["hidden"], cfg["latent_dim"], ds.width)
    net = autoencoder.load_checkpoint(cfg["checkpoint"], enc_spec)
    batch = autoencoder.encode_dataset(net, ds)
    path = out / "embedding.csv"
    io.write_embedding_csv(path, batch.data, ds.labels)
    return [path]


def _cmd_spectrum(cfg, out):
    coords, _ = io.read_embedding_csv(cfg["input"])
    rep = analysis.spectrum(PointBatch(coords))
    path = out / "spectrum.json"
    io.write_json(path, {
        "eigenvalues": [float(v) for v in rep.eigenvalues],
        "trace": rep.trace,
        "mean": [float(v) for v in rep.mean],
    })
    return [path]


def _cmd_align(cfg, out):
    c1, _ = io.read_embedding_csv(cfg["e1"])
    c2, _ = io.read_embedding_csv(cfg["e2"])
    res = analysis.align(PointBatch(c1), PointBatch(c2))
    paths = []
    for name, coords in [("aligned_e1.csv", res.aligned_p.data),
                         ("aligned_e2.csv", res.aligned_q.data)]:
        io.write_embedding_csv(out / name, coords)
        paths.append(out / name)
    for name, mat in [("corr_before.csv", res.corr_before),
                      ("corr_after.csv", res.corr_after)]:
        io.write_csv(out / name, [f"q{j}" for j in range(mat.shape[1])], mat)
        paths.append(out / name)
    summary = out / "align.json"
    io.write_json(summary, {
        "permutation_p": [int(v) for v in res.permutation_p],
        "permutation_q": [int(v) for v in res.permutation_q],
        "signs_p": [int(v) for v in res.signs_p],
        "signs_q": [int(v) for v in res.signs_q],
    })
    paths.append(summary)
    return paths


def _cmd_metrics(cfg, out):
    c1, _ = io.read_embedding_csv(cfg["e1"])
    c2, _ = io.read_embedding_csv(cfg["e2"])
    m = analysis.similarity_metrics(PointBatch(c1), PointBatch(c2))
    path = out / "metrics.json"
    io.write_json(path, {
        "rms_distance": m.rms_distance, "mean_cosine": m.mean_cosine,
        "mean_angle_deg": m.mean_angle_deg, "excluded_rows": m.excluded_rows,
    })
    return [path]


def _cmd_sample(cfg, out):
    reference = None
    if cfg["mode"] == "matched":
        if not cfg["reference"]:
            raise ValueError("matched mode requires --reference")
        coords, _ = io.read_embedding_csv(cfg["reference"])
        reference = PointBatch(coords)
    batch = analysis.sample_latents(cfg["mode"], reference, cfg["n"], cfg["dim"],
                                    cfg["seed"])
    path = out / "sample.csv"
    io.write_embedding_csv(path, batch.data)
    return [path]


def _cmd_knn(cfg, out):
    train_coords, train_labels = io.read_embedding_csv(cfg["train"])
    if train_labels is None:
        raise ValueError("--train file must carry a label column")
    test_coords, truth = io.read_embedding_csv(cfg["test"])
    preds, error = analysis.knn_classify(train_coords, train_labels, test_coords,
                                         cfg["k"], truth)
    pred_path = out / "predictions.csv"
    io.write_csv(pred_path, ["item", "label"], list(enumerate(preds)))
    report_path = out / "knn.json"
    io.write_json(report_path, {"k": cfg["k"], "error_rate": error})
    return [pred_path, report_path]


def _cmd_decode_components(cfg, out):
    coords, _ = io.read_embedding_csv(cfg["input"])
    rep = analysis.spectrum(PointBatch(coords))
    _, dec_spec = _net_specs(cfg["hidden"], rep.eigenvalues.shape[0], cfg["output_width"])
    net = autoencoder.load_checkpoint(cfg["checkpoint"], dec_spec)
    comps = analysis.decode_eigen_components(net.forward, rep, cfg["scale"])
    rows = [[k, sign, *row] for k, pair in enumerate(comps)
            for sign, row in zip((1, -1), pair)]
    path = out / "components.csv"
    io.write_csv(path, ["component", "sign"] + [f"o{i}" for i in range(comps.shape[2])],
                 rows)
    return [path]


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
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.verify:
            if not (out_dir / io.MANIFEST_NAME).exists():
                raise ValueError(f"--verify: no manifest in {out_dir}")
            # re-run into a scratch directory so the checked run is never touched
            with tempfile.TemporaryDirectory() as scratch:
                shutil.copy(out_dir / io.MANIFEST_NAME, scratch)
                handler(cfg, Path(scratch))
                bad = io.verify_manifest(scratch)
            if bad:
                print(f"verify: output hashes differ from stored manifest: {', '.join(bad)}",
                      file=sys.stderr)
                return 1
            print("verify: outputs match stored manifest")
            return 0
        outputs = handler(cfg, out_dir)
        io.write_manifest(out_dir, args.command, cfg, outputs)
        return 0
    except SystemExit as exc:  # argparse: a bad flag or file value, or --help
        return 1 if exc.code not in (0, None) else 0
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (radius.SolverError, particles.DivergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())
