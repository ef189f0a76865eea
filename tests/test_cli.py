import importlib.util
import inspect
import itertools
import json
import math
import os
import shlex
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccentric import analysis, cli, datasets, radius
from eccentric.autoencoder import DenseNet, DenseNetSpec, save_checkpoint
from eccentric.cli import load_config, run
from eccentric.io import write_embedding_csv


def run_ok(argv):
    code = run(argv)
    assert code == 0, f"expected exit 0, got {code} for {argv}"


def blas_thread_outputs(tmp_path, argv):
    """Manifest `outputs` of argv run as a subprocess at 1 and at 2 BLAS threads."""
    src = str(Path(cli.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "eccentric.cli", *argv, "--out-dir", str(out)],
                       capture_output=True, check=True,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src})
        outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
    return outputs


class TestLoadConfig:
    def test_parses_flat_keys(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\ndim = 8\nmu=1.5\n\nstep-size = 0.1\n")
        assert load_config(path) == {"dim": "8", "mu": "1.5", "step_size": "0.1"}

    def test_duplicate_warns_last_wins(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("dim=3\ndim=4\n")
        assert load_config(path)["dim"] == "4"
        assert "duplicate key" in capsys.readouterr().err

    def test_rejects_non_assignment(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(path)


class TestSolveRadius:
    def test_writes_json_and_manifest(self, tmp_path):
        run_ok(["solve-radius", "--dim", "64", "--mu", "1.0", "--auto-n",
                "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "radius.json").read_text())
        assert payload["rho"] == pytest.approx(8.0, rel=2e-4)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "radius.json" in manifest["outputs"]

    def test_dim_two_is_validation_error(self, tmp_path):
        assert run(["solve-radius", "--dim", "2", "--mu", "1.0", "--auto-n",
                    "--out-dir", str(tmp_path)]) == 1

    def test_big_n_and_auto_n_conflict(self, tmp_path):
        assert run(["solve-radius", "--dim", "8", "--mu", "1.0", "--auto-n",
                    "--big-n", "4.0", "--out-dir", str(tmp_path)]) == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dim=3\nmu=1.0\nauto-n=true\n")
        out = tmp_path / "out"
        run_ok(["solve-radius", "--config", str(cfg), "--dim", "8",
                "--out-dir", str(out)])
        payload = json.loads((out / "radius.json").read_text())
        assert payload["dim"] == 8  # flag beats config file
        assert payload["mu"] == 1.0

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dim=3\nbogus=1\n")
        assert run(["solve-radius", "--config", str(cfg),
                    "--out-dir", str(tmp_path)]) == 1

    def test_auto_n_outside_calibrated_mu_range(self, tmp_path, capsys):
        # the N rule is calibrated for 1 <= mu <= 2d+1 = 9 at d=4
        assert run(["solve-radius", "--dim", "4", "--mu", "20", "--auto-n",
                    "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_auto_n_range_checked_against_latent_dim(self, tmp_path, capsys):
        # train's N is derived at --latent-dim, where 2d+1 = 5 at d=2
        assert run(["train", "--data-n", "20", "--batch-size", "10", "--latent-dim", "2",
                    "--mu", "6", "--auto-n", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "1 <= mu <= 2*dim+1, got mu=6.0 at dim=2" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_back_to_back_runs_share_no_state(self, tmp_path):
        # the argument parser is built once; --auto-n must not leak into the next call
        base = ["solve-radius", "--dim", "12", "--mu", "2.0"]
        run_ok(base + ["--auto-n", "--out-dir", str(tmp_path / "auto")])
        run_ok(base + ["--big-n", "5", "--out-dir", str(tmp_path / "fixed")])
        payload = json.loads((tmp_path / "fixed" / "radius.json").read_text())
        assert payload["big_n"] == 5.0


    @pytest.mark.parametrize("big_n", ["1e-40", "1e40"])
    def test_extreme_big_n(self, tmp_path, big_n):
        # N only rescales rho = sqrt(N/(2a)); the solve itself is in a
        run_ok(["solve-radius", "--dim", "4", "--mu", "2", "--big-n", big_n,
                "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "radius.json").read_text())
        assert payload["rho"] == pytest.approx(1.16666322 * math.sqrt(float(big_n)), rel=1e-8)
        assert abs(payload["residual"]) < 1e-10

    def test_stalled_bisection_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # a fault in the integral leaves the residual unresolved: reported, not returned
        monkeypatch.setattr(radius, "_integral", lambda a, dim: np.full_like(a, np.nan))
        assert run(["solve-radius", "--dim", "4", "--mu", "2", "--big-n", "5",
                    "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "root search stalled" in err and "d=4, mu=2.0" in err


# keys whose values are floats; an int default on one of them would make an int flag
FLOAT_KEYS = {"mu", "big_n", "mu_step", "r_max", "a", "step_size", "init_scale", "lam",
              "learning_rate", "weight_decay", "scale"}
TRUE_SPELLINGS = ["true", "1", "yes", "TRUE", "Yes"]
FALSE_SPELLINGS = ["false", "0", "no", "False", "NO"]


def _manifest_config(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())["config"]


def _force_profile_values(draw, auto_n: bool) -> dict:
    return {
        "dim": draw(st.integers(2, 6)),
        "mu": draw(st.floats(1.0, 4.0)),
        "big_n": 0.0 if auto_n else draw(st.floats(0.5, 50.0)),
        "r_max": draw(st.floats(0.5, 10.0)),
        "steps": draw(st.integers(2, 40)),
        "out": draw(st.from_regex(r"-?[a-z][a-z0-9_]{0,6}\.csv", fullmatch=True)),
    }


class TestConfigAsFlags:
    """A config file is parsed as --key=value flags placed before the command line."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_file_and_flags_give_the_same_config(self, data):
        draw = data.draw
        auto_n = draw(st.booleans())
        values = _force_profile_values(draw, auto_n)
        values["auto_n"] = auto_n
        lines = []
        for key, value in values.items():
            spelled = draw(st.sampled_from([key, key.replace("_", "-")]))
            if key == "auto_n":
                text = draw(st.sampled_from(TRUE_SPELLINGS if value else FALSE_SPELLINGS))
            else:
                text = str(value)  # str of a float round-trips
            if draw(st.booleans()):  # an earlier duplicate: the last one wins
                lines.append(f"{spelled}={draw(st.sampled_from(['7', '-1.5', 'x.csv']))}")
            lines += draw(st.sampled_from([[], ["", "# a comment"], ["   # indented"]]))
            lines.append(f"{spelled}{' ' * draw(st.integers(0, 2))}= {text}")
        # flags override a drawn subset of the file's values
        fresh = _force_profile_values(draw, auto_n)
        keys = draw(st.lists(st.sampled_from(sorted(fresh.keys() - {"big_n"})), unique=True))
        overrides = {key: fresh[key] for key in keys}
        expected = values | overrides

        def flags(cfg):
            return ["--" + k.replace("_", "-") + ("" if v is True else f"={v}")
                    for k, v in cfg.items() if v is not False]

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "c.cfg").write_text("\n".join(lines) + "\n")
            run_ok(["force-profile", "--config", str(tmp / "c.cfg"), *flags(overrides),
                    "--out-dir", str(tmp / "file")])
            run_ok(["force-profile", *flags(expected), "--out-dir", str(tmp / "flags")])
            from_file = _manifest_config(tmp / "file")
            assert from_file == _manifest_config(tmp / "flags")
            assert from_file["out"] == expected["out"]
            assert (tmp / "file" / expected["out"]).exists()

    @pytest.mark.parametrize("line, named", [("dim=abc", "--dim"), ("auto-n=maybe", "auto_n")])
    def test_bad_file_value_names_the_key(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"mu=1.0\n{line}\n")
        assert run(["solve-radius", "--config", str(cfg), "--big-n", "4",
                    "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert named in err and line.partition("=")[2] in err

    @pytest.mark.parametrize("line", ["dim=4", "out_dir=x", "config=c.cfg", "verify=true"])
    def test_only_table_keys_are_config_keys(self, tmp_path, capsys, line):
        # dim would otherwise prefix-match --dims; the others are real flags
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"dims=4\nmu-step=1\n{line}\n")
        assert run(["sweep-radius", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_parser_defaults_are_the_table(self, command):
        _, defaults = cli._COMMANDS[command]
        args = vars(cli._build_parser().parse_args([command]))
        assert args.keys() == defaults.keys() | {"command", "config", "out_dir", "verify"}
        got = {key: args[key] for key in defaults}
        assert got == defaults
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in defaults.items()}
        assert {k for k, v in got.items() if type(v) is float} == FLOAT_KEYS & defaults.keys()


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's workloads and oracles modules, loaded from their files."""
    # a dataclass resolves its module through sys.modules while it is built, and
    # oracles imports workloads by name; no bytecode cache is written into perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = []
    for name in ("workloads", "oracles"):
        path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


class TestBenchmarkCommands:
    def test_every_benchmark_argv_parses(self, tmp_path, perfbench):
        # perfbench/workloads.py builds the commands the benchmark sends; a flag
        # or subcommand they use must not drop out of the CLI
        workloads, _ = perfbench
        argvs = [argv for name in workloads.NAMES
                 for _, argv in workloads.build(name, 1, tmp_path / name).commands]
        assert len(argvs) == 38
        parser = cli._build_parser()
        for argv in argvs:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"the CLI rejects benchmark command {argv}")

    def test_every_benchmark_command_runs_clean(self, tmp_path, monkeypatch, perfbench):
        # each plan at seeds 1 and 2, run in-process as the benchmark's load process
        # runs it: every command exits 0 and warns nothing (a floating-point flag
        # would be exit 2), its manifest lists exactly the files it wrote, and every
        # oracle check passes
        workloads, oracles = perfbench
        for seed, name in itertools.product([1, 2], workloads.NAMES):
            plan = workloads.build(name, seed, tmp_path / f"s{seed}" / name / "inputs")
            out = tmp_path / f"s{seed}" / name / "plain"
            out.mkdir()
            monkeypatch.chdir(out)  # a plan's paths are relative to its pass directory
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                codes = [run(argv) for _, argv in plan.commands]
            assert codes == [0] * len(plan.commands), (seed, name)
            assert [str(w.message) for w in caught] == [], (seed, name)
            for _, argv in plan.commands:
                run_dir = out / argv[argv.index("--out-dir") + 1]
                listed = json.loads((run_dir / "manifest.json").read_text())["outputs"]
                written = {p.name for p in run_dir.iterdir()} - {"manifest.json"}
                assert listed.keys() == written, argv
            failed = [(check, detail) for check, ok, detail in oracles.CHECKS[name](plan, out)
                      if not ok]
            assert failed == [], (seed, name)

    def test_traced_plans_feed_every_counter(self, tmp_path):
        # perfbench/tracer.py wraps eccentric's public functions and reads their
        # arguments and results in hooks, so a changed signature or result type
        # breaks `--trace 1`; the tracer rebinds module attributes for the life of
        # the process, so the four plans at seed 1 run under it in a subprocess
        script = """if True:
            import json, os, sys
            from pathlib import Path
            import workloads
            from tracer import Tracer
            from eccentric import cli

            tracer = Tracer()
            tracer.install()
            root, report = Path(sys.argv[1]), {"codes": [], "counters": {}}
            for name in workloads.NAMES:
                plan = workloads.build(name, 1, root / name / "inputs")
                (root / name / "traced").mkdir()
                os.chdir(root / name / "traced")
                lo = tracer.marks()
                report["codes"] += [cli.run(argv) for _, argv in plan.commands]
                for key, value in tracer.layer_metrics(lo, tracer.marks()).items():
                    report["counters"][key] = report["counters"].get(key, 0) + value
            (root / "report.json").write_text(json.dumps(report))
        """
        repo = Path(__file__).parents[1]
        path = os.pathsep.join([str(repo / "src"), str(repo / "perfbench")])
        # -B: no bytecode cache is written into perfbench/
        proc = subprocess.run([sys.executable, "-B", "-c", script, str(tmp_path)],
                              capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                                   "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["codes"] == [0] * 38
        counters = report["counters"]
        hooked = ["radius.solve_calls", "radius.bisect_iters", "radius.quad_nodes",
                  "kernel.pairs", "kernel.bytes_computed", "particles.steps",
                  "autoencoder.opt_steps", "datasets.items", "analysis.align_iters",
                  "analysis.knn_queries", "io.rows_read", "io.bytes_read",
                  "io.rows_written", "io.bytes_written"]
        assert {key: counters[key] for key in hooked if not counters[key] > 0} == {}
        assert counters["cli.nonzero_exits"] == 0


class TestReadme:
    def test_cli_examples_parse(self):
        # the `sh` block of README's CLI section: a renamed flag or subcommand
        # must not leave a stale example behind
        text = (Path(__file__).parents[1] / "README.md").read_text()
        section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("eccentric ")]
        assert len(lines) == 7
        parser = cli._build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"the CLI rejects README example {line!r}")


class TestSweepRadius:
    def test_header_and_rows(self, tmp_path):
        run_ok(["sweep-radius", "--dims", "3,4", "--mu-step", "1.0",
                "--out-dir", str(tmp_path)])
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "d,max_percent_diff"
        assert [row.split(",")[0] for row in lines[1:]] == ["3", "4"]


class TestDeterminismAndVerify:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--dim", "3", "--mu", "1.0", "--auto-n",
                "--count", "20", "--steps", "40", "--step-size", "0.1",
                "--seed", "5"]
        run_ok(argv + ["--out-dir", str(a)])
        run_ok(argv + ["--out-dir", str(b)])
        for name in ("points.csv", "loss_trace.csv", "simulate.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_verify_passes_then_catches_tampering(self, tmp_path):
        argv = ["simulate", "--dim", "3", "--mu", "1.0", "--auto-n",
                "--count", "20", "--steps", "40", "--step-size", "0.1",
                "--seed", "5", "--out-dir", str(tmp_path)]
        run_ok(argv)
        run_ok(argv + ["--verify"])
        # a changed parameter must be caught on verify
        changed = ["simulate", "--dim", "3", "--mu", "1.0", "--auto-n",
                   "--count", "20", "--steps", "40", "--step-size", "0.1",
                   "--seed", "6", "--out-dir", str(tmp_path), "--verify"]
        assert run(changed) == 1

    def test_failed_verify_leaves_run_untouched(self, tmp_path):
        argv = ["simulate", "--dim", "3", "--mu", "1.0", "--auto-n",
                "--count", "20", "--steps", "40", "--step-size", "0.1",
                "--out-dir", str(tmp_path)]
        run_ok(argv + ["--seed", "5"])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        changed = argv + ["--seed", "6", "--verify"]
        assert run(changed) == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert run(changed) == 1

    def test_simulate_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # the kernel's tile products go through BLAS; its thread count must not
        # reach the hashed outputs
        outputs = blas_thread_outputs(tmp_path, [
            "simulate", "--dim", "8", "--mu", "1.0", "--auto-n", "--count", "300",
            "--steps", "6", "--step-size", "0.1", "--init-scale", "1.0", "--seed", "5"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("dim,count", [(16, 700), (64, 300)])
    def test_simulate_bits_at_exposed_shapes(self, tmp_path, dim, count):
        # shapes where a (128, b - 128) @ (b - 128, d) row-block product summed
        # in another order at 2 BLAS threads.  A step this long carries those
        # last bits of the gradient into z (at 0.2, z - 0.2 g rounded them away
        # at d=64).
        outputs = blas_thread_outputs(tmp_path, [
            "simulate", "--dim", str(dim), "--mu", "1.0", "--auto-n", "--count", str(count),
            "--steps", "3", "--step-size", "5", "--init-scale", "1.0", "--seed", "3"])
        assert outputs[0] == outputs[1]

    def test_train_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # a batch of 1000 is summed over in every weight gradient; one BLAS
        # product over all of it split its sum differently at 2 threads
        outputs = blas_thread_outputs(tmp_path, [
            "train", "--dataset", "noisy-ring", "--data-n", "2000", "--batch-size", "1000",
            "--epochs", "3", "--latent-dim", "16", "--hidden", "64", "--mu", "1.5",
            "--auto-n", "--seed", "1"])
        assert outputs[0] == outputs[1]

    def test_wide_idx_train_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # 784 input columns: the first layer's product and the backward pass
        # through the decoder's last layer each sum over 784 terms
        rng = np.random.default_rng(4)
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        images.write_bytes(struct.pack(">iiii", 0x803, 300, 28, 28)
                           + rng.integers(0, 256, 300 * 784, dtype=np.uint8).tobytes())
        labels.write_bytes(struct.pack(">ii", 0x801, 300) + bytes(range(10)) * 30)
        outputs = blas_thread_outputs(tmp_path, [
            "train", "--dataset", "idx", "--images", str(images), "--labels", str(labels),
            "--batch-size", "100", "--epochs", "2", "--latent-dim", "8", "--hidden", "32,32",
            "--mu", "1.5", "--auto-n", "--seed", "1"])
        assert outputs[0] == outputs[1]

    def test_knn_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # the KNN prefilter is a BLAS product; only exact distances may reach
        # the outputs.  On a grid at 2^24 the product rounds, the margin still
        # drops most columns, and some rows tie at their k-th distance.
        rng = np.random.default_rng(6)
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_embedding_csv(train, 2**24 + rng.integers(-10, 11, (3000, 16)).astype(float),
                            rng.integers(0, 4, 3000))
        write_embedding_csv(test, 2**24 + rng.integers(-21, 22, (300, 16)) / 2,
                            rng.integers(0, 4, 300))
        outputs = blas_thread_outputs(tmp_path, ["knn", "--train", str(train),
                                                 "--test", str(test), "--k", "5"])
        assert outputs[0] == outputs[1]

    def test_out_outside_out_dir_rejected(self, tmp_path):
        # an --out path would escape the scratch directory of --verify
        assert run(["sweep-radius", "--dims", "4", "--mu-step", "1",
                    "--out", str(tmp_path / "elsewhere.csv"),
                    "--out-dir", str(tmp_path / "run")]) == 1
        assert not (tmp_path / "elsewhere.csv").exists()

    @pytest.mark.parametrize("name", ["", ".", "..", "manifest.json"])
    def test_out_must_name_a_file_beside_the_manifest(self, tmp_path, capsys, name):
        out = tmp_path / "run"
        assert run(["sweep-radius", "--dims", "4", "--mu-step", "1", "--out", name,
                    "--out-dir", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_verify_without_manifest(self, tmp_path):
        assert run(["solve-radius", "--dim", "8", "--mu", "1.0", "--auto-n",
                    "--out-dir", str(tmp_path), "--verify"]) == 1


class TestOutputsReplaced:
    @pytest.mark.parametrize("argv, linked, symlinked", [
        (["solve-radius", "--dim", "12", "--mu", "2.0", "--auto-n"],
         "radius.json", "manifest.json"),
        (["sweep-radius", "--dims", "3,4", "--mu-step", "1.0"], "sweep.csv", "manifest.json"),
        (["simulate", "--dim", "3", "--mu", "1.0", "--auto-n", "--count", "20", "--steps", "10",
          "--step-size", "0.1", "--seed", "5"], "points.csv", "loss_trace.csv"),
        (["train", "--dataset", "noisy-ring", "--data-n", "20", "--batch-size", "10",
          "--epochs", "1", "--hidden", "8", "--auto-n", "--seed", "1"],
         "encoder.bin", "decoder.bin"),
    ], ids=["solve-radius", "sweep-radius", "simulate", "train"])
    def test_rerun_replaces_every_output(self, tmp_path, argv, linked, symlinked):
        # a run into a used directory removes each old output and writes it anew: a
        # longer stale file leaves no tail, and nothing is written through a hard link
        # or a symlink at an output name
        fresh, out, elsewhere = tmp_path / "fresh", tmp_path / "out", tmp_path / "elsewhere"
        run_ok(argv + ["--out-dir", str(fresh)])
        expected = {p.name: p.read_bytes() for p in fresh.iterdir()}
        out.mkdir()
        elsewhere.mkdir()
        stale = {name: b"stale\n" * (len(data) // 6 + 2) for name, data in expected.items()}
        for name, data in stale.items():
            (out / name).write_bytes(data)
        os.link(out / linked, elsewhere / "hard_link")
        target = elsewhere / "symlink_target"
        target.write_bytes(stale[symlinked])
        (out / symlinked).unlink()
        (out / symlinked).symlink_to(target)
        run_ok(argv + ["--out-dir", str(out)])
        assert (elsewhere / "hard_link").read_bytes() == stale[linked]
        assert target.read_bytes() == stale[symlinked]
        for name, data in expected.items():
            assert not (out / name).is_symlink() and (out / name).read_bytes() == data, name
        run_ok(argv + ["--out-dir", str(out), "--verify"])

    def test_directory_at_an_output_name(self, tmp_path, capsys):
        (tmp_path / "radius.json").mkdir()
        assert run(["solve-radius", "--dim", "12", "--mu", "2.0", "--auto-n",
                    "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestForceProfileCommand:
    def test_peak_location(self, tmp_path):
        run_ok(["force-profile", "--mu", "1.0", "--big-n", "16.0",
                "--r-max", "8.0", "--steps", "801", "--out-dir", str(tmp_path)])
        rows = (tmp_path / "force_profile.csv").read_text().strip().split("\n")[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        peak = data[np.argmax(data[:, 1])]
        assert peak[0] == pytest.approx(4.0, abs=0.02)

    @pytest.mark.parametrize("dim", ["-5", "1"])
    def test_dim_below_two_is_validation_error(self, tmp_path, capsys, dim):
        assert run(["force-profile", "--dim", dim, "--mu", "1.0", "--big-n", "16.0",
                    "--r-max", "8.0", "--steps", "5", "--out-dir", str(tmp_path)]) == 1
        assert "dim must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestLemmaCheckCommand:
    def test_payload(self, tmp_path):
        run_ok(["lemma-check", "--dim", "4", "--a", "1.0",
                "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "lemma.json").read_text())
        assert payload["lemma_a_integral"] == pytest.approx(2.0, abs=1e-8)
        assert payload["lemma_b_u_closed_form"] == pytest.approx(
            (1 + math.sqrt(13)) / 2, rel=1e-10)


class TestAnalysisPipeline:
    def test_train_encode_spectrum_align_metrics_knn(self, tmp_path):
        train_dir = tmp_path / "train"
        run_ok(["train", "--dataset", "noisy-ring", "--data-n", "60",
                "--data-seed", "1", "--latent-dim", "2", "--lam", "0.0",
                "--mu", "1.0", "--auto-n", "--batch-size", "20", "--epochs", "2",
                "--learning-rate", "0.001", "--hidden", "8",
                "--out-dir", str(train_dir)])
        for name in ("encoder.bin", "decoder.bin", "traces.csv", "embedding.csv"):
            assert (train_dir / name).exists()

        enc_dir = tmp_path / "enc"
        run_ok(["encode", "--dataset", "noisy-ring", "--data-n", "60",
                "--data-seed", "1", "--latent-dim", "2", "--hidden", "8",
                "--checkpoint", str(train_dir / "encoder.bin"),
                "--out-dir", str(enc_dir)])
        # encoding the training dataset reproduces the training embedding
        assert ((enc_dir / "embedding.csv").read_bytes()
                == (train_dir / "embedding.csv").read_bytes())

        spec_dir = tmp_path / "spec"
        run_ok(["spectrum", "--input", str(enc_dir / "embedding.csv"),
                "--out-dir", str(spec_dir)])
        payload = json.loads((spec_dir / "spectrum.json").read_text())
        assert len(payload["eigenvalues"]) == 2
        assert payload["trace"] == pytest.approx(sum(payload["eigenvalues"]),
                                                 rel=1e-9)

        align_dir = tmp_path / "align"
        run_ok(["align", "--e1", str(enc_dir / "embedding.csv"),
                "--e2", str(enc_dir / "embedding.csv"),
                "--out-dir", str(align_dir)])
        summary = json.loads((align_dir / "align.json").read_text())
        # an embedding aligned with itself: identity permutations, no flips
        assert summary == {"permutation_p": [0, 1], "permutation_q": [0, 1],
                           "signs_p": [1, 1], "signs_q": [1, 1]}

        metrics_dir = tmp_path / "metrics"
        run_ok(["metrics", "--e1", str(enc_dir / "embedding.csv"),
                "--e2", str(enc_dir / "embedding.csv"),
                "--out-dir", str(metrics_dir)])
        m = json.loads((metrics_dir / "metrics.json").read_text())
        assert m["rms_distance"] == 0.0

        knn_dir = tmp_path / "knn"
        run_ok(["knn", "--train", str(train_dir / "embedding.csv"),
                "--test", str(train_dir / "embedding.csv"), "--k", "1",
                "--out-dir", str(knn_dir)])
        k = json.loads((knn_dir / "knn.json").read_text())
        assert k["error_rate"] == 0.0  # 1-NN on the training set itself

    def test_decode_components(self, tmp_path):
        train_dir = tmp_path / "train"
        run_ok(["train", "--dataset", "noisy-ring", "--data-n", "60",
                "--data-seed", "1", "--latent-dim", "2", "--lam", "0.0",
                "--mu", "1.0", "--auto-n", "--batch-size", "20", "--epochs", "1",
                "--hidden", "8", "--out-dir", str(train_dir)])
        out = tmp_path / "dec"
        run_ok(["decode-components", "--input", str(train_dir / "embedding.csv"),
                "--checkpoint", str(train_dir / "decoder.bin"), "--hidden", "8",
                "--output-width", "2", "--scale", "1.0", "--out-dir", str(out)])
        lines = (out / "components.csv").read_text().strip().split("\n")
        assert lines[0] == "component,sign,o0,o1"
        assert len(lines) == 1 + 2 * 2  # one +- pair per latent dimension

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_decode_components_non_finite_scale(self, tmp_path, capsys, scale):
        train_dir = tmp_path / "train"
        run_ok(["train", "--dataset", "noisy-ring", "--data-n", "20",
                "--data-seed", "1", "--latent-dim", "2", "--mu", "1.0", "--auto-n",
                "--batch-size", "10", "--hidden", "4", "--out-dir", str(train_dir)])
        out = tmp_path / "dec"
        assert run(["decode-components", "--input", str(train_dir / "embedding.csv"),
                    "--checkpoint", str(train_dir / "decoder.bin"), "--hidden", "4",
                    "--output-width", "2", "--scale", scale, "--out-dir", str(out)]) == 1
        assert "error: scale must be finite" in capsys.readouterr().err
        assert not (out / "components.csv").exists()

    def test_sample_modes(self, tmp_path):
        std_dir = tmp_path / "std"
        run_ok(["sample", "--mode", "standard", "--n", "50", "--dim", "3",
                "--seed", "2", "--out-dir", str(std_dir)])
        lines = (std_dir / "sample.csv").read_text().strip().split("\n")
        assert len(lines) == 51

        ref = tmp_path / "ref.csv"
        rng = np.random.default_rng(0)
        write_embedding_csv(ref, rng.standard_normal((40, 3)))
        m_dir = tmp_path / "matched"
        run_ok(["sample", "--mode", "matched", "--reference", str(ref),
                "--n", "20", "--dim", "3", "--seed", "2",
                "--out-dir", str(m_dir)])
        assert (m_dir / "sample.csv").exists()

    def test_matched_without_reference(self, tmp_path):
        assert run(["sample", "--mode", "matched", "--n", "5", "--dim", "2",
                    "--seed", "0", "--out-dir", str(tmp_path)]) == 1

    def test_one_row_matched_reference(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        write_embedding_csv(ref, np.ones((1, 3)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["sample", "--mode", "matched", "--reference", str(ref),
                        "--n", "5", "--dim", "3", "--out-dir", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "at least 2 points" in err
        assert caught == [] and "rank-deficient" not in err


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert run(["spectrum", "--input", str(tmp_path / "nope.csv"),
                    "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv, named", [
        (["encode", "--data-n", "20"], "--checkpoint"),
        (["encode", "--data-n", "20", "--checkpoint", "{dir}"], None),
        (["decode-components", "--input", "{emb}"], "--checkpoint"),
        (["decode-components", "--input", "{dir}", "--checkpoint", "{dir}"], None),
        (["spectrum", "--input", "{dir}"], None),
        (["train", "--dataset", "idx", "--images", "{dir}", "--labels", "{dir}"], None),
    ], ids=["encode-no-checkpoint", "encode-checkpoint-dir", "decode-no-checkpoint",
            "decode-input-dir", "spectrum-input-dir", "train-idx-dirs"])
    def test_bad_input_path(self, tmp_path, capsys, argv, named):
        # an empty path names the current directory: reading it must not end in a traceback
        emb = tmp_path / "emb.csv"
        write_embedding_csv(emb, np.eye(2))
        argv = [v.format(dir=tmp_path, emb=emb) for v in argv]
        out = tmp_path / "out"
        assert run(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and (named is None or named in err)
        assert not (out / "manifest.json").exists()

    def test_no_command(self, capsys):
        assert run([]) == 1

    def test_truncated_checkpoint(self, tmp_path, capsys):
        spec = DenseNetSpec((2, 32, 32, 2), ("leaky-relu", "leaky-relu", "identity"))
        path = tmp_path / "bad.bin"
        save_checkpoint(DenseNet.initialize(spec, np.random.default_rng(0)), path)
        path.write_bytes(path.read_bytes()[:6])  # cut inside the width count
        assert run(["encode", "--checkpoint", str(path),
                    "--out-dir", str(tmp_path / "enc")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_dataset_names_idx(self, tmp_path, capsys):
        assert run(["encode", "--dataset", "mnist", "--checkpoint", str(tmp_path / "x"),
                    "--out-dir", str(tmp_path / "enc")]) == 1
        err = capsys.readouterr().err
        assert "'mnist'" in err and "'idx'" in err

    def test_header_only_embedding(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        write_embedding_csv(train, np.eye(3), np.arange(3))
        test = tmp_path / "header_only.csv"
        test.write_text("c0,c1,c2,label\n")
        assert run(["knn", "--train", str(train), "--test", str(test),
                    "--out-dir", str(tmp_path / "knn")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "header_only.csv" in err

    def test_label_only_embedding(self, tmp_path, capsys):
        # no coordinate columns: its rows are not points of any dimension
        path = tmp_path / "lab.csv"
        path.write_text("label\n1\n2\n")
        assert run(["knn", "--train", str(path), "--test", str(path), "--k", "1",
                    "--out-dir", str(tmp_path / "knn")]) == 1
        assert "error:" in (err := capsys.readouterr().err) and "lab.csv" in err
        assert not (tmp_path / "knn" / "manifest.json").exists()

    @pytest.mark.parametrize("n, dim, named", [
        ("3", "0", "dim"), ("3", "-1", "dim"), ("0", "2", "n"), ("-1", "2", "n")])
    def test_sample_size_must_be_positive(self, tmp_path, capsys, n, dim, named):
        assert run(["sample", "--mode", "standard", "--n", n, "--dim", dim,
                    "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        value = dim if named == "dim" else n
        assert f"error: {named} must be positive, got {value}" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_embedding_wider_than_header(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("c0,c1\n1,2,3\n4,5,7\n2,2,2\n")
        assert run(["spectrum", "--input", str(path), "--out-dir", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "wide.csv" in err

    def test_fractional_label_embedding(self, tmp_path, capsys):
        train = tmp_path / "fractional.csv"
        train.write_text("c0,label\n0.0,1\n1.0,3.5\n")
        test = tmp_path / "test.csv"
        write_embedding_csv(test, np.zeros((1, 1)), np.arange(1))
        # with warnings ignored, as when the CLI runs outside the test suite
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["knn", "--train", str(train), "--test", str(test), "--k", "1",
                        "--out-dir", str(tmp_path / "knn")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "fractional.csv" in err

    def test_knn_width_mismatch(self, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_embedding_csv(train, np.eye(3), np.arange(3))
        write_embedding_csv(test, np.ones((2, 4)))
        assert run(["knn", "--train", str(train), "--test", str(test),
                    "--out-dir", str(tmp_path / "knn")]) == 1
        err = capsys.readouterr().err
        assert "training points have 3 columns but test points have 4" in err

    @pytest.mark.parametrize("command", ["align", "metrics"])
    def test_non_finite_embedding(self, tmp_path, capsys, command):
        good = tmp_path / "good.csv"
        write_embedding_csv(good, np.eye(3))
        bad = tmp_path / "bad.csv"
        bad.write_text("c0,c1,c2\n1,0,0\nnan,1,0\n0,0,1\n")
        assert run([command, "--e1", str(good), "--e2", str(bad),
                    "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert f"{bad}: batch contains non-finite entries" in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_empty_idx_pair(self, tmp_path, capsys):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        images.write_bytes(struct.pack(">iiii", 0x803, 0, 2, 2))
        labels.write_bytes(struct.pack(">ii", 0x801, 0))
        spec = DenseNetSpec((4, 32, 32, 2), ("leaky-relu", "leaky-relu", "identity"))
        ckpt = tmp_path / "enc.bin"
        save_checkpoint(DenseNet.initialize(spec, np.random.default_rng(0)), ckpt)
        assert run(["encode", "--dataset", "idx", "--images", str(images),
                    "--labels", str(labels), "--checkpoint", str(ckpt),
                    "--out-dir", str(tmp_path / "enc")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(datasets.GENERATORS))
    def test_cli_reaches_every_generator(self, tmp_path, name):
        # _load_cli_dataset passes exactly these keywords to every generator
        assert list(inspect.signature(datasets.GENERATORS[name]).parameters) == ["n", "seed"]
        run_ok(["train", "--dataset", name, "--data-n", "30", "--batch-size", "10",
                "--epochs", "1", "--hidden", "4", "--auto-n", "--out-dir", str(tmp_path)])
        lines = (tmp_path / "embedding.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 30

    @pytest.mark.parametrize("dataset", ["noisy-ring", "swiss-roll"])
    def test_empty_generated_dataset(self, tmp_path, capsys, dataset):
        assert run(["encode", "--dataset", dataset, "--data-n", "0",
                    "--out-dir", str(tmp_path / "enc")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "n must be >= 1, got 0" in err

    @pytest.mark.parametrize("argv, named", [
        (["solve-radius", "--dim", "4", "--mu", "1", "--big-n", "inf"], "big_n"),
        (["solve-radius", "--dim", "4", "--mu", "nan", "--big-n", "1"], "mu"),
        (["force-profile", "--mu", "nan", "--big-n", "4", "--r-max", "8", "--steps", "5"],
         "mu"),
        (["force-profile", "--mu", "1", "--big-n", "4", "--r-max", "inf", "--steps", "5"],
         "r_max"),
        (["simulate", "--dim", "3", "--mu", "nan", "--big-n", "4", "--count", "4",
          "--steps", "2", "--step-size", "0.1"], "mu"),
        (["simulate", "--dim", "3", "--mu", "1", "--big-n", "inf", "--count", "4",
          "--steps", "2", "--step-size", "0.1"], "big_n"),
        (["train", "--data-n", "20", "--batch-size", "10", "--auto-n", "--lam", "nan"],
         "lam"),
        (["sweep-radius", "--dims", "3", "--mu-step", "nan"], "mu_step"),
        (["sweep-radius", "--dims", "3", "--mu-step", "inf"], "mu_step"),
        (["simulate", "--dim", "3", "--mu", "1", "--auto-n", "--count", "4",
          "--steps", "2", "--step-size", "nan"], "step_size"),
        (["simulate", "--dim", "3", "--mu", "1", "--auto-n", "--count", "4",
          "--steps", "2", "--step-size", "inf"], "step_size"),
        (["simulate", "--dim", "3", "--mu", "1", "--auto-n", "--count", "4",
          "--steps", "2", "--step-size", "0.1", "--init-scale", "nan"], "init_scale"),
        (["simulate", "--dim", "3", "--mu", "1", "--auto-n", "--count", "4",
          "--steps", "2", "--step-size", "0.1", "--init-scale", "inf"], "init_scale"),
        (["train", "--data-n", "20", "--batch-size", "10", "--auto-n",
          "--learning-rate", "nan"], "learning_rate"),
        (["train", "--data-n", "20", "--batch-size", "10", "--auto-n",
          "--weight-decay", "nan"], "weight_decay"),
    ], ids=["solve-radius-big-n-inf", "solve-radius-mu-nan", "force-profile-mu-nan",
            "force-profile-r-max-inf", "simulate-mu-nan", "simulate-big-n-inf",
            "train-lam-nan", "sweep-radius-mu-step-nan", "sweep-radius-mu-step-inf",
            "simulate-step-size-nan", "simulate-step-size-inf", "simulate-init-scale-nan",
            "simulate-init-scale-inf", "train-learning-rate-nan", "train-weight-decay-nan"])
    def test_non_finite_parameter(self, tmp_path, capsys, argv, named):
        assert run(argv + ["--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {named} must be finite" in err or f"finite {named}" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--data-n", "20", "--batch-size", "10", "--auto-n", "--hidden", "8,,8"],
         "--hidden"),
        (["train", "--data-n", "20", "--batch-size", "10", "--auto-n", "--hidden", "8,"],
         "--hidden"),
        (["train", "--data-n", "20", "--batch-size", "10", "--auto-n", "--hidden", "x"],
         "--hidden"),
        (["encode", "--data-n", "20", "--hidden", "8,2.5"], "--hidden"),
        (["sweep-radius", "--dims", "3,x", "--mu-step", "1"], "--dims"),
        (["sweep-radius", "--dims", "3,,4", "--mu-step", "1"], "--dims"),
    ], ids=["train-hidden-empty-entry", "train-hidden-trailing-comma", "train-hidden-x",
            "encode-hidden-fraction", "sweep-radius-dims-x", "sweep-radius-dims-empty-entry"])
    def test_bad_int_list(self, tmp_path, capsys, argv, flag):
        assert run(argv + ["--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} must be comma-separated integers" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_empty_int_list_is_no_entries(self, tmp_path):
        run_ok(["sweep-radius", "--dims", "", "--mu-step", "1", "--out-dir", str(tmp_path)])
        assert (tmp_path / "sweep.csv").read_text().strip() == "d,max_percent_diff"

    @pytest.mark.parametrize("argv, named", [
        (["--epochs", "30", "--learning-rate", "1e200"], "at epoch 0, batch 1"),
        (["--epochs", "30", "--learning-rate", "1e12"], "at epoch 4, batch 0"),
        # one step, then the final encoding overflows
        (["--epochs", "1", "--batch-size", "200", "--learning-rate", "1e200"],
         "non-finite network output"),
    ], ids=["lr-1e200", "lr-1e12", "final-encoding"])
    def test_diverging_train_is_exit_2_without_warnings(self, tmp_path, capsys, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--dataset", "noisy-ring", "--data-n", "200",
                        "--latent-dim", "2", "--auto-n", "--mu", "1", "--lam", "0.1", *argv,
                        "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite") and named in err
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["encode", "decode-components"])
    def test_overflowing_checkpoint_is_exit_2_without_warnings(self, tmp_path, capsys,
                                                               command):
        # the default 2-32-32-2 nets with weights of 1e160 overflow to inf and nan
        encoder = command == "encode"
        last = "identity" if encoder else "sigmoid"
        spec = DenseNetSpec((2, 32, 32, 2), ("leaky-relu", "leaky-relu", last))
        net = DenseNet.initialize(spec, np.random.default_rng(0))
        net.vec *= 1e160
        save_checkpoint(net, tmp_path / "net.bin")
        write_embedding_csv(tmp_path / "emb.csv", np.random.default_rng(1).standard_normal((20, 2)))
        out = tmp_path / "out"
        argv = [] if encoder else ["--input", str(tmp_path / "emb.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([command, *argv, "--checkpoint", str(tmp_path / "net.bin"),
                        "--out-dir", str(out)]) == 2
        assert "numerical failure: non-finite network output" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert list(out.iterdir()) == []  # neither an output nor a manifest

    @pytest.mark.parametrize("argv", [
        ["metrics", "--e1", "{big}", "--e2", "{small}"],
        ["align", "--e1", "{small}", "--e2", "{big}"],
        ["spectrum", "--input", "{big}"],
        ["sample", "--mode", "matched", "--reference", "{big}", "--n", "5", "--dim", "3"],
        ["simulate", "--dim", "3", "--mu", "1", "--auto-n", "--count", "5", "--steps", "2",
         "--step-size", "0.1", "--init-scale", "1e200"],
        ["knn", "--train", "{big}", "--test", "{small}", "--k", "5"],
    ], ids=["metrics", "align", "spectrum", "sample-matched", "simulate", "knn"])
    def test_overflowing_inputs_are_exit_2_without_warnings(self, tmp_path, capsys, argv):
        # squares and covariances of entries near 1e200 overflow: a numerical
        # failure, not values written from inf and nan or a validation error
        rng = np.random.default_rng(0)
        big, small = tmp_path / "big.csv", tmp_path / "small.csv"
        write_embedding_csv(big, 1e200 * rng.standard_normal((20, 3)), np.arange(20) % 2)
        write_embedding_csv(small, rng.standard_normal((20, 3)), np.arange(20) % 2)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([v.format(big=big, small=small) for v in argv]
                       + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert [str(w.message) for w in caught] == []
        assert list(out.iterdir()) == []  # neither an output nor a manifest

    @pytest.mark.parametrize("mu_step", ["5e-324", "1e-300"])
    def test_mu_step_too_small_for_the_grid(self, tmp_path, capsys, mu_step):
        assert run(["sweep-radius", "--dims", "3", "--mu-step", mu_step,
                    "--out-dir", str(tmp_path)]) == 1
        assert f"error: mu_step {mu_step} is too small" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_numerical_failure_is_exit_2(self, tmp_path):
        # a divergent step size must be reported as a numerical failure
        assert run(["simulate", "--dim", "3", "--mu", "1.0", "--auto-n",
                    "--count", "10", "--steps", "200", "--step-size", "1e155",
                    "--seed", "0", "--init-scale", "1e150",
                    "--out-dir", str(tmp_path)]) == 2


def _must_not_run(*args, **kwargs):
    raise AssertionError("computed before the flags were checked")


class TestFlagsCheckedFirst:
    """A bad or missing flag is rejected before any input is read or computed."""

    @pytest.mark.parametrize("argv, patched", [
        (["sweep-radius", "--dims", "3,12,38,117", "--mu-step", "0.05", "--out", "../x.csv"],
         "sweep_radius"),
        (["force-profile", "--mu", "1", "--big-n", "4", "--r-max", "8", "--steps", "5",
          "--out", "../x.csv"], "force_profile"),
    ], ids=["sweep-radius", "force-profile"])
    def test_out(self, tmp_path, capsys, monkeypatch, argv, patched):
        monkeypatch.setattr(radius, patched, _must_not_run)
        assert run(argv + ["--out-dir", str(tmp_path / "run")]) == 1
        assert "error: --out must be a bare file name" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_encode_checkpoint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load_cli_dataset", _must_not_run)
        assert run(["encode", "--out-dir", str(tmp_path)]) == 1
        assert "error: encode requires --checkpoint" in capsys.readouterr().err

    def test_decode_components_checkpoint(self, tmp_path, capsys, monkeypatch):
        emb = tmp_path / "emb.csv"
        write_embedding_csv(emb, np.eye(2))
        monkeypatch.setattr(analysis, "spectrum", _must_not_run)
        assert run(["decode-components", "--input", str(emb),
                    "--out-dir", str(tmp_path / "out")]) == 1
        assert "error: decode-components requires --checkpoint" in capsys.readouterr().err
