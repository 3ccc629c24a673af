import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
import scipy

import diagram.evaluation as ev
import diagram.model as gm
from diagram.cli import main, parse_config_file, resolve_dataset
from diagram.exceptions import DiagramError
from diagram.model import import_embeddings, load_model

from conftest import claim_huge_shape, write_npz

FAST = ["--epochs", "2", "--k", "4", "--trunk", "8,4", "--seed", "3"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset_arg(fixture_dataset):
    content, _ = fixture_dataset
    return str(content)[: -len(".content")]


class TestInfo:
    def test_prints_summary(self, dataset_arg, capsys):
        assert run(["info", "--dataset", dataset_arg]) == 0
        out = capsys.readouterr().out
        assert "nodes          12" in out
        assert "directed edges 20" in out
        assert "label classes  3" in out

    # Two self-loops (a and c cite themselves), a repeated citation, one
    # citing an unknown id, and one count-valued feature.
    ODD_CONTENT = "a 2 0 x\nb 0 1 y\nc 1 1 x\nd 0 0 y\ne 1 0 x\n"
    ODD_CITES = "a a\nb a\nb a\nghost c\nc c\nb c\nb d\ne d\n"

    @pytest.mark.parametrize("content, cites, expected", [
        (ODD_CONTENT, ODD_CITES,
         "dataset t\n"
         "  nodes          5\n"
         "  directed edges 6\n"
         "  feature dim    2 (count)\n"
         "  label classes  2\n"
         "  self loops     2\n"
         "  out degree     mean 1.2 max 2\n"
         "  in degree max  3\n"
         "  edge_direction         citing->cited\n"
         "  dropped_unknown_id_edges 1\n"
         "  deduplicated_edges     1\n"),
        ("a x\nb y\nc x\n", "a b\nb c\n",
         "dataset t\n"
         "  nodes          3\n"
         "  directed edges 2\n"
         "  feature dim    0 (binary)\n"
         "  label classes  2\n"
         "  self loops     0\n"
         "  out degree     mean 0.666667 max 1\n"
         "  in degree max  1\n"
         "  edge_direction         citing->cited\n"
         "  dropped_unknown_id_edges 0\n"
         "  deduplicated_edges     0\n"),
    ], ids=["self-loops-dropped-duplicate", "no-features"])
    def test_prints_every_line(self, tmp_path, capsys, content, cites, expected):
        (tmp_path / "t.content").write_text(content)
        (tmp_path / "t.cites").write_text(cites)
        assert run(["info", "--dataset", tmp_path / "t"]) == 0
        assert capsys.readouterr().out == expected

    def test_missing_dataset_fails_nonzero(self, tmp_path, capsys):
        assert run(["info", "--dataset", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_cites_file_reports_zero_edges(self, tmp_path, capsys):
        content = tmp_path / "t.content"
        cites = tmp_path / "t.cites"
        content.write_text("a 1 x\nb 0 y\n")
        cites.write_text("")
        assert run(["info", "--dataset", str(tmp_path / "t")]) == 0
        assert "directed edges 0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["info"], ["train", "--variant", "node", *FAST]], ids=["info", "train"])
    @pytest.mark.parametrize("cell, message", [
        ("nan", "non-finite feature 'nan'"),
        ("inf", "non-finite feature 'inf'"),
        ("-inf", "non-finite feature '-inf'"),
        ("-1", "negative feature '-1'"),
    ], ids=["nan", "inf", "-inf", "-1"])
    def test_bad_feature_value_exits_1_naming_its_line(self, tmp_path, capsys, recwarn,
                                                       command, cell, message):
        content = tmp_path / "t.content"
        content.write_text(f"a 1 0 x\nb 0 1 y\nc 1 {cell} x\nd 0 0 y\n")
        (tmp_path / "t.cites").write_text("b a\nc b\nd c\na d\n")
        out = tmp_path / "run"
        argv = [command[0], "--dataset", tmp_path / "t", *command[1:]]
        assert run(argv + (["--out", out] if command[0] == "train" else [])) == 1
        err = capsys.readouterr().err
        assert err == f"error: {content}:3: {message}\n"
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("suffix, content, cites, line", [
        (".content", b"a 1 x\nb 0 y\n\xff 1 z\n", b"a b\n", 3),
        (".content", b"a 1 x\r\nb 1\xff y\r\n", b"a b\n", 2),
        (".cites", b"a 1 x\nb 0 y\n", b"a b\r\rb \xffa\n", 3),
    ], ids=["content-id", "content-feature", "cites"])
    def test_non_utf8_byte_exits_1_naming_its_line(self, tmp_path, capsys,
                                                   suffix, content, cites, line):
        (tmp_path / "t.content").write_bytes(content)
        (tmp_path / "t.cites").write_bytes(cites)
        assert run(["info", "--dataset", str(tmp_path / "t")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / ('t' + suffix)}:{line}: ")
        assert "not UTF-8" in err and len(err.splitlines()) == 1


class TestResolveDataset:
    def test_directory_form(self, fixture_dataset):
        content, cites = fixture_dataset
        got_content, got_cites, name = resolve_dataset(str(content.parent))
        assert got_content == content and got_cites == cites and name == "toy"

    def test_named_lookup_under_data_dir(self, fixture_dataset, monkeypatch):
        content, _ = fixture_dataset
        monkeypatch.setenv("DIAGRAM_DATA_DIR", str(content.parent))
        got_content, _, name = resolve_dataset("toy")
        assert got_content == content and name == "toy"

    @pytest.mark.parametrize("files, message", [
        ([], "expected exactly one .content file, found 0"),
        (["a.content", "a.cites", "b.content", "b.cites"],
         "expected exactly one .content file, found 2"),
        (["a.content"], "a.cites missing next to"),
    ], ids=["no-content", "two-contents", "no-cites"])
    def test_directory_without_one_dataset_exits_1(self, fixture_dataset, tmp_path, capsys,
                                                    files, message):
        content, cites = fixture_dataset
        folder = tmp_path / "folder"
        folder.mkdir()
        for name in files:
            source = content if name.endswith(".content") else cites
            (folder / name).write_bytes(source.read_bytes())
        assert run(["info", "--dataset", folder]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1

    def test_unknown_name_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIAGRAM_DATA_DIR", str(tmp_path))
        with pytest.raises(DiagramError, match="not found"):
            resolve_dataset("ghost")

    def test_data_dir_folder_without_one_dataset_exits_1(self, fixture_dataset, tmp_path,
                                                        capsys, monkeypatch):
        # a folder found under $DIAGRAM_DATA_DIR follows the rule of a folder given directly
        content, cites = fixture_dataset
        folder = tmp_path / "data" / "cora"
        folder.mkdir(parents=True)
        for stem in ("cora", "extra"):
            (folder / f"{stem}.content").write_bytes(content.read_bytes())
            (folder / f"{stem}.cites").write_bytes(cites.read_bytes())
        monkeypatch.setenv("DIAGRAM_DATA_DIR", str(tmp_path / "data"))
        monkeypatch.chdir(tmp_path)
        assert run(["info", "--dataset", "cora"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {folder}: expected exactly one .content file, found 2\n"

    @pytest.mark.parametrize("under_data_dir", [False, True], ids=["as-given", "data-dir"])
    def test_prefix_without_cites_exits_1(self, fixture_dataset, tmp_path, capsys,
                                          monkeypatch, under_data_dir):
        content, _ = fixture_dataset
        (tmp_path / "data").mkdir()
        lone = tmp_path / "data" / "lone.content"
        lone.write_bytes(content.read_bytes())
        monkeypatch.setenv("DIAGRAM_DATA_DIR", str(tmp_path / "data"))
        monkeypatch.chdir(tmp_path)
        spec = "lone" if under_data_dir else str(tmp_path / "data" / "lone")
        assert run(["info", "--dataset", spec]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {lone.with_suffix('.cites')} missing next to {lone}\n"

    @pytest.mark.parametrize("under_data_dir", [False, True], ids=["as-given", "data-dir"])
    def test_nested_prefix_is_named_by_its_stem(self, fixture_dataset, tmp_path,
                                                monkeypatch, under_data_dir):
        content, cites = fixture_dataset
        (tmp_path / "data" / "sub").mkdir(parents=True)
        for path in (content, cites):
            (tmp_path / "data" / "sub" / f"cora{path.suffix}").write_bytes(path.read_bytes())
        monkeypatch.setenv("DIAGRAM_DATA_DIR", str(tmp_path / "data"))
        monkeypatch.chdir(tmp_path if under_data_dir else tmp_path / "data")
        got_content, got_cites, name = resolve_dataset("sub/cora")
        assert got_content.samefile(tmp_path / "data" / "sub" / "cora.content")
        assert got_cites == got_content.with_suffix(".cites") and name == "cora"

    def test_data_dir_flag_is_unknown(self, dataset_arg, capsys):
        # the data directory comes from $DIAGRAM_DATA_DIR, or --dataset names it
        with pytest.raises(SystemExit) as exc:
            run(["info", "--dataset", dataset_arg, "--data-dir", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --data-dir x" in capsys.readouterr().err


class TestTrain:
    def test_node_training_writes_artifacts(self, dataset_arg, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--dataset", dataset_arg, "--variant", "node",
                    "--out", out, *FAST]) == 0
        assert (out / "node_checkpoint.npz").exists()
        assert (out / "node_embeddings.tsv").exists()
        trace = (out / "node_loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,mean_loss"
        assert len(trace) == 3
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["seed"] == 3 and cfg["variant"] == "node"
        assert "dataset_fingerprint" in cfg and "config_fingerprint" in cfg

    def test_same_seed_byte_identical_embeddings(self, dataset_arg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["train", "--dataset", dataset_arg, "--out", out1, *FAST])
        run(["train", "--dataset", dataset_arg, "--out", out2, *FAST])
        assert ((out1 / "node_embeddings.tsv").read_bytes()
                == (out2 / "node_embeddings.tsv").read_bytes())

    def test_edge_variant_auto_chains_node_model(self, dataset_arg, tmp_path):
        out = tmp_path / "edge"
        assert run(["train", "--dataset", dataset_arg, "--variant", "edge",
                    "--out", out, *FAST]) == 0
        emb = import_embeddings(out / "edge_embeddings.tsv")
        assert emb.variant == "edge"
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["auto_node_epochs"] == 30

    def test_auto_chain_matches_node_checkpoint_then_transfer(self, dataset_arg, tmp_path):
        # the auto-chained node stage runs 30 epochs; the same count trained
        # as a node run, saved and loaded back, gives the same edge model
        auto, node, edge = tmp_path / "auto", tmp_path / "node", tmp_path / "edge"
        assert run(["train", "--dataset", dataset_arg, "--variant", "edge",
                    "--out", auto, *FAST]) == 0
        assert run(["train", "--dataset", dataset_arg, "--variant", "node",
                    "--out", node, *FAST, "--epochs", "30"]) == 0
        assert run(["train", "--dataset", dataset_arg, "--variant", "edge",
                    "--transfer-from", node / "node_checkpoint.npz",
                    "--out", edge, *FAST]) == 0
        assert ((auto / "edge_embeddings.tsv").read_bytes()
                == (edge / "edge_embeddings.tsv").read_bytes())
        got = load_model(edge / "edge_checkpoint.npz")[0].parameters()
        want = load_model(auto / "edge_checkpoint.npz")[0].parameters()
        assert sorted(got) == sorted(want)
        for name, arr in want.items():
            assert got[name].tobytes() == arr.tobytes(), name

    def test_edge_variant_on_edgeless_graph_fails_before_training(
            self, fixture_dataset, tmp_path, capsys, monkeypatch):
        content, _ = fixture_dataset
        (tmp_path / "bare.content").write_text(content.read_text())
        (tmp_path / "bare.cites").write_text("")
        steps = []
        monkeypatch.setattr(gm.DiagramModel, "zero_grad", lambda self: steps.append(self))
        assert run(["train", "--dataset", tmp_path / "bare", "--variant", "edge",
                    "--out", tmp_path / "run", *FAST]) == 1
        assert capsys.readouterr().err == "error: edge model needs at least one edge\n"
        assert steps == []

    def test_ids_with_unicode_spaces_survive_the_text_embeddings(self, fixture_dataset,
                                                                tmp_path):
        # the loader splits on ASCII whitespace only, so each of these is one id
        renamed = {"p3": "paper\xa03", "p5": "x\u20285", "p7": "w\u30007"}
        prefix = tmp_path / "uni"
        for path in fixture_dataset:
            rows = (" ".join(renamed.get(t, t) for t in ln.split())
                    for ln in path.read_text().splitlines())
            prefix.with_suffix(path.suffix).write_text("\n".join(rows) + "\n", encoding="utf-8")
        emb = tmp_path / "run" / "node_embeddings.tsv"
        assert run(["train", "--dataset", prefix, "--out", emb.parent, *FAST]) == 0
        assert set(renamed.values()) <= set(import_embeddings(emb).node_ids)
        assert run(["eval", "classify", "--dataset", prefix, "--repetitions", "1",
                    "--embeddings", emb, "--out", tmp_path / "cls"]) == 0

    def test_no_auto_node_flag_is_unknown(self, dataset_arg, tmp_path, capsys):
        # the auto-chain's node stage has no flag: it always runs 30 epochs
        for flags in (["--no-auto-node"], ["--node-epochs", "3"]):
            with pytest.raises(SystemExit) as exc:
                run(["train", "--dataset", dataset_arg, "--variant", "edge",
                     *flags, "--out", tmp_path / "x", *FAST])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_transfer_from_checkpoint(self, dataset_arg, tmp_path):
        node_out = tmp_path / "node"
        run(["train", "--dataset", dataset_arg, "--out", node_out, *FAST])
        edge_out = tmp_path / "edge"
        assert run(["train", "--dataset", dataset_arg, "--variant", "edge",
                    "--transfer-from", node_out / "node_checkpoint.npz",
                    "--out", edge_out, *FAST]) == 0
        assert (edge_out / "edge_embeddings.tsv").exists()

    def test_transfer_from_out_in_checkpoint_keeps_its_parameters(self, dataset_arg,
                                                                  tmp_path):
        # a checkpoint with every weight stored (out, in), written without
        # save_model; zero edge epochs leave the transferred parameters as loaded
        node_out = tmp_path / "node"
        assert run(["train", "--dataset", dataset_arg, "--out", node_out, *FAST]) == 0
        model, meta = load_model(node_out / "node_checkpoint.npz")
        heads = {"content_head.W", "directed_head.W"}
        old = tmp_path / "old.npz"
        write_npz(old, {name: np.ascontiguousarray(arr.T) if name in heads else arr
                        for name, arr in model.parameters().items()}, meta)
        edge_out = tmp_path / "edge"
        assert run(["train", "--dataset", dataset_arg, "--variant", "edge",
                    "--transfer-from", old, "--out", edge_out, *FAST,
                    "--epochs", "0"]) == 0
        edge, _ = load_model(edge_out / "edge_checkpoint.npz")
        for name, arr in model.parameters().items():
            assert edge.parameters()[name].tobytes() == arr.tobytes(), name

    def test_transfer_from_other_dataset_is_refused(self, fixture_dataset, dataset_arg,
                                                    tmp_path, capsys):
        content, cites = fixture_dataset
        other = tmp_path / "other"  # same nodes and features, one citation fewer
        other.with_suffix(".content").write_text(content.read_text())
        other.with_suffix(".cites").write_text(
            "".join(cites.read_text().splitlines(keepends=True)[1:]))
        node_out = tmp_path / "node"
        assert run(["train", "--dataset", other, "--out", node_out, *FAST]) == 0
        ret = run(["train", "--dataset", dataset_arg, "--variant", "edge",
                   "--transfer-from", node_out / "node_checkpoint.npz",
                   "--out", tmp_path / "edge", *FAST])
        assert ret == 1
        assert "fingerprint" in capsys.readouterr().err
        assert not (tmp_path / "edge" / "edge_checkpoint.npz").exists()

    def test_transfer_from_edge_checkpoint_is_refused(self, dataset_arg, tmp_path, capsys):
        edge_out = tmp_path / "edge"
        assert run(["train", "--dataset", dataset_arg, "--variant", "edge",
                    "--out", edge_out, *FAST]) == 0
        capsys.readouterr()
        ckpt = edge_out / "edge_checkpoint.npz"
        assert run(["train", "--dataset", dataset_arg, "--variant", "edge",
                    "--transfer-from", ckpt, "--out", tmp_path / "again", *FAST]) == 1
        assert capsys.readouterr().err == (f"error: --transfer-from: {ckpt} holds an edge "
                                           "model, not a node model\n")
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("features, mode", [("binary", "count"), ("tfidf", "tfidf")])
    def test_run_config_records_the_features_mode(self, tmp_path, features, mode):
        # the first node's feature 2 makes the dataset count-valued
        (tmp_path / "t.content").write_text("a 2 0 x\nb 0 1 y\nc 1 1 x\nd 0 0 y\n")
        (tmp_path / "t.cites").write_text("b a\nc b\nd c\na d\n")
        out = tmp_path / "run"
        assert run(["train", "--dataset", tmp_path / "t", "--features", features,
                    "--out", out, *FAST]) == 0
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["feature_mode"] == mode
        assert cfg["dataset_fingerprint"] == import_embeddings(
            out / "node_embeddings.tsv").fingerprint

    def test_run_config_records_the_numeric_environment(self, dataset_arg, tmp_path,
                                                        monkeypatch):
        out = tmp_path / "run"
        assert run(["train", "--dataset", dataset_arg, "--out", out, *FAST]) == 0
        cfg = json.loads((out / "run_config.json").read_text())
        env = cfg.pop("numeric_environment")
        assert load_model(out / "node_checkpoint.npz")[1]["run_config"]["numeric_environment"] \
            == env
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
        if tuple(int(p) for p in np.__version__.split(".")[:2]) >= (1, 25):
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert (env["blas"], env["blas_version"]) == (blas["name"], blas["version"])
        else:
            assert env["blas"] is None and env["blas_version"] is None
        # the fingerprint hashes the configuration, not the environment
        fingerprint = cfg.pop("config_fingerprint")
        assert fingerprint == hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest()

        # numpy before 1.25 has show_config() with no mode: the BLAS reads null
        monkeypatch.setattr(np, "show_config", lambda: None)
        old = tmp_path / "old"
        assert run(["train", "--dataset", dataset_arg, "--out", old, *FAST]) == 0
        old_cfg = json.loads((old / "run_config.json").read_text())
        assert old_cfg["numeric_environment"] == {**env, "blas": None, "blas_version": None}
        assert old_cfg["config_fingerprint"] == fingerprint
        assert (old / "node_embeddings.tsv").read_bytes() == \
            (out / "node_embeddings.tsv").read_bytes()

    # numpy refuses 10**18 before any allocation; never test a size the OS might grant
    @pytest.mark.parametrize("flag, value, reason", [
        ("--k", "9" * 400, "int too large to convert to float"),
        ("--trunk", str(10**18), "array is too big"),
    ], ids=["k-400-nines", "trunk-1e18"])
    def test_layer_size_too_large_is_one_error_line(self, dataset_arg, tmp_path, capsys,
                                                    flag, value, reason):
        assert run(["train", "--dataset", dataset_arg, "--out", tmp_path / "run",
                    *FAST, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot build a model with n=12, d=") and reason in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_binary_format(self, dataset_arg, tmp_path):
        out = tmp_path / "bin"
        run(["train", "--dataset", dataset_arg, "--format", "binary",
             "--out", out, *FAST])
        emb = import_embeddings(out / "node_embeddings.bin")
        assert emb.n == 12 and emb.k == 4


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, dataset_arg, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\nseed = 9\nlr = 0.001  # comment\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"epochs": "5", "seed": "9", "lr": "0.001"}

        out = tmp_path / "run"
        assert run(["train", "--dataset", dataset_arg, "--config", cfg,
                    "--epochs", "2", "--k", "4", "--trunk", "8,4",
                    "--out", out]) == 0
        written = json.loads((out / "run_config.json").read_text())
        assert written["epochs"] == 2      # flag wins
        assert written["seed"] == 9        # file wins over default
        assert written["learning_rate"] == 0.001

    @pytest.mark.parametrize("text, flags, message", [
        ("epochs = ten\n", [], "bad epochs 'ten'"),
        ("", ["--batch-size", "0"], "--batch-size: batch_size must be >= 1, got 0"),
        ("", ["--dropout", "1.5"], "--dropout: dropout must be in [0, 1)"),
        ("lr = nan\nseed = 2\n", [], "learning_rate must be positive and finite"),
        ("", ["--seed", "-1"], "--seed: seed must be >= 0"),
        ("learning_rate = 5\n", [], "unknown key(s) learning_rate"),
        ("trunk =\n", [], "trunk_dims must not be empty"),
        ("", ["--trunk", "8,x"], "--trunk: bad trunk '8,x'"),
        ("", ["--epochs", "x"], "--epochs: bad epochs 'x'"),
        ("", ["--lr", "x"], "--lr: bad lr 'x'"),
        ("epochs = 1\nseed = 2\nepochs = 0\n", [], ":3: repeated key 'epochs'"),
        ("", ["--epochs", "-1"], "--epochs: epochs must be >= 0"),
        ("", ["--mu", "1"], "--mu: mu must be > 1 and finite"),
    ], ids=["uncastable-value", "zero-batch-flag", "dropout-flag", "nan-lr", "negative-seed",
            "unknown-key", "empty-trunk", "uncastable-flag", "uncastable-epochs-flag",
            "uncastable-lr-flag", "repeated-key", "negative-epochs-flag", "mu-1-flag"])
    def test_bad_setting_exits_1_naming_its_source(self, dataset_arg, tmp_path, capsys,
                                                   text, flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run(["train", "--dataset", dataset_arg, "--config", cfg,
                    "--out", tmp_path / "run", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
        if text:
            assert str(cfg) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("stem, flags, text, want", [
        ("toy", [], "", 0.2),
        ("CiteSeer-mini", [], "", 0.1),
        ("my_citeseer", [], "", 0.1),
        ("CITESEER", ["--dropout", "0.3"], "", 0.3),
        ("citeseer", [], "dropout = 0.05\n", 0.05),
        ("toy", [], "dropout = 0\n", 0.0),
    ], ids=["other-name", "mixed-case", "lower-case", "flag-overrides", "file-overrides",
            "file-sets-zero"])
    def test_dropout_default_follows_the_dataset_name(self, fixture_dataset, tmp_path,
                                                      stem, flags, text, want):
        for path in fixture_dataset:
            (tmp_path / (stem + path.suffix)).write_bytes(path.read_bytes())
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert run(["train", "--dataset", tmp_path / stem, "--config", cfg, "--out", out,
                    *FAST, *flags]) == 0
        written = json.loads((out / "run_config.json").read_text())
        assert written["dataset"] == stem and written["dropout"] == want

    def test_non_utf8_config_exits_1_naming_its_line(self, dataset_arg, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 2\r\nepochs = \xff\n")
        assert run(["train", "--dataset", dataset_arg, "--config", cfg,
                    "--out", tmp_path / "run", *FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: ") and "not UTF-8" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_comment_and_blank_lines_are_skipped(self, dataset_arg, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a run\n\nepochs = 3  # short\n   \n  # k = 9\nseed=4\n")
        assert parse_config_file(cfg) == {"epochs": "3", "seed": "4"}
        out = tmp_path / "run"
        assert run(["train", "--dataset", dataset_arg, "--config", cfg, "--k", "4",
                    "--trunk", "8,4", "--out", out]) == 0
        written = json.loads((out / "run_config.json").read_text())
        assert (written["epochs"], written["seed"], written["embedding_dim"]) == (3, 4, 4)

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs\n")
        with pytest.raises(DiagramError, match=":1:"):
            parse_config_file(cfg)


class TestExportAndEval:
    @pytest.fixture
    def trained(self, dataset_arg, tmp_path):
        out = tmp_path / "train"
        run(["train", "--dataset", dataset_arg, "--variant", "node",
             "--out", out, *FAST])
        return out

    def test_export_matches_training_output(self, dataset_arg, trained, tmp_path):
        target = tmp_path / "re.tsv"
        assert run(["export", "--dataset", dataset_arg,
                    "--checkpoint", trained / "node_checkpoint.npz",
                    "--out", target]) == 0
        a = import_embeddings(target)
        b = import_embeddings(trained / "node_embeddings.tsv")
        assert np.array_equal(a.z, b.z)

    def _with_meta(self, trained, tmp_path, **changes):
        """The trained node checkpoint rewritten with ``changes`` to its meta;
        a None value deletes the key."""
        with np.load(trained / "node_checkpoint.npz") as npz:
            arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
            meta = json.loads(npz["__meta__"].tobytes())
        meta = {k: v for k, v in {**meta, **changes}.items() if v is not None}
        path = tmp_path / "changed.npz"
        write_npz(path, arrays, meta)
        return path

    @pytest.mark.parametrize("variant, fmt", [([1, 2], "text"), ("my variant", "text"),
                                              ("my variant", "binary")],
                             ids=["list", "string", "string-binary"])
    def test_export_refuses_an_unknown_checkpoint_variant(self, dataset_arg, trained,
                                                          tmp_path, capsys, variant, fmt):
        ckpt = self._with_meta(trained, tmp_path, variant=variant)
        target = tmp_path / "re.out"
        assert run(["export", "--dataset", dataset_arg, "--checkpoint", ckpt,
                    "--format", fmt, "--out", target]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: unknown variant ") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not target.exists()

    def test_export_of_a_checkpoint_without_variant_gives_node_embeddings(
            self, dataset_arg, trained, tmp_path):
        target = tmp_path / "re.tsv"
        assert run(["export", "--dataset", dataset_arg, "--out", target, "--checkpoint",
                    self._with_meta(trained, tmp_path, variant=None)]) == 0
        assert target.read_bytes() == (trained / "node_embeddings.tsv").read_bytes()

    def test_eval_reconstruct_writes_reports(self, dataset_arg, trained,
                                             tmp_path, capsys):
        out = tmp_path / "eval"
        assert run(["eval", "reconstruct", "--dataset", dataset_arg,
                    "--embeddings", trained / "node_embeddings.tsv",
                    "--k-list", "5,20", "--out", out]) == 0
        report = json.loads((out / "reconstruct.json").read_text())
        assert [row["K"] for row in report["table"]] == [5, 20]
        csv_lines = (out / "reconstruct.csv").read_text().splitlines()
        assert csv_lines[0] == "K,precision"
        assert "precision" in capsys.readouterr().out

    def test_eval_rejects_mismatched_dataset(self, trained, tmp_path, capsys):
        content = tmp_path / "other.content"
        cites = tmp_path / "other.cites"
        content.write_text("\n".join(f"q{i} 1 0 lab" for i in range(12)) + "\n")
        cites.write_text("q0 q1\n")
        ret = run(["eval", "reconstruct",
                   "--dataset", str(tmp_path / "other"),
                   "--embeddings", trained / "node_embeddings.tsv",
                   "--k-list", "5", "--out", tmp_path / "e"])
        assert ret == 1
        assert "fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("command", [["eval", "classify", "--repetitions", "1"],
                                         ["eval", "reconstruct", "--k-list", "5"]],
                             ids=["classify", "reconstruct"])
    def test_eval_refuses_embeddings_in_another_node_order(self, dataset_arg, trained,
                                                          tmp_path, capsys, fmt, command):
        # the rows reversed under the same header, fingerprint included
        header, *rows = (trained / "node_embeddings.tsv").read_text().splitlines(keepends=True)
        path = tmp_path / "reversed.tsv"
        path.write_text(header + "".join(reversed(rows)))
        if fmt == "binary":
            path = tmp_path / "reversed.bin"
            gm.export_embeddings(import_embeddings(tmp_path / "reversed.tsv"), path, fmt)
        assert run([*command, "--dataset", dataset_arg, "--embeddings", path,
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: embeddings {path}: node ids are not the dataset's node ids "
                       "in the dataset's order\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("command", [["eval", "classify", "--repetitions", "1"],
                                         ["eval", "reconstruct", "--k-list", "5"]],
                             ids=["classify", "reconstruct"])
    def test_eval_refuses_non_finite_embeddings(self, dataset_arg, trained, tmp_path,
                                                capsys, fmt, command):
        emb = import_embeddings(trained / "node_embeddings.tsv")
        if fmt == "text":
            emb.z[4, 1] = np.nan  # one value
        else:
            emb.o[4:] = np.nan  # every out entry from node 4 on
        path = tmp_path / f"bad.{fmt}"
        gm.export_embeddings(emb, path, fmt)
        assert run([*command, "--dataset", dataset_arg, "--embeddings", path,
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: non-finite value for node {emb.node_ids[4]!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["eval", "classify", "--repetitions", "1"],
                                         ["eval", "reconstruct", "--k-list", "5"]],
                             ids=["classify", "reconstruct"])
    def test_eval_refuses_zero_rows_with_huge_k(self, dataset_arg, tmp_path, capsys,
                                                command):
        path = tmp_path / "empty.tsv"
        path.write_text("DIAGRAM v1 0 99999999999999999999 node -\n")
        assert run([*command, "--dataset", dataset_arg, "--embeddings", path,
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: header n=0, k=99999999999999999999: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("command", [["eval", "classify", "--repetitions", "1"],
                                         ["eval", "reconstruct", "--k-list", "5"]],
                             ids=["classify", "reconstruct"])
    def test_eval_accepts_embeddings_without_fingerprint_in_dataset_order(
            self, dataset_arg, trained, tmp_path, capsys, fmt, command):
        # embeddings made outside the CLI: no fingerprint, text header field "-"
        emb = dataclasses.replace(import_embeddings(trained / "node_embeddings.tsv"),
                                  fingerprint="")
        path = tmp_path / f"plain.{fmt}"
        gm.export_embeddings(emb, path, fmt)
        if fmt == "text":
            assert path.read_text().split("\n", 1)[0].endswith(" -")
        assert run([*command, "--dataset", dataset_arg, "--embeddings", path,
                    "--out", tmp_path / "o"]) == 0
        back = gm.EmbeddingSet(emb.z[::-1], emb.o[::-1], emb.i[::-1], emb.node_ids[::-1],
                               emb.variant, "")
        gm.export_embeddings(back, path, fmt)
        assert run([*command, "--dataset", dataset_arg, "--embeddings", path,
                    "--out", tmp_path / "o2"]) == 1
        assert "node ids are not the dataset's node ids" in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()

    @pytest.mark.parametrize("command", [["eval", "classify", "--repetitions", "1"],
                                         ["eval", "reconstruct", "--k-list", "5"]],
                             ids=["classify", "reconstruct"])
    def test_eval_refuses_an_entry_claiming_more_than_memory(self, dataset_arg, trained,
                                                             tmp_path, capsys, command):
        path = tmp_path / "huge.bin"
        gm.export_embeddings(import_embeddings(trained / "node_embeddings.tsv"), path,
                             "binary")
        claim_huge_shape(path, "z")
        assert run([*command, "--dataset", dataset_arg, "--embeddings", path,
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read binary embedding file {path}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("claim", ["entry", "header"])
    def test_export_refuses_a_checkpoint_claiming_more_than_memory(self, dataset_arg, trained,
                                                                   tmp_path, capsys, claim):
        if claim == "entry":
            ckpt = self._with_meta(trained, tmp_path)
            claim_huge_shape(ckpt, "embed.W")
            message = f"error: cannot read checkpoint {ckpt}: "
        else:
            ckpt = self._with_meta(trained, tmp_path, node_count=10**15)
            message = f"error: {ckpt}: bad model header: "
        target = tmp_path / "re.tsv"
        assert run(["export", "--dataset", dataset_arg, "--checkpoint", ckpt,
                    "--out", target]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not target.exists()

    def test_eval_classify_writes_reports(self, dataset_arg, trained, tmp_path):
        out = tmp_path / "cls"
        assert run(["eval", "classify", "--dataset", dataset_arg,
                    "--embeddings", trained / "node_embeddings.tsv",
                    "--ratios", "50", "--repetitions", "2",
                    "--out", out]) == 0
        report = json.loads((out / "classify.json").read_text())
        assert report["table"][0]["train_ratio"] == 50.0
        assert (out / "classify.csv").exists()

    def test_eval_classify_ratio_1_is_one_percent(self, dataset_arg, trained, tmp_path):
        out = tmp_path / "cls"
        assert run(["eval", "classify", "--dataset", dataset_arg,
                    "--embeddings", trained / "node_embeddings.tsv",
                    "--ratios", "1", "--repetitions", "2", "--out", out]) == 0
        report = json.loads((out / "classify.json").read_text())
        assert report["table"][0]["train_ratio"] == 1.0

    @pytest.mark.parametrize("command, flags, message", [
        ("eval reconstruct", ["--k-list", ""], "--k-list: empty list"),
        ("eval reconstruct", ["--k-list", "10,abc"], "--k-list: bad entry in '10,abc'"),
        ("eval classify", ["--ratios", "x"], "--ratios: bad entry in 'x'"),
        ("eval classify", ["--ratios", ""], "--ratios: empty list"),
        ("eval classify", ["--repetitions", "0"], "repetitions must be >= 1, got 0"),
        ("eval linkpred", ["--constructors", ""], "--constructors: empty list"),
        ("eval linkpred", ["--constructors", "foo"],
         "unknown edge-feature constructor 'foo' (accepted: average hadamard w-l1 w-l2)"),
        ("eval linkpred", ["--p", "nan"], "percent=nan is not a finite number"),
        ("eval linkpred", ["--p", "inf"], "percent=inf is not a finite number"),
        ("eval linkpred", ["--p", "1e308"], "percent=1e+308 is not in (0, 100]"),
        ("eval reconstruct", ["--k-list", "5 10,5"], "--k-list: repeated entry 5 in '5 10,5'"),
        ("eval classify", ["--ratios", "10,30,30,50"],
         "--ratios: repeated entry 30 in '10,30,30,50'"),
        ("eval linkpred", ["--constructors", "hadamard,w-l1,hadamard"],
         "--constructors: repeated entry 'hadamard' in 'hadamard,w-l1,hadamard'"),
        ("eval linkpred", ["--constructors", "hadamard,HADAMARD"],
         "--constructors: repeated entry 'hadamard' in 'hadamard,HADAMARD'"),
        # the checkpoint does not exist: the flag is refused before it is opened
        ("train", ["--transfer-from", "missing.npz"],
         "--transfer-from: applies to --variant edge only"),
        ("eval classify", ["--repetitions", "x"], "--repetitions: bad repetitions 'x'"),
        ("eval classify", ["--seed", "x"], "--seed: bad seed 'x'"),
        ("eval classify", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("eval linkpred", ["--p", "x"], "--p: bad p 'x'"),
    ], ids=["empty-k-list", "bad-k", "bad-ratio", "empty-ratios", "zero-repetitions",
            "empty-constructors", "unknown-constructor", "nan-p", "inf-p", "huge-p",
            "repeated-k", "repeated-ratio", "repeated-constructor", "mixed-case-constructor",
            "node-transfer-from", "bad-repetitions", "bad-classify-seed",
            "negative-classify-seed", "bad-p"])
    def test_malformed_argument_exits_1_before_any_training(
            self, dataset_arg, trained, tmp_path, capsys, monkeypatch, command, flags, message):
        trainings = []
        for module in (ev, gm):
            for fn in ("train_node_model", "train_edge_model"):
                monkeypatch.setattr(module, fn, lambda *a, fn=fn, **k: trainings.append(fn))
        monkeypatch.setattr(ev, "logistic_regression_fit", lambda *a: trainings.append("fit"))
        extra = (["--embeddings", trained / "node_embeddings.tsv"]
                 if command in ("eval reconstruct", "eval classify") else FAST)
        assert run([*command.split(), "--dataset", dataset_arg, "--out", tmp_path / "o",
                    *extra, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err and "Traceback" not in err
        assert trainings == [] and not (tmp_path / "o").exists()

    def test_eval_linkpred_full_protocol(self, dataset_arg, tmp_path):
        out = tmp_path / "lp"
        assert run(["eval", "linkpred", "--dataset", dataset_arg,
                    "--p", "15", "--mode", "both", "--out", out, *FAST]) == 0
        # each mode writes its report's two files, as every eval command does
        assert sorted(p.name for p in out.iterdir()) == [
            f"linkpred_{mode}.{ext}" for mode in ("directed", "symmetric")
            for ext in ("csv", "json")]
        for mode in ("directed", "symmetric"):
            report = json.loads((out / f"linkpred_{mode}.json").read_text())
            assert len(report["table"]) == 4

    def test_eval_linkpred_node_variant_trains_the_node_model(self, dataset_arg, tmp_path,
                                                              monkeypatch):
        trained = []
        for fn in ("train_node_model", "train_edge_model"):
            real = getattr(ev, fn)
            monkeypatch.setattr(ev, fn, lambda *a, fn=fn, real=real, **k:
                                trained.append(fn) or real(*a, **k))
        out = tmp_path / "lp"
        assert run(["eval", "linkpred", "--dataset", dataset_arg, "--p", "15",
                    "--variant", "node", "--constructors", "hadamard", "--out", out,
                    *FAST]) == 0
        assert trained == ["train_node_model"]
        report = json.loads((out / "linkpred_directed.json").read_text())
        assert report["config"]["variant"] == "node" and len(report["table"]) == 1
        assert report["config"]["train"]["transfer_from"] is False
        assert report["config"]["train"]["epochs"] == 2

    def test_eval_linkpred_deterministic_files(self, dataset_arg, tmp_path):
        args = ["eval", "linkpred", "--dataset", dataset_arg, "--p", "15",
                "--constructors", "hadamard", *FAST]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        assert ((out1 / "linkpred_directed.json").read_bytes()
                == (out2 / "linkpred_directed.json").read_bytes())

    def test_tfidf_feature_mode(self, dataset_arg, tmp_path):
        out = tmp_path / "tfidf"
        assert run(["train", "--dataset", dataset_arg, "--features", "tfidf",
                    "--out", out, *FAST]) == 0
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["feature_mode"] == "tfidf"
