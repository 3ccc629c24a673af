import json

import numpy as np
import pytest

import diagram.evaluation as ev
import diagram.model as gm
from diagram.cli import main, parse_config_file, resolve_dataset
from diagram.exceptions import DiagramError
from diagram.model import import_embeddings, load_model
from diagram.nn import save_checkpoint

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

    def test_unknown_name_raises(self, tmp_path):
        with pytest.raises(DiagramError, match="not found"):
            resolve_dataset("ghost", str(tmp_path))


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
                    "--node-epochs", "2", "--out", out, *FAST]) == 0
        emb = import_embeddings(out / "edge_embeddings.tsv")
        assert emb.variant == "edge"
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["auto_node_epochs"] == 2

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
        with pytest.raises(SystemExit) as exc:
            run(["train", "--dataset", dataset_arg, "--variant", "edge",
                 "--no-auto-node", "--out", tmp_path / "x", *FAST])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-auto-node" in capsys.readouterr().err
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
        save_checkpoint(old, {name: np.ascontiguousarray(arr.T) if name in heads else arr
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
        ("", ["--batch-size", "0"], "--batch-size: batch_size must be positive"),
        ("", ["--dropout", "1.5"], "--dropout: dropout must be in [0, 1)"),
        ("lr = nan\nseed = 2\n", [], "learning_rate must be positive and finite"),
        ("", ["--seed", "-1"], "--seed: seed must be >= 0"),
        ("learning_rate = 5\n", [], "unknown key(s) learning_rate"),
        ("trunk =\n", [], "nonempty trunk"),
        ("", ["--trunk", "8,x"], "--trunk: bad trunk '8,x'"),
    ], ids=["uncastable-value", "zero-batch-flag", "dropout-flag", "nan-lr", "negative-seed",
            "unknown-key", "empty-trunk", "uncastable-flag"])
    def test_bad_setting_exits_1_naming_its_source(self, dataset_arg, tmp_path, capsys,
                                                   text, flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run(["train", "--dataset", dataset_arg, "--config", cfg,
                    "--out", tmp_path / "run", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        if text:
            assert str(cfg) in err
        assert not (tmp_path / "run").exists()

    def test_non_utf8_config_exits_1_naming_its_line(self, dataset_arg, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 2\r\nepochs = \xff\n")
        assert run(["train", "--dataset", dataset_arg, "--config", cfg,
                    "--out", tmp_path / "run", *FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: ") and "not UTF-8" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

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
        ("eval linkpred", ["--constructors", "foo"], "unknown edge-feature constructor(s) foo"),
        ("eval linkpred", ["--p", "nan"], "percent=nan is not a finite number"),
        ("eval linkpred", ["--p", "inf"], "percent=inf is not a finite number"),
        ("train", ["--variant", "edge", "--node-epochs", "-1"], "--node-epochs: must be >= 0"),
        ("eval reconstruct", ["--k-list", "5 10,5"], "--k-list: repeated entry 5 in '5 10,5'"),
        ("eval classify", ["--ratios", "10,30,30,50"],
         "--ratios: repeated entry 30 in '10,30,30,50'"),
        ("eval linkpred", ["--constructors", "hadamard,w-l1,hadamard"],
         "--constructors: repeated entry 'hadamard' in 'hadamard,w-l1,hadamard'"),
    ], ids=["empty-k-list", "bad-k", "bad-ratio", "empty-ratios", "zero-repetitions",
            "empty-constructors", "unknown-constructor", "nan-p", "inf-p", "negative-node-epochs",
            "repeated-k", "repeated-ratio", "repeated-constructor"])
    def test_malformed_argument_exits_1_before_any_training(
            self, dataset_arg, trained, tmp_path, capsys, monkeypatch, command, flags, message):
        trainings = []
        for module in (ev, gm):
            for fn in ("train_node_model", "train_edge_model"):
                monkeypatch.setattr(module, fn, lambda *a, fn=fn, **k: trainings.append(fn))
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
        for mode in ("directed", "symmetric"):
            report = json.loads((out / f"linkpred_{mode}.json").read_text())
            assert len(report["table"]) == 4
            plot = (out / f"linkpred_{mode}_plot.csv").read_text().splitlines()
            assert plot[0] == "constructor,mean,std"

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
