"""Command-line entry point: info / train / export / eval subcommands.

Configuration precedence is flags > config file (flat ``key = value``
lines) > built-in defaults. The default data directory comes from the
``DIAGRAM_DATA_DIR`` environment variable; ``--dataset`` also accepts a
directory or a ``<prefix>`` such that ``<prefix>.content`` and
``<prefix>.cites`` exist. Every artifact embeds the resolved config and
seed, so a run can be reproduced from its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import data as gdata
from . import evaluation as ev
from . import model as gm
from .exceptions import DiagramError

DATA_DIR_ENV = "DIAGRAM_DATA_DIR"
# The keys a --config file may set, each with a flag of the same name, mapped
# to the TrainConfig field it sets and the parser of its value.
CONFIG_KEYS = {
    "trunk": ("trunk_dims", lambda raw: tuple(int(t) for t in raw.replace(",", " ").split())),
    "epochs": ("epochs", int),
    "batch_size": ("batch_size", int),
    "lr": ("learning_rate", float),
    "dropout": ("dropout", float),
    "mu": ("mu", float),
    "seed": ("seed", int),
    "k": ("embedding_dim", int),
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError as exc:
            raise DiagramError(f"{path}:{lineno}: line is not UTF-8: {raw!r}") from exc
        if not line:
            continue
        if "=" not in line:
            raise DiagramError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def resolve_dataset(spec: str, data_dir: str | None = None):
    """Map a dataset argument to (content_path, cites_path, name)."""
    cand = Path(spec)
    if cand.is_dir():
        contents = sorted(cand.glob("*.content"))
        if len(contents) != 1:
            raise DiagramError(
                f"{spec}: expected exactly one .content file, found {len(contents)}"
            )
        content = contents[0]
        cites = content.with_suffix(".cites")
        if not cites.exists():
            raise DiagramError(f"{cites} missing next to {content}")
        return content, cites, content.stem
    if Path(str(spec) + ".content").exists():
        return Path(str(spec) + ".content"), Path(str(spec) + ".cites"), cand.name
    base = Path(data_dir or os.environ.get(DATA_DIR_ENV, "."))
    for prefix in (base / spec / spec, base / spec):
        content = Path(str(prefix) + ".content")
        cites = Path(str(prefix) + ".cites")
        if content.exists() and cites.exists():
            return content, cites, spec
    raise DiagramError(
        f"dataset {spec!r} not found (looked under {base}; set {DATA_DIR_ENV} "
        "or pass a directory / file prefix)"
    )


def load_dataset(args):
    content, cites, name = resolve_dataset(args.dataset, getattr(args, "data_dir", None))
    graph, features, labels = gdata.load_citation_dataset(content, cites)
    if args.features == "tfidf":
        features = gdata.compute_tfidf(features)
    return graph, features, labels, name


def _default_dropout(name: str) -> float:
    return 0.1 if "citeseer" in name.lower() else 0.2


def _list_arg(flag: str, text, cast=str) -> list:
    """``text`` split at commas and spaces into a nonempty list of distinct ``cast`` entries."""
    try:
        items = [cast(tok) for tok in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise DiagramError(f"{flag}: bad entry in {text!r}: {exc}") from exc
    if not items:
        raise DiagramError(f"{flag}: empty list")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise DiagramError(f"{flag}: repeated entry {item!r} in {text!r}")
    return items


def build_train_config(args, name: str) -> gm.TrainConfig:
    """Settings by precedence: flag, then ``--config`` file, then TrainConfig's default."""
    path = getattr(args, "config", None)
    file_cfg = parse_config_file(path) if path else {}
    unknown = sorted(set(file_cfg) - set(CONFIG_KEYS))
    if unknown:
        raise DiagramError(f"{path}: unknown key(s) {', '.join(unknown)} "
                           f"(accepted: {' '.join(CONFIG_KEYS)})")
    settings = {"dropout": _default_dropout(name)}
    origins = []  # where each given setting came from
    for key, (name_in_cfg, parse) in CONFIG_KEYS.items():
        if getattr(args, key, None) is not None:
            origin, raw = "--" + key.replace("_", "-"), getattr(args, key)
        elif key in file_cfg:
            origin, raw = str(path), file_cfg[key]
        else:
            continue
        origins.append(origin)
        try:
            settings[name_in_cfg] = parse(raw)
        except ValueError as exc:
            raise DiagramError(f"{origin}: bad {key} {raw!r}: {exc}") from exc
    try:
        return gm.TrainConfig(**settings)
    except ValueError as exc:
        raise DiagramError(f"{', '.join(dict.fromkeys(origins))}: {exc}") from exc


def _config_fingerprint(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


# -- commands -----------------------------------------------------------------


def cmd_info(args) -> int:
    graph, features, labels, name = load_dataset(args)
    s = gdata.dataset_summary(graph, features, labels)
    print(f"dataset {name}")
    print(f"  nodes          {s.node_count}")
    print(f"  directed edges {s.edge_count}")
    print(f"  feature dim    {s.feature_dim} ({s.feature_mode})")
    print(f"  label classes  {s.n_classes}")
    print(f"  self loops     {s.self_loops}")
    print(f"  out degree     mean {_fmt(s.mean_out_degree)} max {s.max_out_degree}")
    print(f"  in degree max  {s.max_in_degree}")
    for key in ("edge_direction", "dropped_unknown_id_edges", "deduplicated_edges"):
        print(f"  {key:<22} {graph.metadata.get(key)}")
    return 0


def _load_checkpoint(path, graph, features):
    """A model checkpoint and its meta, refused unless trained on this dataset."""
    model, meta = gm.load_model(path)
    gdata.check_same_dataset(meta.get("dataset_fingerprint"), graph, features,
                             f"checkpoint {path}")
    return model, meta


def cmd_train(args) -> int:
    graph, features, labels, name = load_dataset(args)
    cfg = build_train_config(args, name)
    if args.node_epochs is not None and args.node_epochs < 0:
        raise DiagramError(f"--node-epochs: must be >= 0, got {args.node_epochs}")
    provenance = {}  # where the edge model's starting node model came from
    if args.variant == "edge" and args.transfer_from is not None:
        cfg = replace(cfg, transfer_from=_load_checkpoint(args.transfer_from, graph, features)[0])
        provenance["transfer_from"] = args.transfer_from
    elif args.variant == "edge":
        provenance["auto_node_epochs"] = (gm.DEFAULT_NODE_EPOCHS if args.node_epochs is None
                                          else args.node_epochs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = (gm.train_node_model(graph, features, cfg) if args.variant == "node"
              else gm.train_edge_model(graph, features, cfg, args.node_epochs))

    fingerprint = gdata.dataset_fingerprint(graph, features)
    run_cfg = {
        "dataset": name,
        "feature_mode": args.features,
        "variant": args.variant,
        "dataset_fingerprint": fingerprint,
        **result.config,
        **provenance,
    }
    run_cfg["config_fingerprint"] = _config_fingerprint(run_cfg)

    ckpt = out / f"{args.variant}_checkpoint.npz"
    gm.save_model(ckpt, result.model, {"variant": args.variant, "seed": cfg.seed,
                                       "dataset_fingerprint": fingerprint,
                                       "run_config": run_cfg})
    ext = "tsv" if args.format == "text" else "bin"
    emb_path = out / f"{args.variant}_embeddings.{ext}"
    gm.export_embeddings(result.embeddings, emb_path, args.format)
    ev.write_csv(out / f"{args.variant}_loss_trace.csv", ["epoch", "mean_loss"],
                 enumerate(result.loss_trace, start=1))
    ev.write_json(out / "run_config.json", run_cfg)

    print(f"trained {args.variant} model on {name} "
          f"({len(result.loss_trace)} epochs, seed {cfg.seed})")
    if result.loss_trace:
        print(f"  first epoch mean loss {_fmt(result.loss_trace[0])}")
        print(f"  final epoch mean loss {_fmt(result.loss_trace[-1])}")
    print(f"  checkpoint  {ckpt}")
    print(f"  embeddings  {emb_path}")
    return 0


def cmd_export(args) -> int:
    graph, features, labels, name = load_dataset(args)
    model, meta = _load_checkpoint(args.checkpoint, graph, features)
    emb = gm.compute_embeddings(model, graph, features, meta.get("variant", "node"))
    gm.export_embeddings(emb, args.out, args.format)
    print(f"wrote {args.format} embeddings for {name} to {args.out}")
    return 0


def _load_embeddings_checked(args, graph, features):
    emb = gm.import_embeddings(args.embeddings)
    gdata.check_same_dataset(emb.fingerprint, graph, features, f"embeddings {args.embeddings}")
    return emb


def _write_report(report: ev.EvalReport, out, stem: str, title: str) -> None:
    """Write ``<stem>.json`` and ``<stem>.csv`` under ``out``, then print the table."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_json(out / f"{stem}.json")
    report.to_csv(out / f"{stem}.csv")
    print(title)
    print("  " + "  ".join(report.columns))
    for row in report.table:
        print("  " + "  ".join(_fmt(row[c]) for c in report.columns))


def cmd_eval_reconstruct(args) -> int:
    graph, features, labels, name = load_dataset(args)
    emb = _load_embeddings_checked(args, graph, features)
    report = ev.network_reconstruction(emb, graph, _list_arg("--k-list", args.k_list, int),
                                       args.mode)
    _write_report(report, args.out, "reconstruct",
                  f"network reconstruction on {name} ({args.mode}, variant {emb.variant})")
    return 0


def cmd_eval_linkpred(args) -> int:
    graph, features, labels, name = load_dataset(args)
    cfg = build_train_config(args, name)
    modes = ("directed", "symmetric") if args.mode == "both" else (args.mode,)
    reports, sample, _result = ev.run_link_prediction_protocol(
        graph, features, args.p, cfg.seed, args.variant, cfg,
        constructors=_list_arg("--constructors", args.constructors), modes=modes,
    )
    for mode, report in reports.items():
        _write_report(report, args.out, f"linkpred_{mode}",
                      f"link prediction on {name} (p={_fmt(args.p)}, {mode}, "
                      f"variant {args.variant}, |true|={int(sample.labels.sum())})")
        report.to_plot_csv(Path(args.out) / f"linkpred_{mode}_plot.csv")
    return 0


def cmd_eval_classify(args) -> int:
    graph, features, labels, name = load_dataset(args)
    emb = _load_embeddings_checked(args, graph, features)
    report = ev.node_classification_eval(
        emb, labels, train_ratios=_list_arg("--ratios", args.ratios, int),
        repetitions=args.repetitions, features=args.clf_features, seed=args.seed or 0,
    )
    _write_report(report, args.out, "classify",
                  f"node classification on {name} (variant {emb.variant}, "
                  f"features {args.clf_features})")
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True,
                   help="dataset name, directory, or file prefix")
    p.add_argument("--data-dir", default=None,
                   help=f"data directory (default ${DATA_DIR_ENV})")
    p.add_argument("--features", choices=("binary", "tfidf"), default="binary")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="embedding dimension")
    p.add_argument("--trunk", default=None, help="encoder trunk dims, e.g. 512,256")
    p.add_argument("--config", default=None, help="flat key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagram",
        description="Direction-aware attributed graph embeddings and their "
                    "evaluation protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print dataset summary")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("train", help="train the node or edge model")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--variant", choices=("node", "edge"), default="node")
    p.add_argument("--node-epochs", type=int, default=None, dest="node_epochs",
                   help="epochs for the auto-chained node model (edge variant)")
    p.add_argument("--transfer-from", default=None, dest="transfer_from",
                   help="node checkpoint to fine-tune from (edge variant)")
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="recompute embeddings from a checkpoint")
    _add_dataset_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    pe = sub.add_parser("eval", help="run an evaluation protocol")
    esub = pe.add_subparsers(dest="protocol", required=True)

    p = esub.add_parser("reconstruct", help="precision-at-K network reconstruction")
    _add_dataset_args(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k-list", default="2500,5000,7500,10000", dest="k_list")
    p.add_argument("--mode", choices=("directed", "symmetric"), default="directed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_reconstruct)

    p = esub.add_parser("linkpred",
                        help="sample edges, retrain on the residual, classify pairs")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--p", type=float, default=10.0, help="percent of edges to remove")
    p.add_argument("--variant", choices=("node", "edge"), default="edge")
    p.add_argument("--constructors", default="average,hadamard,w-l1,w-l2")
    p.add_argument("--mode", choices=("directed", "symmetric", "both"),
                   default="directed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_linkpred)

    p = esub.add_parser("classify", help="one-vs-rest node classification")
    _add_dataset_args(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--ratios", default="10,30,50",
                   help="percentages of each class's nodes to train on")
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--clf-features", choices=("z", "zoi"), default="z",
                   dest="clf_features")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DiagramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
