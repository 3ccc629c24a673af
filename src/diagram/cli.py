"""Command-line entry point: info / train / export / eval subcommands.

Configuration precedence is flags > config file (flat ``key = value``
lines) > built-in defaults. ``--dataset`` names a directory holding one
``.content``/``.cites`` pair or the path prefix of one, as given or under
the ``DIAGRAM_DATA_DIR`` environment variable. Every artifact embeds the
resolved config and seed, so a run can be reproduced from its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import data as gdata
from . import evaluation as ev
from . import model as gm
from .exceptions import DiagramError, EmbeddingFormatError, FingerprintMismatchError

DATA_DIR_ENV = "DIAGRAM_DATA_DIR"
# The keys a --config file may set, each with a flag of the same name, mapped
# to the TrainConfig field it sets and the parser of its value (for the flag
# too: the flags are built from this table and arrive as strings).
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
FLAG_HELP = {"trunk": "encoder trunk dims, e.g. 512,256", "k": "embedding dimension"}


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
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise DiagramError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = val
    return out


def resolve_dataset(spec: str):
    """Map a dataset argument to (content_path, cites_path, name): the first of ``spec``
    and ``$DIAGRAM_DATA_DIR/<spec>`` that is a directory or a ``.content`` path prefix."""
    base = Path(os.environ.get(DATA_DIR_ENV, "."))
    for cand in (Path(spec), base / spec):
        if cand.is_dir():
            contents = sorted(cand.glob("*.content"))
            if len(contents) != 1:
                raise DiagramError(f"{cand}: expected exactly one .content file, "
                                   f"found {len(contents)}")
            content = contents[0]
        elif Path(f"{cand}.content").exists():
            content = Path(f"{cand}.content")
        else:
            continue
        cites = content.with_suffix(".cites")
        if not cites.exists():
            raise DiagramError(f"{cites} missing next to {content}")
        return content, cites, content.stem
    raise DiagramError(f"dataset {spec!r} not found (looked under {base}; set {DATA_DIR_ENV} "
                       "or pass a directory / file prefix)")


def load_dataset(args):
    content, cites, name = resolve_dataset(args.dataset)
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


def _parsed(origin: str, key: str, raw, parse=int):
    """``parse(raw)``, or None for None. A ValueError becomes one error line that
    names ``origin``: flags take no argparse ``type=``, so a bad value exits 1, not 2."""
    try:
        return None if raw is None else parse(raw)
    except ValueError as exc:
        raise DiagramError(f"{origin}: bad {key} {raw!r}: {exc}") from exc


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
        settings[name_in_cfg] = _parsed(origin, key, raw, parse)
    try:
        return gm.TrainConfig(**settings)
    except ValueError as exc:
        raise DiagramError(f"{', '.join(dict.fromkeys(origins))}: {exc}") from exc


def _config_fingerprint(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _numeric_environment() -> dict:
    """The numpy, scipy and BLAS this process computes with, and its BLAS thread
    setting; the BLAS name and version are None where numpy cannot report them
    (``show_config`` takes ``mode`` from numpy 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        blas = {}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


# -- commands -----------------------------------------------------------------


def cmd_info(args) -> int:
    graph, features, labels, name = load_dataset(args)
    out_deg = np.diff(graph.out_adjacency.indptr)
    print(f"dataset {name}")
    print(f"  nodes          {graph.node_count}")
    print(f"  directed edges {graph.edge_count}")
    print(f"  feature dim    {features.dim} ({features.mode})")
    print(f"  label classes  {labels.n_classes}")
    print(f"  self loops     {(graph.edge_list[:, 0] == graph.edge_list[:, 1]).sum()}")
    print(f"  out degree     mean {_fmt(out_deg.mean())} max {out_deg.max()}")
    print(f"  in degree max  {np.diff(graph.in_adjacency.indptr).max()}")
    for key in ("edge_direction", "dropped_unknown_id_edges", "deduplicated_edges"):
        print(f"  {key:<22} {graph.metadata.get(key)}")
    return 0


def _load_checkpoint(path, graph, features):
    """A model checkpoint and its meta, refused unless trained on this dataset.

    A meta with no ``variant`` means a node model; an unknown one is refused."""
    model, meta = gm.load_model(path)
    if meta.setdefault("variant", "node") not in gm.VARIANTS:
        raise EmbeddingFormatError(f"{path}: unknown variant {meta['variant']!r}")
    gdata.check_same_dataset(meta.get("dataset_fingerprint"), graph, features,
                             f"checkpoint {path}")
    return model, meta


def cmd_train(args) -> int:
    if args.variant == "node" and args.transfer_from is not None:
        raise DiagramError("--transfer-from: applies to --variant edge only")
    graph, features, labels, name = load_dataset(args)
    cfg = build_train_config(args, name)
    provenance = {}  # where the edge model's starting node model came from
    if args.transfer_from is not None:
        start, meta = _load_checkpoint(args.transfer_from, graph, features)
        if meta["variant"] != "node":
            raise DiagramError(f"--transfer-from: {args.transfer_from} holds an "
                               f"{meta['variant']} model, not a node model")
        cfg = replace(cfg, transfer_from=start)
        provenance["transfer_from"] = args.transfer_from
    elif args.variant == "edge":
        provenance["auto_node_epochs"] = gm.DEFAULT_NODE_EPOCHS
    result = (gm.train_node_model(graph, features, cfg) if args.variant == "node"
              else gm.train_edge_model(graph, features, cfg))
    out = Path(args.out)  # made once training succeeds, so a refusal leaves none
    out.mkdir(parents=True, exist_ok=True)

    fingerprint = result.embeddings.fingerprint
    run_cfg = {
        "dataset": name,
        "feature_mode": features.mode,
        "variant": args.variant,
        "dataset_fingerprint": fingerprint,
        **result.config,
        **provenance,
    }
    run_cfg["config_fingerprint"] = _config_fingerprint(run_cfg)
    run_cfg["numeric_environment"] = _numeric_environment()  # outside the fingerprint

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
    emb = gm.compute_embeddings(model, graph, features, meta["variant"])
    gm.export_embeddings(emb, args.out, args.format)
    print(f"wrote {args.format} embeddings for {name} to {args.out}")
    return 0


def _load_embeddings_checked(args, graph, features):
    """An embedding file, refused unless made from this dataset with its nodes in its order."""
    emb = gm.import_embeddings(args.embeddings)
    gdata.check_same_dataset(emb.fingerprint, graph, features, f"embeddings {args.embeddings}")
    if emb.node_ids != graph.node_ids:
        raise FingerprintMismatchError(f"embeddings {args.embeddings}: node ids are not the "
                                       "dataset's node ids in the dataset's order")
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
    percent = _parsed("--p", "p", args.p, float)
    graph, features, labels, name = load_dataset(args)
    cfg = build_train_config(args, name)
    modes = tuple(ev.SCORER_MODES) if args.mode == "both" else (args.mode,)
    reports, sample, _result = ev.run_link_prediction_protocol(
        graph, features, percent, cfg.seed, args.variant, cfg,
        constructors=_list_arg("--constructors", args.constructors, str.lower), modes=modes,
    )
    for mode, report in reports.items():
        _write_report(report, args.out, f"linkpred_{mode}",
                      f"link prediction on {name} (p={_fmt(percent)}, {mode}, "
                      f"variant {args.variant}, |true|={int(sample.labels.sum())})")
    return 0


def cmd_eval_classify(args) -> int:
    graph, features, labels, name = load_dataset(args)
    emb = _load_embeddings_checked(args, graph, features)
    report = ev.node_classification_eval(
        emb, labels, train_ratios=_list_arg("--ratios", args.ratios, int),
        repetitions=_parsed("--repetitions", "repetitions", args.repetitions),
        features=args.clf_features, seed=_parsed("--seed", "seed", args.seed),
    )
    _write_report(report, args.out, "classify",
                  f"node classification on {name} (variant {emb.variant}, "
                  f"features {args.clf_features})")
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True,
                   help=f"directory or file prefix, as given or under ${DATA_DIR_ENV}")
    p.add_argument("--features", choices=("binary", "tfidf"), default="binary")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    for key in CONFIG_KEYS:  # no type=: build_train_config parses flags and file alike
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=FLAG_HELP.get(key))
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
    p.add_argument("--variant", choices=gm.VARIANTS, default="node")
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
    p.add_argument("--mode", choices=tuple(ev.SCORER_MODES), default="directed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_reconstruct)

    p = esub.add_parser("linkpred",
                        help="sample edges, retrain on the residual, classify pairs")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--p", default=10.0, help="percent of edges to remove")
    p.add_argument("--variant", choices=gm.VARIANTS, default="edge")
    p.add_argument("--constructors", default=",".join(ev.EDGE_CONSTRUCTORS))
    p.add_argument("--mode", choices=(*ev.SCORER_MODES, "both"), default="directed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_linkpred)

    p = esub.add_parser("classify", help="one-vs-rest node classification")
    _add_dataset_args(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--ratios", default="10,30,50",
                   help="percentages of each class's nodes to train on")
    p.add_argument("--repetitions", default=10)
    p.add_argument("--clf-features", choices=tuple(ev.CLASSIFIER_FEATURES), default="z",
                   dest="clf_features")
    p.add_argument("--seed", default=0)
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
