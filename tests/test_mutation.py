"""Every reader refuses a damaged file one way: a seeded mutation harness.

One valid artifact of each kind is built from the generated ``tiny``
dataset (seed 0): the ``.content`` and ``.cites`` files, a config file,
text and npz embeddings, and a checkpoint. Each kind gets ``CASES``
mutations from a ``random.Random`` seeded with its ``SEEDS`` entry: a
flipped byte, a cut, a duplicated line, or a token swapped for one of
``TOKENS`` (the empty one drops the field). In an npz archive, half the
cases mutate one member and write the archive again with correct
checksums, so they reach the checks behind the zip layer.

Library check: the file loads, or its reader raises a ``DiagramError``
whose text names the file. CLI check, through ``main()``: the command
exits 0, or exits 1 with exactly one ``error:`` line and raises nothing.
Config files go through ``build_train_config`` only: a mutated epoch
count or layer size could train for hours.
"""

import argparse
import contextlib
import io
import json
import random
import re
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from diagram import model as gm
from diagram.cli import CONFIG_KEYS, build_train_config, main
from diagram.data import dataset_fingerprint, load_citation_dataset
from diagram.exceptions import DiagramError, EmbeddingFormatError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

CASES = 100  # per artifact kind, so 600 cases in all
SEEDS = {"content": 1, "cites": 2, "config": 3, "text": 4, "npz": 5, "checkpoint": 6}
TOKENS = (b"nan", b"inf", b"-1", b"1e400", b"-0", b"\x00", b"\xff", b"9" * 400, b"")
MUTATIONS = ("flip", "cut", "line", "token")
# A token is a run of bytes between whitespace and the delimiters of the
# config file, JSON and numpy's array headers.
TOKEN = re.compile(rb"[^\s,:=\[\]{}()\"']+")
CONFIG = b"trunk = 8,4\nepochs = 1\nbatch_size = 16\nlr = 0.001\ndropout = 0.1\n" \
         b"mu = 10\nseed = 3\nk = 4\n"


def mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One seeded mutation of ``data``: its name and the mutated bytes."""
    kind = rng.choice(MUTATIONS)
    if kind == "flip":
        at = rng.randrange(len(data))
        return kind, data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    if kind == "cut":
        return kind, data[:rng.randrange(len(data))]
    if kind == "line":
        lines = data.splitlines(keepends=True)
        at = rng.randrange(len(lines))
        return kind, b"".join(lines[:at + 1] + lines[at:])
    start, end = rng.choice([m.span() for m in TOKEN.finditer(data)])
    token = rng.choice([t for t in TOKENS if t != data[start:end]])
    return f"token {token[:8]!r}", data[:start] + token + data[end:]


def members(data: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def archive(parts: dict[str, bytes]) -> bytes:
    """A zip archive of ``parts``, with correct checksums."""
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name, raw in parts.items():
            zf.writestr(name, raw)
    return out.getvalue()


def mutate_archive(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """A mutation of the raw archive, or of one member written back with its checksum."""
    if rng.random() < 0.5:
        return mutate(data, rng)
    parts = members(data)
    name = rng.choice(sorted(parts))
    kind, parts[name] = mutate(parts[name], rng)
    return f"{kind} in {name}", archive(parts)


def cases(kind: str, original: bytes) -> list[tuple[str, bytes]]:
    rng = random.Random(SEEDS[kind])
    step = mutate_archive if kind in ("npz", "checkpoint") else mutate
    return [step(original, rng) for _ in range(CASES)]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(root, {kind: path}): the dataset ``root/tiny`` and one valid file of each kind."""
    root = tmp_path_factory.mktemp("mutation")
    content, cites = gen.write(gen.generate("tiny", 0), root / "tiny")
    graph, features, _ = load_citation_dataset(content, cites)
    model = gm.DiagramModel(graph.node_count, features.dim, (8, 4), 4,
                            np.random.default_rng(0))
    emb = gm.compute_embeddings(model, graph, features, "node")
    paths = {"content": content, "cites": cites, "config": root / "train.cfg",
             "text": root / "emb.tsv", "npz": root / "emb.bin",
             "checkpoint": root / "ckpt.npz"}
    paths["config"].write_bytes(CONFIG)
    gm.export_embeddings(emb, paths["text"], "text")
    gm.export_embeddings(emb, paths["npz"], "binary")
    gm.save_model(paths["checkpoint"], model,
                  {"variant": "node", "dataset_fingerprint": dataset_fingerprint(graph, features)})
    return root, paths


def _config_args(path) -> argparse.Namespace:
    return argparse.Namespace(config=str(path), **{key: None for key in CONFIG_KEYS})


def load(kind: str, path: Path, valid: dict) -> None:
    """Read ``path`` as an artifact of ``kind`` with the library's reader."""
    if kind == "content":
        load_citation_dataset(path, valid["cites"])
    elif kind == "cites":
        load_citation_dataset(valid["content"], path)
    elif kind == "config":
        build_train_config(_config_args(path), "tiny")
    elif kind == "checkpoint":
        gm.load_model(path)
    else:
        gm.import_embeddings(path)


def command(kind: str, path: Path, root: Path) -> list[str]:
    """The command that reads ``path``: ``info`` for a dataset file, ``eval
    reconstruct`` for embeddings and ``export`` for a checkpoint."""
    if kind in ("content", "cites"):
        return ["info", "--dataset", str(path.with_suffix(""))]
    dataset = ["--dataset", str(root / "tiny")]
    if kind == "checkpoint":
        return ["export", *dataset, "--checkpoint", str(path), "--out", str(root / "out.tsv")]
    return ["eval", "reconstruct", *dataset, "--embeddings", str(path), "--k-list", "5",
            "--out", str(root / "rec")]


def case_path(kind: str, root: Path, valid: dict) -> Path:
    """Where a mutated file of ``kind`` is written; a dataset file gets the other
    file of its pair, valid, beside it."""
    case = root / "case"
    case.mkdir(exist_ok=True)
    if kind in ("content", "cites"):
        other = "cites" if kind == "content" else "content"
        (case / f"tiny.{other}").write_bytes(valid[other].read_bytes())
        return case / f"tiny.{kind}"
    return case / valid[kind].name


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@pytest.mark.parametrize("kind", list(SEEDS))
def test_valid_artifact_loads_and_runs(artifacts, kind):
    root, valid = artifacts
    load(kind, valid[kind], valid)
    if kind != "config":
        assert run_main(command(kind, valid[kind], root)) == (0, "")


def test_cases_are_fixed_and_each_changes_its_file(artifacts):
    _, valid = artifacts
    for kind, path in valid.items():
        original = path.read_bytes()
        made = cases(kind, original)
        assert made == cases(kind, original), kind
        assert len(made) == CASES and all(raw != original for _, raw in made), kind
        assert {name.split()[0] for name, _ in made} == set(MUTATIONS), kind


@pytest.mark.parametrize("kind", ["npz", "checkpoint"])
def test_archive_member_that_is_not_npy_is_refused(artifacts, kind, tmp_path):
    # np.load returns such a member as bytes; checkpoint case 61 found it
    _, valid = artifacts
    parts = members(valid[kind].read_bytes())
    parts["__meta__.npy"] = parts["__meta__.npy"][1:]
    path = tmp_path / valid[kind].name
    path.write_bytes(archive(parts))
    with pytest.raises(DiagramError, match=re.escape(f"{path}: entry '__meta__' is not a .npy")):
        load(kind, path, valid)


@pytest.mark.parametrize("field, value", [
    ("embedding_dim", 2.7), ("trunk_dims", ["4"]), ("node_count", True),
], ids=["float-k", "str-trunk-entry", "bool-node-count"])
def test_checkpoint_header_size_that_is_not_an_integer_is_refused(artifacts, tmp_path,
                                                                  field, value):
    # a size is never truncated: a header that says k = 2.7 does not load as k = 2
    root, valid = artifacts
    parts = members(valid["checkpoint"].read_bytes())
    meta = json.loads(np.load(io.BytesIO(parts["__meta__.npy"])).tobytes())
    raw = io.BytesIO()
    np.save(raw, np.frombuffer(json.dumps({**meta, field: value}).encode(), dtype=np.uint8))
    parts["__meta__.npy"] = raw.getvalue()
    path = tmp_path / "ckpt.npz"
    path.write_bytes(archive(parts))
    with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(str(path))}: bad model header"):
        gm.load_model(path)
    status, err = run_main(command("checkpoint", path, root))
    assert status == 1 and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("kind", list(SEEDS))
def test_mutated_artifact_loads_or_is_refused_naming_its_path(artifacts, kind):
    root, valid = artifacts
    path = case_path(kind, root, valid)
    escaped = []
    for no, (name, raw) in enumerate(cases(kind, valid[kind].read_bytes())):
        path.write_bytes(raw)
        try:
            load(kind, path, valid)
        except DiagramError as exc:
            if str(path) not in str(exc):
                escaped.append((no, name, f"does not name the path: {exc}"))
        except Exception as exc:
            escaped.append((no, name, repr(exc)[:200]))
        if kind == "config":
            continue
        try:
            status, err = run_main(command(kind, path, root))
        except Exception as exc:
            escaped.append((no, name, f"main() raised {exc!r}"[:200]))
            continue
        lines = err.splitlines()
        if not (status == 0 or (status == 1 and len(lines) == 1
                                and lines[0].startswith("error: "))):
            escaped.append((no, name, f"exit {status}, stderr {err[:200]!r}"))
    assert not escaped, escaped
