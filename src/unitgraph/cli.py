"""Command-line front end: extract | train | evaluate | bench | inspect.

Exit codes: 0 success, 1 bad invocation or config, 2 data error.  A run
that writes outputs (extract, train, evaluate) writes a hash of its config
into them, where every key the run does not read holds its default, so
runs that read the same values write the same bytes.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import io
import json
import logging
import os
import random
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

# hashlib loads OpenSSL's libcrypto (about 3.5 MB of peak RSS) for one 12-digit
# digest; CPython's own random.py takes the built-in module first in the same way
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

from . import evaluation, relnet
from .corpus import Document, RelationEdge, iter_corpus, load_corpus, serialize_brat
from .errors import DataError
from .relations import NETWORKS, Strategy, build_contexts, gold_pairs, run_document
from .tagger import (
    Gazetteers,
    load_tagger,
    predict_entities,
    rank_lexicon,
    save_tagger,
    train_tagger,
    training_corpus,
)
from .tokens import format_iob_block


class UsageError(Exception):
    pass


# the values a key may take; --strategy all scores every strategy at once
_CHOICES = {
    "strategy": (*(s.value for s in Strategy), "all"),
    "ner_mode": ("gold", "model"),
    "fallback": ("nearest", "skip"),
}

# the types each field annotation accepts: a float field takes an int too
_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
          "str | None": (str, type(None))}

# for some keys, a test that a value of the right type must pass too
_RULES = {
    **{key: (choices.__contains__, "one of " + ", ".join(choices))
       for key, choices in _CHOICES.items()},
    "seed": (lambda v: v >= 0, "an integer >= 0"),
    **{key: (lambda v: v >= 1, "an integer >= 1")
       for key in ("epochs", "tagger_epochs", "min_count", "hidden_size")},
    "learning_rate": (lambda v: 0 < v <= sys.float_info.max, "a finite number > 0"),
    "split": (lambda v: 0 < v <= 1, "a number in (0, 1]"),
}


@dataclass
class RunConfig:
    corpus_dir: str = ""
    output_dir: str = "out"
    strategy: str = "nearest-person"
    ner_mode: str = "gold"
    tagger_model: str | None = None
    relnet_model: str | None = None
    seed: int = 13
    split: float = 0.8
    hidden_size: int = 8
    min_count: int = 2
    learning_rate: float = 0.05
    epochs: int = 300
    tagger_epochs: int = 5
    fallback: str = "nearest"
    path_direction: bool = True
    org_gazetteer: str | None = None
    rank_gazetteer: str | None = None

    @classmethod
    def load(cls, config_path: str | None, overrides: dict) -> "RunConfig":
        """The config file's values with the flags' on top, every value checked:
        a UsageError names the key and what the value must be, and the flag
        too when ``overrides`` (the command's flags, by key) holds it."""
        kinds = {f.name: f.type for f in fields(cls)}
        values: dict = {}
        if config_path:
            try:
                raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
            except OSError as exc:
                raise UsageError(f"cannot read config file: {exc}") from exc
            except ValueError as exc:  # not UTF-8, or not JSON
                raise UsageError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(raw, dict):
                raise UsageError("config file must hold a JSON object")
            unknown = sorted(set(raw) - set(kinds))
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(unknown)}")
            values.update(raw)
        for key, value in overrides.items():
            if value is not None:
                values[key] = value
            if isinstance(value, str) and kinds[key] in ("int", "float"):
                with contextlib.suppress(ValueError):  # else the check rejects it
                    values[key] = (int if kinds[key] == "int" else float)(value)
        cfg = cls(**values)
        for key, kind in kinds.items():
            value = getattr(cfg, key)
            test, wanted = _RULES.get(key, (lambda v: True, f"of type {kind}"))
            if type(value) not in _TYPES[kind] or not test(value):
                name = f"{key} ({_FLAGS[key]})" if key in overrides else f"config key {key}"
                raise UsageError(f"{name} must be {wanted}, got {value!r}")
        return cfg

    # where outputs go never changes what gets computed
    _UNHASHED = ("output_dir",)

    def hash(self) -> str:
        payload = {
            k: v for k, v in asdict(self).items() if k not in self._UNHASHED
        }
        canon = json.dumps(payload, sort_keys=True)
        return sha256(canon.encode("utf-8")).hexdigest()[:12]


def _split_corpus(entries, fraction: float, seed: int):
    """Seeded document-level split; returns (train, held_out)."""
    order = list(range(len(entries)))
    random.Random(seed).shuffle(order)
    cut = max(1, int(round(len(entries) * fraction))) if entries else 0
    return [entries[i] for i in sorted(order[:cut])], [entries[i] for i in sorted(order[cut:])]


def _fit_tagger(cfg: RunConfig, train_docs: list[Document]):
    """The tagger fitted on ``train_docs``, with the configured gazetteers;
    without a rank gazetteer the ranks come from the training documents."""
    gaz = Gazetteers.from_files(cfg.org_gazetteer, cfg.rank_gazetteer)
    if not gaz.ranks:
        gaz = Gazetteers(gaz.organizations, rank_lexicon(train_docs))
    corpus = training_corpus(train_docs)
    if not corpus:
        raise DataError("no training sentences with gold annotations")
    return train_tagger(corpus, epochs=cfg.tagger_epochs, seed=cfg.seed, gazetteers=gaz)


def _fit_relnets(cfg: RunConfig, entries, modes: list[str]):
    """One network per mode over one shared pattern vocabulary, fitted
    together on the same-sentence gold relations of ``entries``; with no
    examples they stay as initialised.  Returns the vocabulary, the models
    and the number of examples."""
    vocab, pairs = relnet.training_set(entries, cfg.min_count, cfg.path_direction)
    X, T, Ys = relnet.build_dataset(pairs, vocab, modes)
    models = [relnet.init_model(mode, vocab.size, hidden=cfg.hidden_size, seed=cfg.seed)
              for mode in modes]
    if len(X):
        relnet.train(models, X, T, Ys, epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                     seed=cfg.seed)
    return vocab, models, len(X)


def _write_json(path: Path, payload: dict) -> None:
    """Write one JSON artifact: sorted keys, so identical runs give identical
    bytes.  The text goes to the file as it is encoded, never whole in memory."""
    with path.open("w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# One graph.json node and edge as json.dump(indent=2, sort_keys=True) lays
# them out inside their list: keys sorted, strings (%s) already encoded
_NODE = """    {
      "doc_id": %s,
      "id": %s,
      "offsets": [
        %d,
        %d
      ],
      "surface": %s,
      "type": %s
    }"""
_EDGE = """    {
      "doc_id": %s,
      "from": %s,
      "person_span": [
        %d,
        %d
      ],
      "rtype": %s,
      "strategy": %s,
      "target_span": [
        %d,
        %d
      ],
      "to": %s
    }"""


@contextlib.contextmanager
def _graph_writer(path: Path, graph: dict):
    """Write graph.json a document at a time, with the bytes ``_write_json``
    gives the whole graph: strings are escaped to ASCII by the encoder
    ``json`` uses and ints are written in decimal as ``str`` gives them.
    ``graph`` holds the scalar members; the block gets a function that
    takes a document's id, its ``(relation id, Attachment)`` pairs and its
    entities.  Edges sort before nodes, so each edge record goes into the
    file at once and each node record into an unnamed spool file beside it,
    copied in after the last edge when the block ends without an error."""
    enc = encode_basestring_ascii
    with path.open("w", encoding="utf-8") as f, \
            tempfile.TemporaryFile("w+", encoding="utf-8", dir=path.parent) as spool:
        n_edges = n_nodes = 0

        def add(doc_id, attached, entities) -> None:
            nonlocal n_edges, n_nodes
            for _, att in attached:
                person, target = att.person, att.target
                f.write(",\n" if n_edges else "\n")
                f.write(_EDGE % (enc(doc_id), enc(f"{doc_id}:{person.id}"),
                                 person.start, person.end, enc(att.rtype.value),
                                 enc(att.strategy.value), target.start, target.end,
                                 enc(f"{doc_id}:{target.id}")))
                n_edges += 1
            for ent in entities:
                spool.write(",\n" if n_nodes else "\n")
                spool.write(_NODE % (enc(doc_id), enc(f"{doc_id}:{ent.id}"), ent.start,
                                     ent.end, enc(ent.surface), enc(ent.etype.value)))
                n_nodes += 1

        f.write('{\n  "config_hash": %s,\n  "edges": [' % enc(graph["config_hash"]))
        yield add
        f.write("\n  ],\n" if n_edges else "],\n")
        f.write('  "ner_mode": %s,\n  "nodes": [' % enc(graph["ner_mode"]))
        spool.seek(0)
        shutil.copyfileobj(spool, f, io.DEFAULT_BUFFER_SIZE)
        f.write("\n  ],\n" if n_nodes else "],\n")
        f.write('  "strategy": %s\n}\n' % enc(graph["strategy"]))


@contextlib.contextmanager
def _spooled(out_dir: Path):
    """A new hidden directory beside ``out_dir``, on its filesystem, for a
    command to write its outputs into.  When the block ends, each file in
    it moves into ``out_dir``, which is made if missing and keeps the files
    it holds under other names.  If the block raises, the spool and every
    directory made for it are removed, so a failed command leaves nothing."""
    out_dir = out_dir.resolve()
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # nearest first
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    spool = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        yield spool
        out_dir.mkdir(exist_ok=True)
        for path in spool.iterdir():
            os.replace(path, out_dir / path.name)
    except BaseException:
        shutil.rmtree(spool, ignore_errors=True)
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    spool.rmdir()


def _check_out(output_dir: str, corpus_dir: str = "") -> None:
    """Reject an ``--out`` that names a file, or lies under one, or that is
    ``corpus_dir`` if one is given, before any model or corpus is read."""
    path = Path(output_dir)
    found = next((p for p in (path, *path.parents) if p.exists()), None)
    if found is not None and not found.is_dir():
        raise DataError(f"--out {output_dir}: {found} exists and is not a directory")
    if corpus_dir and path.resolve() == Path(corpus_dir).resolve():
        raise DataError(f"--out {output_dir} is the corpus directory {corpus_dir}; "
                        "its gold .ann files would be overwritten")


_TAGGER_FILE = "tagger.model"  # what train names the tagger it writes


def _model_path(value: str, filename: str) -> Path:
    """The model file a --tagger-model or --relnet-model value names: the
    file itself, or ``filename`` in a directory such as ``train`` writes."""
    path = Path(value)
    if path.is_dir():
        path = path / filename
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    return path


def _load_relnet_for(cfg: RunConfig, strategy: Strategy, needs: str = ""):
    """The network of a network strategy and its vocabulary; ``needs`` names
    what needs it in an error (by default the strategy)."""
    net = NETWORKS[strategy]
    path = _model_path(cfg.relnet_model, net.filename)
    model, vocab = relnet.load_relnet(path)
    if model.mode != net.mode:
        raise DataError(f"{path} is a {model.mode} model but "
                        f"{needs or 'strategy ' + strategy.value} needs {net.mode}")
    return model, vocab


def cmd_extract(cfg: RunConfig) -> int:
    """Attach every document's targets and write its ``.ann`` file and the
    graph.  Documents are streamed, and each one's outputs are written as
    soon as it is attached, into a spool directory that moves into place
    after the last one (``_spooled``): memory stays flat however long the
    corpus is, and a bad document leaves no output directory."""
    strategy = Strategy(cfg.strategy)
    networks = {s: _load_relnet_for(cfg, s) for s in [strategy] if s in NETWORKS}
    tagger = (load_tagger(_model_path(cfg.tagger_model, _TAGGER_FILE))
              if cfg.ner_mode == "model" else None)

    out_dir = Path(cfg.output_dir)
    n_docs = n_nodes = n_attached = n_abstained = 0
    graph = {"config_hash": cfg.hash(), "strategy": strategy.value, "ner_mode": cfg.ner_mode}
    with _spooled(out_dir) as spool:
        with _graph_writer(spool / "graph.json", graph) as add_to_graph:
            # the tagger's entities replace the gold ones: leave .ann unread
            for doc, trees in iter_corpus(cfg.corpus_dir, gold=tagger is None):
                run = run_document(doc, trees, [strategy], networks, tagger,
                                   fallback=cfg.fallback == "nearest")
                atts = run.attachments[strategy]
                # an abstention keeps its place in the R<i> numbering
                attached = [(f"R{i}", att) for i, att in enumerate(atts, start=1)
                            if att.person is not None]
                n_attached += len(attached)
                n_abstained += len(atts) - len(attached)
                add_to_graph(doc.doc_id, attached, run.view.entities)
                rels = [RelationEdge(rid, att.rtype, att.person.id, att.target.id)
                        for rid, att in attached]
                pred_doc = Document(doc.doc_id, doc.text, list(run.view.entities), rels)
                (spool / f"{doc.doc_id}.ann").write_text(serialize_brat(pred_doc),
                                                          encoding="utf-8")
                n_docs += 1
                n_nodes += len(run.view.entities)
        _write_json(spool / "run.json", {
            "command": "extract",
            "config": asdict(cfg),
            "config_hash": cfg.hash(),
            "documents": n_docs,
        })
    print(
        f"extracted {n_docs} documents: {n_nodes} entities, "
        f"{n_attached} attachments, {n_abstained} abstentions -> {out_dir}"
    )
    return 0


def cmd_train(cfg: RunConfig, targets: list[str]) -> int:
    """Fit the target models and write them into ``--out`` through a spool
    (``_spooled``), so a model that fails to fit leaves no file behind and
    no line naming one."""
    entries = load_corpus(cfg.corpus_dir)
    train_entries, test_entries = _split_corpus(entries, cfg.split, cfg.seed)
    if not train_entries:
        raise DataError("training split is empty")
    print(f"split: {len(train_entries)} train / {len(test_entries)} held out "
          f"(fraction {cfg.split}, seed {cfg.seed})")

    out_dir, written = Path(cfg.output_dir), []
    with _spooled(out_dir) as spool:
        if "tagger" in targets:
            held_out = [doc.doc_id for doc, _ in test_entries]
            broken = [i for i in held_out if "\n" in i or "\r" in i]  # a record ends there
            if broken:
                raise DataError(f"{out_dir / _TAGGER_FILE} cannot record held-out document "
                                f"{broken[0]!r}: it holds a line break")
            model = _fit_tagger(cfg, [doc for doc, _ in train_entries])
            model.meta.update(config_hash=cfg.hash(), split=cfg.split)
            model.held_out = held_out
            save_tagger(model, spool / _TAGGER_FILE)
            written.append(f"tagger: {model.param_count()} weights -> "
                           f"{out_dir / _TAGGER_FILE}")

        networks = [net for net in NETWORKS.values() if net.target in targets]
        if networks:
            vocab, models, examples = _fit_relnets(cfg, train_entries,
                                                   [net.mode for net in networks])
            if not examples:
                raise DataError("no same-sentence gold relations to train on")
            for net, model in zip(networks, models):
                model.hyper.update(min_count=cfg.min_count, config_hash=cfg.hash())
                relnet.save_relnet(spool / net.filename, model, vocab)
                written.append(
                    f"relnet {net.mode}: {model.param_count()} parameters "
                    f"(vocab {vocab.size}, {examples} examples, "
                    f"final loss {model.loss_curve[-1]:.4f}) -> {out_dir / net.filename}"
                )
    print("\n".join(written))
    return 0


def cmd_evaluate(cfg: RunConfig, metric_check: bool, ner_eval: bool) -> int:
    """Score attachment strategies, the tagger, or the reference metrics.

    Documents are streamed one at a time.  --ner-eval scores the tagger on
    the documents it held out.  Strategy scoring runs on gold entities: each
    document's sentence contexts are built once and every strategy reads
    them, so each target-to-Person path is computed once per document; its
    gold edges are paired once for every score and the cross-sentence count.
    """
    if metric_check:
        problems = evaluation.verify_reference_metrics()
        for name, tp, fp, fn, *_ in (
            evaluation.REFERENCE_NER_ROWS + evaluation.REFERENCE_RE_ROWS
        ):
            status = "FAIL" if any(p.startswith(name) for p in problems) else "ok"
            row = evaluation.PrfRow.from_counts(name, tp, fp, fn)
            print(f"{status}  {name}: {row.precision:.3f}/{row.recall:.3f}/"
                  f"{row.f1:.3f} from {tp}/{fp}/{fn}")
        if problems:
            for p in problems:
                print("FAIL", p, file=sys.stderr)
            return 2
        print("all reference metric cells reproduce within tolerance")
        return 0

    if ner_eval:
        path = _model_path(cfg.tagger_model, _TAGGER_FILE)
        model = load_tagger(path)
        if not model.held_out or not {"seed", "split"} <= model.meta.keys():
            raise DataError(f"{path} records no held-out documents to score "
                            "(train it with --split below 1)")
        unseen, totals = set(model.held_out), {}
        for doc, _ in iter_corpus(cfg.corpus_dir, parses=False):  # NER reads no tree
            if doc.doc_id in unseen:
                unseen.remove(doc.doc_id)
                pred = predict_entities(model, doc)
                for etype, counts in evaluation.entity_counts(doc.entities, pred).items():
                    totals[etype] = tuple(map(sum, zip(totals.get(etype, (0, 0, 0)), counts)))
        if unseen:
            raise DataError(f"{path}: held-out document {min(unseen)!r} is not in "
                            f"corpus {cfg.corpus_dir}")
        if not any(tp + fn for tp, _, fn in totals.values()):  # no gold entity
            raise DataError(f"{path}: its held-out documents have no gold annotations")
        rows = evaluation.rows_from_entity_counts(totals)
        print(f"NER on held-out split ({len(model.held_out)} docs, "
              f"{model.meta['split']:.0%} train, seed {model.meta['seed']}):")
        print(evaluation.format_prf_table(rows, decimals=2))
        with _spooled(Path(cfg.output_dir)) as spool:
            _write_json(spool / "ner_metrics.json", {
                "config_hash": cfg.hash(), "seed": model.meta["seed"],
                "rows": [r._asdict() for r in rows],
            })
        return 0

    strategies = list(Strategy) if cfg.strategy == "all" else [Strategy(cfg.strategy)]
    networks = {s: _load_relnet_for(cfg, s) for s in strategies if s in NETWORKS}
    counts = {s: (0, 0, 0) for s in strategies}
    cross = 0
    annotated = False
    for doc, trees in iter_corpus(cfg.corpus_dir):
        annotated = annotated or bool(doc.entities or doc.relations)
        run = run_document(doc, trees, strategies, networks,
                           fallback=cfg.fallback == "nearest")
        gold = gold_pairs(doc, run.contexts)
        for s, atts in run.attachments.items():
            doc_counts = evaluation.relation_counts(gold, atts)
            counts[s] = tuple(a + b for a, b in zip(counts[s], doc_counts))
        cross += sum(e.person is not None and e.context is None for e in gold)
    if not annotated:
        raise DataError("corpus has no gold annotations to evaluate against")
    rows = [
        evaluation.PrfRow.from_counts(evaluation.STRATEGY_ROW_LABELS[s], *counts[s])
        for s in strategies
    ]
    print(evaluation.format_prf_table(rows, decimals=3, label="Method"))
    print(f"gold relations joining different sentences: {cross} "
          "(unreachable for all strategies; scored as misses)")
    with _spooled(Path(cfg.output_dir)) as spool:
        _write_json(spool / "metrics.json", {
            "config_hash": cfg.hash(),
            "seed": cfg.seed,
            "cross_sentence_gold": cross,
            "rows": [r._asdict() for r in rows],
        })
    return 0


def cmd_bench(cfg: RunConfig, repetitions: int) -> int:
    """Time the four pipeline components on the trained models, which are
    loaded, like the corpus, before any timing starts."""
    model, vocab = _load_relnet_for(cfg, Strategy.NN_CONSTRAINED, "bench")
    tagger = load_tagger(_model_path(cfg.tagger_model, _TAGGER_FILE))
    entries = load_corpus(cfg.corpus_dir)
    if not entries:
        raise DataError("empty corpus")
    rows = evaluation.bench_pipeline(
        entries, repetitions=repetitions, tagger_model=tagger,
        relnet_model=model, relnet_vocab=vocab,
    )
    print(evaluation.format_timing_table(rows))
    reference_nn = {name: params for name, _, params in evaluation.REFERENCE_TIMINGS}
    print(f"relation-network parameters: {model.param_count()} "
          f"(reference {reference_nn['Neural Network']})")
    return 0


def cmd_inspect(cfg: RunConfig, doc_id: str | None, show_paths: bool) -> int:
    """Print one document: the one named, else the first; documents are read
    only until it is found."""
    chosen = next((entry for entry in iter_corpus(cfg.corpus_dir)
                   if doc_id is None or entry[0].doc_id == doc_id), None)
    if chosen is None:
        raise DataError("empty corpus" if doc_id is None
                        else f"document {doc_id!r} not found in corpus")
    doc, trees = chosen
    print(f"# {doc.doc_id}: {len(doc.entities)} entities, "
          f"{len(doc.relations)} relations")
    for sent, tags in training_corpus([doc]):
        print(format_iob_block(sent, tags))
    if show_paths:
        for ctx in build_contexts(doc, trees):
            for target in ctx.targets:
                for person in ctx.persons:
                    path = ctx.path(target, person)
                    if path is not None:
                        print(f"{target.surface!r} -> {person.surface!r}: "
                              f"{path.render()} (length {path.length})")
    return 0


_TRAIN_TARGETS = ("tagger", *(net.target for net in NETWORKS.values()))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


# each config key's flag and help text, in the order --help lists them;
# RunConfig.load reads and checks the text a flag is given
_OPTIONS = {
    "corpus_dir": ("--corpus", "corpus directory"),
    "output_dir": ("--out", "output directory"),
    "seed": ("--seed", None),
    "strategy": ("--strategy", "|".join(_CHOICES["strategy"])),
    "ner_mode": ("--ner-mode", "|".join(_CHOICES["ner_mode"])),
    "tagger_model": ("--tagger-model", "model file, or a directory holding "
                     + _TAGGER_FILE),
    "relnet_model": ("--relnet-model", "model file, or a directory holding relnet_*.model"),
    "split": ("--split", "training fraction; train holds out the rest (default 0.8)"),
    "hidden_size": ("--hidden-size", None),
    "min_count": ("--min-count", None),
    "learning_rate": ("--learning-rate", None),
    "epochs": ("--epochs", None),
    "tagger_epochs": ("--tagger-epochs", None),
    "fallback": ("--fallback", "what to do when a sentence has no usable parse: "
                 + "|".join(_CHOICES["fallback"])),
    "path_direction": ("--no-path-direction", "drop up/down direction from path patterns"),
    "org_gazetteer": ("--org-gazetteer", None),
    "rank_gazetteer": ("--rank-gazetteer", None),
}

# the flag that sets each config key, for messages
_FLAGS = {key: flag for key, (flag, _) in _OPTIONS.items()}

# A test of the resolved config and the parsed flags that only some runs of
# a command pass, and the words for those runs
_MODEL_NER = (lambda cfg, args: cfg.ner_mode == "model", "with --ner-mode model")
_NETWORK = (lambda cfg, args: cfg.strategy in (*(s.value for s in NETWORKS), "all"),
            "with an nn-* strategy or all")
_PARSED = (lambda cfg, args: cfg.strategy != Strategy.NEAREST_PERSON.value,
           "with a strategy other than nearest-person")
_NO_CHECK = (lambda cfg, args: not args.metric_check, "without --metric-check")
_SCORING = (lambda cfg, args: not args.ner_eval, "without --ner-eval")
_NER_EVAL = (lambda cfg, args: args.ner_eval, "with --ner-eval")
_TAGGER = (lambda cfg, args: "tagger" in args.targets, "when --targets names tagger")
_RELNET = (lambda cfg, args: any(t != "tagger" for t in args.targets),
           "when --targets names a relnet-* model")

# The config keys each command reads, each with the tests a run must pass
# to read it.  A command takes a flag for each of its keys and no other, and
# a flag whose key the run does not read is rejected.  A config file may
# hold any key, but one that the run does not read keeps its default.
_READS = {
    "extract": {"corpus_dir": (), "output_dir": (), "strategy": (),
                "ner_mode": (), "tagger_model": (_MODEL_NER,),
                "relnet_model": (_NETWORK,), "fallback": (_PARSED,)},
    "train": {"corpus_dir": (), "output_dir": (), "seed": (), "split": (),
              **dict.fromkeys(("hidden_size", "min_count", "learning_rate", "epochs",
                               "path_direction"), (_RELNET,)),
              **dict.fromkeys(("tagger_epochs", "org_gazetteer", "rank_gazetteer"),
                              (_TAGGER,))},
    "evaluate": {**dict.fromkeys(("corpus_dir", "output_dir"), (_NO_CHECK,)),
                 **dict.fromkeys(("seed", "strategy"), (_NO_CHECK, _SCORING)),
                 "tagger_model": (_NO_CHECK, _NER_EVAL),
                 "relnet_model": (_NO_CHECK, _SCORING, _NETWORK),
                 "fallback": (_NO_CHECK, _SCORING, _PARSED)},
    "bench": dict.fromkeys(("corpus_dir", "tagger_model", "relnet_model"), ()),
    "inspect": {"corpus_dir": ()},
}


def _add_command(sub, command: str, text: str) -> _Parser:
    """A subparser for ``command``: --config, and a flag for each config key
    the command reads."""
    p = sub.add_parser(command, help=text)
    p.add_argument("--config", help="JSON config file; flags override it")
    for key, (flag, flag_text) in _OPTIONS.items():
        if key in _READS[command]:
            switch = ({"action": "store_false", "default": None}
                      if key == "path_direction" else {})
            p.add_argument(flag, dest=key, help=flag_text, **switch)
    return p


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser, and each command's subparser by name."""
    parser = _Parser(prog="unitgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "extract", "write predicted .ann files and graph.json")
    p_train = _add_command(sub, "train", "train tagger and/or relation-network models")
    p_train.add_argument(
        "--targets", default=",".join(_TRAIN_TARGETS),
        help="comma list of " + "|".join(_TRAIN_TARGETS),
    )
    p_eval = _add_command(sub, "evaluate", "score strategies or the tagger against gold")
    p_eval.add_argument("--metric-check", action="store_true",
                        help="recompute reference P/R/F1 cells from their counts")
    p_eval.add_argument("--ner-eval", action="store_true",
                        help="score --tagger-model on the documents it held out")
    p_bench = _add_command(sub, "bench", "measure per-line component timings")
    p_bench.add_argument("--repetitions", type=int, default=3)
    p_inspect = _add_command(sub, "inspect", "print token/tag rows for a document")
    p_inspect.add_argument("--doc", dest="doc_id")
    p_inspect.add_argument("--paths", action="store_true",
                           help="also print dependency paths to each Person")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser, commands = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        command = commands[args.command]  # reports with the command's usage
        if unknown:
            command.error(f"unrecognized arguments: {' '.join(unknown)}")
        cfg = RunConfig.load(args.config,
                             {key: getattr(args, key) for key in _READS[args.command]})
        if args.command == "train":
            targets = [t.strip() for t in args.targets.split(",") if t.strip()]
            if not targets or not set(targets) <= set(_TRAIN_TARGETS):
                command.error(f"--targets must name one or more of "
                              f"{', '.join(_TRAIN_TARGETS)}, got {args.targets!r}")
            args.targets = targets
        read = set()  # the keys this run reads
        for key, tests in _READS[args.command].items():
            unmet = [runs for test, runs in tests if not test(cfg, args)]
            if not unmet:
                read.add(key)
            elif getattr(args, key) is not None:
                command.error(f"{args.command} reads {_FLAGS[key]} only {unmet[0]}")
        if "corpus_dir" in read and not cfg.corpus_dir:
            command.error("--corpus is required")
        if args.command == "extract" and cfg.strategy == "all":
            command.error("extract writes one strategy's graph; --strategy all "
                          "applies to evaluate")
        if args.command == "evaluate" and args.metric_check and args.ner_eval:
            command.error("evaluate reads --ner-eval only without --metric-check")
        if args.command == "evaluate" and "strategy" in read and cfg.ner_mode == "model":
            command.error("evaluate scores strategies on gold entities; config key "
                          "ner_mode 'model' applies only with --ner-eval")
        # from here on, each key that this run does not read holds its default
        cfg = RunConfig(**{key: getattr(cfg, key) for key in read})
        # bench reads no strategy or NER mode: it needs both models on every run
        if "relnet_model" in read and not cfg.relnet_model:
            needs = f"strategy {cfg.strategy}" if "strategy" in read else args.command
            command.error(f"{needs} needs a trained model file; pass --relnet-model "
                          "(train one with the 'train' command)")
        if "tagger_model" in read and not cfg.tagger_model:
            needs = "--ner-mode model" if "ner_mode" in read else args.command
            command.error(f"{needs} needs --tagger-model")
        if "output_dir" in read:
            # only extract writes .ann files, over the corpus's own
            _check_out(cfg.output_dir, cfg.corpus_dir if args.command == "extract" else "")
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.targets)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.metric_check, args.ner_eval)
        if args.command == "bench":
            if args.repetitions < 3:
                command.error("--repetitions must be at least 3")
            return cmd_bench(cfg, args.repetitions)
        return cmd_inspect(cfg, args.doc_id, args.paths)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:  # relnet.train: the loss overflowed
        print(f"error: learning_rate ({_FLAGS['learning_rate']}) is too large: {exc}",
              file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


# what the imports made lives until exit: keep it out of every collection
# (the library itself leaves the collector alone).  numpy loads later, when
# a relation network trains, so freeze again at exit: the interpreter's
# last pass then skips numpy's objects too
gc.freeze()
atexit.register(gc.freeze)


if __name__ == "__main__":
    entry()
