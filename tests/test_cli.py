import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unitgraph
import unitgraph.corpus
import unitgraph.relations
import unitgraph.relnet
import unitgraph.tagger
import unitgraph.tokens
from unitgraph.cli import RunConfig, UsageError, _graph_writer, main
from unitgraph.corpus import load_corpus, parse_brat
from unitgraph.corpus import EntitySpan, EntityType, RelationType
from unitgraph.evaluation import relation_counts
from unitgraph.relnet import load_relnet, save_relnet
from unitgraph.relations import (Attachment, Strategy, build_contexts, extract_document,
                                 gold_pairs)

from conftest import (
    CORPUS_DIR,
    DOC_ADEOSUN,
    DOC_CEREMONY,
    DOC_VANGUARD,
    DUPLICATE_PERSON_ANN,
    DUPLICATE_PERSON_CONLLU,
    DUPLICATE_PERSON_TXT,
    GAZETTEERS,
    SEPARATORS,
)


def run(*args):
    return main([str(a) for a in args])


# sha256 of each output of ``extract --ner-mode model --strategy
# nn-constrained`` on the fixtures, recorded while the tagger decoded one
# sentence per call.
MODEL_NER_DIGESTS = {
    "3f8a12bc-90de-4f61-8a2b-5c7e94d0a113.ann":
        "6f65f3f2aaa09fe45f279fbb65501e08a15852d3e12962509e40c58348721832",
    "7b4c55e0-1a2f-4d3c-9e8b-0f6a7c2d4e85.ann":
        "3515933b3708492bc48a51eafa8a8317486fca8cbc3c50849dcc464a0f4d079d",
    "a95d77f2-63b8-4c04-b1de-2f90c3a6b7c1.ann":
        "11aa5bd17e02edd6d0746da96dd4264569daf12db4428c2b41fe6e9d9e2860d8",
    "c2e94b08-5f17-4a6d-8c3b-91d0e4f2a5b6.ann":
        "22d8523bae361a54fe8a03eb6c1edc69a3eab113b03e962da60d40b7eb806d32",
    "e610f3a9-8d2c-4b75-a0e1-7c4f92b8d3e2.ann":
        "2bff96ae9f4d92ac40600c937096ca461e25d10ec49cf0436b030f4eda2b5bca",
    "graph.json":
        "6f43c1b9c55dacc3a5b0e81623e19af262b8401d0c4b12ee6b9d73fd731cc03d",
}

# sha256 of the tagger model and each output of the same ``extract`` with a
# tagger trained with both fixture gazetteers, so its lexicon rows fire;
# recorded while the tagger looked up each token's feature strings.
GAZETTEER_NER_DIGESTS = {
    "tagger.model":
        "90cb9090ec701f708ac20387c3dd8888f2bf5046bbcf7ccedace47533853fa1b",
    "3f8a12bc-90de-4f61-8a2b-5c7e94d0a113.ann":
        "72aa65018c2c9d4dc23c95800de22deb785dd327054f7985bf69faedbdea3360",
    "7b4c55e0-1a2f-4d3c-9e8b-0f6a7c2d4e85.ann":
        "3515933b3708492bc48a51eafa8a8317486fca8cbc3c50849dcc464a0f4d079d",
    "a95d77f2-63b8-4c04-b1de-2f90c3a6b7c1.ann":
        "11aa5bd17e02edd6d0746da96dd4264569daf12db4428c2b41fe6e9d9e2860d8",
    "c2e94b08-5f17-4a6d-8c3b-91d0e4f2a5b6.ann":
        "22d8523bae361a54fe8a03eb6c1edc69a3eab113b03e962da60d40b7eb806d32",
    "e610f3a9-8d2c-4b75-a0e1-7c4f92b8d3e2.ann":
        "2bff96ae9f4d92ac40600c937096ca461e25d10ec49cf0436b030f4eda2b5bca",
    "graph.json":
        "67220c7d384a45adecf979620a519a3e9777895c784f84f595b19fbbb10074fa",
}

# sha256 of the relation-network model files ``train`` writes on a copy of
# the fixtures at ``corpus`` (config_hash holds the corpus path), with the
# default flags and with RELNET_FLAGS, recorded while the two networks
# were trained one after the other.
RELNET_FLAGS = ("--hidden-size", "4", "--min-count", "1", "--no-path-direction",
                "--learning-rate", "0.5", "--epochs", "40")
RELNET_DIGESTS = {
    (): {
        "relnet_constrained.model":
            "224415f9ef8165a786e1ce8303806daf0e1474464b53295ef1e9c8c59e0dd48f",
        "relnet_select.model":
            "d3303214466e55ea1dd56207cd627e2fb4253d8269a82bac1f56e2ab2a3f171f",
    },
    RELNET_FLAGS: {
        "relnet_constrained.model":
            "8bca6847fae6d96f7a4e01e592319b6e6754e250cc117d81eade129a23334269",
        "relnet_select.model":
            "d909ba77cdbb9b4bef43c3175aad4985163d4edab8a64068b2a92a780e72707b",
    },
}

# ``inspect --doc DOC_VANGUARD --paths`` as printed before target-to-Person
# paths were memoized on the sentence context.
INSPECT_VANGUARD_PATHS = (
    "# 3f8a12bc-90de-4f61-8a2b-5c7e94d0a113: 7 entities, 3 relations\n"
    "Boko  Haram : Army assures on safety\n"
    "B-ORG I-ORG O O    O       O  O\n"
    "\n"
    "General Officer Commanding 3     Armoured Division of the\n"
    "B-TTL   I-TTL   I-TTL      B-ORG I-ORG    I-ORG    O  O\n"
    "\n"
    "Nigerian Army  , Major General Jack  Nwaogbo , has again\n"
    "B-ORG    I-ORG O B-RNK I-RNK   B-PER I-PER   O O   O\n"
    "\n"
    "re-assured Nigerians that the Boko  Haram insurgency\n"
    "O          O         O    O   B-ORG I-ORG O\n"
    "\n"
    "would soon be contained .\n"
    "O     O    O  O         O\n"
    "\n"
    "'General Officer Commanding' -> 'Jack Nwaogbo': appos↑ (length 1)\n"
    "'3 Armoured Division' -> 'Jack Nwaogbo': obj↑ acl↑ appos↑ (length 3)\n"
    "'Nigerian Army' -> 'Jack Nwaogbo': nmod↑ obj↑ acl↑ appos↑ (length 4)\n"
    "'Major General' -> 'Jack Nwaogbo': compound↑ (length 1)\n"
    "'Boko Haram' -> 'Jack Nwaogbo': compound↑ nsubj:pass↑ ccomp↑ nsubj↓ "
    "(length 4)\n"
)

# sha256 of ``inspect --doc STEM --paths`` for every fixture document,
# recorded while a tag was an object with a prefix and a label.
INSPECT_PATHS_DIGESTS = {
    "3f8a12bc-90de-4f61-8a2b-5c7e94d0a113":
        "bf31b2b8b450f09ae24956449e64c6966adf79d80c95397329284283564d5d59",
    "7b4c55e0-1a2f-4d3c-9e8b-0f6a7c2d4e85":
        "c25876cfa8d500b9e7933d8c3a1a3ffe65a99f6f0c4d06006efb24b85202aeff",
    "a95d77f2-63b8-4c04-b1de-2f90c3a6b7c1":
        "12ee689008a13d94108630d25174b65be834613bd04b21d65651bff6af7a1d75",
    "c2e94b08-5f17-4a6d-8c3b-91d0e4f2a5b6":
        "fbb9675a381a49b8b665e162c632177311ae6394392bbf00e9712cf9254c3386",
    "e610f3a9-8d2c-4b75-a0e1-7c4f92b8d3e2":
        "297ea0d6725335114abda7bc2fc8eaeda01b08f7a7551d14d6de4370e4938b9a",
}


class TestExtract:
    def test_nearest_person_gold_ner(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("extract", "--corpus", CORPUS_DIR, "--out", out,
                   "--strategy", "nearest-person") == 0
        assert (out / "graph.json").exists()
        assert (out / "run.json").exists()
        assert len(list(out.glob("*.ann"))) == 5
        graph = json.loads((out / "graph.json").read_text(encoding="utf-8"))
        edges = {
            (e["rtype"], e["from"], e["to"]) for e in graph["edges"]
        }
        # the single-person example document: every target attaches to T5
        for rtype, target in (
            ("has_title_role", "T1"), ("is_posted", "T2"), ("has_rank", "T4"),
        ):
            assert (rtype, f"{DOC_VANGUARD}:T5", f"{DOC_VANGUARD}:T1"
                    if target == "T1" else f"{DOC_VANGUARD}:{target}") in {
                (r, f, t) for r, f, t in edges
            }
        assert graph["seed"] == 13
        assert graph["config_hash"]

    def test_predicted_ann_files_reload(self, tmp_path):
        out = tmp_path / "out"
        run("extract", "--corpus", CORPUS_DIR, "--out", out,
            "--strategy", "sdp-constrained")
        for doc, _ in load_corpus(CORPUS_DIR):
            ann = (out / f"{doc.doc_id}.ann").read_text(encoding="utf-8")
            reparsed = parse_brat(ann, doc.text, doc.doc_id)
            assert reparsed.entities == doc.entities

    def test_existing_out_keeps_its_other_files(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        (out / "graph.json").write_text("stale\n", encoding="utf-8")
        assert run("extract", "--corpus", CORPUS_DIR, "--out", out,
                   "--strategy", "nearest-person") == 0
        assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"
        assert json.loads((out / "graph.json").read_text(encoding="utf-8"))["nodes"]
        assert len(list(out.glob("*.ann"))) == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_empty_corpus_is_fine(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("extract", "--corpus", empty, "--out", tmp_path / "o") == 0
        assert "0 documents" in capsys.readouterr().out

    def test_strategy_all_is_rejected(self, tmp_path, capsys):
        # a graph holds one strategy's edges; "all" is for evaluate
        out = tmp_path / "out"
        assert run("extract", "--corpus", CORPUS_DIR, "--out", out,
                   "--strategy", "all") == 1
        assert "one strategy's graph" in capsys.readouterr().err
        assert not out.exists()

    def test_nn_without_model_fails_actionably(self, tmp_path, capsys):
        code = run("extract", "--corpus", CORPUS_DIR, "--out", tmp_path / "o",
                   "--strategy", "nn-free")
        assert code == 1
        assert "--relnet-model" in capsys.readouterr().err

    def test_duplicate_person_annotation(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for ext, body in ((".txt", DUPLICATE_PERSON_TXT), (".ann", DUPLICATE_PERSON_ANN),
                          (".conllu", DUPLICATE_PERSON_CONLLU)):
            (corpus / f"dup{ext}").write_text(body, encoding="utf-8")
        out = tmp_path / "out"
        assert run("extract", "--corpus", corpus, "--out", out,
                   "--strategy", "sdp-free") == 0
        graph = json.loads((out / "graph.json").read_text(encoding="utf-8"))
        assert [(e["from"], e["to"], e["strategy"]) for e in graph["edges"]] == [
            ("dup:T1", "dup:T3", "sdp-free"),
        ]

    @staticmethod
    def model_ner_digests(tmp_path, monkeypatch, *train_flags):
        """sha256 of each output but run.json of a model-NER ``extract`` with
        the models ``train`` fits with ``train_flags``."""
        # relative paths keep graph.json's config hash the same in any checkout
        shutil.copytree(CORPUS_DIR, tmp_path / "corpus")
        shutil.copytree(GAZETTEERS, tmp_path / "gazetteers")
        monkeypatch.chdir(tmp_path)
        assert run("train", "--corpus", "corpus", "--out", "models", *train_flags) == 0
        assert run("extract", "--corpus", "corpus", "--out", "out",
                   "--ner-mode", "model", "--tagger-model", "models/tagger.model",
                   "--strategy", "nn-constrained", "--relnet-model", "models") == 0
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / "out").iterdir())
            if path.name != "run.json"
        }

    def test_model_ner_outputs_unchanged(self, tmp_path, monkeypatch):
        assert self.model_ner_digests(tmp_path, monkeypatch) == MODEL_NER_DIGESTS

    def test_model_ner_outputs_with_gazetteers_unchanged(self, tmp_path, monkeypatch):
        digests = self.model_ner_digests(
            tmp_path, monkeypatch, "--org-gazetteer", "gazetteers/organizations.txt",
            "--rank-gazetteer", "gazetteers/ranks.txt")
        model = tmp_path / "models" / "tagger.model"
        assert "org-lex" in model.read_text(encoding="utf-8")
        digests["tagger.model"] = hashlib.sha256(model.read_bytes()).hexdigest()
        assert digests == GAZETTEER_NER_DIGESTS

    def test_extract_then_rescore_matches_direct_evaluation(self, tmp_path):
        out = tmp_path / "out"
        run("extract", "--corpus", CORPUS_DIR, "--out", out,
            "--strategy", "sdp-constrained")
        for doc, trees in load_corpus(CORPUS_DIR):
            contexts = build_contexts(doc, trees)
            atts = extract_document(doc, contexts, Strategy.SDP_CONSTRAINED)
            direct = relation_counts(gold_pairs(doc, contexts), atts)
            pred_doc = parse_brat(
                (out / f"{doc.doc_id}.ann").read_text(encoding="utf-8"),
                doc.text, doc.doc_id,
            )
            gold_triples = Counter()
            by_id = {e.id: e for e in doc.entities}
            for rel in doc.relations:
                a, b = by_id[rel.arg1], by_id[rel.arg2]
                person = a if a.etype is EntityType.PERSON else b
                target = b if person is a else a
                gold_triples[(person.start, person.end,
                              target.start, target.end, rel.rtype)] += 1
            pred_by_id = {e.id: e for e in pred_doc.entities}
            pred_triples = Counter()
            for rel in pred_doc.relations:
                person, target = pred_by_id[rel.arg1], pred_by_id[rel.arg2]
                pred_triples[(person.start, person.end,
                              target.start, target.end, rel.rtype)] += 1
            tp = sum((gold_triples & pred_triples).values())
            rescored = (tp, sum(pred_triples.values()) - tp,
                        sum(gold_triples.values()) - tp)
            assert rescored == direct


# strings that json escapes: quotes, backslashes, control characters, line
# and paragraph separators, a lone surrogate, and any other code point
_JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u2029\ud800é€😀')
                     | st.characters(), max_size=8)
_ENTITIES = st.builds(EntitySpan, id=_JSON_TEXT, etype=st.sampled_from(EntityType),
                      start=st.integers(), end=st.integers(), surface=_JSON_TEXT)
_ATTACHMENTS = st.builds(Attachment, target=_ENTITIES, person=_ENTITIES,
                         rtype=st.sampled_from(RelationType),
                         strategy=st.sampled_from(Strategy))
_GRAPHS = st.fixed_dictionaries({
    "config_hash": _JSON_TEXT,
    "seed": st.integers(min_value=0),
    "strategy": _JSON_TEXT,
    "ner_mode": _JSON_TEXT,
})
# each document's id, (relation id, Attachment) pairs and entities
_DOCUMENTS = st.lists(st.tuples(
    _JSON_TEXT, st.lists(st.tuples(_JSON_TEXT, _ATTACHMENTS), max_size=3),
    st.lists(_ENTITIES, max_size=3)), max_size=3)


@given(_GRAPHS, _DOCUMENTS)
@example({"config_hash": "", "seed": 0, "strategy": "", "ner_mode": ""}, [])
@example({"config_hash": "", "seed": 0, "strategy": "", "ner_mode": ""},
         [("d", [], []), ("e", [], [])])
@settings(max_examples=100, deadline=None)
def test_graph_writer_matches_json_dump(graph, documents):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        with _graph_writer(path, graph) as add_to_graph:
            for doc_id, attached, entities in documents:
                add_to_graph(doc_id, attached, entities)
        written = path.read_bytes()
    edges = [
        {"rtype": att.rtype.value, "from": f"{doc_id}:{att.person.id}",
         "to": f"{doc_id}:{att.target.id}", "strategy": att.strategy.value,
         "doc_id": doc_id, "person_span": [att.person.start, att.person.end],
         "target_span": [att.target.start, att.target.end]}
        for doc_id, attached, _ in documents for _, att in attached
    ]
    nodes = [
        {"id": f"{doc_id}:{ent.id}", "type": ent.etype.value, "surface": ent.surface,
         "doc_id": doc_id, "offsets": [ent.start, ent.end]}
        for doc_id, _, entities in documents for ent in entities
    ]
    expected = json.dumps({**graph, "edges": edges, "nodes": nodes},
                          indent=2, sort_keys=True) + "\n"
    assert written == expected.encode("utf-8")


class TestTrain:
    def test_writes_models_and_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("train", "--corpus", CORPUS_DIR, "--out", out,
                       "--epochs", "60") == 0
        output = capsys.readouterr().out
        assert "parameters" in output
        for name in ("tagger.model", "relnet_select.model",
                     "relnet_constrained.model"):
            assert (a / name).exists()
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_models_keep_a_line_break_the_corpus_holds(self, sep, tmp_path):
        # the rank lexicon takes the Rank surface, and a path pattern the
        # deprel, with sep inside: each model file must load as written
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d.txt").write_bytes(
            f"Major{sep}General Ali Musa led the 3 Division.\n".encode())
        (corpus / "d.ann").write_bytes((
            f"T1\tRank 0 13\tMajor{sep}General\nT2\tPerson 14 22\tAli Musa\n"
            "T3\tOrganization 31 41\t3 Division\n"
            "R1\thas_rank Arg1:T2 Arg2:T1\nR2\tis_posted Arg1:T2 Arg2:T3\n").encode())
        rows = [("Major", 2, "amod"), ("General", 4, "compound"), ("Ali", 4, "flat"),
                ("Musa", 5, f"nsubj{sep}x"), ("led", 0, "root"), ("the", 8, "det"),
                ("3", 8, "nummod"), ("Division", 5, "obj"), (".", 5, "punct")]
        (corpus / "d.conllu").write_bytes("".join(
            f"{i}\t{form}\t_\t_\t_\t_\t{head}\t{rel}\t_\t_\n"
            for i, (form, head, rel) in enumerate(rows, start=1)).encode())
        models = tmp_path / "models"
        assert run("train", "--corpus", corpus, "--out", models, "--split", "1.0",
                   "--min-count", "1", "--epochs", "5", "--tagger-epochs", "1") == 0
        assert f"gaz-rank\tmajor{sep}general\n" in (
            models / "tagger.model").read_bytes().decode()
        assert f"nsubj{sep}x" in (models / "relnet_select.model").read_bytes().decode()
        for strategy in ("nn-free", "nn-constrained"):
            assert run("extract", "--corpus", corpus, "--out", tmp_path / strategy,
                       "--ner-mode", "model", "--tagger-model", models / "tagger.model",
                       "--strategy", strategy, "--relnet-model", models) == 0

    def test_empty_corpus_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("train", "--corpus", empty, "--out", tmp_path / "o") == 2

    def test_no_path_direction_is_kept_in_the_model(self, tmp_path, corpus_by_id):
        from unitgraph.relnet import featurize, load_relnet

        assert run("train", "--corpus", CORPUS_DIR, "--out", tmp_path,
                   "--targets", "relnet-select,relnet-constrained",
                   "--epochs", "5", "--no-path-direction") == 0
        doc, trees = corpus_by_id[DOC_VANGUARD]
        ctx = next(c for c in build_contexts(doc, trees) if c.persons)
        for name in ("relnet_select.model", "relnet_constrained.model"):
            model, vocab = load_relnet(tmp_path / name)
            assert vocab.directed is False and model.hyper["directed"] == 0
            assert vocab.index
            assert not any("↑" in key or "↓" in key for key in vocab.index)
            # directed keys would miss this vocabulary: only the unknown bit
            known = {
                int(i)
                for target in ctx.targets
                for i in featurize(ctx, target, vocab).slots[:, :-1].nonzero()[1]
            }
            assert known - {vocab.unknown_index}

    def test_a_repeated_target_is_fitted_once(self, tmp_path, capsys):
        # each network is fitted once, in table order, however --targets
        # repeats or orders them, and writes the bytes a single run writes
        runs = {"once": "relnet-select,relnet-constrained",
                "twice": "relnet-select,relnet-select,relnet-constrained",
                "reversed": "relnet-constrained,relnet-select"}
        for name, targets in runs.items():
            assert run("train", "--corpus", CORPUS_DIR, "--out", tmp_path / name,
                       "--targets", targets, "--epochs", "5") == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            assert [line.rsplit("/", 1)[1] for line in lines] == [
                "relnet_select.model", "relnet_constrained.model"], name
        for name in ("relnet_select.model", "relnet_constrained.model"):
            for other in ("twice", "reversed"):
                assert ((tmp_path / other / name).read_bytes()
                        == (tmp_path / "once" / name).read_bytes()), (other, name)

    @pytest.mark.parametrize("flags", list(RELNET_DIGESTS))
    def test_relnet_model_files_unchanged(self, flags, tmp_path, monkeypatch):
        shutil.copytree(CORPUS_DIR, tmp_path / "corpus")
        monkeypatch.chdir(tmp_path)
        assert run("train", "--corpus", "corpus", "--out", "models", "--targets",
                   "relnet-select,relnet-constrained", *flags) == 0
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / "models").iterdir())
        } == RELNET_DIGESTS[flags]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_network_overflowing_leaves_nothing(self, tmp_path, monkeypatch,
                                                    capsys):
        # the networks train together: select_k's loss overflows at its
        # first step, constrained3's does not
        init_model = unitgraph.relnet.init_model

        def overflowing_select(mode, *args, **kwargs):
            model = init_model(mode, *args, **kwargs)
            if mode == "select_k":
                model.W3 *= 1e308
            return model

        monkeypatch.setattr(unitgraph.relnet, "init_model", overflowing_select)
        out = tmp_path / "out"
        assert run("train", "--corpus", CORPUS_DIR, "--out", out, "--targets",
                   "relnet-select,relnet-constrained") == 1
        captured = capsys.readouterr()
        assert "error: learning_rate (--learning-rate) is too large" in captured.err
        assert not out.exists() and "->" not in captured.out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_mid_epoch_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        # three renamed copies of the fixtures give the networks three
        # batches an epoch; the loss overflows at the second step of epoch 1,
        # and the epoch's loss pass reports it after the third
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for k in range(3):
            for path in CORPUS_DIR.iterdir():
                shutil.copy(path, corpus / f"c{k}_{path.name}")
        finite = []  # per step, whether its probabilities are finite
        step = unitgraph.relnet._joint_step

        def recording(*args):
            P = step(*args)
            finite.append(bool(np.isfinite(P).all()))
            return P

        monkeypatch.setattr(unitgraph.relnet, "_joint_step", recording)
        out = tmp_path / "out"
        assert run("train", "--corpus", corpus, "--out", out, "--split", "1.0",
                   "--targets", "relnet-select,relnet-constrained",
                   "--learning-rate", "1e300") == 1
        captured = capsys.readouterr()
        assert "error: learning_rate (--learning-rate) is too large" in captured.err
        assert not out.exists() and "->" not in captured.out
        assert finite == [True, False, False]

    def test_unknown_target_rejected(self, tmp_path):
        assert run("train", "--corpus", CORPUS_DIR, "--out", tmp_path,
                   "--targets", "frobnicator") == 1

    @pytest.mark.parametrize("targets", ["", ","])
    def test_empty_target_list_is_a_usage_error(self, tmp_path, capsys, targets):
        out = tmp_path / "o"
        assert run("train", "--corpus", CORPUS_DIR, "--out", out,
                   "--targets", targets) == 1
        captured = capsys.readouterr()
        assert "--targets must name" in captured.err and "split" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_overflowing_learning_rate_is_an_error(self, command, tmp_path):
        # passes the config check, then the network's loss overflows
        src = Path(unitgraph.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = tmp_path / "x"
        # bench writes nothing, so it takes no --out
        out_flag = ["--out", out] if command == "train" else []
        proc = subprocess.run(
            [sys.executable, "-m", "unitgraph.cli", command, "--corpus", CORPUS_DIR,
             *out_flag, "--learning-rate", "1e300"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "error: learning_rate (--learning-rate)" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists() and "->" not in proc.stdout  # no model line either

    @pytest.mark.parametrize("command", [
        ["train", "--targets", "tagger"], ["evaluate", "--ner-eval"], ["bench"]])
    @pytest.mark.parametrize("flag", ["--org-gazetteer", "--rank-gazetteer"])
    def test_gazetteer_that_is_not_utf8_is_a_data_error(self, command, flag, tmp_path,
                                                         capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        out = tmp_path / "x"
        out_flag = ["--out", out] if command[0] != "bench" else []
        assert run(*command, "--corpus", CORPUS_DIR, *out_flag, flag, bad) == 2
        assert f"{bad}: not UTF-8 text (byte 0)" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    assert run("train", "--corpus", CORPUS_DIR, "--out", out,
               "--epochs", "60") == 0
    return out


class TestEvaluate:

    def test_all_strategies_table(self, models_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run("evaluate", "--corpus", CORPUS_DIR, "--out", out,
                   "--strategy", "all", "--relnet-model", models_dir)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Nearest Person (Baseline)" in stdout
        assert "Shortest Dep. Path (With constraint)" in stdout
        assert "Neural Network (No constraint)" in stdout
        assert "different sentences: 1" in stdout
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert len(metrics["rows"]) == 5
        assert metrics["cross_sentence_gold"] == 1

    def test_all_strategies_rows_are_unchanged(self, models_dir, tmp_path):
        out = tmp_path / "eval"
        assert run("evaluate", "--corpus", CORPUS_DIR, "--out", out,
                   "--strategy", "all", "--relnet-model", models_dir) == 0
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["cross_sentence_gold"] == 1
        assert [(r["name"], r["tp"], r["fp"], r["fn"]) for r in metrics["rows"]] == [
            ("Nearest Person (Baseline)", 6, 4, 2),
            ("Shortest Dep. Path (No constraint)", 6, 4, 2),
            ("Shortest Dep. Path (With constraint)", 6, 4, 2),
            ("Neural Network (No constraint)", 6, 4, 2),
            ("Neural Network (With constraint)", 5, 3, 3),
        ]

    def test_all_strategies_match_single_runs(self, models_dir, tmp_path):
        # one set of contexts serves every strategy; none may leak state
        def metrics(strategy):
            out = tmp_path / strategy
            # only the network strategies read a model
            models = (["--relnet-model", models_dir]
                      if strategy in ("nn-free", "nn-constrained", "all") else [])
            assert run("evaluate", "--corpus", CORPUS_DIR, "--out", out,
                       "--strategy", strategy, *models) == 0
            return json.loads((out / "metrics.json").read_text(encoding="utf-8"))

        single = [metrics(s.value) for s in Strategy]
        combined = metrics("all")
        assert combined["rows"] == [row for m in single for row in m["rows"]]
        assert {m["cross_sentence_gold"] for m in single} == {
            combined["cross_sentence_gold"]
        }

    def test_identical_seeds_identical_metrics(self, models_dir, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            run("evaluate", "--corpus", CORPUS_DIR, "--out", out,
                "--strategy", "all", "--relnet-model", models_dir)
            outs.append((out / "metrics.json").read_bytes())
        assert outs[0] == outs[1]

    def test_single_strategy(self, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run("evaluate", "--corpus", CORPUS_DIR, "--out", out,
                   "--strategy", "nearest-person") == 0
        rows = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["rows"]
        assert len(rows) == 1
        assert rows[0]["tp"] + rows[0]["fn"] == 8  # total gold relations

    def test_metric_check(self, capsys):
        assert run("evaluate", "--metric-check") == 0
        assert "reproduce within tolerance" in capsys.readouterr().out

    def test_ner_eval_runs(self, tmp_path, capsys):
        out = tmp_path / "ner"
        code = run("evaluate", "--corpus", CORPUS_DIR, "--out", out,
                   "--ner-eval", "--tagger-epochs", "3")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "All Classes" in stdout
        assert (out / "ner_metrics.json").exists()

    def test_no_training_sentences_is_a_data_error(self, tmp_path, capsys):
        # the seeded half-split trains on the empty document alone
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for path in CORPUS_DIR.glob(DOC_VANGUARD + ".*"):
            shutil.copy(path, corpus)
        (corpus / "aaa_empty.txt").write_text("", encoding="utf-8")
        split = ["--split", "0.5", "--seed", "1"]
        assert run("evaluate", "--corpus", corpus, "--out", tmp_path / "e",
                   "--ner-eval", *split) == 2
        assert "data error: no training sentences" in capsys.readouterr().err
        assert run("train", "--corpus", corpus, "--out", tmp_path / "t", *split) == 2
        assert "data error: no training sentences" in capsys.readouterr().err

    def test_model_ner_mode_rejected_without_ner_eval(self, tmp_path, capsys):
        # strategy scoring runs on gold entities and would ignore the mode, so
        # evaluate takes no --ner-mode flag
        assert run("evaluate", "--corpus", CORPUS_DIR, "--out", tmp_path / "a",
                   "--ner-mode", "model") == 1
        assert "unrecognized arguments: --ner-mode model" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus_dir": str(CORPUS_DIR),
                                   "ner_mode": "model"}), encoding="utf-8")
        assert run("evaluate", "--config", cfg, "--out", tmp_path / "b") == 1
        assert "--ner-eval" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_config_key_evaluate_has_no_flag_for_is_named_as_a_key(self, tmp_path,
                                                                    capsys):
        cfg = tmp_path / "cfg.json"
        for ner_mode, message in (("bogus", "error: config key ner_mode must be one of "),
                                  ("model", "config key ner_mode 'model' applies only "
                                            "with --ner-eval")):
            cfg.write_text(json.dumps({"corpus_dir": str(CORPUS_DIR),
                                       "ner_mode": ner_mode}), encoding="utf-8")
            assert run("evaluate", "--config", cfg, "--out", tmp_path / "o") == 1
            err = capsys.readouterr().err
            assert message in err and "--ner-mode" not in err, ner_mode
        assert not (tmp_path / "o").exists()

    def test_corpus_without_gold_fails(self, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "a.txt").write_text("Some text.\n", encoding="utf-8")
        assert run("evaluate", "--corpus", bare, "--out", tmp_path / "o") == 2

    def test_failed_command_leaves_no_output_directory(self, tmp_path, capsys):
        # the seeded half-split trains on the empty document alone
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for path in CORPUS_DIR.glob(DOC_VANGUARD + ".*"):
            shutil.copy(path, corpus)
        (corpus / "aaa_empty.txt").write_text("", encoding="utf-8")
        split = ["--split", "0.5", "--seed", "1"]
        failures = [
            ("train", "--corpus", corpus, *split),
            ("evaluate", "--corpus", corpus, "--ner-eval", *split),
            ("evaluate", "--corpus", CORPUS_DIR, "--strategy", "nn-free",
             "--relnet-model", tmp_path / "no.model"),
        ]
        for i, args in enumerate(failures):
            out = tmp_path / f"out{i}"
            assert run(*args, "--out", out) == 2, args
            assert "data error" in capsys.readouterr().err
            assert not out.exists(), args


# A run of each kind the CLI makes: its argv, and each config key the run
# reads with a flag that sets it to another value than the run's own (None:
# read, but varied in another run).  Paths in braces are made by
# ``read_keys_paths``.
_READ_RUNS = {
    "extract gold": (
        ["extract", "--corpus", "{corpus}", "--out", "out", "--strategy",
         "nn-constrained", "--relnet-model", "{relnets}"],
        {"corpus_dir": ["--corpus", "{fewer}"], "output_dir": ["--out", "elsewhere"],
         "seed": ["--seed", "7"], "strategy": ["--strategy", "nn-free"],
         "ner_mode": ["--ner-mode", "model", "--tagger-model", "{tagger}"],
         "relnet_model": ["--relnet-model", "{relnets2}"],
         "fallback": ["--fallback", "skip"]}),
    "extract nearest-person": (
        ["extract", "--corpus", "{corpus}", "--out", "out", "--strategy", "nearest-person"],
        dict.fromkeys(("corpus_dir", "output_dir", "seed", "strategy", "ner_mode"))),
    "extract model": (
        ["extract", "--corpus", "{corpus}", "--out", "out", "--ner-mode", "model",
         "--tagger-model", "{tagger}", "--strategy", "nn-constrained",
         "--relnet-model", "{relnets}"],
        {"corpus_dir": ["--corpus", "{fewer}"], "output_dir": ["--out", "elsewhere"],
         "seed": ["--seed", "7"], "strategy": ["--strategy", "nn-free"],
         "ner_mode": None, "tagger_model": ["--tagger-model", "{tagger2}"],
         "relnet_model": ["--relnet-model", "{relnets2}"],
         "fallback": ["--fallback", "skip"]}),
    "train": (
        ["train", "--corpus", "{corpus}", "--out", "models", "--epochs", "2",
         "--tagger-epochs", "1"],
        {"corpus_dir": ["--corpus", "{fewer}"], "output_dir": ["--out", "elsewhere"],
         "seed": ["--seed", "7"], "split": ["--split", "1.0"],
         "hidden_size": ["--hidden-size", "3"], "min_count": ["--min-count", "1"],
         "learning_rate": ["--learning-rate", "0.5"], "epochs": ["--epochs", "3"],
         "tagger_epochs": ["--tagger-epochs", "2"],
         "path_direction": ["--no-path-direction"],
         "org_gazetteer": ["--org-gazetteer", "{gazetteers}/organizations.txt"],
         "rank_gazetteer": ["--rank-gazetteer", "{gazetteers}/ranks.txt"]}),
    "train tagger": (
        ["train", "--corpus", "{corpus}", "--out", "models", "--targets", "tagger"],
        dict.fromkeys(("corpus_dir", "output_dir", "seed", "split", "tagger_epochs",
                       "org_gazetteer", "rank_gazetteer"))),
    "train relnets": (
        ["train", "--corpus", "{corpus}", "--out", "models", "--targets",
         "relnet-select,relnet-constrained"],
        dict.fromkeys(("corpus_dir", "output_dir", "seed", "split", "hidden_size",
                       "min_count", "learning_rate", "epochs", "path_direction"))),
    "evaluate strategies": (
        ["evaluate", "--corpus", "{corpus}", "--out", "out", "--strategy",
         "nn-constrained", "--relnet-model", "{relnets}"],
        {"corpus_dir": ["--corpus", "{fewer}"], "output_dir": ["--out", "elsewhere"],
         "seed": ["--seed", "7"], "strategy": ["--strategy", "nn-free"],
         "relnet_model": ["--relnet-model", "{relnets2}"],
         "fallback": ["--fallback", "skip"]}),
    "evaluate nearest-person": (
        ["evaluate", "--corpus", "{corpus}", "--out", "out"],
        dict.fromkeys(("corpus_dir", "output_dir", "seed", "strategy"))),
    "evaluate --ner-eval": (
        ["evaluate", "--corpus", "{corpus}", "--out", "out", "--ner-eval",
         "--split", "0.6"],
        {"corpus_dir": ["--corpus", "{fewer}"], "output_dir": ["--out", "elsewhere"],
         "seed": ["--seed", "7"], "split": ["--split", "0.8"],
         "tagger_epochs": ["--tagger-epochs", "2"],
         "org_gazetteer": ["--org-gazetteer", "{gazetteers}/organizations.txt"],
         "rank_gazetteer": ["--rank-gazetteer", "{unknown_ranks}"]}),
    "evaluate --metric-check": (["evaluate", "--metric-check"], {}),
    "bench with models": (
        ["bench", "--corpus", "{corpus}", "--tagger-model", "{tagger}",
         "--relnet-model", "{relnets}"],
        dict.fromkeys(("corpus_dir", "tagger_model", "relnet_model"))),
    "inspect": (
        ["inspect", "--corpus", "{corpus}", "--paths"],
        {"corpus_dir": ["--corpus", "{fewer}"]}),
}

# each config key's flag with a value that passes its check
_KEY_FLAGS = {
    "corpus_dir": ["--corpus", "{corpus}"], "output_dir": ["--out", "rejected"],
    "seed": ["--seed", "7"], "strategy": ["--strategy", "nn-free"],
    "ner_mode": ["--ner-mode", "model"], "tagger_model": ["--tagger-model", "{tagger}"],
    "relnet_model": ["--relnet-model", "{relnets}"], "split": ["--split", "0.5"],
    "hidden_size": ["--hidden-size", "3"], "min_count": ["--min-count", "1"],
    "learning_rate": ["--learning-rate", "0.1"], "epochs": ["--epochs", "3"],
    "tagger_epochs": ["--tagger-epochs", "2"], "fallback": ["--fallback", "skip"],
    "path_direction": ["--no-path-direction"],
    "org_gazetteer": ["--org-gazetteer", "{gazetteers}/organizations.txt"],
    "rank_gazetteer": ["--rank-gazetteer", "{gazetteers}/ranks.txt"],
}


@pytest.fixture(scope="module")
def read_keys_paths(tmp_path_factory):
    """The fixtures with one .conllu removed, so --fallback matters; the same
    without their first document; two taggers trained on the first; and
    relation networks trained on it, with a copy whose output layer is
    negated (networks trained on so few examples all attach alike).  A rank
    gazetteer that names no rank in the corpus stands in for the ranks a
    tagger learns from its training documents."""
    root = tmp_path_factory.mktemp("read_keys")
    corpus, fewer = root / "corpus", root / "fewer"
    shutil.copytree(CORPUS_DIR, corpus)
    (corpus / f"{DOC_ADEOSUN}.conllu").unlink()
    shutil.copytree(corpus, fewer)
    for path in fewer.glob(DOC_VANGUARD + ".*"):
        path.unlink()
    paths = {"corpus": corpus, "fewer": fewer, "gazetteers": GAZETTEERS,
             "unknown_ranks": root / "ranks.txt"}
    paths["unknown_ranks"].write_text("Commodore\n", encoding="utf-8")
    for name, flags in (("tagger", ["--targets", "tagger", "--tagger-epochs", "1"]),
                        ("tagger2", ["--targets", "tagger", "--split", "1.0"]),
                        ("relnets", ["--targets", "relnet-select,relnet-constrained",
                                     "--epochs", "3"])):
        assert run("train", "--corpus", corpus, "--out", root / name, *flags) == 0
        paths[name] = root / name
    paths["tagger"] = paths["tagger"] / "tagger.model"
    paths["tagger2"] = paths["tagger2"] / "tagger.model"
    paths["relnets2"] = root / "relnets2"
    paths["relnets2"].mkdir()
    for path in paths["relnets"].glob("*.model"):
        model, vocab = load_relnet(path)
        model.W3, model.b3 = -model.W3, -model.b3
        save_relnet(paths["relnets2"] / path.name, model, vocab)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("kind", _READ_RUNS)
def test_each_flag_changes_the_output_or_is_rejected(kind, read_keys_paths, tmp_path,
                                                      monkeypatch, capsys):
    argv, reads = _READ_RUNS[kind]
    runs = itertools.count()

    def run_in_new_directory(*args):
        """The exit code of the run, in a new working directory, and that
        directory."""
        work = tmp_path / str(next(runs))
        work.mkdir()
        monkeypatch.chdir(work)
        return run(*(a.format(**read_keys_paths) for a in args)), work

    def outputs(*args):
        """What the run prints and writes, but run.json and every line that
        holds the config hash."""
        code, work = run_in_new_directory(*args)
        assert code == 0, args
        files = {
            str(path.relative_to(work)): b"".join(
                line for line in path.read_bytes().splitlines(True)
                if b"config_hash" not in line)
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name != "run.json"
        }
        return capsys.readouterr().out, files

    varied = {key: flags for key, flags in reads.items() if flags is not None}
    if varied:
        base = outputs(*argv)
    for key, flags in varied.items():
        assert outputs(*argv, *flags) != base, key
    for key in sorted(set(_KEY_FLAGS) - set(reads)):
        code, work = run_in_new_directory(*argv, *_KEY_FLAGS[key])
        assert code == 1, key
        assert _KEY_FLAGS[key][0] in capsys.readouterr().err, key
        assert not any(work.iterdir()), key

class TestCorruptModels:
    def test_extract_with_bad_tagger_weight_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "tagger.model"
        bad.write_text("unitgraph-tagger 1\nF\tw=musa\tB-PER\tabc\n",
                       encoding="utf-8")
        code = run("extract", "--corpus", CORPUS_DIR, "--out", tmp_path / "o",
                   "--ner-mode", "model", "--tagger-model", bad)
        assert code == 2
        assert f"{bad}: line 2: weight is not a number" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["tagger.model"]

    def test_extract_with_forbidden_tagger_move_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "tagger.model"
        bad.write_text("unitgraph-tagger 1\nT\t<start>\tI-PER\t1.0\n", encoding="utf-8")
        code = run("extract", "--corpus", CORPUS_DIR, "--out", tmp_path / "o",
                   "--ner-mode", "model", "--tagger-model", bad)
        assert code == 2
        assert f"{bad}: line 2: forbidden move <start> -> I-PER" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["tagger.model"]

    def test_evaluate_with_truncated_relnet_exits_2(self, models_dir, tmp_path,
                                                    capsys):
        models = tmp_path / "models"
        shutil.copytree(models_dir, models)
        path = models / "relnet_select.model"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:text.index("\nmin_count ") + 1], encoding="utf-8")
        code = run("evaluate", "--corpus", CORPUS_DIR, "--out", tmp_path / "e",
                   "--strategy", "nn-free", "--relnet-model", models)
        assert code == 2
        assert f"{path}: no 'min_count' record" in capsys.readouterr().err

    def test_relnet_vocabulary_unlike_its_network_exits_2(self, models_dir, tmp_path,
                                                          capsys):
        models = tmp_path / "models"
        shutil.copytree(models_dir, models)
        path = models / "relnet_select.model"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\nunknown ", "\npattern\textra\t0\nunknown ", 1),
                        encoding="utf-8")
        code = run("evaluate", "--corpus", CORPUS_DIR, "--out", tmp_path / "e",
                   "--strategy", "nn-free", "--relnet-model", models)
        assert code == 2
        # the surplus pattern is the first record at fault: it reuses index 0
        assert "pattern index 0 is used twice" in capsys.readouterr().err


def _track_documents(monkeypatch):
    """Count the documents the corpus reader parses: returns a list with one
    weak reference per document and a one-item list holding the most of
    them alive at once (counted as each new one is made)."""
    parse_brat = unitgraph.corpus.parse_brat
    refs, peak = [], [0]

    def tracked(*args, **kwargs):
        doc = parse_brat(*args, **kwargs)
        refs.append(weakref.ref(doc))
        peak[0] = max(peak[0], sum(ref() is not None for ref in refs))
        return doc

    monkeypatch.setattr(unitgraph.corpus, "parse_brat", tracked)
    return refs, peak


class TestStreaming:
    """extract, evaluate and inspect read the corpus one document at a time."""

    COMMANDS = ("evaluate", "extract")

    def _argv(self, command, models_dir, corpus, out):
        if command == "extract":
            mode = ("--ner-mode", "model", "--tagger-model",
                    models_dir / "tagger.model", "--strategy", "nn-constrained")
        else:
            mode = ("--strategy", "all")
        return [command, *mode, "--relnet-model", models_dir,
                "--corpus", corpus, "--out", out]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_at_most_two_documents_alive(self, command, models_dir, tmp_path,
                                         monkeypatch):
        refs, peak = _track_documents(monkeypatch)
        assert run(*self._argv(command, models_dir, CORPUS_DIR, tmp_path / "o")) == 0
        assert len(refs) == 5
        assert peak[0] <= 2

    def test_model_ner_extract_reads_no_annotations(self, models_dir, tmp_path,
                                                     monkeypatch, capsys):
        # every .ann of one copy is garbage, yet model NER gives the clean
        # copy's bytes: run from two directories with one relative --corpus,
        # so the config hashes (and run.json) match too
        outputs = {}
        for name in ("clean", "broken"):
            corpus = tmp_path / name / "corpus"
            shutil.copytree(CORPUS_DIR, corpus)
            if name == "broken":
                for ann in corpus.glob("*.ann"):
                    ann.write_text("T1\tnot an annotation\n", encoding="utf-8")
            monkeypatch.chdir(tmp_path / name)
            assert run(*self._argv("extract", models_dir, "corpus", "out")) == 0
            outputs[name] = {path.name: path.read_bytes()
                             for path in sorted(Path("out").iterdir())}
        assert len(outputs["clean"]) == 7 and outputs["broken"] == outputs["clean"]
        capsys.readouterr()
        # gold entities still come from the .ann files, checked
        first = sorted(CORPUS_DIR.glob("*.ann"))[0].name
        for command in (("extract", "nn-constrained"), ("evaluate", "all")):
            assert run(command[0], "--strategy", command[1], "--relnet-model",
                       models_dir, "--corpus", "corpus", "--out", "gold") == 2
            assert (f"data error: {first}: line 1: text-bound needs 3"
                    in capsys.readouterr().err), command
            assert not Path("gold").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_last_document_leaves_no_output_directory(self, command, models_dir,
                                                          tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        assert sorted(p.stem for p in corpus.glob("*.txt"))[-1] == DOC_CEREMONY
        (corpus / f"{DOC_CEREMONY}.conllu").write_text("1\tonly three\tcolumns\n",
                                                      encoding="utf-8")
        out = tmp_path / "out"
        assert run(*self._argv(command, models_dir, corpus, out)) == 2
        err = capsys.readouterr().err
        assert f"data error: {DOC_CEREMONY}.conllu: line 1: expected 10" in err
        # no --out, no spool beside it, and no parent made for either
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]
        assert run(*self._argv(command, models_dir, corpus, out / "a" / "b")) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

    def test_extract_memory_does_not_grow_with_the_corpus(self, tmp_path):
        # nothing is kept per document: the traced peak on 20 renamed copies
        # of the fixtures stays within a small margin of the peak on one
        def peak(copies):
            corpus = tmp_path / f"corpus{copies}"
            if not corpus.exists():
                corpus.mkdir()
                for k in range(copies):
                    for path in CORPUS_DIR.iterdir():
                        shutil.copy(path, corpus / f"c{k:02d}_{path.name}")
            tracemalloc.start()
            try:
                assert run("extract", "--corpus", corpus, "--out",
                           tmp_path / f"out{copies}", "--strategy",
                           "nearest-person") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the first run's one-time allocations
        one, twenty = peak(1), peak(20)
        assert len(list((tmp_path / "out20").glob("*.ann"))) == 100
        assert twenty - one < 64 * 1024, (one, twenty)

    def test_model_ner_tokenizes_each_document_once(self, models_dir, tmp_path,
                                                     monkeypatch):
        # an unparsed document's contexts reuse the tagger's sentences
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        (corpus / f"{DOC_VANGUARD}.conllu").unlink()
        texts = Counter()
        tokenize = unitgraph.tokens.tokenize

        def counted(text):
            texts[text] += 1
            return tokenize(text)

        for module in (unitgraph.tagger, unitgraph.relations):
            monkeypatch.setattr(module, "tokenize", counted)
        assert run(*self._argv("extract", models_dir, corpus, tmp_path / "o")) == 0
        assert len(texts) == 5 and set(texts.values()) == {1}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_utf8_parse_file_exits_2(self, command, models_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        bad = corpus / f"{DOC_VANGUARD}.conllu"
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe")
        out = tmp_path / "out"
        assert run(*self._argv(command, models_dir, corpus, out)) == 2
        assert f"data error: {bad}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "evaluate", "train", "inspect"])
    def test_missing_corpus_directory_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        out_flag = ["--out", out] if command != "inspect" else []
        assert run(command, "--corpus", tmp_path / "absent", *out_flag) == 2
        assert "no such directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "evaluate", "train"])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_is_a_file_exits_2_before_any_work(self, command, under,
                                                         tmp_path, capsys):
        # neither the corpus nor a model exists: reading either first would
        # report that instead
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        out = afile / "sub" if under else afile
        argv = [command, "--corpus", tmp_path / "absent", "--out", out]
        if command == "extract":
            argv += ["--ner-mode", "model", "--tagger-model", tmp_path / "none.model"]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert f"data error: --out {out}: {afile} exists and is not a directory" \
            in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
        assert afile.read_text(encoding="utf-8") == "kept\n"

    def test_corpus_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = CORPUS_DIR / f"{DOC_VANGUARD}.txt"
        assert run("extract", "--corpus", path, "--out", out) == 2
        assert f"{path}: not a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["same", "through .."])
    def test_out_that_is_the_corpus_exits_2_before_any_work(self, spelling, tmp_path,
                                                           capsys):
        # extract would replace the gold .ann files with its predictions; the
        # tagger model does not exist, so reading it first would report that
        corpus = tmp_path / "c2"
        shutil.copytree(CORPUS_DIR, corpus)
        before = {p.name: p.read_bytes() for p in corpus.iterdir()}
        out = corpus if spelling == "same" else tmp_path / "absent" / ".." / "c2"
        assert run("extract", "--corpus", corpus, "--out", out,
                   "--ner-mode", "model", "--tagger-model", tmp_path / "none.model") == 2
        captured = capsys.readouterr()
        assert f"data error: --out {out} is the corpus directory {corpus}" in captured.err
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in corpus.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c2"]

    def test_inspect_reads_until_the_document_is_found(self, monkeypatch, capsys):
        refs, _ = _track_documents(monkeypatch)
        assert run("inspect", "--corpus", CORPUS_DIR, "--doc", DOC_ADEOSUN) == 0
        assert f"# {DOC_ADEOSUN}:" in capsys.readouterr().out
        assert len(refs) == 2  # DOC_ADEOSUN is the second stem

    def test_inspect_reports_not_found_after_a_full_pass(self, monkeypatch, capsys):
        refs, _ = _track_documents(monkeypatch)
        assert run("inspect", "--corpus", CORPUS_DIR, "--doc", "nope") == 2
        assert "document 'nope' not found" in capsys.readouterr().err
        assert len(refs) == 5


class TestBench:
    def test_four_component_rows(self, tmp_path, capsys):
        assert run("bench", "--corpus", CORPUS_DIR, "--repetitions", "3") == 0
        stdout = capsys.readouterr().out
        for component in ("NER", "Tree alignment", "Shortest Dep. Path",
                          "Neural Network"):
            assert component in stdout
        assert "reference 294" in stdout

    def test_too_few_repetitions_is_usage_error(self, tmp_path):
        assert run("bench", "--corpus", CORPUS_DIR, "--repetitions", "2") == 1


class TestInspect:
    def test_prints_token_tag_rows(self, capsys):
        assert run("inspect", "--corpus", CORPUS_DIR, "--doc", DOC_VANGUARD) == 0
        stdout = capsys.readouterr().out
        assert "B-PER" in stdout and "Nwaogbo" in stdout

    def test_paths_flag(self, capsys):
        assert run("inspect", "--corpus", CORPUS_DIR, "--doc", DOC_VANGUARD,
                   "--paths") == 0
        assert "↑" in capsys.readouterr().out

    def test_paths_output_is_unchanged(self, capsys):
        assert run("inspect", "--corpus", CORPUS_DIR, "--doc", DOC_VANGUARD,
                   "--paths") == 0
        assert capsys.readouterr().out == INSPECT_VANGUARD_PATHS

    def test_paths_output_is_unchanged_for_every_document(self, capsys):
        stems = sorted(path.stem for path in CORPUS_DIR.glob("*.txt"))
        assert stems == sorted(INSPECT_PATHS_DIGESTS)
        for stem in stems:
            assert run("inspect", "--corpus", CORPUS_DIR, "--doc", stem, "--paths") == 0
            out = capsys.readouterr().out.encode("utf-8")
            assert hashlib.sha256(out).hexdigest() == INSPECT_PATHS_DIGESTS[stem], stem

    def test_unknown_doc(self, capsys):
        assert run("inspect", "--corpus", CORPUS_DIR, "--doc", "nope") == 2


class TestUsage:
    @pytest.mark.parametrize("flags, message", [
        (["extract", "--corpus", CORPUS_DIR, "--out", "{out}", "--strategy",
          "sdp-constrained", "--epochs", "7"],
         "error: unrecognized arguments: --epochs 7"),
        (["extract", "--corpus", CORPUS_DIR, "--out", "{out}", "--strategy",
          "nearest-person", "--relnet-model", "models"],
         "error: extract reads --relnet-model only with an nn-* strategy or all"),
        # usage errors found once the flags are read
        (["train", "--corpus", CORPUS_DIR, "--out", "{out}", "--targets", "frob"],
         "error: --targets must name one or more of tagger, relnet-select, "
         "relnet-constrained, got 'frob'"),
        (["extract", "--out", "{out}", "--strategy", "nearest-person"],
         "error: --corpus is required"),
        (["bench", "--corpus", CORPUS_DIR, "--repetitions", "2"],
         "error: --repetitions must be at least 3"),
        # a run that would need a model it is not given, or that asks a
        # command for what only the other one does
        (["extract", "--corpus", CORPUS_DIR, "--out", "{out}", "--strategy", "nn-free"],
         "error: strategy nn-free needs a trained model file; pass --relnet-model "
         "(train one with the 'train' command)"),
        (["evaluate", "--corpus", CORPUS_DIR, "--out", "{out}", "--strategy", "all"],
         "error: strategy all needs a trained model file; pass --relnet-model "
         "(train one with the 'train' command)"),
        (["extract", "--corpus", CORPUS_DIR, "--out", "{out}", "--ner-mode", "model"],
         "error: --ner-mode model needs --tagger-model"),
        (["extract", "--corpus", CORPUS_DIR, "--out", "{out}", "--strategy", "all"],
         "error: extract writes one strategy's graph; --strategy all applies to evaluate"),
        (["evaluate", "--config", "{config}", "--out", "{out}"],
         "error: evaluate scores strategies on gold entities; config key ner_mode "
         "'model' applies only with --ner-eval"),
    ])
    def test_a_flag_the_run_does_not_read_shows_the_command_usage(
            self, tmp_path, tmp_path_factory, monkeypatch, capsys, flags, message):
        config = tmp_path_factory.mktemp("config") / "model_ner.json"
        config.write_text(json.dumps({"corpus_dir": str(CORPUS_DIR), "ner_mode": "model"}),
                          encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run(*(str(f).format(out=tmp_path / "out", config=config)
                     for f in flags)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: unitgraph {flags[0]} [-h] [--config CONFIG]")
        assert err.rstrip().endswith(message)
        assert not any(tmp_path.iterdir())

    def test_unknown_strategy(self, tmp_path):
        assert run("extract", "--corpus", CORPUS_DIR, "--out", tmp_path,
                   "--strategy", "psychic") == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for key in ("warp_factor", "workers"):
            cfg.write_text(json.dumps({"corpus_dir": "x", key: 9}), encoding="utf-8")
            assert run("extract", "--config", cfg, "--out", tmp_path) == 1, key

    @pytest.mark.parametrize("content", [b"[1]", b'"seed"', b"\xff\xfe{}", b"{"])
    def test_config_file_must_be_a_json_object(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run("extract", "--config", cfg, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith("error: config file ")
        assert not (tmp_path / "out").exists()

    def test_config_file_plus_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus_dir": str(CORPUS_DIR), "seed": 21}),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run("extract", "--config", cfg, "--out", out) == 0
        graph = json.loads((out / "graph.json").read_text(encoding="utf-8"))
        assert graph["seed"] == 21

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("train", "epochs", 0),
        ("train", "epochs", -3),
        ("train", "tagger_epochs", 0),
        ("evaluate", "tagger_epochs", 0),
        ("train", "min_count", 0),
        ("train", "hidden_size", 0),
        ("train", "learning_rate", float("nan")),
        ("train", "learning_rate", float("inf")),
        ("train", "learning_rate", 0.0),
        ("train", "learning_rate", -0.05),
        ("train", "split", 0.0),
        ("train", "split", 1.5),
    ])
    def test_out_of_range_value_is_rejected(self, tmp_path, capsys, form, command,
                                            key, value):
        args = [command, "--out", tmp_path / "out"]
        if command == "evaluate":
            args.append("--ner-eval")
        config = {"corpus_dir": str(CORPUS_DIR)}
        if form == "flag":
            args += ["--" + key.replace("_", "-"), value]
        else:
            config[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(*args, "--config", tmp_path / "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} (--{key.replace('_', '-')}) must be")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {}, {"epochs": 5}, {"epochs": 60}, {"epochs": 80}, {"split": 1.0},
        {"split": 1}, {"tagger_epochs": 1, "min_count": 1, "hidden_size": 1},
        {"learning_rate": 1e-9},
    ])
    def test_values_in_range_are_accepted(self, overrides):
        cfg = RunConfig.load(None, overrides)
        assert all(getattr(cfg, key) == value for key, value in overrides.items())

    # a wrong type or a value outside the choices, named with the flag the
    # parser defines; "no" and "5" come only from a config file:
    # --no-path-direction takes no value, and --epochs 5 is a valid five
    @pytest.mark.parametrize("form, command, key, value, flag", [
        ("flag", "train", "seed", "x", "--seed"),
        ("config", "train", "seed", "x", "--seed"),
        ("flag", "extract", "ner_mode", "bogus", "--ner-mode"),
        ("config", "extract", "ner_mode", "bogus", "--ner-mode"),
        ("flag", "extract", "fallback", "bogus", "--fallback"),
        ("config", "extract", "fallback", "bogus", "--fallback"),
        ("config", "train", "path_direction", "no", "--no-path-direction"),
        ("config", "train", "epochs", "5", "--epochs"),
        ("config", "extract", "corpus_dir", 5, "--corpus"),
        ("config", "extract", "output_dir", None, "--out"),
        ("config", "train", "learning_rate", 10 ** 400, "--learning-rate"),
    ])
    def test_bad_value_is_rejected_up_front(self, tmp_path, capsys, form, command,
                                            key, value, flag):
        out = tmp_path / "out"
        config = {"corpus_dir": str(CORPUS_DIR), "output_dir": str(out)}
        args = [command]
        if form == "flag":
            args += [flag, value]
        else:
            config[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(*args, "--config", tmp_path / "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ({flag}) must be ")
        assert err.rstrip().endswith(f"got {value!r}")
        assert "Traceback" not in err
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from([f.name for f in fields(RunConfig)]),
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
                  st.lists(st.integers(), max_size=2),
                  st.sampled_from(["gold", "model", "skip", "all", "sdp-free"]),
                  st.integers(1, 9), st.floats(0.01, 1)),
        max_size=4,
    ))
    def test_any_config_file_loads_typed_or_is_rejected(self, config):
        accepts = {"int": (int,), "float": (int, float), "bool": (bool,),
                   "str": (str,), "str | None": (str, type(None))}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            try:
                cfg = RunConfig.load(str(path), {})
            except UsageError:
                return
        for f in fields(cfg):
            assert type(getattr(cfg, f.name)) in accepts[f.type], f.name

    def test_missing_corpus_flag(self):
        assert run("extract") == 1

    def test_module_runs_the_cli(self):
        src = Path(unitgraph.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "unitgraph.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: unitgraph")


# what an inference command must not load: OpenSSL's libcrypto comes in with
# _hashlib, and numpy.random brings it in through secrets and hmac
_HEAVY_MODULES = ("_hashlib", "hmac", "secrets", "numpy.random")

_INFERENCE_SCRIPT = """
import sys
from unitgraph.cli import main
corpus, models, out, doc = sys.argv[1:]
for argv in (
    ["extract", "--corpus", corpus, "--out", out + "/gold",
     "--strategy", "nearest-person"],
    ["extract", "--corpus", corpus, "--out", out + "/model", "--ner-mode", "model",
     "--tagger-model", models + "/tagger.model", "--strategy", "nn-constrained",
     "--relnet-model", models],
    ["evaluate", "--corpus", corpus, "--out", out + "/evaluate", "--strategy", "all",
     "--relnet-model", models],
    ["inspect", "--corpus", corpus, "--doc", doc, "--paths"],
):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
loaded = [name for name in %r if name in sys.modules]
if loaded:
    sys.exit(f"loaded: {loaded}")
""" % (_HEAVY_MODULES,)

# the library leaves the collector alone; the CLI module freezes what its
# imports made (numpy's objects among them), and a command still runs after
_FREEZE_SCRIPT = """
import gc, sys
import unitgraph
assert gc.get_freeze_count() == 0, gc.get_freeze_count()
import unitgraph.cli
assert gc.get_freeze_count() > 10_000, gc.get_freeze_count()
corpus, out = sys.argv[1:]
sys.exit(unitgraph.cli.main(["extract", "--corpus", corpus, "--out", out]))
"""

# the CLI's config hashes with the built-in hash modules blocked, so that
# the hashlib branch of its import runs on any Python
_FALLBACK_SCRIPT = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import unitgraph.cli
assert unitgraph.cli.sha256 is hashlib.sha256, unitgraph.cli.sha256
for config in json.loads(sys.stdin.read()):
    print(unitgraph.cli.RunConfig(**config).hash())
"""


def _config_hash(config: dict) -> str:
    payload = {k: v for k, v in config.items() if k != "output_dir"}
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


_FIELD_VALUES = {
    "str": st.text(),
    "str | None": st.none() | st.text(),
    "int": st.integers(),
    "float": st.floats() | st.integers(),
    "bool": st.booleans(),
}
_CONFIGS = st.builds(RunConfig, **{f.name: _FIELD_VALUES[f.type]
                                   for f in fields(RunConfig)})


class TestFootprint:
    """What a command costs before it reads the corpus: the modules it loads
    and the config hash it writes."""

    def _python(self, script, *args, **kwargs):
        src = Path(unitgraph.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              capture_output=True, text=True, env=env,
                              timeout=120, **kwargs)

    def test_inference_commands_do_not_load_openssl(self, models_dir, tmp_path):
        proc = self._python(_INFERENCE_SCRIPT, CORPUS_DIR, models_dir,
                            tmp_path, DOC_VANGUARD)
        assert proc.returncode == 0, proc.stderr

    @settings(max_examples=200, deadline=None)
    @given(_CONFIGS)
    @example(RunConfig(corpus_dir="/données/корпус/事件", output_dir="ünïcode",
                       tagger_model=None, relnet_model="modèles/",
                       learning_rate=1e-300, split=0.1 + 0.2))
    def test_hash_is_sha256_of_the_sorted_config(self, cfg):
        assert cfg.hash() == _config_hash(asdict(cfg))

    def test_only_the_cli_module_freezes_the_collector(self, tmp_path):
        proc = self._python(_FREEZE_SCRIPT, CORPUS_DIR, tmp_path / "out")
        assert proc.returncode == 0, proc.stderr

    def test_hashlib_fallback_gives_the_same_hash(self):
        configs = [
            {},
            {"corpus_dir": "/données/корпус/事件", "relnet_model": None,
             "learning_rate": 0.1 + 0.2, "split": 1, "seed": 2 ** 70},
            {"output_dir": "elsewhere", "strategy": "all", "path_direction": False,
             "org_gazetteer": "gaz/org.txt", "learning_rate": float("inf")},
        ]
        proc = self._python(_FALLBACK_SCRIPT, input=json.dumps(configs))
        assert proc.returncode == 0, proc.stderr
        expected = [_config_hash(asdict(RunConfig(**c))) for c in configs]
        assert proc.stdout.split() == expected
