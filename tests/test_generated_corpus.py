"""Byte identity on a generated corpus: the sha256 of every output directory
and model file that the commands below write.

The fixture pins are weak for the relation networks, which train there on
6 examples with a vocabulary of 2.  A corpus from the benchmark's generator
(``perfbench/corpusgen.py``, 20 fixture copies, a quarter of the documents
without a parse) trains them on more, and makes fallbacks and abstentions
occur.  A change that alters an output re-records its pin and says why.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from unitgraph.cli import main

from conftest import CORPUS_DIR

CORPUSGEN = Path(__file__).resolve().parents[1] / "perfbench" / "corpusgen.py"
COPIES, UNPARSED_SHARE, SEED = 20, 0.25, 5

GOLD_STRATEGIES = ("nearest-person", "sdp-free", "sdp-constrained", "nn-free",
                   "nn-constrained")

# each command by the directory it writes; run in this order, from the
# directory holding the corpus, with relative paths (config_hash holds them)
COMMANDS = {
    "models": ["train", "--corpus", "corpus", "--out", "models"],
    **{f"extract-{s}": ["extract", "--corpus", "corpus", "--out", f"extract-{s}",
                        "--strategy", s, *(["--relnet-model", "models"]
                                           if s.startswith("nn-") else [])]
       for s in GOLD_STRATEGIES},
    "extract-model-ner": ["extract", "--corpus", "corpus", "--out", "extract-model-ner",
                          "--ner-mode", "model", "--tagger-model", "models",
                          "--strategy", "nn-constrained", "--relnet-model", "models"],
    "evaluate": ["evaluate", "--corpus", "corpus", "--out", "evaluate",
                 "--strategy", "all", "--relnet-model", "models"],
    "ner-eval": ["evaluate", "--corpus", "corpus", "--out", "ner-eval", "--ner-eval",
                 "--tagger-model", "models"],
}

# sha256 of each model file, of each other output directory (``_digest``)
# and of the standard output of ``inspect --doc ID --paths`` for every
# document, recorded before the tagger and the networks imported numpy at
# their first use; the two network files were re-recorded once their draws
# came from random.Random.
PINS = {
    "models/relnet_constrained.model":
        "998b01f59ae98535ec6039babf09cc7d47554c5c93da20f24ff3136d57738d6c",
    "models/relnet_select.model":
        "1dc45db10290e8e9bf2014ca0636885c35b32221aefc7b89730d31b733629329",
    "models/tagger.model":
        "c272f9d00e63a3e245a77d68c6177620ea0bb53b9b52b0b553fdc497b1c54342",
    "extract-nearest-person":
        "37db61b22e2ef431e7d78fdabdafcacc07926cd95b48e21d4a062923d0e9bfb6",
    "extract-sdp-free":
        "f11fceb01a79190e25d6828d7c7b6d233f95f0a293a3f7f84ec7ca387fd79b27",
    "extract-sdp-constrained":
        "f56173dac038e5f66850883357a8203dba2f3dba4ddd138b010c05ee2e1a6001",
    "extract-nn-free":
        "21336cb079839d4caf662d588dcef406c3ac2416c3f5428f1488c144cd39a73b",
    "extract-nn-constrained":
        "57ede257d8e66e64a4e89ecaa1f49b9cfcbab3de5837b782690ec641685f5a13",
    "extract-model-ner":
        "76ac061ef2bbdbfa7dbc5e077cf941a43d97835dbfc6d5670b2816b71aa1244f",
    "evaluate":
        "2b5b524529479466419cfb361db97a881d58097d762ca2ab2abea038e47f94a9",
    "ner-eval":
        "53e7384c1f7d08373a11a93bd27ab3f08bbf8eee111b6d23aebf5f7ba8b168ee",
    "inspect --paths":
        "982305da9c0e1017c883c8e643120feaa9dc69194af04f4128ddef9a01a5a84a",
}


def _corpusgen():
    """The benchmark's corpus generator, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location("corpusgen", CORPUSGEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _digest(directory: Path) -> str:
    """sha256 over a directory's files in name order: each file's name, its
    size and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Every pinned sha256, from one run of every command."""
    work = tmp_path_factory.mktemp("generated")
    corpusgen = _corpusgen()
    files, _ = corpusgen.generate(corpusgen.load_fixtures(CORPUS_DIR), COPIES,
                                  UNPARSED_SHARE, SEED)
    corpusgen.write_corpus(files, work / "corpus")
    found = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        for out, argv in COMMANDS.items():
            assert main(argv) == 0, argv
            if out != "models":
                found[out] = _digest(work / out)
        for path in sorted((work / "models").iterdir()):
            found[f"models/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        stdout = io.StringIO()  # every document's, the unparsed ones too
        with contextlib.redirect_stdout(stdout):
            for txt in sorted((work / "corpus").glob("*.txt")):
                assert main(["inspect", "--corpus", "corpus", "--doc", txt.stem,
                             "--paths"]) == 0
        found["inspect --paths"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return found


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(PINS)


@pytest.mark.parametrize("name", list(PINS))
def test_output_keeps_its_bytes(digests, name):
    assert digests[name] == PINS[name]
