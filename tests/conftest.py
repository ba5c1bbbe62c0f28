import logging
from pathlib import Path

import pytest
from hypothesis import strategies as st

from unitgraph.corpus import (Document, EntitySpan, EntityType, RelationEdge,
                              RelationType, load_corpus)
from unitgraph.deptree import DepTree
from unitgraph.relations import build_contexts
from unitgraph.tokens import Token

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
GAZETTEERS = FIXTURES / "gazetteers"

# Raw text laid out so the annotation block below lands on its published
# offsets (GOC at 35..38, Officer Commanding at 52..70, and so on).
EXAMPLE_TEXT = (
    "Boko Haram: Army assures on safety\n"
    "GOC, the General Officer Commanding 3 Armoured Division of the "
    "Nigerian Army, Major General Jack Nwaogbo, has again re-assured "
    "Nigerians that the Boko Haram insurgency would soon be contained.\n"
)

# Verbatim annotation block for the sentence above, including its two
# schema-inconsistent relations (kept as-is on load, only flagged).
EXAMPLE_ANN = (
    "T1\tTitle_Role 35 38\tGOC\n"
    "T2\tTitle_Role 52 70\tOfficer Commanding\n"
    "T3\tOrganization 71 90\t3 Armoured Division\n"
    "T4\tOrganization 98 111\tNigerian Army\n"
    "R1 has_rank Arg1:T1 Arg2:T2\t\n"
    "R2 is_posted Arg1:T1 Arg2:T3\t\n"
    "R3 has_title Arg1:T1 Arg2:T4\t\n"
)

# The annotated example sentence on its own (tokenization/IOB fixture).
EXAMPLE_SENTENCE = (
    "General Officer Commanding 3 Armoured Division of the Nigerian Army, "
    "Major General Jack Nwaogbo, has again re-assured Nigerians that the "
    "Boko Haram insurgency would soon be contained."
)

# One parsed sentence whose Person is annotated twice on the same offsets
# (T1 and T2, both "John Smith" at 12..22); parse_brat accepts this.
DUPLICATE_PERSON_TXT = "The colonel John Smith spoke.\n"
DUPLICATE_PERSON_ANN = (
    "T1\tPerson 12 22\tJohn Smith\n"
    "T2\tPerson 12 22\tJohn Smith\n"
    "T3\tRank 4 11\tcolonel\n"
)
DUPLICATE_PERSON_CONLLU = (
    "# sent_id = 1\n"
    "1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
    "2\tcolonel\tcolonel\tNOUN\t_\t_\t4\tcompound\t_\t_\n"
    "3\tJohn\tJohn\tPROPN\t_\t_\t4\tcompound\t_\t_\n"
    "4\tSmith\tSmith\tPROPN\t_\t_\t5\tnsubj\t_\t_\n"
    "5\tspoke\tspeak\tVERB\t_\t_\t0\troot\t_\t_\n"
    "6\t.\t.\tPUNCT\t_\t_\t5\tpunct\t_\t_\n"
    "\n"
)

DOC_VANGUARD = "3f8a12bc-90de-4f61-8a2b-5c7e94d0a113"
DOC_ADEOSUN = "7b4c55e0-1a2f-4d3c-9e8b-0f6a7c2d4e85"
DOC_LOGISTICS = "a95d77f2-63b8-4c04-b1de-2f90c3a6b7c1"
DOC_GOVERNOR = "c2e94b08-5f17-4a6d-8c3b-91d0e4f2a5b6"
DOC_CEREMONY = "e610f3a9-8d2c-4b75-a0e1-7c4f92b8d3e2"

# every character but "\n" and "\r" at which str.splitlines() breaks a line
SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def is_tree(tree):
    """Independent oracle: one root, every head a token of the sentence, and
    every token reached exactly once from the root over a children map
    built from the heads."""
    n = len(tree.heads)
    if len(tree.forms) != n or len(tree.labels) != n or tree.heads.count(-1) != 1:
        return False
    children = {i: [] for i in range(n)}
    for dep, head in enumerate(tree.heads):
        if head != -1:
            if head not in children:
                return False
            children[head].append(dep)
    seen = set()
    stack = [tree.heads.index(-1)]
    while stack:
        node = stack.pop()
        if node in seen:
            return False
        seen.add(node)
        stack.extend(children[node])
    return len(seen) == n


def tree_from_heads(forms, heads, labels=None):
    """The one way tests build a ``DepTree``: ``heads[i]`` is token i's
    0-based head, or -1 for the root, and every arc is labelled "dep"
    unless ``labels`` says otherwise.  The heads must form a tree."""
    tree = DepTree(list(forms), list(heads),
                   ["dep"] * len(heads) if labels is None else list(labels))
    assert is_tree(tree), tree
    return tree


@pytest.fixture(autouse=True)
def _quiet_warnings(caplog):
    caplog.set_level(logging.ERROR)
    yield


@pytest.fixture(scope="session")
def corpus_entries():
    return load_corpus(CORPUS_DIR)


@pytest.fixture(scope="session")
def corpus_by_id(corpus_entries):
    return {doc.doc_id: (doc, trees) for doc, trees in corpus_entries}


# Sentence i of a drawn document covers [20 i, 20 i + 15); the gaps between
# and after the sentences lie outside every sentence.
_SENTENCE_STEP, _SENTENCE_WIDTH = 20, 15


@st.composite
def gold_documents(draw):
    """A document and its contexts (``build_contexts`` on fixed sentences)
    with gold edges of every kind: Person/Person and non-Person/non-Person
    edges, edges across sentences, entities outside every sentence,
    schema-flagged types, duplicate spans and a missing argument.  Starts
    come from a few offsets, so spans often repeat."""
    n_sents = draw(st.integers(1, 3))
    sents = [[Token("w", i * _SENTENCE_STEP, i * _SENTENCE_STEP + _SENTENCE_WIDTH, i, 0)]
             for i in range(n_sents)]
    starts = st.sampled_from(range(0, n_sents * _SENTENCE_STEP + 4, 3))
    # Person twice, so more edges join exactly one Person
    etypes = st.sampled_from([EntityType.PERSON, *EntityType])
    cells = draw(st.lists(st.tuples(etypes, starts,
                                    st.integers(1, 4)), max_size=8))
    entities = [EntitySpan(f"T{i}", etype, start, start + width, "x" * width)
                for i, (etype, start, width) in enumerate(cells, start=1)]
    # argument index len(entities) + 1 names no entity
    args = st.integers(1, len(entities) + 1)
    relations = [RelationEdge(f"R{i}", rtype, f"T{a}", f"T{b}")
                 for i, (rtype, a, b) in enumerate(draw(st.lists(
                     st.tuples(st.sampled_from(RelationType), args, args),
                     max_size=8)), start=1)]
    doc = Document("drawn", "x" * (n_sents * _SENTENCE_STEP), entities, relations)
    return doc, build_contexts(doc, [], sents)
