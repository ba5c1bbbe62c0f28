"""Person-unit knowledge-graph extraction from annotated news text."""

from .corpus import (
    Document,
    EntitySpan,
    EntityType,
    RelationEdge,
    RelationType,
    iter_corpus,
    load_corpus,
    parse_brat,
    parse_conllu,
    serialize_brat,
)
from .deptree import DepTree, PathPattern, shortest_path, span_path
from .errors import BratError, ConlluError, CorpusError, DataError, MissingParseError
from .relations import (
    Attachment,
    DocumentRun,
    SentenceContext,
    Strategy,
    build_contexts,
    extract_document,
    nearest_person,
    run_document,
    sdp_attach,
    type_map,
)
from .tokens import Token, iob_to_spans, spans_to_iob, tokenize, valid_transition

__version__ = "0.1.0"

__all__ = [
    "Attachment",
    "BratError",
    "ConlluError",
    "CorpusError",
    "DataError",
    "DepTree",
    "Document",
    "DocumentRun",
    "EntitySpan",
    "EntityType",
    "MissingParseError",
    "PathPattern",
    "RelationEdge",
    "RelationType",
    "SentenceContext",
    "Strategy",
    "Token",
    "build_contexts",
    "extract_document",
    "iob_to_spans",
    "iter_corpus",
    "load_corpus",
    "nearest_person",
    "parse_brat",
    "parse_conllu",
    "run_document",
    "sdp_attach",
    "serialize_brat",
    "shortest_path",
    "span_path",
    "spans_to_iob",
    "tokenize",
    "type_map",
    "valid_transition",
]
