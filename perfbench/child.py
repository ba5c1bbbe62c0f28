"""Run one unitgraph CLI command in this fresh process and report on it.

Usage: python3 child.py REPORT SPAWN_TIME TRACE ARGV...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so set-up time counts
interpreter start-up too.  With TRACE 0 only the three loaders are timed.
With TRACE 1 every function in ``TRACED`` is wrapped and each call is kept
as a span; the spans are written to REPORT when the command ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# (span name, defining module, function).  The layer is the part of the
# span name before the dot.  Each function is replaced under every name
# that refers to it in a unitgraph module, so callers that imported it
# (``from .deptree import span_path``) see the wrapper too.
TRACED = (
    ("corpus.load", "unitgraph.corpus", "load_corpus"),
    ("corpus.parse_conllu", "unitgraph.corpus", "parse_conllu"),
    ("corpus.serialize", "unitgraph.corpus", "serialize_brat"),
    ("tokens.tokenize", "unitgraph.tokens", "tokenize"),
    ("tagger.load", "unitgraph.tagger", "load_tagger"),
    ("tagger.predict", "unitgraph.tagger", "predict_entities"),
    ("tagger.decode", "unitgraph.tagger", "viterbi_decode"),
    ("tagger.featurize", "unitgraph.tagger", "featurize_token"),
    ("tagger.train", "unitgraph.tagger", "train_tagger"),
    ("deptree.align", "unitgraph.deptree", "align_to_text"),
    ("deptree.span_path", "unitgraph.deptree", "span_path"),
    ("relations.build_contexts", "unitgraph.relations", "build_contexts"),
    ("relations.extract", "unitgraph.relations", "extract_document"),
    ("relations.nearest", "unitgraph.relations", "nearest_person"),
    ("relations.sdp_attach", "unitgraph.relations", "sdp_attach"),
    ("relnet.load", "unitgraph.relnet", "load_relnet"),
    ("relnet.predict", "unitgraph.relnet", "predict_person"),
    ("relnet.featurize", "unitgraph.relnet", "featurize"),
    ("relnet.forward", "unitgraph.relnet", "forward"),
    ("relnet.collect_patterns", "unitgraph.relnet", "collect_patterns"),
    ("relnet.build_dataset", "unitgraph.relnet", "build_dataset"),
    ("relnet.train", "unitgraph.relnet", "train"),
    ("evaluation.score", "unitgraph.evaluation", "relation_counts"),
    ("cli.main", "unitgraph.cli", "main"),
)

# Loaders whose time, with the import of unitgraph.cli, makes up set-up.
SETUP = ("corpus.load", "tagger.load", "relnet.load")


def _replace(original, wrapper) -> None:
    """Point every unitgraph module attribute bound to ``original`` at
    ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "unitgraph" or name.startswith("unitgraph.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _lookup(module_name: str, func: str):
    module = sys.modules.get(module_name)
    return getattr(module, func, None) if module is not None else None


# Per-span notes: a small value taken from the call's arguments or result.
NOTES = {
    # unaligned tree tokens
    "deptree.align": lambda args, result: sum(s is None for s in result),
    # 1 when more Persons than candidate slots
    "relnet.featurize": lambda args, result: int(result.truncated),
    # 1 when the network abstained
    "relnet.predict": lambda args, result: int(result.person is None),
    # the strategy name
    "relations.extract": lambda args, result: args[2].value,
}


class Tracer:
    """Spans (name, start, end, parent, document id, note) in memory.

    A span's document id comes from a ``Document`` among its first two
    arguments, or from a string argument that is a loaded document's
    text; otherwise it inherits its parent's.  A call that raises gets
    the exception's class name as its note.  ``only``, if given, limits
    the wrapped functions to those span names.
    """

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.docs: list[str | None] = []
        self.notes: list = []
        self.stack = [-1]
        self.text_docs: dict[int, str] = {}
        self.loaders_s = 0.0
        self.missing: list[str] = []

    def install(self) -> None:
        for span, module_name, func in TRACED:
            if self.only is not None and span not in self.only:
                continue
            original = _lookup(module_name, func)
            if original is None:
                self.missing.append(span)
                continue
            _replace(original, self._wrap(span, original))

    def _doc_of(self, args, parent: int):
        for arg in args[:2]:
            doc_id = getattr(arg, "doc_id", None)
            if isinstance(doc_id, str):
                return doc_id
            if type(arg) is str:
                doc_id = self.text_docs.get(id(arg))
                if doc_id is not None:
                    return doc_id
        return self.docs[parent] if parent >= 0 else None

    def _wrap(self, span: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, docs, notes, stack = self.parents, self.docs, self.notes, self.stack
        note_of = NOTES.get(span)
        is_loader = span in SETUP
        is_corpus_load = span == "corpus.load"
        doc_of = self._doc_of
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            parent = stack[-1]
            names.append(span)
            parents.append(parent)
            docs.append(doc_of(args, parent))
            notes.append(None)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                notes[i] = type(exc).__name__
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                if is_loader:
                    self.loaders_s += ends[i] - t0
            if note_of is not None:
                notes[i] = note_of(args, result)
            if is_corpus_load:
                for doc, _ in result:
                    self.text_docs[id(doc.text)] = doc.doc_id
            return result

        return traced

    def report(self) -> dict:
        return {
            "loaders_s": self.loaders_s,
            "missing": self.missing,
            "spans": {
                "name": self.names,
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
                "doc": self.docs,
                "note": self.notes,
            },
        }


def main() -> int:
    report_path, spawn_time, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[4:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import unitgraph.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"unitgraph imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    imported = time.perf_counter()
    recorder = Tracer() if trace == "1" else Tracer(only=SETUP)
    recorder.install()
    t0 = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - t0
    report = recorder.report()
    report.update(
        rc=rc,
        import_s=imported - spawn_time,
        main_s=main_s,
        max_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
