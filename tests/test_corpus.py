import logging
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraph.corpus import (
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
from unitgraph.errors import BratError, ConlluError, CorpusError
from unitgraph.evaluation import relation_counts
from unitgraph.relations import Strategy, build_contexts, extract_document, gold_pairs
from unitgraph.tokens import tokenize

from conftest import (CORPUS_DIR, DOC_ADEOSUN, DOC_VANGUARD, EXAMPLE_ANN, EXAMPLE_TEXT,
                      SEPARATORS, is_tree, tree_from_heads)


class TestParseBrat:
    def test_textbound_line(self):
        doc = parse_brat("T3\tOrganization 71 90\t3 Armoured Division\n", EXAMPLE_TEXT)
        assert doc.entities == [
            EntitySpan("T3", EntityType.ORGANIZATION, 71, 90, "3 Armoured Division")
        ]

    def test_empty_annotations(self):
        doc = parse_brat("", EXAMPLE_TEXT)
        assert doc.entities == [] and doc.relations == []

    def test_relation_line(self):
        doc = parse_brat(EXAMPLE_ANN, EXAMPLE_TEXT)
        r2 = next(r for r in doc.relations if r.id == "R2")
        assert r2 == RelationEdge("R2", RelationType.IS_POSTED, "T1", "T3")

    def test_title_and_role_collapse(self):
        text = "Commander Jane"
        for name in ("Title", "Role", "Title_Role"):
            doc = parse_brat(f"T1\t{name} 0 9\tCommander\n", text)
            assert doc.entities[0].etype is EntityType.TITLE_ROLE

    def test_schema_violations_loaded_and_flagged(self):
        doc = parse_brat(EXAMPLE_ANN, EXAMPLE_TEXT)
        # has_rank between two Title_Role spans and has_title with an
        # Organization Arg2 are kept verbatim but flagged
        assert [r.rtype for r in doc.relations] == [
            RelationType.HAS_RANK,
            RelationType.IS_POSTED,
            RelationType.HAS_TITLE_ROLE,
        ]
        assert len(doc.schema_flags) == 2

    def test_unsupported_lines_skipped_with_warning(self, caplog):
        caplog.set_level(logging.WARNING)
        ann = "T1\tPerson 0 4\tJohn\n#1\tAnnotatorNotes T1\tquestionable\n"
        doc = parse_brat(ann, "John went home.")
        assert len(doc.entities) == 1
        assert any("skipping" in rec.message for rec in caplog.records)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(BratError, match="line 2"):
            parse_brat("T1\tPerson 0 4\tJohn\nT2\tbroken\n", "John went home.")

    @pytest.mark.parametrize("start, end", [(4, 4), (4, 0)])
    def test_empty_or_inverted_span(self, start, end):
        with pytest.raises(BratError) as err:
            parse_brat(f"T1\tPerson {start} {end}\tJohn\n", "John went home.")
        assert str(err.value) == f"line 1: empty or inverted span {start}..{end}"

    def test_offset_out_of_range(self):
        with pytest.raises(BratError, match="outside text"):
            parse_brat("T1\tPerson 0 400\tJohn\n", "John")

    def test_surface_mismatch_lists_both(self):
        with pytest.raises(BratError) as err:
            parse_brat("T1\tPerson 0 4\tJane\n", "John went home.")
        assert "'Jane'" in str(err.value) and "'John'" in str(err.value)

    def test_discontinuous_span_rejected(self):
        with pytest.raises(BratError, match="discontinuous"):
            parse_brat("T1\tPerson 0 4;6 10\tJohn went\n", "John went home.")

    def test_duplicate_id_rejected(self):
        ann = "T1\tPerson 0 4\tJohn\nT1\tPerson 5 9\twent\n"
        with pytest.raises(BratError, match="duplicate"):
            parse_brat(ann, "John went home.")

    def test_dangling_relation_argument(self):
        ann = "T1\tPerson 0 4\tJohn\nR1\tis_posted Arg1:T1 Arg2:T9\n"
        with pytest.raises(BratError, match="unknown entity T9"):
            parse_brat(ann, "John went home.")

    def test_self_relation_rejected(self):
        ann = "T1\tPerson 0 4\tJohn\nR1\tis_posted Arg1:T1 Arg2:T1\n"
        with pytest.raises(BratError, match="must differ"):
            parse_brat(ann, "John went home.")


class TestSerializeBrat:
    def test_single_entity(self):
        doc = Document(
            "d", "John", [EntitySpan("T1", EntityType.PERSON, 0, 4, "John")]
        )
        assert serialize_brat(doc) == "T1\tPerson 0 4\tJohn\n"

    def test_empty_document(self):
        assert serialize_brat(Document("d", "whatever")) == ""

    def test_round_trip_of_example_block(self):
        doc = parse_brat(EXAMPLE_ANN, EXAMPLE_TEXT)
        out = serialize_brat(doc)
        assert out.count("\nT") + out.startswith("T") == 4
        assert out.count("\nR") == 3
        again = parse_brat(out, EXAMPLE_TEXT)
        assert again == doc
        # normalization reaches a fixed point: a second pass is byte-stable
        assert serialize_brat(again) == out

    def test_round_trip_fixture_corpus(self, corpus_entries):
        for doc, _ in corpus_entries:
            out = serialize_brat(doc)
            assert parse_brat(out, doc.text, doc.doc_id) == doc
            assert serialize_brat(parse_brat(out, doc.text, doc.doc_id)) == out


class TestParseConllu:
    def test_two_token_tree(self):
        block = (
            "1\tGeneral\t_\t_\t_\t_\t2\tflat\t_\t_\n"
            "2\tAdeosun\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        assert parse_conllu(block) == [
            tree_from_heads(["General", "Adeosun"], [1, -1], ["flat", "root"])
        ]

    def test_empty_input(self):
        assert parse_conllu("") == []

    def test_five_token_tree_matches_hand_built_adjacency(self):
        # heads {2, 0, 2, 5, 2}: independently derived adjacency and depth
        lines = []
        for i, head in enumerate((2, 0, 2, 5, 2), start=1):
            lines.append(f"{i}\tw{i}\t_\t_\t_\t_\t{head}\tdep\t_\t_")
        tree = parse_conllu("\n".join(lines) + "\n")[0]
        assert tree == tree_from_heads([f"w{i}" for i in range(1, 6)], [1, -1, 1, 4, 1])
        expected_edges = {(1, 0), (1, 2), (4, 3), (1, 4)}
        edges = {(h, d) for d, h in enumerate(tree.heads) if h != -1}
        assert edges == expected_edges
        depth = {1: 0}
        frontier = [1]
        while frontier:
            node = frontier.pop()
            for h, d in edges:
                if h == node:
                    depth[d] = depth[node] + 1
                    frontier.append(d)
        assert max(depth.values()) == 2

    def test_multiword_and_empty_nodes_skipped(self):
        block = (
            "# text = del mundo\n"
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tde\t_\t_\t_\t_\t2\tcase\t_\t_\n"
            "2\tmundo\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        )
        tree = parse_conllu(block)[0]
        assert tree.forms == ["de", "mundo"]

    def test_non_integer_head(self):
        with pytest.raises(ConlluError, match="non-integer head"):
            parse_conllu("1\tw\t_\t_\t_\t_\tx\tdep\t_\t_\n")

    def test_head_out_of_range(self):
        with pytest.raises(ConlluError, match="^line 2: head 9 out of range 1..2$"):
            parse_conllu(
                "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
                "2\tb\t_\t_\t_\t_\t9\tdep\t_\t_\n"
            )

    def test_cycle_is_not_a_tree(self):
        block = (
            "# sent_id = 1\n"
            "1\tc\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\ta\t_\t_\t_\t_\t3\tdep\t_\t_\n"
            "3\tb\t_\t_\t_\t_\t2\tdep\t_\t_\n"
        )
        with pytest.raises(ConlluError, match="^line 3: cyclic heads: not a tree$"):
            parse_conllu(block)

    def test_multiple_roots_rejected(self):
        block = (
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
            "3\tc\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        with pytest.raises(ConlluError,
                           match="^line 3: sentence must have exactly one root, found 2$"):
            parse_conllu(block)

    def test_fixture_trees_are_trees(self, corpus_entries):
        seen = 0
        for _, trees in corpus_entries:
            for tree in trees:
                assert is_tree(tree)
                seen += 1
        assert seen >= 8


class TestLoadCorpus:
    def test_fixture_corpus(self, corpus_entries):
        assert len(corpus_entries) == 5
        ids = [doc.doc_id for doc, _ in corpus_entries]
        assert ids == sorted(ids)
        for doc, _ in corpus_entries:
            assert len(doc.doc_id) == 36

    def test_full_stem_triplet(self, tmp_path):
        (tmp_path / "a.txt").write_text("Jane spoke.\n", encoding="utf-8")
        (tmp_path / "a.ann").write_text("T1\tPerson 0 4\tJane\n", encoding="utf-8")
        (tmp_path / "a.conllu").write_text(
            "1\tJane\t_\t_\t_\t_\t2\tnsubj\t_\t_\n"
            "2\tspoke\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "3\t.\t_\t_\t_\t_\t2\tpunct\t_\t_\n",
            encoding="utf-8",
        )
        entries = load_corpus(tmp_path)
        assert len(entries) == 1
        doc, trees = entries[0]
        assert len(doc.entities) == 1 and len(trees) == 1

    def test_text_only_stem(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING)
        (tmp_path / "b.txt").write_text("Nothing to see.\n", encoding="utf-8")
        entries = load_corpus(tmp_path)
        assert len(entries) == 1
        doc, trees = entries[0]
        assert doc.entities == [] and trees == []
        assert any("no .conllu" in rec.message for rec in caplog.records)

    def test_annotation_beyond_text_is_error(self, tmp_path):
        (tmp_path / "a.txt").write_text("short\n", encoding="utf-8")
        (tmp_path / "a.ann").write_text("T1\tPerson 0 50\tshort\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"a\.ann: line 1"):
            load_corpus(tmp_path)

    def test_unknown_relation_argument_names_file_and_line(self, tmp_path):
        (tmp_path / "a.txt").write_text("John went home.\n", encoding="utf-8")
        (tmp_path / "a.ann").write_text(
            "T1\tPerson 0 4\tJohn\nR1\tis_posted Arg1:T1 Arg2:T9\n", encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            load_corpus(tmp_path)
        assert str(info.value) == ("a.ann: line 2: relation R1 references "
                                   "unknown entity T9")

    def test_malformed_parse_names_conllu_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("John went home.\n", encoding="utf-8")
        (tmp_path / "a.conllu").write_text("1\tJohn\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"^a\.conllu: line 1: expected 10"):
            load_corpus(tmp_path)

    def test_offset_fidelity_fixture_corpus(self, corpus_entries):
        for doc, _ in corpus_entries:
            for ent in doc.entities:
                assert doc.text[ent.start:ent.end] == ent.surface


class TestIterCorpus:
    def test_equals_load_corpus_element_by_element(self, corpus_entries):
        streamed = list(iter_corpus(CORPUS_DIR))
        assert len(streamed) == len(corpus_entries) == 5
        for (doc, trees), (ref_doc, ref_trees) in zip(streamed, corpus_entries):
            assert doc == ref_doc
            assert doc.schema_flags == ref_doc.schema_flags
            assert trees == ref_trees

    def test_reads_one_document_per_step(self, tmp_path):
        # the second stem is malformed: the first still comes out whole
        for path in CORPUS_DIR.glob(DOC_VANGUARD + ".*"):
            shutil.copy(path, tmp_path)
        (tmp_path / f"{DOC_ADEOSUN}.txt").write_text("short\n", encoding="utf-8")
        (tmp_path / f"{DOC_ADEOSUN}.ann").write_text("T1\tPerson 0 50\tshort\n",
                                                    encoding="utf-8")
        stream = iter_corpus(tmp_path)
        doc, trees = next(stream)
        assert doc.doc_id == DOC_VANGUARD and trees
        with pytest.raises(CorpusError, match=DOC_ADEOSUN):
            next(stream)

    @pytest.mark.parametrize("suffix", [".txt", ".ann", ".conllu"])
    def test_non_utf8_file_is_named(self, tmp_path, suffix):
        for path in CORPUS_DIR.glob(DOC_VANGUARD + ".*"):
            shutil.copy(path, tmp_path)
        bad = tmp_path / f"{DOC_VANGUARD}{suffix}"
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe")
        with pytest.raises(CorpusError, match="not UTF-8") as info:
            load_corpus(tmp_path)
        assert str(bad) in str(info.value)

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(CorpusError, match="no such directory"):
            load_corpus(tmp_path / "absent")

    def test_file_is_not_a_corpus_directory(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("text\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="not a directory"):
            load_corpus(path)

    def test_empty_directory_yields_nothing(self, tmp_path):
        assert list(iter_corpus(tmp_path)) == []


def crlf_copy(src, dst):
    """Copy a corpus with CRLF line ends; each BRAT offset counts the
    ``\\r``s before it, since standoff offsets index the text as stored.
    Returns each document's map from LF offsets to CRLF offsets."""
    shifts = {}
    for txt in sorted(src.glob("*.txt")):
        text = txt.read_text(encoding="utf-8")
        shifts[txt.stem] = shift = lambda o, text=text: o + text.count("\n", 0, o)
        (dst / txt.name).write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        ann = re.sub(r"^(T\S*\t\S+ )(\d+) (\d+)\t",
                     lambda m: f"{m[1]}{shift(int(m[2]))} {shift(int(m[3]))}\t",
                     txt.with_suffix(".ann").read_text(encoding="utf-8"), flags=re.M)
        (dst / f"{txt.stem}.ann").write_bytes(ann.replace("\n", "\r\n").encode("utf-8"))
        conllu = txt.with_suffix(".conllu").read_text(encoding="utf-8")
        (dst / f"{txt.stem}.conllu").write_bytes(conllu.replace("\n", "\r\n").encode("utf-8"))
    return shifts


class TestCrlf:
    def test_crlf_corpus_reads_as_its_lf_original(self, tmp_path):
        shifts = crlf_copy(CORPUS_DIR, tmp_path)
        pairs = list(zip(load_corpus(CORPUS_DIR), load_corpus(tmp_path), strict=True))
        assert len(pairs) == 5
        for (doc, trees), (crlf, crlf_trees) in pairs:
            shift = shifts[doc.doc_id]
            assert "\r\n" in crlf.text and crlf.text.replace("\r\n", "\n") == doc.text
            assert crlf.entities == [
                EntitySpan(e.id, e.etype, shift(e.start), shift(e.end), e.surface)
                for e in doc.entities]
            assert crlf.relations == doc.relations and crlf_trees == trees
            assert tokenize(crlf.text) == [
                t._replace(start=shift(t.start), end=shift(t.end))
                for t in tokenize(doc.text)]
            contexts, crlf_contexts = build_contexts(doc, trees), build_contexts(crlf, trees)
            counts = [relation_counts(gold_pairs(d, c), extract_document(
                d, c, Strategy.SDP_CONSTRAINED)) for d, c in ((doc, contexts),
                                                               (crlf, crlf_contexts))]
            assert counts[0] == counts[1]

    def test_non_utf8_byte_is_counted_as_stored(self, tmp_path):
        for path in CORPUS_DIR.glob(DOC_VANGUARD + ".*"):
            shutil.copy(path, tmp_path)
        (tmp_path / f"{DOC_VANGUARD}.txt").write_bytes(b"a\r\nb\xff\n")
        with pytest.raises(CorpusError, match=r"not UTF-8 text \(byte 4\)"):
            load_corpus(tmp_path)


class TestLineEnds:
    """A standoff or CoNLL-U line ends at "\n" (or "\r\n") alone."""

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_surface_holding_a_separator_loads(self, sep, tmp_path):
        text = f"Ali{sep}Musa led the unit.\n"
        ann = f"T1\tPerson 0 8\tAli{sep}Musa\nT2\tOrganization 17 21\tunit\n"
        assert parse_brat(ann, text).entities == [
            EntitySpan("T1", EntityType.PERSON, 0, 8, f"Ali{sep}Musa"),
            EntitySpan("T2", EntityType.ORGANIZATION, 17, 21, "unit"),
        ]
        (tmp_path / "d.txt").write_text(text, encoding="utf-8", newline="")
        (tmp_path / "d.ann").write_text(ann, encoding="utf-8", newline="")
        [(doc, _)] = load_corpus(tmp_path)
        assert doc.entities[0].surface == f"Ali{sep}Musa"

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_form_holding_a_separator_loads(self, sep):
        trees = parse_conllu(f"1\tAli{sep}Musa\t_\t_\t_\t_\t2\tnsubj\t_\t_\r\n"
                             "2\tled\t_\t_\t_\t_\t0\troot\t_\t_\r\n\r\n")
        assert [tree.forms for tree in trees] == [[f"Ali{sep}Musa", "led"]]

    def test_error_line_numbers_count_newlines_only(self):
        with pytest.raises(BratError, match="^line 2: "):
            parse_brat("T1\tPerson 0 1\tA\u2028\x0c\r\nT2\tbroken\r\n", "A\u2028\x0c")
        with pytest.raises(ConlluError, match="^line 2: "):
            parse_conllu("# a\u2029b\x85c\r\n1\tonly\n")


# what the readers are fuzzed with: the characters their formats give a
# meaning to, the names they know, and every line break splitlines() knows
_PIECES = st.sampled_from([
    "\t", " ", "\r\n", "\n", "#", "-", ".", ":", "_", "0", "1", "2", "3", "9",
    "a", "T", "R", "T1", "T2", "R1", "Person", "Organization", "Rank", "Title",
    "is_posted", "has_rank", "Arg1:", "Arg2:", *SEPARATORS,
])
_FUZZ = st.lists(_PIECES, max_size=40).map("".join)


@st.composite
def _standoff(draw):
    """A text and standoff lines for it: mostly text-bound lines whose
    offsets and surface come from the text and relation lines over their
    ids, with some noise lines among them."""
    text = draw(_FUZZ)
    lines, ids = [], []
    for i in range(1, draw(st.integers(0, 6)) + 1):
        kind = draw(st.sampled_from(["T", "T", "R", "R", "noise"]))
        if kind == "T" and text:
            start = draw(st.integers(0, len(text) - 1))
            end = draw(st.integers(start + 1, len(text)))
            etype = draw(st.sampled_from(["Person", "Organization", "Rank", "Role"]))
            lines.append(f"T{i}\t{etype} {start} {end}\t{text[start:end]}")
            ids.append(f"T{i}")
        elif kind == "R" and ids:
            rtype = draw(st.sampled_from(["is_posted", "has_rank", "has_title"]))
            a, b = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
            lines.append(f"R{i}\t{rtype} Arg1:{a} Arg2:{b}")
        else:
            lines.append(draw(_FUZZ))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines), text


_FORM = st.lists(_PIECES.filter(lambda p: p not in ("\t", "\n", "\r\n")),
                 min_size=1, max_size=4).map("".join)


@st.composite
def _conllu(draw):
    """CoNLL-U sentences: token lines numbered from 1 with heads that
    mostly make a tree, multiword and empty-node lines, comments, and
    some noise lines."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 4))
        root = draw(st.integers(1, n))
        for i in range(1, n + 1):
            if draw(st.integers(0, 9)) == 0:
                lines.append(draw(st.sampled_from(
                    ["# sent_id = 1", f"{i}-{i + 1}\tdel" + "\t_" * 8,
                     f"{i}.1\tghost" + "\t_" * 8, draw(_FUZZ)])))
            head = 0 if i == root else draw(st.sampled_from(
                [root] * 6 + [*range(-1, n + 2), "x"]))
            lines.append("\t".join([str(i), draw(_FORM), "_", "_", "_", "_",
                                     str(head), draw(_FORM), "_", "_"]))
        lines.append(draw(st.sampled_from(["", " ", "\x0c"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


class TestReaderFuzz:
    """The readers return what they read or raise their DataError: never a
    bare IndexError, KeyError or ValueError."""

    @settings(max_examples=400, deadline=None)
    @given(_standoff() | st.tuples(_FUZZ, _FUZZ))
    def test_parse_brat_returns_checked_entities_or_raises_brat_error(self, pair):
        ann, text = pair
        try:
            doc = parse_brat(ann, text)
        except BratError:
            return
        ids = {e.id for e in doc.entities}
        for ent in doc.entities:
            assert text[ent.start:ent.end] == ent.surface
        for rel in doc.relations:
            assert {rel.arg1, rel.arg2} <= ids and rel.arg1 != rel.arg2

    @settings(max_examples=400, deadline=None)
    @given(_conllu() | _FUZZ)
    def test_parse_conllu_returns_trees_or_raises_conllu_error(self, conllu):
        try:
            trees = parse_conllu(conllu)
        except ConlluError:
            return
        for tree in trees:
            assert is_tree(tree)
