import json

import numpy as np
import pytest

from assocmem import ParseError, load_weights, parse_memories, parse_proximity, train
from assocmem.formats import render_document, weights_document


class TestParseMemories:
    def test_single_vector(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 1 -1 1\n")
        mset = parse_memories(f)
        assert mset.m == 1
        assert list(mset.vectors[0]) == [1, 1, -1, 1]

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("# header\n\n1 -1  # trailing note\n\n-1 1\n")
        mset = parse_memories(f)
        assert mset.m == 2

    def test_plus_sign_accepted(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("+1 -1\n")
        assert list(parse_memories(f).vectors[0]) == [1, -1]

    def test_bad_token_reports_line_and_column(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 1 1\n1 2 1\n")
        with pytest.raises(ParseError, match=r"m\.txt:2:3: bad memory token '2'"):
            parse_memories(f)

    def test_inconsistent_widths(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 1\n1 1 1\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_memories(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("# nothing here\n")
        with pytest.raises(ParseError, match="no memory vectors"):
            parse_memories(f)



class TestParseProximity:
    def test_valid(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1 2\n1 0 1\n2 1 0\n")
        p = parse_proximity(f)
        assert p.shape == (3, 3)

    def test_asymmetry_named(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1\n2 0\n")
        with pytest.raises(ParseError, match=r"\(1, 2\)"):
            parse_proximity(f)

    def test_nonzero_diagonal(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.5 1\n1 0\n")
        with pytest.raises(ParseError, match="diagonal"):
            parse_proximity(f)

    def test_non_square(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1 2 3\n1 0 1 2\n2 1 0 1\n")
        with pytest.raises(ParseError, match="square"):
            parse_proximity(f)

    def test_bad_token(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 x\nx 0\n")
        with pytest.raises(ParseError, match="bad distance token 'x'"):
            parse_proximity(f)

    def test_negative_distance(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 -1\n-1 0\n")
        with pytest.raises(ParseError, match="nonnegative"):
            parse_proximity(f)


class TestWeightsDocuments:
    def test_round_trip(self, tmp_path, two_memories):
        w = train(two_memories)
        doc = weights_document(w, {"memories": "m.txt", "out": "w.json", "seed": None})
        path = tmp_path / "w.json"
        path.write_text(render_document(doc))
        back = load_weights(path)
        assert np.array_equal(back, w)

    def test_document_embeds_identity_and_config(self, two_memories):
        w = train(two_memories)
        doc = weights_document(w, {"seed": None})
        assert doc["tool"] == "assocmem"
        assert doc["version"]
        assert doc["config"] == {"seed": None}

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{\n  broken\n")
        with pytest.raises(ParseError, match=r"w\.json:2:3"):
            load_weights(path)

    def test_missing_weights_key(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "weights"}))
        with pytest.raises(ParseError, match="'weights' key"):
            load_weights(path)

    def test_invalid_matrix_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "weights", "weights": [[0, 1], [2, 0]]}))
        with pytest.raises(ParseError, match="asymmetric"):
            load_weights(path)

    def test_declared_n_mismatch(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "weights", "n": 3, "weights": [[0, 1], [1, 0]]}))
        with pytest.raises(ParseError, match="n=3"):
            load_weights(path)

    def test_render_is_stable(self):
        doc = {"tool": "assocmem", "value": [1, 2]}
        assert render_document(doc) == render_document(doc)
        assert render_document(doc).endswith("\n")
