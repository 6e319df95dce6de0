"""The shared checkers for decoded JSON and named tensors."""

import numpy as np
import pytest

from harseq.errors import FormatError, check_json, check_shapes

SCHEMA = {"kind": str, "encoder": {"widths": [int], "rate": float}, "tags": [str], "meta": dict}
VALID = {"kind": "share", "encoder": {"widths": [4, 6], "rate": 0.5}, "tags": [], "meta": {},
         "unlisted": [1, "a"]}


def _with(path, value):
    doc = {**VALID, "encoder": dict(VALID["encoder"])}
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return doc


class TestCheckJson:
    def test_valid_document_passes(self):
        check_json(VALID, SCHEMA, "doc")

    def test_float_admits_int(self):
        check_json(_with(("encoder", "rate"), 2), SCHEMA, "doc")

    @pytest.mark.parametrize("path, value, message", [
        (("encoder", "widths"), [4, True], "doc field 'encoder.widths[1]' is not of type int"),
        (("encoder", "widths"), [4, 6.0], "doc field 'encoder.widths[1]' is not of type int"),
        (("encoder", "widths"), [2**63], "doc field 'encoder.widths[0]' is not of type int"),
        (("encoder", "rate"), False, "doc field 'encoder.rate' is not of type float"),
        (("encoder", "rate"), 10**400, "doc field 'encoder.rate' is not of type float"),
        (("encoder",), [1], "doc field 'encoder' is not of type dict"),
        (("tags",), "a", "doc field 'tags' is not of type list"),
        (("meta",), None, "doc field 'meta' is not of type dict"),
        (("kind",), 3, "doc field 'kind' is not of type str"),
    ])
    def test_wrong_type_names_the_dotted_path(self, path, value, message):
        with pytest.raises(FormatError) as info:
            check_json(_with(path, value), SCHEMA, "doc")
        assert str(info.value) == message

    def test_largest_64_bit_int_passes(self):
        check_json(_with(("encoder", "widths"), [2**63 - 1, -2**63]), SCHEMA, "doc")

    def test_missing_key_uses_the_callers_wording(self):
        doc = _with(("encoder",), {"widths": [1]})
        with pytest.raises(FormatError) as info:
            check_json(doc, SCHEMA, "doc", missing="lacks required field '{}'")
        assert str(info.value) == "doc lacks required field 'encoder.rate'"
        with pytest.raises(FormatError, match="^doc field 'encoder.rate' is missing$"):
            check_json(doc, SCHEMA, "doc")

    def test_top_level_value_has_no_field_name(self):
        with pytest.raises(FormatError, match="^doc is not of type dict$"):
            check_json([VALID], SCHEMA, "doc")
        with pytest.raises(FormatError, match="^flag is not of type bool$"):
            check_json(1, bool, "flag")


class TestCheckShapes:
    ARRAYS = {"w": np.zeros((2, 3)), "b": np.zeros(3)}

    def test_matching_shapes_pass(self):
        check_shapes(self.ARRAYS, {"w": (2, 3), "b": [3]}, "ckpt")

    def test_wrong_shape_names_both_shapes(self):
        with pytest.raises(FormatError) as info:
            check_shapes(self.ARRAYS, {"w": (3, 2)}, "ckpt")
        assert str(info.value) == "ckpt tensor 'w' has shape (2, 3), expected (3, 2)"

    def test_missing_tensor_uses_the_callers_wording(self):
        with pytest.raises(FormatError, match="^ckpt missing tensor 'v'$"):
            check_shapes(self.ARRAYS, {"v": ()}, "ckpt")
        with pytest.raises(FormatError, match="^ckpt has no 'v' tensor$"):
            check_shapes(self.ARRAYS, {"v": ()}, "ckpt", missing="has no '{}' tensor")
