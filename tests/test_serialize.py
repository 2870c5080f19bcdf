from attnlab.serialize import write_csv, write_json, write_jsonl


def test_writers_pin_their_bytes(tmp_path):
    path = tmp_path / "a.json"
    write_json({"b": [1, 2.5], "a": None}, path)
    assert path.read_bytes() == b'{\n "a": null,\n "b": [\n  1,\n  2.5\n ]\n}\n'

    write_jsonl(iter([{"b": 1, "a": "x"}, {}]), path)
    assert path.read_bytes() == b'{"b": 1, "a": "x"}\n{}\n'

    write_csv(path, ["id", "value"], iter([['doc 1, "p" 2', 0.5], ["plain", ""]]))
    assert path.read_bytes() == b'id,value\n"doc 1, ""p"" 2",0.5\nplain,\n'
