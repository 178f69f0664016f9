import json
import math

import numpy as np
import pytest

from nonconv.reports import RunManifest, config_hash, fmt, write_csv, write_manifest


class TestFmt:
    def test_floats_round_trip(self):
        for v in (1 / 3, math.pi, 1e-300, -2.718281828459045, 0.1 + 0.2):
            assert float(fmt(v)) == v

    def test_ints_and_bools(self):
        assert fmt(42) == "42"
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt("path-evaluation") == "path-evaluation"


class TestCsv:
    def test_exact_bytes(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["n", "value", "ok"], [[16, 0.5, True], [64, 1 / 3, False]])
        data = p.read_bytes()
        assert data == (
            b"n,value,ok\n16,0.5,1\n64,0.33333333333333331,0\n"
        )

    def test_bytes_equal_the_per_cell_oracle(self, tmp_path):
        # rows of plain ints and floats take one % format per row shape; every
        # other cell type goes through fmt: the bytes are fmt's either way
        big = (1 << 53) + 1
        rows = [
            (16, 3, 0.1 + 0.2),
            [64, 4, -0.0],
            (1 << 70, -big, float("nan")),
            [big, 0, float("inf")],
            (7, 8, -math.inf),
            (1, np.float64(1 / 3), True),
            [2, np.float64(-0.0), False],
            ("path-evaluation", 5, 2.5),
            (9, 1e-300),
            [1.5],
            (np.int64(3), big, 1e300),
        ]
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b", "c"], rows)
        oracle = "\n".join(["a,b,c"] + [",".join(fmt(v) for v in row) for row in rows]) + "\n"
        assert p.read_bytes() == oracle.encode("utf-8")

    def test_lf_only_and_trailing_newline(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a"], [[1.0]])
        data = p.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


class TestConfigHash:
    def test_key_order_invariant(self):
        a = {"run": {"seed": 1, "n_grid": [16]}, "model": {"kind": "iid"}}
        b = {"model": {"kind": "iid"}, "run": {"n_grid": [16], "seed": 1}}
        assert config_hash(a) == config_hash(b)

    def test_content_sensitive(self):
        a = {"run": {"seed": 1}}
        b = {"run": {"seed": 2}}
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 64


class TestManifest:
    def test_verdict_bookkeeping(self):
        m = RunManifest(config_hash="x", master_seed=0, version="0")
        m.record("chernoff", "pass")
        assert not m.failed
        m.record("variance", "fail")
        assert m.failed
        with pytest.raises(ValueError):
            m.record("other", "maybe")

    def test_written_form(self, tmp_path):
        m = RunManifest(config_hash="abc", master_seed=11, version="0.1.0")
        m.record("chernoff", "pass")
        m.outputs.append("sums.csv")
        m.notes["d_squared"] = 1.0
        p = tmp_path / "manifest.json"
        write_manifest(p, m)
        back = json.loads(p.read_text())
        assert back["config_hash"] == "abc"
        assert back["verdicts"] == {"chernoff": "pass"}
        assert back["outputs"] == ["sums.csv"]
        assert back["notes"]["d_squared"] == 1.0
        # deterministic serialization apart from the clock field
        assert p.read_text().endswith("\n")
