import json
import time

import pytest

from origami_covers import degeneration, family, ratfunc
from origami_covers.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gcd_calls(capsys, monkeypatch, *argv):
    """Run a command and count the gcds over Q that RatFunc falls back to."""
    calls = []

    def counted(a, b, _gcd=ratfunc.poly_gcd):
        calls.append((a, b))
        return _gcd(a, b)
    monkeypatch.setattr(ratfunc, "poly_gcd", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return len(calls)


class TestGenerate:
    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "generate", "--genus", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "generate"
        assert doc["inputs"] == {"genus": 2}
        assert doc["cover"]["degree"] == 3
        assert doc["cover"]["f1"] == "x^3/(9*x^2 + 24*x + 16)"
        assert doc["certificate"]["identity_ok"] is True
        assert doc["certificate"]["ramification_index"] == 3
        assert all(c["passed"] for c in doc["checks"])

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "generate", "--genus", "2",
                           "--format", "text")
        assert code == 0
        assert "f1 = x^3/(9*x^2 + 24*x + 16)" in out
        assert "identity_ok = True" in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "generate", "--genus", "3")
        _, second, _ = run(capsys, "generate", "--genus", "3")
        assert first == second

    def test_no_gcd_over_q(self, capsys, monkeypatch):
        assert gcd_calls(capsys, monkeypatch, "generate", "--genus", "8") == 0

    def test_genus_guard(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "generate", "--genus", "100")
        assert exc.value.code == 2

    def test_genus_guard_adjustable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "generate", "--genus", "5", "--max-genus", "4")
        assert exc.value.code == 2
        code, out, _ = run(capsys, "generate", "--genus", "5",
                           "--max-genus", "5")
        assert code == 0
        assert json.loads(out)["inputs"]["genus"] == 5

    def test_nonpositive_genus(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "generate", "--genus", "0")
        assert exc.value.code == 2


class TestVerify:
    def test_roundtrip(self, capsys, tmp_path):
        _, out, _ = run(capsys, "generate", "--genus", "4")
        path = tmp_path / "cover.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert all(c["passed"] for c in doc["checks"])

    def test_bare_cover_document(self, capsys, tmp_path):
        _, out, _ = run(capsys, "generate", "--genus", "2")
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(json.loads(out)["cover"]))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_broken_identity_exits_one(self, capsys, tmp_path):
        _, out, _ = run(capsys, "generate", "--genus", "2")
        doc = json.loads(out)["cover"]
        doc["f1"] = "x^3/(9*x^2 + 24*x + 17)"
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert not json.loads(out)["checks"][0]["passed"]

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        for content in (b"{not json", b"\xff{", b"[" * 100000):
            path.write_bytes(content)
            code, _, err = run(capsys, "verify", str(path))
            assert code == 2
            assert "error" in err

    def test_missing_field_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        path.write_text(json.dumps({"degree": 3}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "source_rhs" in err

    @pytest.mark.parametrize("fields", [
        {"source_rhs": "0"},
        {"f1": "0", "f2": "0"},
        {"source_rhs": "x^4", "target_rhs": "x^2", "f1": "x^2", "f2": "1",
         "degree": 2},
        {"f2": 5},
    ], ids=["zero-source", "zero-map", "low-degree-target", "non-string"])
    def test_uncheckable_cover_exits_two(self, capsys, tmp_path, fields):
        _, out, _ = run(capsys, "generate", "--genus", "2")
        doc = dict(json.loads(out)["cover"], **fields)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_identity_with_huge_coefficients_fails_quietly(self, capsys,
                                                           tmp_path):
        # Every field is within the parse caps, but the cleared identity's
        # coefficients pass CPython's 4300-digit limit for int -> str.
        doc = {"source_rhs": "(2^400)^10*x^3 + x", "target_rhs": "x^3 + x",
               "f1": "x/((2^400)^3*x + 1)", "f2": "(2^400)^10*x",
               "degree": 1}
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        identity = json.loads(out)["checks"][0]
        assert identity == {"name": "cover_identity", "passed": False,
                            "witness": "coefficient of t^0*x^8 differs"}

    def test_wrong_degree_exits_one(self, capsys, tmp_path):
        _, out, _ = run(capsys, "generate", "--genus", "2")
        doc = dict(json.loads(out)["cover"], degree=7)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
        assert checks["cover_identity"]
        assert not checks["degree"]

    def test_uncertified_ramification_shape_exits_one(self, capsys, tmp_path):
        # (x, y) -> (x^2 + x, y) is a cover, but its pullback 2x + 1 is not a
        # monomial, so nothing certifies a unique totally ramified point.
        doc = {"source_rhs": "x^6 + 3*x^5 + 3*x^4 + x^3 + 1",
               "target_rhs": "x^3 + 1", "f1": "x^2 + x", "f2": "1",
               "degree": 2}
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["cover_identity"]["passed"]
        assert checks["ramification_shape"] == {
            "name": "ramification_shape", "passed": False,
            "witness": "pullback coefficient is not a monomial"}

    @pytest.mark.parametrize("fields, seconds", [
        ({"source_rhs": "x^999999999"}, 1),
        ({"source_rhs": "(x^400)^400"}, 1),
        ({"source_rhs": "((2^512)^512)^512*x^5 + x"}, 1),
        ({"target_rhs": "x^200 + x", "f1": "(x^200+1)/(x^199+2)"}, 1),
        # Parsing (x+2)^500 alone takes most of a second; reducing this f1
        # by a gcd over Q ran for more than a minute.
        ({"f1": "(x^512 + 3)/((x+2)^500 + 1)"}, 3),
    ], ids=["x^999999999", "(x^400)^400", "coefficient-size",
            "identity-degree", "coprime-f1-of-degree-512"])
    def test_oversized_input_refused_quickly(self, capsys, tmp_path, fields,
                                             seconds):
        _, out, _ = run(capsys, "generate", "--genus", "2")
        doc = dict(json.loads(out)["cover"], **fields)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < seconds
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "limit" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in err


class TestOrigami:
    def test_staircase_document(self, capsys):
        code, out, _ = run(capsys, "origami", "--genus", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagram"] == "3; right=(2 3); up=(1 2)"
        assert doc["monodromy"] == "(1 3 2)"
        assert doc["cycle_type"] == [3]
        assert doc["vertex_count"] == 1
        assert doc["genus"] == 2


class TestDegenerate:
    def test_genus_two_document(self, capsys):
        code, out, _ = run(capsys, "degenerate", "--genus", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == {
            "a": "9", "b": "33", "c": "40", "d": "16",
            "e": "0", "f": "0", "g": "0",
        }
        assert doc["exact"] is True
        assert doc["curve"].startswith("x^5")

    def test_pipeline_runs_once(self, capsys, monkeypatch):
        calls = {}
        for name in ("assemble_deformation_system", "solve_deformation",
                     "deform", "solve_exact", "_map_polys"):
            def counted(*args, _fn=getattr(degeneration, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(degeneration, name, counted)
        code, _, _ = run(capsys, "degenerate", "--genus", "3")
        assert code == 0
        assert calls == {"assemble_deformation_system": 1,
                         "solve_deformation": 1, "deform": 1,
                         "solve_exact": 1, "_map_polys": 1}

    def test_no_gcd_over_q(self, capsys, monkeypatch):
        assert gcd_calls(capsys, monkeypatch, "degenerate", "--genus", "8") == 0

    def test_genus_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "degenerate", "--genus", "1")
        assert exc.value.code == 2


class TestSelftest:
    def test_line_per_check(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-genus", "3")
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 9
        assert all(line.startswith(("[PASS]", "[FAIL]")) for line in lines)
        # The parameter -1 specialization stays smooth, so that single check
        # reports a failure and the battery exits nonzero.
        fails = [line for line in lines if line.startswith("[FAIL]")]
        assert len(fails) == 1
        assert "degenerate_specializations" in fails[0]
        assert code == 1

    def test_each_family_built_once(self, capsys, monkeypatch):
        built = []

        def counted(g, _build=family.build_family):
            built.append(g)
            return _build(g)
        monkeypatch.setattr(family, "build_family", counted)
        run(capsys, "selftest", "--max-genus", "3")
        assert sorted(built) == [1, 2, 3]


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
