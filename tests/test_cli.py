import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from origami_covers import (
    cli,
    curves,
    degeneration,
    family,
    poly,
    ratfunc,
    selftest,
)
from origami_covers.cli import main
from origami_covers.errors import InvalidGenus
from origami_covers.parsing import MAX_NESTING
from origami_covers.poly import Poly, TPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_gcds(capsys, monkeypatch, *argv):
    """Run a command, check that it exits 0, and count its calls to
    ``poly_gcd``, to ``gcd_mod_p`` and to the rational lift ``_rational``."""
    counts = dict.fromkeys(("poly_gcd", "gcd_mod_p", "_rational"), 0)

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted
    gcd = counting("poly_gcd", poly.poly_gcd)
    for module in (poly, ratfunc, curves, degeneration):
        monkeypatch.setattr(module, "poly_gcd", gcd)
    for name in ("gcd_mod_p", "_rational"):
        monkeypatch.setattr(poly, name, counting(name, getattr(poly, name)))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return counts


def assert_no_gcd_over_q(capsys, monkeypatch, *argv):
    """Run a command and check that each of its gcds is settled by one image
    over GF(p), with no rational reconstruction: no gcd over Q is taken."""
    counts = count_gcds(capsys, monkeypatch, *argv)
    assert counts["poly_gcd"] > 0
    assert counts["gcd_mod_p"] == counts["poly_gcd"]
    assert counts["_rational"] == 0


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
        # The family's fractions are in lowest terms by a checked lemma
        # (family.family_from), so generate takes no gcd at all.
        counts = count_gcds(capsys, monkeypatch, "generate", "--genus", "8")
        assert counts == {"poly_gcd": 0, "gcd_mod_p": 0, "_rational": 0}

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
    def test_parsed_documents_take_the_gcd(self, capsys, monkeypatch,
                                           tmp_path):
        # RatFunc.coprime trusts its caller's lemma; a document's fractions
        # have none, so verify must never reach it.
        sys.path.insert(0, os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "bench"))
        try:
            import oracle
        finally:
            sys.path.pop(0)
        _, out, _ = run(capsys, "generate", "--genus", "12")
        docs = [("generated-g12", out, 0)] + [
            (doc["name"], doc["text"], doc["expect"])
            for doc in oracle.build_corpus(1)]

        def refuse(cls, num, den):
            raise AssertionError("verify built a fraction without a gcd")
        monkeypatch.setattr(ratfunc.RatFunc, "coprime", classmethod(refuse))
        for name, text, expect in docs:
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            code, _, _ = run(capsys, "verify", str(path))
            assert code == expect, name

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

    @pytest.mark.parametrize("field, witness", [
        ("source_rhs", "coefficient of t^2*x^11 differs"),
        ("target_rhs", "coefficient of t^2*x^13 differs"),
    ], ids=["source", "target"])
    def test_part_on_one_side_only_exits_one(self, capsys, tmp_path, field,
                                             witness):
        # A t^2 part that the other side lacks is compared too.  Such a
        # document is not the family's shape, so it is expanded.
        _, out, _ = run(capsys, "generate", "--genus", "2")
        doc = json.loads(out)["cover"]
        doc[field] += " + t^2*x"
        assert family.recognise(curves.cover_from_dict(doc)) is None
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert json.loads(out)["checks"][0] == {
            "name": "cover_identity", "passed": False, "witness": witness}

    def test_unbalanced_riemann_hurwitz_exits_one(self, capsys, tmp_path):
        # The g=2 source times x^2, and f2 divided by x: the identity still
        # holds, but the source has genus 3, and index 3 gives 2 of the 4
        # that 2g-2 needs.  Not the family's shape, so ramification_report
        # decides it.
        _, out, _ = run(capsys, "generate", "--genus", "2")
        doc = dict(json.loads(out)["cover"],
                   source_rhs="x^7 + (1 + 9*t)*x^6 + 33*t*x^5 + 40*t*x^4"
                              " + 16*t*x^3",
                   f2="(x + 4)/(27*x^3 + 108*x^2 + 144*x + 64)")
        assert family.recognise(curves.cover_from_dict(doc)) is None
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["cover_identity"]["passed"]
        assert checks["riemann_hurwitz"] == {
            "name": "riemann_hurwitz", "passed": False, "witness": "index 3"}

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
        {"degree": True},
    ], ids=["zero-source", "zero-map", "low-degree-target", "non-string",
            "boolean-degree"])
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

    def test_common_factor_of_high_degree_exits_one(self, capsys, tmp_path):
        # f1's numerator and denominator share x + 1, so RatFunc reduces it
        # by a gcd of degree-301 and degree-291 polynomials; Euclid over Q
        # ran for more than 20 seconds on it.
        doc = {"source_rhs": "x^5 + x^4 + 9*x^3",
               "target_rhs": "x^3 + x^2 + x",
               "f1": "((x+1)*(x^300+3))/((x+1)*((x+2)^290+1))", "f2": "1",
               "degree": 3}
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < 5
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["degree"] == {
            "name": "degree", "passed": False,
            "witness": "declared 3, f1 has degree 300"}

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

    @pytest.mark.parametrize("text", ["(" * 400 + "x" + ")" * 400,
                                      "-" * 1000 + "x"],
                             ids=["parentheses", "signs"])
    def test_deep_nesting_exits_two(self, capsys, tmp_path, text):
        # Refused by the parser's nesting cap, not by a RecursionError.
        _, out, _ = run(capsys, "generate", "--genus", "2")
        doc = dict(json.loads(out)["cover"], source_rhs=text)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == ("error: field 'source_rhs': expression nests deeper"
                       f" than the limit {MAX_NESTING}\n")

    @pytest.mark.parametrize("text", ["\uff13*x^5", "x^\u0665"],
                             ids=["full-width", "arabic-indic"])
    def test_non_ascii_digit_exits_two(self, capsys, tmp_path, text):
        # Read as 3*x^5 or x^5 these would parse; they are refused instead.
        _, out, _ = run(capsys, "generate", "--genus", "2")
        doc = dict(json.loads(out)["cover"], source_rhs=text)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: field 'source_rhs': unexpected"
                              " character")

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
        assert_no_gcd_over_q(capsys, monkeypatch, "degenerate", "--genus",
                             "8")

    def test_no_identity_check_and_no_family_build(self, capsys,
                                                   monkeypatch):
        # deform certifies exactness by its own cleared identity, and the
        # agreement with the family is read off j, k and the source.
        calls = []
        for module, name in ((degeneration, "verify_cover_identity"),
                             (family, "verify_cover_identity"),
                             (cli, "verify_cover_identity"),
                             (family, "build_family"),
                             (family, "family_instance")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        code, _, _ = run(capsys, "degenerate", "--genus", "3")
        assert code == 0
        assert calls == []

    @pytest.mark.parametrize("exponent, consistent", [(0, False), (5, True)],
                             ids=["inconsistent", "map-perturbing"])
    def test_changed_right_hand_side_fails(self, capsys, monkeypatch,
                                           exponent, consistent):
        # At genus 3 no column reaches x^0, and every solution of the system
        # changed at x^5 perturbs the map: either way there is no deformed
        # cover, and the consistency check reports which case it is.
        def changed(g, maps, _assemble=degeneration
                    .assemble_deformation_system):
            system = _assemble(g, maps)
            return system._replace(
                rhs=system.rhs + Poly.monomial(1, exponent))
        monkeypatch.setattr(degeneration, "assemble_deformation_system",
                            changed)
        code, out, _ = run(capsys, "degenerate", "--genus", "3")
        assert code == 1
        doc = json.loads(out)
        checks = {c["name"]: c["passed"] for c in doc["checks"]}
        assert checks == {"order_t_system_consistent": consistent,
                          "exact_certificate": False,
                          "agrees_with_family": False}
        assert doc["coefficients"] == {} and doc["curve"] is None

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
        # Each family is built once, uncertified, and its cover identity is
        # checked once, by the family_cover_identity check.
        bindings = [(family, "family_instance"), (family, "build_family")]
        bindings += [(module, "verify_cover_identity")
                     for module in (curves, family, degeneration, selftest)]
        calls = {name: [] for _, name in bindings}
        for module, name in bindings:
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name].append(args)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        run(capsys, "selftest", "--max-genus", "3")
        assert sorted(g for g, in calls["family_instance"]) == [1, 2, 3]
        assert calls["build_family"] == []
        assert len(calls["verify_cover_identity"]) == 3

    def test_failing_family_is_a_fail_line(self, capsys, monkeypatch):
        # A family whose cover identity fails is reported, not raised.  At
        # g=2 the source gains t*x: its t*x coefficient becomes 17, not 16.
        def broken(g, _build=family.family_instance):
            inst = _build(g)
            if g != 2:
                return inst
            low, high = inst.cover.source.rhs.parts
            source = inst.cover.source._replace(
                rhs=TPoly([low, high + Poly.variable()]))
            return inst._replace(cover=inst.cover._replace(source=source))
        monkeypatch.setattr(family, "family_instance", broken)
        code, out, _ = run(capsys, "selftest", "--max-genus", "3")
        assert code == 1
        lines = out.splitlines()
        assert "[FAIL] family_cover_identity: failed at g=2" in lines

    @pytest.mark.parametrize("max_genus", [1, 0, -3])
    def test_max_genus_below_two_is_a_usage_error(self, capsys, max_genus):
        # Below 2 the checks that start at g = 2 would pass vacuously.
        with pytest.raises(SystemExit) as exc:
            run(capsys, "selftest", "--max-genus", str(max_genus))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        with pytest.raises(InvalidGenus):
            selftest.run_selftest(max_genus)

    def test_max_genus_two_runs(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-genus", "2")
        assert code == 1
        assert len(out.splitlines()) == 9


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["generate", "origami", "degenerate"])
    def test_max_genus_default_follows_constant(self, capsys, monkeypatch,
                                                command):
        monkeypatch.setattr(cli, "DEFAULT_MAX_GENUS", 7)
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "safety limit on the genus (default 7)" in help_text
        args = cli.build_parser().parse_args([command, "--genus", "3"])
        assert args.max_genus == 7


def run_fresh(*args):
    """Run ``python -S *args`` in a new interpreter with the package on its
    path; -S keeps site hooks out, so only the package's own imports count."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-S", *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True)


def test_import_leaves_out_dataclasses():
    # selftest imports every module, so every record class is built.
    probe = ("import sys, origami_covers.cli, origami_covers.selftest;"
             " print('dataclasses' in sys.modules)")
    assert run_fresh("-c", probe).stdout == b"False\n"


# What generate and verify run; degeneration, origami and selftest are
# imported by their own commands only.
EAGER_MODULES = sorted(["origami_covers", "origami_covers.cli"] + [
    f"origami_covers.{name}"
    for name in ("errors", "poly", "ratfunc", "parsing", "curves", "family")])


def test_generate_and_verify_load_only_what_they_run(tmp_path):
    probe = textwrap.dedent("""
        import contextlib, io, json, sys
        from origami_covers import cli
        def loaded():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] == "origami_covers")
        sets = [loaded()]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(["generate", "--genus", "2"])]
        with open(sys.argv[1], "w") as fh:
            fh.write(out.getvalue())
        sets.append(loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(["verify", sys.argv[1]]))
        sets.append(loaded())
        print(json.dumps([sets, codes]))
    """)
    done = run_fresh("-c", probe, str(tmp_path / "cover.json"))
    assert done.returncode == 0, done.stderr
    sets, codes = json.loads(done.stdout)
    assert codes == [0, 0]
    assert sets == [EAGER_MODULES] * 3


@pytest.mark.parametrize("argv", [["degenerate", "--genus", "2"],
                                  ["origami", "--genus", "3"],
                                  ["selftest", "--max-genus", "4"]],
                         ids=" ".join)
def test_deferred_command_from_a_cold_process(argv):
    # test_golden runs in-process, where every module is already imported.
    golden = os.path.join(os.path.dirname(__file__), "golden_outputs.json")
    with open(golden, encoding="utf-8") as fh:
        case, = (case for case in json.load(fh) if case["argv"] == argv)
    done = run_fresh("-m", "origami_covers.cli", *argv)
    assert (done.returncode, hashlib.sha256(done.stdout).hexdigest()) == (
        case["exit"], case["sha256"])
