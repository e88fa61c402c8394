"""Tests of the benchmark's own oracle, corpus, checks and tracer.

The expected strings below are the hand-written reference values of
tests/test_acceptance.py and tests/test_cli.py, so the oracle is pinned
independently of the program it checks.
"""

import contextlib
import io
import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, run.SRC)

from origami_covers import cli, poly, ratfunc  # noqa: E402

REFERENCE_CURVES = {
    2: "x^5 + (1 + 9*t)*x^4 + 33*t*x^3 + 40*t*x^2 + 16*t*x",
    3: ("x^7 + (1 + 25*t)*x^6 + 225*t*x^5 + 760*t*x^4 + 1200*t*x^3"
        " + 896*t*x^2 + 256*t*x"),
}


@pytest.mark.parametrize("g", sorted(REFERENCE_CURVES))
def test_reference_curves(g):
    assert oracle.cover(g)["source_rhs"] == REFERENCE_CURVES[g]


def test_genus_two_cover_and_certificate():
    cover = oracle.cover(2)
    assert cover["f1"] == "x^3/(9*x^2 + 24*x + 16)"
    assert cover["target_rhs"] == "x^3 + (1 + t)*x^2 + t*x"
    assert cover["degree"] == 3
    assert oracle.certificate(2)["pullback"] == "3*x"
    assert oracle.certificate(3)["pullback"] == "5*x^2"


def test_genus_two_deformation_coefficients():
    assert oracle.deformation_coefficients(2) == {
        "a": "9", "b": "33", "c": "40", "d": "16", "e": "0", "f": "0",
        "g": "0"}


@pytest.mark.parametrize("g", range(1, 15))
def test_companion_product_identity(g):
    """(x+1) k^2 = j^2 + x^(2g-1), the identity the closed form rests on."""
    j, k = oracle.companions(g)
    lhs = oracle.mul([1, 1], oracle.mul(k, k))
    rhs = oracle.mul(j, j) + [0]
    rhs[2 * g - 1] += 1
    assert lhs == rhs


def test_corpus_is_reproducible_per_seed():
    first = oracle.build_corpus(7)
    assert first == oracle.build_corpus(7)
    assert first != oracle.build_corpus(8)
    assert run.corpus_digest(7) == run.corpus_digest(7)


def test_corpus_classes_do_not_depend_on_seed():
    def shape(seed):
        return [(d["kind"], d["genus"], d["expect"])
                for d in oracle.build_corpus(seed)
                if d["kind"] != "malformed-json"]
    assert shape(1) == shape(2) == shape(3)


def test_corpus_valid_documents_parse_as_json():
    for doc in oracle.build_corpus(3):
        if doc["kind"].startswith("valid"):
            body = json.loads(doc["text"])
            assert body.get("cover", body)["degree"] == 2 * doc["genus"] - 1


def test_only_known_defects_keep_the_run_correct():
    runner = run.Runner(cli, started=time.perf_counter())
    accepted = '{"command": "verify", "checks": [{"passed": true}]}'
    for kind in ("wrong-degree", "mutant"):
        case = run.Case(["verify", "x"], kind, 2, run._check_verify(1))
        runner.record(case, "exit 0", accepted)
    crash = run.Case(["verify", "x"], "zero-source", 2, run._check_verify(2))
    runner.record(crash, "crash InvalidCurve", "")
    assert runner.attempted == 3
    assert sum(runner.failures.values()) == 3
    assert runner.unexpected == 1


def test_generate_check_against_program():
    runner = run.Runner(cli, started=time.perf_counter())
    for case in run._generate_ladder(0)[:2]:
        runner.run_case(case)
    assert runner.attempted == 2 and not runner.failures


def test_tracer_counts_repeat_and_restores_bindings():
    original_mul, original_gcd = poly.Poly.__mul__, ratfunc.poly_gcd
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            tracer.command_span(cli.main, ["generate", "--genus", "3"])
        summary = tracer.summary()
        counts.append(summary["calls"])
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"] == 1
    assert counts[0]["curves.identity"] == 2
    assert counts[0]["curves.pullback"] == 3
    assert not tracer.unbound
    root = summary["layers"]["cli.main"]
    assert 0 <= root["self_s"] <= root["s"]
    assert poly.Poly.__mul__ is original_mul
    assert ratfunc.poly_gcd is original_gcd


def test_reported_metrics_match_benchmark_json():
    root = os.path.dirname(run.BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    def declared(kind):
        return {m["name"]: m["unit"] for m in spec[kind]}

    passes = [run.Pass(1.0, [0.25, 0.75], 1.1)]
    e2e = run.end_to_end([0.1], passes, 1)
    assert {k: unit for k, (_, unit) in e2e.items()} == declared("end_to_end")
    layers = run.per_layer(passes, passes, [Tracer().summary()])
    assert {k: unit for k, (_, unit) in layers.items()} == declared("per_layer")


def test_timeout_and_crash_are_counted_not_fatal(monkeypatch):
    monkeypatch.setattr(run, "COMMAND_LIMIT_S", 0.01)
    runner = run.Runner(cli, started=time.perf_counter())
    slow = run._generate_ladder(0)[-2]          # generate --genus 12
    runner.run_case(slow)
    crash = run.Case(["verify", os.devnull], "zero-source", 2,
                     run._check_verify(2))
    monkeypatch.setattr(cli, "cmd_verify", lambda args, parser: 1 / 0)
    runner.run_case(crash)
    assert runner.failures == {
        ("generate", "timeout, expected exit 0"): 1,
        ("zero-source", "crash ZeroDivisionError, expected exit 2"): 1,
    }
    assert runner.unexpected == 2
