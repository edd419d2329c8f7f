"""End-to-end command line behavior: schemas, exit codes, determinism."""

import hashlib
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import beliefbet as bb
import beliefbet.audit
import beliefbet.cli
import beliefbet.previsions
import beliefbet.setfn
from beliefbet.cli import main
from conftest import dense_choquet, mass_functions, near_tie_envelope, random_model, space_of, wide_mass


REFERENCE_MODEL = {
    "space": ["1", "2", "3", "4"],
    "kind": "lower_envelope",
    "rows": [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]],
}

#: A Choquet model whose weights do not survive the zeta and Moebius round
#: trip bit for bit: {a,b} comes back as 0.20000000000000004. Its audit and
#: its transform read the model's own mass, so --tol 0 meets no roundoff.
ZERO_TOL_CHOQUET = {
    "space": ["a", "b", "c"],
    "kind": "choquet",
    "mass": {"a": 0.1, "a,b": 0.2, "b,c": 0.3, "a,b,c": 0.4},
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestTransform:
    def test_vacuous_mass_to_belief_three_outcomes(self, tmp_path, capsys):
        path = write(
            tmp_path, "m.json", {"space": ["a", "b", "c"], "kind": "mass", "mass": {"a,b,c": 1.0}}
        )
        assert main(["transform", "--to", "belief", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert lines.count("{a,b,c}: 1") == 1
        assert sum(1 for line in lines if line.endswith(": 0")) == 7

    def test_vacuous_mass_to_belief_four_outcomes(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "m.json",
            {"space": ["1", "2", "3", "4"], "kind": "mass", "mass": {"1,2,3,4": 1.0}},
        )
        assert main(["transform", "--to", "belief", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16
        assert sum(1 for line in lines if line.endswith(": 0")) == 15

    def test_singleton_mass_gives_probability_table(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "m.json",
            {"space": ["a", "b"], "kind": "mass", "mass": {"a": 0.2, "b": 0.8}},
        )
        assert main(["transform", "--to", "belief", path, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == {"": 0.0, "a": 0.2, "b": 0.8, "a,b": 1.0}

    def test_reference_model_to_mass_flags_negative(self, tmp_path, capsys):
        path = write(tmp_path, "model.json", REFERENCE_MODEL)
        assert main(["transform", "--to", "mass", path]) == 0
        out = capsys.readouterr().out
        assert "{2,3,4}: -0.25  NEGATIVE" in out
        assert main(["transform", "--to", "mass", path, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "negative_mass_report"
        assert doc["negative"]["2,3,4"] == -0.25
        assert doc["mobius"]["1,2,3"] == -0.25

    def test_round_trip_identity(self, tmp_path, capsys):
        mass_doc = {
            "space": ["a", "b", "c"],
            "kind": "mass",
            "mass": {"a": 0.25, "a,b": 0.25, "a,b,c": 0.5},
        }
        path = write(tmp_path, "m.json", mass_doc)
        assert main(["transform", "--to", "belief", path, "--format", "machine"]) == 0
        belief_doc = json.loads(capsys.readouterr().out)
        back = write(tmp_path, "b.json", belief_doc)
        assert main(["transform", "--to", "mass", back, "--format", "machine"]) == 0
        recovered = json.loads(capsys.readouterr().out)
        assert recovered["kind"] == "mass"
        for key, value in mass_doc["mass"].items():
            assert recovered["mass"][key] == pytest.approx(value, abs=1e-12)
        # and back to the identical belief table
        again = write(tmp_path, "m2.json", recovered)
        assert main(["transform", "--to", "belief", again, "--format", "machine"]) == 0
        belief_again = json.loads(capsys.readouterr().out)
        for key, value in belief_doc["values"].items():
            assert belief_again["values"][key] == pytest.approx(value, abs=1e-12)

    def test_endpoint_violation_exits_three(self, tmp_path, capsys):
        values = {"": 0.0, "a": 0.5, "b": 0.5, "a,b": 0.9}
        path = write(tmp_path, "bad.json", {"space": ["a", "b"], "kind": "belief", "values": values})
        assert main(["transform", "--to", "mass", path]) == 3

    def test_schema_violations_exit_two(self, tmp_path):
        bad = write(tmp_path, "bad.json", {"space": ["a", "a"], "kind": "mass", "mass": {"a": 1.0}})
        assert main(["transform", "--to", "belief", bad]) == 2
        missing = write(tmp_path, "missing.json", {"space": ["a", "b"], "kind": "belief", "values": {"a": 0.5}})
        assert main(["transform", "--to", "mass", missing]) == 2
        not_json = tmp_path / "junk.json"
        not_json.write_text("not json {")
        assert main(["transform", "--to", "belief", str(not_json)]) == 2
        wrong_direction = write(
            tmp_path, "wrong.json", {"space": ["a"], "kind": "linear", "prob": [1.0]}
        )
        assert main(["transform", "--to", "belief", wrong_direction]) == 2
        comma_label = write(
            tmp_path, "comma.json", {"space": ["a,b"], "kind": "mass", "mass": {"a,b": 1.0}}
        )
        assert main(["transform", "--to", "belief", comma_label]) == 2
        bad_weight = write(
            tmp_path, "w.json", {"space": ["a", "b"], "kind": "mass", "mass": {"a": 0.4}}
        )
        assert main(["transform", "--to", "belief", bad_weight]) == 2

    def test_choquet_model_document_as_mass_input(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "model.json",
            {"space": ["a", "b"], "kind": "choquet", "mass": {"a": 0.3, "a,b": 0.7}},
        )
        assert main(["transform", "--to", "belief", path, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == {"": 0.0, "a": 0.3, "b": 0.0, "a,b": 1.0}


class TestPrice:
    def test_reference_indicators(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        gambles = write(
            tmp_path,
            "g.json",
            {
                "space": ["1", "2", "3", "4"],
                "gambles": [
                    {"name": "i234", "payoff": [0, 1, 1, 1]},
                    {"name": "i2", "payoff": [0, 1, 0, 0]},
                    {"name": "i23", "payoff": [0, 1, 1, 0]},
                    {"name": "i24", "payoff": [0, 1, 0, 1]},
                ],
            },
        )
        assert main(["price", model, gambles, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        buys = {row["name"]: row["buy"] for row in doc["prices"]}
        assert buys == {"i234": 0.5, "i2": 0.25, "i23": 0.5, "i24": 0.5}
        assert buys["i234"] + buys["i2"] == 0.75
        assert buys["i23"] + buys["i24"] == 1.0

    def test_constant_gamble(self, tmp_path, capsys):
        model = write(
            tmp_path, "model.json", {"space": ["a", "b"], "kind": "linear", "prob": [0.5, 0.5]}
        )
        gambles = write(
            tmp_path, "g.json", {"space": ["a", "b"], "gambles": [{"payoff": [5, 5]}]}
        )
        assert main(["price", model, gambles]) == 0
        assert "buy=5 sell=5" in capsys.readouterr().out

    def test_vacuous_model_prices_at_extremes(self, tmp_path, capsys):
        model = write(
            tmp_path,
            "model.json",
            {"space": ["a", "b", "c"], "kind": "choquet", "mass": {"a,b,c": 1.0}},
        )
        gambles = write(
            tmp_path, "g.json", {"space": ["a", "b", "c"], "gambles": [{"payoff": [1, 2, 3]}]}
        )
        assert main(["price", model, gambles]) == 0
        assert "buy=1 sell=3" in capsys.readouterr().out

    def test_space_mismatch_exits_two(self, tmp_path):
        model = write(
            tmp_path, "model.json", {"space": ["a", "b"], "kind": "linear", "prob": [0.5, 0.5]}
        )
        gambles = write(
            tmp_path, "g.json", {"space": ["x", "y"], "gambles": [{"payoff": [1, 2]}]}
        )
        assert main(["price", model, gambles]) == 2

    def test_wrong_payoff_length_exits_two(self, tmp_path):
        model = write(
            tmp_path, "model.json", {"space": ["a", "b"], "kind": "linear", "prob": [0.5, 0.5]}
        )
        gambles = write(
            tmp_path, "g.json", {"space": ["a", "b"], "gambles": [{"payoff": [1, 2, 3]}]}
        )
        assert main(["price", model, gambles]) == 2

    def test_default_names(self, tmp_path, capsys):
        model = write(
            tmp_path, "model.json", {"space": ["a", "b"], "kind": "linear", "prob": [0.5, 0.5]}
        )
        gambles = write(
            tmp_path,
            "g.json",
            {"space": ["a", "b"], "gambles": [{"payoff": [1, 0]}, {"payoff": [0, 1]}]},
        )
        assert main(["price", model, gambles]) == 0
        out = capsys.readouterr().out
        assert out.startswith("g1:") and "g2:" in out


class TestAudit:
    def test_choquet_model_passes(self, tmp_path, capsys):
        model = write(
            tmp_path,
            "model.json",
            {"space": ["a", "b", "c"], "kind": "choquet", "mass": {"a": 0.5, "a,b,c": 0.5}},
        )
        assert main(["audit", model]) == 0
        assert "VERDICT: belief-consistent" in capsys.readouterr().out

    def test_linear_model_is_probability(self, tmp_path, capsys):
        model = write(
            tmp_path, "model.json", {"space": ["a", "b"], "kind": "linear", "prob": [0.3, 0.7]}
        )
        assert main(["audit", model, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_probability"] is True
        assert doc["is_belief_consistent"] is True
        assert doc["certificate"] is None

    def test_reference_model_fails_with_certificate(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        assert main(["audit", model, "--format", "machine"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_belief_consistent"] is False
        cert = doc["certificate"]
        assert cert["kind"] == "negative_mass"
        assert cert["subset"] == "2,3,4"
        assert cert["buy_gap"] == 0.25
        assert cert["mass"] == -0.25
        assert [g["payoff"] for g in cert["xs"]] == [[0, 1, 1, 0], [0, 1, 0, 1]]
        assert [g["payoff"] for g in cert["ys"]] == [[0, 1, 1, 1], [0, 1, 0, 0]]
        assert doc["certificate_verified"] is True
        assert doc["negative_mass"]["2,3,4"] == -0.25

    def test_human_certificate_readout(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        assert main(["audit", model]) == 1
        out = capsys.readouterr().out
        assert "VERDICT: NOT belief-consistent" in out
        assert "xs: 1_{2,3}, 1_{2,4}" in out
        assert "ys: 1_{2,3,4}, 1_{2}" in out
        assert "buy gap: 0.25" in out

    def test_determinism_modulo_timestamp(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        main(["audit", model, "--format", "machine", "--seed", "7"])
        first = json.loads(capsys.readouterr().out)
        main(["audit", model, "--format", "machine", "--seed", "7"])
        second = json.loads(capsys.readouterr().out)
        first.pop("timestamp")
        second.pop("timestamp")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_plan_flags_are_echoed(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        assert main(["audit", model, "--format", "machine", "--seed", "9", "--samples", "17"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["plan"]["seed"] == 9
        assert doc["plan"]["num_samples"] == 17

    def test_out_file(self, tmp_path):
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        out = tmp_path / "report.json"
        assert main(["audit", model, "--format", "machine", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        digest = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
        assert doc["input"] == {"path": model, "sha256": digest}
        assert doc["tool"]["name"] == "beliefbet"
        assert list(doc["plan"].items()) == [
            ("num_samples", 256), ("payoff_range", [-1.0, 1.0]), ("seed", 0), ("num_ledgers", 32)
        ]
        assert list(doc["tolerances"].items()) == [("tol", 1e-09), ("exact_tol", 1e-12)]

    def test_model_is_read_once(self, tmp_path, monkeypatch, capsys):
        # the model file is gone before the audit runs; the report still
        # carries the digest of the bytes that were audited
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        digest = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
        audit = beliefbet.cli.belief_consistency_audit

        def remove_then_audit(*args, **kwargs):
            (tmp_path / "model.json").unlink()
            return audit(*args, **kwargs)

        monkeypatch.setattr(beliefbet.cli, "belief_consistency_audit", remove_then_audit)
        assert main(["audit", model, "--format", "machine"]) == 1
        assert json.loads(capsys.readouterr().out)["input"]["sha256"] == digest

    def test_bad_model_exits_two(self, tmp_path):
        model = write(
            tmp_path, "model.json", {"space": ["a", "b"], "kind": "linear", "prob": [0.3, 0.3]}
        )
        assert main(["audit", model]) == 2


class TestBadFlags:
    @pytest.fixture
    def commands(self, tmp_path):
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        gambles = write(
            tmp_path, "gambles.json", {"space": ["1", "2", "3", "4"], "gambles": [{"payoff": [1, 0, 0, 0]}]}
        )
        ledger = write(
            tmp_path,
            "ledger.json",
            {"space": ["1", "2", "3", "4"], "buys": [{"payoff": [0, 0, 0, 0], "price": 1.0}]},
        )
        return {
            "audit": ["audit", model],
            "transform": ["transform", model, "--to", "mass"],
            "price": ["price", model, gambles],
            "dutchbook": ["dutchbook", model, ledger],
        }

    @pytest.mark.parametrize(
        "flag", ["--tol=nan", "--tol=inf", "--tol=-1e-9", "--tol=-0.5", "--tol=x"]
    )
    @pytest.mark.parametrize("command", ["audit", "transform", "price", "dutchbook"])
    def test_bad_tolerance_exits_two(self, commands, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(commands[command] + [flag])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
    def test_bad_tolerance_as_separate_argument(self, commands, value):
        with pytest.raises(SystemExit) as exc:
            main(commands["audit"] + ["--tol", value])
        assert exc.value.code == 2

    def test_zero_tolerance_stays_valid(self, commands, capsys):
        assert main(commands["dutchbook"] + ["--tol", "0"]) == 0
        assert "DUTCH BOOK" in capsys.readouterr().out
        assert main(commands["audit"] + ["--tol", "0"]) == 1

    def test_zero_tolerance_envelope_certificate(self, tmp_path, capsys):
        # the inverted weight at {a,b,c} is -8.3e-17: below -0, so certified
        model = write(
            tmp_path,
            "model.json",
            {"space": ["a", "b", "c"], "kind": "lower_envelope",
             "rows": [[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]]},
        )
        assert main(["audit", model, "--tol", "0"]) == 1
        assert "certificate verified: True" in capsys.readouterr().out

    def test_zero_tolerance_choquet_model_is_consistent(self, tmp_path, capsys):
        # a Choquet model is belief-consistent by construction, so no sampled
        # gamble's roundoff gap can be taken for a violation
        model = write(tmp_path, "model.json", ZERO_TOL_CHOQUET)
        assert main(["audit", model, "--tol", "0"]) == 0
        assert "VERDICT: belief-consistent" in capsys.readouterr().out

    def test_negative_seed_exits_two(self, commands, capsys):
        assert main(commands["audit"] + ["--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        for samples in ("0", "-3"):
            assert main(commands["audit"] + ["--samples", samples]) == 2
            assert "num_samples must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "0", "num_samples must be at least 1"),
        ("--seed", "-1", "seed cannot be negative, got -1"),
    ])
    def test_plan_is_rejected_before_the_model_is_read(self, tmp_path, capsys, flag, value, message):
        missing = str(tmp_path / "missing.json")
        assert main(["audit", missing, flag, value]) == 2
        assert capsys.readouterr() == ("", f"beliefbet: {message}\n")
        # an unwritable --out is still found first
        out = str(tmp_path / "missing" / "out.json")
        assert main(["audit", missing, flag, value, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"beliefbet: schema error: cannot write {out}: ")


class TestDutchbook:
    def test_model_priced_ledger(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", REFERENCE_MODEL)
        ledger = write(
            tmp_path,
            "ledger.json",
            {
                "space": ["1", "2", "3", "4"],
                "buys": [
                    {"payoff": [0, 1, 0, 0], "price": 0.25},
                    {"payoff": [1, 0, 1, 1], "price": 0.5},
                ],
                "sells": [],
            },
        )
        assert main(["dutchbook", model, ledger]) == 0
        out = capsys.readouterr().out
        assert "exposure: 0.25" in out
        assert "DUTCH BOOK" not in out

    def test_overquoted_buy_banner(self, tmp_path, capsys):
        model = write(
            tmp_path, "model.json", {"space": ["a", "b"], "kind": "linear", "prob": [0.5, 0.5]}
        )
        ledger = write(
            tmp_path,
            "ledger.json",
            {"space": ["a", "b"], "buys": [{"payoff": [1, 0], "price": 1.2}], "sells": []},
        )
        assert main(["dutchbook", model, ledger, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exposure"] == pytest.approx(-0.2, abs=1e-15)
        assert doc["dutch_book"] is True
        assert main(["dutchbook", model, ledger]) == 0
        assert "DUTCH BOOK" in capsys.readouterr().out

    def test_empty_ledger_exits_two(self, tmp_path):
        model = write(
            tmp_path, "model.json", {"space": ["a", "b"], "kind": "linear", "prob": [0.5, 0.5]}
        )
        ledger = write(tmp_path, "ledger.json", {"space": ["a", "b"], "buys": [], "sells": []})
        assert main(["dutchbook", model, ledger]) == 2


class TestSingleMobiusPass:
    @pytest.fixture
    def mobius_calls(self, monkeypatch):
        original = beliefbet.setfn.mobius_transform
        calls = []

        def counting(values):
            calls.append(len(values))
            return original(values)

        # audit and cli no longer bind mobius_transform; a binding that comes
        # back is counted too
        for module in (beliefbet.setfn, beliefbet.audit, beliefbet.cli):
            monkeypatch.setattr(module, "mobius_transform", counting, raising=False)
        return calls

    def test_one_pass_per_audit(self, mobius_calls):
        # a Choquet or linear model carries its own mass: only the envelope is inverted
        sp = bb.make_space(REFERENCE_MODEL["space"])
        consistent = bb.ChoquetModel(bb.MassFunction(sp, {0b0011: 0.4, 0b1110: 0.6}))
        linear = bb.LinearModel(sp, np.array([0.1, 0.2, 0.3, 0.4]))
        negative = bb.LowerEnvelopeModel(sp, np.array(REFERENCE_MODEL["rows"]))
        for pm, verdict, passes in ((consistent, True, 0), (linear, True, 0), (negative, False, 1)):
            mobius_calls.clear()
            assert bb.belief_consistency_audit(pm).is_belief_consistent is verdict
            assert len(mobius_calls) == passes, pm.kind

    def test_one_pass_per_transform_to_mass(self, tmp_path, capsys, mobius_calls):
        path = write(tmp_path, "model.json", REFERENCE_MODEL)
        assert main(["transform", path, "--to", "mass"]) == 0
        assert len(mobius_calls) == 1

    def test_no_pass_per_own_mass_transform(self, tmp_path, capsys, monkeypatch, mobius_calls):
        lattice_calls = []
        for name in ("zeta_transform", "_butterfly"):
            original = getattr(beliefbet.setfn, name)

            def counting(*args, original=original, name=name):
                lattice_calls.append(name)
                return original(*args)

            for module in (beliefbet.setfn, beliefbet.previsions, beliefbet.audit, beliefbet.cli):
                monkeypatch.setattr(module, name, counting, raising=False)
        documents = [ZERO_TOL_CHOQUET, {"space": ["a", "b", "c"], "kind": "linear", "prob": [0.5, 0.0, 0.5]}]
        for k, doc in enumerate(documents):
            path = write(tmp_path, f"model{k}.json", doc)
            for fmt in ("human", "machine"):
                assert main(["transform", path, "--to", "mass", "--format", fmt]) == 0
        assert mobius_calls == [] and lattice_calls == []
        listings = capsys.readouterr().out
        # the model's own weights, which the round trip gives back as 0.20000000000000004
        assert "{a,b}: 0.20000000000000001\n" in listings
        assert '"mass": {\n    "a": 0.5,\n    "c": 0.5\n  }' in listings

    def test_one_pass_per_library_verdict(self, mobius_calls):
        sp = bb.make_space(REFERENCE_MODEL["space"])
        consistent = bb.ChoquetModel(bb.MassFunction(sp, {0b0011: 0.4, 0b1110: 0.6}))
        negative = bb.LowerEnvelopeModel(sp, np.array(REFERENCE_MODEL["rows"]))
        for pm in (consistent, negative):
            f = bb.induced_set_function(pm)
            for verdict in (bb.is_belief_function, bb.belief_to_mass):
                mobius_calls.clear()
                verdict(f)
                assert len(mobius_calls) == 1
            mobius_calls.clear()
            bb.probability_check(pm)
            assert len(mobius_calls) == 0  # it reads the induced table only


def own_mass_document(pm):
    """The model document of a linear or Choquet model, every float exact."""
    labels = list(pm.space.labels)
    if pm.kind == "linear":
        return {"space": labels, "kind": "linear", "prob": pm.prob.tolist()}
    keys = beliefbet.cli.subset_keys(labels, pm.mass.mask_array)
    return {"space": labels, "kind": "choquet", "mass": dict(zip(keys, pm.mass.weight_array.tolist()))}


def expected_own_mass(pm):
    """(masks, weight bits) of the mass a model carries: a Choquet model's
    focal sets, or a linear model's positive outcome probabilities."""
    if pm.kind == "linear":
        masks = [1 << i for i, p in enumerate(pm.prob.tolist()) if p > 0.0]
        weights = [p for p in pm.prob.tolist() if p > 0.0]
    else:
        masks, weights = pm.mass.mask_array.tolist(), pm.mass.weight_array.tolist()
    return masks, [w.hex() for w in weights]


@st.composite
def own_mass_models(draw):
    """A linear model with some zero entries, or a Choquet model, on 1 to 10 outcomes."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        raw = draw(st.lists(st.sampled_from([0.0, 0.25]) | st.floats(0.05, 1.0), min_size=n, max_size=n))
        if not any(raw):
            raw[-1] = 1.0
        total = math.fsum(raw)
        return bb.LinearModel(space_of(n), np.array([w / total for w in raw]))
    return bb.ChoquetModel(draw(mass_functions(space=space_of(n), max_focal=12)))


class TestOwnMass:
    """Choquet and linear models carry their Moebius inverse: the audit and
    ``transform --to mass`` read it from the model, exactly and with no
    table over the subset lattice."""

    N = 20
    #: A bound far below one 8 * 2^20-byte table; these paths peak at 72-191 KB.
    SMALL = 1 << 20

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    def test_footprint(self, tmp_path):
        rng = np.random.default_rng(20)
        choquet = bb.ChoquetModel(wide_mass(rng, self.N, 64))
        p = rng.uniform(0.0, 1.0, self.N)
        p[::3] = 0.0
        linear = bb.LinearModel(choquet.space, p / math.fsum(p.tolist()))
        out = str(tmp_path / "out.txt")
        for pm in (choquet, linear):
            path = write(tmp_path, f"{pm.kind}.json", own_mass_document(pm))
            for fmt in ("human", "machine"):
                argv = ["transform", path, "--to", "mass", "--format", fmt, "--out", out]
                assert self.traced_peak(lambda: main(argv)) < self.SMALL, (pm.kind, fmt)
        plan = bb.SamplePlan(num_samples=16)
        assert self.traced_peak(lambda: bb.belief_consistency_audit(linear, plan)) < self.SMALL
        # the Choquet audit holds its one float table of indicator prices and
        # the verdict's two byte tables; inverting that table on the lattice
        # peaked at 18.29 bytes per subset on this model and plan
        peak = self.traced_peak(lambda: bb.belief_consistency_audit(choquet, plan))
        assert peak <= (18.29 - 8) * (1 << self.N)

    def test_human_listings_stream(self, tmp_path):
        # a human listing is written a chunk at a time, as a machine one is:
        # 76 and 80 bytes per subset here, against 239 and 282 when every
        # line was formatted and the listing joined into one string
        n = 18
        rng = np.random.default_rng(n)
        choquet = bb.ChoquetModel(wide_mass(rng, n, 64))
        rows = rng.uniform(0.05, 1.0, size=(4, n))
        envelope = {"space": list(choquet.space.labels), "kind": "lower_envelope",
                    "rows": (rows / rows.sum(axis=1, keepdims=True)).tolist()}
        out = str(tmp_path / "out.txt")
        for doc, to in ((own_mass_document(choquet), "belief"), (envelope, "mass")):
            argv = ["transform", write(tmp_path, f"{to}.json", doc), "--to", to, "--out", out]
            assert self.traced_peak(lambda: main(argv)) < 100 * (1 << n), to
            with open(out, encoding="utf-8") as fh:
                assert sum(1 for _ in fh) >= 1 << n - 1, to

    @given(own_mass_models(), st.sampled_from([0.0, 1e-12, 1e-9]))
    @example(dense_choquet(8), 0.0)
    @example(dense_choquet(8), 1e-12)
    @example(dense_choquet(8), 1e-9)
    def test_exact_and_agreeing(self, pm, tol):
        masks, weights = expected_own_mass(pm)
        report = bb.belief_consistency_audit(pm, bb.SamplePlan(num_samples=8), tol=tol)
        assert report.induced_mass.mask_array.tolist() == masks
        assert [w.hex() for w in report.induced_mass.weight_array.tolist()] == weights
        assert report.is_belief_consistent and report.certificate is None
        want = beliefbet.audit._probability_verdict(bb.induced_set_function(pm).values, tol)
        assert (report.is_probability, report.probability_witness) == (want.is_probability, want.witness)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(own_mass_document(pm), fh)
            out = os.path.join(tmp, "mass.json")
            argv = ["transform", path, "--to", "mass", "--format", "machine", "--tol", repr(tol), "--out", out]
            assert main(argv) == 0
            with open(out, encoding="utf-8") as fh:
                listing = json.load(fh)["mass"]
        assert [beliefbet.cli.parse_subset_key(pm.space, key) for key in listing] == masks
        assert [w.hex() for w in listing.values()] == weights


def reading_cases():
    """(table, model, document) triples: seeded noisy belief tables and tables
    of a signed mass (no model), random envelopes and near-tie envelopes."""
    rng = np.random.default_rng(17)
    cases = []
    for i in range(24):
        n = int(rng.integers(2, 9))
        space = bb.make_space([f"o{j}" for j in range(n)])
        masks = 1 + rng.choice(space.size - 1, size=min(space.size - 1, 6), replace=False)
        if i % 2:  # a signed mass summing to one
            weights = rng.uniform(0.05, 1.0, masks.size)
            weights[rng.random(masks.size) < 0.3] *= -0.4
            weights /= math.fsum(weights.tolist())
        else:  # a mass plus noise of up to 1.6e-9, compensated at a singleton
            weights = rng.uniform(0.05, 1.0, masks.size)
            weights = np.concatenate([weights / math.fsum(weights.tolist()),
                                      rng.uniform(-1.6e-9, 1.6e-9, 3)])
            masks = np.concatenate([masks, 1 + rng.choice(space.size - 1, size=3)])
            weights = np.append(weights, -math.fsum(weights[-3:].tolist()))
            masks = np.append(masks, 1)
        dense = np.zeros(space.size)
        np.add.at(dense, masks, weights)
        values = bb.zeta_transform(dense)
        doc = {"space": list(space.labels), "kind": "belief",
               "values": dict(zip(beliefbet.cli.subset_keys(space.labels, range(space.size)),
                                  values.tolist()))}
        cases.append((bb.SetFunction(space, values), None, doc))
    models = [random_model(rng, space_of(int(rng.integers(3, 8))), "lower_envelope")
              for _ in range(12)]
    models += [near_tie_envelope(seed) for seed in range(12)]
    for pm in models:
        doc = {"space": list(pm.space.labels), "kind": "lower_envelope", "rows": pm.rows.tolist()}
        cases.append((bb.induced_set_function(pm), pm, doc))
    return cases


class TestOneReading:
    """Every belief verdict on a table reads one Moebius reading of it, and
    the probability verdict reads the table itself, so the callers agree at
    every tol. The one gap: is_belief_function does not check the weight
    sum, so it passes near-tie tables that belief_to_mass rejects
    (test_near_tie_seed_two_disagrees)."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
    def test_callers_agree(self, tmp_path, capsys, tol):
        plan = bb.SamplePlan(num_samples=16)
        counts = {"reports": 0, "sum_raises": 0, "audits": 0, "certificates": 0}
        for k, (f, pm, doc) in enumerate(reading_cases()):
            check = bb.is_belief_function(f, tol=tol)
            try:
                result = bb.belief_to_mass(f, tol=tol)
            except bb.BeliefBetError as exc:
                assert "too far from 1" in str(exc) and check.ok
                counts["sum_raises"] += 1
                result = None
            negative = isinstance(result, bb.NegativeMassReport)
            assert check.ok is not negative
            if negative:
                counts["reports"] += 1
                assert check.negative_subset == result.witness()
                assert check.negative_mass == float(result.weights[result.masks == result.witness()][0])

            path = write(tmp_path, f"doc{k}.json", doc)
            code = main(["transform", path, "--to", "mass", "--tol", repr(tol)])
            out = capsys.readouterr().out
            assert code == (2 if result is None else 0)
            if negative:
                mob = bb.mobius_transform(f.values)
                visible = np.flatnonzero(np.abs(mob) > bb.EXACT_TOL)
                flagged = [line.split("}")[0][1:] for line in out.splitlines()
                           if line.endswith("  NEGATIVE")]
                want = np.intersect1d(visible, result.masks)
                assert flagged == beliefbet.cli.subset_keys(f.space.labels, want)

            if pm is None:
                continue
            prob = bb.probability_check(pm, tol=tol)
            try:
                report = bb.belief_consistency_audit(pm, plan, tol=tol)
            except bb.BeliefBetError as exc:
                # only the weight sum of ROADMAP item 1(a), which belief_to_mass
                # raised too; every emitted certificate verifies, at tol 0 too
                assert "too far from 1" in str(exc) and result is None
                continue
            counts["audits"] += 1
            assert result is not None
            assert (report.is_probability, report.probability_witness) == (prob.is_probability, prob.witness)
            if not negative:
                assert report.induced_mass.weights == result.weights
            else:
                assert report.induced_mass.masks.tolist() == result.masks.tolist()
                candidates = [m for m in result.masks.tolist() if m.bit_count() >= 2]
                assert report.certificate.witness.subset == min(
                    candidates, key=lambda m: (m.bit_count(), -m)
                )
                counts["certificates"] += 1
        assert counts["reports"] >= 12 and counts["audits"] >= 6 and counts["certificates"] >= 6
        if tol == 1e-9:
            assert counts["sum_raises"] >= 1

    def test_near_tie_seed_two_disagrees(self):
        """Pins today's answers on the near-tie envelope of seed 2 (n=13):
        is_belief_function passes its induced table, while belief_to_mass and
        the audit reject the clamped weights' sum. ROADMAP item 1's noise
        budget turns this around, and that change records it as a spec
        correction. Its prices are not additive within tol: the witness's
        union is priced more than tol from its outcome sum."""
        pm = near_tie_envelope(2)
        induced = bb.induced_set_function(pm)
        assert pm.space.n == 13
        assert bb.is_belief_function(induced).ok
        prob = bb.probability_check(pm)
        assert not prob.is_probability
        union = prob.witness[0] | prob.witness[1]
        outcomes = [induced.values[1 << i] for i in range(13) if union >> i & 1]
        assert abs(induced.values[union] - math.fsum(outcomes)) > 1e-9
        message = "recovered weights sum to 1.0000002266912253, too far from 1"
        with pytest.raises(bb.BeliefBetError, match=message):
            bb.belief_to_mass(induced)
        with pytest.raises(bb.BeliefBetError, match=message):
            bb.belief_consistency_audit(pm)


ESCAPED_LABELS = ["é", "Ω", 'a"b', "back\\slash", "tab\there", "plain"]


def escaped_space(n):
    return bb.make_space([f"{ESCAPED_LABELS[i % len(ESCAPED_LABELS)]}{i}" for i in range(n)])


class TestMachineRenderer:
    """Machine output is streamed, and must stay what json.dumps(indent=2) writes."""

    @staticmethod
    def machine_runs(tmp_path):
        labels = list(escaped_space(6).labels)
        rng = np.random.default_rng(71)
        rows = rng.uniform(0.05, 1.0, size=(4, 6))
        big = [f"w{i}" for i in range(17)]
        docs = {
            "envelope": {"space": labels, "kind": "lower_envelope",
                         "rows": (rows / rows.sum(axis=1, keepdims=True)).tolist()},
            "choquet": {"space": labels, "kind": "choquet",
                        "mass": {"é0,Ω1": 0.25, 'a"b2': 0.25, ",".join(labels): 0.5}},
            "linear": {"space": labels, "kind": "linear", "prob": [1 / 6] * 6},
            "reference": REFERENCE_MODEL,
            "mass": {"space": labels, "kind": "mass", "mass": {"tab\there4": 0.5, "é0,plain5": 0.5}},
            # 2^17 belief values: more than one streamed chunk
            "wide_mass": {"space": big, "kind": "mass", "mass": {"w3,w16": 0.5, ",".join(big): 0.5}},
            # Moebius weights of -Infinity
            "huge_belief": {"space": ["é", "b"], "kind": "belief",
                            "values": {"": 0, "é": 1e308, "b": 1e308, "é,b": 1}},
        }
        paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
        for name in ("envelope", "choquet", "linear", "reference"):
            yield ["audit", paths[name], "--format", "machine"]
        for name in ("envelope", "choquet", "reference", "huge_belief"):
            for tol in ("1e-9", "0"):
                yield ["transform", paths[name], "--to", "mass", "--format", "machine", "--tol", tol]
        for name in ("choquet", "mass", "wide_mass"):
            yield ["transform", paths[name], "--to", "belief", "--format", "machine"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_outputs_equal_json_dumps(self, tmp_path, capsys):
        listings = 0
        for i, argv in enumerate(self.machine_runs(tmp_path)):
            if i % 2:
                main(argv)
                text = capsys.readouterr().out
            else:
                out = tmp_path / f"out{i}.json"
                main([*argv, "--out", str(out)])
                text = out.read_text(encoding="utf-8")
            doc = json.loads(text)
            assert text == json.dumps(doc, indent=2) + "\n", argv
            listings += sum(isinstance(doc.get(k), dict) and len(doc[k]) > 0
                            for k in ("values", "mass", "mobius", "negative",
                                      "induced_mass", "negative_mass"))
        assert listings >= 20

    def test_every_listing_shape(self):
        sp = escaped_space(3)
        for masks in ([], [5], [0, 3, 7]):
            masks = np.array(masks, dtype=np.int64)
            doc = {"a": [1, {"b": []}], "mass": beliefbet.cli._Listing(sp, masks, -masks / 8.0),
                   "c": {}}
            text = "".join(beliefbet.cli._machine(doc))
            plain = dict(doc, mass={",".join(sp.members(int(m))): -m / 8.0 for m in masks})
            assert text == json.dumps(plain, indent=2) + "\n"

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 24])
    def test_subset_keys_match_members(self, n):
        sp = escaped_space(n)
        rng = np.random.default_rng(n)
        masks = np.concatenate([[0, sp.full_mask], 1 << np.arange(n),
                                rng.integers(0, sp.size, size=300)])
        keys = beliefbet.cli.subset_keys(sp.labels, masks)
        assert keys == [",".join(sp.members(int(m))) for m in masks]
        assert [beliefbet.cli.subset_key(sp, int(m)) for m in masks[:40]] == keys[:40]

    #: Floats whose text is easy to get wrong: JSON's spellings of the
    #: nonfinite values, signed zero, the least subnormal, and values where
    #: repr switches between plain and exponent notation.
    EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-5, 1e16, 1e22, -1.5, 0.1]

    @staticmethod
    def listing_case(n):
        """An n-outcome space whose labels JSON escapes or that hold "%", "{"
        and "}", and a listing on it: the empty set, the full set, every single
        outcome and random masks, ascending, with every edge value (as many
        as there are masks)."""
        stems = [*ESCAPED_LABELS, "%", "{", "}"]
        sp = bb.make_space([f"{stems[i % len(stems)]}{i}" for i in range(n)])
        rng = np.random.default_rng(n)
        masks = np.unique(np.concatenate([[0, sp.full_mask], 1 << np.arange(n),
                                          rng.integers(0, sp.size, size=400)]))
        values = rng.normal(size=masks.size) * 10.0 ** rng.integers(-300, 300, size=masks.size)
        edges = TestMachineRenderer.EDGE_VALUES[: masks.size]
        values[rng.choice(masks.size, size=len(edges), replace=False)] = edges
        return sp, masks, values

    @staticmethod
    def dumped(sp, masks, values):
        """The listing as json.dumps(indent=2) writes it one level down."""
        plain = {",".join(sp.members(int(m))): v for m, v in zip(masks, values.tolist())}
        return json.dumps(plain, indent=2).replace("\n", "\n  ")

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 23, 24])
    def test_listing_text_is_json_dumps(self, n, monkeypatch):
        sp, masks, values = self.listing_case(n)
        listing = beliefbet.cli._Listing(sp, masks, values)
        want = self.dumped(sp, masks, values)
        assert "".join(beliefbet.cli._listing_text(listing)) == want
        # chunks of 7 entries: the first chunk alone opens the block
        monkeypatch.setattr(beliefbet.cli, "_LISTING_CHUNK", 7)
        assert "".join(beliefbet.cli._listing_text(listing)) == want

    def test_listing_text_across_a_full_chunk(self):
        # 2^17 masks: two chunks of _LISTING_CHUNK entries, keys on three bytes
        sp = escaped_space(17)
        masks = np.arange(sp.size)
        values = np.random.default_rng(17).normal(size=sp.size)
        assert masks.size > beliefbet.cli._LISTING_CHUNK
        text = "".join(beliefbet.cli._listing_text(beliefbet.cli._Listing(sp, masks, values)))
        assert text == self.dumped(sp, masks, values)

    @pytest.mark.parametrize("n", [1, 8, 9, 17, 24])
    def test_listing_lines_and_parsed_keys(self, n, monkeypatch):
        # human listings against the per-line rendering they replaced: one
        # f-string per entry, "  NEGATIVE" appended to the flagged ones, and
        # the lines joined with newlines
        sp, masks, values = self.listing_case(n)
        listing = beliefbet.cli._Listing(sp, masks, values)
        keys = [",".join(sp.members(int(m))) for m in masks]
        flagged = np.random.default_rng(n).random(masks.size) < 0.3
        flagged[0] = True
        flagged[6:8] = True  # both sides of the boundary of chunks of 7
        for indent in ("", "  "):
            for marks in (None, flagged):
                lines = [f"{indent}{{{k}}}: {beliefbet.cli._fmt(v)}" for k, v in zip(keys, values.tolist())]
                for i in [] if marks is None else np.flatnonzero(marks).tolist():
                    lines[i] += "  NEGATIVE"
                want = "\n".join(lines) + "\n"
                for chunk in (1 << 16, 7):
                    monkeypatch.setattr(beliefbet.cli, "_LISTING_CHUNK", chunk)
                    assert "".join(beliefbet.cli._listing_text(listing, indent, marks)) == want
        assert [beliefbet.cli.parse_subset_key(sp, k) for k in keys] == masks.tolist()

    def test_bad_keys_keep_their_messages(self):
        sp = escaped_space(9)
        first, last = sp.labels[0], sp.labels[-1]
        repeated, unknown, trailing = f"{first},{last},{first}", f"{first},nowhere", f"{last},"
        for key, message in (
            (repeated, f"subset key repeats a label: {repeated!r}"),
            (unknown, f"subset key {unknown!r}: unknown outcome label 'nowhere'"),
            (trailing, f"subset key {trailing!r}: unknown outcome label ''"),
        ):
            with pytest.raises(bb.SchemaError) as caught:
                beliefbet.cli.parse_subset_key(sp, key)
            assert str(caught.value) == message


# ----------------------------------------------------- malformed documents

S3 = ["a", "b", "c"]
WELL_FORMED = {
    "model": {"space": S3, "kind": "linear", "prob": [0.25, 0.25, 0.5]},
    "gambles": {"space": S3, "gambles": [{"payoff": [1, 0, 0]}]},
    "ledger": {"space": S3, "buys": [{"payoff": [1, 0, 0], "price": 0.25}]},
}
#: Every command line that reads a document, with the document under test at
#: "doc" and well-formed companions at "model", "gambles" and "ledger".
READERS = {
    "to-belief": ["transform", "--to", "belief", "doc"],
    "to-belief-machine": ["transform", "--to", "belief", "doc", "--format", "machine"],
    "to-mass": ["transform", "--to", "mass", "doc"],
    "to-mass-machine": ["transform", "--to", "mass", "doc", "--format", "machine"],
    "audit": ["audit", "doc"],
    "price-model": ["price", "doc", "gambles"],
    "price-gambles": ["price", "model", "doc"],
    "dutchbook-model": ["dutchbook", "doc", "ledger"],
    "dutchbook-ledger": ["dutchbook", "model", "doc"],
}
MASS_READERS = ("to-belief", "to-belief-machine")
BELIEF_READERS = ("to-mass", "to-mass-machine")
MODEL_COMMANDS = ("audit", "price-model", "dutchbook-model")
MODEL_READERS = BELIEF_READERS + MODEL_COMMANDS
CHOQUET_READERS = MASS_READERS + MODEL_READERS
NO_FILE = object()
HUGE = 10**400  # an integer JSON reads exactly and a float cannot hold


def json_error(raw):
    try:
        json.loads(raw)
    except (ValueError, RecursionError) as exc:
        return "schema error: {path} is not valid JSON: " + str(exc)
    raise AssertionError("the text is valid JSON")


def linear(prob):
    return {"space": S3, "kind": "linear", "prob": prob}


def envelope(rows):
    return {"space": S3, "kind": "lower_envelope", "rows": rows}


def choquet(mass):
    return {"space": S3, "kind": "choquet", "mass": mass}


def belief(values):
    return {"space": S3, "kind": "belief", "values": values}


def gambles(payload):
    return {"space": S3, "gambles": payload}


def ledger(**sides):
    return {"space": S3, **sides}


FULL_BELIEF = {"": 0, "a": 0.25, "b": 0.25, "c": 0.5, "a,b": 0.5, "a,c": 0.75, "b,c": 0.75, "a,b,c": 1}
UNDECODABLE = b'{"space": ["\xff"]}'
TOO_LONG = '{"space": ' + "1" * 5000 + "}"
TOO_DEEP = '{"space": ' + "[" * 100_000 + "]" * 100_000 + "}"
SPACE_MISMATCH = {"space": ["x", "y", "z"]}

# (id, command lines, document, stderr after "beliefbet: "); "escape-" cases
# used to leave main() as a traceback.
MALFORMED = [
    ("missing-file", tuple(READERS), NO_FILE,
     "schema error: cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ("not-json", tuple(READERS), b"not json {", json_error(b"not json {")),
    ("top-level-list", tuple(READERS), [1, 2], "schema error: {path}: top level must be an object"),
    ("escape-undecodable", tuple(READERS), UNDECODABLE, json_error(UNDECODABLE)),
    ("escape-too-long", tuple(READERS), TOO_LONG.encode(), json_error(TOO_LONG)),
    ("escape-too-deep", tuple(READERS), TOO_DEEP.encode(), json_error(TOO_DEEP)),
    ("no-space", tuple(READERS), {"kind": "linear"},
     "schema error: field 'space' must be a nonempty list of labels"),
    ("empty-space", tuple(READERS), {"space": []},
     "schema error: field 'space' must be a nonempty list of labels"),
    ("label-not-string", tuple(READERS), {"space": ["a", 1]},
     "schema error: outcome labels must be nonempty strings, got 1"),
    ("empty-label", tuple(READERS), {"space": [""]},
     "schema error: outcome labels must be nonempty strings, got ''"),
    ("comma-label", tuple(READERS), {"space": ["a,b"]},
     "schema error: outcome labels cannot contain commas: 'a,b'"),
    ("repeated-label", tuple(READERS), {"space": ["a", "a"]},
     "schema error: outcome labels must be distinct: ('a', 'a')"),
    ("too-many-outcomes", tuple(READERS), {"space": [f"o{i}" for i in range(25)]},
     "schema error: need between 1 and 24 outcomes, got 25"),
    # models
    ("unknown-kind", MODEL_COMMANDS, {"space": S3, "kind": "mystery"},
     "schema error: model kind must be one of ('linear', 'choquet', 'lower_envelope'), got 'mystery'"),
    ("mass-as-model", MODEL_COMMANDS, {"space": S3, "kind": "mass", "mass": {"a": 1}},
     "schema error: model kind must be one of ('linear', 'choquet', 'lower_envelope'), got 'mass'"),
    ("unknown-kind-to-mass", BELIEF_READERS, {"space": S3, "kind": "mystery"},
     "schema error: direction 'mass' needs a belief table or model document, got kind 'mystery'"),
    ("model-to-belief", MASS_READERS, linear([0.25, 0.25, 0.5]),
     "schema error: direction 'belief' needs a mass or choquet document, got kind 'linear'"),
    ("no-prob", MODEL_READERS, {"space": S3, "kind": "linear"},
     "schema error: prob must be a list of numbers"),
    ("prob-text", MODEL_READERS, linear([0.5, "x", 0.5]), "schema error: prob must be a number, got 'x'"),
    ("prob-bool", MODEL_READERS, linear([True, 0, 0]), "schema error: prob must be a number, got True"),
    ("prob-short", MODEL_READERS, linear([0.5, 0.5]), "schema error: need 3 probabilities, got shape (2,)"),
    ("prob-negative", MODEL_READERS, linear([-0.5, 1, 0.5]),
     "schema error: probability vector must be nonnegative"),
    ("prob-sum", MODEL_READERS, linear([0.25, 0.25, 0.25]),
     "schema error: probability vector must sum to 1, got 0.75"),
    ("prob-infinite", MODEL_READERS, linear([math.inf, 0, 0]),
     "schema error: probability vector must be finite"),
    ("escape-prob-huge", MODEL_READERS, linear([HUGE, 0, 0]),
     "schema error: prob must be a number in float range"),
    ("no-rows", MODEL_READERS, {"space": S3, "kind": "lower_envelope"},
     "schema error: field 'rows' must be a nonempty list of probability vectors"),
    ("empty-rows", MODEL_READERS, envelope([]),
     "schema error: field 'rows' must be a nonempty list of probability vectors"),
    ("row-not-list", MODEL_READERS, envelope([0.5]), "schema error: row must be a list of numbers"),
    ("row-short", MODEL_READERS, envelope([[0.5, 0.5]]),
     "schema error: need a nonempty (k, 3) row matrix, got shape (1, 2)"),
    ("row-sum", MODEL_READERS, envelope([[0.5, 0.5, 0], [0.5, 0.5, 0.5]]),
     "schema error: row 1 must sum to 1, got 1.5"),
    ("escape-row-huge", MODEL_READERS, envelope([[0.5, 0.5, 0], [HUGE, 0, 0]]),
     "schema error: row must be a number in float range"),
    ("escape-ragged-rows", MODEL_READERS, envelope([[0.5, 0.5, 0], [1, 0]]),
     "schema error: need a nonempty (k, 3) row matrix, got ragged or non-numeric rows"),
    # mass documents and Choquet models
    ("no-mass", CHOQUET_READERS, {"space": S3, "kind": "choquet"},
     "schema error: field 'mass' must be a nonempty object of subset keys to weights"),
    ("empty-mass", CHOQUET_READERS, choquet({}),
     "schema error: field 'mass' must be a nonempty object of subset keys to weights"),
    ("mass-list", MASS_READERS, {"space": S3, "kind": "mass", "mass": [1]},
     "schema error: field 'mass' must be a nonempty object of subset keys to weights"),
    ("mass-unknown-label", CHOQUET_READERS, choquet({"a,d": 1}),
     "schema error: subset key 'a,d': unknown outcome label 'd'"),
    ("mass-repeated-label", CHOQUET_READERS, choquet({"a,a": 1}),
     "schema error: subset key repeats a label: 'a,a'"),
    ("mass-listed-twice", CHOQUET_READERS, choquet({"a,b": 0.5, "b,a": 0.5}),
     "schema error: subset 'b,a' listed twice"),
    ("mass-text", CHOQUET_READERS, choquet({"a": "x"}), "schema error: mass['a'] must be a number, got 'x'"),
    ("mass-empty-set", CHOQUET_READERS, choquet({"": 0.5, "a": 0.5}),
     "schema error: the empty set cannot carry mass"),
    ("mass-zero", CHOQUET_READERS, choquet({"a": 0, "b": 1}),
     "schema error: focal weights must be positive, got 0.0 on mask 1"),
    ("mass-sum", CHOQUET_READERS, choquet({"a": 0.25, "b": 0.25}),
     "schema error: focal weights must sum to 1, got 0.5"),
    ("escape-mass-huge", CHOQUET_READERS, choquet({"a": HUGE}),
     "schema error: mass['a'] must be a number in float range"),
    # belief tables
    ("no-values", BELIEF_READERS, {"space": S3, "kind": "belief"},
     "schema error: field 'values' must be an object of subset keys to numbers"),
    ("values-partial", BELIEF_READERS, belief({"": 0, "a,b,c": 1}),
     "schema error: 'values' must cover all 8 subsets, got 2"),
    ("values-unknown-label", BELIEF_READERS, belief({**FULL_BELIEF, "d": 0}),
     "schema error: subset key 'd': unknown outcome label 'd'"),
    ("values-listed-twice", BELIEF_READERS, belief({**FULL_BELIEF, "b,a": 0.5}),
     "schema error: subset 'b,a' listed twice"),
    ("values-text", BELIEF_READERS, belief({**FULL_BELIEF, "a": "x"}),
     "schema error: values['a'] must be a number, got 'x'"),
    ("values-infinite", BELIEF_READERS, belief({**FULL_BELIEF, "a": math.inf}),
     "schema error: set function values must be finite"),
    ("escape-values-huge", BELIEF_READERS, belief({**FULL_BELIEF, "a": HUGE}),
     "schema error: values['a'] must be a number in float range"),
    ("values-endpoint", BELIEF_READERS, belief({**FULL_BELIEF, "a,b,c": 0.9}),
     "endpoint axiom violation: endpoints must be 0 and 1, got 0.0 and 0.9"),
    # gambles
    ("no-gambles", ("price-gambles",), {"space": S3},
     "schema error: field 'gambles' must be a nonempty list"),
    ("gamble-not-object", ("price-gambles",), gambles([[1, 0, 0]]),
     "schema error: each gamble must be an object with a 'payoff' field"),
    ("gamble-name", ("price-gambles",), gambles([{"name": 3, "payoff": [1, 0, 0]}]),
     "schema error: gamble name must be a string, got 3"),
    ("gamble-no-payoff", ("price-gambles",), gambles([{"name": "g"}]),
     "schema error: payoff of g must be a list of numbers"),
    ("gamble-short", ("price-gambles",), gambles([{"payoff": [1, 0]}]),
     "schema error: need 3 payoffs, got shape (2,)"),
    ("gamble-infinite", ("price-gambles",), gambles([{"payoff": [1, -math.inf, 0]}]),
     "schema error: payoffs must be finite"),
    ("escape-gamble-huge", ("price-gambles",), gambles([{"payoff": [1, HUGE, 0]}]),
     "schema error: payoff of g1 must be a number in float range"),
    ("gamble-space", ("price-gambles",), {**SPACE_MISMATCH, "gambles": [{"payoff": [1, 0, 0]}]},
     "schema error: model and gamble documents use different spaces"),
    # ledgers
    ("buys-not-list", ("dutchbook-ledger",), ledger(buys={}), "schema error: field 'buys' must be a list"),
    ("buy-no-price", ("dutchbook-ledger",), ledger(buys=[{"payoff": [1, 0, 0]}]),
     "schema error: each buys entry needs 'payoff' and 'price' fields"),
    ("sell-not-object", ("dutchbook-ledger",), ledger(sells=[1]),
     "schema error: each sells entry needs 'payoff' and 'price' fields"),
    ("buy-payoff-text", ("dutchbook-ledger",), ledger(buys=[{"payoff": "x", "price": 0}]),
     "schema error: buys payoff must be a list of numbers"),
    ("sell-price-text", ("dutchbook-ledger",), ledger(sells=[{"payoff": [1, 0, 0], "price": "x"}]),
     "schema error: sells price must be a number, got 'x'"),
    ("buy-short", ("dutchbook-ledger",), ledger(buys=[{"payoff": [1, 0], "price": 0}]),
     "schema error: need 3 payoffs, got shape (2,)"),
    ("no-transactions", ("dutchbook-ledger",), ledger(buys=[], sells=[]),
     "schema error: a ledger needs at least one transaction"),
    ("price-infinite", ("dutchbook-ledger",), ledger(buys=[{"payoff": [1, 0, 0], "price": math.inf}]),
     "schema error: ledger prices must be finite"),
    ("escape-price-huge", ("dutchbook-ledger",), ledger(sells=[{"payoff": [1, 0, 0], "price": -HUGE}]),
     "schema error: sells price must be a number in float range"),
    ("ledger-space", ("dutchbook-ledger",), {**SPACE_MISMATCH, "buys": [{"payoff": [1, 0, 0], "price": 0}]},
     "schema error: model and ledger documents use different spaces"),
]


def malformed_runs():
    for case, readers, doc, stderr in MALFORMED:
        for reader in readers:
            yield pytest.param(reader, doc, stderr, id=f"{case}-{reader}")


class TestMalformedDocuments:
    """Every malformed document exits 2 (3 for a belief table's endpoints)
    with one stderr line, whichever command reads it."""

    @staticmethod
    def argv(tmp_path, reader, doc):
        paths = {role: write(tmp_path, f"{role}.json", good) for role, good in WELL_FORMED.items()}
        paths["doc"] = str(tmp_path / "doc.json")
        if doc is not NO_FILE:
            raw = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
            (tmp_path / "doc.json").write_bytes(raw)
        return [paths.get(arg, arg) for arg in READERS[reader]], paths["doc"]

    @pytest.mark.parametrize("reader, doc, stderr", malformed_runs())
    def test_exit_code_and_message(self, tmp_path, capsys, reader, doc, stderr):
        argv, path = self.argv(tmp_path, reader, doc)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3 if stderr.startswith("endpoint") else 2, "")
        assert captured.err == "beliefbet: " + stderr.replace("{path}", path) + "\n"

    @pytest.mark.parametrize("reader, doc", [
        ("to-mass", choquet({"a": 0.5, "a,b,c": 0.5})),
        ("to-belief-machine", choquet({"a": 0.5, "a,b,c": 0.5})),
        # the --out check fails before the audit could reach its exit 1 verdict
        ("audit", envelope([[0.5, 0.5, 0], [0, 0, 1]])),
        ("price-gambles", WELL_FORMED["gambles"]),
        ("dutchbook-ledger", WELL_FORMED["ledger"]),
    ])
    def test_unwritable_out(self, tmp_path, capsys, reader, doc):
        argv, _ = self.argv(tmp_path, reader, doc)
        out = str(tmp_path / "missing" / "out.json")
        with pytest.raises(OSError) as exc:
            open(out, "w")
        assert main(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"beliefbet: schema error: cannot write {out}: {exc.value}\n"

    @pytest.mark.parametrize("name", ["missing/out.json", "."])
    def test_unwritable_out_is_found_before_the_audit(self, tmp_path, capsys, monkeypatch, name):
        calls, audit = [], beliefbet.cli.belief_consistency_audit
        monkeypatch.setattr(beliefbet.cli, "belief_consistency_audit",
                            lambda *a, **k: calls.append(a) or audit(*a, **k))
        argv, _ = self.argv(tmp_path, "audit", WELL_FORMED["model"])
        out = str(tmp_path / name)
        assert main(argv + ["--out", out]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith(f"beliefbet: schema error: cannot write {out}: ")

    def test_failing_command_leaves_out_as_it_was(self, tmp_path, capsys):
        argv, _ = self.argv(tmp_path, "audit", {"space": S3, "kind": "bogus"})
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("earlier output\n")
        for out in (fresh, kept):
            assert main(argv + ["--out", str(out)]) == 2
        assert not fresh.exists()
        assert kept.read_text() == "earlier output\n"
        assert capsys.readouterr().out == ""


MODEL_B = {"space": S3, "kind": "lower_envelope", "rows": [[0.5, 0.5, 0], [0, 0, 1]]}


class TestChoquetGapCertificate:
    """Model B of scripts/audit_demo.py: its indicator prices invert to a mass,
    yet a general gamble is priced above its Choquet value."""

    def test_human_readout(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", MODEL_B)
        assert main(["audit", model]) == 1
        lines = capsys.readouterr().out.splitlines()
        cert = lines.index("certificate (choquet_gap):")
        assert lines[cert + 1].startswith("  gamble (")
        assert ": model price " in lines[cert + 1] and ", choquet price " in lines[cert + 1]
        assert lines[cert + 2].startswith("  xs: (")
        assert "*1_{a,c}" in lines[cert + 3]
        assert lines[-1] == "certificate verified: True"

    def test_machine_report_reverifies(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", MODEL_B)
        assert main(["audit", model, "--format", "machine"]) == 1
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        cert = doc["certificate"]
        assert cert["kind"] == "choquet_gap"
        assert cert["model_price"] > cert["choquet_price"] + cert["buy_gap"] / 2
        assert len(cert["gamble"]["payoff"]) == 3
        # a third party needs only the document and the model
        space = bb.make_space(doc["space"])
        pm = bb.LowerEnvelopeModel(space, np.array(MODEL_B["rows"]))
        side = lambda gs: tuple(bb.Gamble(space, np.array(g["payoff"])) for g in gs)
        witness = beliefbet.audit.ChoquetGapWitness(
            bb.Gamble(space, np.array(cert["gamble"]["payoff"])), cert["model_price"], cert["choquet_price"]
        )
        rebuilt = beliefbet.audit.ViolationCertificate(
            space, side(cert["xs"]), side(cert["ys"]), cert["buy_gap"], witness
        )
        assert beliefbet.audit.verify_certificate(pm, rebuilt)

    def test_consistent_mass_listing(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", MODEL_B)
        assert main(["transform", "--to", "mass", model]) == 0
        assert capsys.readouterr().out == "{a,c}: 0.5\n{b,c}: 0.5\n"
