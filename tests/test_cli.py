"""End-to-end command line behavior: schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

import beliefbet as bb
import beliefbet.audit
import beliefbet.cli
import beliefbet.setfn
from beliefbet.cli import main


REFERENCE_MODEL = {
    "space": ["1", "2", "3", "4"],
    "kind": "lower_envelope",
    "rows": [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]],
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
        assert doc["input"]["sha256"]
        assert doc["tool"]["name"] == "beliefbet"

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

    def test_negative_seed_exits_two(self, commands, capsys):
        assert main(commands["audit"] + ["--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err


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

        for module in (beliefbet.setfn, beliefbet.audit, beliefbet.cli):
            monkeypatch.setattr(module, "mobius_transform", counting)
        return calls

    def test_one_pass_per_audit(self, mobius_calls):
        sp = bb.make_space(REFERENCE_MODEL["space"])
        consistent = bb.ChoquetModel(bb.MassFunction(sp, {0b0011: 0.4, 0b1110: 0.6}))
        negative = bb.LowerEnvelopeModel(sp, np.array(REFERENCE_MODEL["rows"]))
        for pm, verdict in ((consistent, True), (negative, False)):
            mobius_calls.clear()
            assert bb.belief_consistency_audit(pm).is_belief_consistent is verdict
            assert len(mobius_calls) == 1

    def test_one_pass_per_transform_to_mass(self, tmp_path, capsys, mobius_calls):
        path = write(tmp_path, "model.json", REFERENCE_MODEL)
        assert main(["transform", path, "--to", "mass"]) == 0
        assert len(mobius_calls) == 1


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
