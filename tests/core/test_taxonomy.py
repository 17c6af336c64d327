"""Tests for the machine-readable taxonomy (Tables I, II, III)."""

import pytest

from repro.core import taxonomy
from repro.core.attacks import ALL_ATTACKS
from repro.core.defenses import ALL_DEFENSES
from repro.core.registry import REGISTRY
from repro.core.taxonomy import (
    MECHANISMS,
    OPEN_CHALLENGES,
    SURVEYS,
    THREATS,
    Asset,
    SecurityAttribute,
)
from repro.experiments import check_catalogue_complete


class TestTableI:
    def test_eight_surveys(self):
        # Table I rows: Isaac 2010, Checkoway 2011, AL-Kahtani 2012,
        # Mejri 2014, Parkinson 2017, Zhaojun 2018, Harkness 2020,
        # Hussain 2020.
        assert len(SURVEYS) == 8

    def test_years_match_paper(self):
        expected = {"isaac2010": 2010, "checkoway2011": 2011,
                    "alkahtani2012": 2012, "mejri2014": 2014,
                    "parkinson2017": 2017, "zhaojun2018": 2018,
                    "harkness2020": 2020}
        for key, year in expected.items():
            assert SURVEYS[key].year == year

    def test_hussain_discusses_no_attacks(self):
        # Table I: "Attacks themselves are not discussed" for Hussain et al.
        assert SURVEYS["hussain2020"].attacks_discussed == ()

    def test_discusses_helper(self):
        assert SURVEYS["mejri2014"].discusses("replay")
        assert not SURVEYS["isaac2010"].discusses("replay")

    def test_every_survey_has_key_points(self):
        assert all(s.key_points for s in SURVEYS.values())


class TestTableII:
    def test_nine_paper_rows_plus_fdi(self):
        # Table II has 9 rows; we add the §V-A insider-FDI umbrella as a
        # clearly-marked tenth entry.
        assert len(THREATS) == 10
        paper_rows = [k for k in THREATS if k != "falsification"]
        assert len(paper_rows) == 9

    @pytest.mark.parametrize("key,attribute", [
        ("sybil", SecurityAttribute.AUTHENTICITY),
        ("fake_maneuver", SecurityAttribute.INTEGRITY),
        ("replay", SecurityAttribute.INTEGRITY),
        ("jamming", SecurityAttribute.AVAILABILITY),
        ("eavesdropping", SecurityAttribute.CONFIDENTIALITY),
        ("dos", SecurityAttribute.AVAILABILITY),
        ("impersonation", SecurityAttribute.INTEGRITY),
        ("sensor_spoofing", SecurityAttribute.AUTHENTICITY),
        ("malware", SecurityAttribute.AVAILABILITY),
    ])
    def test_compromised_attributes_match_paper(self, key, attribute):
        assert attribute in THREATS[key].compromises

    def test_every_threat_has_summary_and_references(self):
        for threat in THREATS.values():
            assert len(threat.summary) > 30
            assert threat.references

    def test_sensor_row_covers_both_attack_impls(self):
        assert set(THREATS["sensor_spoofing"].attack_impls) == \
            {"sensor_spoofing", "gps_spoofing"}

    def test_targets_are_assets(self):
        for threat in THREATS.values():
            assert all(isinstance(t, Asset) for t in threat.targets)


class TestTableIII:
    def test_five_paper_rows_plus_trust(self):
        assert len(MECHANISMS) == 6
        assert "trust_management" in MECHANISMS  # marked extension

    @pytest.mark.parametrize("key,targets", [
        ("secret_public_keys", {"eavesdropping", "fake_maneuver", "replay"}),
        ("roadside_units", {"impersonation", "fake_maneuver"}),
        ("control_algorithms", {"dos", "sybil", "replay", "fake_maneuver"}),
        ("hybrid_communications", {"jamming", "sybil", "replay",
                                   "fake_maneuver"}),
        ("onboard_security", {"malware", "sensor_spoofing"}),
    ])
    def test_attack_targets_match_paper(self, key, targets):
        assert set(MECHANISMS[key].attack_targets) == targets

    def test_every_mechanism_has_open_challenge(self):
        assert all(m.open_challenge for m in MECHANISMS.values())

    def test_open_challenges_list(self):
        keys = [c[0] for c in OPEN_CHALLENGES]
        assert keys == ["variety_of_attacks", "privacy", "trust",
                        "risk_assessment", "testbeds"]


class TestRegistry:
    def test_taxonomy_fully_backed_by_code(self):
        assert check_catalogue_complete() == []

    def test_defense_registry_covers_all_table3_impls(self):
        table3_impls = {impl for m in MECHANISMS.values()
                        for impl in m.defense_impls}
        assert table3_impls <= set(REGISTRY.keys("defense"))
        # Extensions are catalogued separately, not as Table III rows.
        extension_names = set(taxonomy.EXTENSION_DEFENSES)
        assert extension_names <= {cls.name for cls in ALL_DEFENSES}
        assert not extension_names & table3_impls

    def test_attack_classes_declare_matching_attributes(self):
        # Every attack's declared `compromises` is consistent with the
        # attribute set of the threat row(s) that reference it.
        by_name = {cls.name: cls for cls in ALL_ATTACKS}
        for threat in THREATS.values():
            attrs = {a.value for a in threat.compromises}
            for impl in threat.attack_impls:
                declared = set(by_name[impl].compromises)
                assert declared & attrs, (
                    f"{impl} declares {declared}, row expects {attrs}")

    def test_attack_and_defense_counts(self):
        # 11 single-platoon Table II attacks + 3 cross-platoon highway
        # attacks (multi_sybil, merge_jamming, tail_platoon).
        assert len(ALL_ATTACKS) == 14
        # 9 Table III implementations + 2 open-challenge extensions.
        assert len(ALL_DEFENSES) == 11
        assert len(taxonomy.EXTENSION_DEFENSES) == 2
