"""Machine-readable taxonomy: the paper's Tables I, II and III.

This module is the canonical data behind the survey.  Each entry carries
the text content of the corresponding table row *and* the registry keys
of the code that implements it, so the reproduction is checkable:
:func:`repro.experiments.check_catalogue_complete` verifies that every
row names registered attacks or defences and that every registered
component is catalogued.

* :data:`SURVEYS` -- Table I, the seven related surveys with the attacks
  each discusses.
* :data:`THREATS` -- Table II, the nine platoon threats with compromised
  attributes, targeted assets and expected effects.
* :data:`MECHANISMS` -- Table III, the five mechanism families plus the
  open challenge each leaves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SecurityAttribute(enum.Enum):
    """The cryptography-derived attack classification of §IV ([11], [22])."""

    AUTHENTICITY = "authenticity"
    INTEGRITY = "integrity"
    AVAILABILITY = "availability"
    CONFIDENTIALITY = "confidentiality"
    NON_REPUDIATION = "non_repudiation"


class Asset(enum.Enum):
    """Network assets identified in §IV."""

    LEADER = "leader"
    MEMBER = "member"
    JOIN_LEAVE = "join_leave"
    RSU = "rsu"
    TRUSTED_AUTHORITY = "trusted_authority"
    V2V_LINK = "v2v_link"
    V2I_LINK = "v2i_link"
    SENSORS = "sensors"
    ONBOARD_COMPUTER = "onboard_computer"


# --------------------------------------------------------------------------
# Table I -- related surveys
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SurveyEntry:
    """One row of Table I."""

    key: str
    authors: str
    year: int
    reference: str
    key_points: str
    attacks_discussed: tuple

    def discusses(self, attack: str) -> bool:
        return attack in self.attacks_discussed


SURVEYS: dict[str, SurveyEntry] = {
    entry.key: entry for entry in [
        SurveyEntry(
            key="isaac2010",
            authors="Isaac et al.", year=2010, reference="[18]",
            key_points=("Detailed discussion of attacks; structures attacks and "
                        "mechanisms by cryptography-related classification: "
                        "anonymity, key management, privacy, reputation, location."),
            attacks_discussed=("brute_force", "misbehaving_vehicles",
                               "traffic_analysis", "illusion", "position_forging",
                               "sybil")),
        SurveyEntry(
            key="checkoway2011",
            authors="Checkoway et al.", year=2011, reference="[21]",
            key_points=("Attack-surface investigation of a real vehicle; classifies "
                        "by attacker range: indirect physical, short-range "
                        "wireless, long-range wireless."),
            attacks_discussed=("media_infection", "bluetooth", "remote_keyless",
                               "cellular", "tpms", "malware")),
        SurveyEntry(
            key="alkahtani2012",
            authors="AL-Kahtani et al.", year=2012, reference="[12]",
            key_points=("Variety of VANET attacks with protection methods, mapped "
                        "to the security requirement each breaks: data integrity, "
                        "authentication, availability, confidentiality."),
            attacks_discussed=("bogus_information", "dos", "masquerading",
                               "blackhole", "malware", "spamming", "timing",
                               "gps_spoofing", "man_in_the_middle", "sybil",
                               "wormhole", "illusion", "impersonation")),
        SurveyEntry(
            key="mejri2014",
            authors="Mejri et al.", year=2014, reference="[22]",
            key_points=("VANET security/privacy challenges grouped by broken "
                        "attribute: availability, authenticity, confidentiality, "
                        "integrity, non-repudiation."),
            attacks_discussed=("dos", "jamming", "greedy_behaviour", "malware",
                               "broadcast_tampering", "blackhole", "spamming",
                               "eavesdropping", "sybil", "gps_spoofing",
                               "masquerade", "replay", "tunneling",
                               "key_replication", "position_faking",
                               "message_alteration", "information_gathering",
                               "traffic_analysis", "loss_of_traceability")),
        SurveyEntry(
            key="parkinson2017",
            authors="Parkinson et al.", year=2017, reference="[13]",
            key_points=("Wide-ranging CAV and platoon threats, structured by "
                        "threats to vehicles, human aspects and infrastructure."),
            attacks_discussed=("sensor_spoofing", "jamming", "dos", "malware",
                               "fdi_can", "tpms", "information_theft",
                               "location_tracking", "bad_driver",
                               "communication_jamming", "password_key",
                               "phishing", "rogue_updates")),
        SurveyEntry(
            key="zhaojun2018",
            authors="Zhaojun et al.", year=2018, reference="[11]",
            key_points=("In-depth VANET security and privacy: attacks and "
                        "mechanisms grouped by availability, authenticity, "
                        "confidentiality, integrity, non-repudiation."),
            attacks_discussed=("dos", "jamming", "malware", "broadcast_tampering",
                               "blackhole", "greedy_behaviour", "spamming",
                               "eavesdropping", "traffic_analysis", "sybil",
                               "tunneling", "gps_spoofing", "freeriding",
                               "message_falsification", "masquerade", "replay",
                               "repudiation")),
        SurveyEntry(
            key="harkness2020",
            authors="Harkness et al.", year=2020, reference="[19]",
            key_points=("Security of ITS networks and CAV infrastructure with "
                        "risk-assessment-driven recommendations for test beds."),
            attacks_discussed=("sensor_spoofing", "jamming", "information_theft",
                               "eavesdropping", "malware")),
        SurveyEntry(
            key="hussain2020",
            authors="Hussain et al.", year=2020, reference="[20]",
            key_points=("Trust management in VANETs; open research questions; "
                        "discusses REPLACE, a trust-based platoon service "
                        "recommendation scheme."),
            attacks_discussed=()),
    ]
}


# --------------------------------------------------------------------------
# Table II -- threats to platoons
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreatEntry:
    """One row of Table II, extended with machine-checkable fields.

    ``attack_impl`` names the :class:`repro.core.attack.Attack` subclass
    (by its ``name`` attribute) that implements the threat; ``effects``
    lists the measurable consequences the Table II summary claims, using
    metric names from :class:`repro.core.metrics.ScenarioMetrics`.
    """

    key: str
    display_name: str
    references: str
    compromises: tuple
    targets: tuple
    summary: str
    attack_impls: tuple
    effects: tuple


THREATS: dict[str, ThreatEntry] = {
    entry.key: entry for entry in [
        ThreatEntry(
            key="sybil",
            display_name="Sybil attack", references="[3], [6]",
            compromises=(SecurityAttribute.AUTHENTICITY,),
            targets=(Asset.LEADER, Asset.MEMBER, Asset.RSU),
            summary=("Compromises authentication of the network by an attacker "
                     "within the platoon making ghost vehicles that will try to "
                     "get accepted into the platoon.  Leads to destabilisation "
                     "and prevents members from joining."),
            attack_impls=("sybil", "multi_sybil"),
            effects=("roster_inflation", "joins_rejected")),
        ThreatEntry(
            key="fake_maneuver",
            display_name="Fake Maneuver attack", references="[17], [32]",
            compromises=(SecurityAttribute.INTEGRITY,),
            targets=(Asset.MEMBER, Asset.RSU),
            summary=("Compromises the integrity of the network by creating fake "
                     "manoeuvre requests for members in the platoon.  Destabilises "
                     "and prevents use by breaking the platoon into smaller "
                     "platoons or creating entrance gaps for nonexistent vehicles. "
                     "Members can also be removed."),
            attack_impls=("fake_maneuver",),
            effects=("gap_open_time_s", "platoon_fragments", "members_remaining")),
        ThreatEntry(
            key="replay",
            display_name="Replay", references="[2], [10]",
            compromises=(SecurityAttribute.INTEGRITY,),
            targets=(Asset.LEADER, Asset.MEMBER, Asset.JOIN_LEAVE, Asset.RSU),
            summary=("Compromises the integrity of the network as an attacker "
                     "replays old messages into the network.  Makes the platoon "
                     "unstable as members receive conflicting information."),
            attack_impls=("replay",),
            effects=("mean_abs_spacing_error", "gap_open_time_s", "rms_jerk")),
        ThreatEntry(
            key="jamming",
            display_name="Jamming", references="[2]",
            compromises=(SecurityAttribute.AVAILABILITY,),
            targets=(Asset.V2V_LINK, Asset.V2I_LINK),
            summary=("Compromises the availability of the network as an attacker "
                     "seeks to prevent all communications on platoon frequencies "
                     "in the local area.  As platoon members can no longer "
                     "communicate it will disband."),
            attack_impls=("jamming", "merge_jamming"),
            effects=("degraded_fraction", "disbands", "mac_drop_ratio")),
        ThreatEntry(
            key="eavesdropping",
            display_name="Eavesdropping", references="[34]",
            compromises=(SecurityAttribute.CONFIDENTIALITY,),
            targets=(Asset.V2V_LINK, Asset.V2I_LINK),
            summary=("Compromises the confidentiality of the network because an "
                     "attacker is able to understand the information transmitted "
                     "within the platoon.  Can lead to data theft and privacy "
                     "violation."),
            attack_impls=("eavesdropping", "tail_platoon"),
            effects=("route_coverage", "vehicles_profiled")),
        ThreatEntry(
            key="dos",
            display_name="Denial Of Service", references="[33]",
            compromises=(SecurityAttribute.AVAILABILITY,),
            targets=(Asset.JOIN_LEAVE, Asset.RSU),
            summary=("Compromises the availability of the network by preventing "
                     "users from joining or creating a platoon."),
            attack_impls=("dos",),
            effects=("joins_dropped", "legit_join_succeeded")),
        ThreatEntry(
            key="impersonation",
            display_name="Impersonation", references="[6]",
            compromises=(SecurityAttribute.INTEGRITY,
                         SecurityAttribute.CONFIDENTIALITY),
            targets=(Asset.LEADER, Asset.MEMBER, Asset.RSU,
                     Asset.TRUSTED_AUTHORITY),
            summary=("Compromises the integrity of the network by an attacker "
                     "posing as a different individual in the network.  Leads to "
                     "false representation and reputation damage."),
            attack_impls=("impersonation",),
            effects=("victim_expelled", "members_remaining")),
        ThreatEntry(
            key="sensor_spoofing",
            display_name="Jamming and Spoofing Sensors", references="[13], [31]",
            compromises=(SecurityAttribute.AUTHENTICITY,
                         SecurityAttribute.AVAILABILITY),
            targets=(Asset.SENSORS,),
            summary=("Compromises authenticity and availability of sensors, "
                     "using malware or directly attacking the sensor, which "
                     "will lead to false sensing."),
            attack_impls=("sensor_spoofing", "gps_spoofing"),
            effects=("tpms_warnings", "final_position_error_m")),
        ThreatEntry(
            key="malware",
            display_name="Malware", references="[6], [13]",
            compromises=(SecurityAttribute.AVAILABILITY,),
            targets=(Asset.ONBOARD_COMPUTER, Asset.RSU, Asset.TRUSTED_AUTHORITY),
            summary=("Compromises the availability of the network by preventing "
                     "users from being able to platoon.  Malware can also carry "
                     "out other attacks such as data theft, sensor spoofing and "
                     "DoS attacks on the vehicle itself."),
            attack_impls=("malware",),
            effects=("infections", "exfiltrated_records", "degraded_fraction")),
        # §V-A umbrella: insider FDI is catalogued by the paper's text even
        # though Table II folds it into the replay/Sybil/manoeuvre rows.
        ThreatEntry(
            key="falsification",
            display_name="False Data Injection (insider)", references="§V-A",
            compromises=(SecurityAttribute.INTEGRITY,),
            targets=(Asset.MEMBER, Asset.V2V_LINK),
            summary=("An attacker that is part of the platoon deliberately "
                     "transmits false or misleading information; members react "
                     "believing it comes from a legitimate source."),
            attack_impls=("falsification",),
            effects=("mean_abs_spacing_error", "fuel_proxy")),
    ]
}


# --------------------------------------------------------------------------
# Table III -- security mechanisms and open challenges
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MechanismEntry:
    """One row of Table III."""

    key: str
    display_name: str
    attack_targets: tuple          # threat keys this mechanism mitigates
    open_challenge: str
    defense_impls: tuple           # Defense.name values implementing it


MECHANISMS: dict[str, MechanismEntry] = {
    entry.key: entry for entry in [
        MechanismEntry(
            key="secret_public_keys",
            display_name="Secret and Public Keys",
            attack_targets=("eavesdropping", "fake_maneuver", "replay"),
            open_challenge=("Large scale testing of current methods of key "
                            "creation and distribution to compare effectiveness "
                            "against the cost."),
            defense_impls=("group_key_auth", "pki_signatures", "freshness")),
        MechanismEntry(
            key="roadside_units",
            display_name="Roadside Units (RSU)",
            attack_targets=("impersonation", "fake_maneuver"),
            open_challenge=("More research into RSU network security and "
                            "identification of rogue RSUs."),
            defense_impls=("rsu_key_distribution",)),
        MechanismEntry(
            key="control_algorithms",
            display_name="Control Algorithms",
            attack_targets=("dos", "sybil", "replay", "fake_maneuver"),
            open_challenge=("Where in the network is the most efficient place "
                            "to deploy and use the algorithms."),
            defense_impls=("vpd_ada", "resilient_control")),
        MechanismEntry(
            key="hybrid_communications",
            display_name="Hybrid Communications",
            attack_targets=("jamming", "sybil", "replay", "fake_maneuver"),
            open_challenge=("The use of VLC and wireless radio communications "
                            "between V2I is lacking."),
            defense_impls=("hybrid_vlc",)),
        MechanismEntry(
            key="onboard_security",
            display_name="Securing Onboard Systems",
            attack_targets=("malware", "sensor_spoofing"),
            open_challenge=("Most effective means to deploy such security "
                            "measures without affecting response."),
            defense_impls=("onboard_hardening",)),
        # §VI-B.3: trust management is an open challenge the paper discusses
        # at length (REPLACE [6]); included as a sixth, clearly-marked row.
        MechanismEntry(
            key="trust_management",
            display_name="Trust Management (open challenge, REPLACE [6])",
            attack_targets=("sybil", "impersonation", "falsification"),
            open_challenge=("How trust can be integrated within platoons is "
                            "largely missing from the literature."),
            defense_impls=("trust_management",)),
    ]
}


# Defence implementations that address *open challenges* rather than a
# Table III row: witness-based join verification (Convoy [4], the §VII
# "witness systems" pointer, countering Sybil/ghost joins) and random
# pseudonym updates (§III refs [25]-[27], the §VI-B.2 privacy challenge).
# The completeness check accepts these as catalogued extensions.
EXTENSION_DEFENSES: dict[str, str] = {
    "witness_join": ("Physical context verification of joins "
                     "(Convoy [4]); counters sybil, dos"),
    "pseudonym_rotation": ("Random pseudonym updates ([25]-[27]); counters "
                           "eavesdropping-based tracking"),
}


OPEN_CHALLENGES: tuple = (
    ("variety_of_attacks", "Variety of Attacks on Vehicular Platoons",
     "The scope of attacks studied specifically for platoons is minimal; "
     "new attacks appear over time and platoons must be tested against them."),
    ("privacy", "Ensuring Privacy in Vehicular Platoons",
     "Wireless sharing exposes messages to eavesdroppers; members' "
     "credentials and information must stay confidential."),
    ("trust", "Maintaining Trust in Vehicular Platoons",
     "Members must evaluate message authenticity in a brief period of time; "
     "failure has drastic impact."),
    ("risk_assessment", "Suitable Risk Assessment Framework",
     "How SAE J3061 / ISO/SAE 21434 apply to platoons to rank attacks by "
     "risk is unresolved."),
    ("testbeds", "Lack of Suitable Real World Testbeds",
     "Simulation platforms (Plexe, VENTOS) give insight but results are not "
     "always realistic; real-world validation remains costly."),
)
