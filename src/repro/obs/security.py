"""Security-verdict telemetry: every detector decision as an observable.

The paper's open-challenges section notes that platoon defences are
evaluated by attack *impact* and almost never by detection *quality* --
a defence that silently passes forged beacons scores the same as one
that flags them, as long as the platoon survives.  This module closes
that blind spot: every accept/flag/drop decision a defence mechanism
makes becomes a typed :class:`DetectionEvent`, and a per-episode
:class:`DetectionLedger` aggregates them into detection-quality metrics
(flag rate, TPR/FPR against ground-truth attack provenance,
time-to-first-flag, missed injections) that ride the episode record,
the run log and the HTML report.

Verdict semantics
-----------------
``accept``
    the mechanism examined a message/claim and passed it through;
``flag``
    the mechanism raised an alarm without blocking anything (VPD
    anomaly emissions, trust expulsions, fusion-anomaly detections);
``drop``
    the mechanism blocked the message/claim (stale beacon rejected,
    bad signature, unwitnessed join refused).

``flag`` and ``drop`` both count as *flagged* for the quality metrics:
either way the defence noticed.

Ground truth
------------
The ``tainted`` bit on each event is attack provenance, derived from the
scenario's ``tainted_identities`` set (attacks register the identities
whose traffic they forge, replay or spoof; detectors never read it).
True-positive rate is flagged-tainted over all tainted verdicts;
false-positive rate is flagged-clean over all clean verdicts; a *missed
injection* is a tainted identity a mechanism observed but never flagged.

Determinism
-----------
Everything here is derived from simulator state only (simulation time,
message identities) -- no wall clocks, no pids -- so ledgers, their
summaries and the trace verdict records are byte-identical across
kernels, worker counts and with or without a result store, the same
contract the trace layer pins for episode bodies.  The ledger's aggregate counts cover
*every* decision; the per-event retention for the trace is capped at
:data:`TRACE_VERDICT_CAP` records per (mechanism, verdict) pair --
deterministically the first N in simulation order -- so a 90 s episode
with ~50k accept decisions still traces in the tens of kilobytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

#: Verdict kinds, in canonical order.
VERDICTS = ("accept", "flag", "drop")

#: Schema tag for ledger summaries embedded in episode records.
DETECTION_SCHEMA = 1

#: Most individual verdict records retained for the episode trace per
#: (mechanism, verdict) pair.  Aggregate counts are never capped.
TRACE_VERDICT_CAP = 50

#: Most flag timestamps retained per mechanism for report timelines.
FLAG_TIMES_CAP = 64


@dataclass(frozen=True)
class DetectionEvent:
    """One defence decision: who judged whom, how, and why.

    ``observer`` is the vehicle (or infrastructure node) that made the
    decision, ``subject`` the identity being judged -- usually a message
    sender, sometimes the observer itself (onboard self-checks).
    ``tainted`` is ground-truth attack provenance for the subject at
    emission time, never the detector's own opinion.
    """

    t: float
    mechanism: str
    verdict: str
    reason: str
    observer: str
    subject: str
    message_kind: Optional[str] = None
    tainted: bool = False

    def to_record(self) -> dict:
        """The trace body record (``"type": "verdict"``)."""
        return {"t": self.t, "type": "verdict",
                "mechanism": self.mechanism, "verdict": self.verdict,
                "reason": self.reason, "observer": self.observer,
                "subject": self.subject, "message_kind": self.message_kind,
                "tainted": self.tainted}


class _MechanismTally:
    """Running aggregates for one mechanism (internal)."""

    __slots__ = ("verdicts", "accepts", "flags", "drops", "tainted",
                 "tainted_flagged", "clean_flagged", "first_flag",
                 "reasons", "tainted_seen", "tainted_hit", "flag_times")

    def __init__(self) -> None:
        self.verdicts = 0
        self.accepts = 0
        self.flags = 0
        self.drops = 0
        self.tainted = 0
        self.tainted_flagged = 0
        self.clean_flagged = 0
        self.first_flag: Optional[float] = None
        self.reasons: Dict[str, int] = {}
        self.tainted_seen: Set[str] = set()
        self.tainted_hit: Set[str] = set()
        self.flag_times: List[float] = []


def _rate(part: int, whole: int) -> Optional[float]:
    return round(part / whole, 6) if whole else None


class DetectionLedger:
    """Per-episode aggregation of every defence verdict.

    Defences call :meth:`record` (via ``Defense.verdict``) for each
    decision; the ledger keeps complete per-mechanism counts plus a
    bounded sample of individual events for the trace, and renders the
    detection-quality summary that lands in ``ScenarioMetrics`` and the
    episode record.
    """

    def __init__(self) -> None:
        self._mechanisms: Dict[str, _MechanismTally] = {}
        self._trace_events: List[DetectionEvent] = []
        self._trace_counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------ recording

    def record(self, t: float, mechanism: str, verdict: str, reason: str,
               observer: str, subject: str,
               message_kind: Optional[str] = None,
               tainted: bool = False) -> DetectionEvent:
        """Fold one decision into the ledger; returns the typed event."""
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}; expected one "
                             f"of {VERDICTS}")
        event = DetectionEvent(t=t, mechanism=mechanism, verdict=verdict,
                               reason=reason, observer=observer,
                               subject=subject, message_kind=message_kind,
                               tainted=bool(tainted))
        tally = self._mechanisms.get(mechanism)
        if tally is None:
            tally = self._mechanisms[mechanism] = _MechanismTally()
        tally.verdicts += 1
        flagged = verdict != "accept"
        if verdict == "accept":
            tally.accepts += 1
        elif verdict == "flag":
            tally.flags += 1
        else:
            tally.drops += 1
        if event.tainted:
            tally.tainted += 1
            tally.tainted_seen.add(subject)
            if flagged:
                tally.tainted_flagged += 1
                tally.tainted_hit.add(subject)
        elif flagged:
            tally.clean_flagged += 1
        if flagged:
            if tally.first_flag is None:
                tally.first_flag = t
            if len(tally.flag_times) < FLAG_TIMES_CAP:
                tally.flag_times.append(t)
        tally.reasons[reason] = tally.reasons.get(reason, 0) + 1
        slot = (mechanism, verdict)
        kept = self._trace_counts.get(slot, 0)
        if kept < TRACE_VERDICT_CAP:
            self._trace_counts[slot] = kept + 1
            self._trace_events.append(event)
        return event

    # ------------------------------------------------------------- reading

    @property
    def total_verdicts(self) -> int:
        return sum(t.verdicts for t in self._mechanisms.values())

    def mechanisms(self) -> list:
        """Mechanism keys that produced at least one verdict, sorted."""
        return sorted(self._mechanisms)

    def trace_records(self) -> list[dict]:
        """The retained verdict records, in emission order."""
        return [event.to_record() for event in self._trace_events]

    def summary(self) -> dict:
        """Plain-JSON detection-quality view (the episode-record field).

        Per mechanism and in total: verdict counts by kind, tainted
        splits, flag rate, TPR/FPR (``None`` without tainted/clean
        traffic to score against), time-to-first-flag (simulation
        seconds, ``None`` when nothing was flagged), missed-injection
        count and the per-reason breakdown.  Keys are sorted so the
        summary is byte-stable under canonical JSON encoding.
        """
        mechanisms: Dict[str, dict] = {}
        totals = _MechanismTally()
        all_tainted_seen: Set[str] = set()
        all_tainted_hit: Set[str] = set()
        for name in sorted(self._mechanisms):
            tally = self._mechanisms[name]
            mechanisms[name] = self._tally_dict(tally)
            totals.verdicts += tally.verdicts
            totals.accepts += tally.accepts
            totals.flags += tally.flags
            totals.drops += tally.drops
            totals.tainted += tally.tainted
            totals.tainted_flagged += tally.tainted_flagged
            totals.clean_flagged += tally.clean_flagged
            if tally.first_flag is not None and (
                    totals.first_flag is None
                    or tally.first_flag < totals.first_flag):
                totals.first_flag = tally.first_flag
            all_tainted_seen |= tally.tainted_seen
            all_tainted_hit |= tally.tainted_hit
        # A globally missed injection: some mechanism saw the tainted
        # identity's traffic but *no* mechanism ever flagged it.
        totals.tainted_seen = all_tainted_seen
        totals.tainted_hit = all_tainted_hit
        out = self._tally_dict(totals, with_details=False)
        return {"schema": DETECTION_SCHEMA, "mechanisms": mechanisms,
                "totals": out}

    @staticmethod
    def _tally_dict(tally: _MechanismTally,
                    with_details: bool = True) -> dict:
        flagged = tally.flags + tally.drops
        clean = tally.verdicts - tally.tainted
        out = {
            "verdicts": tally.verdicts,
            "accepts": tally.accepts,
            "flags": tally.flags,
            "drops": tally.drops,
            "flagged": flagged,
            "tainted": tally.tainted,
            "tainted_flagged": tally.tainted_flagged,
            "clean_flagged": tally.clean_flagged,
            "flag_rate": (round(flagged / tally.verdicts, 6)
                          if tally.verdicts else 0.0),
            "tpr": _rate(tally.tainted_flagged, tally.tainted),
            "fpr": _rate(tally.clean_flagged, clean),
            "time_to_first_flag": tally.first_flag,
            "missed_injections": len(tally.tainted_seen - tally.tainted_hit),
        }
        if with_details:
            out["reasons"] = {reason: tally.reasons[reason]
                              for reason in sorted(tally.reasons)}
            out["flag_times"] = list(tally.flag_times)
        return out


def summarize_trace_verdicts(records: list) -> DetectionLedger:
    """Rebuild a ledger from a trace body's ``"verdict"`` records.

    Only the *retained* events are available in a trace (the per-pair
    cap applies), so the rebuilt ledger is a lower bound on the episode
    ledger -- exact whenever no mechanism exceeded the cap.  The
    ``platoonsec detections`` CLI uses this to summarise a trace file.
    """
    ledger = DetectionLedger()
    for record in records:
        if record.get("type") != "verdict":
            continue
        ledger.record(t=float(record["t"]),
                      mechanism=str(record["mechanism"]),
                      verdict=str(record["verdict"]),
                      reason=str(record["reason"]),
                      observer=str(record.get("observer", "?")),
                      subject=str(record.get("subject", "?")),
                      message_kind=record.get("message_kind"),
                      tainted=bool(record.get("tainted", False)))
    return ledger
