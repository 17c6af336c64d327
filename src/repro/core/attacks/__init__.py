"""The canonical attack suite: one module per Table II threat.

====================  ==========================================  =============
Attack class          Paper section                               Taxonomy key
====================  ==========================================  =============
ReplayAttack          §V-A.1 replay / FDI                         replay
SybilAttack           §V-A.2 Sybil ghost vehicles                 sybil
FakeManeuverAttack    §V-A.3 fake entrance / leave / split        fake_maneuver
FalsificationAttack   §V-A insider false-data injection           falsification
JammingAttack         §V-B RF jamming                             jamming
EavesdroppingAttack   §V-C / §V-E eavesdropping + info theft      eavesdropping
DosJoinFloodAttack    §V-D join-request flooding                  dos
ImpersonationAttack   §V-F stolen-identity impersonation          impersonation
GpsSpoofingAttack     §V-G GPS capture-and-drift spoofing         gps_spoofing
SensorSpoofingAttack  §V-G sensor blinding / TPMS spoofing        sensor_spoofing
MalwareAttack         §V-H malware infection                      malware
====================  ==========================================  =============

The highway world (``repro.highway``) adds cross-platoon variants that
implement the same taxonomy threats at multi-platoon scale:
``MultiSybilAttack`` (sybil), ``MergeJammingAttack`` (jamming) and
``TailPlatoonAttack`` (eavesdropping).
"""

from repro.core.attacks.replay import ReplayAttack
from repro.core.attacks.sybil import SybilAttack
from repro.core.attacks.multi_sybil import MultiSybilAttack
from repro.core.attacks.maneuver import FakeManeuverAttack
from repro.core.attacks.falsification import FalsificationAttack
from repro.core.attacks.jamming import JammingAttack
from repro.core.attacks.merge_jamming import MergeJammingAttack
from repro.core.attacks.eavesdropping import EavesdroppingAttack
from repro.core.attacks.tail_platoon import TailPlatoonAttack
from repro.core.attacks.dos import DosJoinFloodAttack
from repro.core.attacks.impersonation import ImpersonationAttack
from repro.core.attacks.gps_spoofing import GpsSpoofingAttack
from repro.core.attacks.sensor_spoofing import SensorSpoofingAttack
from repro.core.attacks.malware import MalwareAttack

ALL_ATTACKS = [
    ReplayAttack,
    SybilAttack,
    MultiSybilAttack,
    FakeManeuverAttack,
    FalsificationAttack,
    JammingAttack,
    MergeJammingAttack,
    EavesdroppingAttack,
    TailPlatoonAttack,
    DosJoinFloodAttack,
    ImpersonationAttack,
    GpsSpoofingAttack,
    SensorSpoofingAttack,
    MalwareAttack,
]

__all__ = [cls.__name__ for cls in ALL_ATTACKS] + ["ALL_ATTACKS"]


# --------------------------------------------------------------------------
# Component registration: every attack class registers under its taxonomy
# key with a constructor-introspected parameter schema, so experiment
# specs and sweeps resolve attacks through one path.
# --------------------------------------------------------------------------

from repro.core.registry import ParamSpec, register_attack  # noqa: E402
from repro.onboard.malware import InfectionVector  # noqa: E402


def _coerce_vectors(value) -> tuple:
    """JSON infection-vector names -> ``InfectionVector`` tuple."""
    items = value if isinstance(value, (list, tuple)) else (value,)
    return tuple(item if isinstance(item, InfectionVector)
                 else InfectionVector(str(item)) for item in items)


#: Per-class schema overrides for parameters whose JSON form needs
#: coercion before construction.
_PARAM_OVERRIDES = {
    MalwareAttack: {
        "vectors": ParamSpec(name="vectors",
                             default=(InfectionVector.WIRELESS,),
                             convert=_coerce_vectors),
    },
}

for _cls in ALL_ATTACKS:
    register_attack(_cls, params=_PARAM_OVERRIDES.get(_cls))
