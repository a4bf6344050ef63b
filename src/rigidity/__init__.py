"""Decision engine for congruence rigidity of simple groups over number fields.

Given the finite local-global data of a simply connected absolutely
almost simple group (its Cartan-Killing type, the base field's declared
places and automorphisms, the local invariant classes, and the real
forms), the engine decides whether every locally isomorphic group is
globally isomorphic, and produces an explicit locally-equal twin when the
answer is no.
"""

from types import ModuleType as _ModuleType

from .brauer import (
    OmegaVector,
    SOmegaOrbit,
    compare_possible,
    inner_twin_bound,
    inner_twin_places,
    is_coherent,
    plain_orbits,
    possible_vectors,
    s_omega_orbit,
    tate_sum,
    weak_uniformity,
)
from .classifier import (
    GroupDescriptor,
    Outcome,
    Verdict,
    check_witness,
    classify,
    specialize_q,
    specialize_quasisplit,
    subset_sum_forbidden,
)
from .cli import main
from .descriptor import emit_descriptor, parse
from .errors import (
    CapacityError,
    ContractError,
    DescriptorParseError,
    MissingRealClassError,
    OutOfScopeError,
    RigidityError,
    ValidationError,
)
from .field_model import (
    FieldDescriptor,
    HbarFiber,
    PlaceLabel,
    PlacePerm,
    PlaceSymmetry,
    adelic_orbit,
    global_orbit,
)
from .invariants import (
    Family,
    FormKind,
    GroupType,
    LocalClass,
    PlaceKind,
    Shape,
    c_local,
    center_shape,
    count_local_forms,
    cyclic,
    h2_local,
    sym_act,
)
from .real_forms import (
    RealFormTag,
    RealStats,
    delta,
    q_image_trivial,
    real_class,
    real_stats,
    trivial_image_forms,
)

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
