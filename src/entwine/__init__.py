"""Exact-arithmetic verification of entwining structures, Hopf modules and
canonical Galois maps over prime fields."""

from .exactalg import (
    FpMatrix,
    ShapeError,
    contract,
    identity,
    inverse,
    kernel_basis,
    kron,
    left_inverse,
    permute_legs,
    rank,
    right_inverse,
    rref,
    solve,
    zeros,
)
from .report import CONVENTIONS, CheckResult, PreconditionError, Report, UnsupportedError
from .structures import (
    BimonoidData,
    ComonoidData,
    ComoduleAlgebraData,
    ModuleComonoidData,
    ModuleData,
    MonoidData,
    check_bialgebra,
    check_comodule_algebra,
    check_comonoid,
    check_module,
    check_module_comonoid,
    check_monoid,
    module_comonoid_of_coalgebra,
    regular_right_module,
)
from .entwining import (
    EntwiningData,
    check_entwining,
    entwining_from_bimonoid,
    entwining_from_comodule_monad,
    lift_comonad,
    lift_report,
    rebuild_base_map,
)
from .hopfmod import (
    GaloisReport,
    HopfModuleData,
    check_hopf_module,
    coinvariants,
    comparison_K,
    find_characters,
    find_group_likes,
    galois_map_beta,
    galois_map_generalized,
    verify_fundamental_theorem,
)
from .duoidal import (
    DuoidalCtx,
    braided_duoidal,
    check_bimonoid,
    check_duoidal,
    galois_map_Kprime,
    tau_splitting,
)
from .instances import (
    InstanceError,
    InstanceFile,
    build_instance,
    fixture_path,
    load_instance,
    serialize_instance,
)

__version__ = "0.1.0"
