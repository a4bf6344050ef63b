"""Exception types shared across the package."""

from __future__ import annotations


class RigidityError(Exception):
    """Base class for all errors raised by this package."""


class OutOfScopeError(RigidityError):
    """Raised by ``GroupType`` for triality type D4, which the engine
    deliberately does not handle.  The parser reports it at the type line,
    and ``rigidity classify`` answers OutOfScope for a file whose only fault
    it is."""


class ContractError(RigidityError):
    """A caller violated an operation contract (wrong shape, wrong place kind)."""


class MissingRealClassError(RigidityError):
    """A real form needs an explicit cohomology class that was not supplied."""


class CapacityError(RigidityError):
    """Work exceeded its fixed limit: the order of a catalog group or of the
    field automorphism group, which ``arith_equiv.generate`` lists
    (``DEFAULT_GROUP_CAP``; orbits walk the generators, so only
    ``field_model.validate`` lists the latter, for its order), the normal
    subgroups in ``arith_equiv``, the possible side that ``rigidity orbit``
    prints, the twin places whose flip subsets ``brauer.s_omega_orbit``
    walks (``FLIP_WALK_TWIN_LIMIT``), the products the convolutions of
    residue vectors multiply, with the terms of the pair factors they
    convolve, when one comparison counts the possible side
    (``brauer.RESIDUE_WORK_LIMIT``), the table entries the half-sum subset
    search visits (``classifier.SUBSET_SUM_WORK_LIMIT``), or the parameter
    total whose real forms ``trivial_image_forms`` lists."""


class ValidationError(RigidityError):
    """One or more descriptor invariants do not hold."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class DescriptorParseError(RigidityError):
    """Positioned syntax or semantic errors in a descriptor file."""

    def __init__(self, errors):
        # each error is (line, column, message); line/column are 1-based
        self.errors = list(errors)
        super().__init__("\n".join(f"{ln}:{col}: {msg}" for ln, col, msg in self.errors))
