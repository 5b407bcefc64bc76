"""Exact certificates for the affineness criterion on twisted Weyl classes.

The package loads in two tiers.  ``import weyldl`` loads the checker
alone (``exactnum``, ``rootdata`` and ``checker``) and binds its names:
``QuadExt``, ``Certificate`` and ``check_certificate``.  The first lookup
of any other exported name loads the prover as one unit, all seven of
its modules, and binds every prover name in the package, so later
lookups are plain attribute reads.  One unit, not one module per name:
a name-by-name load would move the compile of ``lifting``, ``catalog``
and ``casetables`` into the first certification that reaches them,
where a caller times it, instead of the set-up every prover caller
already pays.  Without cached bytecode, checking a certificate then
compiles none of the prover.
"""

# Each exported name, under the module that defines it.
_EXPORTS = {
    # The checker tier, loaded and bound below; ``checker`` brings ``rootdata``.
    "exactnum": ("QuadExt",),
    "checker": ("Certificate", "check_certificate"),
    # The prover tier, loaded and bound by ``__getattr__`` on the first of its names.
    "rootdata": ("RootSystem", "Twist", "build_root_system", "build_twist"),
    "weyl": ("WeylGroup", "WeylElt"),
    "conjugacy": ("DeltaClass", "class_list", "class_of", "shift_closure", "supp_delta"),
    "criterion": (
        "build_forward_system",
        "build_star_system",
        "feasible",
        "certify_min_element",
        "minimal_q",
    ),
    "lifting": (
        "lift_to_full",
        "combine_orthogonal_factors",
        "combine_cyclic_factors",
        "extend_via_parabolic_step",
        "constructive_certificate",
    ),
    "catalog": ("load_case_records",),
    "casetables": ("verify_case", "verify_all"),
}
_CHECKER = ("exactnum", "checker")
_PROVER = tuple(module for module in _EXPORTS if module not in _CHECKER)
# Every module of the package but ``__main__``, which runs the command line.
_SUBMODULES = frozenset({
    "casetables", "catalog", "checker", "cli", "conjugacy", "criterion",
    "exactnum", "lifting", "lp", "rootdata", "subsystems", "weyl",
})

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def _bind(modules) -> None:
    """Import ``modules`` and bind in the package the names each exports."""
    package = globals()
    for module in modules:
        # The import statement's own path, which ``-X importtime`` lists.
        __import__(f"{__name__}.{module}")
        package.update((name, getattr(package[module], name)) for name in _EXPORTS[module])


_bind(_CHECKER)


def __getattr__(name: str):
    if name in __all__:  # a prover name: the checker's are bound already
        _bind(_PROVER)
    elif name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
