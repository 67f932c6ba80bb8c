"""Exact invariants of hyperelliptic directed broken Lefschetz fibrations.

The package computes the signature, Euler characteristic, and (for simply
connected total spaces) the homeomorphism type of these fibrations from
combinatorial monodromy data, entirely in exact rational arithmetic.  The
layers, bottom up: ``ratlin`` (exact linear algebra), ``words`` and
``surface`` (mapping-class words and their symplectic representation),
``meyer`` (the signature cocycle and its cobounding function), ``locsig``
(local signatures and the fold homomorphism), ``fibration`` (the data
model and the two signature pipelines), and ``cli``.

``fibration`` is imported on first use: the first access to it or to a
name this package re-exports from it (``compute_report``,
``FibrationSpec``, ...) loads it, through the module ``__getattr__``
(PEP 562).  So ``import blfsig`` and the word-level commands (``phi``,
``tau``, ``h``, ``sigma-loc``) never compile it.
"""

from .locsig import (
    ContextError,
    CycleContext,
    decomposition_check,
    h_generator,
    h_word,
    s_generator,
    s_word,
    sigma_loc,
)
from .meyer import phi, phi_base, tau
from .ratlin import (
    ShapeError,
    signature_of_symmetric,
    smith_normal_form,
)
from .surface import (
    TypeI,
    TypeII,
    chain_class,
    word_to_matrix,
)
from .words import (
    IOTA,
    ChainTwist,
    Iota,
    Word,
    WordError,
    chain_word,
    format_word,
    gen_word,
    parse_word,
)

__version__ = "0.1.0"

# the spec layer loads on first use: the word-level commands never need it
_FIBRATION_NAMES = frozenset({
    "ConsistencyError", "FibrationSpec", "LefschetzDatum", "RoundRegion",
    "ValidationError", "abelianization", "chain_twist_datum", "compute_report",
    "euler_characteristic", "family_spec", "homeomorphism_report", "load_spec",
    "separating_torsion", "signature_meyer_path", "spec_from_json",
    "spec_to_json", "total_signature", "validate",
})


def __getattr__(name):
    if name == "fibration" or name in _FIBRATION_NAMES:
        # not ``from . import fibration``, which would ask this hook again
        from importlib import import_module

        fibration = import_module(".fibration", __name__)
        return fibration if name == "fibration" else getattr(fibration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | _FIBRATION_NAMES | {"fibration"})
