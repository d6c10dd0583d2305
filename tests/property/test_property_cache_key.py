"""The cache key is a pure function of the calculation it describes.

``CalculationRequest.cache_key()`` is the identity the job server and the
result store trust to serve a stored result bit-identically, so it must
not depend on anything but the request's values:

* not on dict key order, nor on a ``to_dict``/``from_dict`` round trip
  (which must also rebuild the same request);
* not on the arithmetic path that produced a float, as long as the float
  is the same (decimal text, ``frexp``/``ldexp``, power-of-two scaling,
  numpy scalars);
* not on the interpreter: two fresh processes with different
  ``PYTHONHASHSEED`` values compute the same keys as this one, which
  covers ``hash()`` and set iteration order anywhere under ``to_dict``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.api.request as request_module
from repro.api import (
    REQUEST_KINDS,
    BatchConfig,
    CalculationRequest,
    ResilienceConfig,
    RTConfig,
    SCFConfig,
    TDDFTConfig,
)
from repro.pw.cell import UnitCell

SRC = Path(__file__).resolve().parents[2] / "src"

#: Ways to reach the same float: each returns a value equal to ``x`` in
#: every bit, the sign of a zero included.
PROVENANCE = {
    "identity": lambda x: x,
    "decimal-text": lambda x: float(repr(x)),
    "frexp-ldexp": lambda x: math.ldexp(*math.frexp(x)),
    "power-of-two": lambda x: x * 4.0 / 4.0,
    "numpy-scalar": np.float64,
}

_unit = st.floats(0.0, 1.0, exclude_max=True)
_positive = st.floats(1e-9, 1e3)


@st.composite
def request_specs(draw):
    """A request as plain values, so it can be built along any float path."""
    kind = draw(st.sampled_from(REQUEST_KINDS))
    n_atoms = draw(st.integers(1, 4))
    species = draw(st.lists(st.sampled_from(["H", "C", "O", "Si"]),
                            min_size=n_atoms, max_size=n_atoms))
    # Diagonally dominant, so the cell is right-handed and non-degenerate.
    lattice = [
        [draw(st.floats(3.0, 20.0)) if i == j else draw(st.floats(-0.5, 0.5))
         for j in range(3)]
        for i in range(3)
    ]
    frames = [
        [[draw(_unit) for _ in range(3)] for _ in range(n_atoms)]
        for _ in range(draw(st.integers(2, 3)) if kind == "batch" else 1)
    ]
    scf = {
        "ecut": draw(_positive),
        "tol": draw(_positive),
        "mixing_beta": draw(_unit),
        "seed": draw(st.none() | st.integers(0, 2**31)),
        "mixer": draw(st.sampled_from(["anderson", "linear"])),
        "precision": "strict64",
    }
    tddft = {
        "rank_factor": draw(_positive),
        "tol": draw(_positive),
        "n_mu": draw(st.none() | st.integers(1, 500)),
        "spin": draw(st.sampled_from(["singlet", "triplet"])),
    }
    return {
        "kind": kind,
        "species": species,
        "lattice": lattice,
        "frames": frames,
        "scf": scf,
        "tddft": tddft,
        "rt": {"dt": draw(_positive),
               "kick_direction": [draw(_unit) for _ in range(3)]},
        "batch": {"isdf_drift_threshold": draw(_unit),
                  "residual_hint_floor": draw(_positive)},
        "resilience": draw(st.none() | st.fixed_dictionaries(
            {"backoff": _positive, "backoff_factor": _positive})),
    }


def build(spec, path="identity") -> CalculationRequest:
    """The request ``spec`` describes, every float reached along ``path``."""
    f = PROVENANCE[path]
    cells = [
        UnitCell(np.array([[f(x) for x in row] for row in spec["lattice"]]),
                 tuple(spec["species"]),
                 [[f(x) for x in atom] for atom in frame])
        for frame in spec["frames"]
    ]
    floats = {name: {k: f(v) if isinstance(v, float) else v
                     for k, v in values.items()}
              for name, values in spec.items()
              if name in ("scf", "tddft", "rt", "batch")}
    scf = SCFConfig(**floats["scf"])
    kind = spec["kind"]
    resilience = spec["resilience"]
    if resilience is not None:
        resilience = ResilienceConfig(**{k: f(v) for k, v in resilience.items()})
    if kind == "batch":
        return CalculationRequest(
            kind=kind, structure=cells, resilience=resilience,
            batch=BatchConfig(scf=scf, tddft=TDDFTConfig(**floats["tddft"]),
                              **floats["batch"]),
        )
    rt = floats["rt"]
    return CalculationRequest(
        kind=kind, structure=cells[0], scf=scf, resilience=resilience,
        tddft=TDDFTConfig(**floats["tddft"]) if kind == "tddft" else None,
        rt=RTConfig(dt=rt["dt"], kick_direction=tuple(f(x) for x in rt["kick_direction"]))
        if kind == "rt" else None,
    )


def _shuffled(tree, rnd):
    """``tree`` with every dict's keys in a random order."""
    if isinstance(tree, dict):
        keys = list(tree)
        rnd.shuffle(keys)
        return {k: _shuffled(tree[k], rnd) for k in keys}
    if isinstance(tree, list):
        return [_shuffled(v, rnd) for v in tree]
    return tree


def _same_structure(a, b) -> bool:
    cells_a = a if isinstance(a, tuple) else (a,)
    cells_b = b if isinstance(b, tuple) else (b,)
    return len(cells_a) == len(cells_b) and all(
        x.species == y.species
        and np.array_equal(x.lattice, y.lattice)
        and np.array_equal(x.fractional_positions, y.fractional_positions)
        for x, y in zip(cells_a, cells_b)
    )


def assert_key_is_pure(request: CalculationRequest, rnd) -> None:
    """The in-process half: dict order and the wire round trip."""
    key = request.cache_key()
    wire = json.loads(json.dumps(request.to_dict()))
    rebuilt = CalculationRequest.from_dict(wire)
    assert _same_structure(rebuilt.structure, request.structure)
    for name in ("scf", "tddft", "rt", "batch", "resilience"):
        assert getattr(rebuilt, name) == getattr(request, name), name
    assert rebuilt.cache_key() == key
    assert CalculationRequest.from_dict(_shuffled(wire, rnd)).cache_key() == key


_KEYS_SCRIPT = """
import json, sys
from repro.api import CalculationRequest
print(json.dumps([CalculationRequest.from_dict(p).cache_key()
                  for p in json.load(sys.stdin)]))
"""


def keys_in_fresh_process(payloads, hash_seed, prelude="") -> list[str]:
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", prelude + _KEYS_SCRIPT],
        input=json.dumps(payloads), env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def assert_keys_agree_across_hash_seeds(requests, prelude="") -> None:
    payloads = [r.to_dict() for r in requests]
    here = [r.cache_key() for r in requests]
    assert keys_in_fresh_process(payloads, 1, prelude) == here
    assert keys_in_fresh_process(payloads, 2, prelude) == here


@settings(max_examples=150, deadline=None)
@given(spec=request_specs(), path=st.sampled_from(sorted(PROVENANCE)), rnd=st.randoms())
def test_cache_key_is_pure(spec, path, rnd):
    request = build(spec)
    assert build(spec, path).cache_key() == request.cache_key()
    assert_key_is_pure(request, rnd)


# No shrinking: every step would start two more interpreters.
@settings(max_examples=2, deadline=None, phases=[Phase.generate])
@given(specs=st.lists(request_specs(), min_size=8, max_size=8))
def test_cache_key_survives_a_new_hash_seed(specs):
    assert_keys_agree_across_hash_seeds([build(spec) for spec in specs])


#: The injected bug: ``to_dict`` emits the species through a ``set``.
_SET_SPECIES = """
def structure_to_dict(cell, _exact=structure_to_dict):
    return {**_exact(cell), "species": list(set(cell.species))}
"""


def test_set_iteration_in_to_dict_is_caught(monkeypatch):
    def cell(*species):
        positions = np.linspace(0.1, 0.9, 3 * len(species)).reshape(-1, 3)
        return UnitCell(9.0 * np.eye(3), species, positions)

    repeated = CalculationRequest(kind="scf", structure=cell("H", "H", "O"))
    distinct = [
        CalculationRequest(kind=kind, structure=cell("Si", "O", "C", "H"))
        for kind in ("scf", "tddft", "rt")
    ]
    namespace = dict(vars(request_module))
    exec(_SET_SPECIES, namespace)
    monkeypatch.setattr(
        request_module, "structure_to_dict", namespace["structure_to_dict"]
    )
    with pytest.raises((AssertionError, ValueError)):
        assert_key_is_pure(repeated, np.random.default_rng(0))
    prelude = (
        "import repro.api.request as request_module\n"
        f"exec({_SET_SPECIES!r}, vars(request_module))\n"
    )
    with pytest.raises(AssertionError):
        assert_keys_agree_across_hash_seeds(distinct, prelude)
