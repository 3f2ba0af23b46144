"""Reading and writing model description files.

A model file is JSON: real numbers stay plain, complex entries are [re, im]
pairs, matrices are lists of rows.  One pass reads it: each field is checked
as it is parsed (exact keys, finite numbers, matrix sizes, label sets), and
the first fault raises ``ModelFileError("<JSON path>: <cause>")``.  The
assembled model then runs the full build with its own certificates.
"""

import json
import math
import numbers

import numpy as np

from .chains import MarkovChain
from .models import MrisModel, ProbeSpec, TimeReversalData, build_model
from .tolerances import DEFAULT, FIELD_NAMES, Tolerances

SCHEMA_VERSION = 1


class ModelFileError(ValueError):
    pass


# ---------------------------------------------------------------------------
# typed readers: each checks one value and names its path on failure
# ---------------------------------------------------------------------------

def _object(x, path: str, keys, optional=()) -> dict:
    """An object whose keys are all of ``keys`` plus any of ``optional``
    (any key at all when ``optional`` is None)."""
    if not isinstance(x, dict):
        raise ModelFileError(f"{path}: expected an object, got {x!r:.40}")
    missing = [k for k in keys if k not in x]
    if missing:
        raise ModelFileError(f"{path}: missing keys {missing}")
    if optional is not None:
        extra = sorted(set(x).difference(keys, optional))
        if extra:
            raise ModelFileError(f"{path}: unexpected keys {extra} "
                                 f"(allowed: {', '.join([*keys, *optional])})")
    return x


def _list(x, path: str) -> list:
    if not isinstance(x, list) or not x:
        raise ModelFileError(f"{path}: expected a non-empty list, got {x!r:.40}")
    return x


def _number(x, path: str, low=None, strict=False) -> float:
    """A finite number (booleans are not numbers), optionally >= low, or
    > low when ``strict``."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ModelFileError(f"{path}: expected a number, got {x!r:.40}")
    try:
        v = float(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ModelFileError(f"{path}: expected a finite number, got {x!r:.40}")
    if low is not None and (v <= low if strict else v < low):
        raise ModelFileError(
            f"{path}: must be {'>' if strict else '>='} {low}, got {x!r}")
    return v


def _entry(x, path: str):
    """A matrix entry: a number or an [re, im] pair."""
    if not isinstance(x, list):
        return _number(x, path)
    if len(x) != 2:
        raise ModelFileError(f"{path}: expected a number or [re, im], got {x!r:.40}")
    return complex(_number(x[0], f"{path}[0]"), _number(x[1], f"{path}[1]"))


def _vector(x, path: str, n: int) -> np.ndarray:
    items = _list(x, path)
    if len(items) != n:
        raise ModelFileError(f"{path}: expected {n} entries, got {len(items)}")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(items)])


def read_matrix(x, path: str, n: int = None, real: bool = False) -> np.ndarray:
    """A square n x n matrix given as a list of rows (any size when n is
    None); complex entries unless ``real``."""
    rows = [_list(r, f"{path}[{i}]") for i, r in enumerate(_list(x, path))]
    n = len(rows) if n is None else n
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ModelFileError(f"{path}: expected a square {n}x{n} matrix, "
                             f"got rows of lengths {[len(r) for r in rows]}")
    read = _number if real else _entry
    return np.array([[read(v, f"{path}[{i}][{j}]") for j, v in enumerate(r)]
                     for i, r in enumerate(rows)], dtype=float if real else complex)


def read_tolerances(x, path: str, names=FIELD_NAMES) -> dict:
    """Tolerance overrides: an object of finite numbers > 0, keyed by
    ``names`` (any keys when ``names`` is None)."""
    return {k: _number(v, f"{path}.{k}", low=0, strict=True)
            for k, v in _object(x, path, (), names).items()}


def _probe(x, path: str, d: int) -> ProbeSpec:
    spec = _object(x, path, ("H_E", "beta", "tau", "V"))
    h_env = read_matrix(spec["H_E"], f"{path}.H_E")
    return ProbeSpec(h_env=h_env,
                     beta=_number(spec["beta"], f"{path}.beta", low=0),
                     tau=_number(spec["tau"], f"{path}.tau", low=0, strict=True),
                     coupling=read_matrix(spec["V"], f"{path}.V", d * len(h_env)))


def parse_model_dict(doc: dict, tol: Tolerances = None,
                     overrides: dict = None) -> MrisModel:
    """Read a parsed JSON document and build the model it describes.

    The model's tolerances are DEFAULT, then the document's ``tolerances``,
    then ``overrides`` (checked values, as ``read_tolerances`` returns them).
    ``tol``, when given, replaces all three; the document's values are still
    checked, their names only when they are used.
    """
    _object(doc, "$", ("schema_version", "system", "omega", "probes", "chain",
                       "initial_states"), ("tri", "tolerances"))
    version = doc["schema_version"]
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ModelFileError(f"$.schema_version: expected {SCHEMA_VERSION}, "
                             f"got {version!r:.40}")

    system = _object(doc["system"], "$.system", ("dim", "H_S"))
    d = _number(system["dim"], "$.system.dim", low=1)
    if d != int(d):
        raise ModelFileError(f"$.system.dim: expected an integer, got {d!r}")
    d = int(d)
    h_sys = read_matrix(system["H_S"], "$.system.H_S", d)

    labels = tuple(_list(doc["omega"], "$.omega"))
    for i, l in enumerate(labels):
        if not isinstance(l, str) or not l:
            raise ModelFileError(
                f"$.omega[{i}]: expected a non-empty string, got {l!r:.40}")
    if len(set(labels)) != len(labels):
        raise ModelFileError(f"$.omega: labels are not distinct: {list(labels)}")

    m = len(labels)
    chain = _object(doc["chain"], "$.chain", ("pi", "P"))
    pi = _vector(chain["pi"], "$.chain.pi", m)
    p_mat = read_matrix(chain["P"], "$.chain.P", m, real=True)

    probe_docs = _object(doc["probes"], "$.probes", labels)
    probes = {l: _probe(probe_docs[l], f"$.probes.{l}", d) for l in labels}
    states = _object(doc["initial_states"], "$.initial_states", labels)
    rho_init = {l: read_matrix(states[l], f"$.initial_states.{l}", d) for l in labels}

    tri = None
    if "tri" in doc:
        tri_doc = _object(doc["tri"], "$.tri", ("W_S", "W_E"))
        w_env = _object(tri_doc["W_E"], "$.tri.W_E", labels)
        tri = TimeReversalData(
            w_sys=read_matrix(tri_doc["W_S"], "$.tri.W_S", d),
            w_env={l: read_matrix(w_env[l], f"$.tri.W_E.{l}", len(probes[l].h_env))
                   for l in labels})

    own = read_tolerances(doc.get("tolerances", {}), "$.tolerances",
                          FIELD_NAMES if tol is None else None)
    if tol is None:
        tol = DEFAULT.replace(**{**own, **(overrides or {})})

    try:
        chain = MarkovChain(labels=labels, pi=pi, P=p_mat)
        return build_model(h_sys, chain, probes, rho_init, tri=tri, tol=tol)
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc


def load_model(path: str, tol: Tolerances = None,
               overrides: dict = None) -> MrisModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ModelFileError(f"{path}: not valid JSON ({exc})") from exc
    return parse_model_dict(doc, tol=tol, overrides=overrides)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def _emit_matrix(mat) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def model_to_dict(model: MrisModel) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": {"dim": model.dim_sys, "H_S": _emit_matrix(model.h_sys)},
        "omega": list(model.labels),
        "probes": {
            l: {
                "H_E": _emit_matrix(model.probes[l].h_env),
                "beta": float(model.probes[l].beta),
                "tau": float(model.probes[l].tau),
                "V": _emit_matrix(model.probes[l].coupling),
            } for l in model.labels
        },
        "chain": {"pi": [float(x) for x in model.chain.pi],
                  "P": [[float(x) for x in row] for row in model.chain.P]},
        "initial_states": {l: _emit_matrix(model.rho_init[l]) for l in model.labels},
    }
    if model.tri is not None:
        doc["tri"] = {
            "W_S": _emit_matrix(model.tri.w_sys),
            "W_E": {l: _emit_matrix(model.tri.w_env[l]) for l in model.labels},
        }
    return doc


def write_model_file(model: MrisModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
