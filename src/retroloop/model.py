"""Feature hashing and the probabilistic template classifier.

One classifier family serves two directions, its ``role``: the backward model
(product -> template distribution) and the forward model (reactant set ->
template distribution, where a template stands for the product it joins into).
The frozen reference that judges realism and scores costs is the pretrained
backward model itself.

The model is multinomial logistic regression over hashed structural features.
Weights start at zero, so an untrained model predicts the exact uniform
distribution; training is seeded mini-batch gradient ascent on the weighted
log-likelihood, bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CheckpointError,
    EmptyDataset,
    InvalidConfig,
    InvalidInput,
    InvalidReaction,
    UnknownTemplate,
)
from .world import Molecule, Node, Reaction, World, parse_ast

DEFAULT_DIM = 2048
CHECKPOINT_VERSION = 1

ROLE_BACKWARD = "backward"
ROLE_FORWARD = "forward"
ROLES = (ROLE_BACKWARD, ROLE_FORWARD)

# Feature subterms are capped at height 2, the term analogue of a
# radius-2 fingerprint.
_FEATURE_HEIGHT = 2


def _feature_hash(feature: str, dim: int) -> int:
    digest = hashlib.blake2b(feature.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % dim


@dataclass(frozen=True)
class FeatureVector:
    """Fixed-length binary vector stored as its sorted on-bit indices."""

    dim: int
    indices: tuple[int, ...]

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.dim, dtype=np.uint8)
        dense[list(self.indices)] = 1
        return dense


def featurize_molecule(m: Molecule, dim: int = DEFAULT_DIM) -> FeatureVector:
    """Hash all subterms of height <= 2 plus the root operator symbol.

    Malformed molecules fall back to character 3-grams of their text.
    Vectors are memoised by ``(text, malformed, dim)``, and the bits of each
    subterm by ``(text, dim)``, so a subterm shared by many molecules is
    hashed once.
    """
    return _featurize(m.text, m.malformed, dim)


@lru_cache(maxsize=1 << 16)
def _featurize(text: str, malformed: bool, dim: int) -> FeatureVector:
    ast = None if malformed else parse_ast(text)
    if ast is None:
        if len(text) < 3:
            features = {"#" + text}
        else:
            features = {"#" + text[i : i + 3] for i in range(len(text) - 2)}
        bits = {_feature_hash(f, dim) for f in features}
    else:
        bits = set(_subterm_bits(text, dim))
        if ast.op is not None:
            bits.add(_feature_hash("op:" + ast.op, dim))
    return FeatureVector(dim=dim, indices=tuple(sorted(bits)))


@lru_cache(maxsize=1 << 18)
def _subterm_bits(text: str, dim: int) -> tuple[int, ...]:
    """Hashes of the subterms of height <= 2 of the well-formed term ``text``:
    the union of its operands' bits, plus its own hash at height <= 2.
    Int tuples keep the memo compact and untracked by the garbage collector."""
    node: Node = parse_ast(text)  # type: ignore[assignment]
    if node.op is None:
        return (_feature_hash(text, dim),)
    bits = set(_subterm_bits(node.left.text, dim))  # type: ignore[union-attr]
    bits.update(_subterm_bits(node.right.text, dim))  # type: ignore[union-attr]
    if node.height <= _FEATURE_HEIGHT:
        bits.add(_feature_hash(text, dim))
    return tuple(bits)


def featurize_reactant_set(
    reactants: Sequence[Molecule], dim: int = DEFAULT_DIM
) -> FeatureVector:
    """Bitwise OR of member featurizations; order-invariant."""
    if not reactants:
        raise InvalidInput("reactant set must be non-empty")
    bits: set[int] = set()
    for m in reactants:
        bits.update(featurize_molecule(m, dim).indices)
    return FeatureVector(dim=dim, indices=tuple(sorted(bits)))


# ---------------------------------------------------------------------------
# classifier


@dataclass(frozen=True, eq=False)
class TemplateClassifier:
    weights: np.ndarray  # (T, D)
    bias: np.ndarray  # (T,)
    template_index: tuple[str, ...]
    role: str

    @property
    def n_templates(self) -> int:
        return len(self.template_index)

    @property
    def dim(self) -> int:
        return int(self.weights.shape[1])

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return {tid: i for i, tid in enumerate(self.template_index)}


def zero_classifier(
    template_ids: Sequence[str], role: str, dim: int = DEFAULT_DIM
) -> TemplateClassifier:
    """Zero weights, i.e. exactly uniform predictions."""
    if role not in ROLES:
        raise InvalidInput(f"unknown role {role!r}")
    t = len(template_ids)
    if t < 1:
        raise InvalidInput("need at least one template")
    return TemplateClassifier(
        weights=np.zeros((t, dim), dtype=np.float64),
        bias=np.zeros(t, dtype=np.float64),
        template_index=tuple(template_ids),
        role=role,
    )


def _scores(model: TemplateClassifier, fv: FeatureVector) -> np.ndarray:
    if fv.dim != model.dim:
        raise InvalidInput(f"feature dim {fv.dim} != model dim {model.dim}")
    if not fv.indices:
        return model.bias.copy()
    s = model.weights[:, list(fv.indices)].sum(axis=1)
    s += model.bias
    return s


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of ``z``, computed in place: ``z`` must be a fresh array."""
    z -= z.max()
    np.exp(z, out=z)
    z /= z.sum()
    return z


def predict_proba(model: TemplateClassifier, fv: FeatureVector) -> np.ndarray:
    """Probability over the full template list; sums to 1."""
    return _softmax(_scores(model, fv))


class Prediction(NamedTuple):
    template_id: str
    probability: float
    outcome: "tuple[Molecule, ...] | Molecule"


def predict_topk(
    model: TemplateClassifier,
    inp: "Molecule | Sequence[Molecule]",
    k: int,
    world: World,
) -> list[Prediction]:
    """Top-k applicable templates with outcomes, by descending probability.

    Inapplicable templates are skipped without renormalizing, so the reported
    probabilities are comparable with filtering thresholds. Ties break by
    template index order. A model template missing from the world raises
    UnknownTemplate when it ranks above the k-th applicable one.

    A backward model ranks only the product's applications
    (``World.applications``). It scores the product only when one of them is
    a model template, or when a model template missing from the world might
    outrank them; otherwise the product is a dead end and the result empty.

    Ranking is in plain Python floats: the candidate rows, ascending, go
    through one stable sort by descending probability, which is the order a
    stable argsort gives, and each probability is reported as that float.
    """
    if k < 1:
        raise InvalidInput("k must be at least 1")
    if model.role == ROLE_FORWARD:
        if isinstance(inp, Molecule):
            raise InvalidInput("forward models take a reactant sequence")
        probs = predict_proba(model, featurize_reactant_set(inp, model.dim))
        rows: Iterable[int] = range(model.n_templates)
    else:
        if not isinstance(inp, Molecule):
            raise InvalidInput("backward models take a single product molecule")
        row_of = model._row_of
        outcomes = {row_of[tid]: rs for tid, rs in world.applications(inp) if tid in row_of}
        templates = world.template_by_id
        missing = []
        if not templates.keys() >= row_of.keys():
            missing = [i for i, tid in enumerate(model.template_index) if tid not in templates]
        if not outcomes and not missing:
            return []
        probs = predict_proba(model, featurize_molecule(inp, model.dim))
        rows = sorted([*outcomes, *missing])
    p = probs.tolist()
    results: list[Prediction] = []
    for i in sorted(rows, key=lambda r: -p[r]):
        if len(results) >= k:
            break
        tid = model.template_index[i]
        template = world.template_by_id.get(tid)
        if template is None:
            raise UnknownTemplate(tid)
        if model.role == ROLE_FORWARD:
            outcome = template.forward(inp)  # type: ignore[arg-type]
        else:
            outcome = outcomes[i]
        if outcome is not None:
            results.append(Prediction(tid, p[i], outcome))
    return results


def likelihood(model: TemplateClassifier, reaction: Reaction, world: World) -> float:
    """Probability of the reaction's template given its featurized input."""
    row = model._row_of.get(reaction.template_id)
    if row is None:
        raise UnknownTemplate(reaction.template_id)
    if model.role == ROLE_FORWARD:
        fv = featurize_reactant_set(reaction.reactants, model.dim)
    else:
        template = world.template_by_id.get(reaction.template_id)
        if template is None:
            raise UnknownTemplate(reaction.template_id)
        produced = template.backward(reaction.product)
        if produced is None or tuple(sorted(m.text for m in produced)) != tuple(
            r.text for r in reaction.reactants
        ):
            raise InvalidReaction(
                f"template {reaction.template_id} does not yield the stated "
                f"reactants for {reaction.product.text}"
            )
        fv = featurize_molecule(reaction.product, model.dim)
    return float(predict_proba(model, fv)[row])


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 20
    batch_size: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise InvalidConfig("learning_rate must be positive")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be at least 1")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be at least 1")


# A sample is (features, template_id) with an optional multiset weight.
Sample = "tuple[FeatureVector, str] | tuple[FeatureVector, str, float]"


class _Rows(NamedTuple):
    """Training samples as CSR feature rows: the on-bits of sample ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray
    y: np.ndarray
    w: np.ndarray


def _as_rows(model: TemplateClassifier, data: Iterable) -> _Rows:
    indptr, indices, ys, ws = [0], [], [], []
    for sample in data:
        fv, tid = sample[0], sample[1]
        if fv.dim != model.dim:
            raise InvalidInput(f"feature dim {fv.dim} != model dim {model.dim}")
        row = model._row_of.get(tid)
        if row is None:
            raise UnknownTemplate(tid)
        indices.extend(fv.indices)
        indptr.append(len(indices))
        ys.append(row)
        ws.append(float(sample[2]) if len(sample) > 2 else 1.0)
    if not ys:
        raise EmptyDataset("training data is empty")
    return _Rows(
        np.asarray(indptr, dtype=np.intp),
        np.asarray(indices, dtype=np.intp),
        np.asarray(ys, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


def _batch(rows: _Rows, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted columns ``U`` active in the samples ``idx``, and their 0/1
    matrix over ``U``; every other column of those samples is zero."""
    starts = rows.indptr[idx]
    lengths = rows.indptr[idx + 1] - starts
    owner = np.repeat(np.arange(len(idx)), lengths)
    # The k-th gathered bit sits at its sample's start plus its rank there.
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    cols, col_of = np.unique(rows.indices[starts[owner] + rank], return_inverse=True)
    xs = np.zeros((len(idx), len(cols)), dtype=np.float64)
    xs[owner, col_of] = 1.0
    return cols, xs


def _nll_grad(
    weights: np.ndarray, bias: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample log-probabilities of the labels, and the gradient of the
    total weighted negative log-likelihood over (weights, bias). ``x`` and
    ``weights`` may hold just the columns some sample activates: the others
    add nothing to the logits and get a zero gradient."""
    logits = x @ weights.T + bias
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    z = e.sum(axis=1, keepdims=True)
    rows = np.arange(len(y))
    logp = logits[rows, y] - np.log(z[:, 0])
    resid = e / z
    resid[rows, y] -= 1.0
    resid *= w[:, None]
    return logp, resid.T @ x, resid.sum(axis=0)


def nll_and_grad(
    model: TemplateClassifier, data: Iterable
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total weighted negative log-likelihood and its exact gradient.

    The objective is a weighted sum, so doubling a sample's weight doubles its
    gradient contribution exactly.
    """
    rows = _as_rows(model, data)
    cols, xs = _batch(rows, np.arange(len(rows.y)))
    logp, grad_u, grad_b = _nll_grad(model.weights[:, cols], model.bias, xs, rows.y, rows.w)
    grad_w = np.zeros_like(model.weights)
    grad_w[:, cols] = grad_u
    return float(-(rows.w * logp).sum()), grad_w, grad_b


def mean_nll(model: TemplateClassifier, data: Iterable) -> float:
    samples = list(data)
    total, _, _ = nll_and_grad(model, samples)
    weight = sum(float(s[2]) if len(s) > 2 else 1.0 for s in samples)
    return total / weight


def train(
    model: TemplateClassifier, data: Iterable, cfg: TrainConfig
) -> TemplateClassifier:
    """Seeded mini-batch gradient ascent on the weighted log-likelihood.

    Each step touches only the weight columns its batch activates; the rest
    have a zero gradient. Returns a new classifier; the input model is
    untouched. Identical (model, data, cfg) produce bit-identical weights.
    """
    rows = _as_rows(model, data)
    n = len(rows.y)
    weights = model.weights.copy()
    bias = model.bias.copy()
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            cols, xs = _batch(rows, idx)
            active = weights[:, cols]
            _logp, grad_w, grad_b = _nll_grad(active, bias, xs, rows.y[idx], rows.w[idx])
            scale = cfg.learning_rate / len(idx)
            weights[:, cols] = active - scale * grad_w
            bias -= scale * grad_b
    return replace(model, weights=weights, bias=bias)


def topk_exact_match(
    model: TemplateClassifier, test: Sequence[Reaction], ks: Sequence[int], world: World
) -> tuple[float, ...]:
    """For each k in ``ks``, the fraction of reactions whose true reactant set
    appears in the top-k. Each reaction is ranked once, to the largest k: a
    top-k list is a prefix of every longer one."""
    if not test:
        raise EmptyDataset("test set is empty")
    if model.role == ROLE_FORWARD:
        raise InvalidInput("exact match accuracy is defined for backward models")
    hits = [0] * len(ks)
    for rx in test:
        truth = tuple(r.text for r in rx.reactants)
        outcomes = [
            tuple(m.text for m in pred.outcome)  # type: ignore[union-attr]
            for pred in predict_topk(model, rx.product, max(ks), world)
        ]
        for j, k in enumerate(ks):
            hits[j] += truth in outcomes[:k]
    return tuple(h / len(test) for h in hits)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: TemplateClassifier, path: str | Path) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "role": model.role,
        "dim": model.dim,
        "template_index": list(model.template_index),
        "weights": model.weights.reshape(-1).tolist(),
        "bias": model.bias.tolist(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> TemplateClassifier:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    for field in ("version", "role", "dim", "template_index", "weights", "bias"):
        if field not in doc:
            raise CheckpointError(f"checkpoint {path} missing field {field!r}")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc['version']!r}")
    if doc["role"] not in ROLES:
        raise CheckpointError(f"unknown role {doc['role']!r}")
    t, d = len(doc["template_index"]), int(doc["dim"])
    if len(doc["weights"]) != t * d or len(doc["bias"]) != t:
        raise CheckpointError(f"checkpoint {path} has inconsistent dimensions")
    return TemplateClassifier(
        weights=np.asarray(doc["weights"], dtype=np.float64).reshape(t, d),
        bias=np.asarray(doc["bias"], dtype=np.float64),
        template_index=tuple(doc["template_index"]),
        role=doc["role"],
    )
