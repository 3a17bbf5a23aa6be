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
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from operator import itemgetter
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


@dataclass(frozen=True, slots=True)
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
    """Weights and bias are never changed in place: ``train`` returns a new
    classifier, so what a model has memoised stays true of it."""

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

    @cached_property
    def _proba_memo(self) -> dict[str, np.ndarray]:
        """Read-only ``predict_proba`` rows of well-formed products, by text
        (see ``product_proba``). A new instance, from ``train``,
        ``dataclasses.replace`` or ``load_checkpoint``, starts empty."""
        return {}


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
    """The logits of ``fv``: each template's on-bit weights plus its bias.

    Each logit is the left-to-right float sum of its weights over the
    on-bits in ascending order, then the bias. The gather
    ``weights[:, idx]`` leaves the on-bits on the outer stride, so
    ``np.add.reduce`` adds them one at a time; a C-ordered gather would be
    summed pairwise, and every memoised probability would move.
    """
    if fv.dim != model.dim:
        raise InvalidInput(f"feature dim {fv.dim} != model dim {model.dim}")
    if not fv.indices:
        return model.bias.copy()
    # The result, which the memo may keep, is allocated before the gathered
    # temporary, so that a kept row does not sit above the freed gather.
    s = np.empty_like(model.bias)
    np.add.reduce(model.weights[:, np.array(fv.indices, dtype=np.intp)], axis=1, out=s)
    s += model.bias
    return s


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of ``z``, computed in place: ``z`` must be a fresh array."""
    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    z /= np.add.reduce(z)
    return z


def predict_proba(model: TemplateClassifier, fv: FeatureVector) -> np.ndarray:
    """Probability over the full template list; sums to 1."""
    return _softmax(_scores(model, fv))


def product_proba(model: TemplateClassifier, product: Molecule) -> np.ndarray:
    """``predict_proba`` of ``product``'s features, memoised per model.

    A backward model keeps the row of each well-formed product it scores,
    read-only, in its memo, so planning, filtering, augmentation, route
    costs and the oracle score a product once per model. A malformed
    product, whose features differ from those of the well-formed molecule
    of the same text, and every product under a forward model, are scored
    afresh. Writing the memo is one dict entry of an equal value per
    product, so concurrent callers may share a model.
    """
    if product.malformed or model.role != ROLE_BACKWARD:
        return predict_proba(model, featurize_molecule(product, model.dim))
    memo = model._proba_memo
    probs = memo.get(product.text)
    if probs is None:
        probs = _softmax(_scores(model, featurize_molecule(product, model.dim)))
        probs.flags.writeable = False
        memo[product.text] = probs
    return probs


def check_world(model: TemplateClassifier, world: World) -> None:
    """Raise UnknownTemplate unless ``model`` classifies over exactly
    ``world``'s templates, in its order: then row ``i`` of the model is
    ``world.templates[i]``."""
    if model.template_index != world.template_ids:
        raise UnknownTemplate("the model's templates are not the world's")


class Prediction(NamedTuple):
    template_id: str
    probability: float
    outcome: "tuple[Molecule, ...] | Molecule"


_probability = itemgetter(1)


def predict_topk(
    model: TemplateClassifier,
    inp: "Molecule | Sequence[Molecule]",
    k: int,
    world: World,
) -> list[Prediction]:
    """Top-k applicable templates with outcomes, by descending probability.

    The model must be made for ``world`` (``check_world``), or
    UnknownTemplate is raised. Inapplicable templates are skipped without
    renormalizing, so the reported probabilities are comparable with
    filtering thresholds. Ties break by template index order.

    A backward model ranks only the product's applications
    (``World.applications``) and scores the product only when there is one;
    otherwise the product is a dead end and the result empty. The score is
    read through the model's memo (``product_proba``). The applications
    come in template order, and one stable sort by descending probability
    ranks them, which is the order a stable argsort gives.

    Ranking is in plain Python floats, and each probability is reported as
    that float.
    """
    if k < 1:
        raise InvalidInput("k must be at least 1")
    check_world(model, world)
    if model.role == ROLE_BACKWARD:
        if not isinstance(inp, Molecule):
            raise InvalidInput("backward models take a single product molecule")
        apps = world.applications(inp)
        if not apps:
            return []
        p = product_proba(model, inp).tolist()
        row_of = model._row_of
        ranked = [Prediction(tid, p[row_of[tid]], reactants) for tid, reactants in apps]
        ranked.sort(key=_probability, reverse=True)
        del ranked[k:]
        return ranked
    if isinstance(inp, Molecule):
        raise InvalidInput("forward models take a reactant sequence")
    p = predict_proba(model, featurize_reactant_set(inp, model.dim)).tolist()
    results: list[Prediction] = []
    for i in sorted(range(model.n_templates), key=p.__getitem__, reverse=True):
        if len(results) >= k:
            break
        outcome = world.templates[i].forward(inp)
        if outcome is not None:
            results.append(Prediction(model.template_index[i], p[i], outcome))
    return results


def likelihood(model: TemplateClassifier, reaction: Reaction, world: World) -> float:
    """Probability of the reaction's template given its featurized input,
    under a model made for ``world`` (``check_world``).

    A backward model reads the product's score through its memo
    (``product_proba``)."""
    check_world(model, world)
    row = model._row_of.get(reaction.template_id)
    if row is None:
        raise UnknownTemplate(reaction.template_id)
    if model.role == ROLE_FORWARD:
        fv = featurize_reactant_set(reaction.reactants, model.dim)
        return float(predict_proba(model, fv)[row])
    if not world.templates[row].yields(reaction.product, reaction.reactants):
        raise InvalidReaction(
            f"template {reaction.template_id} does not yield the stated "
            f"reactants for {reaction.product.text}"
        )
    return float(product_proba(model, reaction.product)[row])


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 20
    batch_size: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate < math.inf:
            raise InvalidConfig("learning_rate must be positive and finite")
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


class _Epoch(NamedTuple):
    """The samples of one permutation, in its order, gathered once: the bits
    of the ``k``-th are ``bits[offsets[k]:offsets[k + 1]]``, each tagged with
    ``owner`` ``k``; ``y`` and ``w`` are permuted alike."""

    bits: np.ndarray
    owner: np.ndarray
    offsets: np.ndarray
    y: np.ndarray
    w: np.ndarray


def _gather(rows: _Rows, perm: np.ndarray) -> _Epoch:
    starts = rows.indptr[perm]
    lengths = rows.indptr[perm + 1] - starts
    offsets = np.zeros(len(perm) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    # The j-th gathered bit sits at its sample's start plus its rank there.
    at = np.repeat(starts - offsets[:-1], lengths)
    at += np.arange(offsets[-1])
    bits = rows.indices[at]
    del at  # one epoch-sized temporary at a time
    owner = np.repeat(np.arange(len(perm)), lengths)
    return _Epoch(bits, owner, offsets, rows.y[perm], rows.w[perm])


class _Batches:
    """The batch builder of one ``train`` or ``nll_and_grad`` call.

    A ``dim``-sized mark array and position table find a batch's sorted
    active columns ``U`` and each bit's position in ``U``, as
    ``np.unique(bits, return_inverse=True)`` does, in time linear in the
    bits. The batch's 0/1 matrix over ``U`` is a C-ordered view of a reused
    buffer; the next call clears the ones it holds.
    """

    def __init__(self, dim: int) -> None:
        self.mark = np.zeros(dim, dtype=bool)
        self.pos = np.empty(dim, dtype=np.intp)
        self.buf = np.zeros(0, dtype=np.float64)
        self.ones = np.zeros(0, dtype=np.intp)

    def columns(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct ``bits``, and each bit's position among them."""
        self.mark[bits] = True
        cols = np.flatnonzero(self.mark)
        self.mark[cols] = False
        self.pos[cols] = np.arange(len(cols))
        return cols, self.pos[bits]

    def __call__(self, epoch: _Epoch, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The columns ``U`` active in the samples ``start:stop`` of
        ``epoch``, and their 0/1 matrix over ``U``, valid until the next
        call; every other column of those samples is zero."""
        self.buf[self.ones] = 0.0
        lo, hi = epoch.offsets[start], epoch.offsets[stop]
        cols, col_of = self.columns(epoch.bits[lo:hi])
        size = (stop - start) * len(cols)
        if self.buf.size < size:
            self.buf = np.zeros(size, dtype=np.float64)
        self.ones = (epoch.owner[lo:hi] - start) * len(cols)
        self.ones += col_of
        self.buf[self.ones] = 1.0
        return cols, self.buf[:size].reshape(stop - start, len(cols))


def _nll_grad(
    weights: np.ndarray, bias: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample log-probabilities of the labels, and the gradient of the
    total weighted negative log-likelihood over (weights, bias). ``x`` and
    ``weights`` may hold just the columns some sample activates: the others
    add nothing to the logits and get a zero gradient. The softmax and its
    residual are computed in place in the logits array."""
    logits = x @ weights.T
    logits += bias
    logits -= logits.max(axis=1, keepdims=True)
    rows = np.arange(len(y))
    logp = logits[rows, y]
    resid = np.exp(logits, out=logits)
    z = resid.sum(axis=1, keepdims=True)
    logp -= np.log(z[:, 0])
    resid /= z
    resid[rows, y] -= 1.0
    resid *= w[:, None]
    return logp, resid.T @ x, resid.sum(axis=0)


def nll_and_grad(
    model: TemplateClassifier, data: Iterable
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total weighted negative log-likelihood and its exact gradient.

    The objective is a weighted sum, so doubling a sample's weight doubles its
    gradient contribution exactly. All samples form one batch, built as
    ``train`` builds its batches.
    """
    rows = _as_rows(model, data)
    n = len(rows.y)
    epoch = _gather(rows, np.arange(n))
    cols, xs = _Batches(model.dim)(epoch, 0, n)
    logp, grad_u, grad_b = _nll_grad(model.weights[:, cols], model.bias, xs, epoch.y, epoch.w)
    grad_w = np.zeros_like(model.weights)
    grad_w[:, cols] = grad_u
    return float(-(epoch.w * logp).sum()), grad_w, grad_b


def mean_nll(model: TemplateClassifier, data: Iterable) -> float:
    samples = list(data)
    total, _, _ = nll_and_grad(model, samples)
    weight = sum(float(s[2]) if len(s) > 2 else 1.0 for s in samples)
    return total / weight


def train(
    model: TemplateClassifier, data: Iterable, cfg: TrainConfig
) -> TemplateClassifier:
    """Seeded mini-batch gradient ascent on the weighted log-likelihood.

    Each epoch gathers the CSR rows of its permutation once, and each batch
    is a slice of that gather. A step touches only the weight columns its
    batch activates; the rest have a zero gradient. Returns a new
    classifier; the input model is untouched. Identical (model, data, cfg)
    produce bit-identical weights.
    """
    rows = _as_rows(model, data)
    n = len(rows.y)
    weights = model.weights.copy()
    bias = model.bias.copy()
    batches = _Batches(model.dim)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        epoch = _gather(rows, rng.permutation(n))
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            cols, xs = batches(epoch, start, stop)
            active = weights[:, cols]
            _logp, grad_w, grad_b = _nll_grad(
                active, bias, xs, epoch.y[start:stop], epoch.w[start:stop]
            )
            scale = cfg.learning_rate / (stop - start)
            grad_w *= scale
            active -= grad_w
            weights[:, cols] = active
            grad_b *= scale
            bias -= grad_b
        del epoch  # so that two epochs are never held at once
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
    """Write the bytes of ``json.dumps(doc, sort_keys=True)`` plus a newline,
    where ``doc["weights"]`` is the row-major list of all weights.

    ``"weights"`` sorts last, so the file is the other keys' JSON, then the
    weights written one matrix row at a time: no list or string of the whole
    matrix is ever built.
    """
    head = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "role": model.role,
            "dim": model.dim,
            "template_index": list(model.template_index),
            "bias": model.bias.tolist(),
        },
        sort_keys=True,
    )
    with Path(path).open("w") as fh:
        fh.write(head[:-1] + ', "weights": [')
        sep = ""
        for row in model.weights:
            if row.size:
                fh.write(sep + json.dumps(row.tolist())[1:-1])
                sep = ", "
        fh.write("]}\n")


def _numbers(doc: dict, field: str, n: int, path: str | Path) -> np.ndarray:
    values = doc[field]
    numeric = isinstance(values, list) and set(map(type, values)) <= {float, int}
    if not numeric or len(values) != n:
        raise CheckpointError(f"checkpoint {path} field {field!r} is not a list of {n} numbers")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise CheckpointError(f"checkpoint {path} field {field!r}: {exc}") from exc


def load_checkpoint(path: str | Path) -> TemplateClassifier:
    """The classifier a ``save_checkpoint`` file holds. A file that cannot
    be read, or whose fields are missing or of the wrong type or length,
    raises CheckpointError naming it."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    for field in ("version", "role", "dim", "template_index", "weights", "bias"):
        if field not in doc:
            raise CheckpointError(f"checkpoint {path} missing field {field!r}")
    if type(doc["version"]) is not int or doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path} has unsupported version {doc['version']!r}")
    if doc["role"] not in ROLES:
        raise CheckpointError(f"checkpoint {path} has unknown role {doc['role']!r}")
    d, index = doc["dim"], doc["template_index"]
    if type(d) is not int or d < 0:
        raise CheckpointError(f"checkpoint {path} field 'dim' is not a non-negative integer")
    if not isinstance(index, list) or not all(isinstance(tid, str) for tid in index):
        raise CheckpointError(f"checkpoint {path} field 'template_index' is not a list of strings")
    t = len(index)
    return TemplateClassifier(
        weights=_numbers(doc, "weights", t * d, path).reshape(t, d),
        bias=_numbers(doc, "bias", t, path),
        template_index=tuple(index),
        role=doc["role"],
    )
