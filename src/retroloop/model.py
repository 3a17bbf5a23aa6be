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

A dead end is never scored. A malformed molecule has no features
(``featurize_molecule`` raises InvalidInput), and ``predict_topk`` returns no
candidates, without featurizing, for a product no template fires on or a
reactant set with a malformed member, which no template joins.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import chain
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
from .world import Molecule, Reaction, World, parse_ast

DEFAULT_DIM = 2048
# The largest feature dim: the weights take 8 * templates * dim bytes.
MAX_DIM = 2**16
CHECKPOINT_VERSION = 2

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

    A malformed molecule is a dead end and has none: it raises InvalidInput.
    Vectors and the bits of each subterm are memoised by ``(text, dim)`` and
    the root-operator bit by ``(op, dim)``, so a subterm or operator shared
    by many molecules is hashed once.
    """
    if m.malformed:
        raise InvalidInput(f"malformed molecule {m.text!r} has no features")
    return _featurize(m.text, dim)


@lru_cache(maxsize=1 << 16)
def _featurize(text: str, dim: int) -> FeatureVector:
    op = parse_ast(text).op  # type: ignore[union-attr]
    bits = set(_subterm_bits(text, dim))
    if op is not None:
        bits.add(_op_bit(op, dim))
    return FeatureVector(dim=dim, indices=tuple(sorted(bits)))


@lru_cache(maxsize=1 << 8)
def _op_bit(op: str, dim: int) -> int:
    """The hash of the root-operator feature ``op``: a world has a handful of
    operators, and every well-formed composite molecule sets one of them."""
    return _feature_hash("op:" + op, dim)


@lru_cache(maxsize=1 << 18)
def _subterm_bits(text: str, dim: int) -> tuple[int, ...]:
    """Hashes of the subterms of height <= 2 of the well-formed term ``text``:
    the union of its operands' bits, plus its own hash at height <= 2.
    Int tuples keep the memo compact and untracked by the garbage collector."""
    node: Molecule = parse_ast(text)  # type: ignore[assignment]
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
    classifier, so what a model has memoised stays true of it.

    A model stores its weights once, as ``weight_rows``: a C-ordered
    (D + 1, T) float64 array whose row ``i`` holds every template's weight
    of feature bit ``i``, and whose last row, the padding row, is all -0.0.
    ``weights`` is the (T, D) view of its first D rows. Given weights that
    are already that view of such an array, as ``train``, ``zero_classifier``
    and ``dataclasses.replace`` give them, are kept as they are; any others
    are copied into a new one.
    """

    weights: np.ndarray  # (T, D)
    bias: np.ndarray  # (T,)
    template_index: tuple[str, ...]
    role: str
    weight_rows: np.ndarray = field(init=False, repr=False)  # (D + 1, T)

    def __post_init__(self) -> None:
        weights = self.weights
        t, dim = weights.shape
        rows = weights.base
        if not (
            isinstance(rows, np.ndarray)
            and rows.dtype == np.float64
            and rows.shape == (dim + 1, t)
            and rows.flags.c_contiguous
            and weights.ctypes.data == rows.ctypes.data
            and weights.strides == rows[:dim].T.strides
            and not rows[dim].any()
            and np.signbit(rows[dim]).all()
        ):
            rows = _padded_rows(dim, t)
            rows[:dim] = weights.T
        object.__setattr__(self, "weight_rows", rows)
        object.__setattr__(self, "weights", rows[:dim].T)

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
        """Read-only ``predict_proba`` rows of products, by text (see
        ``product_proba``, which never scores a malformed one). A new instance,
        from ``train``, ``dataclasses.replace`` or ``load_checkpoint``, starts empty."""
        return {}


def _padded_rows(dim: int, t: int) -> np.ndarray:
    """A (dim + 1, t) array of zero weight rows, the last of them -0.0."""
    rows = np.zeros((dim + 1, t))
    rows[dim] = -0.0
    return rows


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
        weights=_padded_rows(dim, t)[:dim].T,
        bias=np.zeros(t, dtype=np.float64),
        template_index=tuple(template_ids),
        role=role,
    )


def _logits(
    model: TemplateClassifier, fvs: Sequence[FeatureVector]
) -> tuple[list[int], np.ndarray]:
    """The logits of each of ``fvs``, every template's on-bit weights plus
    its bias, in one pass: the order in which the pass took the rows, and
    their logits in that order. Row ``k`` holds the logits of
    ``fvs[order[k]]``.

    Each logit is the left-to-right float sum of its weights over the
    on-bits in ascending order, then the bias, however many rows are
    scored together. Rows are taken widest first and cut into buckets: a
    bucket starts at its widest row and ends before the first row with at
    most half as many bits. A bucket's (rows, width) index holds each row's
    on-bits, padded with the index of the -0.0 padding row of
    ``weight_rows``. Its transpose gathers (``np.take``) the (width, rows,
    templates) weights, which ``np.add.reduce`` reduces over the first, bit,
    axis: it adds one on-bit at a time to every logit of the bucket, where
    a reduction over the contiguous axis would be pairwise and move every
    memoised probability. It starts from -0.0, and adding -0.0 leaves every
    float as it is, the sign of a zero, infinities and NaNs included, so the
    padding adds nothing and a row with no bits is its bias.
    """
    dim = model.dim
    for fv in fvs:
        if fv.dim != dim:
            raise InvalidInput(f"feature dim {fv.dim} != model dim {dim}")
    indices = [fv.indices for fv in fvs]
    lengths = list(map(len, indices))
    n = len(indices)
    order = sorted(range(n), key=lengths.__getitem__, reverse=True)
    logits = np.empty((n, model.n_templates))
    weight_rows = model.weight_rows
    pad = (dim,) * (lengths[order[0]] if n else 0)
    start = 0
    while start < n:
        width = lengths[order[start]]
        stop = start + 1
        while stop < n and 2 * lengths[order[stop]] > width:
            stop += 1
        padded = []
        for i in order[start:stop]:
            padded += (indices[i], pad[lengths[i] : width])
        idx = np.fromiter(chain.from_iterable(padded), np.intp, width * (stop - start))
        bits = np.take(weight_rows, idx.reshape(stop - start, width).T, axis=0)
        np.add.reduce(bits, axis=0, initial=-0.0, out=logits[start:stop])
        start = stop
    logits += model.bias
    return order, logits


def _proba_rows(model: TemplateClassifier, fvs: Sequence[FeatureVector]) -> list[np.ndarray]:
    """``predict_proba`` of each of ``fvs``, from one ``_logits`` pass, as
    read-only views of one batch array, which a memo may keep.

    The softmax runs on all rows at once, with the float operations of a
    one-row softmax: the row maximum and the subtraction are exact,
    ``np.exp`` works element by element, and each row's sum is numpy's
    pairwise sum over that contiguous row, as it is for a lone row.
    """
    order, z = _logits(model, fvs)
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    z.flags.writeable = False
    rows = [z] * len(order)  # placeholders, each replaced by its row
    for i, row in zip(order, z):
        rows[i] = row
    return rows


def predict_proba(model: TemplateClassifier, fv: FeatureVector) -> np.ndarray:
    """Probability over the full template list; sums to 1."""
    return _proba_rows(model, [fv])[0]


def product_proba(model: TemplateClassifier, product: Molecule) -> np.ndarray:
    """``predict_proba`` of the well-formed ``product``'s features, memoised
    per model; a malformed product is a dead end and raises InvalidInput.

    The model keeps the row of each product it scores, read-only, in its
    memo, so planning, filtering, augmentation, route costs and the oracle
    score a product once per model; ``score_products`` fills many entries
    at once. Every memo entry is one dict entry, written once, whose value
    equals what a later call would compute, so concurrent callers may share
    a model.
    """
    if product.malformed:
        raise InvalidInput(f"malformed molecule {product.text!r} has no features")
    probs = model._proba_memo.get(product.text)
    if probs is None:
        score_products(model, [product])
        probs = model._proba_memo[product.text]
    return probs


def score_products(model: TemplateClassifier, products: Iterable[Molecule]) -> None:
    """Memoise the ``product_proba`` rows of the well-formed ``products``
    that the model's memo lacks, in one ``_proba_rows`` pass; each is
    featurized through ``featurize_molecule``."""
    memo = model._proba_memo
    new = {p.text: p for p in products if p.text not in memo}
    if not new:
        return
    rows = _proba_rows(model, [featurize_molecule(p, model.dim) for p in new.values()])
    memo.update(zip(new, rows))


def check_world(model: TemplateClassifier, world: World) -> None:
    """Raise UnknownTemplate unless ``model`` classifies over exactly
    ``world``'s templates, in its order: then row ``i`` of the model is
    ``world.templates[i]``."""
    if model.template_index != world.template_ids:
        raise UnknownTemplate("the model's templates are not the world's")


_probability = itemgetter(1)


def predict_topk(
    model: TemplateClassifier,
    inp: "Molecule | Sequence[Molecule]",
    k: int,
    world: World,
) -> list[tuple[str, float, tuple[Molecule, ...] | Molecule]]:
    """Top-k applicable templates as ``(template_id, probability, outcome)``
    tuples, by descending probability.

    The model must be made for ``world`` (``check_world``), or
    UnknownTemplate is raised. Inapplicable templates are skipped without
    renormalizing, so the reported probabilities are comparable with
    filtering thresholds. Ties break by template index order.

    A backward model ranks only the product's applications
    (``World.applications``) and scores the product only when there is one;
    otherwise the product is a dead end and the result empty. The score is
    read through the model's memo (``product_proba``). The applications
    come in template order, and one stable sort by descending probability
    ranks them, which is the order a stable argsort gives. A forward model
    returns an empty result, unscored, for a reactant set with a malformed
    member.

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
        ranked = [(tid, p[row_of[tid]], reactants) for tid, reactants in apps]
        ranked.sort(key=_probability, reverse=True)
        del ranked[k:]
        return ranked
    if isinstance(inp, Molecule):
        raise InvalidInput("forward models take a reactant sequence")
    if any(m.malformed for m in inp):
        return []
    p = predict_proba(model, featurize_reactant_set(inp, model.dim)).tolist()
    results = []
    for i in sorted(range(model.n_templates), key=p.__getitem__, reverse=True):
        if len(results) >= k:
            break
        outcome = world.templates[i].forward(inp)
        if outcome is not None:
            results.append((model.template_index[i], p[i], outcome))
    return results


def likelihood(model: TemplateClassifier, reaction: Reaction, world: World) -> float:
    """Probability of the reaction's template given its product, under a
    backward model made for ``world`` (``check_world``), read through the
    model's memo (``product_proba``)."""
    check_world(model, world)
    if model.role == ROLE_FORWARD:
        raise InvalidInput("likelihood is defined for backward models")
    row = model._row_of.get(reaction.template_id)
    if row is None:
        raise UnknownTemplate(reaction.template_id)
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

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate < math.inf:
            raise InvalidConfig("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be at least 1")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be at least 1")


class _Rows(NamedTuple):
    """Training samples as CSR feature rows: the on-bits of sample ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray
    y: np.ndarray
    w: np.ndarray


def _as_rows(model: TemplateClassifier, data: Iterable) -> _Rows:
    """The rows of ``(features, template_id[, weight])`` samples; a weight
    defaults to 1."""
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


def _gather(rows: _Rows, perm: np.ndarray) -> _Rows:
    """The samples of ``rows`` in the order ``perm``, gathered once."""
    starts = rows.indptr[perm]
    lengths = rows.indptr[perm + 1] - starts
    indptr = np.zeros(len(perm) + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    # The j-th gathered bit sits at its sample's start plus its rank there.
    at = np.repeat(starts - indptr[:-1], lengths)
    at += np.arange(indptr[-1])
    return _Rows(indptr, rows.indices[at], rows.y[perm], rows.w[perm])


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

    def __call__(self, rows: _Rows, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The columns ``U`` active in the samples ``start:stop`` of
        ``rows``, and their 0/1 matrix over ``U``, valid until the next
        call; every other column of those samples is zero."""
        self.buf[self.ones] = 0.0
        indptr = rows.indptr[start : stop + 1]
        cols, col_of = self.columns(rows.indices[indptr[0] : indptr[-1]])
        size = (stop - start) * len(cols)
        if self.buf.size < size:
            self.buf = np.zeros(size, dtype=np.float64)
        # A bit of the batch's k-th sample is a one at k * |U| + its column.
        self.ones = np.repeat(np.arange(stop - start), indptr[1:] - indptr[:-1])
        self.ones *= len(cols)
        self.ones += col_of
        self.buf[self.ones] = 1.0
        return cols, self.buf[:size].reshape(stop - start, len(cols))


# Rows per logits product. The logits of a batch of at least twice this
# many rows are computed in pieces of this many rows, the last piece taking
# the remainder, which is faster than one product of the whole batch.
# Splitting rows is exact only where every piece sums each logit in the
# order the whole product does, which is up to the BLAS: OpenBLAS picks its
# kernel by a product's size, and its kernel for small products can round
# differently once a batch has more than a few hundred active columns. With
# no piece under this many rows, products of the reference world's 23
# templates come out bit for bit as the whole product gives them
# (``TestReferenceScaleTraining``); a 72-row tail piece did not.
_LOGIT_ROWS = 128


def _nll_grad(
    active: np.ndarray, bias: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(logp, grad_w, grad_b)``: each sample's log-probability of its
    label, and the gradient of the batch's total weighted negative
    log-likelihood over the (T, U) active weights and the bias. ``active``
    holds the weights of the batch's U active columns, one C-ordered row of
    T per column, and ``x`` the batch's (B, U) 0/1 matrix; every other
    column adds nothing to the logits and gets a zero gradient. The softmax
    and its residual are computed in place in the logits array."""
    logits = np.empty((len(y), len(bias)))
    starts = range(0, max(len(y) - _LOGIT_ROWS, 0) + 1, _LOGIT_ROWS)
    for start, stop in zip(starts, [*starts[1:], len(y)]):
        np.matmul(x[start:stop], active, out=logits[start:stop])
    logits += bias
    # Row maxima from a transposed copy, where the reduction runs along
    # rows of the batch's length. A maximum is the same whatever order it
    # is taken in; only the sign of a zero maximum may differ, and a zero
    # logit minus either zero exponentiates to 1.0.
    logits -= np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)[:, None]
    labels = (np.arange(len(y)), y)
    logp = logits[labels]
    resid = np.exp(logits, out=logits)
    z = np.add.reduce(resid, axis=1, keepdims=True)
    logp -= np.log(z[:, 0])
    resid /= z
    resid[labels] -= 1.0
    resid *= w[:, None]
    return logp, resid.T @ x, np.add.reduce(resid, axis=0)


def nll_and_grad(
    model: TemplateClassifier, data: Iterable
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total weighted negative log-likelihood and its exact gradient.

    The objective is a weighted sum, so doubling a sample's weight doubles its
    gradient contribution exactly. All samples form one batch, built as
    ``train`` builds its batches.
    """
    return _nll_and_grad(model, _as_rows(model, data))


def _nll_and_grad(model: TemplateClassifier, rows: _Rows) -> tuple[float, np.ndarray, np.ndarray]:
    """``nll_and_grad`` of the samples ``rows``."""
    cols, xs = _Batches(model.dim)(rows, 0, len(rows.y))
    logp, grad_u, grad_b = _nll_grad(model.weights.T[cols], model.bias, xs, rows.y, rows.w)
    grad_w = np.zeros_like(model.weights)
    grad_w[:, cols] = grad_u
    return float(-(rows.w * logp).sum()), grad_w, grad_b


def mean_nll(model: TemplateClassifier, data: Iterable) -> float:
    """``nll_and_grad``'s total over the samples' total weight."""
    rows = _as_rows(model, data)
    total, _, _ = _nll_and_grad(model, rows)
    return total / float(rows.w.sum())


def train(
    model: TemplateClassifier, data: Iterable, cfg: TrainConfig, seed: int
) -> TemplateClassifier:
    """Seeded mini-batch gradient ascent on the weighted log-likelihood.

    Each epoch gathers the CSR rows of its permutation once, and each batch
    is a slice of that gather. A step touches only the weight columns its
    batch activates; the rest have a zero gradient. The weights being
    trained are the first D rows of a copy of the model's weight rows, so a
    batch's active columns are contiguous rows to gather and write back,
    and the new classifier keeps that copy as its own. Returns a new
    classifier; the input model is untouched. Identical (model, data, cfg, seed) produce
    bit-identical weights.
    """
    rows = _as_rows(model, data)
    n = len(rows.y)
    weight_rows = model.weight_rows.copy()
    weights = weight_rows[: model.dim]
    bias = model.bias.copy()
    batches = _Batches(model.dim)
    rng = np.random.default_rng(seed)
    for _ in range(cfg.epochs):
        epoch = _gather(rows, rng.permutation(n))
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            cols, xs = batches(epoch, start, stop)
            active = weights[cols]
            _, grad_w, grad_b = _nll_grad(active, bias, xs, epoch.y[start:stop], epoch.w[start:stop])
            scale = cfg.learning_rate / (stop - start)
            grad_w *= scale
            active -= grad_w.T
            weights[cols] = active
            grad_b *= scale
            bias -= grad_b
        del epoch  # so that two epochs are never held at once
    return replace(model, weights=weights.T, bias=bias)


def topk_exact_match(
    model: TemplateClassifier, test: Sequence[Reaction], ks: Sequence[int], world: World
) -> tuple[float, ...]:
    """For each k in ``ks``, the fraction of reactions whose true reactant set
    appears in the top-k. Each reaction is ranked once, to the largest k: a
    top-k list is a prefix of every longer one. The test products are
    scored together, in one ``score_products`` call. An empty test set
    gives nan for every k."""
    if model.role == ROLE_FORWARD:
        raise InvalidInput("exact match accuracy is defined for backward models")
    if not test:
        return (math.nan,) * len(ks)
    score_products(model, [rx.product for rx in test])
    hits = [0] * len(ks)
    for rx in test:
        truth = tuple(r.text for r in rx.reactants)
        outcomes = [
            tuple(m.text for m in outcome)  # type: ignore[union-attr]
            for _tid, _probability, outcome in predict_topk(model, rx.product, max(ks), world)
        ]
        for j, k in enumerate(ks):
            hits[j] += truth in outcomes[:k]
    return tuple(h / len(test) for h in hits)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: TemplateClassifier, path: str | Path) -> None:
    """Write ``json.dumps(doc, sort_keys=True)`` plus a newline, where
    ``doc["weights"]`` (row-major) and ``doc["bias"]`` are the base64 text of
    their little-endian float64 bytes, so every value keeps all its bits."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "role": model.role,
        "dim": model.dim,
        "template_index": list(model.template_index),
        "weights": base64.b64encode(model.weights.astype("<f8").tobytes()).decode(),
        "bias": base64.b64encode(model.bias.astype("<f8").tobytes()).decode(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _block(doc: dict, name: str, n: int, path: str | Path) -> np.ndarray:
    """The ``n`` float64 values of a checkpoint's base64 field ``name``, as a
    read-only little-endian view of the decoded bytes."""
    try:
        raw = base64.b64decode(doc[name], validate=True)
    except (TypeError, ValueError) as exc:  # not a string, or not base64
        raise CheckpointError(f"checkpoint {path} field {name!r} is not base64: {exc}") from exc
    if len(raw) != 8 * n:
        raise CheckpointError(f"checkpoint {path} field {name!r} is not {n} float64 values")
    return np.frombuffer(raw, dtype="<f8")


def load_checkpoint(path: str | Path) -> TemplateClassifier:
    """The classifier a ``save_checkpoint`` file holds. A file that cannot
    be read, or whose fields are missing or of the wrong type or length,
    raises CheckpointError naming it."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    for name in ("version", "role", "dim", "template_index", "weights", "bias"):
        if name not in doc:
            raise CheckpointError(f"checkpoint {path} missing field {name!r}")
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
        weights=_block(doc, "weights", t * d, path).reshape(t, d),
        bias=_block(doc, "bias", t, path).astype(np.float64),
        template_index=tuple(index),
        role=doc["role"],
    )
