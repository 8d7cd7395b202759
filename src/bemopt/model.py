"""Sequence metamodel: windowed-attention encoder-decoder and an FFN baseline.

The transformer maps a week of normalized inputs [168, D_in] to the eight
output channels.  Position t attends to t-delta .. t+delta per layer, so a
stack of N attention steps (N-1 encoder self-attention layers plus one
decoder cross-attention layer) has a receptive field of exactly N*delta
hours on each side.  The decoder queries come from the embedded input
sequence; its keys and values come from the encoder output.

Residual connections, layer normalization, and a fixed sinusoidal position
signal keep the stack trainable; initialization is uniform at 1/sqrt(fan_in).

The weights are float64 arrays keyed by dotted names; a forward also takes
them as gradient leaves, as `training.train`'s float32 shards do.
`FrozenModel` pairs them with their config and corpus normalization: the one
value `training.predict` runs and the one reader and writer of the checkpoint.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping

import numpy as np

from . import autodiff as ad
from .schema import DEFAULT_SCHEMA, NormStats, SchemaError

# amplitude of the sinusoidal position signal added to the embedded inputs
POS_SCALE = 0.3


class ModelError(RuntimeError):
    """A non-finite model output or training loss, a search score that
    overflows on finite outputs, or a front with no finite member; raised
    only by `training.predict`, `training.train`, `pareto.evaluate_settings`,
    `pareto.optimize_bms` and `calibration.cma_minimize`."""


@dataclasses.dataclass(frozen=True)
class MetamodelConfig:
    """Architecture hyperparameters; defaults follow the tuned values."""

    d_in: int
    d_out: int = 8
    d_emb: int = 64
    r: int = 8          # per-head query/key width
    v_width: int = 8    # per-head value width
    h: int = 8          # attention heads
    n_layers: int = 4   # total attention steps (encoder layers + 1 decoder)
    delta: int = 12     # attention half-window, hours

    def __post_init__(self):
        for name in _CONFIG_KEYS:
            val = getattr(self, name)
            if not isinstance(val, int) or val < 1:
                raise SchemaError(f"MetamodelConfig.{name} must be a positive int, got {val!r}")

    @property
    def ffn_width(self) -> int:
        return 2 * self.d_emb

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _CONFIG_KEYS}

    @classmethod
    def from_dict(cls, d: Mapping) -> "MetamodelConfig":
        if not isinstance(d, Mapping):
            raise SchemaError(f"MetamodelConfig: want an object, got a {type(d).__name__}")
        unknown = set(d) - set(_CONFIG_KEYS)
        if unknown:
            raise SchemaError(f"MetamodelConfig: unknown fields {sorted(unknown)}")
        if "d_in" not in d:
            raise SchemaError("MetamodelConfig: missing required field 'd_in'")
        return cls(**d)


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(MetamodelConfig))


def positional_encoding(length: int, d_emb: int) -> np.ndarray:
    """Fixed sinusoidal position matrix [length, d_emb]."""
    pos = np.arange(length)[:, None]
    i = np.arange(d_emb)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d_emb)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


@functools.lru_cache(maxsize=8)
def _position_signal(length: int, d_emb: int, dtype: np.dtype) -> np.ndarray:
    """POS_SCALE * positional_encoding(length, d_emb) in dtype, made once per
    shape and dtype and shared read-only by every forward."""
    pos = (POS_SCALE * positional_encoding(length, d_emb)).astype(dtype)
    pos.flags.writeable = False
    return pos


def _uniform(rng, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[-1])
    return rng.uniform(-bound, bound, size=shape)


def _init_block(p, prefix: str, cfg: MetamodelConfig, rng) -> None:
    d = cfg.d_emb
    p[f"{prefix}.q.W"] = _uniform(rng, (cfg.h * cfg.r, d))
    p[f"{prefix}.k.W"] = _uniform(rng, (cfg.h * cfg.r, d))
    p[f"{prefix}.v.W"] = _uniform(rng, (cfg.h * cfg.v_width, d))
    p[f"{prefix}.proj.W"] = _uniform(rng, (d, cfg.h * cfg.v_width))
    p[f"{prefix}.proj.b"] = np.zeros(d)
    p[f"{prefix}.ln1.g"] = np.ones(d)
    p[f"{prefix}.ln1.b"] = np.zeros(d)
    p[f"{prefix}.ffn.W1"] = _uniform(rng, (cfg.ffn_width, d))
    p[f"{prefix}.ffn.b1"] = np.zeros(cfg.ffn_width)
    p[f"{prefix}.ffn.W2"] = _uniform(rng, (d, cfg.ffn_width))
    p[f"{prefix}.ffn.b2"] = np.zeros(d)
    p[f"{prefix}.ln2.g"] = np.ones(d)
    p[f"{prefix}.ln2.b"] = np.zeros(d)


def init_transformer(cfg: MetamodelConfig, rng) -> dict[str, np.ndarray]:
    """Fresh float64 weight arrays keyed by dotted names, insertion-ordered."""
    p = {}
    p["emb.W"] = _uniform(rng, (cfg.d_emb, cfg.d_in))
    p["emb.b"] = np.zeros(cfg.d_emb)
    for i in range(cfg.n_layers - 1):
        _init_block(p, f"enc{i}", cfg, rng)
    _init_block(p, "dec", cfg, rng)
    p["out.W"] = _uniform(rng, (cfg.d_out, cfg.d_emb))
    p["out.b"] = np.zeros(cfg.d_out)
    return p


def embed(params: dict, cfg: MetamodelConfig, x) -> ad.Tensor:
    """Shared affine lift of every time step into the latent width."""
    x = x if isinstance(x, ad.Tensor) else ad.constant(x)
    if x.data.ndim != 3 or x.data.shape[2] != cfg.d_in:
        raise ValueError(f"embed: expected [batch, time, {cfg.d_in}], got {x.shape}")
    return ad.add(ad.matmul(x, params["emb.W"], transpose_b=True), params["emb.b"])


def attention_block(params: dict, cfg: MetamodelConfig, q_src, kv_src, prefix: str) -> ad.Tensor:
    """One attention step: multi-head windowed attention, then the FFN.

    q_src supplies the queries and the residual stream; kv_src supplies keys
    and values (equal to q_src for self-attention, the encoder output for
    the decoder's cross-attention).
    """
    scale = 1.0 / np.sqrt(cfg.r)
    qh = ad.split_heads(ad.mul(ad.matmul(q_src, params[f"{prefix}.q.W"], transpose_b=True), scale), cfg.h)
    kh = ad.split_heads(ad.matmul(kv_src, params[f"{prefix}.k.W"], transpose_b=True), cfg.h)
    vh = ad.split_heads(ad.matmul(kv_src, params[f"{prefix}.v.W"], transpose_b=True), cfg.h)
    heads = ad.merge_heads(ad.windowed_attention(qh, kh, vh, cfg.delta), cfg.h)
    att = ad.add(ad.matmul(heads, params[f"{prefix}.proj.W"], transpose_b=True),
                 params[f"{prefix}.proj.b"])
    x = ad.layer_norm(ad.add(q_src, att), params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    hidden = ad.relu(ad.add(ad.matmul(x, params[f"{prefix}.ffn.W1"], transpose_b=True),
                            params[f"{prefix}.ffn.b1"]))
    ff = ad.add(ad.matmul(hidden, params[f"{prefix}.ffn.W2"], transpose_b=True),
                params[f"{prefix}.ffn.b2"])
    return ad.layer_norm(ad.add(x, ff), params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])


def transformer_forward(params: dict, cfg: MetamodelConfig, x) -> ad.Tensor:
    """[batch, time, d_in] normalized inputs -> [batch, time, d_out]."""
    z = embed(params, cfg, x)
    pos = _position_signal(z.data.shape[1], cfg.d_emb, z.data.dtype)
    z = ad.add(z, ad.constant(np.broadcast_to(pos, z.data.shape)))
    queries = z
    for i in range(cfg.n_layers - 1):
        z = attention_block(params, cfg, z, z, f"enc{i}")
    z = attention_block(params, cfg, queries, z, "dec")
    return ad.add(ad.matmul(z, params["out.W"], transpose_b=True), params["out.b"])


def init_ffn(cfg: MetamodelConfig, rng) -> dict[str, np.ndarray]:
    p = {}
    p["l1.W"] = _uniform(rng, (cfg.d_emb, cfg.d_in))
    p["l1.b"] = np.zeros(cfg.d_emb)
    p["l2.W"] = _uniform(rng, (cfg.d_emb, cfg.d_emb))
    p["l2.b"] = np.zeros(cfg.d_emb)
    p["out.W"] = _uniform(rng, (cfg.d_out, cfg.d_emb))
    p["out.b"] = np.zeros(cfg.d_out)
    return p


def ffn_forward(params: dict, cfg: MetamodelConfig, x) -> ad.Tensor:
    """Per-time-step two-hidden-layer perceptron; no temporal mixing."""
    x = x if isinstance(x, ad.Tensor) else ad.constant(x)
    if x.data.ndim != 3 or x.data.shape[2] != cfg.d_in:
        raise ValueError(f"ffn_forward: expected [batch, time, {cfg.d_in}], got {x.shape}")
    z = ad.relu(ad.add(ad.matmul(x, params["l1.W"], transpose_b=True), params["l1.b"]))
    z = ad.relu(ad.add(ad.matmul(z, params["l2.W"], transpose_b=True), params["l2.b"]))
    return ad.add(ad.matmul(z, params["out.W"], transpose_b=True), params["out.b"])


FORWARDS = {"transformer": transformer_forward, "ffn": ffn_forward}
INITS = {"transformer": init_transformer, "ffn": init_ffn}


def forward_for(kind: str):
    if kind not in FORWARDS:
        raise ValueError(f"unknown model kind {kind!r}, want one of {sorted(FORWARDS)}")
    return FORWARDS[kind]


@dataclasses.dataclass(frozen=True)
class FrozenModel:
    """A trained surrogate with everything needed to run it.

    `params` maps weight names to float64 arrays, held, not copied, so
    `training.train` validates through a model over the arrays it trains.
    Construction checks that `kind` names an architecture and that the
    parameter names and shapes are the ones it builds from `config`. The
    checkpoint `model.bin` is written by `save` and read by `load` alone;
    its meta holds exactly `kind`, `config` and `norm`.
    """

    params: dict[str, np.ndarray]
    config: MetamodelConfig
    kind: str
    norm: NormStats

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in FORWARDS:
            raise ValueError(f"unknown model kind {self.kind!r}, want one of {sorted(FORWARDS)}")
        fresh = INITS[self.kind](self.config, np.random.default_rng(0))
        if set(self.params) != set(fresh):
            missing = sorted(set(fresh) - set(self.params))
            extra = sorted(set(self.params) - set(fresh))
            raise ValueError(f"parameter names do not match the architecture "
                             f"(missing {missing}, unexpected {extra})")
        wrong = [f"{name} {self.params[name].shape} (want {w.shape})"
                 for name, w in fresh.items() if self.params[name].shape != w.shape]
        if wrong:
            raise ValueError(f"parameter shapes do not match the config: {', '.join(wrong)}")

    def save(self, path) -> None:
        meta = {"kind": self.kind, "config": self.config.to_dict(), "norm": self.norm.to_dict()}
        ad.save_tensors(path, self.params, meta=meta)

    @classmethod
    def load(cls, path) -> "FrozenModel":
        """Read a checkpoint. A malformed container or meta, weights that do
        not fit the config, widths other than the variable declaration's, or
        unusable normalization stats raise one SchemaError naming the path."""
        tensors, meta = ad.load_tensors(path)  # a malformed container names the path
        try:
            if not isinstance(meta, Mapping):
                raise ValueError(f"model meta is a {type(meta).__name__}, not an object")
            missing = [key for key in ("kind", "config") if key not in meta]
            if missing:
                raise ValueError(f"model meta missing {missing}")
            cfg = MetamodelConfig.from_dict(meta["config"])
            widths = (DEFAULT_SCHEMA.d_in, DEFAULT_SCHEMA.d_out)
            if (cfg.d_in, cfg.d_out) != widths:
                raise ValueError(f"model widths ({cfg.d_in}, {cfg.d_out}) do not match "
                                 f"the declaration {widths}")
            try:
                norm = NormStats.from_dict(meta["norm"])
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"missing or malformed normalization stats "
                                 f"({type(e).__name__}: {e})") from None
            return cls(tensors, cfg, meta["kind"], norm)
        except ValueError as e:
            raise SchemaError(f"{path}: {e}") from None
