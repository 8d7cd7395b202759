"""Sequence metamodel: windowed-attention encoder-decoder and an FFN baseline.

The transformer maps a week of normalized inputs [168, D_in] to the eight
output channels.  Position t attends to t-delta .. t+delta per layer, so a
stack of N attention steps (N-1 encoder self-attention layers plus one
decoder cross-attention layer) has a receptive field of exactly N*delta
hours on each side.  The decoder queries come from the embedded input
sequence; its keys and values come from the encoder output.

Residual connections, layer normalization, and a fixed sinusoidal position
signal keep the stack trainable; initialization is uniform at 1/sqrt(fan_in).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad

_CONFIG_KEYS = ("d_in", "d_out", "d_emb", "r", "v_width", "h",
                "n_layers", "delta", "pos_scale")


class ModelError(RuntimeError):
    pass


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
    pos_scale: float = 0.3

    def __post_init__(self):
        for name in ("d_in", "d_out", "d_emb", "r", "v_width", "h", "n_layers", "delta"):
            val = getattr(self, name)
            if not isinstance(val, int) or val < 1:
                raise ValueError(f"MetamodelConfig.{name} must be a positive int, got {val!r}")
        if self.pos_scale < 0:
            raise ValueError(f"MetamodelConfig.pos_scale must be >= 0, got {self.pos_scale}")

    @property
    def ffn_width(self) -> int:
        return 2 * self.d_emb

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _CONFIG_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "MetamodelConfig":
        unknown = set(d) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"MetamodelConfig: unknown fields {sorted(unknown)}")
        if "d_in" not in d:
            raise ValueError("MetamodelConfig: missing required field 'd_in'")
        return cls(**d)


def positional_encoding(length: int, d_emb: int) -> np.ndarray:
    """Fixed sinusoidal position matrix [length, d_emb]."""
    pos = np.arange(length)[:, None]
    i = np.arange(d_emb)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d_emb)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def _uniform(rng, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[-1])
    return rng.uniform(-bound, bound, size=shape)


def _init_block(p, prefix: str, cfg: MetamodelConfig, rng) -> None:
    d = cfg.d_emb
    p[f"{prefix}.q.W"] = ad.parameter(_uniform(rng, (cfg.h * cfg.r, d)))
    p[f"{prefix}.k.W"] = ad.parameter(_uniform(rng, (cfg.h * cfg.r, d)))
    p[f"{prefix}.v.W"] = ad.parameter(_uniform(rng, (cfg.h * cfg.v_width, d)))
    p[f"{prefix}.proj.W"] = ad.parameter(_uniform(rng, (d, cfg.h * cfg.v_width)))
    p[f"{prefix}.proj.b"] = ad.parameter(np.zeros(d))
    p[f"{prefix}.ln1.g"] = ad.parameter(np.ones(d))
    p[f"{prefix}.ln1.b"] = ad.parameter(np.zeros(d))
    p[f"{prefix}.ffn.W1"] = ad.parameter(_uniform(rng, (cfg.ffn_width, d)))
    p[f"{prefix}.ffn.b1"] = ad.parameter(np.zeros(cfg.ffn_width))
    p[f"{prefix}.ffn.W2"] = ad.parameter(_uniform(rng, (d, cfg.ffn_width)))
    p[f"{prefix}.ffn.b2"] = ad.parameter(np.zeros(d))
    p[f"{prefix}.ln2.g"] = ad.parameter(np.ones(d))
    p[f"{prefix}.ln2.b"] = ad.parameter(np.zeros(d))


def init_transformer(cfg: MetamodelConfig, rng) -> dict:
    """Fresh parameter dict keyed by dotted names, insertion-ordered."""
    p = {}
    p["emb.W"] = ad.parameter(_uniform(rng, (cfg.d_emb, cfg.d_in)))
    p["emb.b"] = ad.parameter(np.zeros(cfg.d_emb))
    for i in range(cfg.n_layers - 1):
        _init_block(p, f"enc{i}", cfg, rng)
    _init_block(p, "dec", cfg, rng)
    p["out.W"] = ad.parameter(_uniform(rng, (cfg.d_out, cfg.d_emb)))
    p["out.b"] = ad.parameter(np.zeros(cfg.d_out))
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


def _check_finite(t: ad.Tensor, where: str) -> None:
    if not np.isfinite(t.data).all():
        raise ModelError(f"{where}: non-finite activation")


def transformer_forward(params: dict, cfg: MetamodelConfig, x) -> ad.Tensor:
    """[batch, time, d_in] normalized inputs -> [batch, time, d_out]."""
    z = embed(params, cfg, x)
    pos = cfg.pos_scale * positional_encoding(z.data.shape[1], cfg.d_emb)
    z = ad.add(z, ad.constant(np.broadcast_to(pos, z.data.shape)))
    _check_finite(z, "embedding")
    queries = z
    for i in range(cfg.n_layers - 1):
        z = attention_block(params, cfg, z, z, f"enc{i}")
        _check_finite(z, f"layer {i}")
    z = attention_block(params, cfg, queries, z, "dec")
    _check_finite(z, f"layer {cfg.n_layers - 1}")
    out = ad.add(ad.matmul(z, params["out.W"], transpose_b=True), params["out.b"])
    _check_finite(out, "output head")
    return out


def init_ffn(cfg: MetamodelConfig, rng) -> dict:
    p = {}
    p["l1.W"] = ad.parameter(_uniform(rng, (cfg.d_emb, cfg.d_in)))
    p["l1.b"] = ad.parameter(np.zeros(cfg.d_emb))
    p["l2.W"] = ad.parameter(_uniform(rng, (cfg.d_emb, cfg.d_emb)))
    p["l2.b"] = ad.parameter(np.zeros(cfg.d_emb))
    p["out.W"] = ad.parameter(_uniform(rng, (cfg.d_out, cfg.d_emb)))
    p["out.b"] = ad.parameter(np.zeros(cfg.d_out))
    return p


def ffn_forward(params: dict, cfg: MetamodelConfig, x) -> ad.Tensor:
    """Per-time-step two-hidden-layer perceptron; no temporal mixing."""
    x = x if isinstance(x, ad.Tensor) else ad.constant(x)
    if x.data.ndim != 3 or x.data.shape[2] != cfg.d_in:
        raise ValueError(f"ffn_forward: expected [batch, time, {cfg.d_in}], got {x.shape}")
    z = ad.relu(ad.add(ad.matmul(x, params["l1.W"], transpose_b=True), params["l1.b"]))
    z = ad.relu(ad.add(ad.matmul(z, params["l2.W"], transpose_b=True), params["l2.b"]))
    out = ad.add(ad.matmul(z, params["out.W"], transpose_b=True), params["out.b"])
    _check_finite(out, "output head")
    return out


FORWARDS = {"transformer": transformer_forward, "ffn": ffn_forward}
INITS = {"transformer": init_transformer, "ffn": init_ffn}


def forward_for(kind: str):
    if kind not in FORWARDS:
        raise ValueError(f"unknown model kind {kind!r}, want one of {sorted(FORWARDS)}")
    return FORWARDS[kind]


def param_list(params: dict) -> list:
    return list(params.values())


def save_model(path, params: dict, cfg: MetamodelConfig, kind: str,
               extra_meta: dict | None = None) -> None:
    if kind not in FORWARDS:
        raise ValueError(f"unknown model kind {kind!r}, want one of {sorted(FORWARDS)}")
    meta = {"kind": kind, "config": cfg.to_dict()}
    if extra_meta:
        meta.update(extra_meta)
    ad.save_tensors(path, {name: t.data for name, t in params.items()}, meta=meta)


def load_model(path):
    """Returns (params dict of trainable Tensors, config, kind, meta)."""
    tensors, meta = ad.load_tensors(path)
    try:
        kind = meta["kind"]
        cfg = MetamodelConfig.from_dict(meta["config"])
    except KeyError as exc:
        raise ValueError(f"{path}: model meta missing {exc}") from exc
    if kind not in FORWARDS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    params = {name: ad.parameter(arr) for name, arr in tensors.items()}
    fresh = INITS[kind](cfg, np.random.default_rng(0))
    if set(params) != set(fresh):
        missing = sorted(set(fresh) - set(params))
        extra = sorted(set(params) - set(fresh))
        raise ValueError(f"{path}: parameter names do not match the architecture "
                         f"(missing {missing}, unexpected {extra})")
    wrong = [f"{name} {params[name].data.shape} (want {p.data.shape})"
             for name, p in fresh.items() if params[name].data.shape != p.data.shape]
    if wrong:
        raise ValueError(f"{path}: parameter shapes do not match the config: {', '.join(wrong)}")
    return params, cfg, kind, meta
