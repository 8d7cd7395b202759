"""Architecture tests: config plumbing, attention locality, baselines, IO."""

import dataclasses
import warnings

import numpy as np
import pytest

from bemopt import autodiff as ad
from bemopt import model as md
from bemopt.schema import DEFAULT_SCHEMA, NormStats
from bemopt.seeding import stream
from bemopt.training import predict
from tests.conftest import grad_check

TINY = md.MetamodelConfig(d_in=3, d_out=2, d_emb=4, r=2, v_width=2, h=2,
                          n_layers=2, delta=2)
# a checkpoint must match the variable declaration's widths
CKPT = md.MetamodelConfig(d_in=DEFAULT_SCHEMA.d_in, d_emb=4, r=2, v_width=2, h=2,
                          n_layers=2, delta=2)


def tiny_params(seed=0, cfg=TINY):
    return md.init_transformer(cfg, stream(seed, "init"))


def identity_norm(cfg):
    return NormStats(np.zeros(cfg.d_in), np.ones(cfg.d_in), np.zeros(cfg.d_out),
                     np.ones(cfg.d_out))


def ckpt_model(seed, kind="transformer"):
    return md.FrozenModel(md.INITS[kind](CKPT, stream(seed, "init")), CKPT, kind,
                          identity_norm(CKPT))


class TestConfig:
    def test_defaults_match_tuned_values(self):
        cfg = md.MetamodelConfig(d_in=37)
        assert (cfg.d_emb, cfg.r, cfg.v_width, cfg.h) == (64, 8, 8, 8)
        assert (cfg.n_layers, cfg.delta, cfg.d_out) == (4, 12, 8)
        assert cfg.ffn_width == 128

    def test_round_trip(self):
        cfg = md.MetamodelConfig(d_in=37, d_emb=32, delta=6)
        assert md.MetamodelConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="delta"):
            md.MetamodelConfig(d_in=5, delta=0)
        with pytest.raises(ValueError, match="d_emb"):
            md.MetamodelConfig(d_in=5, d_emb=-1)
        with pytest.raises(ValueError, match="unknown"):
            md.MetamodelConfig.from_dict({"d_in": 5, "width": 7})
        with pytest.raises(ValueError, match="d_in"):
            md.MetamodelConfig.from_dict({"d_emb": 16})


class TestPositionalEncoding:
    def test_shape_and_range(self):
        enc = md.positional_encoding(168, 64)
        assert enc.shape == (168, 64)
        assert np.abs(enc).max() <= 1.0

    def test_deterministic_and_distinct_rows(self):
        a = md.positional_encoding(24, 16)
        b = md.positional_encoding(24, 16)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a[3], a[17])

    def test_even_columns_sine_odd_cosine(self):
        enc = md.positional_encoding(4, 6)
        np.testing.assert_allclose(enc[0, 0::2], 0.0, atol=1e-15)
        np.testing.assert_allclose(enc[0, 1::2], 1.0, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forwards_share_one_read_only_position_signal(self, monkeypatch, dtype):
        """The scaled signal is computed once per length, width and dtype:
        later forwards add the same read-only array, with the same bits as
        scaling and casting the encoding afresh."""
        md._position_signal.cache_clear()
        made = []
        encoding = md.positional_encoding

        def count(length, d_emb):
            made.append((length, d_emb))
            return encoding(length, d_emb)

        monkeypatch.setattr(md, "positional_encoding", count)
        added = []
        add = ad.add

        def spy(a, b):
            added.append(b)
            return add(a, b)

        monkeypatch.setattr(ad, "add", spy)
        p = {n: ad.constant(t.data.astype(dtype)) for n, t in tiny_params().items()}
        x = np.random.default_rng(2).normal(size=(2, 5, 3)).astype(dtype)
        first = md.transformer_forward(p, TINY, x).data
        signals = [t.data for t in added if isinstance(t, ad.Tensor)
                   and t.data.shape == (2, 5, TINY.d_emb) and t.data.strides[0] == 0]
        again = md.transformer_forward(p, TINY, x).data
        assert made == [(5, TINY.d_emb)]
        assert again.tobytes() == first.tobytes()
        pos = md._position_signal(5, TINY.d_emb, np.dtype(dtype))
        assert pos.dtype == dtype and not pos.flags.writeable
        assert len(signals) == 1 and np.shares_memory(signals[0], pos)
        want = (md.POS_SCALE * encoding(5, TINY.d_emb)).astype(dtype)
        assert pos.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            pos[0, 0] = 1.0
        md._position_signal.cache_clear()


class TestEmbed:
    def test_zero_weight_gives_bias(self):
        p = tiny_params()
        p["emb.W"] = ad.parameter(np.zeros_like(p["emb.W"].data))
        p["emb.b"] = ad.parameter(np.array([1.0, -2.0, 0.5, 3.0]))
        out = md.embed(p, TINY, np.random.default_rng(0).normal(size=(2, 5, 3)))
        np.testing.assert_allclose(out.data, np.broadcast_to([1.0, -2.0, 0.5, 3.0], (2, 5, 4)))

    def test_equal_rows_equal_embeddings(self):
        p = tiny_params()
        x = np.random.default_rng(1).normal(size=(1, 4, 3))
        x[0, 2] = x[0, 0]
        out = md.embed(p, TINY, x)
        np.testing.assert_array_equal(out.data[0, 2], out.data[0, 0])

    def test_matches_hand_matmul(self):
        p = tiny_params()
        rng = stream(2, "emb")
        x = rng.normal(size=(1, 3, 3))
        out = md.embed(p, TINY, x)
        for t in range(3):
            expect = p["emb.W"].data @ x[0, t] + p["emb.b"].data
            np.testing.assert_allclose(out.data[0, t], expect, rtol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            md.embed(tiny_params(), TINY, np.ones((1, 4, 7)))


class TestAttentionBlock:
    def test_single_layer_locality(self):
        """Perturbations beyond the window leave a layer's output unchanged."""
        cfg = TINY
        p = tiny_params(3)
        rng = stream(3, "loc")
        x = rng.normal(size=(1, 15, cfg.d_emb))
        base = md.attention_block(p, cfg, ad.constant(x), ad.constant(x), "enc0")
        k = 7
        for dist, expect_zero in ((cfg.delta + 1, True), (cfg.delta + 3, True),
                                  (cfg.delta, False)):
            bumped = x.copy()
            bumped[0, k + dist] += 1.0
            out = md.attention_block(p, cfg, ad.constant(bumped), ad.constant(bumped), "enc0")
            diff = np.abs(out.data[0, k] - base.data[0, k]).max()
            if expect_zero:
                assert diff <= 1e-12, f"distance {dist}: leaked {diff}"
            else:
                assert diff > 0.0

    def test_single_head_matches_primitive_path(self):
        """h=1 collapses to one plain windowed-attention computation."""
        cfg = md.MetamodelConfig(d_in=3, d_out=2, d_emb=4, r=3, v_width=5, h=1,
                                 n_layers=2, delta=2)
        p = md.init_transformer(cfg, stream(4, "init"))
        rng = stream(4, "x")
        x = ad.constant(rng.normal(size=(2, 9, 4)))
        got = md.attention_block(p, cfg, x, x, "enc0")

        q = ad.mul(ad.matmul(x, p["enc0.q.W"], transpose_b=True), 1 / np.sqrt(cfg.r))
        k = ad.matmul(x, p["enc0.k.W"], transpose_b=True)
        v = ad.matmul(x, p["enc0.v.W"], transpose_b=True)
        att = ad.add(ad.matmul(ad.windowed_attention(q, k, v, cfg.delta),
                               p["enc0.proj.W"], transpose_b=True), p["enc0.proj.b"])
        z = ad.layer_norm(ad.add(x, att), p["enc0.ln1.g"], p["enc0.ln1.b"])
        ff = ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(z, p["enc0.ffn.W1"], transpose_b=True),
                                             p["enc0.ffn.b1"])),
                              p["enc0.ffn.W2"], transpose_b=True), p["enc0.ffn.b2"])
        expect = ad.layer_norm(ad.add(z, ff), p["enc0.ln2.g"], p["enc0.ln2.b"])
        np.testing.assert_allclose(got.data, expect.data, atol=1e-12)

    @pytest.mark.parametrize("field,value", [
        ("d_emb", 16), ("d_emb", 32), ("d_emb", 64), ("d_emb", 128),
        ("r", 4), ("r", 8), ("r", 16),
        ("v_width", 4), ("v_width", 8), ("v_width", 16),
        ("h", 4), ("h", 8), ("h", 16),
        ("n_layers", 4), ("n_layers", 8), ("n_layers", 16),
        ("delta", 6), ("delta", 12), ("delta", 24),
    ])
    def test_layer_preserves_shape_across_grid(self, field, value):
        cfg = md.MetamodelConfig(**{**md.MetamodelConfig(d_in=37).to_dict(), field: value})
        p = md.init_transformer(cfg, stream(5, "init"))
        x = ad.constant(stream(5, "x").normal(size=(1, 168, cfg.d_emb)))
        out = md.attention_block(p, cfg, x, x, "enc0")
        assert out.shape == (1, 168, cfg.d_emb)


class TestTransformerForward:
    def test_untrained_output_finite_with_shape(self):
        cfg = md.MetamodelConfig(d_in=37)
        p = md.init_transformer(cfg, stream(6, "init"))
        x = stream(6, "x").random((2, 168, 37))
        out = md.transformer_forward(p, cfg, x)
        assert out.shape == (2, 168, 8)
        assert np.isfinite(out.data).all()

    def test_receptive_field_is_n_layers_times_delta(self):
        cfg = md.MetamodelConfig(d_in=3, d_out=2, d_emb=4, r=2, v_width=2, h=2,
                                 n_layers=2, delta=3)
        p = md.init_transformer(cfg, stream(7, "init"))
        rng = stream(7, "x")
        x = rng.random((1, 20, 3))
        base = md.transformer_forward(p, cfg, x).data
        k = 9
        reach = cfg.n_layers * cfg.delta
        inside = x.copy()
        inside[0, k + reach] += 0.5
        assert np.abs(md.transformer_forward(p, cfg, inside).data[0, k] - base[0, k]).max() > 0
        outside = x.copy()
        outside[0, k + reach + 1] += 0.5
        assert np.abs(md.transformer_forward(p, cfg, outside).data[0, k] - base[0, k]).max() <= 1e-12

    def test_decoder_queries_come_from_embedded_inputs(self):
        # with one total layer there is no encoder stack, only cross-attention
        cfg = md.MetamodelConfig(d_in=3, d_out=2, d_emb=4, r=2, v_width=2, h=2,
                                 n_layers=1, delta=2)
        p = md.init_transformer(cfg, stream(8, "init"))
        assert not any(k.startswith("enc") for k in p)
        x = stream(8, "x").random((1, 10, 3))
        out = md.transformer_forward(p, cfg, x)
        assert out.shape == (1, 10, 2)

    def test_deterministic_under_seed(self):
        cfg = TINY
        a = md.init_transformer(cfg, stream(9, "init"))
        b = md.init_transformer(cfg, stream(9, "init"))
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)
        x = stream(9, "x").random((1, 8, 3))
        np.testing.assert_array_equal(md.transformer_forward(a, cfg, x).data,
                                      md.transformer_forward(b, cfg, x).data)

    def test_full_gradient_check_small(self):
        cfg = TINY
        p = tiny_params(11)
        rng = stream(11, "x")
        x = rng.random((1, 6, 3))
        tgt = ad.constant(rng.normal(size=(1, 6, 2)))
        params = list(p.values())
        err = grad_check(
            lambda: ad.mean(ad.square(ad.sub(md.transformer_forward(p, cfg, x), tgt))),
            params)
        assert err < 1e-4


# the embedding (or first layer), an encoder layer, the decoder and the head
POISONED_WEIGHTS = {
    "transformer": ("emb.b", "enc0.ffn.W2", "dec.proj.W", "out.W"),
    "ffn": ("l1.b", "l2.W", "out.W"),
}


@pytest.mark.parametrize("kind", sorted(POISONED_WEIGHTS))
def test_predict_raises_once_on_a_nonfinite_weight(kind):
    """`predict` is the one finiteness check of inference: a NaN or inf weight
    in any layer raises ModelError, and no numpy warning comes before it."""
    x = stream(10, "x").random((2, 8, TINY.d_in))
    norm = identity_norm(TINY)
    for name in POISONED_WEIGHTS[kind]:
        for bad in (np.nan, np.inf):
            p = md.INITS[kind](TINY, stream(10, "init"))
            p[name].data.flat[0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(md.ModelError, match=f"{kind} model: non-finite output"):
                    predict(p, TINY, kind, x, norm)


class TestFfnBaseline:
    def test_shapes(self):
        cfg = md.MetamodelConfig(d_in=37)
        p = md.init_ffn(cfg, stream(12, "init"))
        out = md.ffn_forward(p, cfg, stream(12, "x").random((3, 168, 37)))
        assert out.shape == (3, 168, 8)

    def test_permuting_time_permutes_outputs(self):
        cfg = md.MetamodelConfig(d_in=5, d_out=3)
        p = md.init_ffn(cfg, stream(13, "init"))
        rng = stream(13, "x")
        x = rng.random((1, 20, 5))
        perm = rng.permutation(20)
        out = md.ffn_forward(p, cfg, x).data
        out_perm = md.ffn_forward(p, cfg, x[:, perm]).data
        np.testing.assert_array_equal(out_perm, out[:, perm])

    def test_gradient_check(self):
        cfg = md.MetamodelConfig(d_in=3, d_out=2, d_emb=4)
        p = md.init_ffn(cfg, stream(14, "init"))
        rng = stream(14, "x")
        x = rng.random((1, 5, 3))
        tgt = ad.constant(rng.normal(size=(1, 5, 2)))
        err = grad_check(
            lambda: ad.mean(ad.square(ad.sub(md.ffn_forward(p, cfg, x), tgt))),
            list(p.values()))
        assert err < 1e-4


class TestModelIO:
    def test_round_trip_preserves_predictions(self, tmp_path):
        m = ckpt_model(15)
        path = tmp_path / "model.bin"
        m.save(path)
        back = md.FrozenModel.load(path)
        assert back.kind == "transformer" and back.config == CKPT
        assert back.norm.to_dict() == m.norm.to_dict()
        x = stream(15, "x").random((1, 7, CKPT.d_in))
        np.testing.assert_array_equal(md.transformer_forward(m.params, CKPT, x).data,
                                      md.transformer_forward(back.params, back.config, x).data)

    def test_meta_holds_kind_config_and_norm_only(self, tmp_path):
        path = tmp_path / "model.bin"
        ckpt_model(15).save(path)
        _, meta = ad.load_tensors(path)
        assert set(meta) == {"kind", "config", "norm"}
        assert set(meta["config"]) == {f.name for f in dataclasses.fields(md.MetamodelConfig)}

    def test_save_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        ckpt_model(16).save(a)
        ckpt_model(16).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_ffn_round_trip(self, tmp_path):
        m = ckpt_model(17, "ffn")
        path = tmp_path / "ffn.bin"
        m.save(path)
        back = md.FrozenModel.load(path)
        assert back.kind == "ffn"
        x = stream(17, "x").random((2, 6, CKPT.d_in))
        np.testing.assert_array_equal(md.ffn_forward(m.params, CKPT, x).data,
                                      md.ffn_forward(back.params, back.config, x).data)

    def test_unknown_kind_rejected(self):
        for kind in ("lstm", ["transformer"]):
            with pytest.raises(ValueError, match="kind"):
                md.FrozenModel(tiny_params(), TINY, kind, identity_norm(TINY))

    def test_name_mismatch_rejected(self, tmp_path):
        m = ckpt_model(18)
        p = dict(m.params)
        del p["dec.ffn.b2"]
        with pytest.raises(ValueError, match="missing"):
            md.FrozenModel(p, CKPT, "transformer", m.norm)
        path = tmp_path / "model.bin"
        m.save(path)
        tensors, meta = ad.load_tensors(path)
        del tensors["dec.ffn.b2"]
        ad.save_tensors(path, tensors, meta=meta)
        with pytest.raises(ValueError, match="missing"):
            md.FrozenModel.load(path)


@pytest.mark.parametrize("edit, match", [
    (lambda meta: meta["config"].update(delta="2"), "delta"),
    (lambda meta: meta["config"].update(pos_scale=0.3), r"unknown fields \['pos_scale'\]"),
    (lambda meta: meta.pop("config"), "missing"),
    (lambda meta: meta.update(norm=[]), "normalization"),
    (lambda meta: meta["norm"].update(target_std="wide"), "normalization"),
])
def test_malformed_meta_raises_one_value_error_naming_the_path(tmp_path, edit, match):
    """Wrong JSON types or fields in the meta are bad input, not a crash:
    each case raises ValueError (so the CLI exits 3), never a TypeError.
    tests/test_cli.py covers a list for the meta, `kind` or `config`."""
    path = tmp_path / "model.bin"
    ckpt_model(19).save(path)
    tensors, meta = ad.load_tensors(path)
    edit(meta)
    ad.save_tensors(path, tensors, meta=meta)
    with pytest.raises(ValueError, match=match) as info:
        md.FrozenModel.load(path)
    assert str(info.value).startswith(f"{path}: ")
