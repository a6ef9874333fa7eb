"""Model behavior: embedding, attention invariants, blocks, param accounting."""

import dataclasses
import json

import numpy as np
import pytest

from rtslab import tensor as T
from rtslab import ConfigError
from rtslab.model.config import ModelConfig, get_preset
from rtslab.model.network import WinPredictor
from rtslab.model.params import count_params, init_params, parameter_spec
from rtslab.rng import SplitMix64
from rtslab.tensor import Tape, Tensor

from oracles import grad_check, mean, mul, softmax
from parameter_counts import census


def small_config(**overrides) -> ModelConfig:
    base = dict(
        layers=1, embed_dim=10, heads=5, channels=5, time_steps=2,
        map_height=8, map_width=8, patch=4,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_input(config: ModelConfig, batch: int, seed: int = 0) -> np.ndarray:
    rng = SplitMix64(seed)
    shape = (batch, config.time_steps, config.channels, config.map_height, config.map_width)
    return np.array([rng.uniform() for _ in range(int(np.prod(shape)))]).reshape(shape)


def zero_out(model: WinPredictor, *names: str) -> None:
    for name in names:
        model.params[name].data[...] = 0.0


class TestConfig:
    def test_published_dimension_algebra(self):
        cfg = get_preset("tstf-8")
        assert cfg.embed_dim // cfg.heads == 31 and cfg.channel_dim == 31
        assert cfg.patches_per_frame == 16
        assert cfg.seq_len == 500 * 16 + 1

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="heads"):
            small_config(embed_dim=11)
        with pytest.raises(ConfigError, match="patch"):
            small_config(map_height=10)

    def test_config_round_trip(self, tmp_path):
        cfg = small_config()
        cfg.save(tmp_path / "c.json")
        assert ModelConfig.load(tmp_path / "c.json") == cfg
        # the file names the one block layout; a file without the entry loads too
        data = json.loads((tmp_path / "c.json").read_text())
        assert data.pop("block_form") == "post_norm"
        (tmp_path / "c.json").write_text(json.dumps(data))
        assert ModelConfig.load(tmp_path / "c.json") == cfg


class TestEmbed:
    def test_sequence_length(self):
        cfg = small_config(time_steps=3)  # N=4 -> 3*4 patches beside the summary
        model = WinPredictor.create(cfg, seed=1)
        summary, patches = model.embed(random_input(cfg, 2, seed=3))
        assert summary.shape == (2, 1, 10)
        assert patches.shape == (2, 12, 10)

    def test_sixteen_patches_per_frame_at_full_scale(self):
        assert get_preset("tstf-6").patches_per_frame == 16

    def test_zero_everything_leaves_position_table(self):
        cfg = small_config()
        model = WinPredictor.create(cfg, seed=2)
        zero_out(model, "embed.weight", "embed.bias", "cls")
        summary, patches = model.embed(np.zeros((1, 2, 5, 8, 8)))
        pos = model.params["pos"].data
        assert np.allclose(summary.data[0], pos[:1], atol=1e-12)
        assert np.allclose(patches.data[0], pos[1:], atol=1e-12)

    def test_input_shape_validation(self):
        cfg = small_config()
        model = WinPredictor.create(cfg, seed=0)
        with pytest.raises(ConfigError, match="incompatible"):
            model.forward(np.zeros((1, 2, 5, 8, 4)))


def manual_single_token_attention(model, x_row, prefix):
    """out-proj(V) for a singleton token, straight from the weight arrays."""
    p = model.params
    v = x_row @ p[f"{prefix}.wv"].data + p[f"{prefix}.bv"].data
    return v @ p[f"{prefix}.wo"].data + p[f"{prefix}.bo"].data


class TestAttentionInvariants:
    def test_spatial_singleton_is_projected_value(self):
        cfg = small_config(map_height=4, map_width=4)  # N=1
        model = WinPredictor.create(cfg, seed=3)
        rng = SplitMix64(9)
        patches = Tensor(
            np.array([rng.normal() for _ in range(2 * 10)]).reshape(1, 2, 10)
        )
        out = model.spatial_attention(patches, 0)
        for t in range(2):
            expect = manual_single_token_attention(model, patches.data[0, t], "layers.0.sa")
            assert np.allclose(out.data[0, t], expect, atol=1e-12)

    def test_temporal_singleton_is_projected_value(self):
        cfg = small_config(time_steps=1)
        model = WinPredictor.create(cfg, seed=4)
        rng = SplitMix64(10)
        patches = Tensor(
            np.array([rng.normal() for _ in range(4 * 10)]).reshape(1, 4, 10)
        )
        out = model.temporal_attention(patches, 0)
        for n in range(4):
            expect = manual_single_token_attention(model, patches.data[0, n], "layers.0.ta")
            assert np.allclose(out.data[0, n], expect, atol=1e-12)

    def test_feature_singleton_is_projected_value(self):
        cfg = small_config(channels=1)  # d' = D
        model = WinPredictor.create(cfg, seed=5)
        rng = SplitMix64(11)
        patches = Tensor(
            np.array([rng.normal() for _ in range(3 * 10)]).reshape(1, 3, 10)
        )
        out = model.feature_attention(patches, 0)
        for m in range(3):
            expect = manual_single_token_attention(model, patches.data[0, m], "layers.0.fa")
            assert np.allclose(out.data[0, m], expect, atol=1e-12)

    def test_attention_rows_stochastic(self):
        # the softmax feeding every attention is row-stochastic by op contract;
        # spot-check through the public op at attention-sized shapes
        rng = SplitMix64(12)
        scores = Tensor(
            np.array([rng.normal() * 30 for _ in range(2 * 5 * 4 * 4)]).reshape(2, 5, 4, 4)
        )
        w = softmax(scores, axis=-1)
        assert np.allclose(w.data.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(w.data >= 0)

    def test_spatial_permutation_equivariance(self):
        cfg = small_config(time_steps=2)  # N=4
        model = WinPredictor.create(cfg, seed=6)
        rng = SplitMix64(13)
        b, tn, d = 1, 2 * 4, 10
        z = np.array([rng.normal() for _ in range(b * tn * d)]).reshape(b, 2, 4, d)
        perm = [2, 0, 3, 1]
        out = model.spatial_attention(Tensor(z.reshape(b, tn, d)), 0).data.reshape(b, 2, 4, d)
        out_perm = model.spatial_attention(
            Tensor(z[:, :, perm, :].reshape(b, tn, d)), 0
        ).data.reshape(b, 2, 4, d)
        assert np.allclose(out_perm, out[:, :, perm, :], atol=1e-9)

    def test_temporal_permutation_equivariance(self):
        cfg = small_config(time_steps=3)
        model = WinPredictor.create(cfg, seed=7)
        rng = SplitMix64(14)
        b, d = 1, 10
        z = np.array([rng.normal() for _ in range(3 * 4 * d)]).reshape(b, 3, 4, d)
        perm = [1, 2, 0]
        out = model.temporal_attention(Tensor(z.reshape(b, 12, d)), 0).data.reshape(b, 3, 4, d)
        out_perm = model.temporal_attention(
            Tensor(z[:, perm, :, :].reshape(b, 12, d)), 0
        ).data.reshape(b, 3, 4, d)
        assert np.allclose(out_perm, out[:, perm, :, :], atol=1e-9)

    def test_forward_invariant_to_frame_order_with_zero_positions(self):
        cfg = small_config(time_steps=3)
        model = WinPredictor.create(cfg, seed=8)
        zero_out(model, "pos")
        x = random_input(cfg, 1, seed=21)
        y = model.forward(x).data
        y_perm = model.forward(x[:, [2, 0, 1]]).data
        assert np.allclose(y, y_perm, atol=1e-9)


class TestEncoderBlock:
    def test_silenced_attention_passes_input_through_norm(self):
        # block 0 of 2: the last block skips this norm (see below)
        cfg = small_config(time_steps=2, layers=2)
        model = WinPredictor.create(cfg, seed=9)
        for scope in ("sa", "ta", "fa", "cls_attn"):
            zero_out(model, f"layers.0.{scope}.wv", f"layers.0.{scope}.bv", f"layers.0.{scope}.bo")
        rng = SplitMix64(15)
        z = np.array([rng.normal() for _ in range(9 * 10)]).reshape(1, 9, 10)
        summary, x = Tensor(z[:, :1, :]), Tensor(z[:, 1:, :])
        out_summary, out_x = model.encoder_block(summary, x, 0)
        expect_patches = T.layer_norm(
            x,
            model.params["layers.0.norm.gamma"],
            model.params["layers.0.norm.beta"],
        )
        assert np.allclose(out_x.data, expect_patches.data, atol=1e-12)
        # doubling the residual path changes nothing after normalization
        doubled = T.layer_norm(
            mul(x, 2.0),
            model.params["layers.0.norm.gamma"],
            model.params["layers.0.norm.beta"],
        )
        assert np.allclose(out_x.data, doubled.data, atol=1e-6)
        expect_summary = T.layer_norm(
            summary,
            model.params["layers.0.cls_norm.gamma"],
            model.params["layers.0.cls_norm.beta"],
        )
        assert np.allclose(out_summary.data, expect_summary.data, atol=1e-12)

    def test_last_block_skips_closing_norm(self):
        # the head reads only the summary, so the last block returns its
        # residual stream as is; with silenced attention that is the input
        cfg = small_config(layers=2)
        model = WinPredictor.create(cfg, seed=9)
        for scope in ("sa", "ta", "fa", "cls_attn"):
            zero_out(model, f"layers.1.{scope}.wv", f"layers.1.{scope}.bv", f"layers.1.{scope}.bo")
        summary, x = model.embed(random_input(cfg, 1, seed=31))
        _, out_x = model.encoder_block(summary, x, 1)
        assert np.array_equal(out_x.data, x.data)

    @pytest.mark.parametrize("variant", ["tstf", "space_time_only"])
    def test_shape_preserved(self, variant):
        cfg = small_config(layers=2, variant=variant)
        model = WinPredictor.create(cfg, seed=10)
        summary, x = model.embed(random_input(cfg, 2, seed=30))
        out_summary, out_x = model.encoder_block(summary, x, 0)
        assert out_summary.shape == summary.shape
        assert out_x.shape == x.shape

    def test_space_time_only_never_touches_feature_params(self):
        cfg = small_config(variant="space_time_only", layers=2)
        model = WinPredictor.create(cfg, seed=11)
        x = random_input(cfg, 2, seed=31)
        with Tape() as tape:
            y = model.forward(x)
            loss = mean(mul(y, y))
            tape.backward(loss)
        # The head reads only the summary token, so the patches' closing
        # LayerNorm of the last post-norm block gets no gradient either.
        no_grad = {
            name for name, p in model.params.items()
            if name.startswith("layers.") and p.grad is None
        }
        feature = {name for name in model.params if ".fa." in name}
        assert feature
        assert no_grad == feature | {"layers.1.norm.gamma", "layers.1.norm.beta"}

    def test_ablation_matches_silenced_feature_attention(self):
        full = WinPredictor.create(small_config(variant="tstf"), seed=12)
        ablated = WinPredictor.create(small_config(variant="space_time_only"), seed=12)
        # identical creation order -> identical shared parameter values
        for name in full.params:
            assert np.array_equal(full.params[name].data, ablated.params[name].data)
        zero_out(full, "layers.0.fa.wv", "layers.0.fa.bv", "layers.0.fa.bo")
        x = random_input(full.config, 2, seed=32)
        assert np.allclose(full.forward(x).data, ablated.forward(x).data, atol=1e-12)


class TestForward:
    def test_zeroed_head_gives_half(self):
        cfg = small_config()
        model = WinPredictor.create(cfg, seed=13)
        zero_out(model, "head.w1", "head.b1", "head.w2", "head.b2")
        y = model.forward(random_input(cfg, 3, seed=33))
        assert np.allclose(y.data, 0.5, atol=1e-12)

    def test_batch_outputs_in_open_interval(self):
        cfg = small_config(layers=2)
        model = WinPredictor.create(cfg, seed=14)
        y = model.forward(random_input(cfg, 2, seed=34))
        assert y.shape == (2,)
        assert np.all(y.data > 0.0) and np.all(y.data < 1.0)

    def test_seed_determinism(self):
        cfg = small_config(layers=2)
        a = WinPredictor.create(cfg, seed=15)
        b = WinPredictor.create(cfg, seed=15)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        x = random_input(cfg, 2, seed=35)
        assert np.array_equal(a.forward(x).data, b.forward(x).data)

    # Exact outputs of a seeded desk model at B=2, as float.hex, for each
    # variant: a refactor of the block must keep every bit.
    @pytest.mark.parametrize(
        "variant,expected",
        [
            ("tstf", ("0x1.c3b77bd800d7dp-2", "0x1.b14bffe4859fep-2")),
            ("space_time_only", ("0x1.b0264c17c23b4p-2", "0x1.98b771f615f10p-2")),
        ],
    )
    def test_desk_forward_pinned(self, variant, expected):
        cfg = dataclasses.replace(get_preset("desk"), variant=variant)
        model = WinPredictor.create(cfg, seed=20)
        y = model.forward(random_input(cfg, 2, seed=40)).data
        assert tuple(float(v).hex() for v in y) == expected

    def test_small_gradient_check(self):
        # full forward + binary cross-entropy at B=1, T=2, N=4, C=5, D=10
        from rtslab.train.loss import bce_loss

        cfg = small_config()
        model = WinPredictor.create(cfg, seed=16)
        x = random_input(cfg, 1, seed=36)
        label = np.array([1.0])

        res = grad_check(
            lambda: bce_loss(model.forward(x), label), model.params, h=1e-5, tol=1e-4
        )
        assert res.passed, res.summary()


class TestTapeBudget:
    # One desk B=2 train step: embed, two blocks of fused attention and
    # LayerNorm nodes with their reshapes and residuals (the last block has
    # no closing LayerNorm), head and one fused loss node. Temporal
    # attention is 3 nodes a block: a reshape to (B, T, N, D), the kernel
    # along axis 1 and a reshape back; regrouping by permutes adds 4.
    # Falling back to attention or LayerNorm composed from primitive ops
    # roughly triples these counts; a loss composed from primitive ops
    # adds 9.
    @pytest.mark.parametrize(
        "variant,nodes",
        [("tstf", 49), ("space_time_only", 41)],
        ids=["tstf-49", "space_time_only-41"],
    )
    def test_desk_train_step_node_count(self, variant, nodes):
        from rtslab.train.loss import bce_loss

        cfg = dataclasses.replace(get_preset("desk"), variant=variant)
        model = WinPredictor.create(cfg, seed=19)
        x = random_input(cfg, 2, seed=38)
        with Tape() as tape:
            loss = bce_loss(model.forward(x), np.array([0.0, 1.0]))
            tape.backward(loss)
        assert len(tape) == nodes

    # Bytes one desk B=2 forward's tape keeps alive: the distinct base
    # arrays reachable from each recorded node's output and from the cells
    # of its backward closure (a tensor there counts by its data), less
    # the model's parameters. The attention nodes keep P and the
    # head-split q, keys (transposed) and values; the readout node keeps
    # q, P and mix.
    @pytest.mark.parametrize(
        "variant,nbytes",
        [("tstf", 2_465_960), ("space_time_only", 1_872_040)],
        ids=["tstf", "space_time_only"],
    )
    def test_desk_forward_tape_bytes(self, variant, nbytes):
        from rtslab.train.loss import bce_loss

        def base(a):
            while a.base is not None:
                a = a.base
            return a

        cfg = dataclasses.replace(get_preset("desk"), variant=variant)
        model = WinPredictor.create(cfg, seed=19)
        params = {id(base(p.data)) for p in model.params.values()}
        with Tape() as tape:
            bce_loss(model.forward(random_input(cfg, 2, seed=38)), np.array([0.0, 1.0]))
        kept = {}
        for node in tape._nodes:
            cells = [c.cell_contents for c in node._backward.__closure__ or ()]
            for a in [node.data, *cells]:
                a = a.data if isinstance(a, Tensor) else a
                if isinstance(a, np.ndarray) and id(base(a)) not in params:
                    kept[id(base(a))] = base(a)
        assert sum(a.nbytes for a in kept.values()) == nbytes


class TestParamAccounting:
    @pytest.mark.parametrize("preset", ["desk", "tstf-6", "tstf-8", "timesformer-12"])
    def test_breakdown_matches_allocated_arrays(self, preset):
        cfg = get_preset(preset)
        groups, _ = census(cfg)
        actual: dict[str, int] = {}
        for name, shape, _ in parameter_spec(cfg):
            from oracles import oracle_group_of as _group_of

            actual[_group_of(name)] = actual.get(_group_of(name), 0) + int(np.prod(shape) if shape else 1)
        for group, n in actual.items():
            assert groups[group] == n, group
        assert sum(groups.values()) == sum(actual.values())

    def test_zero_alloc_sizes_agree(self):
        cfg = get_preset("desk")
        params = init_params(cfg, 0)
        assert sum(p.size for p in params.values()) == sum(census(cfg)[0].values())

    def test_monotone_capacity(self):
        assert count_params(get_preset("tstf-8")) > count_params(get_preset("tstf-6"))

    def test_variant_excludes_feature_scope(self):
        cfg = get_preset("timesformer-12")
        groups, _ = census(cfg)
        assert count_params(cfg) == sum(groups.values()) - groups["feature"]

    def test_param_count_pure_function_of_config(self):
        cfg = get_preset("desk")
        assert count_params(cfg) == count_params(ModelConfig(**{
            "layers": 2, "embed_dim": 20, "heads": 5, "channels": 5, "time_steps": 8,
        }))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        cfg = small_config(layers=2)
        model = WinPredictor.create(cfg, seed=17)
        model.save(tmp_path / "m.ckpt")
        back = WinPredictor.load(tmp_path / "m.ckpt", cfg)
        x = random_input(cfg, 2, seed=37)
        assert np.array_equal(model.forward(x).data, back.forward(x).data)

    def test_load_validates_shapes(self, tmp_path):
        model = WinPredictor.create(small_config(), seed=18)
        model.save(tmp_path / "m.ckpt")
        with pytest.raises(ConfigError, match="match|mismatch"):
            WinPredictor.load(tmp_path / "m.ckpt", small_config(layers=2))
        with pytest.raises(ConfigError, match="match|mismatch"):
            WinPredictor.load(tmp_path / "m.ckpt", small_config(embed_dim=20, heads=5))
        WinPredictor.create(small_config(layers=2), seed=18).save(tmp_path / "m2.ckpt")
        with pytest.raises(ConfigError, match=r"extra=\['layers\.1\."):
            WinPredictor.load(tmp_path / "m2.ckpt", small_config())

    def test_load_walks_the_config_only_as_far_as_the_checkpoint(self, tmp_path, monkeypatch):
        # a config.json may ask for any number of layers; the names they
        # imply are walked only until one is missing from the checkpoint
        model = WinPredictor.create(small_config(), seed=18)
        model.save(tmp_path / "m.ckpt")
        consumed = 0

        def counting_spec(config):
            nonlocal consumed
            for entry in parameter_spec(config):
                consumed += 1
                yield entry

        monkeypatch.setattr("rtslab.model.params.parameter_spec", counting_spec)
        with pytest.raises(ConfigError, match="missing"):
            WinPredictor.load(tmp_path / "m.ckpt", small_config(layers=10**4))
        assert consumed <= len(model.params) + 1
