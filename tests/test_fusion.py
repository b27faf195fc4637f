import math

import numpy as np
import pytest

from fuserec import fusion as fz
from fuserec import numerics as nm
from fuserec.numerics import ContractError, Tensor

from gradcheck import finite_diff_check


class TestAttentionPool:
    def test_singleton_history(self):
        rows = np.array([[0.3, -0.7], [-1.0, 2.0]])
        hist = np.array([[2.0, 1.0]])
        assert np.array_equal(fz.attention_pool(rows, hist), np.tile(hist, (2, 1)))

    def test_identical_history_items(self):
        rows = np.array([[1.0, 0.0, 2.0]])
        hist = np.tile([[0.5, 0.5, 0.5]], (4, 1))
        assert np.allclose(fz.attention_pool(rows, hist), hist[:1], atol=1e-15)

    def test_hand_softmax(self):
        # over an identity history the pooled rows are the weights: dots (1, 0)
        # give (e/(e+1), 1/(e+1)) = (0.7311, 0.2689), and dots (0, 0) give a half each
        weights = fz.attention_pool(np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2))
        expected = math.e / (math.e + 1.0)
        assert abs(weights[0, 0] - expected) < 1e-12
        assert abs(weights[0, 0] - 0.7311) < 1e-4
        assert np.allclose(weights, [[expected, 1.0 - expected], [0.5, 0.5]], atol=1e-12)

    def test_weights_positive_sum_to_one(self):
        rng = np.random.default_rng(0)
        weights = fz.attention_pool(rng.normal(size=(10, 5)), np.eye(5))
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
        assert (weights > 0).all()

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(1)
        for n in range(1, 6):
            rows = rng.normal(size=(4, 3))
            hist = rng.normal(size=(n, 3))
            pooled = fz.attention_pool(rows, hist)
            assert pooled.shape == (4, 3)
            for e, got in zip(rows, pooled):
                exps = [math.exp(float(e @ hist[j]) - max(float(e @ hist[i]) for i in range(n))) for j in range(n)]
                z = sum(exps)
                ref = sum((exps[j] / z) * hist[j] for j in range(n))
                assert np.abs(got - ref).max() < 1e-9

    def test_empty_history_returns_the_rows(self):
        rows = np.array([[0.3, -0.7], [1.5, 2.0]])
        assert np.array_equal(fz.attention_pool(rows, np.zeros((0, 2))), rows)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ContractError):
            fz.attention_pool(np.zeros((1, 2)), np.zeros((3, 4)))
        with pytest.raises(ContractError):
            fz.attention_pool(np.zeros(2), np.zeros((3, 2)))


class TestGenerateMapping:
    def test_constant_head(self):
        rng = np.random.default_rng(2)
        net = fz.MetaNetwork(3, 4, 5, rng, "user_meta")
        const = rng.normal(size=12)
        net.w2 = Tensor(np.zeros((5, 12)), requires_grad=True)
        net.b2 = Tensor(const.copy(), requires_grad=True)
        w1 = fz.generate_mapping(rng.normal(size=(1, 3)), net)
        w2 = fz.generate_mapping(rng.normal(size=(1, 3)), net)
        assert np.array_equal(w1.data, const.reshape(1, 12))
        assert np.array_equal(w1.data, w2.data)

    def test_distinct_inputs_distinct_mappings(self):
        rng = np.random.default_rng(3)
        net = fz.MetaNetwork(4, 6, 8, rng, "user_meta")
        a = fz.generate_mapping(rng.normal(size=(1, 4)), net)
        b = fz.generate_mapping(rng.normal(size=(1, 4)), net)
        assert not np.array_equal(a.data, b.data)

    def test_gradients_into_generator(self):
        rng = np.random.default_rng(4)
        net = fz.MetaNetwork(3, 4, 5, rng, "user_meta")
        pooled = rng.normal(size=(2, 3))

        def norm_sq(_):
            w = fz.generate_mapping(pooled, net)
            return nm.tsum(nm.mul(w, w))

        for param in (net.w1, net.b1, net.w2, net.b2):
            assert finite_diff_check(lambda _t, p=param: norm_sq(p), param) < 1e-4

    def test_output_reshapes_to_d_cf_by_d_llm(self):
        rng = np.random.default_rng(5)
        net = fz.MetaNetwork(6, 9, 4, rng, "item_meta")
        w = fz.generate_mapping(rng.normal(size=(2, 6)), net)
        assert w.shape == (2, 6 * 9)  # one flattened d_cf x d_llm mapping per row


class TestProject:
    def test_identity_mapping(self):
        e = np.array([1.0, -2.0, 0.5])
        out = fz.project(e.reshape(1, 3), Tensor(np.eye(3).reshape(1, 9)))
        assert np.array_equal(out.data, e.reshape(1, 3))

    def test_hand_product(self):
        out = fz.project(np.array([[1.0, 2.0]]), Tensor([[1.0, 0.0, 0.0, 0.0, 1.0, 1.0]]))
        assert np.array_equal(out.data, [[1.0, 2.0, 2.0]])

    def test_zero_mapping_annihilates(self):
        out = fz.project(np.array([[3.0, 4.0]]), Tensor(np.zeros((1, 10))))
        assert np.array_equal(out.data, np.zeros((1, 5)))


class TestGenericMap:
    def test_zero_parameters_zero_output(self):
        rng = np.random.default_rng(6)
        mapper = fz.GenericMapper(3, 4, rng, "shared_map")
        mapper.w = Tensor(np.zeros((3, 4)), requires_grad=True)
        mapper.b = Tensor(np.zeros(4), requires_grad=True)
        assert np.array_equal(fz.generic_map(rng.normal(size=(1, 3)), mapper).data, np.zeros((1, 4)))

    def test_shared_mode_maps_equal_inputs_equally(self):
        rng = np.random.default_rng(7)
        fusion = fz.GenericFusion(3, 4, rng, shared=True)
        e = rng.normal(size=(1, 3))
        assert np.array_equal(fusion.map_user(e, e).data, fusion.map_item(e, e).data)

    def test_two_linear_mode_maps_equal_inputs_differently(self):
        rng = np.random.default_rng(8)
        fusion = fz.GenericFusion(3, 4, rng, shared=False)
        e = rng.normal(size=(1, 3))
        assert not np.array_equal(fusion.map_user(e, e).data, fusion.map_item(e, e).data)


class TestInject:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.table = Tensor(rng.normal(size=(12, 4)))
        self.ids = [1, 5, 2, 7, 3, 9]

    def test_plain_lookup_without_placeholders(self):
        out = fz.inject(self.ids, [], [], self.table, None, None)
        assert np.array_equal(out.data, self.table.data[self.ids])

    def test_placeholder_rows_replaced_exactly(self):
        ep_u = Tensor(np.full((1, 4), 2.0))
        ep_v = Tensor(np.full((1, 4), -3.0))
        out = fz.inject(self.ids, [1], [4], self.table, ep_u, ep_v)
        assert np.array_equal(out.data[1], ep_u.data[0])
        assert np.array_equal(out.data[4], ep_v.data[0])
        others = [0, 2, 3, 5]
        assert np.array_equal(out.data[others], self.table.data[[self.ids[i] for i in others]])

    def test_position_vector_mismatch_rejected(self):
        with pytest.raises(ContractError):
            fz.inject(self.ids, [1], [], self.table, Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
        with pytest.raises(ContractError):
            fz.inject(self.ids, [1], [4], self.table, Tensor(np.zeros((1, 4))), None)

    def test_user_perturbation_touches_only_user_row(self):
        rng = np.random.default_rng(10)
        net = fz.MetaNetwork(3, 4, 5, rng, "user_meta")
        e_u = rng.normal(size=(1, 3))
        base_map = fz.generate_mapping(e_u, net)
        ep_v = Tensor(rng.normal(size=(1, 4)))

        def sequence(e):
            ep_u = fz.project(e, fz.generate_mapping(e, net))
            return fz.inject(self.ids, [1], [4], self.table, ep_u, ep_v).data

        base = sequence(e_u)
        bumped = sequence(e_u + 1e-3)
        delta = np.abs(bumped - base)
        assert delta[1].max() > 0
        delta[1] = 0.0
        assert delta.max() == 0.0


class TestComposition:
    def test_pool_map_project_inject_differentiable(self):
        rng = np.random.default_rng(11)
        net = fz.MetaNetwork(3, 4, 5, rng, "user_meta")
        table = Tensor(rng.normal(size=(10, 4)))
        hist = rng.normal(size=(4, 3))
        e_u = rng.normal(size=3)
        pooled = fz.attention_pool(e_u.reshape(1, 3), hist)
        probe = Tensor(rng.normal(size=(4, 1)))

        def scalar(_):
            w = fz.generate_mapping(pooled, net)
            ep = fz.project(e_u.reshape(1, 3), w)
            emb = fz.inject([0, 3, 5], [1], [], table, ep, None)
            return nm.tsum(nm.matmul(emb, probe))

        for param in (net.w1, net.b1, net.w2, net.b2):
            assert finite_diff_check(lambda _t, p=param: scalar(p), param) < 1e-4


class TestVariantStructure:
    def test_personalized_sides_share_no_parameters(self):
        rng = np.random.default_rng(12)
        fusion = fz.PersonalizedFusion(4, 6, 3, rng)
        names = fusion.named_parameters()
        user_names = {n for n in names if ".user_meta." in n}
        item_names = {n for n in names if ".item_meta." in n}
        assert user_names and item_names
        assert not (user_names & item_names)
        assert user_names | item_names == set(names)
        user_ids = {id(names[n]) for n in user_names}
        item_ids = {id(names[n]) for n in item_names}
        assert not (user_ids & item_ids)

    def test_shared_generic_exposes_one_map(self):
        rng = np.random.default_rng(13)
        shared = fz.GenericFusion(4, 6, rng, shared=True)
        assert len(shared.named_parameters()) == 2
        two = fz.GenericFusion(4, 6, rng, shared=False)
        assert len(two.named_parameters()) == 4

    def test_no_fusion_refuses_mapping(self):
        fusion = fz.NoFusion()
        assert fusion.named_parameters() == {}
        with pytest.raises(ContractError):
            fusion.map_user(np.zeros((1, 3)), np.zeros((1, 3)))


class TestBatchedRows:
    """B rows in one call give each row what a one-row call gives it."""

    def test_personalized_rows_match_one_row_calls(self):
        rng = np.random.default_rng(15)
        fusion = fz.PersonalizedFusion(3, 4, 5, rng)
        for net in (fusion.user_net, fusion.item_net):
            net.w2 = Tensor(rng.normal(size=net.w2.shape), requires_grad=True)
        e, pooled = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        for mapper in (fusion.map_user, fusion.map_item):
            batched = mapper(e, pooled).data
            for b in range(4):
                one = mapper(e[b : b + 1], pooled[b : b + 1]).data
                assert np.abs(batched[b] - one[0]).max() < 1e-12

    def test_project_matches_vector_matrix_products(self):
        rng = np.random.default_rng(16)
        e = rng.normal(size=(3, 4))
        maps = rng.normal(size=(3, 4, 6))
        out = fz.project(e, Tensor(maps.reshape(3, 24))).data
        for b in range(3):
            assert np.abs(out[b] - e[b] @ maps[b]).max() < 1e-12

    def test_generic_rows_match_one_row_calls(self):
        rng = np.random.default_rng(17)
        fusion = fz.GenericFusion(3, 4, rng, shared=False)
        e = rng.normal(size=(3, 3))
        batched = fusion.map_item(e, e).data
        for b in range(3):
            assert np.abs(batched[b] - fusion.map_item(e[b : b + 1], e[b : b + 1]).data[0]).max() < 1e-12

    def test_pooled_row_count_must_match_rows(self):
        fusion = fz.PersonalizedFusion(3, 4, 5, np.random.default_rng(18))
        with pytest.raises(ContractError):
            fusion.map_user(np.zeros((2, 3)), np.zeros((1, 3)))

    def test_inject_writes_every_row_of_a_pack(self):
        rng = np.random.default_rng(19)
        table = Tensor(rng.normal(size=(12, 4)))
        ids = [1, 5, 2, 7, 3, 9, 4]
        ep_u, ep_v = Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 4)))
        out = fz.inject(ids, [0, 4], [2, 6], table, ep_u, ep_v).data
        assert np.array_equal(out[[0, 4]], ep_u.data)
        assert np.array_equal(out[[2, 6]], ep_v.data)
        assert np.array_equal(out[[1, 3, 5]], table.data[[5, 7, 9]])
