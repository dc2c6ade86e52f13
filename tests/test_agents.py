"""Agents: gradient correctness, training oracles, baselines, selection."""
import dataclasses
import functools

import numpy as np
import pytest

from quantgym.agents import (
    EqualWeightPolicy,
    GaussianPolicy,
    PassivePolicy,
    TrainConfig,
    ZeroPolicy,
    a2c_loss_and_grad,
    baseline_equal,
    baseline_passive,
    cem_optimize,
    load_policy,
    save_policy,
    train_a2c,
    train_a2c_all,
    train_cem,
    train_cem_all,
)
from quantgym.agents import a2c, cem
from quantgym.envs import (
    EnvConfig,
    EnvPopulation,
    PortfolioEnv,
    TradingEnv,
    _BaseEnv,
)
from quantgym.errors import TrainingError
from quantgym.pipeline import backtest, score_key

from conftest import (
    assert_bitwise_equal,
    make_table,
    make_portfolio_env,
    make_trading_env,
    random_walk_table,
    reference_step,
    simple_features,
)


# --- toy environments for training oracles ---------------------------------

class _State:
    def __init__(self, vec):
        self._vec = np.asarray(vec, dtype=float)
        self.t = 0

    def observation(self):
        return self._vec


class _Transition:
    def __init__(self, reward, done, next_state):
        self.reward = reward
        self.done = done
        self.next_state = next_state


class BanditEnv:
    """One-step episode: +1 when the action mean is positive, else -1."""

    observation_dim = 1
    action_dim = 1

    def __init__(self):
        self._done = True

    @property
    def done(self):
        return self._done

    def reset(self):
        self._done = False
        return _State([1.0])

    def step(self, action):
        self._done = True
        reward = 1.0 if float(np.asarray(action).reshape(-1)[0]) > 0 else -1.0
        return _Transition(reward, True, _State([1.0]))


class ConstRewardEnv:
    """Horizon-H chain paying a constant reward, one-hot state index."""

    def __init__(self, horizon=5, reward=2.0):
        self.H = horizon
        self.c = reward
        self.observation_dim = horizon + 1
        self.action_dim = 1
        self.t = 0
        self._done = True

    @property
    def done(self):
        return self._done

    def _state(self):
        vec = np.zeros(self.H + 1)
        vec[self.t] = 1.0
        return _State(vec)

    def reset(self):
        self.t = 0
        self._done = False
        return self._state()

    def step(self, action):
        self.t += 1
        self._done = self.t >= self.H
        return _Transition(self.c, self._done, self._state())


# --- A2C --------------------------------------------------------------------

def train_a2c_oracle(env, config):
    """A2C on one reset/step environment, one transition at a time: the
    oracle of the lockstep trainer. A quantgym env steps through
    ``reference_step``. The first non-finite action, loss or gradient
    raises its TrainingError."""
    step = (functools.partial(reference_step, env)
            if isinstance(env, _BaseEnv) else env.step)
    with np.errstate(all="ignore"):
        rows = a2c._Learners(env.observation_dim, env.action_dim, [config])
        obs = env.reset().observation()
        # the observation scale is frozen from the first state
        rows.obs_scale = np.maximum(1.0, np.abs(obs))[None]
        steps_done = 0
        while steps_done < config.steps:
            rows.begin_rollout()
            for i in range(config.rollout_steps):
                steps_done += 1
                actions, values = rows.sample(obs[None], i, steps_done)
                if rows.failed[0] is not None:
                    raise rows.failed[0]
                transition = step(actions[0])
                rows.record(i, obs, actions, transition.reward, values,
                            transition.done)
                state = env.reset() if transition.done \
                    else transition.next_state
                obs = state.observation()
            rows.update(obs[None], steps_done)
            if rows.failed[0] is not None:
                raise rows.failed[0]
        return rows.outcomes()[0]


class TestA2CGradient:
    def numeric_gradient(self, policy, args, eps=1e-6):
        flat = policy.get_flat()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            probe = flat.copy()
            probe[i] += eps
            policy.set_flat(probe)
            up, _ = a2c_loss_and_grad(policy, *args)
            probe[i] -= 2 * eps
            policy.set_flat(probe)
            down, _ = a2c_loss_and_grad(policy, *args)
            num[i] = (up - down) / (2 * eps)
        policy.set_flat(flat)
        return num

    def test_matches_central_differences(self):
        policy = GaussianPolicy(obs_dim=1, action_dim=1, hidden=1, seed=3)
        rng = np.random.default_rng(0)
        args = (rng.normal(size=(8, 1)), rng.normal(size=(8, 1)),
                rng.normal(size=8), rng.normal(size=8), 0.01, 0.5)
        _, analytic = a2c_loss_and_grad(policy, *args)
        numeric = self.numeric_gradient(policy, args)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert rel < 1e-3

    def test_wider_network_gradient(self):
        policy = GaussianPolicy(obs_dim=3, action_dim=2, hidden=4, seed=1)
        rng = np.random.default_rng(5)
        args = (rng.normal(size=(6, 3)), rng.normal(size=(6, 2)),
                rng.normal(size=6), rng.normal(size=6), 0.005, 0.5)
        _, analytic = a2c_loss_and_grad(policy, *args)
        numeric = self.numeric_gradient(policy, args)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-3


class TestA2CTraining:
    def test_bandit_learned_across_seeds(self):
        wins = 0
        for seed in range(20):
            config = TrainConfig(steps=600, learning_rate=0.02,
                                 rollout_steps=16, hidden=8, seed=seed)
            policy = train_a2c_oracle(BanditEnv(), config)
            wins += float(policy.act(np.array([1.0]))[0]) > 0
        assert wins >= 19  # probability >= 0.95 over 20 seeds

    def test_critic_converges_to_episode_return(self):
        env = ConstRewardEnv(horizon=5, reward=2.0)
        config = TrainConfig(steps=6000, learning_rate=0.03, gamma=1.0,
                             rollout_steps=20, hidden=16, entropy_coef=0.0,
                             seed=0)
        policy = train_a2c_oracle(env, config)
        start = np.zeros(6)
        start[0] = 1.0
        _, value, _ = policy.forward(start)
        assert abs(float(value[0]) - 10.0) / 10.0 < 0.10

    def test_same_seed_bit_identical(self):
        config = TrainConfig(steps=300, seed=11, hidden=8)
        p1 = train_a2c_oracle(BanditEnv(), config)
        p2 = train_a2c_oracle(BanditEnv(), config)
        np.testing.assert_array_equal(p1.get_flat(), p2.get_flat())

    def test_trains_on_market_env(self):
        env = make_trading_env(random_walk_table(40, 2, seed=3))
        config = TrainConfig(steps=200, rollout_steps=16, hidden=8, seed=0)
        policy = train_a2c(env, config)
        action = policy.act(env.reset().observation())
        assert action.shape == (2,)
        assert np.isfinite(action).all()

    def test_gamma_validated(self):
        with pytest.raises(TrainingError, match="gamma"):
            TrainConfig(gamma=0.0)

    def test_diverging_fit_raises_training_error(self):
        env = make_trading_env(random_walk_table(40, 2, seed=3))
        config = TrainConfig(steps=200, rollout_steps=16, hidden=8,
                             learning_rate=1e9)
        with pytest.raises(TrainingError, match="non-finite .*at step"):
            train_a2c(env, config)


class TestA2CLockstep:
    """``train_a2c_all`` against the one-transition-at-a-time oracle on
    each job alone."""

    def jobs(self, env_cls, short=False):
        table = random_walk_table(40, 3, seed=2)
        risk = np.zeros(40)
        risk[[9, 20]] = 1e9  # liquidation / uniform weights
        risk[14] = np.nan
        config = EnvConfig(initial_capital=5000.0, cost_rate=0.002, h_max=40,
                           allow_short=short, allow_margin=short,
                           risk_indicator="turbulence", reward_scale=0.01,
                           turnover_cost_rate=0.003)
        features = simple_features(table)
        jobs = []
        for k in range(7):
            start = 2 + k
            end = start + (8 if k % 2 else 13)  # two segment lengths
            env = env_cls(config, table, features, risk_series=risk,
                          start=start, end=end)
            # rows 5 and 6 form a second group; lr=1e9 diverges
            jobs.append((env, TrainConfig(
                steps=90, rollout_steps=10, hidden=6 if k < 5 else 4,
                learning_rate=(0.01, 0.003, 1e9, 0.05)[k % 4],
                seed=100 + k)))
        return jobs

    @pytest.mark.parametrize("env_cls,short", [
        (TradingEnv, False), (TradingEnv, True), (PortfolioEnv, False)])
    def test_equals_train_a2c_per_job_bitwise(self, env_cls, short):
        jobs = self.jobs(env_cls, short)
        outcomes = train_a2c_all(jobs)
        assert [isinstance(o, TrainingError) for o in outcomes] == [
            False, False, True, False, False, False, True]
        for outcome, (env, config) in zip(outcomes, jobs):
            try:
                expected = train_a2c_oracle(env, config)
            except TrainingError as exc:
                assert str(outcome) == str(exc)
                continue
            assert_bitwise_equal(outcome.get_flat(), expected.get_flat())
            assert_bitwise_equal(outcome.obs_scale, expected.obs_scale)
            assert outcome.metadata() == expected.metadata()

    def test_row_does_not_depend_on_its_group(self, monkeypatch):
        jobs = self.jobs(PortfolioEnv)
        grouped = train_a2c_all(jobs)
        order = [3, 0, 6, 1, 5, 2, 4]
        shuffled = train_a2c_all([jobs[k] for k in order])
        monkeypatch.setattr(a2c, "LOCKSTEP_ROWS", 2)
        capped = train_a2c_all(jobs)
        for k, outcome in enumerate(grouped):
            alone = train_a2c_all([jobs[k]])[0]
            for other in (alone, shuffled[order.index(k)], capped[k]):
                if isinstance(outcome, TrainingError):
                    assert str(other) == str(outcome)
                else:
                    assert_bitwise_equal(other.get_flat(), outcome.get_flat())

    def test_one_env_step_per_rollout_step_for_two_shapes(self, monkeypatch):
        jobs = self.jobs(PortfolioEnv)
        assert {c.hidden for _, c in jobs} == {4, 6}
        expected = train_a2c_all(jobs)
        steps = []
        step = EnvPopulation.step

        def counted(population, actions):
            steps.append(len(actions))
            return step(population, actions)

        monkeypatch.setattr(EnvPopulation, "step", counted)
        outcomes = train_a2c_all(jobs)
        # one population of all seven rows, stepped once per rollout step
        assert steps == [len(jobs)] * jobs[0][1].steps
        for got, want in zip(outcomes, expected):
            if isinstance(want, TrainingError):
                assert str(got) == str(want)
            else:
                assert_bitwise_equal(got.get_flat(), want.get_flat())

    def test_diverging_shape_leaves_the_other_shape_training(self):
        jobs = self.jobs(TradingEnv)
        # shape 4 holds one row, which diverges; shape 6 holds four
        # rows that train
        jobs = [jobs[k] for k in (0, 1, 3, 4)] + [
            (jobs[5][0], dataclasses.replace(jobs[5][1], learning_rate=1e9))]
        outcomes = train_a2c_all(jobs)
        failure = outcomes[-1]
        assert isinstance(failure, TrainingError)
        with pytest.raises(TrainingError) as alone:
            train_a2c_oracle(*jobs[-1])
        assert str(alone.value) == str(failure)
        step = int(str(failure).split("at step ")[1].split()[0].rstrip(";"))
        assert step < jobs[0][1].steps
        for outcome, (env, config) in zip(outcomes[:-1], jobs):
            assert_bitwise_equal(outcome.get_flat(),
                                 train_a2c_oracle(env, config).get_flat())
            # the row went on training after the other shape failed
            stopped = train_a2c_oracle(
                env, dataclasses.replace(config, steps=step))
            assert not (outcome.get_flat() == stopped.get_flat()).all()

    def test_cap_splits_mixed_shape_chunks_unchanged(self, monkeypatch):
        jobs = self.jobs(PortfolioEnv)
        expected = train_a2c_all(jobs)
        chunks = []
        lockstep = a2c._train_lockstep

        def recorded(envs, configs):
            chunks.append(sorted(c.hidden for c in configs))
            return lockstep(envs, configs)

        monkeypatch.setattr(a2c, "_train_lockstep", recorded)
        monkeypatch.setattr(a2c, "LOCKSTEP_ROWS", 3)
        outcomes = train_a2c_all(jobs)
        assert max(len(c) for c in chunks) == 3
        assert any(len(set(c)) == 2 for c in chunks)
        for got, want in zip(outcomes, expected):
            if isinstance(want, TrainingError):
                assert str(got) == str(want)
            else:
                assert_bitwise_equal(got.get_flat(), want.get_flat())

    def test_network_that_cannot_be_built_fails_its_job_alone(self):
        env, config = self.jobs(TradingEnv)[0]
        jobs = [(env, dataclasses.replace(config, hidden=0)),
                (env, dataclasses.replace(config, hidden=4))]
        outcomes = train_a2c_all(jobs)
        assert isinstance(outcomes[0], TrainingError)
        assert str(outcomes[0]).startswith("policy sizes must be positive")
        for train_alone in (train_a2c, train_a2c_oracle):
            with pytest.raises(TrainingError) as alone:
                train_alone(*jobs[0])
            assert str(alone.value) == str(outcomes[0])
        expected = train_a2c_oracle(*jobs[1])
        assert_bitwise_equal(outcomes[1].get_flat(), expected.get_flat())
        assert_bitwise_equal(outcomes[1].obs_scale, expected.obs_scale)


def adam_step_oracle(adam, params, grad):
    """The out-of-place ``Adam.step``: returns new parameters and leaves
    params and grad as they are."""
    adam.t += 1
    adam.m *= adam.beta1
    adam.m += (1 - adam.beta1) * grad
    adam.v *= adam.beta2
    g2 = (1 - adam.beta2) * grad
    g2 *= grad
    adam.v += g2
    step = adam.m / (1 - adam.beta1 ** adam.t)
    step *= adam.lr
    denom = np.divide(adam.v, 1 - adam.beta2 ** adam.t, out=g2)
    np.sqrt(denom, out=denom)
    denom += adam.eps
    step /= denom
    return np.subtract(params, step, out=step)


def clip_oracle(grad, limit):
    """The out-of-place clip of each gradient row to norm `limit`."""
    norms = np.sqrt(np.array([g @ g for g in grad]))
    clip = norms > limit
    return np.where(clip[:, None],
                    grad * (limit / np.where(clip, norms, 1.0))[:, None],
                    grad)


class TestA2CInPlace:
    """The in-place Adam step and clip against the out-of-place code."""

    def test_adam_step_equals_out_of_place_bitwise(self):
        rng = np.random.default_rng(21)
        P, size = 5, 37
        lr = rng.uniform(1e-4, 1e-1, (P, 1))
        adam, oracle = a2c.Adam((P, size), lr), a2c.Adam((P, size), lr)
        params = rng.normal(0.0, 1.0, (P, size))
        expected = params.copy()
        for _ in range(50):
            grad = rng.normal(0.0, rng.uniform(1e-3, 10.0), (P, size))
            expected = adam_step_oracle(oracle, expected, grad.copy())
            assert adam.step(params, grad) is params
            assert_bitwise_equal(params, expected)
            assert_bitwise_equal(adam.m, oracle.m)
            assert_bitwise_equal(adam.v, oracle.v)

    def test_clip_equals_out_of_place_bitwise(self):
        rng = np.random.default_rng(22)
        grad = rng.normal(0.0, 1.0, (8, 13)) * rng.uniform(
            0.01, 3.0, (8, 1))
        grad[3] = 0.0
        grad[5, 2] = -0.0
        limit = 2.0
        norms = np.sqrt((grad * grad).sum(axis=1))
        assert (norms > limit).any() and (norms < limit).any()
        expected = clip_oracle(grad, limit)
        a2c._clip_rows(grad, limit)
        assert_bitwise_equal(grad, expected)

    def test_learner_views_alias_params_and_outcomes_copy(self):
        rng = np.random.default_rng(23)
        configs = [TrainConfig(rollout_steps=4, hidden=5, seed=s,
                               learning_rate=lr)
                   for s, lr in ((1, 0.01), (2, 0.05))]
        rows = a2c._Learners(3, 2, configs)
        (shape,) = rows.shapes
        params = shape.params
        for update in range(3):
            rows.begin_rollout()
            for i in range(4):
                obs = rng.normal(0.0, 1.0, (2, 3))
                actions, values = rows.sample(obs, i, 4 * update + i + 1)
                rows.record(i, obs, actions, rng.normal(0.0, 1.0, 2), values,
                            np.zeros(2, dtype=bool))
            rows.update(rng.normal(0.0, 1.0, (2, 3)), 4 * update + 4)
        assert shape.params is params
        assert not (params == shape.template.get_flat()).all()
        split = shape.template._unflatten(params)
        for name, view in shape.fields.items():
            assert np.shares_memory(view, params), name
            assert_bitwise_equal(view, split[name])
        outcomes = rows.outcomes()
        trained = params.copy()
        params += 1.0
        for policy, row in zip(outcomes, trained):
            assert_bitwise_equal(policy.get_flat(), row)


# --- CEM --------------------------------------------------------------------

def rowwise(f):
    """A population objective that scores each row with scalar `f`."""
    return lambda samples: np.array([f(th) for th in samples])


class TestCEM:
    def test_quadratic_objective_optimized(self):
        best, _ = cem_optimize(rowwise(lambda th: -float(th @ th)), dim=4,
                               iterations=50, population=40, elite_frac=0.2,
                               seed=1)
        assert np.abs(best).max() < 0.1

    def test_elite_fraction_one_is_plain_mean(self):
        rng_ref = np.random.default_rng(7)
        mean0 = np.zeros(3)
        samples = mean0 + 1.0 * rng_ref.standard_normal((10, 3))
        best, _ = cem_optimize(rowwise(lambda th: float(th.sum())), dim=3,
                               iterations=1, population=10, elite_frac=1.0,
                               seed=7)
        np.testing.assert_allclose(best, samples.mean(axis=0))

    def test_population_floor(self):
        with pytest.raises(TrainingError, match="population"):
            cem_optimize(rowwise(lambda th: 0.0), dim=2, iterations=1,
                         population=1, elite_frac=0.5)

    def test_rounds_follow_the_plain_formulas_bitwise(self):
        # the search samples into a preallocated array in place; its values
        # are those of the textbook expressions, round after round
        seen = []

        def objective(samples):
            seen.append(samples.copy())
            return samples @ np.arange(3.0)

        init = np.array([0.3, -1.2, 2.0])
        best, history = cem_optimize(objective, dim=3, iterations=2,
                                     population=8, elite_frac=0.25, seed=4,
                                     init_mean=init, init_std=0.7)
        rng = np.random.default_rng(4)
        mean, std = init, np.full(3, 0.7)
        for samples in seen:
            assert_bitwise_equal(
                samples, mean + std * rng.standard_normal((8, 3)))
            scores = samples @ np.arange(3.0)
            elites = samples[np.argsort(-scores, kind="stable")[:2]]
            mean = elites.mean(axis=0)
            std = np.maximum(elites.std(axis=0), 1e-3)
        assert_bitwise_equal(best, mean)
        assert history == [float(np.max(s @ np.arange(3.0))) for s in seen]

    def test_iterations_floor(self):
        with pytest.raises(TrainingError, match="iterations must be at least 1"):
            cem_optimize(rowwise(lambda th: 0.0), dim=2, iterations=0,
                         population=4, elite_frac=0.5)

    def test_seed_reproducibility(self):
        kwargs = dict(dim=3, iterations=10, population=12, elite_frac=0.25,
                      seed=5)
        a, _ = cem_optimize(rowwise(lambda th: -float(th @ th)), **kwargs)
        b, _ = cem_optimize(rowwise(lambda th: -float(th @ th)), **kwargs)
        np.testing.assert_array_equal(a, b)

    def test_train_cem_on_market_env(self):
        env = make_trading_env(random_walk_table(30, 2, seed=4))
        config = TrainConfig(iterations=3, population=6, hidden=4, seed=0)
        policy = train_cem(env, config)
        assert policy.act(env.reset().observation()).shape == (2,)

    @pytest.mark.parametrize("env_cls", [TradingEnv, PortfolioEnv])
    def test_train_cem_equals_per_member_loop(self, env_cls):
        table = random_walk_table(30, 3, seed=6)
        risk = np.zeros(30)
        risk[9] = 1e9  # liquidation / uniform weights at t=9
        config = EnvConfig(initial_capital=5000.0, cost_rate=0.002, h_max=40,
                           risk_indicator="turbulence", reward_scale=0.01,
                           turnover_cost_rate=0.003)
        env = env_cls(config, table, simple_features(table), risk_series=risk)
        train = TrainConfig(iterations=3, population=7, hidden=5, seed=2)
        policy = train_cem(env, train)
        oracle = _train_cem_per_member(env, train)
        assert_bitwise_equal(policy.get_flat(), oracle.get_flat())
        assert_bitwise_equal(policy.obs_scale, oracle.obs_scale)


def _train_cem_per_member(env, config: TrainConfig) -> GaussianPolicy:
    """``train_cem`` scoring each member with its own reset/step episode."""
    policy = GaussianPolicy(env.observation_dim, env.action_dim,
                            config.hidden, config.seed)
    policy.obs_scale = np.maximum(1.0, np.abs(env.reset().observation()))

    def episode_return(params):
        policy.set_flat(params)
        obs = env.reset().observation()
        total = 0.0
        while not env.done:
            transition = env.step(policy.act(obs))
            total += transition.reward
            obs = transition.next_state.observation()
        return total

    best, _ = cem_optimize(
        rowwise(episode_return), policy.n_parameters, config.iterations,
        config.population, config.elite_frac, seed=config.seed,
        init_mean=policy.get_flat(), init_std=0.5)
    policy.set_flat(best)
    return policy


class TestCEMLockstep:
    """``train_cem_all`` against ``_train_cem_per_member`` on each job."""

    def jobs(self, env_cls, short=False):
        close = random_walk_table(40, 3, seed=2).close.copy()
        close[39, 1] = 1e308  # job 4's last step: its rewards overflow
        table = make_table(close)
        risk = np.zeros(40)
        risk[[9, 20]] = 1e9  # liquidation / uniform weights
        risk[14] = np.nan
        config = EnvConfig(initial_capital=5000.0, cost_rate=0.002, h_max=40,
                           allow_short=short, allow_margin=short,
                           risk_indicator="turbulence", reward_scale=0.01,
                           turnover_cost_rate=0.003)
        features = simple_features(table)
        # (start, end, hidden): two episode lengths; jobs 5 and 6 form a
        # second group by their network shape
        spec = [(2, 15, 6), (3, 11, 6), (4, 17, 6), (5, 13, 6), (32, 40, 6),
                (6, 19, 4), (7, 15, 4), (8, 21, 6), (20, 33, 6)]
        jobs = []
        for k, (start, end, hidden) in enumerate(spec):
            env = env_cls(config, table, features, risk_series=risk,
                          start=start, end=end)
            jobs.append((env, TrainConfig(population=6, iterations=3,
                                          elite_frac=0.4, hidden=hidden,
                                          seed=100 + k)))
        # job 7 runs alone in a third group, where every reward overflows
        env = jobs[7][0]
        env.config = dataclasses.replace(env.config, reward_scale=1e308)
        return jobs

    FAILED = [False, False, False, False, True, False, False, True, False]

    @pytest.mark.parametrize("env_cls,short", [
        (TradingEnv, False), (TradingEnv, True), (PortfolioEnv, False)])
    def test_equals_per_member_oracle_bitwise(self, env_cls, short):
        jobs = self.jobs(env_cls, short)
        outcomes = train_cem_all(jobs)
        assert [isinstance(o, TrainingError) for o in outcomes] == self.FAILED
        for k in (4, 7):
            assert str(outcomes[k]) == \
                "non-finite objective value during CEM search"
        for outcome, (env, config) in zip(outcomes, jobs):
            if isinstance(outcome, TrainingError):
                with pytest.raises(TrainingError) as alone:
                    train_cem(env, config)
                assert str(alone.value) == str(outcome)
                continue
            expected = _train_cem_per_member(env, config)
            assert_bitwise_equal(outcome.get_flat(), expected.get_flat())
            assert_bitwise_equal(outcome.obs_scale, expected.obs_scale)
            assert outcome.metadata() == expected.metadata()

    def test_job_does_not_depend_on_its_group(self, monkeypatch):
        jobs = self.jobs(PortfolioEnv)
        grouped = train_cem_all(jobs)
        order = [3, 7, 0, 8, 6, 1, 5, 2, 4]
        shuffled = train_cem_all([jobs[k] for k in order])
        monkeypatch.setattr(cem, "CEM_LOCKSTEP_ROWS", 6)  # one job a chunk
        capped = train_cem_all(jobs)
        for k, outcome in enumerate(grouped):
            alone = train_cem_all([jobs[k]])[0]
            for other in (alone, shuffled[order.index(k)], capped[k]):
                if isinstance(outcome, TrainingError):
                    assert str(other) == str(outcome)
                else:
                    assert_bitwise_equal(other.get_flat(), outcome.get_flat())
                    assert_bitwise_equal(other.obs_scale, outcome.obs_scale)

    def test_non_finite_action_fails_its_job_alone(self, monkeypatch):
        jobs = self.jobs(TradingEnv)
        expected = train_cem_all(jobs)
        poisoned = jobs[0][0].table.close[30]  # seen by job 8 only
        forward = GaussianPolicy.forward_population

        def nan_at_step_30(self, obs, params, obs_scale=None):
            mean, value, h = forward(self, obs, params, obs_scale)
            hit = (obs[:, 0, 1:4] == poisoned).all(axis=1)
            mean[hit] = np.nan
            return mean, value, h

        monkeypatch.setattr(GaussianPolicy, "forward_population",
                            nan_at_step_30)
        outcomes = train_cem_all(jobs)
        assert str(outcomes[8]) == "non-finite action in CEM generation 1"
        with pytest.raises(TrainingError, match="non-finite action"):
            train_cem(*jobs[8])
        for k in range(8):
            if isinstance(expected[k], TrainingError):
                assert str(outcomes[k]) == str(expected[k])
            else:
                assert_bitwise_equal(outcomes[k].get_flat(),
                                     expected[k].get_flat())

    def test_search_settings_validated(self):
        jobs = self.jobs(TradingEnv)[:2]
        for field, value, message in [("iterations", 0, "iterations"),
                                      ("population", 1, "population"),
                                      ("elite_frac", 0.0, "elite_frac")]:
            bad = [(env, dataclasses.replace(c, **{field: value}))
                   for env, c in jobs]
            outcomes = train_cem_all(bad + jobs)
            assert [str(o).split()[0] for o in outcomes[:2]] == [message] * 2
            assert not any(isinstance(o, TrainingError) for o in outcomes[2:])

    @pytest.mark.parametrize("env_cls", [TradingEnv, PortfolioEnv])
    def test_grid_over_hidden_equals_train_cem_per_job(self, env_cls):
        env = self.jobs(env_cls)[0][0]
        grid = [TrainConfig(population=6, iterations=3, elite_frac=0.4,
                            hidden=hidden, seed=seed)
                for seed in (1, 2) for hidden in (5, 3, 8)]
        jobs = [(env, c) for c in grid]
        # a network that cannot be built fails its own job alone
        jobs.insert(2, (env, dataclasses.replace(grid[0], hidden=0)))
        outcomes = train_cem_all(jobs)
        assert str(outcomes[2]).startswith("policy sizes must be positive")
        for outcome, (env, config) in zip(outcomes, jobs):
            if config.hidden == 0:
                continue
            expected = train_cem(env, config)
            assert_bitwise_equal(outcome.get_flat(), expected.get_flat())
            assert_bitwise_equal(outcome.obs_scale, expected.obs_scale)
            assert outcome.metadata() == expected.metadata()
            oracle = _train_cem_per_member(env, config)
            assert_bitwise_equal(outcome.get_flat(), oracle.get_flat())

@pytest.mark.parametrize("obs_dim,action_dim,hidden", [(1, 1, 1), (7, 3, 5),
                                                       (41, 10, 64)])
@pytest.mark.parametrize("batch", [1, 6])
def test_forward_population_equals_forward(obs_dim, action_dim, hidden,
                                           batch):
    rng = np.random.default_rng(obs_dim)
    policy = GaussianPolicy(obs_dim, action_dim, hidden, seed=1)
    params = rng.normal(0.0, 1.0, (9, policy.n_parameters))
    scales = rng.uniform(1.0, 100.0, (9, obs_dim))
    obs = rng.normal(0.0, 50.0, (9, batch, obs_dim))
    mean, value, h = policy.forward_population(obs, params, scales)
    assert mean.shape == (9, batch, action_dim)
    for p in range(9):
        policy.set_flat(params[p])
        policy.obs_scale = scales[p]
        for got, want in zip((mean[p], value[p], h[p]),
                             policy.forward(obs[p])):
            assert_bitwise_equal(got, want)
    # without obs_scale every row uses the policy's own
    shared, _, _ = policy.forward_population(obs, params)
    for p in range(9):
        policy.set_flat(params[p])
        assert_bitwise_equal(shared[p], policy.forward(obs[p])[0])


def test_forward_population_rejects_wrong_parameter_count():
    policy = GaussianPolicy(3, 2, 4)
    with pytest.raises(TrainingError, match="entries"):
        policy.forward_population(np.zeros((2, 1, 3)),
                                  np.zeros((2, policy.n_parameters + 1)))


# --- baselines --------------------------------------------------------------

class TestPassive:
    def flat_env(self, prices, capital, cost_rate=0.0, h_max=200):
        T = 10
        close = np.tile(np.asarray(prices, dtype=float), (T, 1))
        table = make_table(close, high=close.copy(), low=close.copy())
        config = EnvConfig(initial_capital=capital, cost_rate=cost_rate,
                           h_max=h_max)
        return TradingEnv(config, table, simple_features(table))

    def test_single_ticker_spends_capital(self):
        env = self.flat_env([10.0], 1000.0)
        policy = baseline_passive(env)
        state = env.reset()
        transition = env.step(policy.act(state.observation()))
        assert transition.next_state.holdings[0] == 100.0
        # never trades again
        transition = env.step(policy.act(transition.next_state.observation()))
        assert (transition.action_applied == 0).all()

    def test_integer_division_accounting(self):
        env = self.flat_env([10.0, 30.0], 1000.0)
        policy = baseline_passive(env)
        state = env.reset()
        transition = env.step(policy.act(state.observation()))
        np.testing.assert_array_equal(transition.next_state.holdings,
                                      [50.0, 16.0])
        assert transition.next_state.balance == pytest.approx(20.0)

    def test_value_is_holdings_plus_residual(self):
        table = random_walk_table(20, 2, seed=8)
        config = EnvConfig(initial_capital=10_000.0, cost_rate=0.0,
                           h_max=1000)
        env = TradingEnv(config, table, simple_features(table))
        policy = baseline_passive(env)
        result = backtest(policy, env)
        state = env.reset()
        prices0 = state.prices
        shares = np.floor((10_000.0 / 2) / prices0)
        residual = 10_000.0 - shares @ prices0
        expected = table.close[env.start:, :] @ shares + residual
        np.testing.assert_allclose(result.values, expected, rtol=1e-12)


class TestEqualWeight:
    def test_portfolio_uniform(self):
        env = make_portfolio_env(random_walk_table(15, 5, seed=2))
        policy = baseline_equal(env)
        state = env.reset()
        transition = env.step(policy.act(state.observation()))
        np.testing.assert_allclose(transition.action_applied, np.full(5, 0.2))

    def test_trading_rebalances_toward_equal_dollars(self):
        close = np.array([[100.0, 100.0]] * 2 + [[150.0, 100.0]] * 8)
        table = make_table(close, high=close.copy(), low=close.copy())
        config = EnvConfig(initial_capital=10_000.0, cost_rate=0.0, h_max=100)
        env = TradingEnv(config, table, simple_features(table))
        policy = EqualWeightPolicy(2, "trading", rebalance_every=1, h_max=100)
        policy.begin_episode()
        state = env.reset(start=1)
        tr = env.step(policy.act(state.observation()))  # 50/50 at equal prices
        np.testing.assert_array_equal(tr.next_state.holdings, [50.0, 50.0])
        # prices drifted to 150/100 -> 60/40 by value; rebalance to 50/50
        tr = env.step(policy.act(tr.next_state.observation()))
        value = tr.next_state.prices @ tr.next_state.holdings \
            + tr.next_state.balance
        dollars = tr.next_state.prices * tr.next_state.holdings
        assert abs(dollars[0] - dollars[1]) <= max(tr.next_state.prices)

    def test_never_rebalance_equals_passive_after_first(self):
        table = random_walk_table(15, 2, seed=6)
        config = EnvConfig(initial_capital=10_000.0, cost_rate=0.0,
                           h_max=1000)
        env = TradingEnv(config, table, simple_features(table))
        policy = EqualWeightPolicy(2, "trading", rebalance_every=10**9,
                                   h_max=1000)
        result = backtest(policy, env)
        traded_steps = [r for r in result.trade_log if np.abs(r.executed).sum() > 0]
        assert len(traded_steps) == 1  # only the initial allocation


class TestEnsemble:
    """Per-window candidate selection as ``run_rolling`` makes it: the
    first candidate with the largest ``score_key`` of its backtest."""

    @staticmethod
    def select(candidates, env):
        keys = [score_key(backtest(policy, env)) for policy in candidates]
        return max(range(len(keys)), key=keys.__getitem__), keys

    def test_argmax_by_sharpe(self):
        table = random_walk_table(30, 2, seed=10, drift=0.002)
        env = make_trading_env(table)
        candidates = [ZeroPolicy(2),
                      PassivePolicy(2, env.config.h_max, env.config.cost_rate)]
        chosen, keys = self.select(candidates, env)
        # zero policy has undefined Sharpe; passive (drifting up) defined
        assert keys[0][0] == 0 and keys[1][0] == 1
        assert chosen == 1

    def test_tie_breaks_to_lowest_index(self):
        table = random_walk_table(25, 2, seed=12, drift=0.001)
        env = make_trading_env(table)
        a = PassivePolicy(2, env.config.h_max, env.config.cost_rate)
        b = PassivePolicy(2, env.config.h_max, env.config.cost_rate)
        chosen, keys = self.select([a, b], env)
        assert keys[0] == keys[1]
        assert chosen == 0

    def test_all_flat_falls_back_to_cumulative_return(self):
        env = make_trading_env(random_walk_table(20, 2, seed=13))
        chosen, keys = self.select([ZeroPolicy(2), ZeroPolicy(2)], env)
        assert keys == [(0, 0.0), (0, 0.0)]
        assert chosen == 0

    def test_scale_invariance_of_choice(self):
        table = random_walk_table(30, 2, seed=14)
        env_small = make_trading_env(table, config=EnvConfig(
            initial_capital=10_000.0, cost_rate=0.0, h_max=100))
        env_big = make_trading_env(table, config=EnvConfig(
            initial_capital=50_000.0, cost_rate=0.0, h_max=500))
        def candidates(h_max):
            return [PassivePolicy(2, h_max, 0.0),
                    EqualWeightPolicy(2, "trading", 3, h_max)]
        small, _ = self.select(candidates(100), env_small)
        big, _ = self.select(candidates(500), env_big)
        assert small == big


def test_policy_save_load_round_trip(tmp_path):
    policy = GaussianPolicy(obs_dim=4, action_dim=2, hidden=3, seed=9)
    policy.obs_scale = np.array([1.0, 2.0, 4.0, 8.0])
    path = tmp_path / "policy.json"
    save_policy(policy, str(path))
    again = load_policy(str(path))
    np.testing.assert_array_equal(policy.get_flat(), again.get_flat())
    np.testing.assert_array_equal(policy.obs_scale, again.obs_scale)
    obs = np.array([0.5, -1.0, 2.0, 0.1])
    np.testing.assert_array_equal(policy.act(obs), again.act(obs))
