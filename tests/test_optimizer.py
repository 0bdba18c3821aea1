import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontomap.objective
from conftest import random_model, reference_terms
from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.divergence import SmoothingPolicy
from ontomap.model import Alphabet, FiniteStateModel
from ontomap.objective import MAX_STACK_ENTRIES, OntologyMap, PairObjective, evaluate
from ontomap.optimizer import FIRST_WINDOW, INITIAL_STEP, MIN_STEP, PATIENCE, STEP_DECAY, OptimizerConfig, _restart_rng
from ontomap.optimizer import hill_climb, optimize, random_map

MOTOR = Alphabet(("a", "b"))
SENSOR = Alphabet(("s1", "s2"))

FAST = OptimizerConfig(seed=0, restarts=3, max_iters=500)


def one_state_model():
    return FiniteStateModel(
        n=1,
        motor=Alphabet(("a",)),
        sensor=Alphabet(("s",)),
        transitions={"a": [[1.0]]},
        output=[[1.0]],
    )


def test_config_validation():
    # Integers only: 2.5 would make range() fail late and nan would stop a
    # climb at once; numpy's SeedSequence refuses a negative or float seed.
    bad = [("restarts", 0), ("max_iters", 0), ("seed", -1)]
    bad += [(f, v) for f in ("seed", "restarts", "max_iters") for v in (2.5, math.nan, True, "3", None)]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})


def test_config_accepts_integer_types():
    config = OptimizerConfig(seed=np.int64(3), restarts=np.int32(2), max_iters=np.uint8(5))
    assert optimize(one_state_model(), one_state_model(), config).per_restart[1].iterations == 5


def test_random_map_trivial_case():
    rng = np.random.default_rng(0)
    m = random_map(1, 1, rng)
    assert m.phi.tolist() == [[1.0]]
    assert m.phi_inv.tolist() == [[1.0]]


@pytest.mark.parametrize("n0, n1", [(0, 3), (3, 0), (-1, 3)])
def test_random_map_rejects_empty_and_negative_sizes(n0, n1):
    # RuntimeWarning is an error in this suite, so a 0/0 would fail here too.
    with pytest.raises(ValueError):
        random_map(n0, n1, np.random.default_rng(0))


def test_random_map_deterministic():
    a = random_map(4, 5, np.random.default_rng(7))
    b = random_map(4, 5, np.random.default_rng(7))
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.phi_inv, b.phi_inv)


def test_random_map_columns_stochastic():
    m = random_map(4, 5, np.random.default_rng(3))
    assert np.allclose(m.phi.sum(axis=0), 1.0, atol=1e-9)
    assert np.allclose(m.phi_inv.sum(axis=0), 1.0, atol=1e-9)
    assert np.all(m.phi >= 0) and np.all(m.phi_inv >= 0)


def test_hill_climb_at_global_optimum():
    m = one_state_model()
    start = OntologyMap(phi=[[1.0]], phi_inv=[[1.0]])
    result, report, _ = hill_climb(m, m, start, FAST, np.random.default_rng(0))
    assert report.total == 0.0
    assert result.phi.tolist() == [[1.0]]


def test_hill_climb_never_worse_than_start(corridor4, corridor5):
    rng = np.random.default_rng(11)
    start = random_map(4, 5, rng)
    start_total = evaluate(corridor4, corridor5, start).total
    _, report, _ = hill_climb(corridor4, corridor5, start, FAST, rng)
    assert report.total <= start_total


def test_hill_climb_dimension_mismatch(corridor4, corridor5):
    start = OntologyMap(phi=np.eye(4), phi_inv=np.eye(4))
    with pytest.raises(ValueError):
        hill_climb(corridor4, corridor5, start, FAST, np.random.default_rng(0))


def test_final_total_is_running_minimum(corridor4, corridor5, monkeypatch):
    # The accepted-totals sequence is strictly decreasing by construction;
    # check the reported final equals the minimum ever evaluated: the
    # start's total and one per iteration. The climber also scores
    # speculative proposals that no iteration reaches, so the evaluated
    # totals are those of the scalar loop on the same stream.
    rng = np.random.default_rng(5)
    start = random_map(4, 5, rng)
    state = rng.bit_generator.state
    _, report, iters = hill_climb(corridor4, corridor5, start, FAST, rng)
    seen = []
    real = PairObjective.report

    def recording(self, phi, phi_inv):
        r = real(self, phi, phi_inv)
        seen.append(r.total)
        return r

    monkeypatch.setattr(PairObjective, "report", recording)
    rng.bit_generator.state = state
    _scalar_climb(corridor4, corridor5, start, FAST, rng)
    assert len(seen) == iters + 1
    assert report.total == min(seen)


def test_hill_climb_matches_reference_objective(corridor4, corridor5, monkeypatch):
    # The kernel scores every proposal exactly as the public kl_columns
    # does, so climbing on either accepts the same moves.
    def climb():
        rng = np.random.default_rng(3)
        return hill_climb(corridor4, corridor5, random_map(4, 5, rng), FAST, rng)

    fast, _, fast_iters = climb()

    # The reference total of every map pair the climber scores, keyed by
    # the entries the kernel computed for it; infinite intervals send
    # every comparison to the exact totals, which read these.
    reference = {}
    real_entries = PairObjective.entries

    def recording(self, phi, phi_inv):
        x = real_entries(self, phi, phi_inv)
        for row, p, p_inv in zip(x, phi, phi_inv):
            t = reference_terms(corridor4, corridor5, p, p_inv, self.epsilon)
            reference[row.tobytes()] = math.fsum(t)
        return x

    def reference_totals(self, x):
        return [reference[row.tobytes()] for row in x]

    monkeypatch.setattr(PairObjective, "entries", recording)
    _exact_only(monkeypatch)
    monkeypatch.setattr(PairObjective, "exact_totals", reference_totals)
    slow, _, slow_iters = climb()
    assert fast_iters == slow_iters
    assert fast.phi.tobytes() == slow.phi.tobytes()
    assert fast.phi_inv.tobytes() == slow.phi_inv.tobytes()


def test_optimize_validates_models_once(monkeypatch):
    # Each model checks itself when it is built; optimize trusts them.
    import ontomap.model

    calls = []
    real = ontomap.model.validate_model

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(ontomap.model, "validate_model", counting)
    o0, o1 = build_corridor(CorridorSpec(4)), build_corridor(CorridorSpec(5))
    assert len(calls) == 2  # once per model, when it is built
    optimize(o0, o1, OptimizerConfig(restarts=10, max_iters=10))
    assert len(calls) == 2


def _pair(n0, n1, seed):
    rng = np.random.default_rng(seed)
    return random_model(rng, n0, MOTOR, SENSOR), random_model(rng, n1, MOTOR, SENSOR)


def _exact_only(monkeypatch) -> None:
    """Makes every certified interval (-inf, +inf), so that no comparison
    settles on the intervals and every one takes the exact totals."""

    def bounds(self, x):
        inf = np.full(len(x), np.inf)
        return -inf, inf

    monkeypatch.setattr(PairObjective, "bounds", bounds)


def _one_pair_per_call(monkeypatch) -> None:
    """Makes every kernel score one map pair per call (``batch == 1``), so
    that the climber rescores each move with ``PairObjective.moved``."""
    monkeypatch.setattr(ontomap.objective, "MAX_STACK_ENTRIES", 1)


def _scalar_climb(o0, o1, start, config, rng):
    """One restart climbed a column at a time with scalar bookkeeping: the
    loop the lock-step climber must reproduce exactly. Returns (phi,
    phi_inv, total, iterations, accepted moves, stop reason)."""
    eps = config.policy.epsilon
    objective = PairObjective(o0, o1, eps)
    phi, phi_inv = np.array(start.phi), np.array(start.phi_inv)
    current = objective.report(phi, phi_inv).total
    step, rejections, iters, accepted = INITIAL_STEP, 0, 0, 0
    while iters < config.max_iters and step >= MIN_STEP:
        iters += 1
        k = int(rng.integers(o1.n + o0.n))
        mat, j = (phi, k) if k < o1.n else (phi_inv, k - o1.n)
        old = mat[:, j].copy()
        logits = np.log(np.maximum(old, eps)) + step * rng.standard_normal(len(old))
        logits -= logits.max()
        e = np.exp(logits)
        mat[:, j] = e / e.sum()
        candidate = objective.report(phi, phi_inv).total
        if candidate < current:
            current, rejections, accepted = candidate, 0, accepted + 1
        else:
            mat[:, j] = old
            rejections += 1
            if rejections >= PATIENCE:
                step, rejections = step * STEP_DECAY, 0
    return phi, phi_inv, current, iters, accepted, "min_step" if step < MIN_STEP else "max_iters"


SCALAR_LOOP_SHAPES = ["corridor", (1, 2), (17, 9), (40, 33), (9, 9)]


@pytest.mark.parametrize("shape", SCALAR_LOOP_SHAPES)
def test_hill_climb_matches_scalar_loop(corridor4, corridor5, shape):
    o0, o1 = (corridor4, corridor5) if shape == "corridor" else _pair(*shape, 2)
    config = OptimizerConfig(max_iters=6000 if o0.n + o1.n < 10 else 150)
    rng = np.random.default_rng(4)
    start = random_map(o0.n, o1.n, rng)
    state = rng.bit_generator.state
    mapping, report, iters = hill_climb(o0, o1, start, config, rng)
    end = rng.bit_generator.state
    rng.bit_generator.state = state
    phi, phi_inv, total, want_iters, _, _ = _scalar_climb(o0, o1, start, config, rng)
    assert (report.total, iters) == (total, want_iters)
    assert mapping.phi.tobytes() == phi.tobytes()
    assert mapping.phi_inv.tobytes() == phi_inv.tobytes()
    # Speculation draws no proposal past the climb's stop.
    assert end == rng.bit_generator.state


@pytest.mark.parametrize("shape", SCALAR_LOOP_SHAPES)
def test_hill_climb_matches_scalar_loop_moved(corridor4, corridor5, shape, monkeypatch):
    _one_pair_per_call(monkeypatch)
    test_hill_climb_matches_scalar_loop(corridor4, corridor5, shape)


def _exact_rows(monkeypatch) -> dict:
    """Counts the rows PairObjective scores, by ``entries`` or ``moved``:
    all, and those summed exactly."""
    count = {"rows": 0, "exact": 0}
    real_entries, real_moved = PairObjective.entries, PairObjective.moved
    real_exact = PairObjective.exact_totals

    def entries(self, phi, phi_inv):
        count["rows"] += len(phi)
        return real_entries(self, phi, phi_inv)

    def moved(self, *args):
        count["rows"] += 1
        return real_moved(self, *args)

    def exact_totals(self, x):
        count["exact"] += len(x)
        return real_exact(self, x)

    monkeypatch.setattr(PairObjective, "entries", entries)
    monkeypatch.setattr(PairObjective, "moved", moved)
    monkeypatch.setattr(PairObjective, "exact_totals", exact_totals)
    return count


def test_tied_proposals_take_exact_path(monkeypatch):
    # Against a one-state model every proposal on a phi_inv column leaves
    # the map as it was, so its total ties the current one exactly; the
    # intervals cannot settle a tie, and the exact totals must reject it.
    two = FiniteStateModel(
        n=2, motor=Alphabet(("a",)), sensor=Alphabet(("s1", "s2")),
        transitions={"a": np.eye(2)}, output=np.full((2, 2), 0.5),
    )
    one = FiniteStateModel(
        n=1, motor=two.motor, sensor=two.sensor, transitions={"a": [[1.0]]}, output=[[0.5], [0.5]]
    )
    config = OptimizerConfig(max_iters=2000)
    rng = np.random.default_rng(6)
    start = random_map(2, 1, rng)
    state = rng.bit_generator.state
    count = _exact_rows(monkeypatch)
    mapping, report, iters = hill_climb(two, one, start, config, rng)
    assert count["exact"] > 0.2 * iters
    rng.bit_generator.state = state
    phi, phi_inv, total, want_iters, _, _ = _scalar_climb(two, one, start, config, rng)
    assert (report.total, iters) == (total, want_iters)
    assert mapping.phi.tobytes() == phi.tobytes()
    assert mapping.phi_inv.tobytes() == phi_inv.tobytes()


def test_tied_proposals_take_exact_path_moved(monkeypatch):
    _one_pair_per_call(monkeypatch)
    test_tied_proposals_take_exact_path(monkeypatch)


@pytest.mark.parametrize("pair", ["corridor", "16x32", "16x64"])
def test_comparisons_rarely_take_exact_path(corridor4, corridor5, pair, monkeypatch):
    # Certified intervals settle almost every accept/reject decision: the
    # rows summed exactly, each restart's final total included, are at most
    # 1 % of the climb's iterations (one row each, plus each start's and
    # the best map's report). Speculative proposals that no iteration
    # reaches are scored on top of those. A 16x64 pair scores one pair per
    # call, so its climbs rescore each move with ``moved``.
    if pair == "corridor":
        o0, o1, config = corridor4, corridor5, OptimizerConfig(seed=0, restarts=10, max_iters=2000)
    else:
        rng = np.random.default_rng(0)
        sensor = Alphabet(("s1", "s2", "s3"))
        n0, n1 = map(int, pair.split("x"))
        o0, o1 = random_model(rng, n0, MOTOR, sensor), random_model(rng, n1, MOTOR, sensor)
        config = OptimizerConfig(seed=0, restarts=2, max_iters=300)
    count = _exact_rows(monkeypatch)
    optimize(o0, o1, config)
    iterations = config.restarts * (config.max_iters + 1) + 1
    assert count["rows"] >= iterations
    assert count["exact"] <= 0.01 * iterations


def test_rounds_score_several_iterations_per_call(corridor4, corridor5, monkeypatch):
    # Each round scores every restart's window of proposals in one
    # ``entries`` call, so a 10 x 2 000 corridor climb, whose windows grow
    # while proposals are rejected, makes fewer than half as many calls as
    # one per lock-step iteration.
    calls = []
    real = PairObjective.entries

    def entries(self, phi, phi_inv):
        calls.append(len(phi))
        return real(self, phi, phi_inv)

    monkeypatch.setattr(PairObjective, "entries", entries)
    config = OptimizerConfig(seed=0, restarts=10, max_iters=2000)
    res = optimize(corridor4, corridor5, config)
    assert [o.iterations for o in res.per_restart] == [config.max_iters] * config.restarts
    assert len(calls) < config.max_iters / 2


MIN_STEP_STOPS = OptimizerConfig(seed=0, restarts=4, max_iters=20000)
LOCK_STEP_CASES = [
    ("corridor", OptimizerConfig(seed=0, restarts=6, max_iters=1500)),
    ((2, 3), OptimizerConfig(seed=1, restarts=5, max_iters=2000)),
    ((3, 2), OptimizerConfig(seed=2, restarts=4, max_iters=2000)),
    ((9, 9), OptimizerConfig(seed=3, restarts=4, max_iters=400)),
    ((17, 9), OptimizerConfig(seed=4, restarts=3, max_iters=200)),
    ((17, 17), OptimizerConfig(seed=5, restarts=2, max_iters=100)),
    # Restarts that stop on MIN_STEP, each at its own iteration.
    ((1, 2), MIN_STEP_STOPS),
    # Restarts 0 and 1 stop on MIN_STEP (at 4 550 and 5 037 iterations), 2
    # and 3 at max_iters: the best, restart 0, keeps its map through the
    # other slots' remaining rounds.
    ((1, 2), OptimizerConfig(seed=0, restarts=4, max_iters=5100)),
]


def _assert_same_climbs(a, b) -> None:
    """The two optimize results end every restart alike and pick the same
    best map, byte for byte."""
    assert a.per_restart == b.per_restart
    assert a.best_map.phi.tobytes() == b.best_map.phi.tobytes()
    assert a.best_map.phi_inv.tobytes() == b.best_map.phi_inv.tobytes()
    assert a.best_report.to_bytes() == b.best_report.to_bytes()


@pytest.mark.parametrize("shape, config", LOCK_STEP_CASES)
def test_lock_step_matches_sequential_climbs(corridor4, corridor5, shape, config, monkeypatch):
    # optimize climbs its restarts together; each must end exactly where a
    # climb of that restart alone, from the same stream, ends.
    o0, o1 = (corridor4, corridor5) if shape == "corridor" else _pair(*shape, 1)
    res = optimize(o0, o1, config)
    alone, ends = [], []
    for r in range(config.restarts):
        rng = _restart_rng(config.seed, r)
        alone.append(hill_climb(o0, o1, random_map(o0.n, o1.n, rng), config, rng))
        ends.append(rng.bit_generator.state)
    assert [(o.final_total, o.iterations) for o in res.per_restart] == [
        (report.total, iters) for _, report, iters in alone
    ]
    best = min(range(config.restarts), key=lambda r: alone[r][1].total)
    assert res.best_map.phi.tobytes() == alone[best][0].phi.tobytes()
    assert res.best_map.phi_inv.tobytes() == alone[best][0].phi_inv.tobytes()
    assert res.best_report == alone[best][1]
    if config == MIN_STEP_STOPS:
        iters = [o.iterations for o in res.per_restart]
        assert max(iters) < config.max_iters and len(set(iters)) == len(iters)
        # Each climb stops on MIN_STEP having drawn exactly what the scalar
        # loop draws: speculation draws nothing past the stop.
        for r in range(config.restarts):
            rng = _restart_rng(config.seed, r)
            _scalar_climb(o0, o1, random_map(o0.n, o1.n, rng), config, rng)
            assert ends[r] == rng.bit_generator.state
    # With every comparison taken on exact totals, each summed from the
    # current row, the group ends where the interval filter ends it.
    _exact_only(monkeypatch)
    _assert_same_climbs(optimize(o0, o1, config), res)


@pytest.mark.parametrize("shape, config", LOCK_STEP_CASES)
def test_moved_path_matches_stacked_path(corridor4, corridor5, shape, config, monkeypatch):
    # Rescoring each move from the current row, one map pair per call,
    # ends every restart exactly where the stacked climb ends it.
    o0, o1 = (corridor4, corridor5) if shape == "corridor" else _pair(*shape, 1)
    stacked = optimize(o0, o1, config)
    _one_pair_per_call(monkeypatch)
    _assert_same_climbs(optimize(o0, o1, config), stacked)
    # And so does the moved path with every comparison taken exactly.
    _exact_only(monkeypatch)
    _assert_same_climbs(optimize(o0, o1, config), stacked)


@pytest.mark.parametrize(
    "shape, config, stop",
    [
        ("corridor", OptimizerConfig(seed=0, restarts=10, max_iters=2000), "max_iters"),
        ((1, 2), MIN_STEP_STOPS, "min_step"),
    ],
)
def test_restarts_say_why_they_stopped(corridor4, corridor5, shape, config, stop):
    # Every restart of a 10 x 2 000 corridor run is still improving when
    # its iterations run out, while the (1, 2) restarts of the lock-step
    # cases stop on MIN_STEP; each outcome's counts match the scalar loop.
    o0, o1 = (corridor4, corridor5) if shape == "corridor" else _pair(*shape, 1)
    res = optimize(o0, o1, config)
    assert [o.stop for o in res.per_restart] == [stop] * config.restarts
    for o in res.per_restart:
        rng = _restart_rng(config.seed, o.restart)
        _, _, total, iters, accepted, why = _scalar_climb(o0, o1, random_map(o0.n, o1.n, rng), config, rng)
        assert (o.final_total, o.iterations, o.accepted, o.stop) == (total, iters, accepted, why)
        assert 0 < o.accepted < o.iterations


@pytest.mark.parametrize("n", [9, 64])
def test_totals_stacks_within_entry_cap(n, monkeypatch):
    o0, o1 = _pair(n, n, 2)
    pair_entries = 2 * len(MOTOR) * n * n + 2 * len(SENSOR) * n
    shapes = []
    real_entries, real_moved = PairObjective.entries, PairObjective.moved

    def entries(self, phi, phi_inv):
        shapes.append((phi.shape, phi_inv.shape))
        return real_entries(self, phi, phi_inv)

    def moved(self, phi, phi_inv, *args):
        shapes.append(((1, *phi.shape), (1, *phi_inv.shape)))
        return real_moved(self, phi, phi_inv, *args)

    monkeypatch.setattr(PairObjective, "entries", entries)
    monkeypatch.setattr(PairObjective, "moved", moved)
    optimize(o0, o1, OptimizerConfig(seed=0, restarts=50, max_iters=2))
    # At least three rows per restart (its start and one per iteration),
    # and the best map's report; speculative rows come on top, and every
    # stack of them keeps within the cap too. At n = 64 each iteration is
    # a single row rescored by ``moved``.
    assert sum(a[0] for a, _ in shapes) >= 50 * 3 + 1
    assert all(a[0] == b[0] for a, b in shapes)
    # One map pair per call is the least a call can score.
    assert all(a[0] == 1 or a[0] * pair_entries <= MAX_STACK_ENTRIES for a, _ in shapes)
    if pair_entries < MAX_STACK_ENTRIES // 2:
        assert max(a[0] for a, _ in shapes) > 1


def test_windows_within_per_restart_cap(corridor4, corridor5, monkeypatch):
    # A lone restart's windows grow while its proposals are rejected, up to
    # batch // FIRST_WINDOW proposals per round: 37 at the corridor pair's
    # 109 entries.
    rows = []
    real = PairObjective.entries

    def entries(self, phi, phi_inv):
        rows.append(len(phi))
        return real(self, phi, phi_inv)

    monkeypatch.setattr(PairObjective, "entries", entries)
    config = OptimizerConfig(max_iters=4000)
    cap = max(1, PairObjective(corridor4, corridor5, config.policy.epsilon).batch // FIRST_WINDOW)
    assert cap == 37
    rng = np.random.default_rng(0)
    hill_climb(corridor4, corridor5, random_map(4, 5, rng), config, rng)
    assert max(rows) == cap


def test_best_of_restarts_selection(corridor4, corridor5):
    res = optimize(corridor4, corridor5, FAST)
    finals = [o.final_total for o in res.per_restart]
    assert res.best_report.total == min(finals)
    assert len(finals) == FAST.restarts


def test_more_restarts_never_worse(corridor4, corridor5):
    one = optimize(corridor4, corridor5, OptimizerConfig(seed=9, restarts=1, max_iters=500))
    ten = optimize(corridor4, corridor5, OptimizerConfig(seed=9, restarts=10, max_iters=500))
    # restart streams are derived from (seed, index), so run 0 is shared
    assert ten.best_report.total <= one.best_report.total
    assert ten.per_restart[0].final_total == one.per_restart[0].final_total


def test_identical_models_reach_identity(corridor4):
    res = optimize(corridor4, corridor4, OptimizerConfig(seed=2, restarts=10, max_iters=4000))
    assert res.best_report.total <= 1e-3
    assert np.array_equal(np.argmax(res.best_map.phi, axis=0), np.arange(4))


def test_intermediate_maps_feasible(corridor4, corridor5):
    res = optimize(corridor4, corridor5, FAST)
    m = res.best_map
    assert np.allclose(m.phi.sum(axis=0), 1.0, atol=1e-9)
    assert np.allclose(m.phi_inv.sum(axis=0), 1.0, atol=1e-9)
    assert np.all(m.phi >= 0) and np.all(m.phi_inv >= 0)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    opt_seed=st.integers(0, 2**16),
    n0=st.integers(2, 3),
    n1=st.integers(2, 3),
)
def test_determinism_property(seed, opt_seed, n0, n1):
    rng = np.random.default_rng(seed)
    o0 = random_model(rng, n0, MOTOR, SENSOR)
    o1 = random_model(rng, n1, MOTOR, SENSOR)
    config = OptimizerConfig(seed=opt_seed, restarts=2, max_iters=60)
    a = optimize(o0, o1, config)
    b = optimize(o0, o1, config)
    assert a.best_report.total == b.best_report.total
    assert np.array_equal(a.best_map.phi, b.best_map.phi)
    assert np.array_equal(a.best_map.phi_inv, b.best_map.phi_inv)
    assert a.per_restart == b.per_restart


def test_epsilon_policy_threaded_through(corridor4, corridor5):
    config = OptimizerConfig(
        seed=1, restarts=1, max_iters=200, policy=SmoothingPolicy(epsilon=1e-6)
    )
    res = optimize(corridor4, corridor5, config)
    check = evaluate(corridor4, corridor5, res.best_map, config.policy)
    assert check.total == res.best_report.total
