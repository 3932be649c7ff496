import math

import pytest

import workloads


def _order(cmd):
    args = list(cmd.argv)
    if "--order" not in args:
        return None
    return [int(k) for k in args[args.index("--order") + 1].split(",")]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_argv(name):
    a = workloads.build(name, 11, "/out")
    b = workloads.build(name, 11, "/out")
    assert a == b


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_the_drawn_inputs(name):
    argvs = {tuple(c.argv for c in workloads.build(name, seed, "/out").commands)
             for seed in range(5)}
    assert len(argvs) == 5


@pytest.mark.parametrize("name", ["vector"])
@pytest.mark.parametrize("seed", range(20))
def test_orders_are_scrambled_permutations(name, seed):
    for cmd in workloads.build(name, seed, "/out").commands:
        order = _order(cmd)
        if order is None:
            continue
        n = len(order)
        assert sorted(order) == list(range(1, n + 1))
        assert order[0] != 1
        assert tuple(order) == cmd.order
        assert int(cmd.argv[cmd.argv.index("--n") + 1]) == n


def test_sweep_sample_seed_is_drawn_and_trial_counts_add_up():
    w = workloads.build("sweep", 3, "/out")
    sampled = [c for c in w.commands if "--sample" in c.argv]
    assert len(sampled) == 1
    assert 0 <= int(sampled[0].argv[sampled[0].argv.index("--seed") + 1]) < 2**31
    assert sum(c.expect["trials"] for c in w.commands) == w.items_per_pass == 735440
    assert all("--threads" not in c.argv for c in w.commands)


def test_stated_sizes():
    vector = workloads.build("vector", 0, "/out")
    assert vector.items_per_pass is None
    assert [c.label for c in vector.commands] == [
        "evolve.mixed_n21", "dump.simulate_n18", "dump.homogenize", "pairs.canonical",
        "pairs.scrambled"]
    assert all(str(c.out).startswith("/out") for c in vector.commands if c.out is not None)
    rates = {name: (prefix, items) for name, prefix, items, _ in workloads.PART_RATES["vector"]}
    assert rates == {"collisions_per_s": ("evolve.", 42),
                     "pairs_per_s": ("pairs.", 2 * math.comb(18, 2))}
    for prefix, _ in rates.values():
        assert any(c.label.startswith(prefix) for c in vector.commands)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.build("nope", 0, "/out")
