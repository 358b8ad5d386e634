"""Tests for LPT / round-robin work-unit scheduling."""

import threading

import numpy as np
import pytest

from repro.align import overlapper
from repro.align.overlapper import OverlapConfig, OverlapDetector, subset_pairs
from repro.distributed.stages import StageSpec
from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel
from repro.parallel.schedule import (
    assignment_imbalance,
    lpt_assignment,
    round_robin_assignment,
    subset_pair_costs,
)
from tests.align.test_overlapper import tiled_reads

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


class TestCosts:
    def test_self_pairs_halved(self):
        pairs = [(0, 0), (0, 1)]
        costs = subset_pair_costs(pairs, np.array([10, 20]))
        assert costs.tolist() == [50.0, 200.0]

    def test_standard_split(self):
        pairs = subset_pairs(4)
        costs = subset_pair_costs(pairs, np.array([8, 8, 8, 8]))
        # 4 self pairs at 32, 6 cross pairs at 64
        assert sorted(costs.tolist()) == [32.0] * 4 + [64.0] * 6


class TestLPT:
    def test_deterministic(self):
        costs = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 3.0])
        a = lpt_assignment(costs, 3)
        b = lpt_assignment(costs, 3)
        assert a.tolist() == b.tolist()

    def test_largest_first_balances(self):
        # Classic LPT witness: round-robin puts both 5s on worker 0.
        costs = np.array([5.0, 1.0, 5.0, 1.0])
        lpt = lpt_assignment(costs, 2)
        rr = round_robin_assignment(4, 2)
        assert assignment_imbalance(costs, lpt, 2) < assignment_imbalance(costs, rr, 2)
        assert assignment_imbalance(costs, lpt, 2) == 1.0

    def test_all_tasks_assigned_valid_workers(self):
        costs = np.arange(1, 11, dtype=np.float64)
        owner = lpt_assignment(costs, 4)
        assert owner.shape == (10,)
        assert set(owner.tolist()) <= {0, 1, 2, 3}

    def test_single_worker(self):
        owner = lpt_assignment(np.array([3.0, 1.0]), 1)
        assert owner.tolist() == [0, 0]

    def test_empty(self):
        assert lpt_assignment(np.array([]), 4).size == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            lpt_assignment(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            lpt_assignment(np.array([-1.0]), 2)
        with pytest.raises(ValueError):
            round_robin_assignment(3, 0)

    def test_estimated_imbalance_beats_round_robin_on_standard_split(self):
        # The exact configuration of the overlap stage: 4 subsets, 10
        # pairs, 4 workers.  LPT is perfectly even; round-robin is not.
        pairs = subset_pairs(4)
        costs = subset_pair_costs(pairs, np.full(4, 100))
        lpt_imb = assignment_imbalance(costs, lpt_assignment(costs, 4), 4)
        rr_imb = assignment_imbalance(costs, round_robin_assignment(len(pairs), 4), 4)
        assert lpt_imb == 1.0
        assert rr_imb > 1.2


class TestClusterScheduleImbalance:
    def test_lpt_improves_compute_balance(self, monkeypatch):
        # Per-rank work on the simulated cluster, counted rather than
        # timed: every subset pair a rank aligns inside
        # find_overlaps_parallel adds its estimated cost (|Q|·|R|,
        # self-pairs halved) to that rank.  On 4 equal subsets LPT
        # spreads the 10 pairs perfectly; round-robin striping does not.
        reads, _ = tiled_reads(genome_len=4000, stride=20)
        detector = OverlapDetector(OverlapConfig(min_overlap=50, n_subsets=4))
        current = threading.local()
        work: list[tuple[int, float]] = []

        def counted(tasks, task):
            work.append((current.rank, float(tasks.task_costs()[task])))
            return overlapper.align_pair_kernel(tasks, task)

        monkeypatch.setattr(
            overlapper,
            "ALIGN_STAGE",
            StageSpec("align", counted, overlapper.merge_overlaps),
        )

        def rank_fn(comm, schedule):
            current.rank = comm.rank
            return detector.find_overlaps_parallel(comm, reads, schedule=schedule)

        def imbalance(schedule):
            work.clear()
            results, _ = SimCluster(4, cost_model=FAST, sanitize=True).run(
                rank_fn, schedule
            )
            assert len(work) == 10  # every subset pair aligned exactly once
            owner = np.array([rank for rank, _ in work])
            cost = np.array([c for _, c in work])
            return results[0], assignment_imbalance(cost, owner, 4)

        lpt_result, lpt_imb = imbalance("lpt")
        rr_result, rr_imb = imbalance("round_robin")
        key = lambda ovs: sorted((o.query, o.ref, o.length, o.identity) for o in ovs)
        assert key(lpt_result) == key(rr_result)
        assert lpt_imb == pytest.approx(1.0)
        assert rr_imb == pytest.approx(1.25)

    def test_unknown_schedule_rejected(self):
        reads, _ = tiled_reads(genome_len=600)
        detector = OverlapDetector(OverlapConfig(min_overlap=50, n_subsets=2))
        with pytest.raises(RuntimeError, match="unknown schedule"):
            SimCluster(2, cost_model=FAST).run(
                detector.find_overlaps_parallel, reads, schedule="random"
            )
