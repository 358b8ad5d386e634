"""Workload recipes: inputs from a seed, assembly settings, digests.

Each workload turns the benchmark seed into inputs (reads plus the
simulator's reference genomes) and names the assembly settings its
timed runs and its reference run use.  The assembler only ever sees the
generated inputs; the genomes stay with the benchmark for scoring.

``size="smoke"`` shrinks every input so the benchmark's own tests can
run each workload in seconds; benchmark runs always use ``size="full"``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("metagenome", "genome-11k", "store-process", "service")
SIZES = ("full", "smoke")

#: reads per shard of the ``store-process`` store.
STORE_SHARD_SIZE = 1024
#: LRU budget of the ``store-process`` run: below the store's ~7 MB
#: working set, so the cache evicts, but above the ~1 MiB cliff
#: recorded in perfbench/README.md.
STORE_CACHE_BUDGET = 4 * 1024 * 1024
#: the second ``service`` job's seed is the first one's plus this
#: (D1 and D2 for the default seed 101).
SERVICE_SEED_STEP = 101
#: community seeds of the metagenome inputs: D1's, and D2's for the
#: second service client.
D1_SEED, D2_SEED = 101, 202


@dataclass
class Input:
    """One generated input: its files on disk and its ground truth."""

    label: str
    #: pickled in-RAM ReadSet (the reference run always reads this).
    reads_pickle: str
    #: FASTQ of the same reads (``service`` only).
    fastq: str | None
    #: sharded store of the same reads (``store-process`` only).
    store: str | None
    #: simulator genomes, for ``evaluate_assembly``.
    references: list


def metagenome_dataset(community_seed: int, read_seed: int, size: str):
    """A D-style 10-genus gut community, sequenced with ``read_seed``.

    ``STANDARD_SPECS`` recipe: ``build_dataset`` draws the community and
    the reads from one seed, so ``(101, 101)`` is exactly D1 and
    ``(202, 202)`` exactly D2.  The benchmark seed picks the sequencing
    run (read positions, strands, errors, qualities) of a fixed
    community, because the community's abundance profile sets how much
    work the assembly does and benchmark seeds must be exchangeable
    (perfbench/README.md, "Seeds").
    """
    from repro.bench.datasets import STANDARD_SPECS
    from repro.simulate.community import CommunityConfig, build_community
    from repro.simulate.reads import ReadSimConfig, ReadSimulator

    base = STANDARD_SPECS[0]
    config = base.community
    if size == "smoke":
        config = CommunityConfig(
            shared_length=700, private_length=500, repeat_copies=1, repeat_length=120
        )
    community = build_community(config, seed=community_seed)
    r = base.reads
    reads = ReadSimulator(
        ReadSimConfig(
            read_length=r.read_length,
            coverage=r.coverage,
            base_quality=r.base_quality,
            tail_quality=r.tail_quality,
            quality_jitter=r.quality_jitter,
            flat_error_rate=r.flat_error_rate,
            seed=read_seed,
        )
    ).simulate_community(community)
    return reads, community.reference_database()


def genome_dataset(seed: int, size: str):
    """Uniform single-genome shotgun reads of a ``FinishScaleSpec``.

    The reference genome is redrawn from the spec seed exactly as
    ``iter_scale_reads`` draws it (first draw of the spec's rng).
    """
    from repro.bench.datasets import FinishScaleSpec, iter_scale_reads
    from repro.io.readset import ReadSet
    from repro.simulate.genome import Genome, random_genome

    spec = FinishScaleSpec(
        name=f"G{seed}", backbone=2400 if size == "full" else 120, seed=seed
    )
    reads = ReadSet(iter_scale_reads(spec))
    genome = random_genome(spec.genome_length, np.random.default_rng(spec.seed))
    return reads, [Genome(name=spec.name, codes=genome)]


def input_seeds(workload: str, seed: int) -> list[int]:
    """Read seeds of a run's inputs (two service clients: s and s+101)."""
    if workload == "service":
        return [seed, seed + SERVICE_SEED_STEP]
    return [seed]


def make_inputs(workload: str, seed: int, size: str, workdir: str) -> list[Input]:
    """Generate and write every input of one workload run."""
    from repro.io.fastq import write_fastq
    from repro.store import pack_reads

    os.makedirs(workdir, exist_ok=True)
    out = []
    for client, s in enumerate(input_seeds(workload, seed)):
        if workload == "genome-11k":
            reads, refs = genome_dataset(s, size)
        else:
            reads, refs = metagenome_dataset((D1_SEED, D2_SEED)[client], s, size)
        label = f"{workload}-{s}"
        pkl = os.path.join(workdir, f"{label}.pkl")
        with open(pkl, "wb") as fh:
            pickle.dump(reads, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fastq = store = None
        if workload == "service":
            fastq = os.path.join(workdir, f"{label}.fastq")
            write_fastq(reads, fastq)
        if workload == "store-process":
            store = os.path.join(workdir, f"{label}.store")
            pack_reads(reads, store, shard_size=STORE_SHARD_SIZE)
        out.append(Input(label, pkl, fastq, store, refs))
    return out


def assembly_config(workload: str, role: str, store: str | None = None):
    """The ``AssemblyConfig`` of a ``timed`` or ``reference`` run.

    The reference run is the plain single-threaded in-RAM assembly
    every other path must reproduce byte for byte.
    """
    from repro.align.overlapper import OverlapConfig
    from repro.core.config import AssemblyConfig

    if role == "reference":
        return AssemblyConfig(backend="serial")
    if workload in ("metagenome", "genome-11k"):
        return AssemblyConfig()
    if workload == "store-process":
        return AssemblyConfig(
            store_path=store,
            cache_budget=STORE_CACHE_BUDGET,
            backend="process",
            backend_workers=2,
            overlap_workers=2,
            overlap=OverlapConfig(n_subsets=4),
        )
    raise ValueError(f"workload {workload!r} has no in-process assembly config")


def contig_digest(contigs) -> str:
    """SHA-256 of the ordered contig sequences (codes 0-3 per base)."""
    h = hashlib.sha256()
    for c in contigs:
        h.update(np.asarray(c, dtype=np.uint8).tobytes())
        h.update(b"|")
    return h.hexdigest()


#: quality floors per input size and workload: (lowest genome fraction,
#: highest share of misassembled contigs), set well below what every
#: measured seed reached; the tiny smoke communities assemble worse.
QUALITY_FLOORS = {
    "full": {
        "metagenome": (0.30, 0.15),
        "genome-11k": (0.95, 0.05),
        "store-process": (0.30, 0.15),
        "service": (0.30, 0.15),
    },
    "smoke": dict.fromkeys(WORKLOADS, (0.20, 0.50)),
}


def quality_violations(workload: str, size: str, label: str, quality: dict) -> list[str]:
    """Messages for every quality floor the reference contigs miss."""
    min_fraction, max_misassembled = QUALITY_FLOORS[size][workload]
    out = []
    if quality["genome_fraction"] < min_fraction:
        out.append(
            f"{label}: genome fraction {quality['genome_fraction']:.4f} < floor {min_fraction}"
        )
    share = quality["misassembled_contigs"] / max(quality["contigs"], 1)
    if share > max_misassembled:
        out.append(f"{label}: misassembled share {share:.4f} > ceiling {max_misassembled}")
    return out
