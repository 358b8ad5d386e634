"""Per-query-read reference overlapper: the oracle for the batch engine.

One Python iteration per query read: look its k-mers up in the
reference index, vote per (reference read, diagonal), keep the
best-supported diagonal per reference read, and verify each candidate
on its own.  Slow, but each step is easy to check by eye, which is what
``test_engine_equivalence.py`` holds the production engine against.
"""

from __future__ import annotations

import numpy as np

from repro.align.banded_nw import banded_align
from repro.align.kmer_index import KmerIndex
from repro.align.overlap import Overlap, classify_overlap, overlap_span
from repro.align.overlapper import OverlapConfig, subset_pairs
from repro.io.readset import ReadSet
from repro.sequence.dna import hamming_identity


def _build_index(config: OverlapConfig, reads: ReadSet, ref_indices: np.ndarray):
    if config.index == "suffix_array":
        from repro.align.sa_index import SuffixArrayReadIndex

        return SuffixArrayReadIndex(reads, config.k, ref_indices)
    return KmerIndex(reads, config.k, ref_indices)


def _candidates(
    config: OverlapConfig, reads: ReadSet, query: int, index, same_subset: bool
) -> list[tuple[int, int, int]]:
    """(ref_read, diagonal, votes) candidates for one query read.

    In same-subset mode only references with a larger index are
    considered, so each unordered read pair is evaluated once.
    """
    vals = reads.kmer_codes_of(query, config.k)
    qpos, hit_reads, hit_offsets = index.lookup(vals)
    if qpos.size == 0:
        return []
    keep = hit_reads > query if same_subset else hit_reads != query
    qpos, hit_reads, hit_offsets = qpos[keep], hit_reads[keep], hit_offsets[keep]
    if qpos.size == 0:
        return []
    diag = qpos - hit_offsets
    order = np.lexsort((diag, hit_reads))
    r, d = hit_reads[order], diag[order]
    boundary = np.ones(r.size, dtype=bool)
    boundary[1:] = (r[1:] != r[:-1]) | (d[1:] != d[:-1])
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, r.size))
    g_reads, g_diags = r[starts], d[starts]
    strong = counts >= config.min_kmer_hits
    if not strong.any():
        return []
    g_reads, g_diags, counts = g_reads[strong], g_diags[strong], counts[strong]
    # Keep the best-supported diagonal per reference read.
    order = np.lexsort((counts, g_reads))
    g_reads, g_diags, counts = g_reads[order], g_diags[order], counts[order]
    last = np.ones(g_reads.size, dtype=bool)
    last[:-1] = g_reads[1:] != g_reads[:-1]
    return list(
        zip(g_reads[last].tolist(), g_diags[last].tolist(), counts[last].tolist())
    )


def _verify(
    config: OverlapConfig, reads: ReadSet, query: int, ref: int, diagonal: int
) -> Overlap | None:
    len_q, len_r = reads.length_of(query), reads.length_of(ref)
    q_start, r_start, length = overlap_span(diagonal, len_q, len_r)
    if length < config.min_overlap:
        return None
    q_seg = reads.codes_of(query)[q_start : q_start + length]
    r_seg = reads.codes_of(ref)[r_start : r_start + length]
    if config.method == "ungapped":
        identity = hamming_identity(q_seg, r_seg)
        aln_length = length
    else:
        result = banded_align(q_seg, r_seg, band=config.band)
        identity = result.identity
        aln_length = result.length
    if identity < config.min_identity or aln_length < config.min_overlap:
        return None
    kind = classify_overlap(q_start, r_start, length, len_q, len_r)
    return Overlap(
        query=query,
        ref=ref,
        q_start=q_start,
        r_start=r_start,
        length=length,
        identity=identity,
        kind=kind,
    )


def find_overlaps_loop(
    config: OverlapConfig, reads: ReadSet
) -> tuple[list[Overlap], int]:
    """All overlaps and the candidate count, one query read at a time."""
    subsets = reads.split(config.n_subsets)
    overlaps: list[Overlap] = []
    n_candidates = 0
    for i, j in subset_pairs(len(subsets)):
        index = _build_index(config, reads, subsets[j])
        for q in subsets[i].tolist():
            for ref, diag, _votes in _candidates(config, reads, q, index, i == j):
                n_candidates += 1
                ov = _verify(config, reads, q, ref, diag)
                if ov is not None:
                    overlaps.append(ov)
    return overlaps, n_candidates
