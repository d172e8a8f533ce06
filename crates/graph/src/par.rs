//! Host threads for generation and the CSR build: how many workers a job
//! gets, and running them over disjoint parts of one buffer. What a worker
//! computes never depends on how many there are.

/// Fewest edges worth a worker of its own: a worker costs a thread spawn and
/// an RNG jump (tens of microseconds), this many R-MAT edges take
/// milliseconds.
pub(crate) const MIN_EDGES_PER_WORKER: usize = 1 << 16;

/// Workers for a job over `edges` edges: one per host core, but none with
/// fewer than [`MIN_EDGES_PER_WORKER`] edges, and at least one.
pub(crate) fn workers(edges: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(edges / MIN_EDGES_PER_WORKER).max(1)
}

/// `parts + 1` ascending cut points splitting `0..len` into `parts` ranges
/// whose lengths differ by at most one.
pub(crate) fn even_cuts(len: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|k| k * len / parts).collect()
}

/// Splits `data` at the ascending `cuts` (first 0, last `data.len()`) into
/// `cuts.len() - 1` parts.
pub(crate) fn split_at_cuts<'a, T>(mut data: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    cuts.windows(2)
        .map(|w| {
            let (part, rest) = std::mem::take(&mut data).split_at_mut(w[1] - w[0]);
            data = rest;
            part
        })
        .collect()
}

/// Runs `f` on every part: each but the last on a scoped thread of its own,
/// the last on the caller's. Returns when all have finished; a worker's
/// panic resumes on the caller.
pub(crate) fn run_parts<P: Send>(parts: Vec<P>, f: impl Fn(P) + Sync) {
    let f = &f;
    std::thread::scope(|s| {
        let mut parts = parts.into_iter();
        let last = parts.next_back();
        for part in parts {
            s.spawn(move || f(part));
        }
        if let Some(part) = last {
            f(part);
        }
    });
}
