//! Morsel-driven parallel runner for the executor's hot loops.
//!
//! The select evaluator's data-parallel kernels (base-scan filtering,
//! hash-join probes, index-nested-loop probes, projection) all have
//! the same shape: a pure function mapped over a slice of inputs whose
//! outputs are concatenated in input order. [`run_morsels`] runs that
//! shape on a hand-rolled worker pool built on [`std::thread::scope`]
//! — no queues, no channels, no external crates:
//!
//! * the input slice is split into fixed-size morsels
//!   ([`MORSEL_ROWS`] rows each);
//! * `min(threads, morsels)` workers pull morsel indexes from a shared
//!   atomic counter (work stealing degenerates to striding, so skewed
//!   morsels cannot idle a worker);
//! * each worker keeps the outputs keyed by morsel index and charges
//!   row counters to a private scratch [`ExecProfile`];
//! * after the scope joins, outputs are concatenated **in morsel
//!   order** and scratch profiles are merged once.
//!
//! The determinism contract follows directly: because morsel order is
//! input order and profile counters are commutative sums, the rows and
//! the merged counters are byte-identical to a serial run of the same
//! loop, at any thread count, regardless of how the OS schedules the
//! workers. Errors are deterministic too: if several morsels fail, the
//! error from the lowest-indexed one wins (the one a serial run would
//! have hit first).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use starmagic_common::{Error, Result};

use crate::profile::ExecProfile;

/// Logical CPUs of this host, cached once. Worker pools are clamped
/// here: spawning more workers than cores buys only context-switch
/// overhead, never throughput.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Rows per morsel. Small enough to load-balance skewed predicates,
/// large enough to amortize the per-morsel bookkeeping.
pub const MORSEL_ROWS: usize = 256;

/// Minimum input size before a parallel loop engages. Below this the
/// serial path wins outright (thread spawn costs more than the work),
/// and with fewer than two morsels there is nothing to distribute.
pub const PARALLEL_THRESHOLD: usize = 2 * MORSEL_ROWS;

/// Map `f` over fixed-size morsels of `items` on up to `threads`
/// workers; concatenate the outputs in morsel order and merge the
/// workers' scratch profiles. Output is byte-identical to
/// `f(items, profile)` run serially (see the module docs for why).
pub fn run_morsels<T, R, F>(threads: usize, items: &[T], f: F) -> Result<(Vec<R>, ExecProfile)>
where
    T: Sync,
    R: Send,
    F: Fn(&[T], &mut ExecProfile) -> Result<Vec<R>> + Sync,
{
    let morsels: Vec<&[T]> = items.chunks(MORSEL_ROWS).collect();
    let workers = threads.min(morsels.len()).min(host_parallelism()).max(1);
    if workers == 1 {
        // Serial, but still morsel-at-a-time: `f` sees the same chunk
        // boundaries (and charges the same per-chunk counters) as a
        // parallel run, so clamping is invisible to callers.
        let mut profile = ExecProfile::default();
        let mut rows = Vec::with_capacity(items.len());
        for m in &morsels {
            rows.extend(f(m, &mut profile)?);
        }
        return Ok((rows, profile));
    }

    let next = AtomicUsize::new(0);
    type WorkerResult<R> = (Vec<(usize, Vec<R>)>, ExecProfile, Option<(usize, Error)>);
    let results: Vec<WorkerResult<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut profile = ExecProfile::default();
                    let mut out: Vec<(usize, Vec<R>)> = Vec::new();
                    let mut err: Option<(usize, Error)> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= morsels.len() {
                            break;
                        }
                        match f(morsels[i], &mut profile) {
                            Ok(rows) => out.push((i, rows)),
                            Err(e) => {
                                err = Some((i, e));
                                break;
                            }
                        }
                    }
                    (out, profile, err)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker panicked"))
            .collect()
    });

    let mut profile = ExecProfile::default();
    let mut chunks: Vec<(usize, Vec<R>)> = Vec::with_capacity(morsels.len());
    let mut first_err: Option<(usize, Error)> = None;
    for (out, scratch, err) in results {
        profile.merge(&scratch);
        chunks.extend(out);
        if let Some((i, e)) = err {
            let lower = match &first_err {
                None => true,
                Some((j, _)) => i < *j,
            };
            if lower {
                first_err = Some((i, e));
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    chunks.sort_unstable_by_key(|(i, _)| *i);
    let mut rows = Vec::with_capacity(items.len());
    for (_, chunk) in chunks {
        rows.extend(chunk);
    }
    Ok((rows, profile))
}

/// Batch dispatch for the columnar executor: split positions `0..n`
/// into [`MORSEL_ROWS`]-sized chunks and map `f` over each on the
/// worker pool, returning one output per chunk **in chunk order**.
/// The chunk boundaries depend only on `n`, never on the thread
/// count, so the concatenated outputs (and the merged scratch
/// profiles) are byte-identical to a serial run.
pub fn run_batches<R, F>(threads: usize, n: usize, f: F) -> Result<(Vec<R>, ExecProfile)>
where
    R: Send,
    F: Fn(&[u32], &mut ExecProfile) -> Result<R> + Sync,
{
    let positions: Vec<u32> = (0..n as u32).collect();
    run_morsels(threads, &positions, |chunk, profile| {
        f(chunk, profile).map(|r| vec![r])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_qgm::BoxId;

    #[test]
    fn run_batches_chunks_are_ordered_and_sized() {
        for threads in [1, 4] {
            let (chunks, _) =
                run_batches(threads, 1000, |chunk, _| Ok((chunk[0], chunk.len()))).unwrap();
            assert_eq!(chunks.len(), 4, "threads={threads}");
            assert_eq!(
                chunks,
                vec![(0, 256), (256, 256), (512, 256), (768, 232)],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn output_preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..5000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 4, 8] {
            let (got, _) = run_morsels(threads, &items, |morsel, _| {
                Ok(morsel.iter().map(|x| x * 2).collect())
            })
            .unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn worker_profiles_merge_to_serial_totals() {
        let items: Vec<u64> = (0..3000).collect();
        let run = |threads| {
            let (_, profile) = run_morsels(threads, &items, |morsel, profile: &mut ExecProfile| {
                profile.entry(BoxId(1)).rows_scanned += morsel.len() as u64;
                profile.entry(BoxId(2)).rows_in += 1;
                Ok(Vec::<u64>::new())
            })
            .unwrap();
            profile
        };
        let serial = run(1);
        assert_eq!(serial.get(BoxId(1)).rows_scanned, 3000);
        for threads in [2, 4, 8] {
            let p = run(threads);
            assert_eq!(p.get(BoxId(1)).rows_scanned, 3000, "threads={threads}");
            // rows_in counts morsel batches: 3000 rows / 256 per morsel.
            assert_eq!(p.get(BoxId(2)).rows_in, 12, "threads={threads}");
        }
    }

    #[test]
    fn filtering_is_order_stable() {
        let items: Vec<u64> = (0..4096).collect();
        let expected: Vec<u64> = items.iter().copied().filter(|x| x % 3 == 0).collect();
        let (got, _) = run_morsels(4, &items, |morsel, _| {
            Ok(morsel.iter().copied().filter(|x| x % 3 == 0).collect())
        })
        .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn lowest_morsel_error_wins() {
        let items: Vec<u64> = (0..4096).collect();
        let err = run_morsels(4, &items, |morsel, _| {
            if morsel[0] >= 1024 {
                Err(Error::execution(format!("boom at {}", morsel[0])))
            } else {
                Ok(vec![morsel[0]])
            }
        })
        .unwrap_err();
        // Morsel 4 (first row 1024) is the lowest failing morsel.
        assert!(err.to_string().contains("boom at 1024"), "{err}");
    }

    #[test]
    fn small_inputs_run_inline() {
        // Fewer rows than one morsel: no threads are spawned, the
        // closure runs once over the whole slice.
        let items: Vec<u64> = (0..10).collect();
        let (got, _) = run_morsels(8, &items, |morsel, _| {
            assert_eq!(morsel.len(), 10);
            Ok(morsel.to_vec())
        })
        .unwrap();
        assert_eq!(got, items);
    }
}
