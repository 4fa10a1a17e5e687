//! `perfbench-probe` — the host-speed probe of the perfbench benchmark.
//!
//! A shared host slows everything on it by up to 2x for seconds to
//! minutes at a time (a busy neighbour on the same core, memory traffic),
//! in CPU time as much as in wall time. `run.py` times this fixed piece
//! of work next to every job it measures, so a job's time can be read
//! against the host's speed at that moment. The work depends on nothing
//! in the repository, so a change to the program cannot move it.
//!
//! ```text
//! perfbench-probe        # then one line per probe on stdin: <threads>
//! ```
//!
//! Each probe runs `CHUNKS` chunks, pulled by `<threads>` threads from an
//! atomic counter as `ChunkPool` does. A chunk mixes the kinds of work
//! the program does: a dependent pointer chase over 8 MB (memory
//! latency), a read-modify-write sweep over 1 MB of a 32 MB array
//! (memory bandwidth), integer hashing (arithmetic) and 1 MB of freshly
//! allocated memory touched page by page (page faults, which every job
//! process pays for its state). The probe prints its wall time in
//! seconds on a line of its own.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const CHASE_LEN: usize = 1 << 21; // u32: 8 MB
const SWEEP_LEN: usize = 1 << 22; // u64: 32 MB
const CHUNKS: usize = 32;
const CHASE_STEPS: usize = 4096;
const SWEEP_STEP: usize = 1 << 17; // u64: 1 MB per chunk
const HASH_STEPS: usize = 65536;
const FRESH_BYTES: usize = 1 << 20;
const PAGE: usize = 4096;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random permutation: the chase goes from `i` to `next[i]`.
fn permutation() -> Vec<u32> {
    let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
    let mut state = 1;
    for i in (1..CHASE_LEN).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        next.swap(i, j);
    }
    next
}

fn chunk(next: &[u32], sweep: &mut [u64], index: usize) -> u64 {
    let mut at = (index * 7919 % CHASE_LEN) as u32;
    let mut acc = 0u64;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
        acc = acc.wrapping_add(at as u64);
    }
    for v in sweep.iter_mut() {
        *v = v.wrapping_mul(3).wrapping_add(acc);
    }
    for _ in 0..HASH_STEPS {
        acc = splitmix(&mut acc);
    }
    let mut fresh = vec![0u8; FRESH_BYTES];
    for page in fresh.chunks_mut(PAGE) {
        page[0] = acc as u8;
    }
    acc = acc.wrapping_add(
        std::hint::black_box(&fresh)
            .iter()
            .step_by(PAGE)
            .map(|&b| b as u64)
            .sum::<u64>(),
    );
    acc ^ sweep[index]
}

fn probe(next: &[u32], sweep: &mut [u64], threads: usize) -> (f64, u64) {
    let counter = AtomicUsize::new(0);
    // Chunk i sweeps slice i % (SWEEP_LEN / SWEEP_STEP) of the array.
    let slices: Vec<Mutex<&mut [u64]>> = sweep.chunks_mut(SWEEP_STEP).map(Mutex::new).collect();
    let start = Instant::now();
    let total = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut acc = 0u64;
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= CHUNKS {
                            return acc;
                        }
                        let mut slice = slices[i % slices.len()].lock().unwrap();
                        acc = acc.wrapping_add(chunk(next, &mut slice, i));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold(0, u64::wrapping_add)
    });
    (start.elapsed().as_secs_f64(), total)
}

fn main() {
    let next = permutation();
    let mut sweep: Vec<u64> = (0..SWEEP_LEN as u64).collect();
    let stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        let Ok(threads) = line.unwrap_or_default().trim().parse::<usize>() else {
            eprintln!("perfbench-probe: expected a thread count per line");
            std::process::exit(2);
        };
        let (seconds, total) = probe(&next, &mut sweep, threads.max(1));
        std::hint::black_box(total);
        let mut out = stdout.lock();
        if writeln!(out, "{seconds:.9}")
            .and_then(|_| out.flush())
            .is_err()
        {
            return;
        }
    }
}
