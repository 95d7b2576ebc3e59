//! The reference computation: a fixed piece of work, independent of the
//! simulator, that the benchmark times over the same seconds as the work
//! it measures. A shared host's speed drifts by up to a factor of two
//! over minutes, and swings by a fifth from one second to the next, so a
//! unit of work timed alone says as much about the host as about the
//! code. Scaling its time by the reference's over the same stretch
//! ([`scaled_s`]) cancels most of that; the reference's own code never
//! changes, so a change to the simulator moves only the work's time.
//!
//! The computation is a small register-machine interpreter: random
//! eight-way dispatch and read-modify-write accesses to a table larger
//! than the L2 cache, so it leans on the same resources as the simulator
//! (branch prediction, cache capacity, memory latency) and slows with the
//! host as the simulator does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Words in the reference's table (4 MiB).
const TABLE_WORDS: usize = 1 << 20;

/// Interpreter steps per chunk: about a millisecond on the host of
/// README.md.
const CHUNK_STEPS: u32 = 60_000;

/// The chunk time of the reference speed: [`scaled_s`] reports seconds
/// as they would read on a host that runs one chunk in exactly this.
pub const NOMINAL_CHUNK_S: f64 = 1e-3;

/// Pause between the chunks [`Reference::alongside`] times: one chunk
/// per 50 ms takes 2 % of one CPU.
const ALONGSIDE_PERIOD: Duration = Duration::from_millis(49);

/// `raw_s` host seconds, measured while one reference chunk took
/// `chunk_s` on average, in seconds at the reference speed.
pub fn scaled_s(raw_s: f64, chunk_s: f64) -> f64 {
    raw_s * NOMINAL_CHUNK_S / chunk_s
}

/// The reference's state, carried from chunk to chunk.
pub struct Reference {
    table: Vec<u32>,
    regs: [u64; 8],
}

/// Sets a flag when dropped, so the sampling thread of
/// [`Reference::alongside`] stops even when the work panics.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

impl Reference {
    /// Allocates and touches the table, so no chunk pays for page faults.
    pub fn new() -> Reference {
        let mut regs = [0u64; 8];
        regs[0] = 0x9e37_79b9_7f4a_7c15;
        Reference {
            table: vec![1; TABLE_WORDS],
            regs,
        }
    }

    /// Runs one chunk and returns its seconds.
    pub fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.steps(std::hint::black_box(CHUNK_STEPS)));
        t.elapsed().as_secs_f64()
    }

    /// Runs `work` while a thread of its own times one chunk every
    /// 50 ms, for work that runs on threads the benchmark cannot
    /// interleave chunks with. Returns the work's result and the mean
    /// seconds of the chunks, at least one of which always runs.
    pub fn alongside<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64) {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut chunks = vec![self.chunk()];
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(ALONGSIDE_PERIOD);
                    chunks.push(self.chunk());
                }
                chunks.iter().sum::<f64>() / chunks.len() as f64
            });
            let out = {
                let _stop = SetOnDrop(&done);
                work()
            };
            (out, sampler.join().expect("the reference thread panicked"))
        })
    }

    fn steps(&mut self, n: u32) -> u64 {
        let mask = self.table.len() - 1;
        let (t, r) = (&mut self.table, &mut self.regs);
        for _ in 0..n {
            r[0] ^= r[0] << 13;
            r[0] ^= r[0] >> 7;
            r[0] ^= r[0] << 17;
            let a = (r[0] as usize) & mask;
            match r[0] >> 61 {
                0 => r[1] = r[1].wrapping_add(u64::from(t[a])),
                1 => t[a] = t[a].wrapping_add(r[1] as u32),
                2 => r[2] ^= r[1].rotate_left(7),
                3 => {
                    if r[2] & 1 == 0 {
                        r[3] = r[3].wrapping_mul(r[2] | 1);
                    } else {
                        r[3] = r[3].wrapping_add(1);
                    }
                }
                4 => t[a] ^= r[3] as u32,
                5 => r[4] = r[4].wrapping_add(u64::from(t[a.wrapping_mul(7) & mask])),
                6 => r[5] = r[5].wrapping_sub(r[4]),
                _ => r[6] ^= r[5] >> 3,
            }
        }
        r.iter().fold(0, |h, &v| h ^ v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_deterministic_and_take_time() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.steps(1000), b.steps(1000));
        assert!(a.chunk() > 0.0);
        assert_eq!(scaled_s(2.0, 2.0 * NOMINAL_CHUNK_S), 1.0);
    }

    #[test]
    fn alongside_returns_the_work_and_stops_on_panic() {
        let mut r = Reference::new();
        let (out, chunk_s) = r.alongside(|| {
            std::thread::sleep(Duration::from_millis(120));
            7
        });
        assert_eq!(out, 7);
        assert!(chunk_s > 0.0);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.alongside(|| panic!("work failed"))
        }));
        assert!(panicked.is_err(), "the panic reaches the caller");
    }
}
