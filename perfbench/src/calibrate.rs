//! Machine-speed calibration.
//!
//! The host this benchmark runs on is shared: the same repetition can take
//! a third longer in one minute than in the next, for every kind of code,
//! while the process sees no stolen time, and the speed swings within a
//! second too.  Wall-clock metrics are therefore scaled to a reference
//! machine speed.  Between the input rounds of every timed phase the
//! driver runs a short fixed kernel, and the kernel's rate tells how fast
//! the machine was while the phase ran; the kernel's own time is taken out
//! of the phase's wall time.  The kernel uses only the standard library, so
//! no change to the program under test can change its speed.  Its work mix
//! resembles the program's: small heap allocations, hashed and ordered
//! maps, string formatting.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel rounds per second of the reference machine.  Wall times are
/// reported as if the machine had run at this speed throughout.
pub const REFERENCE_SPEED: f64 = 3.5e6;

/// Kernel rounds per sample: about half a millisecond on the reference
/// machine.
const ROUNDS: u64 = 2_000;

/// Accumulated kernel samples.
#[derive(Debug, Default)]
pub struct Speedometer {
    rounds: u64,
    secs: f64,
}

impl Speedometer {
    /// Run the kernel once.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut hashed: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            hashed.insert(x % 8192, vec![i as u8; 24]);
            *ordered.entry(x % 4096).or_insert(0) += i;
            if let Some(v) = hashed.get(&(x.rotate_left(9) % 8192)) {
                black_box(v.len());
            }
            black_box(format!("10.0.{}.{}", x % 256, i % 256));
        }
        black_box((&hashed, &ordered));
        self.rounds += ROUNDS;
        self.secs += start.elapsed().as_secs_f64();
    }

    /// Wall seconds spent sampling.
    pub fn secs(&self) -> f64 {
        self.secs
    }

    /// Measured seconds per reference second over the samples taken.
    pub fn slowdown(&self) -> f64 {
        REFERENCE_SPEED * self.secs / self.rounds as f64
    }
}
