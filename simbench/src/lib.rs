//! In-process benchmark of the EDN simulator.
//!
//! The binary (`src/main.rs`) drives four workloads through the public
//! functions of the workspace crates, one process on one thread, and
//! prints one JSON result line. This library holds the parts that are
//! tested on their own: sample statistics ([`stats`]), the span recorder
//! and its self-time arithmetic ([`span`]), the output check
//! ([`check`]), and the workloads themselves ([`workload`],
//! [`traced`]).

#![forbid(unsafe_code)]

pub mod check;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workload;

/// Number of leading ops over which `model_abs_err` is computed and
/// which a run at a seed without recorded digests replays from a fresh
/// set-up. Fixed, so both are deterministic per seed whatever the host
/// speed.
pub const PREFIX_OPS: usize = 8;

/// Whether a run's rolling digest after `count` ops is a checkpoint:
/// every count up to [`PREFIX_OPS`], then every power of two.
pub fn is_checkpoint(count: u64) -> bool {
    count > 0 && (count <= PREFIX_OPS as u64 || count.is_power_of_two())
}

/// FNV-1a over 64-bit words: the digest every op folds its simulated
/// statistics into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one word, byte by byte, little-endian.
    pub fn word(mut self, value: u64) -> Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds an `f64` by its bit pattern, so equal digests mean equal
    /// values to the last bit.
    pub fn float(self, value: f64) -> Self {
        self.word(value.to_bits())
    }

    /// The folded value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 finalizer: derives the independent per-op and per-replica
/// seeds handed to the simulator from the run's `--seed`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of replica `replica` of op `op` in a run seeded `seed`.
pub fn replica_seed(seed: u64, op: u64, replica: u64) -> u64 {
    mix(mix(mix(seed) ^ op) ^ replica)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_word_and_order() {
        let a = Digest::new().word(1).word(2).value();
        let b = Digest::new().word(2).word(1).value();
        let c = Digest::new().word(1).word(3).value();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Digest::new().word(1).word(2).value());
    }

    #[test]
    fn checkpoints_are_the_prefix_then_powers_of_two() {
        let counts: Vec<u64> = (0..=70).filter(|&n| is_checkpoint(n)).collect();
        assert_eq!(counts, [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64]);
    }

    #[test]
    fn replica_seeds_are_distinct() {
        let mut seeds: Vec<u64> = (0..4)
            .flat_map(|op| (0..64).map(move |r| replica_seed(7, op, r)))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 256);
        assert_ne!(replica_seed(7, 0, 0), replica_seed(8, 0, 0));
    }
}
