//! Seeded request generation: the benchmark's only source of randomness.
//! The program under test sees nothing but the requests built from it.

/// One step of splitmix64 (also the payload fill generator).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        splitmix64(&mut s);
        Rng(s)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One data operation on a connection's private object slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read(usize),
    Write(usize),
}

/// The key-value op mix: uniform slots and a read share.
#[derive(Debug, Clone)]
pub struct OpMix {
    rng: Rng,
    slots: u64,
    read_pct: u64,
}

impl OpMix {
    pub fn new(rng: Rng, slots: usize, read_pct: u64) -> Self {
        OpMix {
            rng,
            slots: slots as u64,
            read_pct,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let slot = self.rng.below(self.slots) as usize;
        if self.rng.below(100) < self.read_pct {
            Op::Read(slot)
        } else {
            Op::Write(slot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        let mut a = OpMix::new(Rng::new(42, 1), 256, 90);
        let mut b = OpMix::new(Rng::new(42, 1), 256, 90);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn mix_matches_its_shares() {
        let mut m = OpMix::new(Rng::new(7, 0), 256, 90);
        let (mut r, mut w) = (0, 0);
        for _ in 0..32_000 {
            match m.next_op() {
                Op::Read(s) | Op::Write(s) if s >= 256 => panic!("slot {s}"),
                Op::Read(_) => r += 1,
                Op::Write(_) => w += 1,
            }
        }
        assert!((28_000..29_600).contains(&r), "reads {r} writes {w}");
    }
}
