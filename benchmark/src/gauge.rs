//! The host's speed, gauged by fixed reference work.
//!
//! The host is shared, and its other tenants contend for caches and memory:
//! for tens of seconds to minutes at a time every thread of a run is 15–70%
//! slower, and no length of run averages that away. The reference work is
//! this crate's own fixed code — random read-modify-writes over an 8 MB
//! table, and a hash map of vectors built, sorted and probed — and that
//! contention slows it as it slows the program. So every time a workload
//! measures is scaled by the time of the reference work run next to it:
//! [`at_reference`] gives the time the measured work takes when the
//! reference work takes [`REFERENCE_NS`].
//!
//! A change to the program does not touch the reference work, so whatever
//! the change saves or costs shows in full in the scaled times.

use crate::heap;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference speed: the reference work's time, in nanoseconds, on the
/// recording machine when no other tenant loads it (its 2nd percentile
/// over eight minutes was 2.3 ms).
pub const REFERENCE_NS: f64 = 2_000_000.0;

/// Entries of the table the reference work reads and writes: 8 MB.
const TABLE: usize = 1 << 20;
/// Random read-modify-writes per reading.
const TOUCHES: u64 = 300_000;
/// Insertions into the hash map per reading.
const INSERTS: u64 = 60_000;

/// Runs the reference work. Its memory is not counted as the program's
/// heap.
pub struct Gauge {
    table: Vec<u64>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            table: heap::uncounted(|| vec![1; TABLE]),
        }
    }

    /// Run the reference work once and return its time in nanoseconds: the
    /// geometric mean of the table's and the hash map's times.
    pub fn read(&mut self) -> f64 {
        heap::uncounted(|| {
            let start = Instant::now();
            black_box(touch(&mut self.table, black_box(TOUCHES)));
            let touched = Instant::now();
            black_box(hash_map(black_box(INSERTS)));
            let mapped = Instant::now();
            let table_ns = (touched - start).as_nanos() as f64;
            let map_ns = (mapped - touched).as_nanos() as f64;
            (table_ns * map_ns).sqrt()
        })
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        let table = std::mem::take(&mut self.table);
        heap::uncounted(|| drop(table));
    }
}

/// `ns`, measured next to a reference reading of `reference_ns`, at the
/// reference speed.
pub fn at_reference(ns: f64, reference_ns: f64) -> f64 {
    ns * REFERENCE_NS / reference_ns
}

/// A linear congruential step: the reference work's own random numbers.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Read-modify-write `touches` random entries of `table` (its length a
/// power of two).
fn touch(table: &mut [u64], touches: u64) -> u64 {
    let mask = table.len() as u64 - 1;
    let (mut x, mut sum) = (1u64, 0u64);
    for _ in 0..touches {
        x = lcg(x);
        let index = ((x >> 20) & mask) as usize;
        sum = sum.wrapping_add(table[index]);
        table[index] = sum;
    }
    sum
}

/// Build a map of `inserts / 4` keys to vectors from `inserts` random
/// insertions, sort a digest of it and probe it `inserts` times.
fn hash_map(inserts: u64) -> u64 {
    let keys = inserts / 4;
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut x = 7u64;
    for i in 0..inserts {
        x = lcg(x);
        map.entry(x % keys).or_default().push(i as u32);
    }
    let mut digest: Vec<u64> = map.iter().map(|(k, v)| k ^ v.len() as u64).collect();
    digest.sort_unstable();
    let found: u64 = (0..inserts)
        .filter_map(|i| map.get(&(i % keys)))
        .map(|v| v.len() as u64)
        .sum();
    found + digest[digest.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_host_speed() {
        // Measured at half the reference speed: half the time it took.
        assert_eq!(at_reference(8_000.0, 2.0 * REFERENCE_NS), 4_000.0);
        assert_eq!(at_reference(8_000.0, REFERENCE_NS), 8_000.0);
    }

    #[test]
    fn the_reference_work_is_fixed() {
        let mut table = vec![1; 1 << 10];
        let first = touch(&mut table, 1_000);
        assert_eq!(touch(&mut vec![1; 1 << 10], 1_000), first);
        assert_eq!(hash_map(4_000), hash_map(4_000));
        let mut gauge = Gauge::new();
        assert!(gauge.read() > 0.0);
    }
}
