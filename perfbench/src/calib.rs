//! Host speed, measured beside the workload.
//!
//! Other tenants of a shared host change how fast its CPU runs, within a
//! run and from one run to the next. On a shared two-core x86-64 VM the
//! same directory_churn window took 1.0 s at one time and 2.1 s forty
//! minutes later, and runs of one fixed seed a few minutes apart spread
//! by 9–23% (quartile distance over median) in window host time, with
//! on-CPU time equal to wall time: the CPU ran slower, no turns were
//! lost, so neither more reps nor an on-CPU clock removes it.
//!
//! A [`Calibrator`] runs a fixed chunk of the benchmark's own work — a
//! timer queue, an ordered map of small buffers and a small table, the
//! kinds of work a discrete-event simulation does per event — between
//! the timed pieces of a rep, so each rep knows how fast the host ran
//! while it ran. Host times are reported at a reference speed: divided
//! by the rep's [`Pace::slowdown`]. Over ten 35 s runs of ten seeds on
//! that VM this brought the spread of the window's host time from 9.9%
//! to 2.7% on federation, 14.7% to 3.1% on mb_overload and 14.7% to
//! 9.0% on directory_churn, whose 240 MB of worlds lean on the memory
//! system more than the chunk does. The chunk is the benchmark's code,
//! not the program's, so a change to the program moves the workload's
//! time and leaves the chunk's alone.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one chunk takes at the reference speed. Only a scale:
/// it is near a chunk's time on a quiet shared two-core x86-64 VM, so
/// that reported times read close to that host's wall clock.
pub const REFERENCE_CHUNK_S: f64 = 250e-6;

/// Words of the table a chunk reads and writes at random (32 KiB): small,
/// so that a chunk between two slices evicts little of the workload's
/// cached state.
const TABLE_WORDS: usize = 1 << 12;
/// Steps in one chunk.
const STEPS: u64 = 3_000;
/// Host seconds of timed work between two chunks.
const CHUNK_EVERY_S: f64 = 0.002;

/// Runs the calibration chunks of one run.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    /// A calibrator with its table touched.
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            table: (0..TABLE_WORDS as u64).collect(),
        };
        c.chunk();
        c
    }

    /// Runs one chunk — the same work every time — and returns its host
    /// seconds.
    pub fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut queue = BinaryHeap::with_capacity(4096);
        let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut acc = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            queue.push(Reverse((x >> 40, i)));
            if queue.len() > 2048 {
                let Reverse((due, _)) = queue.pop().expect("queue is not empty");
                let slot = (due as usize).wrapping_mul(0x9e37) & mask;
                acc = acc.wrapping_add(self.table[slot]);
                self.table[slot] = acc;
            }
            let slot = x as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(i);
            match i % 8 {
                0 => {
                    map.insert(x & 0x3fff, vec![i as u8; (x & 127) as usize]);
                }
                4 => {
                    if let Some(v) = map.remove(&((x >> 20) & 0x3fff)) {
                        acc = acc.wrapping_add(v.len() as u64);
                    }
                }
                _ => {}
            }
        }
        black_box((acc, &map, &queue));
        t.elapsed().as_secs_f64()
    }
}

/// The chunks run during one phase of a rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pace {
    /// Host seconds of the timed chunks.
    pub chunks_s: f64,
    /// Timed chunks.
    pub chunks: u32,
    /// Host seconds of every chunk, timed or not.
    pub spent_s: f64,
    /// Timed work since the last chunk (host seconds).
    since_s: f64,
}

impl Pace {
    /// Counts `work_s` host seconds of timed work, and calibrates once
    /// [`CHUNK_EVERY_S`] of it has passed since the last time.
    pub fn after(&mut self, work_s: f64, calib: &mut Calibrator) {
        self.since_s += work_s;
        if self.since_s >= CHUNK_EVERY_S {
            self.calibrate(calib);
        }
    }

    /// Calibrates if the phase has not yet: even a short phase gets a
    /// speed.
    pub fn finish(&mut self, calib: &mut Calibrator) {
        if self.chunks == 0 {
            self.calibrate(calib);
        }
    }

    /// Runs two chunks and times the second. The first refills the
    /// caches with the chunk's own data, so the timed one costs the
    /// same whatever the workload left in them.
    fn calibrate(&mut self, calib: &mut Calibrator) {
        let warm_s = calib.chunk();
        let chunk_s = calib.chunk();
        self.chunks_s += chunk_s;
        self.chunks += 1;
        self.spent_s += warm_s + chunk_s;
        self.since_s = 0.0;
    }

    /// How many times slower than the reference speed the host ran
    /// during the phase.
    pub fn slowdown(&self) -> f64 {
        self.chunks_s / self.chunks as f64 / REFERENCE_CHUNK_S
    }
}
