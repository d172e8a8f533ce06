//! Property-based tests of the memory-system invariants.

use atmem_hms::{
    Machine, MemPort, Placement, Platform, TierId, TrackedVec, VirtAddr, VirtRange, PAGE_SIZE,
};
use atmem_prop::prelude::*;

proptest! {
    /// Every byte written through the accounted path reads back through
    /// both the accounted and unaccounted paths, across arbitrary
    /// allocation sizes and placements.
    #[test]
    fn read_your_writes(
        sizes in prop::collection::vec(1usize..64, 1..6),
        fast in any::<bool>(),
        probe in 0usize..32,
    ) {
        let mut machine = Machine::new(Platform::testing());
        let placement = if fast { Placement::Fast } else { Placement::Slow };
        let mut regions = Vec::new();
        for pages in &sizes {
            regions.push(machine.alloc(pages * PAGE_SIZE, placement).unwrap());
        }
        for (ri, r) in regions.iter().enumerate() {
            let words = r.len / 8;
            let idx = probe % words;
            let va = r.start.add((idx * 8) as u64);
            let value = (ri as u64) << 32 | idx as u64;
            machine.write::<u64>(va, value).unwrap();
            prop_assert_eq!(machine.read::<u64>(va).unwrap(), value);
            prop_assert_eq!(machine.peek::<u64>(va).unwrap(), value);
        }
        // Free everything; all reads must fail afterwards.
        for r in &regions {
            machine.free(*r).unwrap();
        }
        for r in &regions {
            prop_assert!(machine.read::<u64>(r.start).is_err());
        }
    }

    /// Translation is stable: repeated reads of untouched data return the
    /// same value regardless of interleaved migrations of other regions.
    #[test]
    fn migration_does_not_disturb_neighbours(
        pages_a in 1usize..32,
        pages_b in 1usize..32,
        migrate_to_fast in any::<bool>(),
    ) {
        let mut machine = Machine::new(Platform::testing());
        let a = machine.alloc(pages_a * PAGE_SIZE, Placement::Slow).unwrap();
        let b = machine.alloc(pages_b * PAGE_SIZE, Placement::Slow).unwrap();
        machine.poke::<u64>(a.start, 0xAAAA).unwrap();
        machine.poke::<u64>(b.start, 0xBBBB).unwrap();
        let dst = if migrate_to_fast { TierId::FAST } else { TierId::SLOW };
        let full_a = VirtRange::new(a.start, pages_a * PAGE_SIZE);
        machine.migrate_mbind(full_a, dst).unwrap();
        prop_assert_eq!(machine.peek::<u64>(a.start).unwrap(), 0xAAAA);
        prop_assert_eq!(machine.peek::<u64>(b.start).unwrap(), 0xBBBB);
    }

    /// The batched window engine (`gather` / `scatter` / `gather_update`)
    /// leaves all simulated state — counters, clock, PEBS stream —
    /// bit-identical to the per-element loop, for arbitrary index windows
    /// (duplicates, runs and random jumps included) over an array that
    /// spills across the tier boundary.
    #[test]
    fn window_engine_matches_scalar_loop_on_random_windows(
        raw in prop::collection::vec((0u32..5_000, 1usize..5), 1..120),
        ops in prop::collection::vec(0u32..3, 1..6),
        period in 2u64..9,
        exact in any::<bool>(),
    ) {
        // Expand (start, run) pairs into a window with natural line runs.
        let n = 5_000usize; // u64 array: 40 000 B, spills a 16 KiB fast tier.
        let window: Vec<u32> = raw
            .iter()
            .flat_map(|&(start, run)| (0..run).map(move |k| (start + k as u32) % n as u32))
            .collect();
        let platform = || Platform::testing().with_capacities(16 * 1024, 4 * 1024 * 1024);
        let mut bulk = Machine::new(platform());
        let mut scalar = Machine::new(platform());
        // Period 1, jitter 0 samples every read miss: the drained stream is
        // the full in-order read-miss address stream. A drawn period > 1
        // checks that unsampled misses are not charged the sample cost.
        let (period, jitter) = if exact { (1, 0) } else { (period, period / 2) };
        for m in [&mut bulk, &mut scalar] {
            m.pebs_enable(period, jitter);
        }
        let vb = TrackedVec::<u64>::new(&mut bulk, n, Placement::Preferred(TierId::FAST)).unwrap();
        let vs =
            TrackedVec::<u64>::new(&mut scalar, n, Placement::Preferred(TierId::FAST)).unwrap();
        for op in ops {
            match op {
                0 => {
                    let mut out = vec![0u64; window.len()];
                    vb.gather(&mut bulk, &window, &mut out);
                    for (&i, &got) in window.iter().zip(&out) {
                        prop_assert_eq!(vs.get(&mut scalar, i as usize), got);
                    }
                }
                1 => {
                    let vals: Vec<u64> = (0..window.len() as u64).collect();
                    vb.scatter(&mut bulk, &window, &vals);
                    for (&i, &x) in window.iter().zip(&vals) {
                        vs.set(&mut scalar, i as usize, x);
                    }
                }
                _ => {
                    let mut olds = Vec::with_capacity(window.len());
                    vb.gather_update(&mut bulk, &window, |k, x| {
                        olds.push(x);
                        x.wrapping_add(k as u64)
                    });
                    for (k, &i) in window.iter().enumerate() {
                        let old = vs.update(&mut scalar, i as usize, |x| {
                            x.wrapping_add(k as u64)
                        });
                        prop_assert_eq!(olds[k], old);
                    }
                }
            }
            prop_assert_eq!(bulk.stats(), scalar.stats());
            prop_assert_eq!(bulk.now(), scalar.now());
        }
        prop_assert_eq!(bulk.pebs_drain(), scalar.pebs_drain());
    }

    /// Simulated time is monotone under any access sequence.
    #[test]
    fn clock_is_monotone_under_accesses(
        offsets in prop::collection::vec(0u64..(16 * PAGE_SIZE as u64 / 8), 1..200),
        writes in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut machine = Machine::new(Platform::testing());
        let r = machine.alloc(16 * PAGE_SIZE, Placement::Slow).unwrap();
        let mut last = machine.now().as_ns();
        for (off, w) in offsets.iter().zip(writes.iter().cycle()) {
            let va = VirtAddr::new(r.start.raw() + off * 8);
            if *w {
                machine.write::<u64>(va, *off).unwrap();
            } else {
                let _ = machine.read::<u64>(va).unwrap();
            }
            let now = machine.now().as_ns();
            prop_assert!(now > last, "time must strictly advance per access");
            last = now;
        }
    }
}
