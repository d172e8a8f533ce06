//! Placement introspection: per-object residency reports and chunk
//! heatmaps.
//!
//! These views are what operators look at to understand *why* ATMem chose
//! a placement: which objects were sampled how hard, where the critical
//! regions sit inside each object, and how many of an object's bytes ended
//! up on the fast tier.

use std::fmt;

use atmem_hms::TierId;

use crate::analyzer::Analysis;
use crate::registry::Registry;
use crate::runtime::Atmem;

/// Placement summary of one data object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectResidency {
    /// Registration name.
    pub name: String,
    /// Total size in bytes.
    pub size: usize,
    /// Bytes currently on the fast tier.
    pub fast_bytes: usize,
    /// Bytes resident on each tier, hottest first. `per_tier[0]` equals
    /// [`ObjectResidency::fast_bytes`]; two-tier platforms therefore see
    /// nothing new here.
    pub per_tier: Vec<usize>,
    /// Total profiler samples attributed.
    pub samples: u64,
    /// Number of chunks.
    pub chunks: usize,
}

impl ObjectResidency {
    /// Fraction of the object on the fast tier.
    pub fn fast_ratio(&self) -> f64 {
        if self.size == 0 {
            0.0
        } else {
            self.fast_bytes as f64 / self.size as f64
        }
    }
}

/// A whole-runtime placement report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResidencyReport {
    /// One entry per live object, in registration order.
    pub objects: Vec<ObjectResidency>,
}

impl ResidencyReport {
    /// Collects the report from a runtime.
    pub fn collect(rt: &Atmem) -> Self {
        let num_tiers = rt.machine().num_tiers();
        let objects = rt
            .registry()
            .iter()
            .map(|o| {
                let per_tier: Vec<usize> = (0..num_tiers)
                    .map(|t| rt.machine().resident_bytes(o.range(), TierId::new(t)))
                    .collect();
                ObjectResidency {
                    name: o.name().to_string(),
                    size: o.size(),
                    fast_bytes: rt.machine().resident_bytes(o.range(), TierId::FAST),
                    per_tier,
                    samples: o.total_samples(),
                    chunks: o.num_chunks(),
                }
            })
            .collect();
        ResidencyReport { objects }
    }

    /// Total registered bytes.
    pub fn total_bytes(&self) -> usize {
        self.objects.iter().map(|o| o.size).sum()
    }

    /// Total fast-tier bytes across objects.
    pub fn total_fast_bytes(&self) -> usize {
        self.objects.iter().map(|o| o.fast_bytes).sum()
    }
}

impl fmt::Display for ResidencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<20} {:>12} {:>12} {:>8} {:>9} {:>8}",
            "object", "bytes", "fast bytes", "fast %", "samples", "chunks"
        )?;
        let show_tiers = self.objects.iter().any(|o| o.per_tier.len() > 2);
        for o in &self.objects {
            write!(
                f,
                "{:<20} {:>12} {:>12} {:>7.1}% {:>9} {:>8}",
                o.name,
                o.size,
                o.fast_bytes,
                o.fast_ratio() * 100.0,
                o.samples,
                o.chunks
            )?;
            if show_tiers {
                let cells: Vec<String> = o.per_tier.iter().map(|b| b.to_string()).collect();
                write!(f, "  [{}]", cells.join(" / "))?;
            }
            writeln!(f)?;
        }
        let total = self.total_bytes();
        let fast = self.total_fast_bytes();
        writeln!(
            f,
            "{:<20} {:>12} {:>12} {:>7.1}%",
            "TOTAL",
            total,
            fast,
            if total == 0 {
                0.0
            } else {
                fast as f64 / total as f64 * 100.0
            }
        )
    }
}

/// Renders an ASCII heatmap of one object's chunk profile: one character
/// per bucket of chunks, `.` cold through `#` hottest, with `|` marking
/// analyzer-critical buckets when an analysis is supplied.
///
/// `width` buckets are emitted (chunks are averaged into buckets when the
/// object has more chunks than `width`).
pub fn chunk_heatmap(registry: &Registry, analysis: Option<&Analysis>, width: usize) -> String {
    const RAMP: [char; 6] = ['.', ':', '-', '=', '+', '#'];
    let width = width.max(8);
    let mut out = String::new();
    for obj in registry.iter() {
        let chunks = obj.num_chunks();
        let buckets = width.min(chunks);
        let per_bucket = chunks.div_ceil(buckets);
        let samples = obj.samples();
        let max_bucket = (0..buckets)
            .map(|b| {
                samples[b * per_bucket..(b * per_bucket + per_bucket).min(chunks)]
                    .iter()
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
            .max(1);
        let critical = analysis.and_then(|a| {
            a.objects
                .iter()
                .find(|oa| oa.id == obj.id())
                .map(|oa| &oa.critical)
        });
        out.push_str(&format!("{:<20} [", obj.name()));
        for b in 0..buckets {
            let lo = b * per_bucket;
            let hi = (lo + per_bucket).min(chunks);
            let heat: u64 = samples[lo..hi].iter().sum();
            let is_critical = critical
                .map(|c| c[lo..hi].iter().any(|&x| x))
                .unwrap_or(false);
            if is_critical && heat == 0 {
                out.push('|'); // promoted without samples: estimated critical
            } else {
                let level = (heat * (RAMP.len() as u64 - 1)).div_ceil(max_bucket) as usize;
                out.push(RAMP[level.min(RAMP.len() - 1)]);
            }
        }
        out.push_str("]\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use crate::config::AtmemConfig;
    use atmem_hms::Platform;

    fn runtime_with_hot_object() -> Atmem {
        let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap();
        let v = rt.malloc::<u64>(128 * 1024, "hot").unwrap();
        rt.profiling_start().unwrap();
        for i in 0..100_000usize {
            let _ = v.get(rt.machine_mut(), (i * 2654435761) % 16384);
        }
        rt.profiling_stop().unwrap();
        rt
    }

    #[test]
    fn residency_report_tracks_migration() {
        let mut rt = runtime_with_hot_object();
        let before = ResidencyReport::collect(&rt);
        assert_eq!(before.total_fast_bytes(), 0);
        assert!(before.objects[0].samples > 0);
        rt.optimize().unwrap();
        let after = ResidencyReport::collect(&rt);
        assert!(after.total_fast_bytes() > 0);
        assert_eq!(after.total_bytes(), before.total_bytes());
        let text = after.to_string();
        assert!(text.contains("hot") && text.contains("TOTAL"));
    }

    #[test]
    fn heatmap_marks_the_hot_prefix() {
        let rt = runtime_with_hot_object();
        let analysis = analyze(rt.registry(), &rt.config().analyzer.clone());
        let map = chunk_heatmap(rt.registry(), Some(&analysis), 32);
        assert!(map.starts_with("hot"));
        let row: String = map
            .chars()
            .skip_while(|&c| c != '[')
            .take_while(|&c| c != ']')
            .collect();
        // The hot prefix (first eighth) must be hotter than the tail.
        assert!(row.len() > 8);
        let head = &row[1..4];
        assert!(
            head.contains('#') || head.contains('+') || head.contains('='),
            "hot prefix not visible in {row:?}"
        );
        assert!(row.ends_with('.'), "cold tail not visible in {row:?}");
    }

    #[test]
    fn heatmap_marks_promoted_unsampled_buckets() {
        // Hand-build a registry where promotion adds chunks that were never
        // sampled: the heatmap must show them as '|'.
        use crate::analyzer::LocalSelection;
        use crate::analyzer::{Analysis, ObjectAnalysis};
        use crate::chunk::chunk_geometry;
        use crate::config::ChunkConfig;
        use atmem_hms::{VirtAddr, VirtRange};

        let mut registry = crate::registry::Registry::new();
        let bytes = 8 * 4096;
        let geometry = chunk_geometry(
            bytes,
            &ChunkConfig {
                target_chunks: 8,
                min_chunk_bytes: 4096,
            },
        );
        let id = registry.register(
            "obj",
            VirtRange::new(VirtAddr::new(0x40000000), bytes),
            geometry,
        );
        // Sample only chunk 0; pretend promotion added chunk 1.
        let start = registry.get(id).unwrap().chunk_range(0).start;
        registry.attribute(start).unwrap();
        let mut critical = vec![false; 8];
        critical[0] = true;
        critical[1] = true; // promoted, unsampled
        let analysis = Analysis {
            objects: vec![ObjectAnalysis {
                id,
                selection: LocalSelection {
                    priorities: vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    theta: 0.5,
                    critical: {
                        let mut c = vec![false; 8];
                        c[0] = true;
                        c
                    },
                },
                weight: 1.0,
                tr_threshold: 0.5,
                critical,
                promoted_chunks: 1,
            }],
        };
        let map = chunk_heatmap(&registry, Some(&analysis), 8);
        let row: String = map
            .chars()
            .skip_while(|&c| c != '[')
            .take_while(|&c| c != ']')
            .collect();
        assert_eq!(&row[2..3], "|", "promoted unsampled bucket marked: {row}");
    }

    #[test]
    fn heatmap_handles_empty_registry() {
        let rt = Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap();
        assert_eq!(chunk_heatmap(rt.registry(), None, 40), "");
    }
}
