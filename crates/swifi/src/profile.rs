//! Per-phase campaign profiling: where does a campaign's wall time go?
//!
//! The orchestrator times five disjoint phases — **plan** (build, golden
//! run, plan generation), **execute** (engine runs inside injections),
//! **journal** (checkpoint reads and writes), **classify** (outcome
//! classification inside injections), and **sample-decision** (adaptive
//! convergence checks and Wilson intervals) — and aggregates them into a
//! [`PhaseProfile`] carried on the campaign result, appended to the journal
//! as a trailing `"rec":"profile"` record, and printed by
//! `campaign --profile`.
//!
//! Plan, journal, and sample-decision are measured on the orchestrator
//! thread; execute and classify are accumulated per injection on rayon
//! workers through a shared [`PhaseAcc`]. With one worker thread the five
//! phases tile the run, so their sum tracks wall time closely; with N
//! workers, execute/classify sum *CPU* time across workers and may exceed
//! wall (that is the point — it shows the parallel speedup).
//!
//! The profile is observational timing, never input to results: it is
//! deliberately excluded from `summary_json`/`summarize`, whose bytes must
//! stay identical across interrupt/resume and shard merges.

use hauberk_sim::LaunchOutcome;
use hauberk_telemetry::json::Json;
use hauberk_telemetry::report::Table;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe accumulator for the phases timed inside per-injection
/// closures on rayon worker threads, and for the [`HangTally`].
#[derive(Debug, Default)]
pub struct PhaseAcc {
    execute_ns: AtomicU64,
    classify_ns: AtomicU64,
    hangs: AtomicU64,
    certified_hangs: AtomicU64,
    hang_execute_ns: AtomicU64,
}

impl PhaseAcc {
    /// Add engine-execution nanoseconds.
    pub fn add_execute(&self, ns: u64) {
        self.execute_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Add one injection's engine-execution nanoseconds, tallying them as a
    /// hang's when its launch hung.
    pub fn add_injection(&self, ns: u64, outcome: &LaunchOutcome) {
        self.add_execute(ns);
        if let LaunchOutcome::Hang { certified, .. } = outcome {
            self.hangs.fetch_add(1, Ordering::Relaxed);
            self.certified_hangs
                .fetch_add(u64::from(*certified), Ordering::Relaxed);
            self.hang_execute_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// The hang injections tallied so far.
    pub fn hangs(&self) -> HangTally {
        HangTally {
            injections: self.hangs.load(Ordering::Relaxed),
            certified: self.certified_hangs.load(Ordering::Relaxed),
            execute_ns: self.hang_execute_ns.load(Ordering::Relaxed),
        }
    }

    /// Add classification nanoseconds.
    pub fn add_classify(&self, ns: u64) {
        self.classify_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Accumulated engine-execution nanoseconds.
    pub fn execute_ns(&self) -> u64 {
        self.execute_ns.load(Ordering::Relaxed)
    }

    /// Accumulated classification nanoseconds.
    pub fn classify_ns(&self) -> u64 {
        self.classify_ns.load(Ordering::Relaxed)
    }
}

/// The injections of one campaign run whose launch hung: how many, how many
/// a hang certificate ended before the budget ran out (`hauberk_sim`'s
/// `hang` module), and their summed engine-execution time — a share of the
/// profile's execute phase. Observational, like the profile: journal
/// replays count nothing and summaries never see it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HangTally {
    /// Hang injections executed.
    pub injections: u64,
    /// Of those, the ones a hang certificate ended.
    pub certified: u64,
    /// Their engine-execution nanoseconds (summed across workers).
    pub execute_ns: u64,
}

impl HangTally {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("injections", Json::uint(self.injections)),
            ("certified", Json::uint(self.certified)),
            ("execute_ns", Json::uint(self.execute_ns)),
        ])
    }

    /// One-row table, with the hangs' share of `execute_ns` (the profile's
    /// execute phase).
    pub fn table(&self, execute_ns: u64) -> Table {
        let mut t = Table::new(
            "hang injections",
            &["hangs", "certified", "ms", "share of execute"],
        );
        let share = if execute_ns == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", self.execute_ns as f64 / execute_ns as f64 * 100.0)
        };
        t.row(vec![
            self.injections.to_string(),
            self.certified.to_string(),
            format!("{:.2}", self.execute_ns as f64 / 1e6),
            share,
        ]);
        t
    }
}

/// A work unit whose wall duration exceeded the robust outlier threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Straggler {
    /// Work-unit id (`"FPU/floating-point#3"`).
    pub unit: String,
    /// The unit's wall duration.
    pub dur_ns: u64,
    /// The threshold it exceeded (median + k·MAD at flag time).
    pub threshold_ns: u64,
}

/// Robust outlier threshold over unit durations: median + 8·MAD (median
/// absolute deviation). When MAD is 0 — common when most units are
/// identical — half the median stands in as the spread, so a genuinely
/// uniform stratum still needs a 5× blow-up to flag. Returns `None` below 4
/// samples (no meaningful spread estimate).
pub fn straggler_threshold(durs_ns: &[u64]) -> Option<u64> {
    if durs_ns.len() < 4 {
        return None;
    }
    let mut sorted = durs_ns.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let mut dev: Vec<u64> = sorted.iter().map(|v| v.abs_diff(median)).collect();
    dev.sort_unstable();
    let mad = dev[dev.len() / 2];
    let spread = if mad == 0 { (median / 2).max(1) } else { mad };
    Some(median.saturating_add(8u64.saturating_mul(spread)))
}

/// Flag stragglers among `(unit key, wall ns)` pairs.
pub fn flag_stragglers(units: &[(String, u64)]) -> Vec<Straggler> {
    let durs: Vec<u64> = units.iter().map(|(_, d)| *d).collect();
    let Some(threshold) = straggler_threshold(&durs) else {
        return Vec::new();
    };
    units
        .iter()
        .filter(|(_, d)| *d > threshold)
        .map(|(k, d)| Straggler {
            unit: k.clone(),
            dur_ns: *d,
            threshold_ns: threshold,
        })
        .collect()
}

/// The per-phase wall-time profile of one orchestrated campaign run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Build + golden run + plan generation (orchestrator thread).
    pub plan_ns: u64,
    /// Engine execution inside injections (summed across workers).
    pub execute_ns: u64,
    /// Journal replay + checkpoint appends (orchestrator thread).
    pub journal_ns: u64,
    /// Outcome classification inside injections (summed across workers).
    pub classify_ns: u64,
    /// Adaptive convergence checks + Wilson intervals (orchestrator thread).
    pub sample_decision_ns: u64,
    /// Wall time of the whole orchestrated run.
    pub wall_ns: u64,
    /// Work units executed (excludes replayed units, which cost no time).
    pub units: u64,
    /// Worker threads the run was configured with.
    pub threads: u64,
    /// Units flagged by [`flag_stragglers`].
    pub stragglers: Vec<Straggler>,
}

impl PhaseProfile {
    /// The five phase totals in presentation order.
    pub fn phases(&self) -> [(&'static str, u64); 5] {
        [
            ("plan", self.plan_ns),
            ("execute", self.execute_ns),
            ("journal", self.journal_ns),
            ("classify", self.classify_ns),
            ("sample-decision", self.sample_decision_ns),
        ]
    }

    /// Sum of the five phase totals.
    pub fn phase_sum_ns(&self) -> u64 {
        self.phases().iter().map(|(_, ns)| ns).sum()
    }

    /// JSON form (also the journal `"rec":"profile"` payload).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("plan_ns", Json::uint(self.plan_ns)),
            ("execute_ns", Json::uint(self.execute_ns)),
            ("journal_ns", Json::uint(self.journal_ns)),
            ("classify_ns", Json::uint(self.classify_ns)),
            ("sample_decision_ns", Json::uint(self.sample_decision_ns)),
            ("wall_ns", Json::uint(self.wall_ns)),
            ("units", Json::uint(self.units)),
            ("threads", Json::uint(self.threads)),
            (
                "stragglers",
                Json::Arr(
                    self.stragglers
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("unit", Json::str(s.unit.clone())),
                                ("dur_ns", Json::uint(s.dur_ns)),
                                ("threshold_ns", Json::uint(s.threshold_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse the JSON form back (journal replay).
    pub fn from_json(j: &Json) -> Option<PhaseProfile> {
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        Some(PhaseProfile {
            plan_ns: u("plan_ns")?,
            execute_ns: u("execute_ns")?,
            journal_ns: u("journal_ns")?,
            classify_ns: u("classify_ns")?,
            sample_decision_ns: u("sample_decision_ns")?,
            wall_ns: u("wall_ns")?,
            units: u("units")?,
            threads: u("threads").unwrap_or(0),
            stragglers: j
                .get("stragglers")
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(|s| {
                            Some(Straggler {
                                unit: s.get("unit")?.as_str()?.to_string(),
                                dur_ns: s.get("dur_ns")?.as_u64()?,
                                threshold_ns: s.get("threshold_ns")?.as_u64()?,
                            })
                        })
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Phase table: one row per phase plus a wall-time row, with each
    /// phase's share of wall time.
    pub fn table(&self) -> Table {
        let mut t = Table::new("campaign profile", &["phase", "ms", "share"]);
        let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
        let share = |ns: u64| {
            if self.wall_ns == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", ns as f64 / self.wall_ns as f64 * 100.0)
            }
        };
        for (name, ns) in self.phases() {
            t.row(vec![name.to_string(), ms(ns), share(ns)]);
        }
        t.row(vec![
            "(phase sum)".into(),
            ms(self.phase_sum_ns()),
            share(self.phase_sum_ns()),
        ]);
        t.row(vec!["wall".into(), ms(self.wall_ns), "100.0%".into()]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_is_concurrent_safe_and_additive() {
        let acc = PhaseAcc::default();
        acc.add_execute(5);
        acc.add_execute(7);
        acc.add_classify(3);
        assert_eq!(acc.execute_ns(), 12);
        assert_eq!(acc.classify_ns(), 3);
    }

    #[test]
    fn hangs_are_tallied_with_their_execute_time() {
        use hauberk_sim::ExecStats;
        let acc = PhaseAcc::default();
        let hang = |certified| LaunchOutcome::Hang {
            stats: ExecStats::default(),
            certified,
        };
        acc.add_injection(10, &LaunchOutcome::Completed(ExecStats::default()));
        acc.add_injection(30, &hang(true));
        acc.add_injection(60, &hang(false));
        assert_eq!(acc.execute_ns(), 100);
        let t = acc.hangs();
        assert_eq!(
            t,
            HangTally {
                injections: 2,
                certified: 1,
                execute_ns: 90
            }
        );
        assert!(t.table(100).to_text().contains("90.0%"));
    }

    #[test]
    fn straggler_threshold_needs_samples() {
        assert_eq!(straggler_threshold(&[]), None);
        assert_eq!(straggler_threshold(&[1, 2, 3]), None);
    }

    #[test]
    fn stragglers_flagged_by_median_mad() {
        // 9 well-behaved units around 100, one 10× outlier.
        let mut units: Vec<(String, u64)> =
            (0..9).map(|i| (format!("u{i}"), 95 + i as u64)).collect();
        units.push(("slow".into(), 1000));
        let flagged = flag_stragglers(&units);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].unit, "slow");
        assert!(flagged[0].threshold_ns < 1000);
    }

    #[test]
    fn uniform_durations_flag_nothing() {
        // MAD = 0; the median/2 fallback keeps identical units unflagged.
        let units: Vec<(String, u64)> = (0..8).map(|i| (format!("u{i}"), 100)).collect();
        assert!(flag_stragglers(&units).is_empty());
        // ... and a genuine 10× blow-up still flags.
        let mut with_outlier = units;
        with_outlier.push(("slow".into(), 1000));
        assert_eq!(flag_stragglers(&with_outlier).len(), 1);
    }

    #[test]
    fn profile_json_round_trips() {
        let p = PhaseProfile {
            plan_ns: 1,
            execute_ns: 2,
            journal_ns: 3,
            classify_ns: 4,
            sample_decision_ns: 5,
            wall_ns: 20,
            units: 6,
            threads: 2,
            stragglers: vec![Straggler {
                unit: "FPU/floating-point#3".into(),
                dur_ns: 9,
                threshold_ns: 7,
            }],
        };
        let j = hauberk_telemetry::json::parse(&p.to_json().to_string()).unwrap();
        assert_eq!(PhaseProfile::from_json(&j), Some(p.clone()));
        assert_eq!(p.phase_sum_ns(), 15);
        let table = p.table().to_text();
        assert!(table.contains("sample-decision"));
        assert!(table.contains("wall"));
    }
}
