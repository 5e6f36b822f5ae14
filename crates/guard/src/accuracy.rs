//! Per-stream prefetch-accuracy tracking and the partial-deoptimization
//! policy.
//!
//! The paper de-optimizes all-or-nothing at the end of a hibernation
//! span (§3.2). This module refines that: each installed stream's
//! prefetch outcomes (Useful / Late / Polluted, attributed by the
//! memory simulator) are accumulated per evaluation window; a stream
//! whose accuracy stays below threshold for K consecutive windows is
//! flagged for *surgical* removal while its well-predicting siblings
//! keep prefetching.

use std::collections::{HashMap, HashSet};

use hds_telemetry::events::PrefetchFate;

/// Policy for accuracy-driven partial de-optimization.
#[derive(Clone, Debug, PartialEq)]
pub struct AccuracyConfig {
    /// A window is *bad* when `useful / resolved` falls below this.
    pub min_accuracy: f64,
    /// Consecutive bad windows before a stream is flagged for removal.
    pub bad_windows: u32,
    /// Windows with fewer resolved outcomes than this are inconclusive:
    /// they neither extend nor reset the streak.
    pub min_samples: u64,
}

impl AccuracyConfig {
    /// A moderate default: below 50% accuracy for 2 consecutive windows
    /// of at least 4 resolved outcomes.
    #[must_use]
    pub const fn new() -> Self {
        AccuracyConfig {
            min_accuracy: 0.5,
            bad_windows: 2,
            min_samples: 4,
        }
    }
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig::new()
    }
}

/// A stream flagged for partial de-optimization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BadStream {
    /// The stream's id in the current DFSM installation.
    pub stream_id: u32,
    /// Accuracy over the window that completed the streak.
    pub accuracy: f64,
    /// Length of the bad-window streak.
    pub windows: u32,
}

#[derive(Clone, Debug, Default)]
struct StreamStats {
    hash: u64,
    useful: u64,
    late: u64,
    polluted: u64,
    streak: u32,
}

impl StreamStats {
    fn resolved(&self) -> u64 {
        self.useful + self.late + self.polluted
    }

    #[allow(clippy::cast_precision_loss)]
    fn accuracy(&self) -> f64 {
        let resolved = self.resolved();
        if resolved == 0 {
            0.0
        } else {
            self.useful as f64 / resolved as f64
        }
    }
}

/// Serializable state of one tracked stream inside an [`AccuracyState`].
///
/// Plain data for checkpointing: field order mirrors the private
/// per-stream accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StreamAccuracyState {
    pub stream_id: u32,
    pub hash: u64,
    pub useful: u64,
    pub late: u64,
    pub polluted: u64,
    pub streak: u32,
}

/// Serializable snapshot of an `AccuracyTracker`: per-stream window
/// accumulators (sorted by stream id) plus the cross-installation
/// denylist (sorted). The config is not included — it is part of the
/// session configuration, which a checkpoint validates separately.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct AccuracyState {
    pub streams: Vec<StreamAccuracyState>,
    pub denylist: Vec<u64>,
}

/// Tracks per-stream outcomes across evaluation windows and maintains
/// the cross-installation denylist of content hashes.
#[derive(Clone, Debug)]
pub struct AccuracyTracker {
    config: AccuracyConfig,
    streams: HashMap<u32, StreamStats>,
    denylist: HashSet<u64>,
}

impl AccuracyTracker {
    pub(crate) fn new(config: AccuracyConfig) -> Self {
        AccuracyTracker {
            config,
            streams: HashMap::new(),
            denylist: HashSet::new(),
        }
    }

    pub(crate) fn begin_install(&mut self, streams: impl IntoIterator<Item = (u32, u64)>) {
        self.streams = streams
            .into_iter()
            .map(|(id, hash)| {
                (
                    id,
                    StreamStats {
                        hash,
                        ..StreamStats::default()
                    },
                )
            })
            .collect();
    }

    pub(crate) fn record(&mut self, stream_id: u32, fate: PrefetchFate) {
        // Outcomes can resolve after their stream was dropped (prefetches
        // in flight at removal time); those are ignored.
        let Some(stats) = self.streams.get_mut(&stream_id) else {
            return;
        };
        match fate {
            PrefetchFate::Useful => stats.useful += 1,
            PrefetchFate::Late => stats.late += 1,
            PrefetchFate::Polluted => stats.polluted += 1,
        }
    }

    pub(crate) fn evaluate_window(&mut self) -> Vec<BadStream> {
        let mut flagged = Vec::new();
        for (&id, stats) in &mut self.streams {
            if stats.resolved() < self.config.min_samples {
                continue; // inconclusive window: streak unchanged
            }
            let accuracy = stats.accuracy();
            if accuracy < self.config.min_accuracy {
                stats.streak += 1;
                if stats.streak >= self.config.bad_windows {
                    flagged.push(BadStream {
                        stream_id: id,
                        accuracy,
                        windows: stats.streak,
                    });
                }
            } else {
                stats.streak = 0;
            }
            stats.useful = 0;
            stats.late = 0;
            stats.polluted = 0;
        }
        // Worst accuracy first; id tiebreak for determinism.
        flagged.sort_by(|a, b| {
            a.accuracy
                .partial_cmp(&b.accuracy)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.stream_id.cmp(&b.stream_id))
        });
        flagged
    }

    pub(crate) fn drop_stream(&mut self, stream_id: u32) {
        if let Some(stats) = self.streams.remove(&stream_id) {
            self.denylist.insert(stats.hash);
        }
    }

    pub(crate) fn is_denylisted(&self, hash: u64) -> bool {
        self.denylist.contains(&hash)
    }

    pub(crate) fn denylist_len(&self) -> usize {
        self.denylist.len()
    }

    pub(crate) fn denylist_hashes(&self) -> Vec<u64> {
        let mut hashes: Vec<u64> = self.denylist.iter().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Canonical (sorted) snapshot of the tracker for checkpointing.
    pub(crate) fn export_state(&self) -> AccuracyState {
        let mut streams: Vec<StreamAccuracyState> = self
            .streams
            .iter()
            .map(|(&id, s)| StreamAccuracyState {
                stream_id: id,
                hash: s.hash,
                useful: s.useful,
                late: s.late,
                polluted: s.polluted,
                streak: s.streak,
            })
            .collect();
        streams.sort_unstable_by_key(|s| s.stream_id);
        AccuracyState {
            streams,
            denylist: self.denylist_hashes(),
        }
    }

    /// Overwrites per-stream accumulators and the denylist from a
    /// snapshot. The config is left as constructed.
    pub(crate) fn restore_state(&mut self, state: &AccuracyState) {
        self.streams = state
            .streams
            .iter()
            .map(|s| {
                (
                    s.stream_id,
                    StreamStats {
                        hash: s.hash,
                        useful: s.useful,
                        late: s.late,
                        polluted: s.polluted,
                        streak: s.streak,
                    },
                )
            })
            .collect();
        self.denylist = state.denylist.iter().copied().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> AccuracyTracker {
        let mut t = AccuracyTracker::new(AccuracyConfig {
            min_accuracy: 0.5,
            bad_windows: 2,
            min_samples: 2,
        });
        t.begin_install([(0, 0xAAAA), (1, 0xBBBB)]);
        t
    }

    fn feed(t: &mut AccuracyTracker, id: u32, useful: u64, polluted: u64) {
        for _ in 0..useful {
            t.record(id, PrefetchFate::Useful);
        }
        for _ in 0..polluted {
            t.record(id, PrefetchFate::Polluted);
        }
    }

    #[test]
    fn needs_k_consecutive_bad_windows() {
        let mut t = tracker();
        feed(&mut t, 0, 0, 4); // bad window 1
        assert!(t.evaluate_window().is_empty());
        feed(&mut t, 0, 0, 4); // bad window 2 → flagged
        let bad = t.evaluate_window();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].stream_id, 0);
        assert_eq!(bad[0].windows, 2);
        assert_eq!(bad[0].accuracy, 0.0);
    }

    #[test]
    fn good_window_resets_the_streak() {
        let mut t = tracker();
        feed(&mut t, 0, 0, 4);
        t.evaluate_window();
        feed(&mut t, 0, 4, 0); // good window resets
        t.evaluate_window();
        feed(&mut t, 0, 0, 4); // bad again, streak restarts at 1
        assert!(t.evaluate_window().is_empty());
    }

    #[test]
    fn sparse_windows_are_inconclusive() {
        let mut t = tracker();
        feed(&mut t, 0, 0, 4);
        t.evaluate_window();
        feed(&mut t, 0, 0, 1); // below min_samples: no verdict either way
        assert!(t.evaluate_window().is_empty());
        feed(&mut t, 0, 0, 4); // streak resumes at 2 → flagged
        assert_eq!(t.evaluate_window().len(), 1);
    }

    #[test]
    fn only_the_bad_stream_is_flagged_and_denylisted() {
        let mut t = tracker();
        for _ in 0..2 {
            feed(&mut t, 0, 0, 4); // stream 0: 0% accuracy
            feed(&mut t, 1, 4, 0); // stream 1: 100% accuracy
        }
        t.evaluate_window();
        feed(&mut t, 0, 0, 4);
        feed(&mut t, 1, 4, 0);
        let bad = t.evaluate_window();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].stream_id, 0);

        t.drop_stream(0);
        assert!(t.is_denylisted(0xAAAA));
        assert!(!t.is_denylisted(0xBBBB));
        assert_eq!(t.denylist_len(), 1);
        // Outcomes for the dropped stream are ignored, not a panic.
        t.record(0, PrefetchFate::Useful);
    }

    #[test]
    fn export_restore_round_trips_mid_streak() {
        let mut t = tracker();
        feed(&mut t, 0, 0, 4); // streak 1 after evaluation
        feed(&mut t, 1, 4, 0);
        t.evaluate_window();
        feed(&mut t, 0, 1, 2); // partial window in flight
        t.drop_stream(1);

        let state = t.export_state();
        assert_eq!(state.streams.len(), 1);
        assert_eq!(state.streams[0].stream_id, 0);
        assert_eq!(state.streams[0].streak, 1);
        assert_eq!(state.denylist, vec![0xBBBB]);

        let mut restored = AccuracyTracker::new(t.config.clone());
        restored.restore_state(&state);
        assert_eq!(restored.export_state(), state);
        // Both finish the window identically: one more polluted outcome
        // completes the bad streak and flags stream 0.
        for tr in [&mut t, &mut restored] {
            feed(tr, 0, 0, 1);
            let bad = tr.evaluate_window();
            assert_eq!(bad.len(), 1);
            assert_eq!(bad[0].stream_id, 0);
            assert_eq!(bad[0].windows, 2);
        }
        assert!(restored.is_denylisted(0xBBBB));
    }

    #[test]
    fn flagged_streams_sort_worst_first() {
        let mut t = AccuracyTracker::new(AccuracyConfig {
            min_accuracy: 0.9,
            bad_windows: 1,
            min_samples: 1,
        });
        t.begin_install([(0, 1), (1, 2)]);
        feed(&mut t, 0, 1, 1); // 50%
        feed(&mut t, 1, 0, 2); // 0%
        let bad = t.evaluate_window();
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].stream_id, 1);
        assert_eq!(bad[1].stream_id, 0);
    }
}
