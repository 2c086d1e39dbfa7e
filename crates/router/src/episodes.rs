//! Attack-episode extraction from the detection series.
//!
//! The paper's decision rule raises a per-period alarm; an operator wants
//! episodes: when did the attack *begin*, when did it end, how bad did it
//! get. The CUSUM's geometry answers all three for free:
//!
//! - the **onset** is the last period at which `y` was zero before the
//!   alarm — the statistic starts climbing at the attack's first period,
//!   so this recovers the start even though the alarm fires `N/drift`
//!   periods later;
//! - the **end** is the first period after the alarm at which `y` drains
//!   back to zero (the offset `a` pulls it down once the flood stops);
//! - the **peak** statistic bounds the flood's cumulative excess volume:
//!   `peak · K̄` unanswered SYNs above the `a`-allowance.

use syndog::Detection;

/// One contiguous flooding episode recovered from the detection series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackEpisode {
    /// Estimated first attack period: the last zero-statistic period
    /// before the climb that alarmed.
    pub onset_period: u64,
    /// Period at which the alarm fired.
    pub alarm_period: u64,
    /// First period after the alarm with the statistic back at zero, or
    /// `None` if the episode was still live at the end of the series.
    pub end_period: Option<u64>,
    /// Largest statistic value during the episode.
    pub peak_statistic: f64,
}

/// A change of episode state at one period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpisodeEdge {
    /// An episode opened: this period alarmed while none was active.
    Opened(AttackEpisode),
    /// The active episode closed: the statistic drained back to zero.
    Closed(AttackEpisode),
}

/// Streaming episode extraction: fed one [`Detection`] per period, it
/// reports each episode's rising and falling edge as it happens, holding
/// only the open episode — so count-level fleets can follow alarm
/// episodes without retaining the per-period series.
///
/// An episode opens at the first alarming period not already inside an
/// episode and closes when the statistic returns to zero. Pre-alarm climb
/// periods are attributed to the episode for onset estimation, so two
/// floods separated by a zero-statistic gap yield two episodes.
#[derive(Debug, Clone, Default)]
pub struct EpisodeTracker {
    last_zero: Option<u64>,
    open: Option<AttackEpisode>,
}

impl EpisodeTracker {
    /// Feeds the next period's detection, returning the edge it caused
    /// (at most one: the period that opens an episode never closes it).
    pub fn observe(&mut self, d: &Detection) -> Option<EpisodeEdge> {
        let edge = if let Some(episode) = self.open.as_mut() {
            episode.peak_statistic = episode.peak_statistic.max(d.statistic);
            if d.statistic == 0.0 {
                episode.end_period = Some(d.period);
                self.open.take().map(EpisodeEdge::Closed)
            } else {
                None
            }
        } else if d.alarm {
            let episode = AttackEpisode {
                onset_period: self.last_zero.unwrap_or(0),
                alarm_period: d.period,
                end_period: None,
                peak_statistic: d.statistic,
            };
            self.open = Some(episode);
            Some(EpisodeEdge::Opened(episode))
        } else {
            None
        };
        if d.statistic == 0.0 {
            self.last_zero = Some(d.period);
        }
        edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog::{PeriodCounts, SynDogConfig, SynDogDetector};

    /// The episodes of a whole detection series: the closed ones the
    /// tracker reports, then the one still open at the end (with
    /// `end_period: None`).
    fn extract_episodes(detections: &[Detection]) -> Vec<AttackEpisode> {
        let mut tracker = EpisodeTracker::default();
        let mut episodes: Vec<AttackEpisode> = detections
            .iter()
            .filter_map(|d| match tracker.observe(d)? {
                EpisodeEdge::Closed(episode) => Some(episode),
                EpisodeEdge::Opened(_) => None,
            })
            .collect();
        episodes.extend(tracker.open);
        episodes
    }

    fn run(series: &[(u64, u64)]) -> Vec<Detection> {
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
        series
            .iter()
            .map(|&(syn, synack)| dog.observe(PeriodCounts { syn, synack }))
            .collect()
    }

    #[test]
    fn single_flood_yields_one_episode_with_correct_onset() {
        // 20 clean periods, 12 flood periods, clean again.
        let mut series = vec![(1000u64, 990u64); 20];
        series.extend(vec![(1700, 990); 12]);
        series.extend(vec![(1000, 990); 20]);
        let detections = run(&series);
        let episodes = extract_episodes(&detections);
        assert_eq!(episodes.len(), 1, "{episodes:?}");
        let ep = episodes[0];
        // Onset: last zero-y period is 19 (the flood starts at 20).
        assert_eq!(ep.onset_period, 19);
        assert!(ep.alarm_period >= 20 && ep.alarm_period <= 24);
        // y drains at ~0.34/period from a peak of ~0.7·12 ≈ 4.3 → end
        // roughly 13 periods after the flood stops.
        let end = ep.end_period.expect("flood ends inside the series");
        assert!(end > 32, "end {end}");
        assert!(ep.peak_statistic > 2.0);
    }

    #[test]
    fn two_separated_floods_yield_two_episodes() {
        let mut series = vec![(500u64, 495u64); 15];
        series.extend(vec![(900, 495); 6]); // flood 1
        series.extend(vec![(500, 495); 30]); // long gap (y drains)
        series.extend(vec![(900, 495); 6]); // flood 2
        series.extend(vec![(500, 495); 30]);
        let detections = run(&series);
        let episodes = extract_episodes(&detections);
        assert_eq!(episodes.len(), 2, "{episodes:?}");
        assert!(episodes[0].end_period.is_some());
        assert!(episodes[1].onset_period > episodes[0].end_period.unwrap());
    }

    #[test]
    fn unterminated_flood_reports_open_episode() {
        let mut series = vec![(500u64, 495u64); 10];
        series.extend(vec![(1200, 495); 10]); // flood runs to series end
        let detections = run(&series);
        let episodes = extract_episodes(&detections);
        assert_eq!(episodes.len(), 1);
        assert_eq!(episodes[0].end_period, None);
    }

    #[test]
    fn tracker_edges_match_batch_extraction() {
        let mut series = vec![(500u64, 495u64); 15];
        series.extend(vec![(900, 495); 6]);
        series.extend(vec![(500, 495); 30]);
        series.extend(vec![(900, 495); 6]); // still open at the end
        let detections = run(&series);
        let episodes = extract_episodes(&detections);
        assert_eq!(episodes.len(), 2, "{episodes:?}");
        let mut tracker = EpisodeTracker::default();
        let edges: Vec<EpisodeEdge> = detections
            .iter()
            .filter_map(|d| tracker.observe(d))
            .collect();
        assert_eq!(
            edges,
            vec![
                EpisodeEdge::Opened(AttackEpisode {
                    end_period: None,
                    peak_statistic: detections[episodes[0].alarm_period as usize].statistic,
                    ..episodes[0]
                }),
                EpisodeEdge::Closed(episodes[0]),
                EpisodeEdge::Opened(AttackEpisode {
                    peak_statistic: detections[episodes[1].alarm_period as usize].statistic,
                    ..episodes[1]
                }),
            ]
        );
        assert_eq!(tracker.open, Some(episodes[1]));
    }

    #[test]
    fn clean_series_has_no_episodes() {
        let detections = run(&vec![(500, 495); 50]);
        assert!(extract_episodes(&detections).is_empty());
    }

    #[test]
    fn episode_end_to_end_with_site_traffic() {
        use syndog_attack::SynFlood;
        use syndog_sim::{SimDuration, SimRng, SimTime};
        use syndog_traffic::{sites::OBSERVATION_PERIOD, SiteProfile};

        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(9);
        let mut counts = site.generate_period_counts(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::ZERO + OBSERVATION_PERIOD * 100,
            SimDuration::from_secs(600), // 30 periods
            "199.0.0.80:80".parse().unwrap(),
        );
        let fc = flood.period_counts(counts.len(), OBSERVATION_PERIOD, &mut rng);
        for (c, f) in counts.iter_mut().zip(&fc) {
            c.merge(*f);
        }
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
        let detections: Vec<Detection> = counts
            .iter()
            .map(|c| {
                dog.observe(PeriodCounts {
                    syn: c.syn,
                    synack: c.synack,
                })
            })
            .collect();
        let episodes = extract_episodes(&detections);
        assert_eq!(episodes.len(), 1, "{episodes:?}");
        let ep = episodes[0];
        // Onset estimate within a couple of periods of the true start.
        assert!(
            (98..=100).contains(&ep.onset_period),
            "onset {}",
            ep.onset_period
        );
        // The flood runs 30 periods; at 2 SYN/s·K̄ drain the episode ends
        // well after it stops but within the trace.
        let end = ep.end_period.expect("episode closes");
        assert!(end >= 129, "end {end}");
    }
}
