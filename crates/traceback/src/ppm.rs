//! Probabilistic packet marking with edge sampling — Savage et al.,
//! SIGCOMM 2000 (the paper's reference \[23\]).
//!
//! Each router, with probability `p`, writes its identity into the
//! packet's mark field and zeroes the distance counter; otherwise, if the
//! mark holds a start router with distance 0, it writes itself as the
//! edge's end; in all cases a present mark's distance is incremented.
//! Because a mark only survives to the victim if *no downstream router*
//! overwrites it, the victim predominantly learns edges weighted
//! geometrically by distance — the farthest (attacker-side) edge is the
//! rarest, needing on the order of `ln(d) / (p·(1−p)^(d−1))` marked
//! packets (Savage's bound) before the whole path reconstructs.
//!
//! That number is the cost SYN-dog's placement avoids: every one of those
//! packets is an attack packet that already hit the victim.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use syndog_sim::SimRng;

use crate::topology::{AttackPath, RouterId};

/// The marking field carried in a packet (overloading the IP
/// identification field, per the scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdgeMark {
    /// Edge start (the router that sampled the packet).
    pub start: RouterId,
    /// Edge end (filled by the next router downstream), or `None` for the
    /// edge adjacent to the victim.
    pub end: Option<RouterId>,
    /// Hops travelled since the mark was written.
    pub distance: u8,
}

/// Marking behaviour of one router, parameterized by the sampling
/// probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpmRouter {
    /// The marking probability `p` (Savage recommends `p ≈ 1/25`).
    pub probability: f64,
}

impl PpmRouter {
    /// Creates a router with marking probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn new(probability: f64) -> Self {
        assert!(
            probability > 0.0 && probability < 1.0,
            "marking probability must lie in (0, 1), got {probability}"
        );
        PpmRouter { probability }
    }

    /// Processes one packet at router `id`: possibly (re)marks, otherwise
    /// completes or ages an existing mark.
    pub fn process(&self, id: RouterId, mark: &mut Option<EdgeMark>, rng: &mut SimRng) {
        if rng.chance(self.probability) {
            *mark = Some(EdgeMark {
                start: id,
                end: None,
                distance: 0,
            });
            return;
        }
        if let Some(mark) = mark.as_mut() {
            if mark.distance == 0 && mark.end.is_none() {
                mark.end = Some(id);
            }
            mark.distance = mark.distance.saturating_add(1);
        }
    }
}

/// Sends one packet along `path`, returning the mark (if any) that
/// arrives at the victim.
pub fn send_packet(path: &AttackPath, router: PpmRouter, rng: &mut SimRng) -> Option<EdgeMark> {
    let mut mark = None;
    for &id in path.routers() {
        router.process(id, &mut mark, rng);
    }
    mark
}

/// The victim-side mark collector and path reconstructor.
#[derive(Debug, Clone, Default)]
pub struct PpmCollector {
    /// Observed marks, keyed by distance, with observation counts.
    edges: HashMap<u8, HashMap<EdgeMark, u64>>,
}

impl PpmCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one arriving packet's mark field.
    pub fn collect(&mut self, mark: Option<EdgeMark>) {
        if let Some(mark) = mark {
            *self
                .edges
                .entry(mark.distance)
                .or_default()
                .entry(mark)
                .or_insert(0) += 1;
        }
    }

    /// Attempts to reconstruct a single attack path of length `d` (hops):
    /// picks, at each distance `0..d`, the most-seen mark, and checks the
    /// edges chain (each mark's `start` equals the next-closer mark's
    /// `end`; the distance-0 mark's `end` is `None` only for `d == 1`).
    ///
    /// Returns the path (attacker side first) once every distance has a
    /// consistent edge, `None` while gaps remain.
    pub fn reconstruct(&self, d: usize) -> Option<AttackPath> {
        let mut routers = Vec::with_capacity(d);
        // The farthest mark (distance d−1) identifies the attacker-side
        // router; each closer distance adds the next router downstream.
        let mut expected_start: Option<RouterId> = None;
        for distance in (0..d).rev() {
            let candidates = self.edges.get(&(distance as u8))?;
            let (mark, _) = candidates
                .iter()
                .max_by_key(|(mark, count)| (*count, mark.start.0))?;
            if let Some(expected) = expected_start {
                if mark.start != expected {
                    return None; // inconsistent chain so far
                }
            } else {
                routers.push(mark.start);
            }
            match mark.end {
                Some(end) => {
                    routers.push(end);
                    expected_start = Some(end);
                }
                None => {
                    // Only the last (victim-adjacent) router may lack an
                    // end, and only at distance 0.
                    if distance != 0 {
                        return None;
                    }
                }
            }
        }
        (routers.len() == d).then(|| AttackPath::new(routers))
    }
}

/// Savage's expected number of packets for full-path convergence:
/// `ln(d) / (p · (1 − p)^(d−1))`.
///
/// # Panics
///
/// Panics unless `0 < p < 1` and `d ≥ 1`.
pub fn expected_packets_to_converge(p: f64, d: usize) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability out of range: {p}");
    assert!(d >= 1, "path length must be at least 1");
    (d as f64).ln().max(1.0) / (p * (1.0 - p).powi(d as i32 - 1))
}

/// Simulates marking until the collector reconstructs the full path;
/// returns the number of attack packets that had to reach the victim.
/// Gives up (returning `None`) after `budget` packets.
pub fn packets_until_traced(
    path: &AttackPath,
    p: f64,
    budget: u64,
    rng: &mut SimRng,
) -> Option<u64> {
    let router = PpmRouter::new(p);
    let mut collector = PpmCollector::new();
    for sent in 1..=budget {
        collector.collect(send_packet(path, router, rng));
        // Reconstruction attempts are cheap relative to the simulation;
        // checking every 32 packets keeps the loop fast without changing
        // the answer by more than that granularity.
        if (sent % 32 == 0 || sent == budget)
            && collector.reconstruct(path.len()).as_ref() == Some(path)
        {
            return Some(sent);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(d: usize) -> AttackPath {
        AttackPath::new((1..=d as u32).map(RouterId).collect())
    }

    #[test]
    fn mark_distance_counts_hops_since_marking() {
        let mut rng = SimRng::seed_from_u64(1);
        // Probability ~1: the last router always remarks.
        let router = PpmRouter::new(0.999_999);
        let mark = send_packet(&path(10), router, &mut rng).expect("marked");
        assert_eq!(mark.start, RouterId(10));
        assert_eq!(mark.distance, 0);
    }

    #[test]
    fn unmarked_when_probability_tiny() {
        let mut rng = SimRng::seed_from_u64(2);
        let router = PpmRouter::new(1e-9);
        let marks = (0..1000)
            .filter(|_| send_packet(&path(5), router, &mut rng).is_some())
            .count();
        assert_eq!(marks, 0);
    }

    #[test]
    fn edge_end_filled_by_next_router() {
        // Force marking only at the first router by processing manually.
        let mut rng = SimRng::seed_from_u64(3);
        let router = PpmRouter::new(1e-9);
        let mut mark = Some(EdgeMark {
            start: RouterId(1),
            end: None,
            distance: 0,
        });
        router.process(RouterId(2), &mut mark, &mut rng);
        let m = mark.expect("mark survives");
        assert_eq!(m.end, Some(RouterId(2)));
        assert_eq!(m.distance, 1);
        // Further hops only age it.
        let mut mark = Some(m);
        router.process(RouterId(3), &mut mark, &mut rng);
        assert_eq!(mark.expect("still there").end, Some(RouterId(2)));
    }

    #[test]
    fn reconstructs_short_path_exactly() {
        let mut rng = SimRng::seed_from_u64(4);
        let p = path(8);
        let traced = packets_until_traced(&p, 0.04, 2_000_000, &mut rng)
            .expect("must converge within budget");
        // Savage's bound for d=8, p=0.04: ln(8)/(0.04·0.96^7) ≈ 69.
        // Full-path reconstruction with consistency checking needs more;
        // within 100× of the bound is the sanity band.
        let bound = expected_packets_to_converge(0.04, 8);
        assert!(
            traced as f64 <= bound * 100.0,
            "traced after {traced} (bound {bound:.0})"
        );
    }

    #[test]
    fn longer_paths_need_more_packets() {
        let mut rng = SimRng::seed_from_u64(5);
        let short = packets_until_traced(&path(4), 0.04, 5_000_000, &mut rng).unwrap();
        let long = packets_until_traced(&path(20), 0.04, 5_000_000, &mut rng).unwrap();
        assert!(long > short, "short {short}, long {long}");
        // And the theoretical bound agrees on the direction.
        assert!(expected_packets_to_converge(0.04, 20) > expected_packets_to_converge(0.04, 4));
    }

    #[test]
    fn reconstruct_returns_none_with_insufficient_marks() {
        let collector = PpmCollector::new();
        assert!(collector.reconstruct(5).is_none());
        let mut collector = PpmCollector::new();
        collector.collect(Some(EdgeMark {
            start: RouterId(9),
            end: None,
            distance: 0,
        }));
        // Only distance 0 observed; a 3-hop path cannot reconstruct.
        assert!(collector.reconstruct(3).is_none());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn probability_validated() {
        let _ = PpmRouter::new(1.0);
    }
}
