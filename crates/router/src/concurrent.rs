//! The concurrent deployment shape of Figure 2: one sniffer thread per
//! interface, coordinating through lock-free shared counters and batched
//! channels.
//!
//! The paper's sniffers "coordinate with each other via shared memory, or
//! IPC inside the router, and periodically exchange the counting
//! information". [`ConcurrentSynDog`] reproduces that concretely: each
//! interface runs one sniffer thread consuming [`FrameBatch`]es from a
//! bounded channel, classifying them with [`classify_batch`], and folding
//! the tallies into shared relaxed [`AtomicU64`] counters (the "shared
//! memory" — no mutex on the hot path); a coordinator drains the atomics
//! at each period close and feeds them through the same
//! [`LeafRouter::take_period_sample`] path every other ingestion mode
//! uses, into a [`SynDogAgent`] that makes the period's decision.
//!
//! Backpressure is explicit: [`OverflowPolicy::Block`] makes `submit_*`
//! wait for channel space (deterministic, the right choice for tests and
//! replay), while [`OverflowPolicy::Drop`] sheds load like a real line
//! card, counting what it drops. [`ConcurrentSynDog::flush`] is a
//! deterministic drain barrier: it round-trips a marker through each
//! sniffer's channel, so when it returns every previously submitted batch
//! has been counted — no sleeps, no spinning on wall-clock time.
//!
//! The single-threaded [`SynDogAgent`] is the right tool for experiments;
//! this module exists to demonstrate (and test) that the design is
//! race-free in its intended deployment shape.
//!
//! [`LeafRouter::take_period_sample`]: crate::router::LeafRouter::take_period_sample

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use syndog::{AnyDetector, Detection, DetectorKind, SynDogConfig};
use syndog_net::batch::{classify_batch, ClassCounts, FrameBatch};
use syndog_net::classify::SegmentKind;
use syndog_net::Ipv4Net;
use syndog_sim::SimTime;
use syndog_telemetry::Telemetry;
use syndog_traffic::trace::Direction;

use crate::agent::SynDogAgent;
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::mitigate::MitigationPolicy;
use crate::telemetry::{ChannelTelemetry, ConcurrentTelemetry};

/// What a sniffer channel does when it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// `submit_*` blocks until the sniffer thread frees space. Every frame
    /// is counted exactly once — the deterministic choice for tests and
    /// trace replay.
    #[default]
    Block,
    /// `submit_*` sheds the batch when the channel is full, like a real
    /// line card under overload, and tallies the loss (see
    /// [`ConcurrentSynDog::dropped_batches`] /
    /// [`ConcurrentSynDog::dropped_frames`]).
    Drop,
}

/// One interface's shared counter block: a relaxed atomic per segment
/// kind plus malformed. Sniffer threads `fetch_add` into it; the
/// coordinator `swap(0)`s it at period close. Relaxed ordering suffices
/// because each counter is an independent monotone tally — cross-counter
/// consistency at a period boundary is provided by [`ConcurrentSynDog::flush`]
/// (the channel round-trip is the synchronization edge), and without a
/// flush a boundary frame lands in one period or the next, which the
/// CUSUM absorbs exactly as in the real deployment.
#[derive(Debug, Default)]
struct InterfaceCounters {
    kinds: [AtomicU64; SegmentKind::ALL.len()],
    malformed: AtomicU64,
    dropped_batches: AtomicU64,
    dropped_frames: AtomicU64,
    /// Times the supervisor restarted this interface's worker loop after
    /// a panic. The tallies above survive a restart — they live here, not
    /// in the worker.
    restarts: AtomicU64,
}

impl InterfaceCounters {
    /// Folds one batch's classification tally in (sniffer-thread side).
    fn add(&self, counts: &ClassCounts) {
        for kind in SegmentKind::ALL {
            let n = counts.get(kind);
            if n != 0 {
                self.kinds[kind.index()].fetch_add(n, Ordering::Relaxed);
            }
        }
        let malformed = counts.malformed();
        if malformed != 0 {
            self.malformed.fetch_add(malformed, Ordering::Relaxed);
        }
    }

    /// Drains the period's tally (coordinator side).
    fn drain(&self) -> ClassCounts {
        let mut counts = ClassCounts::new();
        for kind in SegmentKind::ALL {
            counts.add(kind, self.kinds[kind.index()].swap(0, Ordering::Relaxed));
        }
        counts.add_malformed(self.malformed.swap(0, Ordering::Relaxed));
        counts
    }
}

/// Messages a sniffer thread consumes. `Flush` is the drain barrier: the
/// channel is FIFO, so by the time the thread acks, every batch submitted
/// before the flush has been classified and counted.
enum SnifferMsg {
    Batch(FrameBatch),
    Flush(SyncSender<()>),
    /// Test/chaos hook: makes the worker loop panic so the supervisor's
    /// catch-and-restart path can be exercised deterministically.
    InjectPanic,
}

/// One interface's sniffer: its queue, its thread, its counter block, and
/// a preallocated flush-ack channel (the ack sender is cloned per flush,
/// which only bumps a refcount, so a barrier allocates nothing).
struct SnifferThread {
    sender: SyncSender<SnifferMsg>,
    handle: JoinHandle<u64>,
    counters: Arc<InterfaceCounters>,
    ack_tx: SyncSender<()>,
    ack_rx: Receiver<()>,
}

fn spawn_sniffer(capacity: usize, channel: Option<&ChannelTelemetry>) -> SnifferThread {
    let (sender, receiver): (SyncSender<SnifferMsg>, Receiver<SnifferMsg>) = sync_channel(capacity);
    let (ack_tx, ack_rx) = sync_channel(1);
    let counters = Arc::new(InterfaceCounters::default());
    let thread_counters = Arc::clone(&counters);
    let depth = channel.map(ChannelTelemetry::depth);
    let restarts_counter = channel.map(ChannelTelemetry::restarts_counter);
    let handle = std::thread::spawn(move || {
        // Supervision: the worker loop runs under catch_unwind; a panic
        // (poisoned input, injected fault) restarts the loop with the
        // shared counters, channel, and lifetime frame tally intact.
        // AssertUnwindSafe is sound here because every piece of state the
        // closure touches is either atomic (counters, gauge) or a plain
        // tally that is only mid-update for Copy arithmetic.
        let mut frames = 0u64;
        loop {
            let worker = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                while let Ok(msg) = receiver.recv() {
                    match msg {
                        SnifferMsg::Batch(batch) => {
                            // The depth gauge pairs with the submit-side
                            // increment: it reads the batches in flight.
                            if let Some(depth) = &depth {
                                depth.sub(1.0);
                            }
                            frames += batch.len() as u64;
                            thread_counters.add(&classify_batch(&batch));
                        }
                        SnifferMsg::Flush(ack) => {
                            // The flusher may have given up; its problem.
                            let _ = ack.send(());
                        }
                        SnifferMsg::InjectPanic => {
                            panic!("injected sniffer fault (expected in tests)")
                        }
                    }
                }
            }));
            match worker {
                // Channel closed: orderly shutdown.
                Ok(()) => return frames,
                Err(_) => {
                    thread_counters.restarts.fetch_add(1, Ordering::Relaxed);
                    if let Some(restarts) = &restarts_counter {
                        restarts.inc();
                    }
                }
            }
        }
    });
    SnifferThread {
        sender,
        handle,
        counters,
        ack_tx,
        ack_rx,
    }
}

/// A concurrently-deployed SYN-dog: one sniffer thread per interface plus
/// an inline coordinator whose [`SynDogAgent`] closes each period.
pub struct ConcurrentSynDog {
    /// The coordinator's agent, over `0.0.0.0/0`: the deployment classifies
    /// by interface, not address, so the stub prefix is unused, and the
    /// period clock is external ([`Self::close_period`]).
    agent: SynDogAgent,
    outbound: SnifferThread,
    inbound: SnifferThread,
    /// Serializes concurrent flush barriers: each sniffer has exactly one
    /// preallocated ack channel, so two interleaved flushes would steal
    /// each other's acks without this.
    flush_lock: Mutex<()>,
    policy: OverflowPolicy,
    channel_telemetry: Option<ConcurrentTelemetry>,
}

impl std::fmt::Debug for ConcurrentSynDog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentSynDog")
            .field("periods", &self.agent.detections().len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl ConcurrentSynDog {
    /// Starts both sniffer threads with the given channel capacity per
    /// interface and the deterministic [`OverflowPolicy::Block`] policy.
    ///
    /// # Panics
    ///
    /// Panics if `channel_capacity` is zero.
    pub fn start(config: SynDogConfig, channel_capacity: usize) -> Self {
        let detector = DetectorKind::Syndog.build(config);
        Self::with_detector(detector, channel_capacity, OverflowPolicy::Block, None)
    }

    /// Starts both sniffer threads coordinating an explicit detection
    /// strategy (see [`DetectorKind::build`]); the other constructors all
    /// default to the paper's [`DetectorKind::Syndog`]. A `hub` receives
    /// the detector series of [`crate::telemetry::AgentTelemetry`] plus
    /// the channel-layer submit/shed/depth series and the flush-latency
    /// histogram (see [`crate::telemetry`] for the names).
    ///
    /// # Panics
    ///
    /// Panics if `channel_capacity` is zero.
    pub fn with_detector(
        detector: AnyDetector,
        channel_capacity: usize,
        policy: OverflowPolicy,
        hub: Option<Arc<Telemetry>>,
    ) -> Self {
        let stub: Ipv4Net = "0.0.0.0/0".parse().expect("static prefix parses");
        let agent = SynDogAgent::with_detector(stub, detector);
        Self::build(agent, channel_capacity, policy, hub)
    }

    fn build(
        mut agent: SynDogAgent,
        channel_capacity: usize,
        policy: OverflowPolicy,
        hub: Option<Arc<Telemetry>>,
    ) -> Self {
        assert!(channel_capacity > 0, "channel capacity must be non-zero");
        let channel_telemetry = hub.as_deref().map(ConcurrentTelemetry::new);
        if let Some(hub) = hub {
            agent.set_telemetry(hub);
        }
        let sniffer = |direction: Direction| {
            let channel = channel_telemetry.as_ref().map(|t| t.channel(direction));
            spawn_sniffer(channel_capacity, channel)
        };
        ConcurrentSynDog {
            agent,
            outbound: sniffer(Direction::Outbound),
            inbound: sniffer(Direction::Inbound),
            flush_lock: Mutex::new(()),
            policy,
            channel_telemetry,
        }
    }

    /// Attaches a [`MitigationEngine`](crate::mitigate::MitigationEngine)
    /// to the coordinator. The concurrent deployment classifies by
    /// interface and never sees per-record addresses, so mitigation here
    /// is *count-level*: at each
    /// [`Self::close_period`] the engine updates its hysteresis gate from
    /// the detection and, while engaged, sheds the period's SYN excess
    /// over `K̄ + allowance` (the aggregate approximation of the keyed
    /// token buckets — see
    /// [`MitigationEngine::count_throttle`](crate::mitigate::MitigationEngine::count_throttle)).
    pub fn set_mitigation(&mut self, policy: MitigationPolicy) {
        self.agent.set_mitigation(policy);
    }

    /// Builder-style [`Self::set_mitigation`].
    #[must_use]
    pub fn with_mitigation(mut self, policy: MitigationPolicy) -> Self {
        self.set_mitigation(policy);
        self
    }

    fn sniffer(&self, direction: Direction) -> &SnifferThread {
        match direction {
            Direction::Outbound => &self.outbound,
            Direction::Inbound => &self.inbound,
        }
    }

    /// Sums one counter over both interfaces.
    fn sum(&self, field: impl Fn(&InterfaceCounters) -> &AtomicU64) -> u64 {
        [&self.outbound, &self.inbound]
            .iter()
            .map(|sniffer| field(&sniffer.counters).load(Ordering::Relaxed))
            .sum()
    }

    /// Submits a batch of raw frames to the sniffer on `direction`'s
    /// interface. Returns `true` if the batch was enqueued; under
    /// [`OverflowPolicy::Drop`] a full queue sheds the batch, tallies the
    /// loss, and the call returns `false`.
    pub fn submit_batch(&self, direction: Direction, batch: FrameBatch) -> bool {
        let target = self.sniffer(direction);
        let channel = self
            .channel_telemetry
            .as_ref()
            .map(|t| t.channel(direction));
        let frames = batch.len() as u64;
        match self.policy {
            OverflowPolicy::Block => {
                target
                    .sender
                    .send(SnifferMsg::Batch(batch))
                    .expect("sniffer thread alive for the life of the agent");
                if let Some(channel) = channel {
                    channel.record_submitted(frames);
                }
                true
            }
            OverflowPolicy::Drop => match target.sender.try_send(SnifferMsg::Batch(batch)) {
                Ok(()) => {
                    if let Some(channel) = channel {
                        channel.record_submitted(frames);
                    }
                    true
                }
                Err(TrySendError::Full(_)) => {
                    target
                        .counters
                        .dropped_batches
                        .fetch_add(1, Ordering::Relaxed);
                    target
                        .counters
                        .dropped_frames
                        .fetch_add(frames, Ordering::Relaxed);
                    if let Some(channel) = channel {
                        channel.record_dropped(frames);
                    }
                    false
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("sniffer thread alive for the life of the agent")
                }
            },
        }
    }

    /// Deterministic drain barrier: when this returns, every batch
    /// submitted (and not dropped) before the call has been classified and
    /// its counts are visible to [`Self::close_period`]. The flush marker
    /// always uses a blocking send, regardless of overflow policy —
    /// barriers are never shed.
    pub fn flush(&self) {
        let _guard = self.flush_lock.lock().expect("flush lock never poisoned");
        // Timing is telemetry-only: skip the syscalls when unobserved.
        let started = self
            .channel_telemetry
            .is_some()
            .then(std::time::Instant::now);
        // Send both markers first, then collect both acks: the barrier
        // drains the two queues concurrently.
        for sniffer in [&self.outbound, &self.inbound] {
            sniffer
                .sender
                .send(SnifferMsg::Flush(sniffer.ack_tx.clone()))
                .expect("sniffer thread alive for the life of the agent");
        }
        for sniffer in [&self.outbound, &self.inbound] {
            sniffer
                .ack_rx
                .recv()
                .expect("sniffer thread acks every flush");
        }
        if let Some(telemetry) = &self.channel_telemetry {
            let started = started.expect("timer started whenever telemetry is attached");
            telemetry.record_flush(started.elapsed().as_micros() as u64);
        }
    }

    /// Closes the current observation period: drains the shared atomics
    /// through the router's sniffers (the same
    /// [`LeafRouter::take_period_sample`](crate::router::LeafRouter::take_period_sample)
    /// exchange every other mode uses) and closes the period in the
    /// agent ([`SynDogAgent::close_count_period`]: detector, alarms and,
    /// with mitigation armed, count-level shedding). The caller is the
    /// period clock (in a router this is a 20 s timer).
    ///
    /// Call [`Self::flush`] first when exact attribution to this period
    /// matters; without it a frame near the boundary may count toward
    /// either side, which the CUSUM absorbs — exactly like the real
    /// deployment.
    pub fn close_period(&mut self) -> Detection {
        let outbound = self.outbound.counters.drain();
        let inbound = self.inbound.counters.drain();
        if let Some(telemetry) = &self.channel_telemetry {
            telemetry
                .channel(Direction::Outbound)
                .record_malformed(outbound.malformed());
            telemetry
                .channel(Direction::Inbound)
                .record_malformed(inbound.malformed());
        }
        let router = self.agent.router_mut();
        router.observe_counts(Direction::Outbound, &outbound);
        router.observe_counts(Direction::Inbound, &inbound);
        let sample = router.take_period_sample();
        self.agent.close_count_period(sample).0
    }

    /// How many periods a record at `now` closes, for a caller feeding the
    /// sniffers from a record stream; a `now` behind the clock closes none
    /// and counts late, as on every other front end.
    pub fn periods_due(&mut self, now: SimTime) -> u64 {
        self.agent.router_mut().periods_due(now)
    }

    /// The coordinator's agent: detections, alarms, detector, and the
    /// router whose sniffers hold the lifetime frame / malformed tallies
    /// (they update at each [`Self::close_period`]).
    pub fn agent(&self) -> &SynDogAgent {
        &self.agent
    }

    /// Chaos hook: makes `direction`'s sniffer thread panic on its next
    /// dequeue, exercising the supervisor's restart path. The shared
    /// counters (and the lifetime frame tally) survive the restart;
    /// [`Self::sniffer_restarts`] and the
    /// `syndog_sniffer_restarts_total{interface}` series record it.
    pub fn inject_sniffer_panic(&self, direction: Direction) {
        self.sniffer(direction)
            .sender
            .send(SnifferMsg::InjectPanic)
            .expect("sniffer thread alive for the life of the agent");
    }

    /// Times the supervisor restarted a panicked sniffer worker, summed
    /// over both interfaces.
    pub fn sniffer_restarts(&self) -> u64 {
        self.sum(|c| &c.restarts)
    }

    /// Captures the coordinator's detection state as a [`Checkpoint`]
    /// ([`SynDogAgent::checkpoint`]).
    ///
    /// Frames still in flight (queued in the channels or in the shared
    /// atomics) are *not* captured: call [`Self::flush`] and
    /// [`Self::close_period`] first so the checkpoint lands on a period
    /// boundary — the same boundary the restore resumes from.
    pub fn checkpoint(&self) -> Checkpoint {
        self.agent.checkpoint()
    }

    /// Rebuilds a concurrent deployment from a [`Checkpoint`]: fresh
    /// sniffer threads around the agent [`SynDogAgent::restore`] rebuilds
    /// (router clock and counters, detector, detections, alarms,
    /// mitigation). The detector configuration comes from the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::InvalidState`] when the checkpoint's
    /// router state is unusable.
    ///
    /// # Panics
    ///
    /// Panics if `channel_capacity` is zero.
    pub fn resume(
        checkpoint: &Checkpoint,
        channel_capacity: usize,
        policy: OverflowPolicy,
        hub: Option<Arc<Telemetry>>,
    ) -> Result<Self, CheckpointError> {
        let agent = SynDogAgent::restore(checkpoint)?;
        Ok(Self::build(agent, channel_capacity, policy, hub))
    }

    /// Batches shed so far under [`OverflowPolicy::Drop`], summed over
    /// both interfaces.
    pub fn dropped_batches(&self) -> u64 {
        self.sum(|c| &c.dropped_batches)
    }

    /// Frames inside those shed batches, summed over both interfaces.
    pub fn dropped_frames(&self) -> u64 {
        self.sum(|c| &c.dropped_frames)
    }

    /// Shuts both sniffer threads down and returns
    /// `(outbound_frames, inbound_frames)` processed.
    pub fn shutdown(self) -> (u64, u64) {
        let join = |sniffer: SnifferThread, name: &str| {
            drop(sniffer.sender);
            sniffer
                .handle
                .join()
                .unwrap_or_else(|_| panic!("{name} sniffer panicked"))
        };
        let out_frames = join(self.outbound, "outbound");
        let in_frames = join(self.inbound, "inbound");
        (out_frames, in_frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_net::packet::PacketBuilder;

    /// Derives a distinct synthetic source address from the *full* index.
    /// The old `(i >> 8) as u8, i as u8` derivation silently wrapped at
    /// i = 65536, colliding sources in large-scale tests; spreading the
    /// index across three octets keeps sources unique up to 2^24.
    fn source_addr(i: u32) -> std::net::SocketAddrV4 {
        assert!(i < 1 << 24, "synthetic source index must fit 24 bits");
        std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
            1025,
        )
    }

    fn syn_frame(i: u32) -> Vec<u8> {
        PacketBuilder::tcp_syn(source_addr(i), "192.0.2.80:80".parse().unwrap())
            .build()
            .unwrap()
    }

    fn synack_frame(i: u32) -> Vec<u8> {
        PacketBuilder::tcp_syn_ack("192.0.2.80:80".parse().unwrap(), source_addr(i))
            .build()
            .unwrap()
    }

    #[test]
    fn synthetic_sources_stay_distinct_above_the_u16_wrap() {
        // Regression: indices 16 bits apart used to alias to one address.
        assert_ne!(source_addr(1).ip(), source_addr(65_537).ip());
        assert_ne!(syn_frame(1), syn_frame(65_537));
        let mut seen = std::collections::HashSet::new();
        for i in 65_530..65_550u32 {
            assert!(seen.insert(*source_addr(i).ip()), "collision at {i}");
        }
    }

    /// Builds one batch from frame constructors.
    fn batch_of(frames: impl IntoIterator<Item = Vec<u8>>) -> FrameBatch {
        frames.into_iter().collect()
    }

    fn syndog() -> AnyDetector {
        DetectorKind::Syndog.build(SynDogConfig::paper_default())
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let mut dog = ConcurrentSynDog::start(SynDogConfig::paper_default(), 64);
        // 1000 SYNs out in batches of 100; 500 SYN/ACKs in, batches of 50.
        for chunk in 0..10 {
            dog.submit_batch(
                Direction::Outbound,
                batch_of((0..100).map(|i| syn_frame(chunk * 100 + i))),
            );
            dog.submit_batch(
                Direction::Inbound,
                batch_of((0..50).map(|i| synack_frame(chunk * 50 + i))),
            );
        }
        dog.flush();
        let detection = dog.close_period();
        assert_eq!(detection.delta, 500.0);
        let (out_frames, in_frames) = dog.shutdown();
        assert_eq!(out_frames, 1000);
        assert_eq!(in_frames, 500);
    }

    #[test]
    fn wrong_interface_traffic_not_counted() {
        // A SYN arriving on the *inbound* interface (someone connecting
        // into the stub) must not count, nor an outbound SYN/ACK. The
        // flush barrier makes this deterministic: both frames are
        // guaranteed classified before the period closes.
        let mut dog = ConcurrentSynDog::start(SynDogConfig::paper_default(), 16);
        dog.submit_batch(Direction::Inbound, batch_of([syn_frame(1)]));
        dog.submit_batch(Direction::Outbound, batch_of([synack_frame(1)]));
        dog.flush();
        let d = dog.close_period();
        assert_eq!(d.delta, 0.0);
        // The frames were still *seen* — they flowed through the same
        // period exchange, just tallied as non-handshake traffic.
        assert_eq!(
            dog.agent()
                .router()
                .sniffer(Direction::Inbound)
                .frames_seen()
                + dog
                    .agent()
                    .router()
                    .sniffer(Direction::Outbound)
                    .frames_seen(),
            2
        );
        let (out_frames, in_frames) = dog.shutdown();
        assert_eq!(out_frames + in_frames, 2);
    }

    #[test]
    fn flood_detected_across_threads() {
        let mut dog = ConcurrentSynDog::start(SynDogConfig::paper_default(), 1024);
        // Period 0: balanced.
        dog.submit_batch(Direction::Outbound, batch_of((0..200).map(syn_frame)));
        dog.submit_batch(Direction::Inbound, batch_of((0..200).map(synack_frame)));
        dog.flush();
        assert!(!dog.close_period().alarm);
        // Periods 1..: flood — SYNs with no SYN/ACKs.
        let mut alarmed = false;
        for period in 0..4 {
            dog.submit_batch(
                Direction::Outbound,
                batch_of((0..500).map(|i| syn_frame(period * 500 + i))),
            );
            dog.flush();
            alarmed |= dog.close_period().alarm;
        }
        assert!(alarmed, "cross-thread flood must alarm");
        dog.shutdown();
    }

    #[test]
    fn alternate_strategy_coordinates_and_survives_resume() {
        // The coordinator is strategy-agnostic: a SYN-count CUSUM (no
        // reverse-path term) runs through the same channel/atomics path
        // and its learned state survives a checkpoint round-trip.
        let detector = DetectorKind::SynCusum.build(SynDogConfig::paper_default());
        let mut dog = ConcurrentSynDog::with_detector(detector, 64, OverflowPolicy::Block, None);
        for period in 0..3u32 {
            dog.submit_batch(
                Direction::Outbound,
                batch_of((0..100).map(|i| syn_frame(period * 100 + i))),
            );
            dog.flush();
            dog.close_period();
        }
        let before = dog.agent().detector().clone();
        let json = dog.checkpoint().to_json();
        dog.shutdown();
        let checkpoint = Checkpoint::from_json(&json).unwrap();
        let resumed = ConcurrentSynDog::resume(&checkpoint, 64, OverflowPolicy::Block, None)
            .expect("syn-cusum checkpoint resumes");
        assert_eq!(resumed.agent().detector().kind(), DetectorKind::SynCusum);
        assert_eq!(*resumed.agent().detector(), before);
        resumed.shutdown();
    }

    #[test]
    fn malformed_frames_do_not_kill_threads() {
        let mut dog = ConcurrentSynDog::start(SynDogConfig::paper_default(), 16);
        dog.submit_batch(Direction::Outbound, batch_of([vec![0u8; 7], syn_frame(1)]));
        dog.flush();
        assert_eq!(dog.close_period().delta, 1.0);
        assert_eq!(
            dog.agent()
                .router()
                .sniffer(Direction::Outbound)
                .malformed(),
            1
        );
        let (out_frames, _) = dog.shutdown();
        assert_eq!(out_frames, 2);
    }

    #[test]
    fn block_policy_counts_every_frame_under_tiny_capacity() {
        // Channel capacity 1 forces constant backpressure; Block must
        // still deliver every batch.
        let mut dog = ConcurrentSynDog::with_detector(syndog(), 1, OverflowPolicy::Block, None);
        for i in 0..50 {
            assert!(dog.submit_batch(Direction::Outbound, batch_of([syn_frame(i)])));
        }
        dog.flush();
        assert_eq!(dog.close_period().delta, 50.0);
        assert_eq!(dog.dropped_batches(), 0);
        assert_eq!(dog.shutdown().0, 50);
    }

    #[test]
    fn drop_policy_sheds_and_counts_when_channel_full() {
        // Deterministically wedge the outbound sniffer thread: hand it a
        // flush whose ack channel is a rendezvous (capacity-0) channel we
        // don't read yet, so the thread blocks inside `ack.send` and the
        // frame channel (capacity 1) backs up.
        let mut dog = ConcurrentSynDog::with_detector(syndog(), 1, OverflowPolicy::Drop, None);
        let (stall_tx, stall_rx) = sync_channel::<()>(0);
        dog.outbound
            .sender
            .send(SnifferMsg::Flush(stall_tx))
            .unwrap();
        // The flush occupies the single queue slot until the thread
        // dequeues it and parks in the rendezvous send; once that happens
        // this try_send succeeds and an empty batch takes the slot. (The
        // spin waits on our own test fixture, not on sniffer progress.)
        loop {
            match dog
                .outbound
                .sender
                .try_send(SnifferMsg::Batch(FrameBatch::new()))
            {
                Ok(()) => break,
                Err(_) => std::thread::yield_now(),
            }
        }
        // The slot is full and the thread is wedged: batches must be shed.
        assert!(!dog.submit_batch(Direction::Outbound, batch_of((0..3).map(syn_frame))));
        assert!(!dog.submit_batch(Direction::Outbound, batch_of([syn_frame(9)])));
        assert_eq!(dog.dropped_batches(), 2);
        assert_eq!(dog.dropped_frames(), 4);
        // Un-wedge, drain, and verify only the delivered (empty) batch
        // was processed.
        stall_rx.recv().unwrap();
        dog.flush();
        assert_eq!(dog.close_period().delta, 0.0);
        assert_eq!(dog.shutdown().0, 0);
    }

    #[test]
    fn drop_policy_shed_tally_is_exact_in_telemetry_snapshot() {
        // Satellite check for the telemetry subsystem: submit N batches
        // over a wedged capacity-C channel and verify through the
        // *snapshot* (not the accessors) that exactly N - (C - 1) were
        // shed — the wedge batch occupies one of the C slots, so C - 1
        // submissions fit and the rest must be counted as dropped.
        use std::sync::Arc;
        const CAPACITY: usize = 4;
        const SUBMITTED: u64 = 10;
        let hub = Arc::new(Telemetry::new());
        let mut dog = ConcurrentSynDog::with_detector(
            DetectorKind::Syndog.build(SynDogConfig::paper_default()),
            CAPACITY,
            OverflowPolicy::Drop,
            Some(Arc::clone(&hub)),
        );
        let (stall_tx, stall_rx) = sync_channel::<()>(0);
        dog.outbound
            .sender
            .send(SnifferMsg::Flush(stall_tx))
            .unwrap();
        // Fill the queue with telemetry-counted submissions until exactly
        // CAPACITY of them are accepted. The flush transiently occupies a
        // slot, so the CAPACITY-th acceptance proves the thread dequeued
        // it and is now parked in the rendezvous ack — from here on the
        // queue is full and stays full. Total enqueue attempts over the
        // test are `accepted + SUBMITTED` against a capacity-CAPACITY
        // channel: exactly CAPACITY accepted, SUBMITTED shed.
        let mut accepted = 0u64;
        let mut frame_id = 0u32;
        while accepted < CAPACITY as u64 {
            let batch = batch_of([syn_frame(frame_id)]);
            if dog.submit_batch(Direction::Outbound, batch) {
                accepted += 1;
                frame_id += 1;
            } else {
                std::thread::yield_now();
            }
        }
        // Wedge-phase sheds are nondeterministic in count; record the
        // baseline before the measured submissions.
        let shed_baseline = dog.dropped_batches();
        for i in 0..SUBMITTED {
            assert!(
                !dog.submit_batch(
                    Direction::Outbound,
                    batch_of((0..2).map(|j| syn_frame(1000 + (i * 2 + j) as u32))),
                ),
                "a full channel under Drop policy must shed"
            );
        }
        let snap = hub.snapshot();
        let outbound = [("interface", "outbound")];
        assert_eq!(
            snap.counter("syndog_dropped_batches_total", &outbound),
            Some(shed_baseline + SUBMITTED),
            "every shed batch must surface in the snapshot"
        );
        let dropped_frames = snap
            .counter("syndog_dropped_frames_total", &outbound)
            .unwrap();
        // Wedge-phase sheds were 1-frame batches; measured sheds 2-frame.
        assert_eq!(dropped_frames, shed_baseline + 2 * SUBMITTED);
        assert_eq!(
            snap.counter("syndog_submitted_batches_total", &outbound),
            Some(CAPACITY as u64)
        );
        // The wedged thread has dequeued nothing since the fill: depth
        // reads every accepted-but-unprocessed batch.
        let depth = |snap: &syndog_telemetry::Snapshot| {
            snap.gauges
                .iter()
                .find(|g| {
                    g.name == "syndog_channel_depth"
                        && g.labels.iter().any(|(_, v)| v == "outbound")
                })
                .map(|g| g.value)
        };
        assert_eq!(depth(&snap), Some(CAPACITY as f64));
        // Un-wedge and drain; the depth gauge must settle back to zero
        // and the snapshot must agree with the accessors.
        stall_rx.recv().unwrap();
        dog.flush();
        let snap = hub.snapshot();
        assert_eq!(depth(&snap), Some(0.0));
        assert_eq!(
            snap.counter("syndog_dropped_batches_total", &outbound),
            Some(dog.dropped_batches()),
            "snapshot and accessor must agree"
        );
        assert_eq!(
            snap.counter("syndog_dropped_frames_total", &outbound),
            Some(dog.dropped_frames())
        );
        dog.close_period();
        dog.shutdown();
    }

    #[test]
    fn concurrent_telemetry_reports_periods_and_flush_latency() {
        let hub = std::sync::Arc::new(Telemetry::new());
        let mut dog = ConcurrentSynDog::with_detector(
            DetectorKind::Syndog.build(SynDogConfig::paper_default()),
            64,
            OverflowPolicy::Block,
            Some(std::sync::Arc::clone(&hub)),
        );
        dog.submit_batch(Direction::Outbound, batch_of((0..20).map(syn_frame)));
        dog.submit_batch(Direction::Inbound, batch_of((0..10).map(synack_frame)));
        dog.flush();
        dog.close_period();
        let snap = hub.snapshot();
        assert_eq!(snap.counter_total("syndog_periods_total"), 1);
        assert_eq!(snap.counter_total("syndog_syn_total"), 20);
        assert_eq!(snap.counter_total("syndog_synack_total"), 10);
        assert_eq!(
            snap.counter(
                "syndog_segments_total",
                &[("interface", "outbound"), ("kind", "syn")]
            ),
            Some(20)
        );
        let flush = snap
            .histograms
            .iter()
            .find(|h| h.name == "syndog_flush_micros")
            .expect("flush histogram registered");
        assert_eq!(flush.count, 1);
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| e.kind == "period_closed")
                .count(),
            1
        );
        dog.shutdown();
    }

    #[test]
    fn sniffer_restarts_after_panic_with_counters_intact() {
        let hub = Arc::new(Telemetry::new());
        let mut dog = ConcurrentSynDog::with_detector(
            DetectorKind::Syndog.build(SynDogConfig::paper_default()),
            64,
            OverflowPolicy::Block,
            Some(Arc::clone(&hub)),
        );
        dog.submit_batch(Direction::Outbound, batch_of((0..5).map(syn_frame)));
        dog.flush();
        dog.inject_sniffer_panic(Direction::Outbound);
        // Work submitted after the panic must be processed by the
        // restarted worker loop; the flush barrier proves it is alive.
        dog.submit_batch(Direction::Outbound, batch_of((0..3).map(syn_frame)));
        dog.flush();
        assert_eq!(dog.sniffer_restarts(), 1);
        // The pre-panic tallies survived the restart.
        assert_eq!(dog.close_period().delta, 8.0);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter(
                "syndog_sniffer_restarts_total",
                &[("interface", "outbound")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter("syndog_sniffer_restarts_total", &[("interface", "inbound")]),
            Some(0)
        );
        // Shutdown still joins cleanly: the panic was caught, not
        // propagated, and the lifetime frame tally spans the restart.
        let (out_frames, in_frames) = dog.shutdown();
        assert_eq!(out_frames, 8);
        assert_eq!(in_frames, 0);
    }

    #[test]
    fn repeated_panics_keep_restarting_the_worker() {
        let mut dog = ConcurrentSynDog::start(SynDogConfig::paper_default(), 16);
        for round in 0..3 {
            dog.inject_sniffer_panic(Direction::Inbound);
            dog.submit_batch(Direction::Inbound, batch_of([synack_frame(round)]));
            dog.flush();
        }
        assert_eq!(dog.sniffer_restarts(), 3);
        assert_eq!(dog.close_period().delta, -3.0);
        assert_eq!(dog.shutdown().1, 3);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        // Drive one deployment straight through 4 periods; drive another
        // to period 2, checkpoint, resume, and finish. Series must match.
        let submit = |dog: &ConcurrentSynDog, period: u32| {
            dog.submit_batch(
                Direction::Outbound,
                batch_of((0..100 + period * 40).map(|i| syn_frame(period * 1000 + i))),
            );
            dog.submit_batch(
                Direction::Inbound,
                batch_of((0..100).map(|i| synack_frame(period * 1000 + i))),
            );
        };
        let mut straight = ConcurrentSynDog::start(SynDogConfig::paper_default(), 64);
        for period in 0..4 {
            submit(&straight, period);
            straight.flush();
            straight.close_period();
        }

        let mut first_half = ConcurrentSynDog::start(SynDogConfig::paper_default(), 64);
        for period in 0..2 {
            submit(&first_half, period);
            first_half.flush();
            first_half.close_period();
        }
        let json = first_half.checkpoint().to_json();
        first_half.shutdown();
        let checkpoint = Checkpoint::from_json(&json).unwrap();
        let mut resumed =
            ConcurrentSynDog::resume(&checkpoint, 64, OverflowPolicy::Block, None).unwrap();
        assert_eq!(resumed.agent().router().current_period(), 2);
        for period in 2..4 {
            submit(&resumed, period);
            resumed.flush();
            resumed.close_period();
        }
        assert_eq!(resumed.agent().detections(), straight.agent().detections());
        assert_eq!(
            resumed
                .agent()
                .router()
                .sniffer(Direction::Outbound)
                .frames_seen(),
            straight
                .agent()
                .router()
                .sniffer(Direction::Outbound)
                .frames_seen()
        );
        straight.shutdown();
        resumed.shutdown();
    }

    #[test]
    fn count_level_mitigation_sheds_and_survives_resume() {
        let mut dog = ConcurrentSynDog::start(SynDogConfig::paper_default(), 1024)
            .with_mitigation(MitigationPolicy::paper_default());
        // Period 0: balanced — seeds `K̄` at ~200, no engagement.
        dog.submit_batch(Direction::Outbound, batch_of((0..200).map(syn_frame)));
        dog.submit_batch(Direction::Inbound, batch_of((0..200).map(synack_frame)));
        dog.flush();
        dog.close_period();
        assert!(!dog.agent().mitigation().unwrap().is_engaged());
        // Period 1: flood. x = 500/200 = 2.5 slams the gate to the
        // threshold in one period; count-level shedding cuts the excess
        // over K̄ + allowance.
        dog.submit_batch(Direction::Outbound, batch_of((0..500).map(syn_frame)));
        dog.flush();
        dog.close_period();
        let stats = *dog.agent().mitigation().unwrap().stats();
        assert!(dog.agent().mitigation().unwrap().is_engaged());
        assert_eq!(stats.engagements, 1);
        assert!(
            stats.throttled_syns > 250,
            "flood excess must be shed, got {}",
            stats.throttled_syns
        );
        // Checkpoint on the period boundary; the engagement (gate, stats,
        // allowance) must survive the restart.
        let json = dog.checkpoint().to_json();
        dog.shutdown();
        let checkpoint = Checkpoint::from_json(&json).unwrap();
        let resumed =
            ConcurrentSynDog::resume(&checkpoint, 64, OverflowPolicy::Block, None).unwrap();
        let restored = resumed
            .agent()
            .mitigation()
            .expect("mitigation engine restored");
        assert!(restored.is_engaged());
        assert_eq!(*restored.stats(), stats);
        resumed.shutdown();
    }

    #[test]
    fn coordinator_closes_periods_exactly_like_the_agent() {
        // The same per-period handshake counts, with mitigation armed,
        // through the threaded coordinator and through the agent's
        // count-level close: quiet, a flood that engages the throttle,
        // then a drain that releases it.
        let mut periods = vec![(200u32, 200u32); 3];
        periods.extend([(600, 200); 6]);
        periods.extend([(200, 200); 10]);
        let config = SynDogConfig::paper_default();
        let policy = MitigationPolicy::paper_default();
        let mut agent =
            SynDogAgent::new("0.0.0.0/0".parse().unwrap(), config).with_mitigation(policy);
        for &(syn, synack) in &periods {
            agent.close_count_period(syndog::PeriodSignals {
                syn: u64::from(syn),
                synack: u64::from(synack),
                fin: 0,
                rst: 0,
            });
        }
        let stats = *agent.mitigation().unwrap().stats();
        assert!(!agent.alarms().is_empty());
        assert!(stats.throttled_syns > 0 && stats.releases == 1, "{stats:?}");

        let close = |dog: &mut ConcurrentSynDog, period: usize| {
            let (syn, synack) = periods[period];
            let base = period as u32 * 1000;
            dog.submit_batch(
                Direction::Outbound,
                batch_of((0..syn).map(|i| syn_frame(base + i))),
            );
            dog.submit_batch(
                Direction::Inbound,
                batch_of((0..synack).map(|i| synack_frame(base + i))),
            );
            dog.flush();
            dog.close_period();
        };
        let mut dog = ConcurrentSynDog::start(config, 64).with_mitigation(policy);
        for period in 0..periods.len() {
            close(&mut dog, period);
        }
        assert_eq!(dog.agent().detections(), agent.detections());
        assert_eq!(dog.agent().alarms(), agent.alarms());
        assert_eq!(*dog.agent().mitigation().unwrap().stats(), stats);
        dog.shutdown();

        // Kill mid-flood, after the first alarm, and resume: the alarms
        // raised before the checkpoint travel with it.
        let k = 6;
        let mut first = ConcurrentSynDog::start(config, 64).with_mitigation(policy);
        for period in 0..k {
            close(&mut first, period);
        }
        assert!(!first.agent().alarms().is_empty());
        let json = first.checkpoint().to_json();
        first.shutdown();
        let checkpoint = Checkpoint::from_json(&json).unwrap();
        let mut resumed =
            ConcurrentSynDog::resume(&checkpoint, 64, OverflowPolicy::Block, None).unwrap();
        for period in k..periods.len() {
            close(&mut resumed, period);
        }
        assert_eq!(resumed.agent().detections(), agent.detections());
        assert_eq!(resumed.agent().alarms(), agent.alarms());
        assert_eq!(*resumed.agent().mitigation().unwrap().stats(), stats);
        resumed.shutdown();
    }

    #[test]
    fn malformed_frames_surface_in_the_counted_telemetry_bucket() {
        // One bad frame in a batch must be tallied (not silently dropped,
        // not batch-aborting) and must surface on the
        // syndog_frames_malformed_total series at period close.
        let hub = Arc::new(Telemetry::new());
        let mut dog = ConcurrentSynDog::with_detector(
            DetectorKind::Syndog.build(SynDogConfig::paper_default()),
            16,
            OverflowPolicy::Block,
            Some(Arc::clone(&hub)),
        );
        dog.submit_batch(
            Direction::Outbound,
            batch_of([syn_frame(1), vec![0u8; 5], syn_frame(2), vec![0xff; 13]]),
        );
        dog.flush();
        let detection = dog.close_period();
        assert_eq!(detection.delta, 2.0, "good frames still counted");
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter(
                "syndog_frames_malformed_total",
                &[("interface", "outbound")]
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter("syndog_frames_malformed_total", &[("interface", "inbound")]),
            Some(0)
        );
        dog.shutdown();
    }

    #[test]
    fn drop_policy_still_counts_delivered_batches() {
        let mut dog = ConcurrentSynDog::with_detector(syndog(), 64, OverflowPolicy::Drop, None);
        // Plenty of capacity: nothing is shed.
        dog.submit_batch(Direction::Outbound, batch_of((0..10).map(syn_frame)));
        dog.flush();
        assert_eq!(dog.dropped_batches(), 0);
        assert_eq!(dog.close_period().delta, 10.0);
        dog.shutdown();
    }
}
