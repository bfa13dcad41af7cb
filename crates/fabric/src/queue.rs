//! Batched message queues.
//!
//! The enhanced message queue of §4.2: instead of paying the full
//! per-message transport overhead for every produced value, the send side
//! buffers values and ships a whole packet when the batch threshold fills
//! (or on [`SendPort::flush`]). The receive side unpacks packets and hands
//! values out one at a time. Unlike `MPI_Bsend`, buffer space is managed
//! automatically; callers never allocate or recycle it. Internally the
//! receiver returns drained batch buffers to the sender over a freelist
//! channel, so steady-state traffic ships packets without allocating —
//! a fresh buffer is only allocated when the freelist is momentarily
//! empty (startup, or the consumer running behind).
//!
//! Queues are single-producer single-consumer, matching the paper's
//! point-to-point channels between pipeline stages.
//!
//! # Fault injection
//!
//! A queue built through [`channel_faulted`] carries an optional
//! [`FaultInjector`] that perturbs the ship path: packets are sequence
//! numbered, and injected drops/delays/stalls consume attempts from a
//! bounded [`RetryPolicy`] budget ([`FabricError::Retriable`] while budget
//! remains, [`FabricError::Timeout`] once it exhausts). Duplicates ship a
//! ghost copy with a stale sequence number; reorders hold a packet and swap
//! it with its successor on the wire. The receiver discards duplicates and
//! re-sequences out-of-order arrivals, so a correct run delivers the exact
//! produced sequence regardless of the schedule. Recovery pairs
//! [`SendPort::clear`] with [`RecvPort::drain`]; the drain arms a resync so
//! the next packet re-baselines the expected sequence number.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use crossbeam::channel;

use crate::cost::CostModel;
use crate::error::{FabricError, Result};
use crate::fault::{FaultDecision, FaultInjector, RetryPolicy};
use crate::stats::FabricStats;

/// Upper bound on recycled batch buffers parked in a queue's freelist.
///
/// The freelist exists to keep steady-state traffic allocation-free, and
/// steady state needs only a handful of husks: the sender consumes at most
/// one per ship. A deep transport (`capacity` in the hundreds) would
/// otherwise pin `capacity` empty-but-sized buffers per link for the whole
/// run. Beyond this depth a returned husk is simply dropped (and counted
/// in [`FabricStats::freelist_drops`]) — the next ship allocates fresh,
/// which is the pre-freelist behaviour, not an error.
pub const FREELIST_DEPTH: usize = 32;

/// A packet on the wire: either a sequence-numbered batch of values or an
/// end-of-stream mark.
#[derive(Debug)]
enum Packet<T> {
    Data {
        seq: u64,
        batch: Vec<T>,
        /// When the packet hit the transport; the receiver turns this
        /// into the queue-dwell histogram (`fabric.queue_dwell_us`).
        shipped: Instant,
    },
    Eos,
}

/// Producer end of a batched queue.
///
/// Values accumulate in a local buffer until `batch` of them are pending,
/// then move as a single transport packet. Call [`SendPort::flush`] at
/// communication points (e.g. end of a subTX) to push out a partial batch.
#[derive(Debug)]
pub struct SendPort<T> {
    tx: channel::Sender<Packet<T>>,
    buf: Vec<T>,
    batch: usize,
    item_bytes: u64,
    cost: CostModel,
    stats: FabricStats,
    closed: bool,
    fault: Option<FaultInjector>,
    retry: RetryPolicy,
    /// Sequence number of the next logical packet.
    next_seq: u64,
    /// Consecutive consumed attempts for the packet at the head.
    attempts: u32,
    /// A reorder-held packet (seq already assigned) awaiting its successor.
    held: Option<(u64, Vec<T>)>,
    /// Batch buffers recycled by the receiver after unpacking.
    free_rx: channel::Receiver<Vec<T>>,
}

/// Consumer end of a batched queue.
#[derive(Debug)]
pub struct RecvPort<T> {
    rx: channel::Receiver<Packet<T>>,
    cur: VecDeque<T>,
    item_bytes: u64,
    cost: CostModel,
    stats: FabricStats,
    eos: bool,
    /// Next sequence number expected in order.
    expected_seq: u64,
    /// Packets that arrived ahead of sequence, keyed by seq.
    ooo: BTreeMap<u64, Vec<T>>,
    /// Accept the next data packet's seq as the new baseline (armed by
    /// [`RecvPort::drain`], because the peer's `clear` may have retired
    /// sequence numbers that will never arrive).
    resync: bool,
    /// Returns drained batch buffers to the sender for reuse.
    free_tx: channel::Sender<Vec<T>>,
}

/// Creates a batched SPSC queue.
///
/// * `batch` — number of items that triggers an automatic flush (≥ 1).
/// * `capacity` — maximum number of in-flight packets; bounds how far a
///   producer stage can run ahead of its consumer (the paper bounds
///   outstanding MTX versions the same way).
///
/// # Panics
///
/// Panics if `batch` or `capacity` is zero.
pub fn channel<T>(batch: usize, capacity: usize) -> (SendPort<T>, RecvPort<T>) {
    channel_with(batch, capacity, CostModel::FREE, FabricStats::new())
}

/// Creates a batched SPSC queue with an explicit cost model and shared
/// statistics handle.
///
/// # Panics
///
/// Panics if `batch` or `capacity` is zero.
pub fn channel_with<T>(
    batch: usize,
    capacity: usize,
    cost: CostModel,
    stats: FabricStats,
) -> (SendPort<T>, RecvPort<T>) {
    channel_faulted(batch, capacity, cost, stats, None, RetryPolicy::DEFAULT)
}

/// Creates a batched SPSC queue whose send path runs under an optional
/// fault injector with the given retry budget.
///
/// # Panics
///
/// Panics if `batch` or `capacity` is zero.
pub fn channel_faulted<T>(
    batch: usize,
    capacity: usize,
    cost: CostModel,
    stats: FabricStats,
    fault: Option<FaultInjector>,
    retry: RetryPolicy,
) -> (SendPort<T>, RecvPort<T>) {
    assert!(batch >= 1, "batch must be at least 1");
    assert!(capacity >= 1, "capacity must be at least 1");
    let (tx, rx) = channel::bounded(capacity);
    // The freelist is bounded by the transport's depth (at most `capacity`
    // husks can be waiting to come home) and hard-capped at
    // [`FREELIST_DEPTH`] so a deep transport doesn't pin a matching pile
    // of idle buffers. A full freelist just drops the husk.
    let (free_tx, free_rx) = channel::bounded(capacity.min(FREELIST_DEPTH));
    (
        SendPort {
            tx,
            buf: Vec::with_capacity(batch),
            batch,
            item_bytes: std::mem::size_of::<T>() as u64,
            cost,
            stats: stats.clone(),
            closed: false,
            fault,
            retry,
            next_seq: 0,
            attempts: 0,
            held: None,
            free_rx,
        },
        RecvPort {
            rx,
            cur: VecDeque::new(),
            item_bytes: std::mem::size_of::<T>() as u64,
            cost,
            stats,
            eos: false,
            expected_seq: 0,
            ooo: BTreeMap::new(),
            resync: false,
            free_tx,
        },
    )
}

impl<T> SendPort<T> {
    /// Enqueues one value, shipping a packet when the batch fills.
    ///
    /// If the transport is momentarily full — or an injected fault eats the
    /// ship attempt — the value simply stays buffered; like the paper's
    /// queue, buffer space is managed automatically and a producer is never
    /// forced to block mid-compute. Use [`SendPort::flush`] or
    /// [`SendPort::try_flush`] at communication points to guarantee
    /// delivery.
    ///
    /// # Errors
    ///
    /// * [`FabricError::Disconnected`] if the consumer was dropped.
    /// * [`FabricError::Timeout`] if the fault-retry budget exhausted.
    pub fn produce(&mut self, value: T) -> Result<()> {
        debug_assert!(!self.closed, "produce after close");
        self.buf.push(value);
        if self.buf.len() >= self.batch {
            match self.try_flush() {
                Ok(_) => {}
                // The attempt was faulted; the batch stays buffered and a
                // later flush retries.
                Err(FabricError::Retriable) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Ships any buffered values as a packet, blocking while the transport
    /// is full. Under an active fault plan the blocking wait becomes a
    /// bounded exponential-backoff retry loop. No-op when nothing is
    /// pending.
    ///
    /// # Errors
    ///
    /// * [`FabricError::Disconnected`] if the consumer was dropped.
    /// * [`FabricError::Timeout`] if the fault-retry budget exhausted.
    pub fn flush(&mut self) -> Result<()> {
        if self.buf.is_empty() && self.held.is_none() {
            return Ok(());
        }
        if self.fault.is_none() {
            return self.flush_plain();
        }
        // Faulted path: poll `try_flush`, sleeping the policy's backoff
        // between attempts, until the packet ships or the budget runs out.
        loop {
            match self.try_flush() {
                Ok(true) => return Ok(()),
                Ok(false) | Err(FabricError::Retriable) => {
                    let us = self.retry.backoff_us(self.attempts.max(1));
                    std::thread::sleep(Duration::from_micros(us));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// A buffer for the next batch: a husk the receiver recycled when one
    /// is waiting, a fresh allocation otherwise.
    fn next_buf(&mut self) -> Vec<T> {
        self.free_rx
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.batch))
    }

    /// Fault-free flush: try once, then block on the transport.
    fn flush_plain(&mut self) -> Result<()> {
        // `take` leaves a capacity-zero Vec; a real buffer is pulled from
        // the freelist only after the packet actually ships, so a full
        // transport or a disconnect never wastes an allocation.
        let batch = std::mem::take(&mut self.buf);
        let items = batch.len() as u64;
        let seq = self.next_seq;
        self.cost.charge_send();
        // Fast path: transport has room. Otherwise time the stall so the
        // telemetry shows where the pipeline blocks on the fabric.
        let batch = match self.tx.try_send(Packet::Data {
            seq,
            batch,
            shipped: Instant::now(),
        }) {
            Ok(()) => {
                self.next_seq += 1;
                self.stats.record_packet(items, items * self.item_bytes);
                self.buf = self.next_buf();
                return Ok(());
            }
            Err(channel::TrySendError::Full(Packet::Data { batch, .. })) => batch,
            Err(channel::TrySendError::Full(_)) => unreachable!("data packet returned"),
            Err(channel::TrySendError::Disconnected(_)) => return Err(FabricError::Disconnected),
        };
        let stalled = Instant::now();
        // Stamp at the blocking send, not before the stall: dwell
        // measures time in the transport, not time blocked entering it.
        self.tx
            .send(Packet::Data {
                seq,
                batch,
                shipped: Instant::now(),
            })
            .map_err(|_| FabricError::Disconnected)?;
        self.next_seq += 1;
        self.stats
            .record_send_stall_us(stalled.elapsed().as_micros() as u64);
        self.stats.record_packet(items, items * self.item_bytes);
        self.buf = self.next_buf();
        Ok(())
    }

    /// Ships buffered values without blocking.
    ///
    /// Returns `Ok(true)` when nothing remains pending (sent, or nothing
    /// to send) and `Ok(false)` when the transport is full — retry later.
    /// Interruptible senders (the DSMTX recovery protocol) poll this
    /// instead of [`SendPort::flush`].
    ///
    /// # Errors
    ///
    /// * [`FabricError::Retriable`] — an injected fault consumed this
    ///   attempt; the packet stays queued and budget remains.
    /// * [`FabricError::Timeout`] — the retry budget exhausted.
    /// * [`FabricError::Disconnected`] if the consumer was dropped.
    pub fn try_flush(&mut self) -> Result<bool> {
        if self.buf.is_empty() && self.held.is_none() {
            return Ok(true);
        }
        if self.fault.is_none() {
            return self.try_flush_plain();
        }
        self.try_flush_faulted()
    }

    /// Fault-free non-blocking ship of the buffered batch.
    fn try_flush_plain(&mut self) -> Result<bool> {
        if self.buf.is_empty() {
            return Ok(true);
        }
        let batch = std::mem::take(&mut self.buf);
        let seq = self.next_seq;
        match self.raw_try_send(seq, batch)? {
            None => {
                self.next_seq += 1;
                self.buf = self.next_buf();
                Ok(true)
            }
            Some(batch) => {
                // Put the batch back; the next flush retries.
                self.buf = batch;
                Ok(false)
            }
        }
    }

    /// Ship path under an active fault injector.
    fn try_flush_faulted(&mut self) -> Result<bool> {
        if !self.buf.is_empty() {
            // One held packet at a time: while a reordered packet waits,
            // its successor ships untouched (that IS the swap).
            let decision = if self.held.is_some() {
                FaultDecision::None
            } else {
                self.fault.as_mut().expect("faulted path").decide()
            };
            match decision {
                FaultDecision::Drop => {
                    self.stats.record_fault_drop();
                    return self.consume_attempt(true);
                }
                FaultDecision::Delay => {
                    self.stats.record_fault_delay();
                    return self.consume_attempt(true);
                }
                FaultDecision::Stall => {
                    self.stats.record_fault_stall();
                    return self.consume_attempt(true);
                }
                FaultDecision::Reorder => {
                    // Hold the packet with its seq; it ships right after
                    // its successor (or at the next flush, if no successor
                    // materializes), arriving out of order at the peer.
                    // Reporting `false` keeps pollers coming back until
                    // the held packet actually leaves.
                    let fresh = self.next_buf();
                    let batch = std::mem::replace(&mut self.buf, fresh);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.held = Some((seq, batch));
                    self.attempts = 0;
                    self.stats.record_fault_reorder();
                    return Ok(false);
                }
                FaultDecision::None | FaultDecision::Duplicate => {
                    let batch = std::mem::take(&mut self.buf);
                    let seq = self.next_seq;
                    match self.raw_try_send(seq, batch)? {
                        None => {
                            self.next_seq += 1;
                            self.attempts = 0;
                            self.buf = self.next_buf();
                            if decision == FaultDecision::Duplicate {
                                // Best-effort ghost copy with the stale
                                // seq; the receiver must discard it. (No
                                // payload: `T` need not be `Clone`.)
                                self.stats.record_fault_duplicate();
                                let _ = self.tx.try_send(Packet::Data {
                                    seq,
                                    batch: Vec::new(),
                                    shipped: Instant::now(),
                                });
                            }
                        }
                        Some(batch) => {
                            self.buf = batch;
                            return self.consume_attempt(false);
                        }
                    }
                }
            }
        }
        self.ship_held()
    }

    /// Attempts to ship a reorder-held packet. Returns `Ok(true)` when
    /// nothing remains pending.
    fn ship_held(&mut self) -> Result<bool> {
        if let Some((seq, batch)) = self.held.take() {
            match self.raw_try_send(seq, batch)? {
                None => {}
                Some(batch) => {
                    self.held = Some((seq, batch));
                    return self.consume_attempt(false);
                }
            }
        }
        Ok(self.buf.is_empty() && self.held.is_none())
    }

    /// Books one consumed attempt against the retry budget.
    ///
    /// `faulted` distinguishes an injected fault ([`FabricError::Retriable`])
    /// from a merely full transport (`Ok(false)`); both draw budget while a
    /// fault plan is active, so a stalled peer converges to
    /// [`FabricError::Timeout`] instead of blocking forever.
    fn consume_attempt(&mut self, faulted: bool) -> Result<bool> {
        self.stats.record_retry();
        self.attempts += 1;
        if self.attempts >= self.retry.max_attempts {
            self.attempts = 0;
            self.stats.record_send_timeout();
            return Err(FabricError::Timeout);
        }
        if faulted {
            Err(FabricError::Retriable)
        } else {
            Ok(false)
        }
    }

    /// One physical ship attempt: `Ok(None)` shipped (stats charged),
    /// `Ok(Some(batch))` transport full (batch returned).
    fn raw_try_send(&mut self, seq: u64, batch: Vec<T>) -> Result<Option<Vec<T>>> {
        let items = batch.len() as u64;
        match self.tx.try_send(Packet::Data {
            seq,
            batch,
            shipped: Instant::now(),
        }) {
            Ok(()) => {
                self.cost.charge_send();
                self.stats.record_packet(items, items * self.item_bytes);
                Ok(None)
            }
            Err(channel::TrySendError::Full(Packet::Data { batch, .. })) => Ok(Some(batch)),
            Err(channel::TrySendError::Full(_)) => unreachable!("data packet returned"),
            Err(channel::TrySendError::Disconnected(_)) => Err(FabricError::Disconnected),
        }
    }

    /// Flushes and sends the end-of-stream mark. Further `produce` calls
    /// are a logic error.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Disconnected`] if the consumer was dropped,
    /// or [`FabricError::Timeout`] if a faulted flush exhausted its budget.
    pub fn close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.flush()?;
        self.closed = true;
        self.tx
            .send(Packet::Eos)
            .map_err(|_| FabricError::Disconnected)
    }

    /// Discards all locally buffered (not yet shipped) values, any
    /// reorder-held packet, and the pending retry count.
    ///
    /// Used during misspeculation recovery: buffered speculative values
    /// must not survive the rollback (§4.3 step "flush queues"). Under an
    /// active fault plan the peer must [`RecvPort::drain`] in the same
    /// recovery round, because dropping a held packet retires its sequence
    /// number — the drain's resync forgives the gap.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.held = None;
        self.attempts = 0;
    }

    /// Number of values currently buffered (not yet shipped), including a
    /// reorder-held packet.
    pub fn buffered(&self) -> usize {
        self.buf.len() + self.held.as_ref().map_or(0, |(_, b)| b.len())
    }

    /// The configured batch threshold.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

impl<T> RecvPort<T> {
    /// Blocks until one value is available and returns it.
    ///
    /// # Errors
    ///
    /// * [`FabricError::EndOfStream`] after the producer [`SendPort::close`]s.
    /// * [`FabricError::Disconnected`] if the producer was dropped without
    ///   closing.
    pub fn consume(&mut self) -> Result<T> {
        loop {
            if let Some(v) = self.cur.pop_front() {
                return Ok(v);
            }
            if self.eos {
                return Err(FabricError::EndOfStream);
            }
            // Only a wait that actually blocks counts as a recv stall.
            let pkt = match self.rx.try_recv() {
                Ok(pkt) => pkt,
                Err(channel::TryRecvError::Empty) => {
                    let stalled = Instant::now();
                    let pkt = self.rx.recv().map_err(|_| FabricError::Disconnected)?;
                    self.stats
                        .record_recv_stall_us(stalled.elapsed().as_micros() as u64);
                    pkt
                }
                Err(channel::TryRecvError::Disconnected) => return Err(FabricError::Disconnected),
            };
            self.unpack(pkt);
        }
    }

    /// Accepts one in-order batch into the delivery buffer and sends the
    /// emptied buffer home for reuse.
    fn accept(&mut self, mut batch: Vec<T>) {
        self.cost.charge_recv();
        let items = batch.len() as u64;
        self.stats.record_recv(items, items * self.item_bytes);
        self.cur.extend(batch.drain(..));
        self.recycle(batch);
    }

    /// Returns an emptied batch buffer to the sender's freelist; dropped
    /// if the freelist is full (counted) or the sender is gone (not a
    /// drop — nobody is left to reuse it).
    fn recycle(&mut self, mut batch: Vec<T>) {
        batch.clear();
        if let Err(channel::TrySendError::Full(_)) = self.free_tx.try_send(batch) {
            self.stats.record_freelist_drop();
        }
    }

    /// Sequences one packet: dedup stale copies, stash early arrivals,
    /// deliver in-order runs.
    fn unpack(&mut self, pkt: Packet<T>) {
        match pkt {
            Packet::Data {
                seq,
                batch,
                shipped,
            } => {
                self.stats
                    .record_queue_dwell_us(shipped.elapsed().as_micros() as u64);
                if self.resync {
                    // First packet after a recovery drain re-baselines the
                    // sequence (the wire was empty inside the barriers, so
                    // whatever arrives next is the peer's new head).
                    self.resync = false;
                    self.expected_seq = seq;
                }
                if seq < self.expected_seq {
                    // Stale duplicate: already delivered under this seq.
                    self.stats.record_dup_discarded(batch.len() as u64);
                    self.recycle(batch);
                    return;
                }
                if seq > self.expected_seq {
                    // Ahead of sequence (reordered): stash until the gap
                    // fills. A duplicate of a stashed packet is discarded.
                    match self.ooo.entry(seq) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(batch);
                            self.stats.record_ooo_stashed();
                        }
                        std::collections::btree_map::Entry::Occupied(_) => {
                            self.stats.record_dup_discarded(batch.len() as u64);
                            self.recycle(batch);
                        }
                    }
                    return;
                }
                self.accept(batch);
                self.expected_seq += 1;
                while let Some(batch) = self.ooo.remove(&self.expected_seq) {
                    self.accept(batch);
                    self.expected_seq += 1;
                }
            }
            Packet::Eos => {
                // Close ships every held packet first, so the stash is
                // normally empty here; deliver leftovers in seq order
                // defensively rather than lose data.
                let leftovers = std::mem::take(&mut self.ooo);
                for (_, batch) in leftovers {
                    self.accept(batch);
                }
                self.eos = true;
            }
        }
    }

    /// Returns one value if immediately available, without blocking.
    ///
    /// `Ok(None)` means no data is currently queued.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RecvPort::consume`].
    pub fn try_consume(&mut self) -> Result<Option<T>> {
        loop {
            if let Some(v) = self.cur.pop_front() {
                return Ok(Some(v));
            }
            if self.eos {
                return Err(FabricError::EndOfStream);
            }
            match self.rx.try_recv() {
                Ok(pkt) => self.unpack(pkt),
                Err(channel::TryRecvError::Empty) => return Ok(None),
                Err(channel::TryRecvError::Disconnected) => return Err(FabricError::Disconnected),
            }
        }
    }

    /// Discards every value currently in flight, stashed out-of-order, or
    /// partially unpacked, and arms a sequence resync.
    ///
    /// Used during misspeculation recovery while all threads are inside the
    /// recovery barriers, so no new speculative packets can race in. An
    /// end-of-stream mark encountered while draining is preserved.
    pub fn drain(&mut self) -> usize {
        let mut dropped = self.cur.len();
        self.cur.clear();
        let mut still_packed = 0u64;
        for (_, batch) in std::mem::take(&mut self.ooo) {
            dropped += batch.len();
            still_packed += batch.len() as u64;
        }
        // Items still packed on the wire were never counted as received;
        // account for them as drained so in-flight bookkeeping settles.
        while let Ok(pkt) = self.rx.try_recv() {
            match pkt {
                Packet::Data { seq, batch, .. } => {
                    if seq < self.expected_seq {
                        // Ghost duplicate: its send was never counted.
                        self.stats.record_dup_discarded(batch.len() as u64);
                    } else {
                        still_packed += batch.len() as u64;
                        dropped += batch.len();
                    }
                }
                Packet::Eos => self.eos = true,
            }
        }
        if still_packed > 0 {
            self.stats.record_drained(still_packed);
        }
        self.resync = true;
        dropped
    }

    /// True once the end-of-stream mark has been observed and all prior
    /// values consumed.
    pub fn is_eos(&self) -> bool {
        self.eos && self.cur.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_order() {
        let (mut tx, mut rx) = channel::<u32>(4, 16);
        for v in 0..10 {
            tx.produce(v).unwrap();
        }
        tx.flush().unwrap();
        for v in 0..10 {
            assert_eq!(rx.consume().unwrap(), v);
        }
    }

    #[test]
    fn try_consume_sees_nothing_before_flush() {
        let (mut tx, mut rx) = channel::<u32>(100, 16);
        tx.produce(7).unwrap();
        assert_eq!(rx.try_consume().unwrap(), None);
        tx.flush().unwrap();
        assert_eq!(rx.try_consume().unwrap(), Some(7));
        assert_eq!(rx.try_consume().unwrap(), None);
    }

    #[test]
    fn batch_of_one_ships_immediately() {
        let (mut tx, mut rx) = channel::<u8>(1, 16);
        tx.produce(9).unwrap();
        assert_eq!(rx.try_consume().unwrap(), Some(9));
    }

    #[test]
    fn close_yields_end_of_stream() {
        let (mut tx, mut rx) = channel::<u8>(8, 16);
        tx.produce(1).unwrap();
        tx.close().unwrap();
        assert_eq!(rx.consume().unwrap(), 1);
        assert_eq!(rx.consume(), Err(FabricError::EndOfStream));
        assert!(rx.is_eos());
    }

    #[test]
    fn dropped_sender_reports_disconnect() {
        let (tx, mut rx) = channel::<u8>(8, 16);
        drop(tx);
        assert_eq!(rx.consume(), Err(FabricError::Disconnected));
    }

    #[test]
    fn dropped_receiver_reports_disconnect_on_flush() {
        let (mut tx, rx) = channel::<u8>(8, 16);
        tx.produce(1).unwrap();
        drop(rx);
        assert_eq!(tx.flush(), Err(FabricError::Disconnected));
    }

    #[test]
    fn drain_discards_in_flight_and_partial() {
        let (mut tx, mut rx) = channel::<u32>(2, 16);
        for v in 0..6 {
            tx.produce(v).unwrap();
        }
        // Unpack the first packet partially.
        assert_eq!(rx.consume().unwrap(), 0);
        let dropped = rx.drain();
        assert_eq!(dropped, 5);
        assert_eq!(rx.try_consume().unwrap(), None);
    }

    #[test]
    fn drain_preserves_eos() {
        let (mut tx, mut rx) = channel::<u32>(2, 16);
        tx.produce(1).unwrap();
        tx.close().unwrap();
        rx.drain();
        assert_eq!(rx.consume(), Err(FabricError::EndOfStream));
    }

    #[test]
    fn clear_discards_unshipped_only() {
        let (mut tx, mut rx) = channel::<u32>(4, 16);
        for v in 0..4 {
            tx.produce(v).unwrap(); // exactly one full batch ships
        }
        tx.produce(99).unwrap(); // stays buffered
        assert_eq!(tx.buffered(), 1);
        tx.clear();
        assert_eq!(tx.buffered(), 0);
        tx.close().unwrap();
        let mut seen = Vec::new();
        while let Ok(v) = rx.consume() {
            seen.push(v);
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn batch_buffers_are_recycled_through_the_freelist() {
        let (mut tx, mut rx) = channel::<u32>(4, 16);
        for v in 0..4 {
            tx.produce(v).unwrap(); // fills the batch: one packet ships
        }
        for _ in 0..4 {
            rx.consume().unwrap();
        }
        // The receiver sends the drained husk home, emptied but with its
        // capacity intact.
        let husk = tx.free_rx.try_recv().expect("drained husk returned home");
        assert!(husk.is_empty());
        assert!(husk.capacity() >= 4);

        // Round two (husk above was stolen by the test, so this ship
        // allocates): the sender pulls the returned husk on its next ship.
        for v in 0..4 {
            tx.produce(v).unwrap();
        }
        for _ in 0..4 {
            rx.consume().unwrap();
        }
        for v in 0..4 {
            tx.produce(v).unwrap(); // ship reuses the freelisted husk
        }
        assert!(
            tx.free_rx.try_recv().is_err(),
            "husk taken for the next batch"
        );
        assert!(tx.buf.capacity() >= 4, "recycled buffer keeps capacity");
    }

    #[test]
    fn freelist_is_bounded_and_overflow_drops_are_counted() {
        let stats = FabricStats::new();
        // Transport depth 64 but the freelist is capped at FREELIST_DEPTH.
        let (tx, mut rx) = channel_with::<u32>(4, 64, CostModel::FREE, stats.clone());
        for _ in 0..FREELIST_DEPTH + 5 {
            rx.recycle(Vec::with_capacity(4));
        }
        assert_eq!(stats.freelist_drops(), 5, "overflow husks are counted");
        // Every parked husk is still reclaimable by the sender.
        for _ in 0..FREELIST_DEPTH {
            assert!(tx.free_rx.try_recv().is_ok());
        }
        assert!(tx.free_rx.try_recv().is_err(), "freelist holds only DEPTH");
    }

    #[test]
    fn shallow_transport_keeps_shallow_freelist() {
        let stats = FabricStats::new();
        let (tx, mut rx) = channel_with::<u32>(4, 2, CostModel::FREE, stats.clone());
        for _ in 0..3 {
            rx.recycle(Vec::new());
        }
        // capacity (2) < FREELIST_DEPTH: the smaller bound wins.
        assert_eq!(stats.freelist_drops(), 1);
        assert!(tx.free_rx.try_recv().is_ok());
        assert!(tx.free_rx.try_recv().is_ok());
        assert!(tx.free_rx.try_recv().is_err());
    }

    #[test]
    fn stats_count_packets_items_bytes() {
        let stats = FabricStats::new();
        let (mut tx, _rx) = channel_with::<u64>(4, 16, CostModel::FREE, stats.clone());
        for v in 0..8u64 {
            tx.produce(v).unwrap();
        }
        assert_eq!(stats.packets(), 2);
        assert_eq!(stats.items(), 8);
        assert_eq!(stats.bytes(), 64);
        assert!((stats.mean_batch() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn recv_side_stats_mirror_send_side() {
        let stats = FabricStats::new();
        let (mut tx, mut rx) = channel_with::<u64>(4, 16, CostModel::FREE, stats.clone());
        for v in 0..8u64 {
            tx.produce(v).unwrap();
        }
        assert_eq!(stats.in_flight_items(), 8);
        for _ in 0..8 {
            rx.consume().unwrap();
        }
        assert_eq!(stats.recv_packets(), 2);
        assert_eq!(stats.recv_items(), 8);
        assert_eq!(stats.recv_bytes(), 64);
        assert_eq!(stats.in_flight_items(), 0);
        assert_eq!(stats.depth_high_water(), 8);
        assert_eq!(stats.batch_items().count(), 2);
    }

    #[test]
    fn drain_counts_only_still_packed_items() {
        let stats = FabricStats::new();
        let (mut tx, mut rx) = channel_with::<u32>(2, 16, CostModel::FREE, stats.clone());
        for v in 0..6 {
            tx.produce(v).unwrap();
        }
        // Unpack the first packet partially: 2 items become "received".
        assert_eq!(rx.consume().unwrap(), 0);
        rx.drain();
        assert_eq!(stats.recv_items(), 2);
        assert_eq!(stats.drained_items(), 4);
        assert_eq!(stats.in_flight_items(), 0);
    }

    #[test]
    fn consumer_blocking_on_empty_records_recv_stall() {
        let stats = FabricStats::new();
        let (mut tx, mut rx) = channel_with::<u32>(1, 4, CostModel::FREE, stats.clone());
        let consumer = std::thread::spawn(move || rx.consume().unwrap());
        // The consumer reaches its blocking recv well within this margin,
        // so the wait is a genuine stall.
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.produce(7).unwrap();
        assert_eq!(consumer.join().unwrap(), 7);
        assert_eq!(stats.recv_stall_us().count(), 1, "one recv stall");
    }

    #[test]
    fn flush_blocking_on_full_records_send_stall() {
        let stats = FabricStats::new();
        let (mut tx, mut rx) = channel_with::<u32>(1, 1, CostModel::FREE, stats.clone());
        tx.produce(1).unwrap(); // ships, fills the single transport slot
        tx.produce(2).unwrap(); // transport full: stays buffered
        assert_eq!(tx.buffered(), 1);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let mut got = Vec::new();
            while let Ok(v) = rx.consume() {
                got.push(v);
            }
            got
        });
        tx.flush().unwrap(); // try_send hits Full, then blocks ~20ms
        tx.close().unwrap();
        assert_eq!(consumer.join().unwrap(), vec![1, 2]);
        assert_eq!(stats.send_stall_us().count(), 1, "one send stall");
    }

    #[test]
    fn cross_thread_transfer() {
        let (mut tx, mut rx) = channel::<u64>(32, 64);
        let producer = std::thread::spawn(move || {
            for v in 0..10_000u64 {
                tx.produce(v).unwrap();
            }
            tx.close().unwrap();
        });
        let mut expected = 0u64;
        while let Ok(v) = rx.consume() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, 10_000);
        producer.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_panics() {
        let _ = channel::<u8>(0, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = channel::<u8>(1, 0);
    }
}

#[cfg(test)]
mod try_flush_tests {
    use super::*;

    #[test]
    fn try_flush_reports_full_and_retries() {
        let (mut tx, mut rx) = channel::<u32>(1, 1);
        tx.produce(1).unwrap(); // fills the single transport slot
        tx.produce(2).unwrap(); // transport full: stays buffered
        assert!(!tx.try_flush().unwrap(), "transport full");
        assert_eq!(tx.buffered(), 1, "batch put back");
        assert_eq!(rx.consume().unwrap(), 1);
        assert!(tx.try_flush().unwrap());
        assert_eq!(rx.consume().unwrap(), 2);
    }

    #[test]
    fn try_flush_empty_is_true() {
        let (mut tx, _rx) = channel::<u32>(4, 4);
        assert!(tx.try_flush().unwrap());
    }

    #[test]
    fn produce_never_blocks_when_transport_full() {
        let (mut tx, mut rx) = channel::<u32>(1, 1);
        for v in 0..100 {
            tx.produce(v).unwrap(); // must not block even with capacity 1
        }
        // Everything is recoverable: drain interleaved with flushes.
        let mut seen = Vec::new();
        loop {
            while let Some(v) = rx.try_consume().unwrap() {
                seen.push(v);
            }
            if tx.try_flush().unwrap() && tx.buffered() == 0 {
                while let Some(v) = rx.try_consume().unwrap() {
                    seen.push(v);
                }
                break;
            }
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates};

    fn faulted_pair<T>(
        rates: FaultRates,
        seed: u64,
        retry: RetryPolicy,
    ) -> (SendPort<T>, RecvPort<T>, FabricStats) {
        let stats = FabricStats::new();
        let plan = FaultPlan::new(seed, rates);
        let (tx, rx) = channel_faulted(
            4,
            64,
            CostModel::FREE,
            stats.clone(),
            Some(plan.injector(0)),
            retry,
        );
        (tx, rx, stats)
    }

    /// Pump every produced value through a faulted link, retrying faulted
    /// attempts, and return what the receiver saw.
    fn pump(values: &[u32], rates: FaultRates, seed: u64) -> Vec<u32> {
        let (mut tx, mut rx, _stats) = faulted_pair::<u32>(rates, seed, RetryPolicy::DEFAULT);
        let mut seen = Vec::new();
        for &v in values {
            tx.produce(v).unwrap();
            while let Some(got) = rx.try_consume().unwrap() {
                seen.push(got);
            }
        }
        loop {
            let done = match tx.try_flush() {
                Ok(done) => done,
                Err(FabricError::Retriable) => false,
                Err(e) => panic!("unexpected {e}"),
            };
            while let Some(got) = rx.try_consume().unwrap() {
                seen.push(got);
            }
            if done {
                break;
            }
        }
        seen
    }

    #[test]
    fn drops_are_retried_to_exact_delivery() {
        let vals: Vec<u32> = (0..200).collect();
        assert_eq!(pump(&vals, FaultRates::only_drop(0.3), 11), vals);
    }

    #[test]
    fn delays_are_retried_to_exact_delivery() {
        let vals: Vec<u32> = (0..200).collect();
        assert_eq!(pump(&vals, FaultRates::only_delay(0.3), 12), vals);
    }

    #[test]
    fn duplicates_are_discarded_by_seq() {
        let vals: Vec<u32> = (0..200).collect();
        let seen = pump(&vals, FaultRates::only_duplicate(0.5), 13);
        assert_eq!(seen, vals, "ghost copies must not surface");
    }

    #[test]
    fn reorders_are_resequenced() {
        let vals: Vec<u32> = (0..200).collect();
        let (mut tx, mut rx, stats) =
            faulted_pair::<u32>(FaultRates::only_reorder(0.4), 14, RetryPolicy::DEFAULT);
        for &v in &vals {
            tx.produce(v).unwrap();
        }
        tx.close().unwrap(); // ships any held packet before Eos
        let mut seen = Vec::new();
        while let Ok(v) = rx.consume() {
            seen.push(v);
        }
        assert_eq!(seen, vals);
        assert!(stats.fault_reorders() > 0, "schedule must actually reorder");
        assert!(stats.ooo_packets() > 0, "receiver must see packets early");
    }

    #[test]
    fn payload_duplicate_is_discarded_by_seq() {
        // Hand-inject a full-payload retransmit of an already-delivered
        // seq; a receiver that ignores seq would deliver items twice.
        let stats = FabricStats::new();
        let (mut tx, mut rx) = channel_with::<u32>(1, 16, CostModel::FREE, stats.clone());
        tx.produce(5).unwrap(); // seq 0 ships
        assert_eq!(rx.consume().unwrap(), 5);
        tx.tx
            .send(Packet::Data {
                seq: 0,
                batch: vec![5],
                shipped: Instant::now(),
            })
            .unwrap();
        tx.produce(6).unwrap(); // seq 1
        assert_eq!(rx.consume().unwrap(), 6, "stale retransmit skipped");
        assert_eq!(stats.dup_items_discarded(), 1);
    }

    #[test]
    fn permanent_fault_times_out_after_budget() {
        let retry = RetryPolicy {
            max_attempts: 8,
            base_backoff_us: 1,
            max_backoff_us: 10,
        };
        let (mut tx, _rx, stats) = faulted_pair::<u32>(FaultRates::only_drop(1.0), 15, retry);
        tx.produce(1).unwrap();
        let mut outcome = None;
        for _ in 0..100 {
            match tx.try_flush() {
                Err(FabricError::Retriable) => continue,
                other => {
                    outcome = Some(other);
                    break;
                }
            }
        }
        assert_eq!(outcome, Some(Err(FabricError::Timeout)));
        assert_eq!(stats.send_timeouts(), 1);
        assert_eq!(stats.retries(), 8);
        assert!(stats.fault_drops() >= 8);
    }

    #[test]
    fn blocking_flush_times_out_under_permanent_fault() {
        let retry = RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 1,
            max_backoff_us: 5,
        };
        let (mut tx, _rx, _stats) = faulted_pair::<u32>(FaultRates::only_drop(1.0), 16, retry);
        tx.buf.push(1);
        assert_eq!(tx.flush(), Err(FabricError::Timeout));
    }

    #[test]
    fn stall_window_consumes_budget_then_recovers() {
        let retry = RetryPolicy {
            max_attempts: 32,
            base_backoff_us: 1,
            max_backoff_us: 5,
        };
        // Stall every draw with short windows: attempts burn during the
        // window, then ships succeed again.
        let (mut tx, mut rx, stats) =
            faulted_pair::<u32>(FaultRates::only_stall(0.3, 4), 17, retry);
        let vals: Vec<u32> = (0..100).collect();
        for &v in &vals {
            tx.produce(v).unwrap();
        }
        tx.close().unwrap();
        let mut seen = Vec::new();
        while let Ok(v) = rx.consume() {
            seen.push(v);
        }
        assert_eq!(seen, vals);
        assert!(stats.fault_stalls() > 0);
    }

    #[test]
    fn full_transport_counts_attempts_only_when_faulted() {
        // Fault-free: a full transport never times out, it just reports
        // Ok(false) forever (existing backpressure semantics).
        let (mut tx, _rx) = channel::<u32>(1, 1);
        tx.produce(1).unwrap();
        tx.produce(2).unwrap();
        for _ in 0..200 {
            assert!(!tx.try_flush().unwrap());
        }
        // Faulted: the same situation draws down the budget.
        let retry = RetryPolicy {
            max_attempts: 8,
            base_backoff_us: 1,
            max_backoff_us: 5,
        };
        let stats = FabricStats::new();
        let plan = FaultPlan::new(3, FaultRates::only_drop(0.0));
        let (mut ftx, _frx) = channel_faulted::<u32>(
            1,
            1,
            CostModel::FREE,
            stats.clone(),
            Some(plan.injector(0)),
            retry,
        );
        ftx.produce(1).unwrap(); // ships, fills the slot
        ftx.produce(2).unwrap(); // full: buffered
        let mut timed_out = false;
        for _ in 0..100 {
            match ftx.try_flush() {
                Ok(false) => continue,
                Err(FabricError::Timeout) => {
                    timed_out = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(timed_out, "stalled peer must converge to Timeout");
    }

    #[test]
    fn clear_drops_held_packet_and_drain_resyncs() {
        let (mut tx, mut rx, _stats) =
            faulted_pair::<u32>(FaultRates::only_reorder(1.0), 18, RetryPolicy::DEFAULT);
        tx.produce(1).unwrap();
        tx.produce(2).unwrap();
        tx.produce(3).unwrap();
        tx.produce(4).unwrap(); // one batch held for reorder
        assert!(tx.buffered() > 0, "reorder must hold the batch");
        // Recovery: both ends reset.
        tx.clear();
        let _ = rx.drain();
        assert_eq!(tx.buffered(), 0);
        // Post-recovery traffic flows despite the retired seq numbers —
        // but rate 1.0 holds every batch, so close() ships it with Eos.
        for v in [7, 8, 9, 10] {
            tx.produce(v).unwrap();
        }
        tx.close().unwrap();
        let mut seen = Vec::new();
        while let Ok(v) = rx.consume() {
            seen.push(v);
        }
        assert_eq!(seen, vec![7, 8, 9, 10]);
    }

    #[test]
    fn faulted_cross_thread_transfer_is_exact() {
        let stats = FabricStats::new();
        let plan = FaultPlan::new(0xFEED, FaultRates::uniform(0.2));
        let (mut tx, mut rx) = channel_faulted::<u64>(
            8,
            32,
            CostModel::FREE,
            stats.clone(),
            Some(plan.injector(7)),
            // A huge budget: the consumer thread may be descheduled, and
            // this test is about delivery, not timeout conversion.
            RetryPolicy {
                max_attempts: 1_000_000,
                base_backoff_us: 1,
                max_backoff_us: 50,
            },
        );
        let producer = std::thread::spawn(move || {
            for v in 0..5_000u64 {
                tx.produce(v).unwrap();
            }
            tx.close().unwrap();
        });
        let mut expected = 0u64;
        while let Ok(v) = rx.consume() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, 5_000);
        producer.join().unwrap();
        assert!(stats.faults_total() > 0, "schedule must actually fire");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates};
    use proptest::prelude::*;

    proptest! {
        /// Any batch/capacity combination delivers the exact sequence when
        /// the consumer drains interleaved with flush retries.
        #[test]
        fn exact_delivery_for_any_tuning(
            values in proptest::collection::vec(any::<u32>(), 0..300),
            batch in 1usize..20,
            capacity in 1usize..8,
        ) {
            let (mut tx, mut rx) = channel::<u32>(batch, capacity);
            let mut seen = Vec::with_capacity(values.len());
            for &v in &values {
                tx.produce(v).unwrap();
                // Interleave draining so small capacities make progress.
                while let Some(got) = rx.try_consume().unwrap() {
                    seen.push(got);
                }
            }
            loop {
                let done = tx.try_flush().unwrap();
                while let Some(got) = rx.try_consume().unwrap() {
                    seen.push(got);
                }
                if done && tx.buffered() == 0 {
                    break;
                }
            }
            prop_assert_eq!(seen, values);
        }

        /// Stats account exactly for every produced item.
        #[test]
        fn stats_count_every_item(
            n in 0u64..500,
            batch in 1usize..64,
        ) {
            let stats = FabricStats::new();
            let (mut tx, mut rx) =
                channel_with::<u64>(batch, 1024, CostModel::FREE, stats.clone());
            for v in 0..n {
                tx.produce(v).unwrap();
            }
            tx.flush().unwrap();
            prop_assert_eq!(stats.items(), n);
            prop_assert_eq!(stats.bytes(), n * 8);
            let mut count = 0;
            while rx.try_consume().unwrap().is_some() {
                count += 1;
            }
            prop_assert_eq!(count, n);
        }

        /// drain() always leaves the receiver empty, regardless of what
        /// was in flight or partially unpacked.
        #[test]
        fn drain_leaves_nothing(
            produced in 0usize..200,
            consumed_first in 0usize..200,
            batch in 1usize..16,
        ) {
            let (mut tx, mut rx) = channel::<usize>(batch, 256);
            for v in 0..produced {
                tx.produce(v).unwrap();
            }
            tx.flush().unwrap();
            for _ in 0..consumed_first.min(produced) {
                let _ = rx.try_consume().unwrap();
            }
            rx.drain();
            prop_assert_eq!(rx.try_consume().unwrap(), None);
        }

        /// Any seeded fault schedule still delivers the exact sequence
        /// once faulted attempts are retried.
        #[test]
        fn exact_delivery_under_any_fault_schedule(
            n in 0u32..300,
            seed in any::<u64>(),
            p in 0.0f64..0.6,
            batch in 1usize..12,
        ) {
            let plan = FaultPlan::new(seed, FaultRates::uniform(p));
            let (mut tx, mut rx) = channel_faulted::<u32>(
                batch, 64, CostModel::FREE, FabricStats::new(),
                Some(plan.injector(0)), RetryPolicy::DEFAULT,
            );
            let mut seen = Vec::new();
            for v in 0..n {
                tx.produce(v).unwrap();
                while let Some(got) = rx.try_consume().unwrap() {
                    seen.push(got);
                }
            }
            loop {
                let done = match tx.try_flush() {
                    Ok(done) => done,
                    Err(FabricError::Retriable) => false,
                    Err(e) => panic!("unexpected fabric error: {e}"),
                };
                while let Some(got) = rx.try_consume().unwrap() {
                    seen.push(got);
                }
                if done {
                    break;
                }
            }
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }
}
